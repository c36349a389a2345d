// Fault-tolerant serving under deterministic chaos: events/sec and
// repair-latency percentiles of the ObjectService at a sweep of crash rates
// (DESIGN.md §9), written as a machine-readable JSON artifact
// (BENCH_availability_chaos.json) like the other serving benches.
//
// Usage: availability_chaos [--out=BENCH_availability_chaos.json]
//                           [--events=1000000] [--objects=512]
//                           [--processors=16] [--shards=1,4,16]
//                           [--threads=1,2,4] [--batch=8192] [--repeats=2]
//                           [--crash_rates=0,1e-5,1e-3]
//                           [--recover_factor=10] [--chaos_seed=77]
//                           [--expect_control=N] [--expect_data=N]
//                           [--expect_io=N] [--expect_crc=N]
//
// Per crash rate, every (shards, threads) configuration must reproduce a
// byte-identical fingerprint — integer traffic counts, fault counters, the
// repair-latency multiset, and a CRC32 over the sorted per-object (id,
// scheme) table — or the bench aborts: chaos is part of the determinism
// contract, not an exemption from it. The zero-rate row is additionally
// replayed through the *plain* (injector-free) engine and must match it
// exactly — the fault path is cost-identical when no fault fires. The
// --expect_* flags pin that zero-rate fingerprint to the same committed
// goldens service_scaling uses (the CI perf-smoke gate).
//
// Random crashes honor min_live = t, so no batch is ever rejected here;
// requests from crashed issuers go unavailable and schemes heal by
// deterministic re-replication, whose virtual latency (two hops per replica
// plus retransmission backoff) is summarized as p50/p90/p99/max.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "objalloc/core/object_service.h"
#include "objalloc/util/crc32.h"
#include "objalloc/util/logging.h"
#include "objalloc/util/parallel.h"
#include "objalloc/util/stats.h"
#include "objalloc/workload/multi_object.h"

namespace {

using namespace objalloc;

struct Fingerprint {
  model::CostBreakdown breakdown;
  int64_t requests = 0;
  uint32_t scheme_crc = 0;
  int64_t crashes = 0;
  int64_t recoveries = 0;
  int64_t repairs = 0;
  int64_t replicas_added = 0;
  int64_t unavailable = 0;
  uint32_t latency_crc = 0;  // CRC over the sorted repair-latency multiset

  bool operator==(const Fingerprint& other) const {
    return breakdown == other.breakdown && requests == other.requests &&
           scheme_crc == other.scheme_crc && crashes == other.crashes &&
           recoveries == other.recoveries && repairs == other.repairs &&
           replicas_added == other.replicas_added &&
           unavailable == other.unavailable &&
           latency_crc == other.latency_crc;
  }
};

core::ObjectConfig ServiceConfig() {
  core::ObjectConfig config;
  config.initial_scheme = model::ProcessorSet{0, 1};
  config.algorithm = core::AlgorithmKind::kDynamic;
  return config;
}

uint32_t LatencyCrc(std::vector<double> samples) {
  // Sample *order* depends on the shard/thread configuration; the multiset
  // does not — fingerprint the sorted sequence.
  std::sort(samples.begin(), samples.end());
  uint32_t crc = 0;
  for (const double sample : samples) {
    crc = util::Crc32(&sample, sizeof(sample), crc);
  }
  return crc;
}

std::vector<int> ParseIntList(const std::string& arg, const char* flag) {
  std::vector<int> values;
  size_t pos = 0;
  while (pos <= arg.size()) {
    size_t comma = arg.find(',', pos);
    if (comma == std::string::npos) comma = arg.size();
    const std::string token = arg.substr(pos, comma - pos);
    int value = 0;
    try {
      size_t used = 0;
      value = std::stoi(token, &used);
      if (used != token.size()) value = 0;
    } catch (const std::exception&) {
      value = 0;
    }
    if (value <= 0) {
      std::fprintf(stderr, "bad value in %s: '%s'\n", flag, token.c_str());
      std::exit(1);
    }
    values.push_back(value);
    pos = comma + 1;
    if (pos == arg.size() + 1) break;
  }
  return values;
}

std::vector<double> ParseDoubleList(const std::string& arg,
                                    const char* flag) {
  std::vector<double> values;
  size_t pos = 0;
  while (pos <= arg.size()) {
    size_t comma = arg.find(',', pos);
    if (comma == std::string::npos) comma = arg.size();
    const std::string token = arg.substr(pos, comma - pos);
    double value = -1;
    try {
      size_t used = 0;
      value = std::stod(token, &used);
      if (used != token.size()) value = -1;
    } catch (const std::exception&) {
      value = -1;
    }
    if (value < 0 || value > 1) {
      std::fprintf(stderr, "bad rate in %s: '%s'\n", flag, token.c_str());
      std::exit(1);
    }
    values.push_back(value);
    pos = comma + 1;
    if (pos == arg.size() + 1) break;
  }
  return values;
}

struct RateResult {
  double crash_rate = 0;
  double events_per_sec = 0;  // best across configs and repeats
  Fingerprint fingerprint;
  double repair_p50 = 0;
  double repair_p90 = 0;
  double repair_p99 = 0;
  double repair_max = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_availability_chaos.json";
  size_t events = 1000000;
  int objects = 512;
  int processors = 16;
  std::vector<int> shard_counts = {1, 4, 16};
  std::vector<int> thread_counts = {1, 2, 4};
  size_t batch_size = 8192;
  int repeats = 2;
  std::vector<double> crash_rates = {0, 1e-5, 1e-3};
  double recover_factor = 10;
  uint64_t chaos_seed = 77;
  long long expect_control = -1;
  long long expect_data = -1;
  long long expect_io = -1;
  long long expect_crc = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto int_flag = [&](const char* prefix, auto* out) {
      const size_t n = std::string(prefix).size();
      if (arg.rfind(prefix, 0) != 0) return false;
      long long value = std::atoll(arg.substr(n).c_str());
      if (value <= 0) {
        std::fprintf(stderr, "bad value: %s\n", arg.c_str());
        std::exit(1);
      }
      *out = static_cast<std::decay_t<decltype(*out)>>(value);
      return true;
    };
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (int_flag("--events=", &events) ||
               int_flag("--objects=", &objects) ||
               int_flag("--processors=", &processors) ||
               int_flag("--batch=", &batch_size) ||
               int_flag("--repeats=", &repeats) ||
               int_flag("--chaos_seed=", &chaos_seed) ||
               int_flag("--expect_control=", &expect_control) ||
               int_flag("--expect_data=", &expect_data) ||
               int_flag("--expect_io=", &expect_io) ||
               int_flag("--expect_crc=", &expect_crc)) {
    } else if (arg.rfind("--shards=", 0) == 0) {
      shard_counts = ParseIntList(arg.substr(9), "--shards=");
    } else if (arg.rfind("--threads=", 0) == 0) {
      thread_counts = ParseIntList(arg.substr(10), "--threads=");
    } else if (arg.rfind("--crash_rates=", 0) == 0) {
      crash_rates = ParseDoubleList(arg.substr(14), "--crash_rates=");
    } else if (arg.rfind("--recover_factor=", 0) == 0) {
      recover_factor = std::atof(arg.substr(17).c_str());
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 1;
    }
  }

  // The service_scaling trace, so the zero-rate goldens are shared.
  const uint64_t kSeed = 0x5eed5ca1e;
  workload::MultiObjectOptions options;
  options.num_processors = processors;
  options.num_objects = objects;
  options.length = events;
  options.popularity_skew = 0.9;
  std::printf("generating %zu events over %d objects, %d processors "
              "(seed %llu)...\n",
              events, objects, processors,
              static_cast<unsigned long long>(kSeed));
  const workload::MultiObjectTrace trace =
      workload::GenerateMultiObjectTrace(options, kSeed);
  const model::CostModel cost_model =
      model::CostModel::StationaryComputing(0.25, 1.0);
  const int threshold = ServiceConfig().initial_scheme.Size();

  // Plain-engine reference: the zero-fault chaos row must match this
  // exactly (the fault path is cost-identical when no fault fires).
  Fingerprint plain;
  {
    util::ScopedThreads scope(1);
    core::ObjectService service(processors, cost_model);
    service.ReserveObjects(static_cast<size_t>(objects));
    for (int id = 0; id < objects; ++id) {
      OBJALLOC_CHECK(service.AddObject(id, ServiceConfig()).ok());
    }
    std::span<const workload::MultiObjectEvent> all(trace.events);
    for (size_t pos = 0; pos < all.size(); pos += batch_size) {
      auto batch = service.ServeBatch(
          all.subspan(pos, std::min(batch_size, all.size() - pos)));
      OBJALLOC_CHECK(batch.ok()) << batch.status().ToString();
    }
    plain.breakdown = service.TotalBreakdown();
    plain.requests = service.TotalRequests();
    plain.scheme_crc = service.SchemeCrc();
  }

  std::vector<RateResult> results;
  for (const double crash_rate : crash_rates) {
    core::FaultInjectorOptions fault_options;
    fault_options.seed = chaos_seed;
    fault_options.crash_rate = crash_rate;
    fault_options.recover_rate =
        std::min(1.0, crash_rate * std::max(recover_factor, 1.0));
    fault_options.min_live = threshold;  // never below t live: no rejects

    RateResult result;
    result.crash_rate = crash_rate;
    bool have_reference = false;
    std::vector<double> repair_latency;
    for (int shards : shard_counts) {
      for (int threads : thread_counts) {
        util::ScopedThreads scope(threads);
        double best = 0;
        Fingerprint fingerprint;
        for (int r = 0; r < repeats; ++r) {
          core::ServiceOptions service_options;
          service_options.num_shards = shards;
          core::ObjectService service(processors, cost_model,
                                      service_options);
          service.ReserveObjects(static_cast<size_t>(objects));
          for (int id = 0; id < objects; ++id) {
            OBJALLOC_CHECK(service.AddObject(id, ServiceConfig()).ok());
          }
          OBJALLOC_CHECK(service.EnableFaults(fault_options).ok());
          auto start = std::chrono::steady_clock::now();
          std::span<const workload::MultiObjectEvent> all(trace.events);
          for (size_t pos = 0; pos < all.size(); pos += batch_size) {
            auto batch = service.ServeBatch(
                all.subspan(pos, std::min(batch_size, all.size() - pos)));
            OBJALLOC_CHECK(batch.ok()) << batch.status().ToString();
          }
          auto stop = std::chrono::steady_clock::now();
          const double seconds =
              std::chrono::duration<double>(stop - start).count();
          if (r == 0 || seconds < best) best = seconds;
          const core::FaultStats& stats = service.fault_stats();
          fingerprint.breakdown = service.TotalBreakdown();
          fingerprint.requests = service.TotalRequests();
          fingerprint.scheme_crc = service.SchemeCrc();
          fingerprint.crashes = stats.crashes;
          fingerprint.recoveries = stats.recoveries;
          fingerprint.repairs = stats.repairs;
          fingerprint.replicas_added = stats.replicas_added;
          fingerprint.unavailable = stats.unavailable_requests;
          fingerprint.latency_crc = LatencyCrc(stats.repair_latency);
          if (!have_reference) repair_latency = stats.repair_latency;
        }
        if (!have_reference) {
          result.fingerprint = fingerprint;
          have_reference = true;
        }
        OBJALLOC_CHECK(fingerprint == result.fingerprint)
            << "crash_rate=" << crash_rate << " shards=" << shards
            << " threads=" << threads
            << " diverged from the reference run: chaos must be "
               "bit-identical across every configuration";
        const double eps = static_cast<double>(events) / best;
        if (eps > result.events_per_sec) result.events_per_sec = eps;
      }
    }
    if (crash_rate == 0) {
      OBJALLOC_CHECK(result.fingerprint.breakdown == plain.breakdown &&
                     result.fingerprint.requests == plain.requests &&
                     result.fingerprint.scheme_crc == plain.scheme_crc)
          << "zero-fault chaos path diverged from the plain engine: the "
             "fault path must be cost-identical when no fault fires";
      OBJALLOC_CHECK(result.fingerprint.crashes == 0 &&
                     result.fingerprint.repairs == 0 &&
                     result.fingerprint.unavailable == 0);
    }
    if (!repair_latency.empty()) {
      util::PercentileTracker tracker;
      double max_sample = 0;
      for (const double sample : repair_latency) {
        tracker.Add(sample);
        max_sample = std::max(max_sample, sample);
      }
      result.repair_p50 = tracker.Percentile(0.5);
      result.repair_p90 = tracker.Percentile(0.9);
      result.repair_p99 = tracker.Percentile(0.99);
      result.repair_max = max_sample;
    }
    results.push_back(result);
    std::printf(
        "crash_rate=%-8g %12.0f events/sec  crashes=%-6lld repairs=%-6lld "
        "replicas=%-6lld unavailable=%-7lld repair p50/p90/p99/max = "
        "%.0f/%.0f/%.0f/%.0f\n",
        crash_rate, result.events_per_sec,
        static_cast<long long>(result.fingerprint.crashes),
        static_cast<long long>(result.fingerprint.repairs),
        static_cast<long long>(result.fingerprint.replicas_added),
        static_cast<long long>(result.fingerprint.unavailable),
        result.repair_p50, result.repair_p90, result.repair_p99,
        result.repair_max);
  }

  // Golden-fingerprint gate (CI perf-smoke): pins the zero-rate row to the
  // same committed goldens as service_scaling.
  bool golden_ok = true;
  auto check_golden = [&](const char* name, long long expected,
                          long long actual) {
    if (expected < 0) return;
    if (expected != actual) {
      std::fprintf(stderr,
                   "golden fingerprint mismatch: %s expected %lld got %lld\n",
                   name, expected, actual);
      golden_ok = false;
    }
  };
  const RateResult* zero_rate = nullptr;
  for (const RateResult& result : results) {
    if (result.crash_rate == 0) zero_rate = &result;
  }
  if (expect_control >= 0 || expect_data >= 0 || expect_io >= 0 ||
      expect_crc >= 0) {
    OBJALLOC_CHECK(zero_rate != nullptr)
        << "--expect_* flags need a zero entry in --crash_rates";
    check_golden("control", expect_control,
                 zero_rate->fingerprint.breakdown.control_messages);
    check_golden("data", expect_data,
                 zero_rate->fingerprint.breakdown.data_messages);
    check_golden("io", expect_io, zero_rate->fingerprint.breakdown.io_ops);
    check_golden("scheme_crc", expect_crc,
                 static_cast<long long>(zero_rate->fingerprint.scheme_crc));
    if (!golden_ok) return 1;
    std::printf("golden fingerprint matches expected values\n");
  }

  std::ofstream out(out_path);
  OBJALLOC_CHECK(out.good()) << "cannot write " << out_path;
  out << "{\n  \"benchmark\": \"availability_chaos\",\n";
  out << "  \"hardware_concurrency\": " << util::GlobalThreads() << ",\n";
  out << "  \"events\": " << events << ",\n";
  out << "  \"objects\": " << objects << ",\n";
  out << "  \"processors\": " << processors << ",\n";
  out << "  \"batch_size\": " << batch_size << ",\n";
  out << "  \"repeats\": " << repeats << ",\n";
  out << "  \"chaos_seed\": " << chaos_seed << ",\n";
  out << "  \"recover_factor\": " << recover_factor << ",\n";
  out << "  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const RateResult& r = results[i];
    out << "    {\"crash_rate\": " << r.crash_rate
        << ", \"events_per_sec\": " << r.events_per_sec
        << ", \"crashes\": " << r.fingerprint.crashes
        << ", \"recoveries\": " << r.fingerprint.recoveries
        << ", \"repairs\": " << r.fingerprint.repairs
        << ", \"replicas_added\": " << r.fingerprint.replicas_added
        << ", \"unavailable\": " << r.fingerprint.unavailable
        << ", \"repair_latency_p50\": " << r.repair_p50
        << ", \"repair_latency_p90\": " << r.repair_p90
        << ", \"repair_latency_p99\": " << r.repair_p99
        << ", \"repair_latency_max\": " << r.repair_max
        << ", \"fingerprint\": {\"control\": "
        << r.fingerprint.breakdown.control_messages
        << ", \"data\": " << r.fingerprint.breakdown.data_messages
        << ", \"io\": " << r.fingerprint.breakdown.io_ops
        << ", \"scheme_crc\": " << r.fingerprint.scheme_crc
        << ", \"latency_crc\": " << r.fingerprint.latency_crc << "}}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
