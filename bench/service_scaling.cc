// Throughput scaling of the sharded, batched ObjectService: events/sec over
// a multi-object trace at a sweep of shard counts x thread counts, plus the
// serial ObjectManager baseline. Results are written as a machine-readable
// JSON artifact (BENCH_service_scaling.json) so the repo's perf trajectory
// accumulates across PRs.
//
// Usage: service_scaling [--out=BENCH_service_scaling.json]
//                        [--events=1000000] [--objects=512] [--processors=16]
//                        [--shards=1,4,16,64] [--threads=1,2,4,8]
//                        [--batch=8192] [--repeats=2]
//                        [--expect_control=N] [--expect_data=N]
//                        [--expect_io=N] [--expect_crc=N]
//                        [--require_speedup=SHARDS,THREADS,MIN_X10]
//
// Each configuration is measured two ways: the synchronous ServeBatch path
// (each batch admitted, served and merged before the next) and the
// pipelined SubmitBatch/WaitBatch path, where batch n+1 is admitted while
// batch n is still on the shard workers (DESIGN.md §11). Each row also
// reports the service's measured footprint (MemoryUsageBytes / objects)
// and the process's high-water RSS so far (DESIGN.md §12).
//
// Speedup honesty: a thread count the hardware cannot actually run in
// parallel (threads > nproc, or a 1-core host altogether) produces
// time-slicing noise, not a measurement. Such rows are emitted with
// "speedup_valid": false and a null speedup, each row records the nproc it
// really had, and a 1-core host prints a loud warning. --require_speedup
// (CI's multi-core gate; MIN_X10 is the threshold ×10, e.g. 15 = 1.5x)
// fails the run when the named config's measured speedup is below the
// floor — or when that config could not be validly measured at all.
//
// Determinism is asserted, not assumed: every (shards, threads) config and
// both entry paths must reproduce byte-identical cost breakdowns and final
// allocation schemes — checked via exact integer counts and a CRC32 over
// the sorted per-object (id, scheme) table — or the bench aborts. The
// --expect_* flags additionally pin the fingerprint to committed golden
// values and exit non-zero on any mismatch (the CI perf-smoke gate).

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "objalloc/core/batch_pipeline.h"
#include "objalloc/core/object_manager.h"
#include "objalloc/core/object_service.h"
#include "objalloc/util/logging.h"
#include "objalloc/util/parallel.h"
#include "objalloc/workload/multi_object.h"

namespace {

using namespace objalloc;

// Exact summary of a run: integer traffic counts and the final scheme of
// every object. Two runs are byte-identical iff their fingerprints match.
struct Fingerprint {
  model::CostBreakdown breakdown;
  int64_t requests = 0;
  uint32_t scheme_crc = 0;

  bool operator==(const Fingerprint& other) const {
    return breakdown == other.breakdown && requests == other.requests &&
           scheme_crc == other.scheme_crc;
  }
};

core::ObjectConfig ServiceConfig() {
  core::ObjectConfig config;
  config.initial_scheme = model::ProcessorSet{0, 1};
  config.algorithm = core::AlgorithmKind::kDynamic;
  return config;
}

// High-water RSS of this process so far (ru_maxrss is KiB on Linux).
// Monotonic across the run: a row reports the peak up to its completion.
size_t PeakRssBytes() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<size_t>(usage.ru_maxrss) * 1024;
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

struct Measurement {
  int shards = 0;
  int threads = 0;
  int nproc = 0;  // cores this row could actually use: min(threads, hw)
  double seconds = 0;
  double events_per_sec = 0;
  double pipelined_events_per_sec = 0;
  // Queue occupancy while pipelining, sampled with the O(1) lock-free
  // ObjectService::Load() probe after every SubmitBatch — the same signal
  // the net::Server backpressure gate sheds on.
  uint64_t queue_ops_peak = 0;
  double queue_ops_mean = 0;
  double speedup_vs_1thread = 0;
  bool speedup_valid = false;
  size_t memory_bytes = 0;     // ObjectService::MemoryUsageBytes() post-run
  double bytes_per_object = 0;
  size_t peak_rss_bytes = 0;   // process high-water RSS after this row
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_service_scaling.json";
  size_t events = 1000000;
  int objects = 512;
  int processors = 16;
  std::vector<int> shard_counts = {1, 4, 16, 64};
  std::vector<int> thread_counts = {1, 2, 4, 8};
  size_t batch_size = 8192;
  int repeats = 2;
  // Golden fingerprint values; -1 = unchecked.
  long long expect_control = -1;
  long long expect_data = -1;
  long long expect_io = -1;
  long long expect_crc = -1;
  // Scaling gate: require speedup_vs_1thread >= min at (shards, threads).
  int require_shards = 0;
  int require_threads = 0;
  double require_min_speedup = 0;
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
               int_flag("--expect_control=", &expect_control) ||
               int_flag("--expect_data=", &expect_data) ||
               int_flag("--expect_io=", &expect_io) ||
               int_flag("--expect_crc=", &expect_crc)) {
    } else if (arg.rfind("--shards=", 0) == 0) {
      shard_counts = ParseIntList(arg.substr(9), "--shards=");
    } else if (arg.rfind("--threads=", 0) == 0) {
      thread_counts = ParseIntList(arg.substr(10), "--threads=");
    } else if (arg.rfind("--require_speedup=", 0) == 0) {
      std::vector<int> gate =
          ParseIntList(arg.substr(18), "--require_speedup=");
      if (gate.size() != 3) {
        std::fprintf(stderr,
                     "--require_speedup wants SHARDS,THREADS,MIN_X10\n");
        return 1;
      }
      require_shards = gate[0];
      require_threads = gate[1];
      require_min_speedup = static_cast<double>(gate[2]) / 10.0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 1;
    }
  }

  // Speedup rows are only meaningful up to the parallelism the hardware
  // actually has — not the thread override in OBJALLOC_THREADS.
  const int hw = util::HardwareConcurrency();
  if (hw <= 1) {
    std::fprintf(stderr,
                 "WARNING: hardware_concurrency=1 — every multi-thread row "
                 "is time-slicing noise, not a scaling measurement; all "
                 "rows will carry \"speedup_valid\": false\n");
  }

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

  // Serial baseline: the pre-refactor path, one ObjectManager::Serve call
  // per event.
  double baseline_eps = 0;
  {
    double best = 0;
    for (int r = 0; r < repeats; ++r) {
      core::ObjectManager manager(processors,
                                  model::CostModel::StationaryComputing(
                                      0.25, 1.0));
      for (int id = 0; id < objects; ++id) {
        OBJALLOC_CHECK(manager.AddObject(id, ServiceConfig()).ok());
      }
      auto start = std::chrono::steady_clock::now();
      for (const auto& event : trace.events) {
        OBJALLOC_CHECK(manager.Serve(event.object, event.request).ok());
      }
      auto stop = std::chrono::steady_clock::now();
      double seconds = std::chrono::duration<double>(stop - start).count();
      if (r == 0 || seconds < best) best = seconds;
    }
    baseline_eps = static_cast<double>(events) / best;
    std::printf("%-28s %10.0f events/sec\n", "ObjectManager (serial)",
                baseline_eps);
  }

  bool have_reference = false;
  Fingerprint reference;
  std::vector<Measurement> measurements;
  for (int shards : shard_counts) {
    double one_thread_seconds = 0;
    for (int threads : thread_counts) {
      util::ScopedThreads scope(threads);
      double best = 0;
      Fingerprint fingerprint;
      size_t memory_bytes = 0;
      for (int r = 0; r < repeats; ++r) {
        core::ServiceOptions service_options;
        service_options.num_shards = shards;
        core::ObjectService service(
            processors, model::CostModel::StationaryComputing(0.25, 1.0),
            service_options);
        service.ReserveObjects(static_cast<size_t>(objects));
        for (int id = 0; id < objects; ++id) {
          OBJALLOC_CHECK(service.AddObject(id, ServiceConfig()).ok());
        }
        auto start = std::chrono::steady_clock::now();
        std::span<const workload::MultiObjectEvent> all(trace.events);
        for (size_t pos = 0; pos < all.size(); pos += batch_size) {
          auto batch = service.ServeBatch(
              all.subspan(pos, std::min(batch_size, all.size() - pos)));
          OBJALLOC_CHECK(batch.ok()) << batch.status().ToString();
        }
        auto stop = std::chrono::steady_clock::now();
        double seconds = std::chrono::duration<double>(stop - start).count();
        if (r == 0 || seconds < best) best = seconds;
        fingerprint.breakdown = service.TotalBreakdown();
        fingerprint.requests = service.TotalRequests();
        fingerprint.scheme_crc = service.SchemeCrc();
        memory_bytes = service.MemoryUsageBytes();
      }
      if (!have_reference) {
        reference = fingerprint;
        have_reference = true;
      }
      OBJALLOC_CHECK(fingerprint == reference)
          << "shards=" << shards << " threads=" << threads
          << " diverged from the reference run: results must be "
             "byte-identical across every configuration";

      // Pipelined path: through a BatchPipeline, SubmitBatch admits + logs
      // batch n+1 while batch n is still on the shard workers. Same trace,
      // same fingerprint requirement.
      double pipelined_best = 0;
      Fingerprint pipelined_fingerprint;
      uint64_t queue_ops_peak = 0;
      uint64_t queue_ops_sum = 0;
      uint64_t queue_samples = 0;
      for (int r = 0; r < repeats; ++r) {
        core::ServiceOptions service_options;
        service_options.num_shards = shards;
        core::ObjectService service(
            processors, model::CostModel::StationaryComputing(0.25, 1.0),
            service_options);
        service.ReserveObjects(static_cast<size_t>(objects));
        for (int id = 0; id < objects; ++id) {
          OBJALLOC_CHECK(service.AddObject(id, ServiceConfig()).ok());
        }
        core::BatchPipeline<> pipeline(&service);
        auto check = [](core::BatchPipeline<>::Slot&,
                        const util::Status& status) {
          OBJALLOC_CHECK(status.ok()) << status.ToString();
        };
        auto start = std::chrono::steady_clock::now();
        std::span<const workload::MultiObjectEvent> all(trace.events);
        for (size_t pos = 0; pos < all.size(); pos += batch_size) {
          util::Status status = pipeline.Submit(
              all.subspan(pos, std::min(batch_size, all.size() - pos)),
              check);
          OBJALLOC_CHECK(status.ok()) << status.ToString();
          const core::ServiceLoad load = service.Load();
          queue_ops_peak = std::max(queue_ops_peak, load.executor_queued_ops);
          queue_ops_sum += load.executor_queued_ops;
          ++queue_samples;
        }
        util::Status drained = pipeline.Drain(check);
        OBJALLOC_CHECK(drained.ok()) << drained.ToString();
        auto stop = std::chrono::steady_clock::now();
        double seconds = std::chrono::duration<double>(stop - start).count();
        if (r == 0 || seconds < pipelined_best) pipelined_best = seconds;
        pipelined_fingerprint.breakdown = service.TotalBreakdown();
        pipelined_fingerprint.requests = service.TotalRequests();
        pipelined_fingerprint.scheme_crc = service.SchemeCrc();
      }
      OBJALLOC_CHECK(pipelined_fingerprint == reference)
          << "shards=" << shards << " threads=" << threads
          << " pipelined path diverged from the synchronous path: "
             "cross-batch pipelining must not change results";

      if (threads == thread_counts.front()) one_thread_seconds = best;
      Measurement m;
      m.shards = shards;
      m.threads = threads;
      m.nproc = std::min(threads, hw);
      m.seconds = best;
      m.events_per_sec = static_cast<double>(events) / best;
      m.pipelined_events_per_sec =
          static_cast<double>(events) / pipelined_best;
      m.queue_ops_peak = queue_ops_peak;
      m.queue_ops_mean =
          queue_samples == 0 ? 0
                             : static_cast<double>(queue_ops_sum) /
                                   static_cast<double>(queue_samples);
      m.speedup_vs_1thread = best > 0 ? one_thread_seconds / best : 0;
      m.speedup_valid = hw > 1 && threads <= hw;
      m.memory_bytes = memory_bytes;
      m.bytes_per_object =
          static_cast<double>(memory_bytes) / static_cast<double>(objects);
      m.peak_rss_bytes = PeakRssBytes();
      measurements.push_back(m);
      std::printf("shards=%-4d threads=%-3d (nproc %d) %8.3fs "
                  "%12.0f events/sec  (pipelined %12.0f, "
                  "queue peak/mean %llu/%.0f ops)  "
                  "%7.1f B/obj  rss %zu MB  ",
                  m.shards, m.threads, m.nproc, m.seconds, m.events_per_sec,
                  m.pipelined_events_per_sec,
                  static_cast<unsigned long long>(m.queue_ops_peak),
                  m.queue_ops_mean, m.bytes_per_object,
                  m.peak_rss_bytes >> 20);
      if (m.speedup_valid) {
        std::printf("speedup %.2fx\n", m.speedup_vs_1thread);
      } else {
        std::printf("speedup n/a (nproc %d)\n", m.nproc);
      }
    }
  }
  std::printf("determinism: all %zu configs x {sync, pipelined} paths "
              "byte-identical (breakdown %lld/%lld/%lld, scheme crc %08x)\n",
              measurements.size(),
              static_cast<long long>(reference.breakdown.control_messages),
              static_cast<long long>(reference.breakdown.data_messages),
              static_cast<long long>(reference.breakdown.io_ops),
              reference.scheme_crc);

  // Golden-fingerprint gate (CI perf-smoke): any drift from the committed
  // values is a correctness regression, not a perf question.
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
  check_golden("control", expect_control,
               reference.breakdown.control_messages);
  check_golden("data", expect_data, reference.breakdown.data_messages);
  check_golden("io", expect_io, reference.breakdown.io_ops);
  check_golden("scheme_crc", expect_crc,
               static_cast<long long>(reference.scheme_crc));
  if (!golden_ok) return 1;
  if (expect_control >= 0 || expect_data >= 0 || expect_io >= 0 ||
      expect_crc >= 0) {
    std::printf("golden fingerprint matches expected values\n");
  }

  // Scaling gate (CI scaling-smoke): the named config must have a *valid*
  // speedup measurement at or above the floor. An invalid row (1-core
  // host, or threads oversubscribing nproc) fails the gate rather than
  // passing vacuously.
  if (require_shards > 0) {
    bool gate_found = false;
    for (const Measurement& m : measurements) {
      if (m.shards != require_shards || m.threads != require_threads) {
        continue;
      }
      gate_found = true;
      if (!m.speedup_valid) {
        std::fprintf(stderr,
                     "scaling gate: shards=%d threads=%d has no valid "
                     "speedup measurement (nproc=%d)\n",
                     m.shards, m.threads, m.nproc);
        return 1;
      }
      if (m.speedup_vs_1thread < require_min_speedup) {
        std::fprintf(stderr,
                     "scaling gate: shards=%d threads=%d speedup %.2fx "
                     "below required %.2fx\n",
                     m.shards, m.threads, m.speedup_vs_1thread,
                     require_min_speedup);
        return 1;
      }
      std::printf("scaling gate: shards=%d threads=%d speedup %.2fx >= "
                  "%.2fx\n",
                  m.shards, m.threads, m.speedup_vs_1thread,
                  require_min_speedup);
    }
    if (!gate_found) {
      std::fprintf(stderr,
                   "scaling gate: config shards=%d threads=%d was not in "
                   "the sweep\n",
                   require_shards, require_threads);
      return 1;
    }
  }

  std::ofstream out(out_path);
  OBJALLOC_CHECK(out.good()) << "cannot write " << out_path;
  out << "{\n  \"benchmark\": \"service_scaling\",\n";
  out << "  \"hardware_concurrency\": " << hw << ",\n";
  out << "  \"events\": " << events << ",\n";
  out << "  \"objects\": " << objects << ",\n";
  out << "  \"processors\": " << processors << ",\n";
  out << "  \"batch_size\": " << batch_size << ",\n";
  out << "  \"repeats\": " << repeats << ",\n";
  out << "  \"baseline_manager_events_per_sec\": " << baseline_eps << ",\n";
  out << "  \"fingerprint\": {\"control\": "
      << reference.breakdown.control_messages
      << ", \"data\": " << reference.breakdown.data_messages
      << ", \"io\": " << reference.breakdown.io_ops
      << ", \"scheme_crc\": " << reference.scheme_crc << "},\n";
  out << "  \"results\": [\n";
  for (size_t i = 0; i < measurements.size(); ++i) {
    const Measurement& m = measurements[i];
    out << "    {\"shards\": " << m.shards << ", \"threads\": " << m.threads
        << ", \"nproc\": " << m.nproc << ", \"seconds\": " << m.seconds
        << ", \"events_per_sec\": " << m.events_per_sec
        << ", \"pipelined_events_per_sec\": " << m.pipelined_events_per_sec
        << ", \"queue_ops_peak\": " << m.queue_ops_peak
        << ", \"queue_ops_mean\": " << m.queue_ops_mean
        << ", \"memory_bytes\": " << m.memory_bytes
        << ", \"bytes_per_object\": " << m.bytes_per_object
        << ", \"peak_rss_bytes\": " << m.peak_rss_bytes
        << ", \"speedup_valid\": " << (m.speedup_valid ? "true" : "false")
        << ", \"speedup_vs_1thread\": ";
    if (m.speedup_valid) {
      out << m.speedup_vs_1thread;
    } else {
      out << "null";
    }
    out << "}" << (i + 1 < measurements.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
