// Durability-under-fire benchmark (DESIGN.md §14): throughput and commit
// latency while a seeded FaultyEnv chews on the disk.
//
// One table, one story: the same deterministic trace as service_scaling /
// crash_recover is served durably while the Env injects EIO bursts, latency
// spikes, or a scripted dead-disk; every row reports events/sec, commit
// p50/p99, how many faults the retry path absorbed, and whether the run
// stayed durable or degraded (and then how long ReattachDurability took to
// heal on a fresh disk).
//
// Correctness is gated, not just measured: the in-memory fingerprint must
// equal the plain engine's in EVERY row — a fault that changes an
// allocation decision fails the bench — and after heal/sync the directory
// must recover to the same fingerprint. The zero-injection row doubles as
// the CI golden gate via --expect_control/--expect_data/--expect_io/
// --expect_crc (the same values the plain perf smoke pins).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "objalloc/core/object_service.h"
#include "objalloc/util/faulty_env.h"
#include "objalloc/util/logging.h"
#include "objalloc/workload/multi_object.h"

namespace {

using namespace objalloc;

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

Fingerprint Capture(const core::ObjectService& service) {
  Fingerprint fingerprint;
  fingerprint.breakdown = service.TotalBreakdown();
  fingerprint.requests = service.TotalRequests();
  fingerprint.scheme_crc = service.SchemeCrc();
  return fingerprint;
}

double Seconds(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point stop) {
  return std::chrono::duration<double>(stop - start).count();
}

// One fault profile = one table row.
struct Profile {
  const char* name;
  double error_rate = 0;  // EIO on read/write/sync, seeded per-op
  double slow_rate = 0;   // latency spikes
  uint64_t slow_us = 0;
  bool dead_disk = false;  // scripted: EIO forever from op --dead_at on
};

struct Row {
  std::string name;
  double serve_seconds = 0;
  double events_per_sec = 0;
  double overhead_vs_plain = 0;
  uint64_t group_commits = 0;
  double commit_latency_p50_us = 0;
  double commit_latency_p99_us = 0;
  uint64_t faults_injected = 0;
  uint64_t wal_write_retries = 0;
  uint64_t checkpoint_retries = 0;
  uint64_t degraded_batches = 0;
  std::string final_state;
  bool reattached = false;
  double reattach_seconds = 0;
};

const char* StateName(core::DurabilityState state) {
  switch (state) {
    case core::DurabilityState::kDetached:
      return "detached";
    case core::DurabilityState::kDurable:
      return "durable";
    case core::DurabilityState::kDegraded:
      return "degraded";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_durability_chaos.json";
  std::string dir_root =
      (std::filesystem::temp_directory_path() / "objalloc_chaos_bench")
          .string();
  size_t events = 100000;
  int objects = 512;
  int processors = 16;
  size_t batch_size = 1024;
  size_t interval = 25000;
  // Counted ops after going live before the scripted disk dies. Group
  // commits coalesce aggressively, so a full serve is only a few hundred
  // counted ops; 25 lands the death mid-stream.
  uint64_t dead_at = 25;
  long long expect_control = -1, expect_data = -1, expect_io = -1,
            expect_crc = -1;
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
    } else if (arg.rfind("--dir=", 0) == 0) {
      dir_root = arg.substr(6);
    } else if (int_flag("--events=", &events) ||
               int_flag("--objects=", &objects) ||
               int_flag("--processors=", &processors) ||
               int_flag("--batch=", &batch_size) ||
               int_flag("--interval=", &interval) ||
               int_flag("--dead_at=", &dead_at) ||
               int_flag("--expect_control=", &expect_control) ||
               int_flag("--expect_data=", &expect_data) ||
               int_flag("--expect_io=", &expect_io) ||
               int_flag("--expect_crc=", &expect_crc)) {
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 1;
    }
  }

  const uint64_t kSeed = 0x5eed5ca1e;  // same trace as service_scaling
  workload::MultiObjectOptions options;
  options.num_processors = processors;
  options.num_objects = objects;
  options.length = events;
  options.popularity_skew = 0.9;
  std::printf("generating %zu events over %d objects, %d processors...\n",
              events, objects, processors);
  const workload::MultiObjectTrace trace =
      workload::GenerateMultiObjectTrace(options, kSeed);
  const std::span<const workload::MultiObjectEvent> all(trace.events);
  const model::CostModel sc = model::CostModel::StationaryComputing(0.25, 1.0);

  auto serve_all = [&](core::ObjectService& service) {
    for (size_t pos = 0; pos < all.size(); pos += batch_size) {
      const size_t n = std::min(batch_size, all.size() - pos);
      auto result = service.ServeBatch(all.subspan(pos, n));
      OBJALLOC_CHECK(result.ok()) << result.status().ToString();
    }
  };

  // --- Plain engine: the golden fingerprint and the throughput baseline --
  Fingerprint plain;
  double plain_seconds = 0;
  {
    core::ObjectService service(processors, sc);
    service.ReserveObjects(static_cast<size_t>(objects));
    for (int id = 0; id < objects; ++id) {
      OBJALLOC_CHECK(service.AddObject(id, ServiceConfig()).ok());
    }
    auto start = std::chrono::steady_clock::now();
    serve_all(service);
    auto stop = std::chrono::steady_clock::now();
    plain_seconds = Seconds(start, stop);
    plain = Capture(service);
    std::printf("%-28s %12.0f events/sec   fingerprint control=%lld "
                "data=%lld io=%lld crc=%u\n",
                "plain (no durability)",
                static_cast<double>(events) / plain_seconds,
                static_cast<long long>(plain.breakdown.control_messages),
                static_cast<long long>(plain.breakdown.data_messages),
                static_cast<long long>(plain.breakdown.io_ops),
                plain.scheme_crc);
  }
  auto check_golden = [](const char* name, long long expect, long long got) {
    if (expect >= 0 && expect != got) {
      std::fprintf(stderr, "GOLDEN MISMATCH: %s expected %lld, got %lld\n",
                   name, expect, got);
      std::exit(1);
    }
  };
  check_golden("control", expect_control, plain.breakdown.control_messages);
  check_golden("data", expect_data, plain.breakdown.data_messages);
  check_golden("io", expect_io, plain.breakdown.io_ops);
  check_golden("scheme_crc", expect_crc,
               static_cast<long long>(plain.scheme_crc));

  const Profile profiles[] = {
      {"no injection"},
      {"eio 2%", /*error_rate=*/0.02},
      {"eio 10%", /*error_rate=*/0.10},
      {"latency 5% x 2ms", 0, /*slow_rate=*/0.05, /*slow_us=*/2000},
      {"dead disk mid-run", 0, 0, 0, /*dead_disk=*/true},
  };

  std::vector<Row> rows;
  for (size_t p = 0; p < std::size(profiles); ++p) {
    const Profile& profile = profiles[p];
    const std::string dir = dir_root + "/row_" + std::to_string(p);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    util::FaultyEnvOptions fault_options;
    fault_options.seed = 0xc4a05 + p;
    fault_options.real_time = true;  // measured latency, real backoff
    util::FaultyEnv faulty(fault_options);

    core::DurabilityOptions durability;
    durability.checkpoint_interval_events = interval;

    Row row;
    row.name = profile.name;
    core::ObjectService service(processors, sc);
    {
      // Everything the service opens inside this scope — WAL, checkpoints,
      // manifest — captures the faulty env and keeps it for life.
      util::ScopedEnv scoped(&faulty);
      service.ReserveObjects(static_cast<size_t>(objects));
      for (int id = 0; id < objects; ++id) {
        OBJALLOC_CHECK(service.AddObject(id, ServiceConfig()).ok());
      }
      OBJALLOC_CHECK(service.EnableDurability(dir, durability).ok());
      // The disk was healthy at mount; it goes bad once the service is
      // live (rates are zero until here, so EnableDurability's full
      // checkpoint write never has to survive a lossy disk).
      faulty.SetRates(profile.error_rate, 0, profile.slow_rate,
                      profile.slow_us);
      if (profile.dead_disk) {
        // Dies `dead_at` counted ops after going live, then never recovers.
        faulty.SetPlan({faulty.op_count() + dead_at, util::FaultKind::kEio,
                        util::FaultPlan::kForever});
      }
      auto start = std::chrono::steady_clock::now();
      serve_all(service);
      // Drain the pipeline inside the timed window: commit latency under
      // faults is part of the row. A degraded service fails this; the
      // state is read below either way.
      (void)service.SyncDurable();
      auto stop = std::chrono::steady_clock::now();
      row.serve_seconds = Seconds(start, stop);
    }
    row.events_per_sec = static_cast<double>(events) / row.serve_seconds;
    row.overhead_vs_plain = row.serve_seconds / plain_seconds;

    // Serving correctness is non-negotiable in every row: faults may cost
    // durability and time, never allocation decisions.
    OBJALLOC_CHECK(Capture(service) == plain)
        << "row '" << profile.name << "' diverged from the plain engine";

    const core::ServiceStats stats = service.Stats();
    row.group_commits = stats.commit.group_commits;
    row.commit_latency_p50_us = stats.commit.commit_latency_p50_us;
    row.commit_latency_p99_us = stats.commit.commit_latency_p99_us;
    row.faults_injected = faulty.faults_injected();
    row.wal_write_retries = stats.wal_write_retries;
    row.checkpoint_retries = stats.checkpoint_retries;
    row.degraded_batches = stats.degraded_batches;
    row.final_state = StateName(stats.durability);

    if (stats.durability == core::DurabilityState::kDegraded) {
      // "Replace the disk": the scope above ended, so reattach IO goes
      // through the clean default env. Time the heal — fresh checkpoint,
      // new WAL generation, verified resync.
      faulty.ClearPlan();
      auto start = std::chrono::steady_clock::now();
      util::Status status = service.ReattachDurability();
      auto stop = std::chrono::steady_clock::now();
      OBJALLOC_CHECK(status.ok())
          << "reattach after '" << profile.name
          << "': " << status.ToString();
      row.reattached = true;
      row.reattach_seconds = Seconds(start, stop);
      OBJALLOC_CHECK(service.SyncDurable().ok());
    }

    // Whether the row stayed durable or was healed, the live service must
    // still match the plain engine at the drop, and the directory must then
    // recover to that exact fingerprint.
    const Fingerprint expected = Capture(service);
    OBJALLOC_CHECK(expected == plain)
        << "row '" << profile.name
        << "' diverged from the plain engine before the drop";
    {
      core::ObjectService drop = std::move(service);
      (void)drop;
    }
    {
      auto recovered = core::ObjectService::Recover(dir, durability);
      OBJALLOC_CHECK(recovered.ok()) << recovered.status().ToString();
      OBJALLOC_CHECK(Capture(*recovered) == expected)
          << "recovery after '" << profile.name
          << "' diverged from the service it replaced";
    }

    char heal_text[32];
    if (row.reattached) {
      std::snprintf(heal_text, sizeof(heal_text), "healed in %.3fs",
                    row.reattach_seconds);
    } else {
      std::snprintf(heal_text, sizeof(heal_text), "-");
    }
    std::printf("%-28s %10.0f events/sec (%5.2fx plain)  commit p50/p99 "
                "%6.0f/%6.0fus  faults %5llu  retries %llu+%llu  "
                "degraded_batches %5llu  %-8s %s\n",
                row.name.c_str(), row.events_per_sec, row.overhead_vs_plain,
                row.commit_latency_p50_us, row.commit_latency_p99_us,
                static_cast<unsigned long long>(row.faults_injected),
                static_cast<unsigned long long>(row.wal_write_retries),
                static_cast<unsigned long long>(row.checkpoint_retries),
                static_cast<unsigned long long>(row.degraded_batches),
                row.final_state.c_str(), heal_text);
    rows.push_back(std::move(row));
    std::filesystem::remove_all(dir);
  }

  std::ofstream out(out_path);
  OBJALLOC_CHECK(out.good()) << "cannot open " << out_path;
  out << "{\n";
  out << "  \"benchmark\": \"durability_chaos\",\n";
  out << "  \"events\": " << events << ",\n";
  out << "  \"objects\": " << objects << ",\n";
  out << "  \"processors\": " << processors << ",\n";
  out << "  \"batch_size\": " << batch_size << ",\n";
  out << "  \"checkpoint_interval\": " << interval << ",\n";
  out << "  \"plain_events_per_sec\": "
      << static_cast<double>(events) / plain_seconds << ",\n";
  out << "  \"fingerprint\": {\"control\": "
      << plain.breakdown.control_messages
      << ", \"data\": " << plain.breakdown.data_messages
      << ", \"io\": " << plain.breakdown.io_ops
      << ", \"scheme_crc\": " << plain.scheme_crc << "},\n";
  out << "  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    out << "    {\"name\": \"" << row.name << "\""
        << ", \"serve_seconds\": " << row.serve_seconds
        << ", \"events_per_sec\": " << row.events_per_sec
        << ", \"overhead_vs_plain\": " << row.overhead_vs_plain
        << ", \"group_commits\": " << row.group_commits
        << ", \"commit_latency_p50_us\": " << row.commit_latency_p50_us
        << ", \"commit_latency_p99_us\": " << row.commit_latency_p99_us
        << ", \"faults_injected\": " << row.faults_injected
        << ", \"wal_write_retries\": " << row.wal_write_retries
        << ", \"checkpoint_retries\": " << row.checkpoint_retries
        << ", \"degraded_batches\": " << row.degraded_batches
        << ", \"final_state\": \"" << row.final_state << "\""
        << ", \"reattached\": " << (row.reattached ? "true" : "false")
        << ", \"reattach_seconds\": " << row.reattach_seconds << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
