// Recovery-time benchmark for the durability layer (DESIGN.md §10).
//
// Three questions, one table:
//   1. What does durability cost while serving? (events/sec with the WAL
//      attached vs the plain engine — the zero-durability row, which must
//      also reproduce the committed golden fingerprint bit for bit.)
//   2. How fast does recovery replay? (replayed events/sec through the
//      deterministic serving engine.)
//   3. How does the checkpoint interval trade serving overhead against
//      recovery time? (Longer WAL tail => cheaper serving, slower recovery.)
//
// Every durable run and every recovery is asserted bit-identical to the
// plain run's fingerprint — a recovery that is fast but wrong fails the
// bench, not just the numbers.

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
#include "objalloc/util/io.h"
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

struct Row {
  size_t checkpoint_interval = 0;
  size_t group_commit_delay_us = 0;
  bool delta = false;  // delta checkpoints on (delta_chain_limit > 0)
  double serve_seconds = 0;
  double durable_events_per_sec = 0;
  double overhead_vs_plain = 0;  // serve time ratio, 1.0 = free
  uint64_t group_commits = 0;
  double commit_latency_p50_us = 0;
  double commit_latency_p99_us = 0;
  uint64_t checkpoints_taken = 0;
  uint64_t delta_checkpoints_applied = 0;
  uint64_t wal_tail_events = 0;
  uint64_t wal_tail_bytes = 0;
  double recover_seconds = 0;         // coalesced parallel replay (default)
  double serial_recover_seconds = 0;  // replay_batch_events = 0
  double replay_speedup = 0;          // serial / parallel recovery time
  double replay_events_per_sec = 0;   // valid only when wal_tail_events > 0
};

std::vector<size_t> ParseSizeList(const std::string& arg, const char* flag) {
  std::vector<size_t> values;
  size_t pos = 0;
  while (pos <= arg.size()) {
    size_t comma = arg.find(',', pos);
    if (comma == std::string::npos) comma = arg.size();
    const std::string token = arg.substr(pos, comma - pos);
    char* end = nullptr;
    const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
    if (token.empty() || end != token.c_str() + token.size()) {
      std::fprintf(stderr, "bad value in %s: '%s'\n", flag, token.c_str());
      std::exit(1);
    }
    values.push_back(static_cast<size_t>(value));
    pos = comma + 1;
    if (pos == arg.size() + 1) break;
  }
  return values;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_recovery.json";
  std::string dir_root =
      (std::filesystem::temp_directory_path() / "objalloc_recovery_bench")
          .string();
  size_t events = 100000;
  int objects = 512;
  int processors = 16;
  size_t batch_size = 8192;
  int repeats = 2;
  // 0 = no auto-checkpoint: the WAL tail is the whole history.
  std::vector<size_t> intervals = {0, 25000, 100000};
  // Group-commit windows (µs) to sweep; 0 = sync every group immediately.
  std::vector<size_t> windows = {0, 500};
  size_t delta_chain = 4;  // delta_chain_limit for the delta-on rows
  // How sealed WAL bytes reach stable storage. "none" skips the sync
  // syscall entirely: it measures the pipeline's compute overhead (encode,
  // buffer handoff, log-thread writes) independent of the host's disk, and
  // is what the CI perf gate uses. Results with "none" are NOT a durability
  // claim.
  util::SyncMode sync_mode = util::SyncMode::kFsync;
  std::string sync_mode_name = "fsync";
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
    } else if (arg.rfind("--intervals=", 0) == 0) {
      intervals = ParseSizeList(arg.substr(12), "--intervals=");
    } else if (arg.rfind("--windows=", 0) == 0) {
      windows = ParseSizeList(arg.substr(10), "--windows=");
    } else if (arg.rfind("--sync_mode=", 0) == 0) {
      sync_mode_name = arg.substr(12);
      if (sync_mode_name == "fsync") {
        sync_mode = util::SyncMode::kFsync;
      } else if (sync_mode_name == "fdatasync") {
        sync_mode = util::SyncMode::kFdatasync;
      } else if (sync_mode_name == "none") {
        sync_mode = util::SyncMode::kNone;
      } else {
        std::fprintf(stderr, "bad --sync_mode (fsync|fdatasync|none): %s\n",
                     sync_mode_name.c_str());
        return 1;
      }
    } else if (int_flag("--delta_chain=", &delta_chain) ||
               int_flag("--events=", &events) ||
               int_flag("--objects=", &objects) ||
               int_flag("--processors=", &processors) ||
               int_flag("--batch=", &batch_size) ||
               int_flag("--repeats=", &repeats) ||
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

  // --- Zero-durability row: the plain engine, golden-checked -----------
  Fingerprint plain;
  double plain_seconds = 0;
  {
    double best = 0;
    for (int r = 0; r < repeats; ++r) {
      core::ObjectService service(processors, sc);
      service.ReserveObjects(static_cast<size_t>(objects));
      for (int id = 0; id < objects; ++id) {
        OBJALLOC_CHECK(service.AddObject(id, ServiceConfig()).ok());
      }
      auto start = std::chrono::steady_clock::now();
      serve_all(service);
      auto stop = std::chrono::steady_clock::now();
      const double seconds = Seconds(start, stop);
      if (r == 0 || seconds < best) best = seconds;
      plain = Capture(service);
    }
    plain_seconds = best;
    std::printf("%-32s %12.0f events/sec   fingerprint control=%lld "
                "data=%lld io=%lld crc=%u\n",
                "plain engine (durability off)",
                static_cast<double>(events) / best,
                static_cast<long long>(plain.breakdown.control_messages),
                static_cast<long long>(plain.breakdown.data_messages),
                static_cast<long long>(plain.breakdown.io_ops),
                plain.scheme_crc);
  }
  auto check_golden = [](const char* name, long long expect, long long got) {
    if (expect >= 0 && expect != got) {
      std::fprintf(stderr,
                   "GOLDEN MISMATCH: %s expected %lld, got %lld\n", name,
                   expect, got);
      std::exit(1);
    }
  };
  check_golden("control", expect_control,
               plain.breakdown.control_messages);
  check_golden("data", expect_data, plain.breakdown.data_messages);
  check_golden("io", expect_io, plain.breakdown.io_ops);
  check_golden("scheme_crc", expect_crc,
               static_cast<long long>(plain.scheme_crc));

  // --- Durable rows: serve with WAL attached, then recover -------------
  // Sweep checkpoint interval × group-commit window × delta on/off (delta
  // is meaningless without auto-checkpoints, so interval=0 skips it).
  std::vector<Row> rows;
  for (size_t interval : intervals) {
    for (size_t window : windows) {
      for (int use_delta = 0; use_delta <= (interval > 0 ? 1 : 0);
           ++use_delta) {
    const std::string dir = dir_root + "/interval_" +
                            std::to_string(interval) + "_w" +
                            std::to_string(window) + (use_delta ? "_d" : "");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    Row row;
    row.checkpoint_interval = interval;
    row.group_commit_delay_us = window;
    row.delta = use_delta != 0;
    core::DurabilityOptions durability;
    durability.checkpoint_interval_events = interval;
    durability.group_commit_delay_us = static_cast<uint32_t>(window);
    durability.delta_chain_limit = use_delta ? delta_chain : 0;
    durability.sync_mode = sync_mode;
    {
      core::ObjectService service(processors, sc);
      service.ReserveObjects(static_cast<size_t>(objects));
      for (int id = 0; id < objects; ++id) {
        OBJALLOC_CHECK(service.AddObject(id, ServiceConfig()).ok());
      }
      OBJALLOC_CHECK(service.EnableDurability(dir, durability).ok());
      auto start = std::chrono::steady_clock::now();
      serve_all(service);
      OBJALLOC_CHECK(service.SyncDurable().ok());
      auto stop = std::chrono::steady_clock::now();
      row.serve_seconds = Seconds(start, stop);
      const core::WalCommitStats commit = service.DurableCommitStats();
      row.group_commits = commit.group_commits;
      row.commit_latency_p50_us = commit.commit_latency_p50_us;
      row.commit_latency_p99_us = commit.commit_latency_p99_us;
      const Fingerprint durable = Capture(service);
      OBJALLOC_CHECK(durable == plain)
          << "durable serving diverged from the plain engine";
      // The service dies here; the directory is the crash image.
    }
    row.durable_events_per_sec =
        static_cast<double>(events) / row.serve_seconds;
    row.overhead_vs_plain = row.serve_seconds / plain_seconds;

    // Recover twice per repeat: once with coalesced parallel replay (the
    // default) and once record-by-record (replay_batch_events = 0). Both
    // must land on the same golden fingerprint.
    double best_recover = 0, best_serial = 0;
    core::RecoveryReport report;
    core::DurabilityOptions serial = durability;
    serial.replay_batch_events = 0;
    for (int r = 0; r < repeats; ++r) {
      auto start = std::chrono::steady_clock::now();
      auto recovered = core::ObjectService::Recover(dir, durability, &report);
      auto stop = std::chrono::steady_clock::now();
      OBJALLOC_CHECK(recovered.ok()) << recovered.status().ToString();
      const double seconds = Seconds(start, stop);
      if (r == 0 || seconds < best_recover) best_recover = seconds;
      const Fingerprint after = Capture(*recovered);
      OBJALLOC_CHECK(after == plain)
          << "recovery diverged from the plain engine";

      auto serial_start = std::chrono::steady_clock::now();
      auto serial_recovered = core::ObjectService::Recover(dir, serial);
      auto serial_stop = std::chrono::steady_clock::now();
      OBJALLOC_CHECK(serial_recovered.ok())
          << serial_recovered.status().ToString();
      const double serial_seconds = Seconds(serial_start, serial_stop);
      if (r == 0 || serial_seconds < best_serial) {
        best_serial = serial_seconds;
      }
      const Fingerprint serial_after = Capture(*serial_recovered);
      OBJALLOC_CHECK(serial_after == plain)
          << "serial replay diverged from the plain engine";
    }
    row.recover_seconds = best_recover;
    row.serial_recover_seconds = best_serial;
    row.replay_speedup = best_recover > 0 ? best_serial / best_recover : 0;
    row.checkpoints_taken = report.checkpoint_sequence - 1;
    row.delta_checkpoints_applied = report.delta_checkpoints_applied;
    row.wal_tail_events = report.events_replayed;
    auto wal_size = util::FileSize(
        dir + "/" + core::WalFileName(report.checkpoint_sequence));
    row.wal_tail_bytes = wal_size.ok() ? *wal_size : 0;
    // An empty tail has no replay rate (the old 0 here read as "infinitely
    // slow"); the JSON emits null and the table a dash.
    row.replay_events_per_sec =
        row.wal_tail_events == 0
            ? 0
            : static_cast<double>(row.wal_tail_events) / best_recover;
    rows.push_back(row);
    char replay_text[32];
    if (row.wal_tail_events == 0) {
      std::snprintf(replay_text, sizeof(replay_text), "%10s", "-");
    } else {
      std::snprintf(replay_text, sizeof(replay_text), "%10.0f",
                    row.replay_events_per_sec);
    }
    std::printf("interval=%-8zu window=%-4zuus delta=%d  serve %6.3fs "
                "(%5.2fx plain)  commit p50/p99 %6.0f/%6.0fus  "
                "tail %7llu events  recover %7.4fs (serial %7.4fs, %4.2fx)  "
                "replay %s events/sec\n",
                interval, window, use_delta, row.serve_seconds,
                row.overhead_vs_plain, row.commit_latency_p50_us,
                row.commit_latency_p99_us,
                static_cast<unsigned long long>(row.wal_tail_events),
                row.recover_seconds, row.serial_recover_seconds,
                row.replay_speedup, replay_text);
    std::filesystem::remove_all(dir);
      }
    }
  }

  std::ofstream out(out_path);
  OBJALLOC_CHECK(out.good()) << "cannot open " << out_path;
  out << "{\n";
  out << "  \"benchmark\": \"recovery_time\",\n";
  out << "  \"events\": " << events << ",\n";
  out << "  \"objects\": " << objects << ",\n";
  out << "  \"processors\": " << processors << ",\n";
  out << "  \"batch_size\": " << batch_size << ",\n";
  out << "  \"repeats\": " << repeats << ",\n";
  out << "  \"sync_mode\": \"" << sync_mode_name << "\",\n";
  out << "  \"plain_events_per_sec\": "
      << static_cast<double>(events) / plain_seconds << ",\n";
  // Best durable throughput across the sweep relative to the plain engine
  // (1.0 = durability is free); the CI perf gate reads the per-row
  // overhead_vs_plain values.
  double best_overhead = 0;
  for (const Row& row : rows) {
    if (best_overhead == 0 || row.overhead_vs_plain < best_overhead) {
      best_overhead = row.overhead_vs_plain;
    }
  }
  out << "  \"durable_over_plain\": " << best_overhead << ",\n";
  out << "  \"fingerprint\": {\"control\": "
      << plain.breakdown.control_messages
      << ", \"data\": " << plain.breakdown.data_messages
      << ", \"io\": " << plain.breakdown.io_ops
      << ", \"scheme_crc\": " << plain.scheme_crc << "},\n";
  out << "  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    out << "    {\"checkpoint_interval\": " << row.checkpoint_interval
        << ", \"group_commit_delay_us\": " << row.group_commit_delay_us
        << ", \"delta\": " << (row.delta ? "true" : "false")
        << ", \"serve_seconds\": " << row.serve_seconds
        << ", \"durable_events_per_sec\": " << row.durable_events_per_sec
        << ", \"overhead_vs_plain\": " << row.overhead_vs_plain
        << ", \"group_commits\": " << row.group_commits
        << ", \"commit_latency_p50_us\": " << row.commit_latency_p50_us
        << ", \"commit_latency_p99_us\": " << row.commit_latency_p99_us
        << ", \"checkpoints_taken\": " << row.checkpoints_taken
        << ", \"delta_checkpoints_applied\": "
        << row.delta_checkpoints_applied
        << ", \"wal_tail_events\": " << row.wal_tail_events
        << ", \"wal_tail_bytes\": " << row.wal_tail_bytes
        << ", \"recover_seconds\": " << row.recover_seconds
        << ", \"serial_recover_seconds\": " << row.serial_recover_seconds
        << ", \"replay_speedup\": " << row.replay_speedup
        << ", \"replay_events_per_sec\": ";
    if (row.wal_tail_events == 0) {
      out << "null";
    } else {
      out << row.replay_events_per_sec;
    }
    out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
