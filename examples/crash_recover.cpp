// Crash & recover quickstart (DESIGN.md §10): a serve-or-recover binary
// built to be killed.
//
//   crash_recover --dir=/tmp/state --events=100000 [--kill_at=37000]
//                 [--interval=20000] [--delta] [--fsck]
//                 [--expect_control=N --expect_data=N --expect_io=N
//                  --expect_crc=N]
//
// --fsck scrubs the directory instead of serving: every file is walked
// record by record against its CRCs and a read-only recovery is dry-run.
// Exit 0 = clean, 1 = unrecoverable, 2 = recoverable with warnings (torn
// tail, snapshot fallback, quarantined generations, stray files).
//
// --delta turns on delta checkpointing (chains of dirty-page snapshots
// between full ones, DESIGN.md §13); recovery then restores the newest
// full snapshot plus its delta chain before replaying the WAL tail.
//
// On a fresh directory it registers 512 objects, arms durability, and
// serves a deterministic trace; on a directory holding durable state it
// *recovers* — prints the fsck-style report — and resumes serving exactly
// where the log left off (the replayed request count names the position in
// the deterministic trace). --kill_at=K dies via SIGKILL mid-stream after
// K total events, simulating a hard crash; run again to pick up the tail.
// When the full trace completes, the final fingerprint is printed and
// checked against the --expect_* goldens (the same values CI pins the
// plain engine to — recovery must land on the identical state).
//
// CI drives this in a loop: kill at random points, recover, repeat, then
// finish and compare the fingerprint. See .github/workflows/ci.yml.
//
// SIGKILL is the crash; SIGTERM is the *graceful* path — the same
// net::DrainSignal latch the TCP server uses (DESIGN.md §15). On SIGTERM
// the serve loop finishes its batch, syncs durable state, and exits 0, so
// the next run recovers with a clean tail instead of a torn one.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>

#include "objalloc/core/object_service.h"
#include "objalloc/net/signal_drain.h"
#include "objalloc/workload/multi_object.h"

namespace {

using namespace objalloc;

core::ObjectConfig ServiceConfig() {
  core::ObjectConfig config;
  config.initial_scheme = model::ProcessorSet{0, 1};
  config.algorithm = core::AlgorithmKind::kDynamic;
  return config;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  size_t events = 100000;
  long long kill_at = -1;
  size_t interval = 20000;
  size_t batch = 256;
  bool fsck = false;
  bool delta = false;
  long long expect_control = -1, expect_data = -1, expect_io = -1,
            expect_crc = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto int_flag = [&](const char* prefix, auto* out) {
      const size_t n = std::string(prefix).size();
      if (arg.rfind(prefix, 0) != 0) return false;
      *out = static_cast<std::decay_t<decltype(*out)>>(
          std::atoll(arg.substr(n).c_str()));
      return true;
    };
    if (arg.rfind("--dir=", 0) == 0) {
      dir = arg.substr(6);
    } else if (arg == "--fsck") {
      fsck = true;
    } else if (arg == "--delta") {
      delta = true;
    } else if (int_flag("--events=", &events) ||
               int_flag("--kill_at=", &kill_at) ||
               int_flag("--interval=", &interval) ||
               int_flag("--batch=", &batch) ||
               int_flag("--expect_control=", &expect_control) ||
               int_flag("--expect_data=", &expect_data) ||
               int_flag("--expect_io=", &expect_io) ||
               int_flag("--expect_crc=", &expect_crc)) {
    } else {
      return Fail("unknown argument: " + arg);
    }
  }
  if (dir.empty()) return Fail("--dir=<durability directory> is required");

  if (fsck) {
    // Deep scrub: per-file CRC-walk verdicts + a read-only recovery dry
    // run. Exit codes are script-friendly:
    //   0  clean — every file verified, recovery needs no fallback
    //   1  unrecoverable — Recover would fail on this directory
    //   2  recoverable with warnings — torn tail, fallback, quarantined or
    //      stray files; data is safe but something chewed the directory
    core::ScrubReport report;
    util::Status status = core::ObjectService::Scrub(dir, &report);
    std::printf("%s\n", report.ToString().c_str());
    if (!report.recoverable) {
      std::fprintf(stderr, "fsck: %s\n", status.ToString().c_str());
      return 1;
    }
    return report.clean ? 0 : 2;
  }

  // The same deterministic trace as bench/service_scaling, so the final
  // fingerprint matches the committed perf-smoke goldens.
  const int objects = 512, processors = 16;
  workload::MultiObjectOptions options;
  options.num_processors = processors;
  options.num_objects = objects;
  options.length = events;
  options.popularity_skew = 0.9;
  const workload::MultiObjectTrace trace =
      workload::GenerateMultiObjectTrace(options, 0x5eed5ca1e);

  core::DurabilityOptions durability;
  durability.checkpoint_interval_events = interval;
  if (delta) durability.delta_chain_limit = 4;

  core::RecoveryReport report;
  auto recovered = core::ObjectService::Recover(dir, durability, &report);
  size_t position = 0;
  core::ObjectService service(processors,
                              model::CostModel::StationaryComputing(0.25, 1.0));
  if (recovered.ok()) {
    service = std::move(*recovered);
    // Plain serving: one request per event, so the lifetime request count
    // IS the position in the deterministic trace.
    position = static_cast<size_t>(service.TotalRequests());
    std::printf("recovered at event %zu/%zu\n%s\n", position, events,
                report.ToString().c_str());
  } else if (recovered.status().code() == util::StatusCode::kNotFound) {
    service.ReserveObjects(static_cast<size_t>(objects));
    for (int id = 0; id < objects; ++id) {
      util::Status status = service.AddObject(id, ServiceConfig());
      if (!status.ok()) return Fail(status.ToString());
    }
    util::Status status = service.EnableDurability(dir, durability);
    if (!status.ok()) return Fail(status.ToString());
    std::printf("fresh start: %d objects registered, durability on %s\n",
                objects, dir.c_str());
  } else {
    return Fail("recovery failed: " + recovered.status().ToString());
  }

  net::DrainSignal::Install(SIGTERM);
  const std::span<const workload::MultiObjectEvent> all(trace.events);
  while (position < all.size()) {
    if (net::DrainSignal::Requested()) {
      util::Status synced = service.SyncDurable();
      if (!synced.ok()) return Fail(synced.ToString());
      std::printf("drained at event %zu/%zu: durable state synced, "
                  "exiting cleanly\n",
                  position, events);
      return 0;
    }
    if (kill_at >= 0 && position >= static_cast<size_t>(kill_at)) {
      std::printf("simulating crash at event %zu\n", position);
      std::fflush(stdout);
      raise(SIGKILL);  // no destructors, no syncs — a real crash
    }
    const size_t n = std::min(batch, all.size() - position);
    auto result = service.ServeBatch(all.subspan(position, n));
    if (!result.ok()) return Fail(result.status().ToString());
    position += n;
  }

  const uint32_t crc = service.SchemeCrc();
  const model::CostBreakdown total = service.TotalBreakdown();
  std::printf("complete: %zu events  control=%lld data=%lld io=%lld "
              "scheme_crc=%u\n",
              events, static_cast<long long>(total.control_messages),
              static_cast<long long>(total.data_messages),
              static_cast<long long>(total.io_ops), crc);
  auto check = [&](const char* name, long long expect, long long got) {
    if (expect >= 0 && expect != got) {
      std::fprintf(stderr, "GOLDEN MISMATCH: %s expected %lld, got %lld\n",
                   name, expect, got);
      std::exit(1);
    }
  };
  check("control", expect_control, total.control_messages);
  check("data", expect_data, total.data_messages);
  check("io", expect_io, total.io_ops);
  check("scheme_crc", expect_crc, static_cast<long long>(crc));
  return 0;
}
