// DurableLog — the durable-generation protocol behind ObjectService
// durability (DESIGN.md §10, §13, §14): file names, the manifest, the async
// WAL writer, quarantine, GC, retry of transient IO failures, the kDegraded
// transition and its counters — and Recover, which reads that layout back.
// The engine takes part only through DurableEngine's hooks.
//
// Every new generation — Start (generation 1), Checkpoint (g+1, full or
// delta) and Reattach (g+1, full) — goes through one commit routine:
//   (1) snapshot g+1, streamed to a temp file and renamed into place;
//   (2) wal-<g+1> with a synced header, so the manifest can name it;
//   (3) MANIFEST naming g+1 and its full base — the atomic commit point;
//   (4) the async writer rotates (or attaches) onto wal-<g+1>.
// Steps (1)-(3) retry transient IO failures; a failure up to (3) removes the
// orphaned snapshot and WAL, so a manifest-less recovery scan can never pick
// a generation that never went live. The callers differ only in what a
// failure means: Start never arms, Checkpoint degrades, Reattach stays
// degraded holding the new error.

#ifndef OBJALLOC_CORE_DURABLE_LOG_H_
#define OBJALLOC_CORE_DURABLE_LOG_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "objalloc/core/checkpoint.h"
#include "objalloc/core/wal.h"
#include "objalloc/core/wal_writer.h"
#include "objalloc/util/status.h"
#include "objalloc/workload/multi_object.h"

namespace objalloc::core {

// Durability health of a service (DESIGN.md §14).
//   kDetached  durability was never enabled (or was cleanly disabled).
//   kDurable   every admitted operation is being logged; recovery
//              reproduces the full history.
//   kDegraded  a persistent IO failure stopped logging. The service keeps
//              serving correctly in memory; the durable directory is frozen
//              as a consistent prefix of history. ReattachDurability()
//              heals the state with a fresh checkpoint + WAL generation.
enum class DurabilityState : uint8_t {
  kDetached = 0,
  kDurable = 1,
  kDegraded = 2,
};

class DurableLog;

// The engine's half of a generation commit and of its recovery — hooks for
// DurableLog alone.
class DurableEngine {
 protected:
  ~DurableEngine() = default;

  // Streams the engine state into `writer`, which the log opened and will
  // finish: every slot, or for a delta only the pages dirtied since the
  // previous commit. Runs once per retry attempt.
  virtual util::Status WriteSnapshot(CheckpointWriter* writer,
                                     bool delta) const = 0;
  // Starts a clean dirty-page window (tracking off unless `track`).
  virtual void ResetDirtyTracking(bool track) = 0;
  // Restores one snapshot stream: a full snapshot into a freshly built
  // engine, or a delta on top of its chain predecessor.
  virtual util::Status RestoreSnapshot(CheckpointReader* reader,
                                       RecoveryReport* report) = 0;
  // Installs the log that continues the recovered generation.
  virtual void AttachLog(std::unique_ptr<DurableLog> log) = 0;

 private:
  friend class DurableLog;
};

// The caller's half of a recovery walk (DurableLog::Recover).
class RecoveryTarget {
 public:
  // A fresh engine for a chain whose full snapshot has `config`, replacing
  // the one an earlier, failed candidate built.
  virtual util::StatusOr<DurableEngine*> Build(const DurableConfig& config) = 0;
  // Applies one logged record (never a WAL header). It passed validation
  // when it was logged, so a failure is corruption.
  virtual util::Status Apply(WalRecordType type, std::string_view payload,
                             RecoveryReport* report) = 0;
  // End of a WAL file: everything applied so far is served.
  virtual util::Status Flush() = 0;

 protected:
  ~RecoveryTarget() = default;
};

class DurableLog {
 public:
  // Starts a durable history in `dir`: removes the durable files of any
  // previous incarnation, then commits generation 1.
  static util::StatusOr<std::unique_ptr<DurableLog>> Start(
      const std::string& dir, const DurabilityOptions& options,
      const DurableConfig& config, DurableEngine& engine);

  // Recovery's read of the layout this class writes (DESIGN.md §13). Tries
  // the committed generations newest first — the manifest's and its
  // predecessor, or without a readable manifest every snapshot on disk —
  // and keeps the first that reconstructs: its full snapshot and delta
  // chain restored into target->Build's engine, then the WALs from that
  // generation on replayed through `target`, only the newest allowed a
  // torn tail. Unless `read_only`, dirty tracking is armed before the
  // replay and the engine gets a log resumed after the last good record.
  // `report` (optional) gets the account of the attempt that succeeded.
  static util::Status Recover(const std::string& dir,
                              const DurabilityOptions& options,
                              bool read_only, RecoveryTarget* target,
                              RecoveryReport* report);

  // Append one admitted batch / one non-batch record. Never fail: with
  // sync_every_batch they wait the record out, otherwise they only probe
  // for a sticky writer error; a persistent failure degrades and the
  // operation proceeds undurably (a batch counts in degraded_batches).
  void LogBatch(std::span<const workload::MultiObjectEvent> events);
  void LogOp(WalRecordType type, std::string_view payload);

  // The automatic checkpoint interval has elapsed (never while degraded).
  bool CheckpointDue() const;

  // Rotates to g+1 — a delta while the chain has room, else full — then GCs
  // generations beyond keep_generations. Any failure degrades.
  util::Status Checkpoint(DurableEngine& engine);

  // Heals a degraded log: quarantines the failed WAL and commits a full
  // g+1 of the current engine state. On failure stays degraded with the new
  // error.
  util::Status Reattach(DurableEngine& engine);

  // Enters kDegraded holding `status` (the first failure wins and is
  // returned from then on) and joins the writer's log thread.
  util::Status EnterDegraded(util::Status status);

  // Waits until every appended record is durable; a failure degrades.
  util::Status Sync();

  // Detaches the writer; returns the degrading error when degraded.
  util::Status Close();

  DurabilityState state() const { return state_; }
  const util::Status& degraded_error() const { return degraded_error_; }
  const std::string& dir() const { return dir_; }
  const DurabilityOptions& options() const { return options_; }

  // Live writer backlog (0 unless kDurable) and commit statistics.
  size_t BacklogBytes() const;
  WalCommitStats CommitStats() const;
  uint64_t checkpoint_retries() const { return checkpoint_retries_; }
  uint64_t degraded_batches() const { return degraded_batches_; }
  uint64_t reattach_count() const { return reattach_count_; }
  // Group rewrites across every writer this log has attached.
  uint64_t wal_write_retries() const {
    return wal_retries_detached_ + CommitStats().write_retries;
  }

 private:
  DurableLog(const std::string& dir, const DurabilityOptions& options,
             const DurableConfig& config);

  // Continues recovered generation `sequence`: reopens its WAL truncated to
  // `wal_prefix` bytes (creates it when missing), then republishes the
  // manifest if asked. The next checkpoint is forced full, so no delta
  // chains onto a generation recovery may have fallen back past.
  static util::StatusOr<std::unique_ptr<DurableLog>> Resume(
      const std::string& dir, const DurabilityOptions& options,
      const DurableConfig& config, uint64_t sequence,
      std::optional<size_t> wal_prefix, size_t events_since_checkpoint,
      bool republish_manifest);

  // Newest full snapshot generation at or below `sequence` in `dir` (0 when
  // none): the bottom of the delta chain that reconstructs `sequence`.
  static uint64_t NewestFullSnapshot(const std::string& dir,
                                     uint64_t sequence);

  // The one generation commit (steps (1)-(4) above) and its bookkeeping.
  util::Status CommitNext(DurableEngine& engine, bool delta);
  util::Status AttachWriter(WalWriter wal);
  // False after degrading on a failure of the record at `lsn`.
  bool Appended(uint64_t lsn);
  // Best-effort removal of generations beyond keep_generations.
  void CollectGarbage();

  std::string dir_;
  DurabilityOptions options_;
  DurableConfig config_;
  uint64_t sequence_ = 0;       // current generation
  uint64_t base_sequence_ = 0;  // newest full snapshot generation
  size_t delta_chain_length_ = 0;  // deltas since that full snapshot
  // The async group-commit writer (unique_ptr: it owns a thread and is not
  // movable). While degraded the writer is detached (log thread joined) but
  // kept for its final Stats until reattach folds them in.
  std::unique_ptr<AsyncWalWriter> wal_;
  size_t events_since_checkpoint_ = 0;

  DurabilityState state_ = DurabilityState::kDurable;
  util::Status degraded_error_;
  uint64_t checkpoint_retries_ = 0;
  uint64_t degraded_batches_ = 0;
  uint64_t reattach_count_ = 0;
  // write_retries of writers already detached (folded in at reattach).
  uint64_t wal_retries_detached_ = 0;
};

// The per-file half of ObjectService::Scrub: classifies every file in `dir`
// (manifest, snapshots, WALs, quarantined generations, strays) and walks
// each record file against its CRCs, filling report->files in name order.
util::Status ScrubFiles(const std::string& dir, ScrubReport* report);

}  // namespace objalloc::core

#endif  // OBJALLOC_CORE_DURABLE_LOG_H_
