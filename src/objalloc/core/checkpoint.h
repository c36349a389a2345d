// Checkpointing and crash-consistent recovery for the ObjectService
// (DESIGN.md §10).
//
// A durability directory holds, per *generation* g:
//
//   checkpoint-<g>.ckpt   full-state snapshot: every shard's slot table
//                         (schemes, DA core sets, per-object accounting,
//                         crash-log cursors) plus the service-level fault
//                         state (live set, crash journal, injector cursor,
//                         fault stats) — written via temp file + fsync +
//                         atomic rename
//   checkpoint-<g>.delta  delta snapshot (DESIGN.md §13): only the slab
//                         pages dirtied since generation g-1, chained onto
//                         the newest full snapshot at or below g; restoring
//                         g means full base + deltas base+1..g in order
//   wal-<g>.log           the admission-stream WAL appended since that
//                         snapshot (core/wal.h)
//   MANIFEST              atomically-replaced pointer {format version,
//                         current generation, full base generation,
//                         service config}
//
// state(checkpoint g+1) == state(checkpoint g) + replay(wal-<g>), so the
// newest generation recovers from its snapshot plus its WAL tail, and a
// corrupt snapshot degrades gracefully: fall back to generation g-1 and
// replay two WALs instead of one. Torn WAL tails (crash mid-append) are
// truncated at the last whole record; recovery is therefore always a
// *prefix* of the admitted history — and because serving is a pure
// function of admission order, the recovered state is bit-identical to an
// uninterrupted run over that prefix (asserted by tests/durability_test).
//
// All failure modes surface as util::Status plus a RecoveryReport (the
// fsck-style account of what was read, replayed, truncated, and skipped);
// nothing in this layer aborts on bad bytes.

#ifndef OBJALLOC_CORE_CHECKPOINT_H_
#define OBJALLOC_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "objalloc/core/wal.h"
#include "objalloc/util/io.h"

namespace objalloc::core {

// On-disk record types of checkpoint and manifest files (persisted values;
// disjoint from WalRecordType so a misfiled buffer is caught immediately).
enum class CheckpointRecordType : uint8_t {
  kCkptHeader = 16,
  kServiceState = 17,
  // 18 is retired (format v1's monolithic shard record): persisted
  // values are never reused.
  kCkptFooter = 19,
  kShardChunk = 20,  // since format v2: bounded slice of one shard's payload
  kDeltaHeader = 21, // delta snapshot header: names its parent generation
  kManifest = 32,
};

inline constexpr uint32_t kCheckpointMagic = 0x4b43414f;  // "OACK"
inline constexpr uint32_t kManifestMagic = 0x464d414f;    // "OAMF"
inline constexpr char kManifestFileName[] = "MANIFEST";

std::string CheckpointFileName(uint64_t sequence);
std::string DeltaCheckpointFileName(uint64_t sequence);

// Durability knobs (validated by ObjectService::EnableDurability).
struct DurabilityOptions {
  // fsync the WAL after every admitted batch (full write-ahead durability)
  // or only at checkpoints / explicit SyncDurable() calls (group commit —
  // a crash may lose the un-synced suffix, never consistency).
  bool sync_every_batch = false;
  // Take a checkpoint automatically after this many logged events
  // (0 = only on explicit Checkpoint() calls).
  size_t checkpoint_interval_events = 0;
  // Generations kept on disk; >= 2 so recovery can fall back one snapshot.
  int keep_generations = 2;
  // Group-commit window: longest the async log thread holds a group of
  // WAL records open waiting for more appends before syncing it anyway
  // (0 = sync each group as soon as the log thread picks it up).
  uint32_t group_commit_delay_us = 500;
  // Group-commit size threshold: a group is sealed and synced as soon as
  // it buffers this many bytes, regardless of the delay window.
  size_t group_commit_bytes = 1 << 20;
  // How sealed WAL bytes are made durable (util/io.h documents the
  // tradeoff; SyncMode::kNone is benchmark-only).
  util::SyncMode sync_mode = util::SyncMode::kFsync;
  // Delta checkpoints: when > 0, up to this many consecutive checkpoints
  // are written as deltas (dirty slab pages only) chained onto the newest
  // full snapshot before a full one is forced (0 = every checkpoint full).
  size_t delta_chain_limit = 0;
  // Recovery coalesces consecutive replayed WAL batches into super-batches
  // of up to this many events and pipelines them through the shard
  // executor (0 = replay batch-by-batch; the recovered state is
  // bit-identical either way).
  size_t replay_batch_events = 32768;
  // Bounded retry with exponential backoff (util/env.h) for WAL group
  // writes and checkpoint/manifest publication. Transient failures (EIO
  // class) are absorbed; exhaustion or a persistent error (ENOSPC class)
  // degrades the service to DurabilityState::kDegraded — it keeps serving,
  // stops logging, and holds the original error until
  // ReattachDurability(). max_attempts = 1 disables retry.
  util::RetryPolicy retry;
  // After ReattachDurability() publishes the fresh generation, re-open the
  // directory read-only and verify it recovers (the "verifiable resync").
  // Costs one full read of the new snapshot; disable for huge stores where
  // the next scheduled scrub is enough.
  bool verify_reattach = true;

  util::Status Validate() const;
};

// The fsck-style account of a recovery (or dry-run verification) pass.
struct RecoveryReport {
  uint64_t manifest_sequence = 0;    // generation the manifest named
  uint64_t checkpoint_sequence = 0;  // generation actually loaded
  bool manifest_missing = false;
  bool manifest_corrupt = false;
  bool fell_back = false;            // newest snapshot unusable, used older
  size_t delta_checkpoints_applied = 0;  // chain links on top of the base
  size_t wal_files_replayed = 0;
  size_t records_replayed = 0;       // WAL records applied
  size_t batches_replayed = 0;
  size_t events_replayed = 0;
  size_t objects_restored = 0;
  bool torn_tail = false;            // newest WAL ended mid-record
  uint64_t torn_bytes_truncated = 0;
  std::vector<std::string> warnings;

  std::string ToString() const;
};

// --- Scrub (deep fsck) --------------------------------------------------
// ObjectService::Scrub walks every file in a durability directory — the
// manifest, each full and delta snapshot, each WAL — verifying framing and
// CRCs record by record, then runs the read-only recovery pipeline to
// decide overall recoverability. Per-file verdicts tell an operator *which*
// file a bad disk chewed, not just that recovery would fall back.

enum class ScrubVerdict : uint8_t {
  kOk = 0,
  // The file ends mid-record (crash or partial write); the valid prefix is
  // intact and recovery truncates the tail. Only legal in the newest WAL.
  kTornTail = 1,
  // CRC mismatch, bad magic, or structural damage inside the valid region.
  kCorrupt = 2,
  // A failed generation set aside by ReattachDurability (never replayed;
  // kept for forensics).
  kQuarantined = 3,
  // Leftover temp file or a name this layer never writes.
  kStray = 4,
};

struct ScrubFileReport {
  std::string name;
  ScrubVerdict verdict = ScrubVerdict::kOk;
  uint64_t bytes = 0;
  uint64_t records = 0;  // framed records whose CRCs verified
  std::string detail;    // what exactly is wrong (empty when kOk)
};

struct ScrubReport {
  // The directory recovers (possibly with fallback/truncation warnings).
  bool recoverable = false;
  // Recoverable AND every file verdict is kOk AND recovery needed no
  // fallback, truncation, or manifest reconstruction.
  bool clean = false;
  std::vector<ScrubFileReport> files;
  RecoveryReport recovery;  // the read-only recovery account

  std::string ToString() const;
};

const char* ScrubVerdictName(ScrubVerdict verdict);

// Serializable image of the service-level fault/durability state (the
// parts of ObjectService outside the shards). Captured into a checkpoint's
// kServiceState record and restored on recovery.
struct ServiceStateImage {
  bool faults_enabled = false;
  FaultInjectorOptions injector_options;
  FaultSchedule schedule;
  uint64_t injector_cursor = 0;
  uint64_t live_mask = 0;
  CrashLog crash_log;
  FaultStats stats;

  void AppendTo(std::string* out) const;
  static util::StatusOr<ServiceStateImage> Parse(std::string_view payload);
};

// --- Manifest ----------------------------------------------------------

struct Manifest {
  uint64_t sequence = 0;
  // Newest *full* snapshot at or below `sequence`: recovery restores it,
  // then applies the delta chain base+1..sequence. Equals `sequence` when
  // the current generation's snapshot is itself full (WriteManifest treats
  // a zero base as "same as sequence"; pre-delta manifests omit the field
  // and parse the same way).
  uint64_t base_sequence = 0;
  DurableConfig config;
};

util::Status WriteManifest(const std::string& dir, const Manifest& manifest);
util::StatusOr<Manifest> ReadManifest(const std::string& dir);

// --- Streaming checkpoint writer --------------------------------------
// Streams one checkpoint straight to disk through an AtomicFileWriter:
// shard snapshot bytes accumulate into bounded kShardChunk records, so
// peak memory is O(chunk) however large the shard. Commit happens in
// Finish (rename over the final name); dropping the writer earlier
// abandons the temp file.

class CheckpointWriter {
 public:
  // Flush threshold for shard bytes: a chunk is flushed by the append that
  // fills it past this, so it holds at most kChunkBytes plus one append —
  // the snapshot writer appends at most one 128 KiB slab page at a time.
  static constexpr size_t kChunkBytes = 256 * 1024;

  static util::StatusOr<CheckpointWriter> Open(const std::string& path,
                                               uint64_t sequence,
                                               const DurableConfig& config);
  // Same stream shape, but the header is a kDeltaHeader naming `parent`.
  // The shard bytes use the one snapshot format (ObjectShard::
  // StreamSnapshot) over the dirty ranges instead of the whole slab.
  static util::StatusOr<CheckpointWriter> OpenDelta(
      const std::string& path, uint64_t sequence, uint64_t parent,
      const DurableConfig& config);

  CheckpointWriter() = default;
  CheckpointWriter(CheckpointWriter&&) = default;
  CheckpointWriter& operator=(CheckpointWriter&&) = default;

  util::Status AppendServiceState(const ServiceStateImage& image);

  // Shard payloads stream in shard order: BeginShard, any number of
  // AppendShardBytes (flushed as chunk records at kChunkBytes), EndShard
  // (emits the final chunk, flagged last, even when empty).
  void BeginShard(uint32_t shard_index);
  util::Status AppendShardBytes(std::string_view bytes);
  util::Status EndShard();

  // Footer + fsync + atomic publish.
  util::Status Finish(uint32_t shard_count);

 private:
  util::Status FlushChunk(bool last);

  util::AtomicFileWriter file_;
  std::string chunk_;   // pending shard bytes for the open chunk
  std::string record_;  // framed-record build buffer, recycled
  uint32_t shard_index_ = 0;
  bool shard_open_ = false;
};

// --- Streaming checkpoint reader ---------------------------------------
// Reads a checkpoint file record by record through a bounded buffer;
// enforces the format version, record order, CRCs, the footer count, and a
// byte-exact end of file.

class CheckpointReader {
 public:
  static util::StatusOr<CheckpointReader> Open(const std::string& path);

  CheckpointReader() = default;
  CheckpointReader(CheckpointReader&&) = default;
  CheckpointReader& operator=(CheckpointReader&&) = default;

  uint64_t sequence() const { return sequence_; }
  const DurableConfig& config() const { return config_; }
  // True when the file opened with a kDeltaHeader; its shard chunks then
  // carry dirty-range delta payloads to apply on top of parent().
  bool is_delta() const { return is_delta_; }
  uint64_t parent() const { return parent_; }

  // One step of the stream. Exactly one of the three shapes per call:
  // service state (`service_state` true), a shard chunk (`bytes` points
  // into the reader's buffer, valid until the next call), or end of
  // checkpoint (`done` true, all structural checks passed).
  struct Piece {
    bool done = false;
    bool service_state = false;
    ServiceStateImage state;
    uint32_t shard = 0;
    bool last = false;
    std::string_view bytes;
  };
  util::Status Next(Piece* piece);

 private:
  // Reads one framed record into payload_, CRC-checked. `*eof` reports a
  // clean end of file (torn records are corruption — checkpoints are
  // published atomically).
  util::Status ReadRecord(uint8_t* type, bool* eof);

  util::FileReader file_;
  std::string payload_;
  uint64_t sequence_ = 0;
  uint64_t parent_ = 0;
  bool is_delta_ = false;
  DurableConfig config_;
  bool saw_state_ = false;
  bool shard_open_ = false;
  uint32_t next_shard_ = 0;  // shards must arrive 0..n-1, each completed
};

// Durable generation files present in `dir` (by checkpoint file name),
// ascending. Used when the manifest itself is unreadable. Lists *full*
// snapshots only — a delta is unusable without its base, and every delta
// generation's state is equally reachable from the newest full snapshot
// plus the per-generation WALs.
util::StatusOr<std::vector<uint64_t>> ListCheckpointSequences(
    const std::string& dir);

// Delta snapshot generations present in `dir`, ascending (GC bookkeeping).
util::StatusOr<std::vector<uint64_t>> ListDeltaCheckpointSequences(
    const std::string& dir);

}  // namespace objalloc::core

#endif  // OBJALLOC_CORE_CHECKPOINT_H_
