#include "objalloc/core/durable_log.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "objalloc/util/env.h"
#include "objalloc/util/io.h"
#include "objalloc/util/record_io.h"

namespace objalloc::core {

DurableLog::DurableLog(const std::string& dir,
                       const DurabilityOptions& options,
                       const DurableConfig& config)
    : dir_(dir), options_(options), config_(config) {}

util::StatusOr<std::unique_ptr<DurableLog>> DurableLog::Start(
    const std::string& dir, const DurabilityOptions& options,
    const DurableConfig& config, DurableEngine& engine) {
  OBJALLOC_RETURN_IF_ERROR(options.Validate());
  OBJALLOC_RETURN_IF_ERROR(util::EnsureDir(dir));
  // This call *starts* a durable history; durable files left by a previous
  // incarnation (including their temp files) are removed so a manifest-less
  // scan can never resurrect them.
  auto names = util::ListDir(dir);
  if (!names.ok()) return names.status();
  for (const std::string& name : *names) {
    if (name.rfind(kManifestFileName, 0) == 0 ||
        name.rfind("checkpoint-", 0) == 0 || name.rfind("wal-", 0) == 0) {
      OBJALLOC_RETURN_IF_ERROR(util::RemoveFile(dir + "/" + name));
    }
  }
  std::unique_ptr<DurableLog> log(new DurableLog(dir, options, config));
  OBJALLOC_RETURN_IF_ERROR(log->CommitNext(engine, /*delta=*/false));
  return log;
}

util::StatusOr<std::unique_ptr<DurableLog>> DurableLog::Resume(
    const std::string& dir, const DurabilityOptions& options,
    const DurableConfig& config, uint64_t sequence,
    std::optional<size_t> wal_prefix, size_t events_since_checkpoint,
    bool republish_manifest) {
  std::unique_ptr<DurableLog> log(new DurableLog(dir, options, config));
  log->sequence_ = sequence;
  log->delta_chain_length_ = options.delta_chain_limit;
  // Appending resumes at the last good record: a torn tail is physically
  // truncated away.
  const std::string wal_path = dir + "/" + WalFileName(sequence);
  auto wal = wal_prefix.has_value()
                 ? WalWriter::Reopen(wal_path, *wal_prefix)
                 : WalWriter::Create(wal_path, sequence, config);
  if (!wal.ok()) return wal.status();
  OBJALLOC_RETURN_IF_ERROR(log->AttachWriter(std::move(*wal)));
  log->events_since_checkpoint_ = events_since_checkpoint;
  if (republish_manifest) {
    // The commit point the next recovery will need.
    OBJALLOC_RETURN_IF_ERROR(WriteManifest(
        dir, Manifest{sequence, NewestFullSnapshot(dir, sequence), config}));
  }
  return log;
}

uint64_t DurableLog::NewestFullSnapshot(const std::string& dir,
                                        uint64_t sequence) {
  while (sequence > 0 &&
         !util::FileExists(dir + "/" + CheckpointFileName(sequence))) {
    --sequence;
  }
  return sequence;
}

util::Status DurableLog::CommitNext(DurableEngine& engine, bool delta) {
  const uint64_t next = sequence_ + 1;
  const uint64_t base = delta ? base_sequence_ : next;
  const std::string ckpt_path =
      dir_ + "/" +
      (delta ? DeltaCheckpointFileName(next) : CheckpointFileName(next));
  const std::string wal_path = dir_ + "/" + WalFileName(next);
  util::Env* env = util::CurrentEnv();
  auto retry = [&](auto&& op) {
    return util::RetryIo(options_.retry, env, &checkpoint_retries_, op);
  };
  // (1) The snapshot, streamed to a temp file and atomically published
  //     under its final name. Safe to retry whole: the temp file is
  //     recreated from scratch each attempt.
  util::Status status = retry([&]() -> util::Status {
    auto writer = delta ? CheckpointWriter::OpenDelta(ckpt_path, next,
                                                      sequence_, config_)
                        : CheckpointWriter::Open(ckpt_path, next, config_);
    if (!writer.ok()) return writer.status();
    OBJALLOC_RETURN_IF_ERROR(engine.WriteSnapshot(&*writer, delta));
    return writer->Finish(static_cast<uint32_t>(config_.num_shards));
  });
  // (2) The next generation's WAL with a synced header — it must exist
  //     before the manifest can name it. Create truncates, so a retry
  //     rewrites the header cleanly.
  util::StatusOr<WalWriter> wal{util::Status::Internal("unattempted")};
  if (status.ok()) {
    status = retry([&] {
      wal = WalWriter::Create(wal_path, next, config_);
      return wal.status();
    });
  }
  // (3) Commit point: the manifest flips to the new generation and names
  //     the full snapshot its delta chain stands on.
  if (status.ok()) {
    status = retry(
        [&] { return WriteManifest(dir_, Manifest{next, base, config_}); });
  }
  if (!status.ok()) {
    // Roll back the orphans; generation g stays fully intact.
    (void)util::RemoveFile(ckpt_path);
    (void)util::RemoveFile(wal_path);
    return status;
  }
  // (4) Appends move to the new generation. Rotate flushes generation g,
  //     which the caller already made durable before the snapshot.
  status = wal_ != nullptr ? wal_->Rotate(std::move(*wal))
                           : AttachWriter(std::move(*wal));
  if (!status.ok()) return status;
  sequence_ = next;
  base_sequence_ = base;
  delta_chain_length_ = delta ? delta_chain_length_ + 1 : 0;
  events_since_checkpoint_ = 0;
  // The published snapshot covers every page dirtied so far; the next delta
  // window starts clean. (Only after the commit — a failed one must leave
  // the pages marked for the retry.)
  engine.ResetDirtyTracking(options_.delta_chain_limit > 0);
  return util::Status::Ok();
}

util::Status DurableLog::AttachWriter(WalWriter wal) {
  AsyncWalOptions async;
  async.group_commit_delay_us = options_.group_commit_delay_us;
  async.group_commit_bytes = options_.group_commit_bytes;
  async.sync_mode = options_.sync_mode;
  async.retry = options_.retry;
  wal_ = std::make_unique<AsyncWalWriter>();
  util::Status status = wal_->Attach(std::move(wal), async);
  if (!status.ok()) wal_.reset();
  return status;
}

bool DurableLog::Appended(uint64_t lsn) {
  // The append itself is in-memory and cannot fail; IO errors are sticky
  // inside the writer (after its own rollback-and-rewrite retry gave up).
  // sync_every_batch waits the record out (memory and disk never diverge);
  // the default mode only probes for a sticky error so a dead disk is
  // noticed within one append rather than at the next sync.
  util::Status status = util::Status::Ok();
  if (options_.sync_every_batch) {
    status = wal_->WaitDurable(lsn);
  } else if (!wal_->is_open()) [[unlikely]] {
    status = wal_->Detach();
    if (status.ok()) status = util::Status::Internal("WAL writer closed");
  }
  if (status.ok()) return true;
  // Degrade, don't stop: the writer already rolled the file back to the
  // last durable group boundary, so the on-disk state is a consistent
  // prefix.
  (void)EnterDegraded(status);
  return false;
}

void DurableLog::LogBatch(
    std::span<const workload::MultiObjectEvent> events) {
  // Degraded (or degrading now): the disk is gone but the service is not.
  // The batch is served undurably; the reattach checkpoint captures it.
  if (state_ == DurabilityState::kDurable &&
      Appended(wal_->AppendBatch(events))) {
    events_since_checkpoint_ += events.size();
  } else {
    ++degraded_batches_;
  }
}

void DurableLog::LogOp(WalRecordType type, std::string_view payload) {
  if (state_ == DurabilityState::kDurable) {
    (void)Appended(wal_->Append(type, payload));
  }
}

bool DurableLog::CheckpointDue() const {
  return state_ == DurabilityState::kDurable &&
         options_.checkpoint_interval_events > 0 &&
         events_since_checkpoint_ >= options_.checkpoint_interval_events;
}

util::Status DurableLog::EnterDegraded(util::Status status) {
  if (state_ == DurabilityState::kDegraded) return degraded_error_;
  state_ = DurabilityState::kDegraded;
  degraded_error_ = status;
  // Join the log thread; the writer object stays alive so its final commit
  // stats (and the original sticky error) remain readable until reattach.
  if (wal_ != nullptr) (void)wal_->Detach();
  return status;
}

util::Status DurableLog::Checkpoint(DurableEngine& engine) {
  // Everything the snapshot will contain must be durable under generation
  // g first: state(ckpt g+1) == state(ckpt g) + replay(wal-g) only holds
  // if wal-g is complete on disk.
  OBJALLOC_RETURN_IF_ERROR(Sync());
  // Delta while the chain has room, full once it hits the limit (the
  // periodic compaction that keeps recovery cost bounded).
  util::Status status =
      CommitNext(engine, options_.delta_chain_limit > 0 &&
                             delta_chain_length_ < options_.delta_chain_limit);
  // The disk just refused a persistent write: degrade rather than pretend
  // the next interval will fare better.
  if (!status.ok()) return EnterDegraded(status);
  CollectGarbage();
  return util::Status::Ok();
}

util::Status DurableLog::Reattach(DurableEngine& engine) {
  if (state_ != DurabilityState::kDegraded) {
    return util::Status::FailedPrecondition(
        "durability is healthy — nothing to reattach");
  }
  // The old writer is already detached (EnterDegraded joined its thread);
  // fold its retry count into the totals and release it.
  if (wal_ != nullptr) {
    wal_retries_detached_ += wal_->Stats().write_retries;
    wal_.reset();
  }
  // Quarantine the failed generation's WAL: its durable prefix is real
  // history, but the new checkpoint supersedes it and it must never be
  // picked up by a manifest-less recovery scan. Renamed, not deleted —
  // forensics beat free disk blocks right after a disk scare. NotFound is
  // fine (the failure may have struck before the file ever existed).
  const std::string failed_wal = dir_ + "/" + WalFileName(sequence_);
  util::Status status =
      util::RenameFile(failed_wal, failed_wal + ".quarantine");
  if (status.code() == util::StatusCode::kNotFound) status = util::Status::Ok();
  // A fresh full generation g+1 captures the *current* engine state —
  // including every batch served while degraded.
  if (status.ok()) status = CommitNext(engine, /*delta=*/false);
  if (!status.ok()) {
    // Still degraded, now holding the reattach failure; the caller can try
    // again once the disk truly heals.
    degraded_error_ = status;
    return status;
  }
  state_ = DurabilityState::kDurable;
  degraded_error_ = util::Status::Ok();
  ++reattach_count_;
  return util::Status::Ok();
}

void DurableLog::CollectGarbage() {
  // Best effort: drop generations beyond keep_generations (walking down
  // until the names stop existing catches backlogs left by earlier failed
  // GCs). WALs fall at keep_generations exactly; snapshot files survive
  // further down to the full snapshot the oldest kept generation's delta
  // chain stands on (generation 1 is the floor either way, so unlike
  // NewestFullSnapshot the walk never probes it).
  const uint64_t keep = static_cast<uint64_t>(options_.keep_generations);
  if (sequence_ <= keep) return;
  const uint64_t wal_floor = sequence_ - keep;
  uint64_t ckpt_floor = wal_floor + 1;
  while (ckpt_floor > 1 &&
         !util::FileExists(dir_ + "/" + CheckpointFileName(ckpt_floor))) {
    --ckpt_floor;
  }
  for (uint64_t gen = wal_floor;; --gen) {
    const std::string wal_name = dir_ + "/" + WalFileName(gen);
    const std::string full_name = dir_ + "/" + CheckpointFileName(gen);
    const std::string delta_name = dir_ + "/" + DeltaCheckpointFileName(gen);
    const bool had_files = util::FileExists(wal_name) ||
                           util::FileExists(full_name) ||
                           util::FileExists(delta_name);
    (void)util::RemoveFile(wal_name);
    if (gen < ckpt_floor) {
      (void)util::RemoveFile(full_name);
      (void)util::RemoveFile(delta_name);
    }
    if (!had_files || gen == 1) break;
  }
}

util::Status DurableLog::Sync() {
  if (state_ == DurabilityState::kDegraded) return degraded_error_;
  util::Status status = wal_->Flush();
  if (!status.ok()) return EnterDegraded(status);
  return status;
}

util::Status DurableLog::Close() {
  // A degraded close reports the degrading error — the caller learns that
  // a tail of history never reached disk.
  return state_ == DurabilityState::kDegraded ? degraded_error_
                                              : wal_->Detach();
}

size_t DurableLog::BacklogBytes() const {
  return wal_ != nullptr && state_ == DurabilityState::kDurable
             ? wal_->BacklogBytes()
             : 0;
}

WalCommitStats DurableLog::CommitStats() const {
  return wal_ != nullptr ? wal_->Stats() : WalCommitStats();
}

namespace {

// Replays WAL generation `sequence` from `buffer` into `target`. `is_last`
// permits (and accounts) a torn tail; earlier generations must end cleanly.
util::Status ReplayWal(std::string_view buffer, uint64_t sequence,
                       const DurableConfig& config, bool is_last,
                       RecoveryTarget* target, RecoveryReport* report,
                       size_t* valid_prefix) {
  const std::string name = WalFileName(sequence);
  util::RecordCursor cursor(buffer);
  util::RecordView record;
  bool saw_header = false;
  // Replay failures are reported against the file they came from.
  auto in_wal = [&name](util::Status status) {
    return status.ok() ? status
                       : util::Status(status.code(),
                                      name + ": " + status.message());
  };
  while (cursor.Next(&record)) {
    const WalRecordType type = static_cast<WalRecordType>(record.type);
    if (!saw_header) {
      if (type != WalRecordType::kWalHeader) {
        return util::Status::Internal(name +
                                      ": first record is not a WAL header");
      }
      auto header = DecodeWalHeader(record.payload);
      if (!header.ok()) return header.status();
      if (header->sequence != sequence) {
        return util::Status::Internal(
            name + ": header names generation " +
            std::to_string(header->sequence));
      }
      OBJALLOC_RETURN_IF_ERROR(config.CheckMatches(header->config));
      saw_header = true;
    } else if (type == WalRecordType::kWalHeader) {
      return util::Status::Internal(name + ": duplicate header record");
    } else {
      OBJALLOC_RETURN_IF_ERROR(
          in_wal(target->Apply(type, record.payload, report)));
    }
    report->records_replayed += 1;
  }
  // A CRC failure inside the prefix is corruption, never a torn tail.
  OBJALLOC_RETURN_IF_ERROR(cursor.status());
  if (!saw_header) {
    // Generations get a synced header before the manifest ever names them,
    // so a header-less file in a committed chain is corruption.
    return util::Status::Internal(name + ": no complete header record");
  }
  if (cursor.tail_bytes() > 0) {
    if (!is_last) {
      return util::Status::Internal(
          name + ": torn tail in a non-final generation (" +
          std::to_string(cursor.tail_bytes()) + " bytes) — " +
          "this WAL was synced at checkpoint time and must be complete");
    }
    report->torn_tail = true;
    report->torn_bytes_truncated += cursor.tail_bytes();
  }
  OBJALLOC_RETURN_IF_ERROR(in_wal(target->Flush()));
  *valid_prefix = cursor.valid_prefix();
  return util::Status::Ok();
}

}  // namespace

util::Status DurableLog::Recover(const std::string& dir,
                                const DurabilityOptions& options,
                                bool read_only, RecoveryTarget* target,
                                RecoveryReport* report) {
  RecoveryReport local;
  RecoveryReport& rep = report != nullptr ? *report : local;
  rep = RecoveryReport();
  OBJALLOC_RETURN_IF_ERROR(options.Validate());

  // The manifest names the committed generation; when it is unreadable,
  // fall back to scanning the directory for snapshot files (every candidate
  // is still fully CRC-verified before use).
  uint64_t top = 0;
  std::vector<uint64_t> candidates;
  DurableConfig manifest_config;
  bool have_manifest = false;
  auto manifest = ReadManifest(dir);
  if (manifest.ok()) {
    have_manifest = true;
    manifest_config = manifest->config;
    top = manifest->sequence;
    rep.manifest_sequence = top;
    candidates.push_back(top);
    if (top > 1) candidates.push_back(top - 1);
  } else {
    if (manifest.status().code() == util::StatusCode::kNotFound) {
      rep.manifest_missing = true;
    } else {
      rep.manifest_corrupt = true;
    }
    rep.warnings.push_back("manifest unreadable (" +
                           manifest.status().ToString() +
                           "); scanning the directory");
    // Deltas count as candidates too: each one is an openable snapshot via
    // its chain, and skipping them down to the newest full would silently
    // drop the WAL generations in between.
    auto fulls = ListCheckpointSequences(dir);
    if (!fulls.ok()) return fulls.status();
    auto deltas = ListDeltaCheckpointSequences(dir);
    if (!deltas.ok()) return deltas.status();
    candidates = std::move(*fulls);
    candidates.insert(candidates.end(), deltas->begin(), deltas->end());
    std::sort(candidates.rbegin(), candidates.rend());  // newest first
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    if (candidates.empty()) {
      return util::Status::NotFound("no durable state in " + dir);
    }
    top = candidates.front();
  }

  util::Status last_error =
      util::Status::Internal("no usable checkpoint generation in " + dir);
  for (size_t c = 0; c < candidates.size(); ++c) {
    const uint64_t gen = candidates[c];
    // Only the manifest verdict and the warnings are set so far.
    RecoveryReport attempt = rep;
    util::Status status = [&]() -> util::Status {
      // Reconstruct generation `gen`'s snapshot: the newest full snapshot
      // at or below it, then the delta chain base+1..gen in order.
      const uint64_t base = NewestFullSnapshot(dir, gen);
      if (base == 0) {
        return util::Status::Internal(
            "no full snapshot at or below generation " + std::to_string(gen));
      }
      DurableEngine* engine = nullptr;
      DurableConfig config;
      for (uint64_t g = base; g <= gen; ++g) {
        const bool delta = g > base;
        const std::string name =
            delta ? DeltaCheckpointFileName(g) : CheckpointFileName(g);
        auto reader = CheckpointReader::Open(dir + "/" + name);
        if (!reader.ok()) return reader.status();
        if (reader->is_delta() != delta || reader->sequence() != g ||
            (delta && reader->parent() != g - 1)) {
          return util::Status::Internal(name + " is not the " +
                                        (delta ? "delta" : "full snapshot") +
                                        " of generation " + std::to_string(g));
        }
        if (!delta) {
          config = reader->config();
          if (have_manifest) {
            OBJALLOC_RETURN_IF_ERROR(manifest_config.CheckMatches(config));
          }
          auto built = target->Build(config);
          if (!built.ok()) return built.status();
          engine = *built;
        }
        OBJALLOC_RETURN_IF_ERROR(config.CheckMatches(reader->config()));
        OBJALLOC_RETURN_IF_ERROR(engine->RestoreSnapshot(&*reader, &attempt));
      }
      attempt.delta_checkpoints_applied = gen - base;
      if (!read_only && options.delta_chain_limit > 0) {
        // Arm page tracking *before* the WAL replay below: the next delta
        // must capture every page the replayed tail re-dirties on top of
        // this snapshot.
        engine->ResetDirtyTracking(true);
      }
      // Replay the WAL chain gen..top; only the final generation may carry
      // a torn tail.
      std::optional<size_t> final_prefix;  // unset: the final WAL is missing
      for (uint64_t w = gen; w <= top; ++w) {
        auto wal_buffer = util::ReadFileToString(dir + "/" + WalFileName(w));
        if (!wal_buffer.ok()) {
          if (w == top &&
              wal_buffer.status().code() == util::StatusCode::kNotFound) {
            // The snapshot alone is a consistent state; recover to it and
            // warn (a committed generation always has its WAL, so this
            // means outside interference, not a crash window).
            attempt.warnings.push_back(
                WalFileName(w) + " missing; recovered from the snapshot alone");
            break;
          }
          return wal_buffer.status();
        }
        size_t prefix = 0;
        OBJALLOC_RETURN_IF_ERROR(ReplayWal(*wal_buffer, w, config,
                                           /*is_last=*/w == top, target,
                                           &attempt, &prefix));
        attempt.wal_files_replayed += 1;
        if (w == top) final_prefix = prefix;
      }
      if (!read_only) {
        // Arm durability on generation `top`, appending after its last
        // good record.
        auto log = Resume(dir, options, config, top, final_prefix,
                          attempt.events_replayed,
                          /*republish_manifest=*/!have_manifest);
        if (!log.ok()) return log.status();
        engine->AttachLog(std::move(*log));
      }
      return util::Status::Ok();
    }();
    if (status.ok()) {
      attempt.checkpoint_sequence = gen;
      attempt.fell_back = c > 0;
      rep = std::move(attempt);
      return status;
    }
    last_error = status;
    rep.warnings.push_back("generation " + std::to_string(gen) +
                           " unusable: " + last_error.ToString());
  }
  return last_error;
}

namespace {

// Generic framing + CRC walk shared by the scrub's WAL and checkpoint
// passes (semantic validation is the recovery dry run's job).
void ScrubRecordFile(const std::string& path, bool torn_tail_legal,
                     ScrubFileReport* file) {
  auto bytes = util::ReadFileToString(path);
  if (!bytes.ok()) {
    file->verdict = ScrubVerdict::kCorrupt;
    file->detail = bytes.status().ToString();
    return;
  }
  file->bytes = bytes->size();
  util::RecordCursor cursor(*bytes);
  util::RecordView record;
  bool first = true;
  while (cursor.Next(&record)) {
    if (first && file->name.rfind("wal-", 0) == 0) {
      // The WAL's first record must be its header; a checkpoint's
      // structure is enforced by the recovery dry run.
      if (record.type != static_cast<uint8_t>(WalRecordType::kWalHeader) ||
          !DecodeWalHeader(record.payload).ok()) {
        file->verdict = ScrubVerdict::kCorrupt;
        file->detail = "first record is not a valid WAL header";
        return;
      }
    }
    first = false;
    ++file->records;
  }
  if (!cursor.status().ok()) {
    file->verdict = ScrubVerdict::kCorrupt;
    file->detail = cursor.status().ToString();
  } else if (cursor.tail_bytes() > 0) {
    if (torn_tail_legal) {
      file->verdict = ScrubVerdict::kTornTail;
      file->detail = std::to_string(cursor.tail_bytes()) +
                     " torn tail byte(s) past the valid prefix";
    } else {
      file->verdict = ScrubVerdict::kCorrupt;
      file->detail = "truncated mid-record (checkpoints publish atomically)";
    }
  }
}

}  // namespace

util::Status ScrubFiles(const std::string& dir, ScrubReport* report) {
  auto names = util::ListDir(dir);
  if (!names.ok()) return names.status();
  std::sort(names->begin(), names->end());
  for (const std::string& name : *names) {
    ScrubFileReport file;
    file.name = name;
    const std::string path = dir + "/" + name;
    if (auto size = util::FileSize(path); size.ok()) file.bytes = *size;
    if (name == kManifestFileName) {
      auto manifest = ReadManifest(dir);
      if (manifest.ok()) {
        file.records = 1;
        file.detail = "generation " + std::to_string(manifest->sequence) +
                      ", base " + std::to_string(manifest->base_sequence);
      } else {
        file.verdict = ScrubVerdict::kCorrupt;
        file.detail = manifest.status().ToString();
      }
    } else if (name.ends_with(".quarantine")) {
      file.verdict = ScrubVerdict::kQuarantined;
      file.detail = "failed generation set aside by reattach (not replayed)";
    } else if (name.ends_with(".tmp")) {
      file.verdict = ScrubVerdict::kStray;
      file.detail = "abandoned temp file (an interrupted atomic publish)";
    } else if (name.rfind("checkpoint-", 0) == 0) {
      ScrubRecordFile(path, /*torn_tail_legal=*/false, &file);
    } else if (name.rfind("wal-", 0) == 0 && name.ends_with(".log")) {
      ScrubRecordFile(path, /*torn_tail_legal=*/true, &file);
    } else {
      file.verdict = ScrubVerdict::kStray;
      file.detail = "not a durability-layer file";
    }
    report->files.push_back(std::move(file));
  }
  return util::Status::Ok();
}

}  // namespace objalloc::core
