#include "objalloc/core/checkpoint.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "objalloc/util/crc32.h"
#include "objalloc/util/io.h"
#include "objalloc/util/record_io.h"

namespace objalloc::core {

using util::AppendRecord;
using util::AppendScalar;
using util::PayloadReader;
using util::RecordCursor;
using util::RecordView;

std::string CheckpointFileName(uint64_t sequence) {
  return "checkpoint-" + std::to_string(sequence) + ".ckpt";
}

std::string DeltaCheckpointFileName(uint64_t sequence) {
  return "checkpoint-" + std::to_string(sequence) + ".delta";
}

util::Status DurabilityOptions::Validate() const {
  if (keep_generations < 2) {
    return util::Status::InvalidArgument(
        "keep_generations must be >= 2 (recovery falls back one snapshot)");
  }
  return retry.Validate();
}

std::string RecoveryReport::ToString() const {
  std::string out = "recovered generation " +
                    std::to_string(checkpoint_sequence) + " (manifest " +
                    std::to_string(manifest_sequence) + ")";
  if (manifest_missing) out += ", manifest missing";
  if (manifest_corrupt) out += ", manifest corrupt";
  if (fell_back) out += ", fell back to previous snapshot";
  if (delta_checkpoints_applied > 0) {
    out += ", " + std::to_string(delta_checkpoints_applied) +
           " delta snapshot(s) applied";
  }
  out += ": " + std::to_string(objects_restored) + " objects, " +
         std::to_string(wal_files_replayed) + " WAL file(s), " +
         std::to_string(records_replayed) + " records, " +
         std::to_string(batches_replayed) + " batches, " +
         std::to_string(events_replayed) + " events replayed";
  if (torn_tail) {
    out += ", torn tail truncated (" + std::to_string(torn_bytes_truncated) +
           " bytes)";
  }
  for (const std::string& warning : warnings) out += "\n  warning: " + warning;
  return out;
}

const char* ScrubVerdictName(ScrubVerdict verdict) {
  switch (verdict) {
    case ScrubVerdict::kOk:
      return "ok";
    case ScrubVerdict::kTornTail:
      return "torn-tail";
    case ScrubVerdict::kCorrupt:
      return "CORRUPT";
    case ScrubVerdict::kQuarantined:
      return "quarantined";
    case ScrubVerdict::kStray:
      return "stray";
  }
  return "?";
}

std::string ScrubReport::ToString() const {
  std::string out = "scrub: " + std::to_string(files.size()) + " file(s)";
  for (const ScrubFileReport& file : files) {
    out += "\n  " + file.name + ": " + ScrubVerdictName(file.verdict) + ", " +
           std::to_string(file.bytes) + " bytes, " +
           std::to_string(file.records) + " record(s)";
    if (!file.detail.empty()) out += " — " + file.detail;
  }
  out += recoverable ? "\nrecoverable: yes" : "\nrecoverable: NO";
  if (recoverable) {
    out += clean ? " (clean)" : " (with warnings)";
    out += "\n" + recovery.ToString();
  }
  return out;
}

void ServiceStateImage::AppendTo(std::string* out) const {
  AppendScalar<uint8_t>(faults_enabled ? 1 : 0, out);
  AppendScalar(injector_options.seed, out);
  AppendScalar(injector_options.crash_rate, out);
  AppendScalar(injector_options.recover_rate, out);
  AppendScalar(injector_options.control_loss_rate, out);
  AppendScalar(injector_options.data_loss_rate, out);
  AppendScalar(static_cast<int32_t>(injector_options.max_retries), out);
  AppendScalar(static_cast<int32_t>(injector_options.min_live), out);
  AppendScalar(static_cast<uint32_t>(schedule.size()), out);
  for (const FaultEvent& event : schedule) {
    AppendScalar(static_cast<uint64_t>(event.before_event), out);
    AppendScalar(static_cast<int32_t>(event.processor), out);
    AppendScalar(static_cast<uint8_t>(event.crash ? 1 : 0), out);
  }
  AppendScalar(injector_cursor, out);
  AppendScalar(live_mask, out);
  AppendScalar(static_cast<uint32_t>(crash_log.size()), out);
  for (const CrashRecord& record : crash_log) {
    AppendScalar(static_cast<uint64_t>(record.index), out);
    AppendScalar(static_cast<int32_t>(record.processor), out);
  }
  AppendScalar(stats.crashes, out);
  AppendScalar(stats.recoveries, out);
  AppendScalar(stats.repairs, out);
  AppendScalar(stats.replicas_added, out);
  AppendScalar(stats.lost_control, out);
  AppendScalar(stats.lost_data, out);
  AppendScalar(stats.backoff_units, out);
  AppendScalar(stats.unavailable_requests, out);
  AppendScalar(stats.rejected_batches, out);
  AppendScalar(static_cast<uint32_t>(stats.repair_latency.size()), out);
  for (const double sample : stats.repair_latency) AppendScalar(sample, out);
}

util::StatusOr<ServiceStateImage> ServiceStateImage::Parse(
    std::string_view payload) {
  PayloadReader reader(payload);
  ServiceStateImage image;
  uint8_t enabled = 0;
  int32_t max_retries = 0, min_live = 0;
  uint32_t count = 0;
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&enabled));
  image.faults_enabled = enabled != 0;
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&image.injector_options.seed));
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&image.injector_options.crash_rate));
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&image.injector_options.recover_rate));
  OBJALLOC_RETURN_IF_ERROR(
      reader.Read(&image.injector_options.control_loss_rate));
  OBJALLOC_RETURN_IF_ERROR(
      reader.Read(&image.injector_options.data_loss_rate));
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&max_retries));
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&min_live));
  image.injector_options.max_retries = max_retries;
  image.injector_options.min_live = min_live;
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&count));
  constexpr size_t kScheduleEntryBytes = 8 + 4 + 1;
  if (reader.remaining() < static_cast<size_t>(count) * kScheduleEntryBytes) {
    return util::Status::Internal("service state: schedule truncated");
  }
  image.schedule.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t before_event = 0;
    int32_t processor = 0;
    uint8_t crash = 0;
    OBJALLOC_RETURN_IF_ERROR(reader.Read(&before_event));
    OBJALLOC_RETURN_IF_ERROR(reader.Read(&processor));
    OBJALLOC_RETURN_IF_ERROR(reader.Read(&crash));
    image.schedule.push_back(
        FaultEvent{static_cast<size_t>(before_event), processor, crash != 0});
  }
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&image.injector_cursor));
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&image.live_mask));
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&count));
  constexpr size_t kCrashRecordBytes = 8 + 4;
  if (reader.remaining() < static_cast<size_t>(count) * kCrashRecordBytes) {
    return util::Status::Internal("service state: crash log truncated");
  }
  image.crash_log.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t index = 0;
    int32_t processor = 0;
    OBJALLOC_RETURN_IF_ERROR(reader.Read(&index));
    OBJALLOC_RETURN_IF_ERROR(reader.Read(&processor));
    image.crash_log.push_back(
        CrashRecord{static_cast<size_t>(index), processor});
  }
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&image.stats.crashes));
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&image.stats.recoveries));
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&image.stats.repairs));
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&image.stats.replicas_added));
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&image.stats.lost_control));
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&image.stats.lost_data));
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&image.stats.backoff_units));
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&image.stats.unavailable_requests));
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&image.stats.rejected_batches));
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&count));
  if (reader.remaining() != static_cast<size_t>(count) * sizeof(double)) {
    return util::Status::Internal("service state: latency samples truncated");
  }
  image.stats.repair_latency.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    double sample = 0;
    OBJALLOC_RETURN_IF_ERROR(reader.Read(&sample));
    image.stats.repair_latency.push_back(sample);
  }
  return image;
}

util::Status WriteManifest(const std::string& dir, const Manifest& manifest) {
  std::string payload;
  AppendScalar(kManifestMagic, &payload);
  AppendScalar(kDurabilityFormatVersion, &payload);
  AppendScalar(manifest.sequence, &payload);
  manifest.config.AppendTo(&payload);
  // Trailing so pre-delta manifests (which end at the config) still parse.
  AppendScalar(
      manifest.base_sequence == 0 ? manifest.sequence : manifest.base_sequence,
      &payload);
  std::string framed;
  AppendRecord(static_cast<uint8_t>(CheckpointRecordType::kManifest), payload,
               &framed);
  return util::WriteFileAtomic(dir + "/" + kManifestFileName, framed);
}

util::StatusOr<Manifest> ReadManifest(const std::string& dir) {
  auto buffer = util::ReadFileToString(dir + "/" + kManifestFileName);
  if (!buffer.ok()) return buffer.status();
  RecordCursor cursor(*buffer);
  RecordView record;
  if (!cursor.Next(&record)) {
    if (!cursor.status().ok()) return cursor.status();
    return util::Status::Internal("manifest: empty or truncated");
  }
  if (record.type != static_cast<uint8_t>(CheckpointRecordType::kManifest)) {
    return util::Status::Internal("manifest: unexpected record type");
  }
  PayloadReader reader(record.payload);
  uint32_t magic = 0, version = 0;
  Manifest manifest;
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&magic));
  if (magic != kManifestMagic) {
    return util::Status::Internal("manifest: bad magic");
  }
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&version));
  if (version != kDurabilityFormatVersion) {
    return util::Status::Internal("manifest: unsupported format version " +
                                  std::to_string(version));
  }
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&manifest.sequence));
  auto config = DurableConfig::Parse(&reader);
  if (!config.ok()) return config.status();
  manifest.config = *config;
  if (manifest.sequence == 0) {
    return util::Status::Internal("manifest: zero sequence");
  }
  if (reader.exhausted()) {
    manifest.base_sequence = manifest.sequence;  // pre-delta manifest
  } else {
    OBJALLOC_RETURN_IF_ERROR(reader.Read(&manifest.base_sequence));
    if (manifest.base_sequence == 0 ||
        manifest.base_sequence > manifest.sequence) {
      return util::Status::Internal("manifest: bad base sequence");
    }
  }
  return manifest;
}

namespace {

// Building blocks of a checkpoint byte stream: header record,
// service-state record, shard payload records, footer with the shard count
// (so truncation at a record boundary is still detected). CheckpointWriter
// streams them to disk.

void BeginCheckpoint(uint64_t sequence, const DurableConfig& config,
                     std::string* out) {
  std::string payload;
  AppendScalar(kCheckpointMagic, &payload);
  AppendScalar(kDurabilityFormatVersion, &payload);
  AppendScalar(sequence, &payload);
  config.AppendTo(&payload);
  AppendRecord(static_cast<uint8_t>(CheckpointRecordType::kCkptHeader),
               payload, out);
}

// Header of a delta snapshot: same shape plus the parent generation the
// delta applies on top of (sequence - 1; the chain bottoms out at the full
// snapshot the manifest names as base_sequence).
void BeginDeltaCheckpoint(uint64_t sequence, uint64_t parent,
                          const DurableConfig& config, std::string* out) {
  std::string payload;
  AppendScalar(kCheckpointMagic, &payload);
  AppendScalar(kDurabilityFormatVersion, &payload);
  AppendScalar(sequence, &payload);
  AppendScalar(parent, &payload);
  config.AppendTo(&payload);
  AppendRecord(static_cast<uint8_t>(CheckpointRecordType::kDeltaHeader),
               payload, out);
}

void AppendServiceStateRecord(const ServiceStateImage& image,
                              std::string* out) {
  std::string payload;
  image.AppendTo(&payload);
  AppendRecord(static_cast<uint8_t>(CheckpointRecordType::kServiceState),
               payload, out);
}

void AppendShardChunkRecord(uint32_t shard_index, bool last,
                            std::string_view bytes, std::string* out) {
  std::string payload;
  payload.reserve(8 + bytes.size());
  AppendScalar(shard_index, &payload);
  AppendScalar<uint32_t>(last ? 1 : 0, &payload);
  payload.append(bytes.data(), bytes.size());
  AppendRecord(static_cast<uint8_t>(CheckpointRecordType::kShardChunk),
               payload, out);
}

void FinishCheckpoint(uint32_t shard_count, std::string* out) {
  std::string payload;
  AppendScalar(shard_count, &payload);
  AppendRecord(static_cast<uint8_t>(CheckpointRecordType::kCkptFooter),
               payload, out);
}

}  // namespace

util::StatusOr<CheckpointWriter> CheckpointWriter::Open(
    const std::string& path, uint64_t sequence, const DurableConfig& config) {
  auto file = util::AtomicFileWriter::Open(path);
  if (!file.ok()) return file.status();
  CheckpointWriter writer;
  writer.file_ = std::move(*file);
  writer.record_.clear();
  BeginCheckpoint(sequence, config, &writer.record_);
  OBJALLOC_RETURN_IF_ERROR(writer.file_.Append(writer.record_));
  return writer;
}

util::StatusOr<CheckpointWriter> CheckpointWriter::OpenDelta(
    const std::string& path, uint64_t sequence, uint64_t parent,
    const DurableConfig& config) {
  auto file = util::AtomicFileWriter::Open(path);
  if (!file.ok()) return file.status();
  CheckpointWriter writer;
  writer.file_ = std::move(*file);
  writer.record_.clear();
  BeginDeltaCheckpoint(sequence, parent, config, &writer.record_);
  OBJALLOC_RETURN_IF_ERROR(writer.file_.Append(writer.record_));
  return writer;
}

util::Status CheckpointWriter::AppendServiceState(
    const ServiceStateImage& image) {
  record_.clear();
  AppendServiceStateRecord(image, &record_);
  return file_.Append(record_);
}

void CheckpointWriter::BeginShard(uint32_t shard_index) {
  OBJALLOC_CHECK(!shard_open_) << "BeginShard while a shard is open";
  shard_index_ = shard_index;
  shard_open_ = true;
  chunk_.clear();
}

util::Status CheckpointWriter::AppendShardBytes(std::string_view bytes) {
  OBJALLOC_CHECK(shard_open_) << "AppendShardBytes outside BeginShard";
  chunk_.append(bytes.data(), bytes.size());
  if (chunk_.size() >= kChunkBytes) return FlushChunk(/*last=*/false);
  return util::Status::Ok();
}

util::Status CheckpointWriter::EndShard() {
  OBJALLOC_CHECK(shard_open_) << "EndShard without BeginShard";
  // Always emitted, even with zero pending bytes: the last flag is what
  // tells the reader (and the restoring shard) the payload is complete.
  util::Status status = FlushChunk(/*last=*/true);
  shard_open_ = false;
  return status;
}

util::Status CheckpointWriter::FlushChunk(bool last) {
  record_.clear();
  AppendShardChunkRecord(shard_index_, last, chunk_, &record_);
  chunk_.clear();
  return file_.Append(record_);
}

util::Status CheckpointWriter::Finish(uint32_t shard_count) {
  OBJALLOC_CHECK(!shard_open_) << "Finish with an open shard";
  record_.clear();
  FinishCheckpoint(shard_count, &record_);
  OBJALLOC_RETURN_IF_ERROR(file_.Append(record_));
  return file_.Commit();
}

namespace {

// Upper bound a single checkpoint record may declare before the CRC check
// runs (mirrors record_io's cap). Legitimate records stay far below it:
// the writer flushes a shard chunk as soon as it passes
// CheckpointWriter::kChunkBytes.
constexpr uint32_t kMaxCheckpointPayload = 1u << 30;

}  // namespace

util::StatusOr<CheckpointReader> CheckpointReader::Open(
    const std::string& path) {
  auto file = util::FileReader::Open(path);
  if (!file.ok()) return file.status();
  CheckpointReader reader;
  reader.file_ = std::move(*file);
  uint8_t type = 0;
  bool eof = false;
  OBJALLOC_RETURN_IF_ERROR(reader.ReadRecord(&type, &eof));
  if (eof ||
      (type != static_cast<uint8_t>(CheckpointRecordType::kCkptHeader) &&
       type != static_cast<uint8_t>(CheckpointRecordType::kDeltaHeader))) {
    return util::Status::Internal("checkpoint: missing header record");
  }
  reader.is_delta_ =
      type == static_cast<uint8_t>(CheckpointRecordType::kDeltaHeader);
  PayloadReader payload(reader.payload_);
  uint32_t magic = 0;
  OBJALLOC_RETURN_IF_ERROR(payload.Read(&magic));
  if (magic != kCheckpointMagic) {
    return util::Status::Internal("checkpoint: bad magic");
  }
  uint32_t version = 0;
  OBJALLOC_RETURN_IF_ERROR(payload.Read(&version));
  if (version != kDurabilityFormatVersion) {
    return util::Status::Internal("checkpoint: unsupported format version " +
                                  std::to_string(version));
  }
  OBJALLOC_RETURN_IF_ERROR(payload.Read(&reader.sequence_));
  if (reader.is_delta_) {
    OBJALLOC_RETURN_IF_ERROR(payload.Read(&reader.parent_));
    if (reader.parent_ == 0 || reader.parent_ >= reader.sequence_) {
      return util::Status::Internal(
          "checkpoint: delta names an impossible parent generation");
    }
  }
  auto config = DurableConfig::Parse(&payload);
  if (!config.ok()) return config.status();
  reader.config_ = *config;
  return reader;
}

util::Status CheckpointReader::ReadRecord(uint8_t* type, bool* eof) {
  char header[util::kRecordHeaderSize];
  OBJALLOC_RETURN_IF_ERROR(
      file_.ReadExact(header, util::kRecordHeaderSize, eof));
  if (*eof) return util::Status::Ok();
  uint32_t length = 0, crc = 0;
  std::memcpy(&length, header, 4);
  std::memcpy(&crc, header + 8, 4);
  if (length > kMaxCheckpointPayload) {
    return util::Status::Internal(
        "checkpoint: record declares absurd length " + std::to_string(length));
  }
  payload_.resize(length);
  // A short payload here is corruption, not a torn tail: checkpoints are
  // published by atomic rename, whole or not at all.
  bool torn = false;
  OBJALLOC_RETURN_IF_ERROR(file_.ReadExact(payload_.data(), length, &torn));
  if (torn && length > 0) {
    return util::Status::Internal("checkpoint: truncated record payload");
  }
  uint32_t actual = util::Crc32(header, 8);
  actual = util::Crc32(payload_.data(), payload_.size(), actual);
  if (actual != crc) {
    return util::Status::Internal("checkpoint: record failed its CRC check");
  }
  *type = header[4] & 0xFF;
  return util::Status::Ok();
}

util::Status CheckpointReader::Next(Piece* piece) {
  *piece = Piece();
  uint8_t type = 0;
  bool eof = false;
  OBJALLOC_RETURN_IF_ERROR(ReadRecord(&type, &eof));
  if (eof) {
    return util::Status::Internal("checkpoint: missing footer record");
  }
  if (!saw_state_) {
    if (type != static_cast<uint8_t>(CheckpointRecordType::kServiceState)) {
      return util::Status::Internal(
          "checkpoint: missing service state record");
    }
    auto state = ServiceStateImage::Parse(payload_);
    if (!state.ok()) return state.status();
    saw_state_ = true;
    piece->service_state = true;
    piece->state = std::move(*state);
    return util::Status::Ok();
  }
  if (type == static_cast<uint8_t>(CheckpointRecordType::kShardChunk)) {
    if (payload_.size() < 8) {
      return util::Status::Internal("checkpoint: short shard chunk record");
    }
    uint32_t shard = 0, flags = 0;
    std::memcpy(&shard, payload_.data(), 4);
    std::memcpy(&flags, payload_.data() + 4, 4);
    const uint32_t expected = shard_open_ ? next_shard_ - 1 : next_shard_;
    if (shard != expected) {
      return util::Status::Internal(
          "checkpoint: shard chunk out of order (names shard " +
          std::to_string(shard) + ", expected " + std::to_string(expected) +
          ")");
    }
    if (!shard_open_) {
      shard_open_ = true;
      ++next_shard_;
    }
    piece->shard = shard;
    piece->last = (flags & 1) != 0;
    piece->bytes = std::string_view(payload_).substr(8);
    if (piece->last) shard_open_ = false;
    return util::Status::Ok();
  }
  if (type == static_cast<uint8_t>(CheckpointRecordType::kCkptFooter)) {
    if (shard_open_) {
      return util::Status::Internal(
          "checkpoint: footer inside a chunked shard");
    }
    PayloadReader payload(payload_);
    uint32_t footer_count = 0;
    OBJALLOC_RETURN_IF_ERROR(payload.Read(&footer_count));
    if (footer_count != next_shard_) {
      return util::Status::Internal(
          "checkpoint: footer shard count mismatch (footer says " +
          std::to_string(footer_count) + ", found " +
          std::to_string(next_shard_) + ")");
    }
    if (next_shard_ != static_cast<uint32_t>(config_.num_shards)) {
      return util::Status::Internal(
          "checkpoint: shard record count does not match the config");
    }
    // Nothing may follow the footer.
    uint8_t trailing = 0;
    bool at_end = false;
    OBJALLOC_RETURN_IF_ERROR(ReadRecord(&trailing, &at_end));
    if (!at_end) {
      return util::Status::Internal("checkpoint: record after the footer");
    }
    piece->done = true;
    return util::Status::Ok();
  }
  return util::Status::Internal("checkpoint: unexpected record type " +
                                std::to_string(int{type}));
}

namespace {

util::StatusOr<std::vector<uint64_t>> ListSequencesWithSuffix(
    const std::string& dir, std::string_view suffix) {
  auto names = util::ListDir(dir);
  if (!names.ok()) return names.status();
  constexpr std::string_view kPrefix = "checkpoint-";
  std::vector<uint64_t> sequences;
  for (const std::string& name : *names) {
    if (name.size() <= kPrefix.size() + suffix.size()) continue;
    if (name.compare(0, kPrefix.size(), kPrefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(),
                     suffix.data(), suffix.size()) != 0) {
      continue;
    }
    const std::string digits = name.substr(
        kPrefix.size(), name.size() - kPrefix.size() - suffix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    char* end = nullptr;
    const uint64_t sequence = std::strtoull(digits.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || sequence == 0) continue;
    sequences.push_back(sequence);
  }
  std::sort(sequences.begin(), sequences.end());
  return sequences;
}

}  // namespace

util::StatusOr<std::vector<uint64_t>> ListCheckpointSequences(
    const std::string& dir) {
  return ListSequencesWithSuffix(dir, ".ckpt");
}

util::StatusOr<std::vector<uint64_t>> ListDeltaCheckpointSequences(
    const std::string& dir) {
  return ListSequencesWithSuffix(dir, ".delta");
}

}  // namespace objalloc::core
