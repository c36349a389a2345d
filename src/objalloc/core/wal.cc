#include "objalloc/core/wal.h"

#include <cstring>

#include "objalloc/util/record_io.h"

namespace objalloc::core {

using util::AppendScalar;
using util::PayloadReader;

void DurableConfig::AppendTo(std::string* out) const {
  AppendScalar(num_processors, out);
  AppendScalar(num_shards, out);
  AppendScalar(cost_model.io, out);
  AppendScalar(cost_model.control, out);
  AppendScalar(cost_model.data, out);
}

util::StatusOr<DurableConfig> DurableConfig::Parse(PayloadReader* reader) {
  DurableConfig config;
  OBJALLOC_RETURN_IF_ERROR(reader->Read(&config.num_processors));
  OBJALLOC_RETURN_IF_ERROR(reader->Read(&config.num_shards));
  OBJALLOC_RETURN_IF_ERROR(reader->Read(&config.cost_model.io));
  OBJALLOC_RETURN_IF_ERROR(reader->Read(&config.cost_model.control));
  OBJALLOC_RETURN_IF_ERROR(reader->Read(&config.cost_model.data));
  if (config.num_processors < 1 ||
      config.num_processors > util::kMaxProcessors) {
    return util::Status::Internal("durable config: bad processor count");
  }
  if (config.num_shards < 1 || config.num_shards > 65536) {
    return util::Status::Internal("durable config: bad shard count");
  }
  OBJALLOC_RETURN_IF_ERROR(config.cost_model.Validate());
  return config;
}

util::Status DurableConfig::CheckMatches(const DurableConfig& other) const {
  if (num_processors != other.num_processors ||
      num_shards != other.num_shards ||
      !(cost_model == other.cost_model)) {
    return util::Status::Internal(
        "durable state written under a different service configuration "
        "(processors/shards/cost model mismatch)");
  }
  return util::Status::Ok();
}

void EncodeWalHeader(uint64_t sequence, const DurableConfig& config,
                     std::string* out) {
  AppendScalar(kWalMagic, out);
  AppendScalar(kDurabilityFormatVersion, out);
  AppendScalar(sequence, out);
  config.AppendTo(out);
}

util::StatusOr<WalHeader> DecodeWalHeader(std::string_view payload) {
  PayloadReader reader(payload);
  uint32_t magic = 0, version = 0;
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&magic));
  if (magic != kWalMagic) {
    return util::Status::Internal("not a WAL file (bad magic)");
  }
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&version));
  if (version != kDurabilityFormatVersion) {
    return util::Status::Internal("unsupported WAL format version " +
                                  std::to_string(version));
  }
  WalHeader header;
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&header.sequence));
  auto config = DurableConfig::Parse(&reader);
  if (!config.ok()) return config.status();
  header.config = *config;
  return header;
}

void EncodeAddObject(ObjectId id, const ObjectConfig& config,
                     std::string* out) {
  AppendScalar(id, out);
  AppendScalar(config.initial_scheme.mask(), out);
  AppendScalar(static_cast<uint8_t>(config.algorithm), out);
}

util::StatusOr<AddObjectRecord> DecodeAddObject(std::string_view payload) {
  PayloadReader reader(payload);
  AddObjectRecord record;
  uint64_t mask = 0;
  uint8_t kind = 0;
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&record.id));
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&mask));
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&kind));
  record.config.initial_scheme = ProcessorSet(mask);
  record.config.algorithm = static_cast<AlgorithmKind>(kind);
  return record;
}

void EncodeBatch(std::span<const workload::MultiObjectEvent> events,
                 std::string* out) {
  // This is on the serve path for every durable batch: one resize, then raw
  // stores, instead of per-field string appends.
  constexpr size_t kEventBytes = 8 + 1 + 4;
  const size_t base = out->size();
  out->resize(base + sizeof(uint32_t) + events.size() * kEventBytes);
  char* p = out->data() + base;
  const uint32_t count = static_cast<uint32_t>(events.size());
  std::memcpy(p, &count, sizeof(count));
  p += sizeof(count);
  for (const workload::MultiObjectEvent& event : events) {
    const int64_t object = event.object;
    const uint8_t write = event.request.is_write() ? 1 : 0;
    const int32_t processor = static_cast<int32_t>(event.request.processor);
    std::memcpy(p, &object, sizeof(object));
    p[8] = static_cast<char>(write);
    std::memcpy(p + 9, &processor, sizeof(processor));
    p += kEventBytes;
  }
}

util::Status DecodeBatch(std::string_view payload,
                         std::vector<workload::MultiObjectEvent>* out) {
  PayloadReader reader(payload);
  uint32_t count = 0;
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&count));
  constexpr size_t kEventBytes = 8 + 1 + 4;
  if (reader.remaining() != static_cast<size_t>(count) * kEventBytes) {
    return util::Status::Internal("batch record size mismatch");
  }
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    workload::MultiObjectEvent event;
    uint8_t write = 0;
    int32_t processor = 0;
    OBJALLOC_RETURN_IF_ERROR(reader.Read(&event.object));
    OBJALLOC_RETURN_IF_ERROR(reader.Read(&write));
    OBJALLOC_RETURN_IF_ERROR(reader.Read(&processor));
    event.request = write != 0 ? model::Request::Write(processor)
                               : model::Request::Read(processor);
    out->push_back(event);
  }
  return util::Status::Ok();
}

void EncodeEnableFaults(const FaultInjectorOptions& options,
                        const FaultSchedule& schedule, std::string* out) {
  AppendScalar(options.seed, out);
  AppendScalar(options.crash_rate, out);
  AppendScalar(options.recover_rate, out);
  AppendScalar(options.control_loss_rate, out);
  AppendScalar(options.data_loss_rate, out);
  AppendScalar(static_cast<int32_t>(options.max_retries), out);
  AppendScalar(static_cast<int32_t>(options.min_live), out);
  AppendScalar(static_cast<uint32_t>(schedule.size()), out);
  for (const FaultEvent& event : schedule) {
    AppendScalar(static_cast<uint64_t>(event.before_event), out);
    AppendScalar(static_cast<int32_t>(event.processor), out);
    AppendScalar(static_cast<uint8_t>(event.crash ? 1 : 0), out);
  }
}

util::StatusOr<EnableFaultsRecord> DecodeEnableFaults(
    std::string_view payload) {
  PayloadReader reader(payload);
  EnableFaultsRecord record;
  int32_t max_retries = 0, min_live = 0;
  uint32_t count = 0;
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&record.options.seed));
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&record.options.crash_rate));
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&record.options.recover_rate));
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&record.options.control_loss_rate));
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&record.options.data_loss_rate));
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&max_retries));
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&min_live));
  record.options.max_retries = max_retries;
  record.options.min_live = min_live;
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&count));
  constexpr size_t kEntryBytes = 8 + 4 + 1;
  if (reader.remaining() != static_cast<size_t>(count) * kEntryBytes) {
    return util::Status::Internal("fault schedule record size mismatch");
  }
  record.schedule.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t before_event = 0;
    int32_t processor = 0;
    uint8_t crash = 0;
    OBJALLOC_RETURN_IF_ERROR(reader.Read(&before_event));
    OBJALLOC_RETURN_IF_ERROR(reader.Read(&processor));
    OBJALLOC_RETURN_IF_ERROR(reader.Read(&crash));
    record.schedule.push_back(
        FaultEvent{static_cast<size_t>(before_event), processor, crash != 0});
  }
  return record;
}

void EncodeProcessor(util::ProcessorId processor, std::string* out) {
  AppendScalar(static_cast<int32_t>(processor), out);
}

util::StatusOr<util::ProcessorId> DecodeProcessor(std::string_view payload) {
  PayloadReader reader(payload);
  int32_t processor = 0;
  OBJALLOC_RETURN_IF_ERROR(reader.Read(&processor));
  return static_cast<util::ProcessorId>(processor);
}

util::StatusOr<WalWriter> WalWriter::Create(const std::string& path,
                                            uint64_t sequence,
                                            const DurableConfig& config) {
  // Truncate any stale file of the same name (e.g. a generation left behind
  // by a crash between checkpoint and manifest publication).
  auto file = util::AppendFile::Open(path, /*truncate_to=*/0);
  if (!file.ok()) return file.status();
  WalWriter writer;
  writer.file_ = std::move(*file);
  writer.payload_.clear();
  EncodeWalHeader(sequence, config, &writer.payload_);
  OBJALLOC_RETURN_IF_ERROR(writer.Append(WalRecordType::kWalHeader,
                                         writer.payload_));
  OBJALLOC_RETURN_IF_ERROR(writer.Sync());
  return writer;
}

util::StatusOr<WalWriter> WalWriter::Reopen(const std::string& path,
                                            uint64_t truncate_to) {
  auto file = util::AppendFile::Open(path, truncate_to);
  if (!file.ok()) return file.status();
  WalWriter writer;
  writer.file_ = std::move(*file);
  return writer;
}

util::Status WalWriter::Append(WalRecordType type, std::string_view payload) {
  scratch_.clear();
  util::AppendRecord(static_cast<uint8_t>(type), payload, &scratch_);
  return file_.Append(scratch_);
}

util::Status WalWriter::AppendBatch(
    std::span<const workload::MultiObjectEvent> events) {
  payload_.clear();
  EncodeBatch(events, &payload_);
  return Append(WalRecordType::kBatch, payload_);
}

std::string WalFileName(uint64_t sequence) {
  return "wal-" + std::to_string(sequence) + ".log";
}

}  // namespace objalloc::core
