// Write-ahead log for the ObjectService (DESIGN.md §10).
//
// The serving engine is a deterministic state machine: given the same
// registration order and the same admission-order event stream (plus the
// fault layer's seeded draws, themselves pure functions of the admission
// index), every run reproduces bit-identical schemes and cost breakdowns
// (§7-§9). Durability therefore reduces to logging the *inputs* — one
// record per state-changing operation, appended before the operation
// mutates shard state — and replaying them through the very same
// SubmitBatch core on recovery. No per-object redo records, no physical
// pages: the log is the admission stream.
//
// Record kinds (framed by util/record_io — length-prefixed, CRC32-checked):
//   kWalHeader      magic + format version + generation + service config
//   kAddObject      one object registration
//   kBatch          one admitted batch (object id, r/w kind, processor per
//                   event) — logged for every batch that passed validation,
//                   including fault-mode batches later rejected UNAVAILABLE
//                   (they consumed a fault-time window that replay must
//                   consume too)
//   kEnableFaults   fault-injector options + scripted schedule
//   kDisableFaults  (empty payload)
//   kCrash/kRecover manual liveness control
//   kRepairDegraded eager repair sweep
//
// Torn tails: a crash mid-append leaves a final partial record; the reader
// reports the valid prefix so recovery truncates exactly there and replays
// a consistent prefix of history. A CRC failure *inside* the prefix is
// corruption, reported as an error (recovery falls back to the previous
// checkpoint generation).

#ifndef OBJALLOC_CORE_WAL_H_
#define OBJALLOC_CORE_WAL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "objalloc/core/fault_injector.h"
#include "objalloc/core/object_shard.h"
#include "objalloc/model/cost_model.h"
#include "objalloc/util/io.h"
#include "objalloc/util/record_io.h"
#include "objalloc/util/status.h"
#include "objalloc/workload/multi_object.h"

namespace objalloc::core {

// On-disk record types (values are persisted; append only, never renumber).
enum class WalRecordType : uint8_t {
  kWalHeader = 1,
  kAddObject = 2,
  kBatch = 3,
  kEnableFaults = 4,
  kDisableFaults = 5,
  kCrash = 6,
  kRecover = 7,
  kRepairDegraded = 8,
};

inline constexpr uint32_t kWalMagic = 0x4c57414f;  // "OAWL"
// Stamped into every WAL header, checkpoint header and manifest; readers
// accept this version only.
inline constexpr uint32_t kDurabilityFormatVersion = 2;

// The immutable service configuration a log (or checkpoint) was written
// under. Recovery refuses to replay against a mismatched world: shard
// count changes the partitioning, processor count and cost model change
// every decision.
struct DurableConfig {
  int32_t num_processors = 0;
  int32_t num_shards = 0;
  model::CostModel cost_model;

  void AppendTo(std::string* out) const;
  static util::StatusOr<DurableConfig> Parse(util::PayloadReader* reader);
  util::Status CheckMatches(const DurableConfig& other) const;
};

// --- Record payload codecs ---------------------------------------------
// Each Encode* appends the *payload* for its record type to `*out` (the
// caller frames it via util::AppendRecord); each Decode* parses one.

void EncodeWalHeader(uint64_t sequence, const DurableConfig& config,
                     std::string* out);
struct WalHeader {
  uint64_t sequence = 0;
  DurableConfig config;
};
util::StatusOr<WalHeader> DecodeWalHeader(std::string_view payload);

void EncodeAddObject(ObjectId id, const ObjectConfig& config,
                     std::string* out);
struct AddObjectRecord {
  ObjectId id = -1;
  ObjectConfig config;
};
util::StatusOr<AddObjectRecord> DecodeAddObject(std::string_view payload);

// A batch is stored id-addressed regardless of which entry point admitted
// it: the handle path resolves to the same (object, request) stream, and
// the two entry points are bit-identical by the engine's own contract.
void EncodeBatch(std::span<const workload::MultiObjectEvent> events,
                 std::string* out);
util::Status DecodeBatch(std::string_view payload,
                         std::vector<workload::MultiObjectEvent>* out);

void EncodeEnableFaults(const FaultInjectorOptions& options,
                        const FaultSchedule& schedule, std::string* out);
struct EnableFaultsRecord {
  FaultInjectorOptions options;
  FaultSchedule schedule;
};
util::StatusOr<EnableFaultsRecord> DecodeEnableFaults(
    std::string_view payload);

void EncodeProcessor(util::ProcessorId processor, std::string* out);
util::StatusOr<util::ProcessorId> DecodeProcessor(std::string_view payload);

// --- Writer ------------------------------------------------------------

// Appends framed records to one WAL generation file. Thin stateful wrapper
// over util::AppendFile: owns the encode scratch so steady-state batch
// logging reuses one buffer, tracks the record count, and exposes Sync for
// the service's durability policy (every batch, or only at checkpoints).
class WalWriter {
 public:
  // Creates (or truncates-and-reopens, when `truncate_to` is given) the
  // generation file. A freshly created file gets the header record
  // immediately; a reopened one is assumed to already carry it.
  static util::StatusOr<WalWriter> Create(const std::string& path,
                                          uint64_t sequence,
                                          const DurableConfig& config);
  static util::StatusOr<WalWriter> Reopen(const std::string& path,
                                          uint64_t truncate_to);

  WalWriter() = default;
  WalWriter(WalWriter&&) = default;
  WalWriter& operator=(WalWriter&&) = default;

  // Appends one framed record (payload built by an Encode* helper).
  util::Status Append(WalRecordType type, std::string_view payload);

  // Convenience: encodes and appends one admitted batch.
  util::Status AppendBatch(std::span<const workload::MultiObjectEvent> events);

  // Writes bytes that are *already* framed records (the async writer seals
  // whole buffers of them); the caller owns the framing invariant.
  util::Status WriteFramed(std::string_view bytes) {
    return file_.Append(bytes);
  }

  util::Status Sync(util::SyncMode mode = util::SyncMode::kFsync) {
    return file_.Sync(mode);
  }
  // Rolls the file back to `size` bytes (a group boundary recorded before a
  // failed — possibly partial — WriteFramed) so a retry rewrites the group
  // instead of appending after mid-file garbage.
  util::Status TruncateTo(uint64_t size) { return file_.TruncateTo(size); }
  uint64_t offset() const { return file_.offset(); }
  const std::string& path() const { return file_.path(); }
  bool is_open() const { return file_.is_open(); }
  void Close() { file_.Close(); }

 private:
  util::AppendFile file_;
  std::string scratch_;   // framed-record build buffer, recycled
  std::string payload_;   // payload build buffer, recycled
};

// Name of generation `sequence`'s WAL file inside a durability directory.
std::string WalFileName(uint64_t sequence);

}  // namespace objalloc::core

#endif  // OBJALLOC_CORE_WAL_H_
