// ObjectService's side of recovery (DESIGN.md §13): DurableLog::Recover
// walks the on-disk layout into a WalReplay.

#include <optional>
#include <utility>
#include <vector>

#include "objalloc/core/batch_pipeline.h"
#include "objalloc/core/object_service.h"

namespace objalloc::core {
namespace {

// The service under reconstruction and the replay of its logged records
// through the public ObjectService API — the entry points the original run
// used. Logged batches replay through a BatchPipeline: batch n+1 is decoded
// and admitted while batch n is still on the shard workers. To amortize
// per-batch admission over the original run's (often small) batch sizes,
// consecutive logged batches coalesce into super-batches of up to
// `replay_batch_events` events (0 = one submit per logged batch) — legal
// because batch boundaries are invisible to the engine outside fault mode
// (per-object order is all that matters, and concatenation preserves it).
// Coalescing stops while faults are enabled: there, a batch is the
// admission/rejection unit. Non-batch records flush the coalesce buffer
// first and fence the pipeline inside the service, which keeps replay
// order exactly the admission order of the original run. The serve outcome
// is re-derived state — results are write-only.
class WalReplay final : public RecoveryTarget {
 public:
  explicit WalReplay(size_t replay_batch_events)
      : replay_batch_events_(replay_batch_events) {}

  util::Status Apply(WalRecordType type, std::string_view payload,
                     RecoveryReport* report) override {
    // Any non-batch record is an ordering point against the events logged
    // before it: e.g. a replayed EnableFaults applies after exactly the
    // events it followed on the original run.
    if (type != WalRecordType::kBatch) {
      OBJALLOC_RETURN_IF_ERROR(SubmitPending());
    }
    util::Status applied = util::Status::Ok();
    switch (type) {
      case WalRecordType::kAddObject: {
        auto decoded = DecodeAddObject(payload);
        if (!decoded.ok()) return decoded.status();
        applied = service_->AddObject(decoded->id, decoded->config);
        break;
      }
      case WalRecordType::kBatch: {
        OBJALLOC_RETURN_IF_ERROR(DecodeBatch(payload, &batch_));
        report->batches_replayed += 1;
        report->events_replayed += batch_.size();
        if (service_->faults_enabled() || replay_batch_events_ == 0) {
          OBJALLOC_RETURN_IF_ERROR(SubmitPending());
          return Submit(batch_);
        }
        // SubmitBatch copies the events, so `batch_` and `pending_` are
        // free to take the next record at once.
        pending_.insert(pending_.end(), batch_.begin(), batch_.end());
        return pending_.size() >= replay_batch_events_ ? SubmitPending()
                                                       : util::Status::Ok();
      }
      case WalRecordType::kEnableFaults: {
        auto decoded = DecodeEnableFaults(payload);
        if (!decoded.ok()) return decoded.status();
        applied = service_->EnableFaults(decoded->options,
                                         std::move(decoded->schedule));
        break;
      }
      case WalRecordType::kDisableFaults:
        service_->DisableFaults();
        break;
      case WalRecordType::kCrash:
      case WalRecordType::kRecover: {
        auto processor = DecodeProcessor(payload);
        if (!processor.ok()) return processor.status();
        applied = type == WalRecordType::kCrash
                      ? service_->Crash(*processor)
                      : service_->Recover(*processor);
        break;
      }
      case WalRecordType::kRepairDegraded:
        service_->RepairDegraded();
        break;
      default:
        return util::Status::Internal("unknown record type " +
                                      std::to_string(static_cast<int>(type)));
    }
    if (!applied.ok()) {
      return util::Status::Internal(
          "logged record type " + std::to_string(static_cast<int>(type)) +
          " failed on replay: " + applied.ToString());
    }
    return util::Status::Ok();
  }

  util::Status Flush() override {
    OBJALLOC_RETURN_IF_ERROR(SubmitPending());
    return pipeline_->Drain(kDiscard);
  }

  // A fresh service for `config`; the previous candidate's pipeline drains
  // into its own service first.
  util::StatusOr<DurableEngine*> Build(const DurableConfig& config) override {
    pipeline_.reset();
    pending_.clear();
    auto service =
        ObjectService::Create(config.num_processors, config.cost_model,
                              ServiceOptions{.num_shards = config.num_shards});
    if (!service.ok()) return service.status();
    service_.emplace(std::move(*service));
    pipeline_.emplace(&*service_);
    return &*service_;
  }

  ObjectService Take() {
    pipeline_.reset();
    return std::move(*service_);
  }

 private:
  static constexpr auto kDiscard = [](BatchPipeline<>::Slot&,
                                      const util::Status&) {};

  util::Status Submit(std::span<const workload::MultiObjectEvent> events) {
    util::Status status = pipeline_->Submit(events, kDiscard);
    // UNAVAILABLE is a *replayed rejection* — the original run logged the
    // batch because it consumed fault-time windows; the replay consumes
    // the same windows and rejects identically.
    if (!status.ok() && status.code() != util::StatusCode::kUnavailable) {
      return util::Status::Internal("logged batch failed on replay: " +
                                    status.ToString());
    }
    return util::Status::Ok();
  }

  util::Status SubmitPending() {
    if (pending_.empty()) return util::Status::Ok();
    util::Status status = Submit(pending_);
    pending_.clear();
    return status;
  }

  size_t replay_batch_events_;
  std::vector<workload::MultiObjectEvent> batch_;    // decode scratch
  std::vector<workload::MultiObjectEvent> pending_;  // coalesce buffer
  std::optional<ObjectService> service_;
  std::optional<BatchPipeline<>> pipeline_;  // after service_: dies first
};

}  // namespace

util::StatusOr<ObjectService> ObjectService::Recover(
    const std::string& dir, const DurabilityOptions& options,
    RecoveryReport* report) {
  WalReplay replay(options.replay_batch_events);
  OBJALLOC_RETURN_IF_ERROR(
      DurableLog::Recover(dir, options, /*read_only=*/false, &replay, report));
  return replay.Take();
}

util::Status ObjectService::VerifyDurableDir(const std::string& dir,
                                             RecoveryReport* report) {
  const DurabilityOptions options;
  WalReplay replay(options.replay_batch_events);
  return DurableLog::Recover(dir, options, /*read_only=*/true, &replay,
                             report);
}

}  // namespace objalloc::core
