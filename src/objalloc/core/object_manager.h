// ObjectManager — the single-threaded multi-object router. The paper
// analyzes the allocation of a single object (§3.1); a database holds many,
// each with its own access pattern, allocation scheme, and (possibly) its
// own DOM algorithm. The manager routes an interleaved request stream to
// per-object algorithm instances and aggregates the cost accounting.
//
// Since the service-layer refactor this is a thin wrapper over one
// ObjectShard — the same state machine the sharded, batched ObjectService
// replicates. Use ObjectService for throughput; ObjectManager remains the
// simple serial reference (and the yardstick the service layer's
// determinism tests compare against).

#ifndef OBJALLOC_CORE_OBJECT_MANAGER_H_
#define OBJALLOC_CORE_OBJECT_MANAGER_H_

#include <vector>

#include "objalloc/core/object_shard.h"

namespace objalloc::core {

class ObjectManager {
 public:
  using ObjectStats = core::ObjectStats;

  ObjectManager(int num_processors, const model::CostModel& cost_model)
      : shard_(num_processors, cost_model) {}

  // Registers an object. Fails on duplicate ids, empty or out-of-range
  // schemes, algorithms other than SA and DA, and algorithm/threshold
  // mismatches (DA needs t >= 2).
  util::Status AddObject(ObjectId id, const ObjectConfig& config) {
    return shard_.AddObject(id, config).status();
  }

  // Pre-sizes the directory and state vector for a bulk registration.
  void ReserveObjects(size_t expected_total) {
    shard_.Reserve(expected_total);
  }

  bool HasObject(ObjectId id) const { return shard_.HasObject(id); }
  size_t object_count() const { return shard_.object_count(); }

  // Serves one request against one object, returning the request's cost.
  util::StatusOr<double> Serve(ObjectId id, const Request& request) {
    return shard_.Serve(id, request);
  }

  util::StatusOr<ObjectStats> StatsFor(ObjectId id) const {
    return shard_.StatsFor(id);
  }

  // Aggregates are maintained incrementally by the shard; both are O(1).
  const model::CostBreakdown& TotalBreakdown() const {
    return shard_.TotalBreakdown();
  }
  double TotalCost() const { return shard_.TotalCost(); }
  int64_t TotalRequests() const { return shard_.TotalRequests(); }

 private:
  ObjectShard shard_;
};

}  // namespace objalloc::core

#endif  // OBJALLOC_CORE_OBJECT_MANAGER_H_
