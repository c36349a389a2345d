// Distributed Object Management (DOM) algorithms (§3.4).
//
// A DOM algorithm maps each request of a schedule to an execution set (and,
// for reads, a saving decision), producing a legal allocation schedule. An
// *online* DOM algorithm makes each decision from the prefix alone — it never
// sees future requests. This header defines the online-step interface; the
// offline yardstick (OPT) lives in objalloc/opt/.

#ifndef OBJALLOC_CORE_DOM_ALGORITHM_H_
#define OBJALLOC_CORE_DOM_ALGORITHM_H_

#include <memory>
#include <string>

#include "objalloc/model/allocation_schedule.h"
#include "objalloc/model/cost_model.h"
#include "objalloc/model/request.h"

namespace objalloc::core {

using model::AllocatedRequest;
using model::ProcessorSet;
using model::Request;
using util::ProcessorId;

// The outcome of one online step.
struct Decision {
  ProcessorSet execution_set;
  bool saving = false;  // reads only: store the object at the reader
};

// Interface for online DOM algorithms. Implementations are driven by a
// Runner: Reset() once per schedule, then Step() per request in order.
// Implementations must be deterministic given (initial scheme, prefix).
class DomAlgorithm {
 public:
  virtual ~DomAlgorithm() = default;

  virtual std::string name() const = 0;

  // Prepares for a fresh schedule over `num_processors` processors with the
  // given initial allocation scheme. The scheme size is the algorithm's
  // availability threshold t.
  virtual void Reset(int num_processors, ProcessorSet initial_scheme) = 0;

  // Serves the next request; called strictly in schedule order after Reset.
  virtual Decision Step(const Request& request) = 0;

  // An independent copy with the same configuration. Parallel drivers (the
  // competitive sweeps and adversarial searches) clone one prototype per
  // concurrent unit of work; clones share no state, and callers Reset()
  // them before use.
  virtual std::unique_ptr<DomAlgorithm> Clone() const = 0;
};

// Algorithm identifiers for factories and report labels.
enum class AlgorithmKind {
  kStatic,    // SA: read-one-write-all over a fixed scheme (§4.2.1)
  kDynamic,   // DA: saving-reads + invalidation via join-lists (§4.2.2)
  kAdaptive,  // convergent sliding-window allocator (extension, cf. §5.1)
};

const char* AlgorithmKindToString(AlgorithmKind kind);

// True for the kinds the serving engine (ObjectShard and everything built
// on it) registers: the paper's SA and DA, evaluated inline over
// value-stored state instead of through a heap-allocated DomAlgorithm and a
// virtual Step() call. The two paths are the same function by
// construction: the shard calls the classes' static rule helpers
// (StaticAllocation::Decide, DynamicAllocation::WriteSet / SplitScheme),
// and tests/serving_engine_test.cc asserts per-request cost equality
// between the shard and the reference classes.
constexpr bool IsInlinableKind(AlgorithmKind kind) {
  return kind == AlgorithmKind::kStatic || kind == AlgorithmKind::kDynamic;
}

// Creates an algorithm instance. `model` is used only by kAdaptive (its
// expansion/contraction tests compare communication vs I/O costs); SA and DA
// are cost-oblivious, as in the paper.
std::unique_ptr<DomAlgorithm> CreateAlgorithm(AlgorithmKind kind,
                                              const model::CostModel& model);

}  // namespace objalloc::core

#endif  // OBJALLOC_CORE_DOM_ALGORITHM_H_
