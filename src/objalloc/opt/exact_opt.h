// ExactOpt — the optimal offline t-available DOM algorithm (the paper's OPT,
// §4.1), computed by dynamic programming over allocation schemes.
//
// State: the allocation scheme S (any subset with |S| >= t). dp[S] is the
// minimum cost of serving the prefix so that the scheme is S afterwards.
//
//   * Read r^i: either a plain read (scheme unchanged; the cheapest execution
//     set is a singleton — the read cost is strictly increasing in |X|), or,
//     when i is outside the scheme, a saving-read moving S to S ∪ {i}.
//   * Write w^i: any successor scheme X with |X| >= t, at cost
//       |Y \ X \ {i}|*cc + |X \ {i}|*cd + |X|*cio.
//     Enumerating all (Y, X) pairs would be O(4^n); instead the transition is
//     computed in O(n * 2^n) with two lattice sweeps:
//       C[Z] = min over Y ⊇ Z of dp[Y] + cc*|Y \ Z|   (drop elements at cc)
//       A[T] = min over Z ⊆ T of C[Z]                 (subset minimum)
//     so dp'[X] = A[X ∪ {i}] + cd*|X \ {i}| + cio*|X|.
//
// The DP is exact: singleton reads and source-independence (homogeneous
// network) mean no other choices can be cheaper. It is exponential in the
// number of processors; the library guards it to n <= kMaxExactOptProcessors
// and provides IntervalOpt / RelaxationLowerBound as brackets beyond that.

#ifndef OBJALLOC_OPT_EXACT_OPT_H_
#define OBJALLOC_OPT_EXACT_OPT_H_

#include <optional>

#include "objalloc/model/allocation_schedule.h"
#include "objalloc/model/cost_model.h"
#include "objalloc/model/schedule.h"

namespace objalloc::opt {

using model::AllocationSchedule;
using model::CostModel;
using model::ProcessorSet;
using model::Schedule;

// Exact DP is O(L * n * 2^n) time and O(2^n) memory for cost-only queries.
// The per-request transitions parallelize over the 2^n state space (see
// util/parallel.h), which is what makes the top of this range practical.
inline constexpr int kMaxExactOptProcessors = 20;
// Reconstruction stores one predecessor mask per (request, state).
inline constexpr int kMaxExactOptReconstructProcessors = 12;

// Minimum cost over all legal, t-available allocation schedules for
// `schedule` starting from `initial_scheme`, with t = |initial_scheme|.
double ExactOptCost(const CostModel& cost_model, const Schedule& schedule,
                    ProcessorSet initial_scheme);

// Reconstructs an optimal allocation schedule (requires small n; see
// kMaxExactOptReconstructProcessors).
AllocationSchedule ExactOptSchedule(const CostModel& cost_model,
                                    const Schedule& schedule,
                                    ProcessorSet initial_scheme);

}  // namespace objalloc::opt

#endif  // OBJALLOC_OPT_EXACT_OPT_H_
