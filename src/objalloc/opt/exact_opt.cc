#include "objalloc/opt/exact_opt.h"

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "objalloc/util/logging.h"
#include "objalloc/util/parallel.h"

namespace objalloc::opt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Minimum chunk of the 2^n state space per parallel task. Below two grains
// ParallelFor runs inline, so small systems stay on the fast serial path.
constexpr size_t kStateGrain = size_t{1} << 12;

int Popcount(uint32_t mask) { return std::popcount(mask); }

// Core DP with t = |initial_scheme|. When `parents` is non-null, records for
// every request index and every reachable state the predecessor state mask
// (for reconstruction).
double RunDp(const CostModel& cost_model, const Schedule& schedule,
             ProcessorSet initial_scheme,
             std::vector<std::vector<uint32_t>>* parents) {
  OBJALLOC_CHECK(cost_model.Validate().ok()) << cost_model.ToString();
  const int n = schedule.num_processors();
  OBJALLOC_CHECK_LE(n, kMaxExactOptProcessors)
      << "exact OPT is exponential in the number of processors";
  const int t = initial_scheme.Size();
  OBJALLOC_CHECK_GE(t, 1) << "the initial scheme must hold a copy";
  const size_t num_states = size_t{1} << n;
  const uint32_t initial = static_cast<uint32_t>(initial_scheme.mask());
  const double cc = cost_model.control;
  const double cd = cost_model.data;
  const double cio = cost_model.io;

  std::vector<double> dp(num_states, kInf);
  dp[initial] = 0;
  std::vector<double> dp_next(num_states);
  std::vector<double> c(num_states), a(num_states);
  // Argmin tracking for reconstruction of write transitions.
  std::vector<uint32_t> c_from, a_from;
  if (parents != nullptr) {
    parents->assign(schedule.size(), {});
    c_from.resize(num_states);
    a_from.resize(num_states);
  }

  for (size_t step = 0; step < schedule.size(); ++step) {
    const model::Request& req = schedule[step];
    const uint32_t i_bit = uint32_t{1} << req.processor;
    std::vector<uint32_t>* parent =
        parents != nullptr ? &(*parents)[step] : nullptr;
    if (parent != nullptr) parent->resize(num_states);

    if (req.is_read()) {
      // Gather form: every target state u is determined by dp[u] (plain
      // read) and dp[u \ {i}] (saving-read joining the scheme), so the loop
      // writes disjoint indices and parallelizes with bit-identical results.
      // Tie-break matches the serial scatter: a saving-read that equals the
      // plain-read cost wins (it was written first, and the plain read only
      // replaced it on strict improvement).
      const double remote_read = cc + cio + cd;
      const double saving_read = cc + 2 * cio + cd;
      util::ParallelFor(0, num_states, kStateGrain, [&](size_t lo,
                                                        size_t hi) {
        for (uint32_t u = static_cast<uint32_t>(lo); u < hi; ++u) {
          if ((u & i_bit) == 0) {
            dp_next[u] = dp[u] + remote_read;
            if (parent != nullptr) (*parent)[u] = dp[u] < kInf ? u : 0;
            continue;
          }
          const uint32_t v = u ^ i_bit;
          const double stay = dp[u] + cio;
          const double join = dp[v] + saving_read;
          if (stay < join) {
            dp_next[u] = stay;
            if (parent != nullptr) (*parent)[u] = u;
          } else if (join < kInf) {
            dp_next[u] = join;
            if (parent != nullptr) (*parent)[u] = v;
          } else {
            dp_next[u] = kInf;
            if (parent != nullptr) (*parent)[u] = 0;
          }
        }
      });
    } else {
      // Write transition via the two lattice sweeps described in the header.
      // Each per-bit phase reads indices with bit j set and writes indices
      // with bit j clear (or vice versa) — disjoint sets, so the phase body
      // parallelizes over the state space; phases are separated by the
      // ParallelFor barrier.
      // C[Z] = min over Y ⊇ Z of dp[Y] + cc*|Y \ Z|.
      c = dp;
      if (parent != nullptr) {
        for (uint32_t z = 0; z < num_states; ++z) c_from[z] = z;
      }
      for (int j = 0; j < n; ++j) {
        const uint32_t j_bit = uint32_t{1} << j;
        util::ParallelFor(0, num_states, kStateGrain, [&](size_t lo,
                                                          size_t hi) {
          for (uint32_t z = static_cast<uint32_t>(lo); z < hi; ++z) {
            if ((z & j_bit) != 0) continue;
            double via = c[z | j_bit] + cc;
            if (via < c[z]) {
              c[z] = via;
              if (parent != nullptr) c_from[z] = c_from[z | j_bit];
            }
          }
        });
      }
      // A[T] = min over Z ⊆ T of C[Z].
      a = c;
      if (parent != nullptr) a_from = c_from;
      for (int j = 0; j < n; ++j) {
        const uint32_t j_bit = uint32_t{1} << j;
        util::ParallelFor(0, num_states, kStateGrain, [&](size_t lo,
                                                          size_t hi) {
          for (uint32_t tmask = static_cast<uint32_t>(lo); tmask < hi;
               ++tmask) {
            if ((tmask & j_bit) == 0) continue;
            double via = a[tmask ^ j_bit];
            if (via < a[tmask]) {
              a[tmask] = via;
              if (parent != nullptr) a_from[tmask] = a_from[tmask ^ j_bit];
            }
          }
        });
      }
      util::ParallelFor(0, num_states, kStateGrain, [&](size_t lo,
                                                        size_t hi) {
        for (uint32_t x = static_cast<uint32_t>(lo); x < hi; ++x) {
          if (Popcount(x) < t) {
            dp_next[x] = kInf;
            if (parent != nullptr) (*parent)[x] = 0;
            continue;
          }
          const double base = a[x | i_bit];
          if (base == kInf) {
            dp_next[x] = kInf;
            if (parent != nullptr) (*parent)[x] = 0;
            continue;
          }
          const int transfers = Popcount(x & ~i_bit);
          dp_next[x] = base + cd * transfers + cio * Popcount(x);
          if (parent != nullptr) (*parent)[x] = a_from[x | i_bit];
        }
      });
    }
    dp.swap(dp_next);
  }

  double best = kInf;
  for (uint32_t s = 0; s < num_states; ++s) best = std::min(best, dp[s]);
  OBJALLOC_CHECK_LT(best, kInf) << "no feasible allocation schedule";
  if (parents != nullptr) {
    // Record the final argmin in the first slot of a sentinel row.
    uint32_t final_state = 0;
    for (uint32_t s = 0; s < num_states; ++s) {
      if (dp[s] == best) {
        final_state = s;
        break;
      }
    }
    parents->push_back(std::vector<uint32_t>{final_state});
  }
  return best;
}

}  // namespace

double ExactOptCost(const CostModel& cost_model, const Schedule& schedule,
                    ProcessorSet initial_scheme) {
  return RunDp(cost_model, schedule, initial_scheme, nullptr);
}

AllocationSchedule ExactOptSchedule(const CostModel& cost_model,
                                    const Schedule& schedule,
                                    ProcessorSet initial_scheme) {
  const int n = schedule.num_processors();
  OBJALLOC_CHECK_LE(n, kMaxExactOptReconstructProcessors)
      << "reconstruction stores one mask per (request, state)";
  std::vector<std::vector<uint32_t>> parents;
  RunDp(cost_model, schedule, initial_scheme, &parents);

  // Walk the parent chain backwards from the recorded final state.
  OBJALLOC_CHECK_EQ(parents.size(), schedule.size() + 1);
  std::vector<uint32_t> states(schedule.size() + 1);
  states[schedule.size()] = parents.back()[0];
  for (size_t step = schedule.size(); step-- > 0;) {
    states[step] = parents[step][states[step + 1]];
  }
  OBJALLOC_CHECK_EQ(states[0], static_cast<uint32_t>(initial_scheme.mask()));

  AllocationSchedule allocation(n, initial_scheme);
  for (size_t step = 0; step < schedule.size(); ++step) {
    const model::Request& req = schedule[step];
    const ProcessorSet before(uint64_t{states[step]});
    const ProcessorSet after(uint64_t{states[step + 1]});
    if (req.is_write()) {
      allocation.Append(req, after);
    } else if (before.Contains(req.processor)) {
      allocation.Append(req, ProcessorSet::Singleton(req.processor));
    } else {
      // Remote read from any holder (homogeneous network: pick the first);
      // a grown scheme means the DP chose a saving-read.
      const bool saving = after != before;
      allocation.Append(req, ProcessorSet::Singleton(before.First()), saving);
    }
  }
  return allocation;
}

}  // namespace objalloc::opt
