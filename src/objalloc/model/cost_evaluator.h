// The paper's cost function (§3.2 stationary computing, §3.3 mobile
// computing), implemented once in a form that specializes to both models.
//
// With reader/writer i, execution set X, allocation scheme Y at the request:
//
//   read  (plain):  |X \ {i}| * cc  +  |X| * cio  +  |X \ {i}| * cd
//   read  (saving): plain read + cio       (extra output at i's database)
//   write:          |Y \ X \ {i}| * cc  +  |X \ {i}| * cd  +  |X| * cio
//
// These reproduce the paper's four SC cases (with cio = 1) and four MC cases
// (with cio = 0) exactly:
//   * i in X removes one control and one data message (no self-messages),
//   * a write invalidates the stale copies Y \ X, except the writer's own
//     (the writer knows its copy is stale without a message).
//
// Besides the scalar cost, the evaluator reports the *breakdown* (control
// messages, data messages, I/O operations) so the message-passing simulator
// can be cross-checked against the analytic model count-for-count.

#ifndef OBJALLOC_MODEL_COST_EVALUATOR_H_
#define OBJALLOC_MODEL_COST_EVALUATOR_H_

#include <cstdint>
#include <string>

#include "objalloc/model/allocation_schedule.h"
#include "objalloc/model/cost_model.h"

namespace objalloc::model {

// Message/IO counts; cost = control*cc + data*cd + io*cio.
struct CostBreakdown {
  int64_t control_messages = 0;
  int64_t data_messages = 0;
  int64_t io_ops = 0;

  double Cost(const CostModel& model) const {
    return static_cast<double>(control_messages) * model.control +
           static_cast<double>(data_messages) * model.data +
           static_cast<double>(io_ops) * model.io;
  }

  // Inline: the executor adds every served event's traffic through it.
  CostBreakdown& operator+=(const CostBreakdown& other) {
    control_messages += other.control_messages;
    data_messages += other.data_messages;
    io_ops += other.io_ops;
    return *this;
  }
  std::string ToString() const;
};

bool operator==(const CostBreakdown& a, const CostBreakdown& b);

// Breakdown of a single request executed against allocation scheme `scheme`.
// Inline: this is the per-event cost kernel of the serving hot path
// (ObjectShard), where an out-of-line call would dominate the set algebra.
inline CostBreakdown RequestBreakdown(const AllocatedRequest& entry,
                                      ProcessorSet scheme) {
  const util::ProcessorId i = entry.request.processor;
  const ProcessorSet x = entry.execution_set;
  CostBreakdown out;
  if (entry.request.is_read()) {
    // Request messages to, and object transfers from, every member of X
    // other than the reader itself; one input at each member of X.
    const int64_t remote = x.WithErased(i).Size();
    out.control_messages = remote;
    out.data_messages = remote;
    out.io_ops = x.Size();
    if (entry.saving) ++out.io_ops;  // extra output at the reader's database
  } else {
    // Invalidations to stale copies (the writer needs none for itself);
    // object transfers to every member of X other than the writer; one
    // output at each member of X.
    out.control_messages = scheme.Minus(x).WithErased(i).Size();
    out.data_messages = x.WithErased(i).Size();
    out.io_ops = x.Size();
  }
  return out;
}

// Scalar cost of a single request (COST(q) in the paper).
double RequestCost(const CostModel& model, const AllocatedRequest& entry,
                   ProcessorSet scheme);

// Breakdown / cost of a whole allocation schedule (COST(I, tau)).
CostBreakdown ScheduleBreakdown(const AllocationSchedule& schedule);
double ScheduleCost(const CostModel& model, const AllocationSchedule& schedule);

}  // namespace objalloc::model

#endif  // OBJALLOC_MODEL_COST_EVALUATOR_H_
