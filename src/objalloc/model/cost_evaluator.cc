#include "objalloc/model/cost_evaluator.h"

#include <sstream>

namespace objalloc::model {

std::string CostBreakdown::ToString() const {
  std::ostringstream os;
  os << "{ctrl=" << control_messages << ", data=" << data_messages
     << ", io=" << io_ops << "}";
  return os.str();
}

bool operator==(const CostBreakdown& a, const CostBreakdown& b) {
  return a.control_messages == b.control_messages &&
         a.data_messages == b.data_messages && a.io_ops == b.io_ops;
}

double RequestCost(const CostModel& model, const AllocatedRequest& entry,
                   ProcessorSet scheme) {
  return RequestBreakdown(entry, scheme).Cost(model);
}

CostBreakdown ScheduleBreakdown(const AllocationSchedule& schedule) {
  CostBreakdown total;
  for (size_t i = 0; i < schedule.size(); ++i) {
    total += RequestBreakdown(schedule[i], schedule.SchemeAt(i));
  }
  return total;
}

double ScheduleCost(const CostModel& model,
                    const AllocationSchedule& schedule) {
  double total = 0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    total += RequestCost(model, schedule[i], schedule.SchemeAt(i));
  }
  return total;
}

}  // namespace objalloc::model
