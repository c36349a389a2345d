// Umbrella header: the library's public API in one include.
//
//   #include "objalloc/objalloc.h"
//
// Pulls in the cost model and schedules, the online DOM algorithms, the
// offline optima and bounds, workload generation, the analysis toolkit, the
// protocol simulator, and the append-only model. Individual headers
// remain the preferred includes for code that wants fast builds.

#ifndef OBJALLOC_OBJALLOC_H_
#define OBJALLOC_OBJALLOC_H_

// Model: §3 of the paper.
#include "objalloc/model/allocation_schedule.h"
#include "objalloc/model/cost_evaluator.h"
#include "objalloc/model/cost_model.h"
#include "objalloc/model/legality.h"
#include "objalloc/model/request.h"
#include "objalloc/model/schedule.h"

// Online algorithms: §4 plus baselines and extensions.
#include "objalloc/core/adaptive_allocation.h"
#include "objalloc/core/counter_replication.h"
#include "objalloc/core/dom_algorithm.h"
#include "objalloc/core/dynamic_allocation.h"
#include "objalloc/core/object_manager.h"
#include "objalloc/core/quorum_allocation.h"
#include "objalloc/core/runner.h"
#include "objalloc/core/static_allocation.h"

// Offline optima and bounds: the competitive-analysis yardsticks.
#include "objalloc/opt/exact_opt.h"
#include "objalloc/opt/interval_opt.h"
#include "objalloc/opt/relaxation_lower_bound.h"

// Workloads and traces.
#include "objalloc/workload/adversary.h"
#include "objalloc/workload/ensemble.h"
#include "objalloc/workload/hotspot.h"
#include "objalloc/workload/multi_object.h"
#include "objalloc/workload/regime.h"
#include "objalloc/workload/trace_io.h"
#include "objalloc/workload/uniform.h"

// Analysis: competitive ratios, theorems, regions, steady state.
#include "objalloc/analysis/adversarial_search.h"
#include "objalloc/analysis/competitive.h"
#include "objalloc/analysis/region_map.h"
#include "objalloc/analysis/steady_state.h"
#include "objalloc/analysis/theorems.h"

// Protocol simulator.
#include "objalloc/sim/simulator.h"

// §6.2 append-only model.
#include "objalloc/appendonly/feed_manager.h"

#endif  // OBJALLOC_OBJALLOC_H_
