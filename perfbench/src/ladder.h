// The per-layer ladder of the traced run: the workload's request sizes
// replayed on the served plan at each layer's public entry point, from
// the exact-weight descent up to the TCP loopback. A layer's self time is
// its rung minus the rung beneath it.

#ifndef PERFBENCH_LADDER_H_
#define PERFBENCH_LADDER_H_

#include <string>
#include <vector>

#include "common.h"
#include "load.h"
#include "spans.h"

namespace perfbench {

/// Names of every rung, in the order they run.
const std::vector<std::string>& LadderRungs();

/// Runs every rung against `served` (whose load phases are over) and
/// fills the per-layer metrics. `tuple_budget` sizes each rung's replay.
/// Appends the name of each rung that ran to `rungs_ran` and a one-line
/// summary per rung to `report`.
suj::Status RunLadder(Served& served, SpanRecorder& spans,
                      size_t tuple_budget, Metrics* metrics,
                      std::vector<std::string>* rungs_ran,
                      std::vector<std::string>* report);

}  // namespace perfbench

#endif  // PERFBENCH_LADDER_H_
