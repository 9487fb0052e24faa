#ifndef TCBENCH_LAYERS_H_
#define TCBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "harness.h"
#include "rules/validator.h"

namespace tcbench {

/// One workload's KB as the layer profile sees it.
struct LayerInput {
  std::string graph_text;
  std::string rules_text;
  /// When set, the PSL layer is profiled on this KB instead.
  std::string psl_graph_text;
  std::string psl_rules_text;
  tecore::rules::SolverKind solver = tecore::rules::SolverKind::kMln;
  /// Edit scripts replayed through IncrementalResolver, Engine and Wal.
  std::vector<std::string> scripts;
  std::string work_dir;
};

/// Times the pipeline modules' public calls on `in` (one span per call):
/// rdf parse, full grounding, both MAP solvers, detection and mining.
void ProfileModules(const LayerInput& in, Report* report, Tracer* tracer);

/// Replays `in.scripts` through IncrementalResolver, Engine and Wal and
/// reports the per-edit core/ground/api/rdf/storage metrics.
void ProfileEdits(const LayerInput& in, Report* report, Tracer* tracer);

}  // namespace tcbench

#endif  // TCBENCH_LAYERS_H_
