#ifndef TECORE_MLN_SOLVER_H_
#define TECORE_MLN_SOLVER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ground/ground_network.h"
#include "ilp/branch_bound.h"
#include "maxsat/exact.h"
#include "maxsat/local_search.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace tecore {
namespace mln {

/// \brief Which engine decides each component's MAP state.
enum class MlnBackend : uint8_t {
  /// Exact branch & bound MaxSAT (default; falls back to WalkSAT on
  /// components larger than `exact_var_limit`).
  kExactMaxSat,
  /// Stochastic local search everywhere (approximate, never proves
  /// optimality).
  kWalkSat,
  /// ILP with cutting-plane inference — the nRockIt configuration.
  kIlpCpa,
  /// One-shot full ILP per component (A2 ablation baseline).
  kIlpDirect,
};

std::string_view MlnBackendName(MlnBackend backend);

/// \brief Cache of per-component MAP solutions keyed by the component's
/// content signature (local clause structure + weights).
///
/// Backends are deterministic, so a cached result is bit-identical to
/// re-solving — which is how the incremental re-solve pipeline splices
/// solutions of clean components while paying solver time only for the
/// ones an edit dirtied. Entries are valid as long as the solver options
/// are unchanged; the owner must clear the cache when they change.
struct MlnComponentCache {
  std::unordered_map<ground::Signature, maxsat::MaxSatResult,
                     ground::SignatureHash>
      entries;
  /// Per-Solve() statistics (reset at each call).
  size_t hits = 0;
  size_t misses = 0;
};

/// \brief Solver configuration.
struct MlnSolverOptions {
  MlnBackend backend = MlnBackend::kExactMaxSat;
  /// Components with more variables than this use WalkSAT even under the
  /// exact backends (guard against pathological blow-ups).
  size_t exact_var_limit = 10'000;
  /// Solve each connected component separately (A3 ablation toggle; the
  /// monolithic path is exponentially slower on anything non-trivial).
  bool use_components = true;
  /// Executors for per-component solving; null means util::ComputePool().
  /// A test seam only: components are independent by construction and
  /// every backend is deterministic given its options, so the merged
  /// solution is bit-identical for any pool size.
  util::ThreadPool* pool = nullptr;
  maxsat::ExactSolverOptions exact;
  maxsat::WalkSatOptions walksat;
  ilp::BranchBoundSolver::Options ilp;
  /// Optional per-component solution cache (see MlnComponentCache); only
  /// consulted on the per-component path. Not owned.
  MlnComponentCache* component_cache = nullptr;
};

/// \brief MAP solution over the ground network's atoms.
struct MlnSolution {
  /// Truth value per ground atom (index == AtomId).
  std::vector<bool> atom_values;
  /// Total satisfied soft weight (the MAP objective).
  double objective = 0.0;
  /// Total violated soft weight.
  double violated_weight = 0.0;
  bool feasible = false;
  /// Every component solved to proven optimality.
  bool optimal = false;
  size_t num_components = 0;
  size_t largest_component = 0;
  uint64_t search_steps = 0;
  double solve_time_ms = 0.0;
};

/// \brief MAP inference for MLNs: maximizes the weight of satisfied ground
/// formulas subject to hard constraints, component by component.
class MlnMapSolver {
 public:
  MlnMapSolver(const ground::GroundNetwork& network,
               MlnSolverOptions options = {});

  Result<MlnSolution> Solve();

 private:
  const ground::GroundNetwork& network_;
  MlnSolverOptions options_;
};

}  // namespace mln
}  // namespace tecore

#endif  // TECORE_MLN_SOLVER_H_
