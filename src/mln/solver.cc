#include "mln/solver.h"

#include <algorithm>

#include "mln/cutting_plane.h"
#include "mln/translation.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace tecore {
namespace mln {

namespace {

maxsat::MaxSatResult SolveWcnf(const maxsat::Wcnf& wcnf,
                               const MlnSolverOptions& options) {
  const bool oversized =
      static_cast<size_t>(wcnf.num_vars()) > options.exact_var_limit;
  switch (options.backend) {
    case MlnBackend::kWalkSat:
      return maxsat::WalkSatSolver(wcnf, options.walksat).Solve();
    case MlnBackend::kExactMaxSat:
      if (oversized) {
        return maxsat::WalkSatSolver(wcnf, options.walksat).Solve();
      }
      return maxsat::ExactMaxSatSolver(wcnf, options.exact).Solve();
    case MlnBackend::kIlpCpa:
      if (oversized) {
        return maxsat::WalkSatSolver(wcnf, options.walksat).Solve();
      }
      return SolveWithCpa(wcnf, options.ilp);
    case MlnBackend::kIlpDirect:
      if (oversized) {
        return maxsat::WalkSatSolver(wcnf, options.walksat).Solve();
      }
      return SolveWithIlpDirect(wcnf, options.ilp);
  }
  return maxsat::MaxSatResult{};
}

}  // namespace

std::string_view MlnBackendName(MlnBackend backend) {
  switch (backend) {
    case MlnBackend::kExactMaxSat:
      return "exact-maxsat";
    case MlnBackend::kWalkSat:
      return "walksat";
    case MlnBackend::kIlpCpa:
      return "ilp-cpa";
    case MlnBackend::kIlpDirect:
      return "ilp-direct";
  }
  return "?";
}

MlnMapSolver::MlnMapSolver(const ground::GroundNetwork& network,
                           MlnSolverOptions options)
    : network_(network), options_(options) {}

Result<MlnSolution> MlnMapSolver::Solve() {
  Timer timer;
  MlnSolution solution;
  solution.atom_values.assign(network_.NumAtoms(), false);
  solution.feasible = true;
  solution.optimal = true;

  if (!options_.use_components) {
    maxsat::Wcnf wcnf = BuildWcnf(network_);
    maxsat::MaxSatResult result = SolveWcnf(wcnf, options_);
    solution.atom_values = result.assignment;
    solution.objective = result.satisfied_weight;
    solution.violated_weight = result.violated_weight;
    solution.feasible = result.feasible;
    solution.optimal = result.optimal;
    solution.num_components = 1;
    solution.largest_component = network_.NumAtoms();
    solution.search_steps = result.search_steps;
    solution.solve_time_ms = timer.ElapsedMillis();
    return solution;
  }

  std::vector<ground::Component> components = network_.ConnectedComponents();
  solution.num_components = components.size();

  // Components are independent subproblems; solve them concurrently and
  // merge in component order so objectives/flip sets are identical to the
  // sequential run (every backend is deterministic given its options).
  struct ComponentSolution {
    maxsat::MaxSatResult result;
    std::vector<ground::AtomId> atom_map;
    bool solved = false;
  };
  std::vector<ComponentSolution> solved(components.size());
  // With a component cache attached, splice the stored solution of every
  // component whose content signature is unchanged (a cached result is
  // bit-identical to re-solving — the backends are deterministic) and
  // spend solver time only on the dirty ones.
  MlnComponentCache* cache = options_.component_cache;
  std::vector<ground::Signature> signatures(cache != nullptr
                                                ? components.size()
                                                : 0);
  if (cache != nullptr) {
    cache->hits = 0;
    cache->misses = 0;
    for (size_t i = 0; i < components.size(); ++i) {
      if (components[i].clause_indices.empty()) continue;
      signatures[i] = network_.ComponentSignature(components[i]);
      auto it = cache->entries.find(signatures[i]);
      if (it != cache->entries.end()) {
        solved[i].result = it->second;
        solved[i].atom_map = components[i].atoms;
        solved[i].solved = true;
        ++cache->hits;
      } else {
        ++cache->misses;
      }
    }
  }
  util::ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : util::ComputePool();
  pool.ParallelFor(components.size(), [&](size_t i) {
    const ground::Component& component = components[i];
    if (component.clause_indices.empty()) {
      // Isolated atoms with no clauses at all: default to false (derived)
      // — evidence atoms always have at least their prior clause.
      return;
    }
    ComponentSolution& out = solved[i];
    if (out.solved) return;  // spliced from the cache
    maxsat::Wcnf wcnf = BuildComponentWcnf(network_, component, &out.atom_map);
    out.result = SolveWcnf(wcnf, options_);
    out.solved = true;
  });
  if (cache != nullptr) {
    // Bound retained entries: once stale signatures dominate, rebuild the
    // cache from the components actually present.
    if (cache->entries.size() > 4 * components.size() + 1024) {
      cache->entries.clear();
    }
    for (size_t i = 0; i < components.size(); ++i) {
      if (!solved[i].solved) continue;
      cache->entries.emplace(signatures[i], solved[i].result);
    }
  }

  for (size_t i = 0; i < components.size(); ++i) {
    solution.largest_component =
        std::max(solution.largest_component, components[i].atoms.size());
    if (!solved[i].solved) continue;
    const maxsat::MaxSatResult& result = solved[i].result;
    const std::vector<ground::AtomId>& atom_map = solved[i].atom_map;
    solution.feasible = solution.feasible && result.feasible;
    solution.optimal = solution.optimal && result.optimal;
    solution.objective += result.satisfied_weight;
    solution.violated_weight += result.violated_weight;
    solution.search_steps += result.search_steps;
    for (size_t local = 0; local < atom_map.size(); ++local) {
      solution.atom_values[atom_map[local]] =
          local < result.assignment.size() && result.assignment[local];
    }
  }
  solution.solve_time_ms = timer.ElapsedMillis();
  return solution;
}

}  // namespace mln
}  // namespace tecore
