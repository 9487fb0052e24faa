#include "psl/solver.h"

#include <algorithm>
#include <cmath>

#include "util/thread_pool.h"
#include "util/timer.h"

namespace tecore {
namespace psl {

namespace {

bool ClauseSatisfied(const ground::GroundClause& clause,
                     const std::vector<bool>& values) {
  for (int32_t lit : clause.literals) {
    if (values[ground::LiteralAtom(lit)] == ground::LiteralSign(lit)) {
      return true;
    }
  }
  return false;
}

}  // namespace

PslSolver::PslSolver(const ground::GroundNetwork& network,
                     PslSolverOptions options)
    : network_(network), options_(options) {}

Result<PslSolution> PslSolver::Solve() {
  Timer timer;
  PslSolution solution;

  if (!options_.use_components) {
    HlMrf mrf = BuildHlMrf(network_, options_.squared_hinges);
    AdmmSolver admm(mrf, options_.admm);
    AdmmResult admm_result = admm.Solve();
    solution.truth_values = admm_result.x;
    solution.energy = admm_result.energy;
    solution.admm_converged = admm_result.converged;
    solution.admm_iterations = admm_result.iterations;
    solution.num_components = 1;
    solution.largest_component = network_.NumAtoms();
  } else {
    // The consensus objective is separable across connected components:
    // run ADMM per component (concurrently — they are independent) and
    // scatter each local solution into the global truth vector. Atoms in
    // clause-free components keep ADMM's 0.5 initial value, matching the
    // monolithic path, and the energy is reduced in component order so
    // the result is deterministic for any thread count.
    std::vector<ground::Component> components =
        network_.ConnectedComponents();
    solution.truth_values.assign(network_.NumAtoms(), 0.5);
    solution.num_components = components.size();
    solution.admm_converged = true;
    struct ComponentRun {
      std::vector<ground::AtomId> atom_map;
      AdmmResult result;
      bool solved = false;
    };
    std::vector<ComponentRun> runs(components.size());
    // Splice cached ADMM results for components whose content signature is
    // unchanged (see PslComponentCache); solve only the dirty ones.
    PslComponentCache* cache = options_.component_cache;
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
          runs[i].result = it->second;
          runs[i].atom_map = components[i].atoms;
          runs[i].solved = true;
          ++cache->hits;
        } else {
          ++cache->misses;
        }
      }
    }
    util::ThreadPool& pool =
        options_.pool != nullptr ? *options_.pool : util::ComputePool();
    pool.ParallelFor(components.size(), [&](size_t i) {
      if (components[i].clause_indices.empty()) return;
      ComponentRun& run = runs[i];
      if (run.solved) return;  // spliced from the cache
      HlMrf mrf = BuildComponentHlMrf(network_, components[i], &run.atom_map,
                                      options_.squared_hinges);
      AdmmSolver admm(mrf, options_.admm);
      run.result = admm.Solve();
      run.solved = true;
    });
    if (cache != nullptr) {
      if (cache->entries.size() > 4 * components.size() + 1024) {
        cache->entries.clear();
      }
      for (size_t i = 0; i < components.size(); ++i) {
        if (!runs[i].solved) continue;
        cache->entries.emplace(signatures[i], runs[i].result);
      }
    }
    for (size_t i = 0; i < components.size(); ++i) {
      solution.largest_component =
          std::max(solution.largest_component, components[i].atoms.size());
      if (!runs[i].solved) continue;
      const ComponentRun& run = runs[i];
      for (size_t local = 0; local < run.atom_map.size(); ++local) {
        solution.truth_values[run.atom_map[local]] =
            local < run.result.x.size() ? run.result.x[local] : 0.5;
      }
      solution.energy += run.result.energy;
      solution.admm_converged =
          solution.admm_converged && run.result.converged;
      solution.admm_iterations =
          std::max(solution.admm_iterations, run.result.iterations);
    }
  }

  // Discretize.
  const size_t n = network_.NumAtoms();
  solution.atom_values.assign(n, false);
  for (size_t i = 0; i < n; ++i) {
    solution.atom_values[i] = solution.truth_values[i] >= options_.threshold;
  }

  // Greedy repair: per-atom signed prior weight == cost of keeping the atom
  // "true" (negative prior) or "false" (positive prior).
  if (options_.repair) {
    std::vector<double> prior(n, 0.0);
    for (const ground::GroundClause& clause : network_.clauses()) {
      if (clause.hard || clause.literals.size() != 1) continue;
      const int32_t lit = clause.literals[0];
      prior[ground::LiteralAtom(lit)] +=
          ground::LiteralSign(lit) ? clause.weight : -clause.weight;
    }
    for (int pass = 0; pass < options_.max_repair_passes; ++pass) {
      size_t flips_this_pass = 0;
      for (const ground::GroundClause& clause : network_.clauses()) {
        if (!clause.hard || ClauseSatisfied(clause, solution.atom_values)) {
          continue;
        }
        // Flip the literal whose flip has the lowest prior cost.
        int32_t best_lit = clause.literals[0];
        double best_cost = 1e300;
        for (int32_t lit : clause.literals) {
          const ground::AtomId atom = ground::LiteralAtom(lit);
          // Making `lit` true means setting atom = sign(lit).
          const double cost = ground::LiteralSign(lit)
                                  ? -prior[atom]   // pay when prior says false
                                  : prior[atom];   // pay when prior says true
          if (cost < best_cost) {
            best_cost = cost;
            best_lit = lit;
          }
        }
        solution.atom_values[ground::LiteralAtom(best_lit)] =
            ground::LiteralSign(best_lit);
        ++flips_this_pass;
      }
      solution.repair_flips += flips_this_pass;
      if (flips_this_pass == 0) break;
    }
  }

  // Score the Boolean state against the weighted ground clauses.
  double satisfied = 0.0, violated = 0.0;
  bool feasible = true;
  for (const ground::GroundClause& clause : network_.clauses()) {
    const bool sat = ClauseSatisfied(clause, solution.atom_values);
    if (clause.hard) {
      feasible = feasible && sat;
    } else if (sat) {
      satisfied += clause.weight;
    } else {
      violated += clause.weight;
    }
  }
  solution.objective = satisfied;
  solution.violated_weight = violated;
  solution.feasible = feasible;
  solution.solve_time_ms = timer.ElapsedMillis();
  return solution;
}

}  // namespace psl
}  // namespace tecore
