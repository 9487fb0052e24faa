// A3 — grounding ablations: semi-naive delta evaluation of the fixpoint,
// early condition evaluation during the body join, and connected-component
// decomposition at solve time.

#include <cstdio>
#include <string>

#include "datagen/generators.h"
#include "ground/grounder.h"
#include "mln/solver.h"
#include "rules/library.h"
#include "rules/parser.h"
#include "util/csv.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {
using namespace tecore;  // NOLINT

double GroundOnce(datagen::GeneratedKg* kg, const rules::RuleSet& rules,
                  const ground::GroundingOptions& options, size_t* atoms,
                  size_t* clauses) {
  Timer timer;
  ground::Grounder grounder(&kg->graph, rules, options);
  auto result = grounder.Run();
  if (!result.ok()) return -1;
  if (atoms != nullptr) *atoms = result->network.NumAtoms();
  if (clauses != nullptr) *clauses = result->network.NumClauses();
  return timer.ElapsedMillis();
}

}  // namespace

int main(int argc, char** /*argv*/) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: bench_grounding\n");
    return 2;
  }

  std::printf("=== A3: grounding & decomposition ablation ===\n\n");

  // ------------------------------------------------- semi-naive fixpoint
  // The full F ∪ C rule set chains inference rules (playsFor -> worksFor
  // -> livesIn), so grounding runs several fixpoint rounds. Naive
  // evaluation re-grounds every rule against all atoms each round and
  // deduplicates; semi-naive only enumerates bindings touching the
  // round's frontier — same network by construction, much less join work.
  auto constraints = rules::FootballConstraints();
  auto inference = rules::FootballInferenceRules();
  if (!constraints.ok() || !inference.ok()) {
    std::fprintf(stderr, "rules failed to parse\n");
    return 1;
  }
  rules::RuleSet full = *constraints;
  full.Merge(*inference);

  Table delta_table({"players", "naive ms", "semi-naive ms", "speedup",
                     "atoms", "clauses", "network (equal)"});
  bool networks_match = true;
  for (size_t players : {500, 1000, 2000}) {
    datagen::FootballDbOptions gen;
    gen.num_players = players;
    datagen::GeneratedKg kg1 = datagen::GenerateFootballDb(gen);
    datagen::GeneratedKg kg2 = datagen::GenerateFootballDb(gen);
    ground::GroundingOptions naive_options;
    naive_options.semi_naive = false;
    ground::GroundingOptions delta_options;
    size_t atoms_naive = 0, clauses_naive = 0;
    size_t atoms_delta = 0, clauses_delta = 0;
    double naive =
        GroundOnce(&kg1, full, naive_options, &atoms_naive, &clauses_naive);
    double delta =
        GroundOnce(&kg2, full, delta_options, &atoms_delta, &clauses_delta);
    if (naive < 0 || delta < 0) return 1;
    const bool match =
        atoms_naive == atoms_delta && clauses_naive == clauses_delta;
    networks_match = networks_match && match;
    delta_table.AddRow({std::to_string(players), StringPrintf("%.1f", naive),
                        StringPrintf("%.1f", delta),
                        StringPrintf("%.2fx", naive / delta),
                        std::to_string(atoms_delta),
                        std::to_string(clauses_delta), match ? "yes" : "NO"});
  }
  std::printf("%s\n", delta_table.ToAscii().c_str());
  std::printf("shape (delta evaluation, same ground network): %s\n\n",
              networks_match ? "MATCH" : "MISMATCH");

  // ------------------------------------------------ condition evaluation
  // A *teammates* join through the shared object (players of the same
  // club): candidate lists are per-team (hundreds of facts), so the
  // selective first-atom duration filter prunes a large join when
  // evaluated early. The trivially-true head keeps the clause count at
  // zero — this measures pure grounding throughput.
  auto selective = rules::ParseRules(R"(
    teammate_probe:
      quad(x, playsFor, y, t) & quad(x2, playsFor, y, t')
      [duration(t) > 4, x != x2] -> begin(t) < 3000 .
  )");
  if (!selective.ok()) {
    std::fprintf(stderr, "%s\n", selective.status().ToString().c_str());
    return 1;
  }

  Table ground_table({"players", "early-cond ms", "late-cond ms", "speedup",
                      "clauses (equal)"});
  bool clauses_match = true;
  for (size_t players : {1000, 2000, 4000}) {
    datagen::FootballDbOptions gen;
    gen.num_players = players;
    gen.mean_spells = 4.0;  // more spells -> bigger join
    datagen::GeneratedKg kg1 = datagen::GenerateFootballDb(gen);
    datagen::GeneratedKg kg2 = datagen::GenerateFootballDb(gen);
    ground::GroundingOptions early_options;
    early_options.evaluate_conditions_early = true;
    ground::GroundingOptions late_options;
    late_options.evaluate_conditions_early = false;
    size_t clauses_early = 0, clauses_late = 0;
    double early =
        GroundOnce(&kg1, *selective, early_options, nullptr, &clauses_early);
    double late =
        GroundOnce(&kg2, *selective, late_options, nullptr, &clauses_late);
    if (early < 0 || late < 0) return 1;
    clauses_match = clauses_match && clauses_early == clauses_late;
    ground_table.AddRow({std::to_string(players),
                         StringPrintf("%.1f", early),
                         StringPrintf("%.1f", late),
                         StringPrintf("%.2fx", late / early),
                         clauses_early == clauses_late ? "yes" : "NO"});
  }
  std::printf("%s\n", ground_table.ToAscii().c_str());
  std::printf("shape (early evaluation prunes the join, same output): %s\n\n",
              clauses_match ? "MATCH" : "MISMATCH");

  // --------------------------------------------- ground-thread scaling
  // The per-rule semi-naive passes of each fixpoint round run on an
  // injected pool of N executors against a frozen snapshot and merge
  // deterministically, so the network must be identical at every N; the
  // wall time is what scales (flat on a 1-core container — see
  // docs/benchmarks.md).
  Table scale_table({"ground threads", "time ms", "speedup", "atoms",
                     "clauses", "network (equal)"});
  {
    rules::RuleSet scaling_rules = *constraints;
    scaling_rules.Merge(*inference);
    datagen::FootballDbOptions gen_scale;
    gen_scale.num_players = 2000;
    double base_ms = 0.0;
    size_t base_atoms = 0, base_clauses = 0;
    bool scale_match = true;
    for (int threads : {1, 2, 4}) {
      datagen::GeneratedKg kg = datagen::GenerateFootballDb(gen_scale);
      util::ThreadPool pool(threads);
      ground::GroundingOptions options;
      options.pool = &pool;
      size_t atoms = 0, clauses = 0;
      const double ms =
          GroundOnce(&kg, scaling_rules, options, &atoms, &clauses);
      if (ms < 0) return 1;
      if (threads == 1) {
        base_ms = ms;
        base_atoms = atoms;
        base_clauses = clauses;
      }
      const bool match = atoms == base_atoms && clauses == base_clauses;
      scale_match = scale_match && match;
      scale_table.AddRow({std::to_string(threads), StringPrintf("%.1f", ms),
                          StringPrintf("%.2fx", base_ms / ms),
                          std::to_string(atoms), std::to_string(clauses),
                          match ? "yes" : "NO"});
    }
    std::printf("%s\n", scale_table.ToAscii().c_str());
    std::printf("shape (parallel grounding, identical network): %s\n\n",
                scale_match ? "MATCH" : "MISMATCH");
    if (!scale_match) return 1;
  }

  // Component decomposition: exact MAP per component (provably optimal)
  // vs one monolithic branch & bound under a node budget.
  datagen::FootballDbOptions gen;
  gen.num_players = 1200;
  datagen::GeneratedKg kg = datagen::GenerateFootballDb(gen);
  ground::Grounder grounder(&kg.graph, *constraints);
  auto grounding = grounder.Run();
  if (!grounding.ok()) return 1;

  Table solve_table({"mode", "time ms", "objective", "proof", "components"});
  double component_objective = 0.0, monolithic_objective = 0.0;
  for (bool use_components : {true, false}) {
    mln::MlnSolverOptions options;
    options.use_components = use_components;
    options.exact_var_limit = use_components ? 10'000 : 100'000;
    // The monolithic search cannot prove optimality (its bound is global
    // and weak); give it a fixed budget and report the anytime result.
    if (!use_components) options.exact.max_nodes = 2'000'000;
    Timer timer;
    mln::MlnMapSolver solver(grounding->network, options);
    auto solution = solver.Solve();
    if (!solution.ok()) return 1;
    const double ms = timer.ElapsedMillis();
    (use_components ? component_objective : monolithic_objective) =
        solution->objective;
    solve_table.AddRow({use_components ? "per-component" : "monolithic",
                        StringPrintf("%.0f", ms),
                        StringPrintf("%.2f", solution->objective),
                        solution->optimal ? "proven" : "budget hit",
                        std::to_string(solution->num_components)});
  }
  std::printf("%s\n", solve_table.ToAscii().c_str());
  std::printf("shape (decomposition: provably optimal AND >= anytime "
              "monolithic): %s\n",
              component_objective >= monolithic_objective - 1e-6
                  ? "MATCH"
                  : "MISMATCH");
  return 0;
}
