// E3 — "Performance of MAP Inference" (paper §3).
//
// Paper: on FootballDB, MAP inference takes 12,181 ms with nRockIt (MLN,
// ILP-based) and 6,129 ms with nPSL, averaged over 10 runs — i.e. nPSL is
// ~2x faster and the paper concludes "MLN solvers do not scale well".
//
// This bench reproduces the protocol in two parts (see EXPERIMENTS.md):
//
//  (a) constraints-only FootballDB, 10 runs per backend. Here the ground
//      network decomposes per player; our exact MLN backend exploits that
//      (a decomposition the original nRockIt stack lacked) and is actually
//      *faster* than ADMM — an honest deviation, reported as such.
//
//  (b) the paper's full setting map(θ(G), F ∪ C): the livesIn inference
//      rule joins players through shared team-location facts, coupling the
//      ground network into one giant component. Exact MLN MAP (with proof)
//      blows up combinatorially while nPSL stays near-linear — the
//      expressiveness-vs-scalability shape the paper reports, with the
//      crossover made explicit.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/resolver.h"
#include "datagen/generators.h"
#include "ground/grounder.h"
#include "mln/solver.h"
#include "psl/solver.h"
#include "rules/library.h"
#include "util/csv.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {
using namespace tecore;  // NOLINT

struct RunStats {
  double mean_ms = 0.0;
  double min_ms = 1e300;
  double max_ms = 0.0;
  double objective = 0.0;
  bool feasible = true;
  bool optimal = true;
};

core::ResolveOptions MakeOptions(rules::SolverKind solver,
                                 double mln_time_budget_ms) {
  core::ResolveOptions options;
  options.solver = solver;
  options.mln.backend = mln::MlnBackend::kIlpCpa;
  if (mln_time_budget_ms > 0) {
    // Coupled setting: let the exact engine run (no WalkSAT fallback) but
    // under an explicit proof budget.
    options.mln.backend = mln::MlnBackend::kExactMaxSat;
    options.mln.exact_var_limit = 10'000'000;
    options.mln.exact.time_limit_ms = mln_time_budget_ms;
    options.mln.exact.max_nodes = UINT64_MAX;
  }
  return options;
}

RunStats Measure(const rules::RuleSet& rules, rules::SolverKind solver,
                 int runs, size_t players, double mln_time_budget_ms) {
  RunStats stats;
  for (int run = 0; run < runs; ++run) {
    datagen::FootballDbOptions gen;
    gen.num_players = players;
    datagen::GeneratedKg kg = datagen::GenerateFootballDb(gen);
    core::ResolveOptions options = MakeOptions(solver, mln_time_budget_ms);
    Timer timer;
    core::Resolver resolver(&kg.graph, rules, options);
    auto result = resolver.Run();
    const double ms = timer.ElapsedMillis();
    if (!result.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   result.status().ToString().c_str());
      stats.feasible = false;
      return stats;
    }
    stats.mean_ms += ms;
    stats.min_ms = std::min(stats.min_ms, ms);
    stats.max_ms = std::max(stats.max_ms, ms);
    stats.objective = result->objective;
    stats.feasible = stats.feasible && result->feasible;
    stats.optimal = stats.optimal && result->optimal;
  }
  stats.mean_ms /= runs;
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  int runs = 10;  // paper: "averaged over 10 runs"
  if (argc > 2 || (argc == 2 && (runs = std::atoi(argv[1])) <= 0)) {
    std::fprintf(stderr, "usage: bench_map_runtime [runs]\n");
    return 2;
  }

  auto constraints = rules::FootballConstraints();
  auto inference = rules::FootballInferenceRules();
  if (!constraints.ok() || !inference.ok()) {
    std::fprintf(stderr, "rules failed to parse\n");
    return 1;
  }

  // ---------------------------------------------------------------- (a)
  std::printf("=== E3(a): MAP runtime, constraints only (decoupled) ===\n");
  std::printf("workload: FootballDB defaults (>13K playsFor, >6K birthDate,"
              " noise 1.0), %d runs/backend\n\n", runs);
  RunStats mln_a = Measure(*constraints, rules::SolverKind::kMln, runs,
                           6500, /*mln_time_budget_ms=*/0);
  RunStats psl_a = Measure(*constraints, rules::SolverKind::kPsl, runs,
                           6500, 0);
  Table table_a({"backend", "mean ms", "min ms", "max ms", "objective",
                 "exact", "feasible"});
  table_a.AddRow({"nRockIt (ILP+CPA, per-component)",
                  StringPrintf("%.0f", mln_a.mean_ms),
                  StringPrintf("%.0f", mln_a.min_ms),
                  StringPrintf("%.0f", mln_a.max_ms),
                  StringPrintf("%.1f", mln_a.objective),
                  mln_a.optimal ? "proven" : "no",
                  mln_a.feasible ? "yes" : "NO"});
  table_a.AddRow({"nPSL (HL-MRF, ADMM)",
                  StringPrintf("%.0f", psl_a.mean_ms),
                  StringPrintf("%.0f", psl_a.min_ms),
                  StringPrintf("%.0f", psl_a.max_ms),
                  StringPrintf("%.1f", psl_a.objective), "relaxation",
                  psl_a.feasible ? "yes" : "NO"});
  std::printf("%s\n", table_a.ToAscii().c_str());
  std::printf("note: per-player decomposition makes exact MAP faster than\n"
              "ADMM here — an improvement over the paper's stack; the\n"
              "paper's ordering appears in the coupled setting below.\n\n");

  // ------------------------------------------------- (a') thread scaling
  // Per-component solving is embarrassingly parallel; measure the solve
  // stage alone (grounding excluded) for 1/2/4 executors. The merged
  // objective must be identical for every thread count (determinism).
  {
    std::printf("=== E3(a'): per-component solve, thread scaling ===\n\n");
    datagen::FootballDbOptions gen;
    gen.num_players = 6500;
    datagen::GeneratedKg kg = datagen::GenerateFootballDb(gen);
    ground::Grounder grounder(&kg.graph, *constraints);
    auto grounding = grounder.Run();
    if (!grounding.ok()) return 1;
    Table scale_table({"threads", "mln solve ms", "psl solve ms",
                       "objective", "objective (equal)"});
    double base_objective = 0.0;
    bool objectives_match = true;
    for (int threads : {1, 2, 4}) {
      util::ThreadPool pool(threads);
      mln::MlnSolverOptions mln_options;
      mln_options.pool = &pool;
      Timer mln_timer;
      mln::MlnMapSolver mln_solver(grounding->network, mln_options);
      auto mln_solution = mln_solver.Solve();
      if (!mln_solution.ok()) return 1;
      const double mln_ms = mln_timer.ElapsedMillis();
      psl::PslSolverOptions psl_options;
      psl_options.pool = &pool;
      Timer psl_timer;
      psl::PslSolver psl_solver(grounding->network, psl_options);
      auto psl_solution = psl_solver.Solve();
      if (!psl_solution.ok()) return 1;
      const double psl_ms = psl_timer.ElapsedMillis();
      if (threads == 1) base_objective = mln_solution->objective;
      const bool match = mln_solution->objective == base_objective;
      objectives_match = objectives_match && match;
      scale_table.AddRow({std::to_string(threads),
                          StringPrintf("%.0f", mln_ms),
                          StringPrintf("%.0f", psl_ms),
                          StringPrintf("%.2f", mln_solution->objective),
                          match ? "yes" : "NO"});
    }
    std::printf("%s\n", scale_table.ToAscii().c_str());
    std::printf("shape (identical objective for all thread counts): %s\n\n",
                objectives_match ? "MATCH" : "MISMATCH");
    if (!objectives_match) return 1;
  }

  // ---------------------------------------------------------------- (b)
  std::printf("=== E3(b): MAP runtime, F ∪ C (livesIn couples players) ===\n");
  std::printf("rules: fb1 (worksFor), fb2 (livesIn via locatedIn), fb3 "
              "(TeenPlayer) + the 3 constraints\n");
  const double budget_ms = 5'000;
  std::printf("exact proof budget per run: %.0f ms\n\n", budget_ms);
  rules::RuleSet full = *constraints;
  full.Merge(*inference);

  Table table_b({"players", "nRockIt ms", "proof", "nPSL ms", "ratio"});
  double final_ratio = 0.0;
  bool psl_wins_at_scale = false;
  for (size_t players : {10, 20, 40, 100, 400, 1600}) {
    RunStats mln_b = Measure(full, rules::SolverKind::kMln, 1, players,
                             budget_ms);
    RunStats psl_b = Measure(full, rules::SolverKind::kPsl, 1, players, 0);
    const double ratio = psl_b.mean_ms > 0 ? mln_b.mean_ms / psl_b.mean_ms
                                           : 0.0;
    final_ratio = ratio;
    psl_wins_at_scale = ratio > 1.0;
    table_b.AddRow({std::to_string(players),
                    StringPrintf("%.0f", mln_b.mean_ms),
                    mln_b.optimal ? "proven" : "budget hit",
                    StringPrintf("%.0f", psl_b.mean_ms),
                    StringPrintf("%.2fx", ratio)});
  }
  std::printf("%s\n", table_b.ToAscii().c_str());

  std::printf("PAPER   : nRockIt 12,181 ms vs nPSL 6,129 ms "
              "(nPSL ~2x faster)\n");
  std::printf("MEASURED (coupled, largest size): nRockIt/nPSL ratio "
              "%.2fx\n", final_ratio);
  std::printf("shape (nPSL faster once rules couple the network): %s\n",
              psl_wins_at_scale ? "MATCH" : "MISMATCH");
  return psl_wins_at_scale ? 0 : 1;
}
