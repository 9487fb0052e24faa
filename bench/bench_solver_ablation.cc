// A2 — MLN backend ablation: exact MaxSAT B&B vs ILP+CPA vs one-shot ILP
// vs WalkSAT, all on the same ground networks.
//
// Checks: (i) the exact backends agree on the objective; (ii) cutting
// planes activate only a fraction of the clauses; (iii) local search gets
// close without optimality proofs.

#include <cstdio>

#include "datagen/generators.h"
#include "ground/grounder.h"
#include "mln/cutting_plane.h"
#include "mln/solver.h"
#include "mln/translation.h"
#include "rules/library.h"
#include "util/csv.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {
using namespace tecore;  // NOLINT
}  // namespace

int main() {
  std::printf("=== A2: MLN solver backend ablation (FootballDB) ===\n\n");
  datagen::FootballDbOptions gen;
  gen.num_players = 1500;
  datagen::GeneratedKg kg = datagen::GenerateFootballDb(gen);
  auto constraints = rules::FootballConstraints();
  if (!constraints.ok()) return 1;
  ground::Grounder grounder(&kg.graph, *constraints);
  auto grounding = grounder.Run();
  if (!grounding.ok()) {
    std::fprintf(stderr, "grounding failed\n");
    return 1;
  }
  std::printf("ground network: %s atoms, %s clauses\n\n",
              FormatWithCommas(static_cast<int64_t>(
                  grounding->network.NumAtoms())).c_str(),
              FormatWithCommas(static_cast<int64_t>(
                  grounding->network.NumClauses())).c_str());

  Table table({"backend", "time ms", "objective", "optimal", "feasible"});
  double exact_objective = -1;
  bool exact_backends_agree = true;
  for (mln::MlnBackend backend :
       {mln::MlnBackend::kExactMaxSat, mln::MlnBackend::kIlpCpa,
        mln::MlnBackend::kIlpDirect, mln::MlnBackend::kWalkSat}) {
    mln::MlnSolverOptions options;
    options.backend = backend;
    options.walksat.max_flips = 500'000;
    Timer timer;
    mln::MlnMapSolver solver(grounding->network, options);
    auto solution = solver.Solve();
    const double ms = timer.ElapsedMillis();
    if (!solution.ok()) {
      std::fprintf(stderr, "solve failed\n");
      return 1;
    }
    if (solution->optimal) {
      if (exact_objective < 0) {
        exact_objective = solution->objective;
      } else if (std::abs(solution->objective - exact_objective) > 1e-6) {
        exact_backends_agree = false;
      }
    }
    table.AddRow({std::string(mln::MlnBackendName(backend)),
                  StringPrintf("%.0f", ms),
                  StringPrintf("%.2f", solution->objective),
                  solution->optimal ? "yes" : "no",
                  solution->feasible ? "yes" : "NO"});
  }
  std::printf("%s\n", table.ToAscii().c_str());
  std::printf("exact backends agree on the MAP objective: %s\n\n",
              exact_backends_agree ? "yes (MATCH)" : "NO (MISMATCH)");

  // Cutting-plane effectiveness on the largest component-joined instance.
  maxsat::Wcnf wcnf = mln::BuildWcnf(grounding->network);
  mln::CpaStats stats;
  auto cpa = mln::SolveWithCpa(wcnf, ilp::BranchBoundSolver::Options(), &stats);
  std::printf("CPA on the monolithic instance: %d iterations, "
              "%zu/%zu clauses activated (%.1f%%), feasible=%s\n",
              stats.iterations, stats.final_active_clauses, wcnf.NumClauses(),
              100.0 * static_cast<double>(stats.final_active_clauses) /
                  static_cast<double>(wcnf.NumClauses()),
              cpa.feasible ? "yes" : "NO");
  const bool cpa_is_lazy = stats.final_active_clauses < wcnf.NumClauses();
  std::printf("shape (CPA activates only violated constraints): %s\n",
              cpa_is_lazy ? "MATCH" : "MISMATCH");
  return exact_backends_agree && cpa_is_lazy ? 0 : 1;
}
