// Incremental re-solve vs the full pipeline on KG edits.
//
// The demo workflow is interactive — edit the KG, recompute the most
// probable conflict-free KG — so the number that matters is the cost of a
// *small edit*, not a cold start. This bench applies edit batches of
// growing size to the teammate-join workload and compares
// IncrementalResolver::ApplyEdits (delta grounding + dirty-component
// re-solve with MAP-state splicing) against a from-scratch Resolver::Run
// on the edited KB, asserting the two agree bit-exactly on the objective.
//
// `--smoke` shrinks the workload for CI.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/edits.h"
#include "core/resolver.h"
#include "datagen/generators.h"
#include "rules/library.h"
#include "rules/parser.h"
#include "util/csv.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {
using namespace tecore;  // NOLINT

/// Constraints + the teammates join through the shared club: the join
/// couples players of one team into one component, so a single-fact edit
/// dirties one team's component and leaves the rest spliceable.
Result<rules::RuleSet> TeammateJoinRules() {
  TECORE_ASSIGN_OR_RETURN(constraints, rules::FootballConstraints());
  TECORE_ASSIGN_OR_RETURN(probe, rules::ParseRules(R"(
    teammate_overlap:
      quad(x, playsFor, y, t) & quad(x2, playsFor, y, t')
      [x != x2, overlaps(t, t'), duration(t) > 6] -> false  w = 0.05 .
  )"));
  rules::RuleSet rules = constraints;
  rules.Merge(probe);
  return rules;
}

std::vector<core::GraphEdit> MakeBatch(rdf::TemporalGraph* graph, Rng* rng,
                                       size_t batch_size) {
  std::vector<core::GraphEdit> edits;
  for (size_t i = 0; i < batch_size; ++i) {
    core::GraphEdit edit;
    if (i % 2 == 0 || graph->NumLiveFacts() == 0) {
      edit.kind = core::GraphEdit::Kind::kInsert;
      const int64_t begin = 1985 + static_cast<int64_t>(rng->Uniform(30));
      edit.fact = rdf::TemporalFact(
          graph->dict().InternIri("player" +
                                  std::to_string(rng->Uniform(100000))),
          graph->dict().InternIri("playsFor"),
          graph->dict().InternIri("team" + std::to_string(rng->Uniform(48))),
          temporal::Interval(begin, begin + static_cast<int64_t>(
                                               rng->Uniform(9))),
          0.3 + 0.0001 * static_cast<double>(rng->Uniform(6000)));
    } else {
      rdf::FactId id =
          static_cast<rdf::FactId>(rng->Uniform(graph->NumFacts()));
      while (!graph->is_live(id)) id = (id + 1) % graph->NumFacts();
      edit.kind = core::GraphEdit::Kind::kRetract;
      edit.fact = graph->fact(id);
      // A retraction tombstones every live match of its quad, so a second
      // retraction of the same quad in one batch would match nothing and
      // fail the script by design — skip duplicates.
      bool duplicate = false;
      for (const core::GraphEdit& prev : edits) {
        if (prev.kind == core::GraphEdit::Kind::kRetract &&
            prev.fact.SameTriple(edit.fact) &&
            prev.fact.interval == edit.fact.interval) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
    }
    edits.push_back(edit);
  }
  return edits;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: bench_incremental [--smoke]\n");
      return 2;
    }
  }

  std::printf("=== incremental re-solve vs full pipeline (teammate join) ===\n\n");

  auto rules = TeammateJoinRules();
  if (!rules.ok()) {
    std::fprintf(stderr, "%s\n", rules.status().ToString().c_str());
    return 1;
  }

  const size_t players = smoke ? 400 : 2000;
  const std::vector<size_t> batch_sizes =
      smoke ? std::vector<size_t>{1, 8}
            : std::vector<size_t>{1, 4, 16, 64, 256};

  datagen::FootballDbOptions gen;
  gen.num_players = players;
  datagen::GeneratedKg kg = datagen::GenerateFootballDb(gen);

  core::ResolveOptions options;
  // Multi-spell players bridge teams into one mega-component whose exact
  // branch & bound dwarfs everything else; cap the exact solver so that
  // component takes the WalkSAT fallback (deterministic, and identical on
  // both paths) and the bench measures pipeline structure instead.
  options.mln.exact_var_limit = 256;
  core::IncrementalResolver incremental(&kg.graph, *rules, options);
  Timer init_timer;
  auto init = incremental.Initialize();
  if (!init.ok()) {
    std::fprintf(stderr, "%s\n", init.status().ToString().c_str());
    return 1;
  }
  const double init_ms = init_timer.ElapsedMillis();
  std::printf("initial solve: %zu facts, %zu components, %.1f ms\n\n",
              kg.graph.NumLiveFacts(), init->num_components, init_ms);

  Table table({"edit batch", "full ms", "incremental ms", "speedup",
               "spliced/re-solved", "objective (equal)"});
  Rng rng(20260730);
  bool all_match = true;
  double single_edit_speedup = 0.0;
  for (size_t batch_size : batch_sizes) {
    std::vector<core::GraphEdit> edits = MakeBatch(&kg.graph, &rng,
                                                   batch_size);
    Timer inc_timer;
    auto inc = incremental.ApplyEdits(edits);
    if (!inc.ok()) {
      std::fprintf(stderr, "%s\n", inc.status().ToString().c_str());
      return 1;
    }
    const double inc_ms = inc_timer.ElapsedMillis();

    // From-scratch reference on the edited KB (compacted copy: same facts,
    // dense ids — exactly what a cold load would parse).
    rdf::TemporalGraph scratch_graph = kg.graph.CompactLive();
    Timer full_timer;
    core::Resolver resolver(&scratch_graph, *rules, options);
    auto full = resolver.Run();
    if (!full.ok()) {
      std::fprintf(stderr, "%s\n", full.status().ToString().c_str());
      return 1;
    }
    const double full_ms = full_timer.ElapsedMillis();

    const bool match = inc->objective == full->objective &&
                       inc->kept_facts.size() == full->kept_facts.size() &&
                       inc->ground_clauses == full->ground_clauses;
    all_match = all_match && match;
    const double speedup = full_ms / inc_ms;
    if (batch_size == 1) single_edit_speedup = speedup;
    table.AddRow({std::to_string(batch_size), StringPrintf("%.1f", full_ms),
                  StringPrintf("%.1f", inc_ms),
                  StringPrintf("%.1fx", speedup),
                  StringPrintf("%zu/%zu", inc->spliced_components,
                               inc->dirty_components),
                  match ? "yes" : "NO"});
  }
  std::printf("%s\n", table.ToAscii().c_str());
  std::printf("shape (incremental bit-identical to full pipeline): %s\n",
              all_match ? "MATCH" : "MISMATCH");
  std::printf("shape (single-fact edit >= 5x faster than full): %s "
              "(%.1fx)\n",
              single_edit_speedup >= 5.0 ? "MATCH" : "MISMATCH",
              single_edit_speedup);
  return all_match ? 0 : 1;
}
