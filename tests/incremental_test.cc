// The incremental re-solve determinism contract: after any batch of
// insertions and retractions, ApplyEdits must be *bit-identical* to a
// from-scratch run of the full pipeline on the edited KB — the maintained
// canonical ground network (atom layout, prior weights, clause list), the
// kept/removed fact sets, the derived facts, and the objective. Thread
// counts must not matter on either path.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/edits.h"
#include "core/resolver.h"
#include "core/session.h"
#include "datagen/generators.h"
#include "ground/ground_network.h"
#include "ground/incremental.h"
#include "rdf/io.h"
#include "rules/library.h"
#include "rules/parser.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace tecore {
namespace {

/// Renders a network dictionary-independently: atoms by content (with
/// evidence flag and bit-exact prior), clauses by literal structure.
std::string RenderNetwork(const ground::GroundNetwork& net,
                          const rdf::Dictionary& dict) {
  std::string out;
  for (ground::AtomId id = 0; id < net.NumAtoms(); ++id) {
    const ground::GroundAtom& atom = net.atom(id);
    out += net.AtomToString(id, dict);
    out += StringPrintf(" prior=%s evid=%d\n",
                        FormatDoubleExact(atom.prior_weight).c_str(),
                        atom.is_evidence ? 1 : 0);
  }
  for (const ground::GroundClause& clause : net.clauses()) {
    out += clause.hard ? "hard" : "soft";
    out += StringPrintf(" w=%s rule=%d lits=",
                        FormatDoubleExact(clause.weight).c_str(),
                        clause.rule_index);
    for (int32_t lit : clause.literals) out += StringPrintf("%d,", lit);
    out += '\n';
  }
  return out;
}

/// Maps fact ids of a graph-with-tombstones to the ids the compacted graph
/// assigns (live rank), so flip sets compare across the two worlds.
std::vector<rdf::FactId> ToLiveRanks(const rdf::TemporalGraph& graph,
                                     const std::vector<rdf::FactId>& ids) {
  std::vector<rdf::FactId> out;
  out.reserve(ids.size());
  for (rdf::FactId id : ids) {
    out.push_back(static_cast<rdf::FactId>(graph.LiveRank(id)));
  }
  return out;
}

void ExpectResolutionBitIdentical(const core::ResolveResult& incremental,
                                  const rdf::TemporalGraph& edited_graph,
                                  const core::ResolveResult& scratch) {
  // The chunked columnar store must stay structurally sound under the
  // incremental pipeline's in-place mutations.
  Status invariants = edited_graph.CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();
  EXPECT_EQ(incremental.objective, scratch.objective);  // bitwise
  EXPECT_EQ(incremental.feasible, scratch.feasible);
  EXPECT_EQ(incremental.optimal, scratch.optimal);
  EXPECT_EQ(incremental.ground_atoms, scratch.ground_atoms);
  EXPECT_EQ(incremental.ground_clauses, scratch.ground_clauses);
  EXPECT_EQ(incremental.num_components, scratch.num_components);
  EXPECT_EQ(incremental.largest_component, scratch.largest_component);
  EXPECT_EQ(ToLiveRanks(edited_graph, incremental.kept_facts),
            scratch.kept_facts);
  EXPECT_EQ(ToLiveRanks(edited_graph, incremental.removed_facts),
            scratch.removed_facts);
  ASSERT_EQ(incremental.derived_facts.size(), scratch.derived_facts.size());
  for (size_t i = 0; i < incremental.derived_facts.size(); ++i) {
    EXPECT_EQ(incremental.derived_facts[i].score,
              scratch.derived_facts[i].score);
    EXPECT_EQ(
        incremental.consistent_graph.FactToString(
            incremental.derived_facts[i].fact),
        scratch.consistent_graph.FactToString(scratch.derived_facts[i].fact));
  }
  // The repaired output graph must be byte-identical on disk.
  EXPECT_EQ(rdf::WriteGraphText(incremental.consistent_graph),
            rdf::WriteGraphText(scratch.consistent_graph));
}

/// From-scratch reference on the edited KB (compacted copy, so tombstones
/// cannot leak into the reference path).
core::ResolveResult ScratchResolve(const rdf::TemporalGraph& graph,
                                   const rules::RuleSet& rules,
                                   const core::ResolveOptions& options) {
  rdf::TemporalGraph compact = graph.CompactLive();
  core::Resolver resolver(&compact, rules, options);
  auto result = resolver.Run();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(*result);
}

/// The from-scratch canonical network on the edited KB, rendered.
std::string ScratchNetworkRendering(const rdf::TemporalGraph& graph,
                                    const rules::RuleSet& rules,
                                    const ground::GroundingOptions& options) {
  rdf::TemporalGraph compact = graph.CompactLive();
  ground::GroundingOptions grounding = options;
  ground::Grounder grounder(&compact, rules, grounding);
  auto result = grounder.Run();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return RenderNetwork(result->network, compact.dict());
}

rules::RuleSet FootballRules(bool with_inference) {
  auto constraints = rules::FootballConstraints();
  EXPECT_TRUE(constraints.ok());
  rules::RuleSet rules = *constraints;
  if (with_inference) {
    auto inference = rules::FootballInferenceRules();
    EXPECT_TRUE(inference.ok());
    rules.Merge(*inference);
  }
  return rules;
}

/// One randomized edit batch: inserts new playsFor spells and retracts
/// random live facts. Deterministic via `rng`.
std::vector<core::GraphEdit> RandomBatch(rdf::TemporalGraph* graph, Rng* rng,
                                         size_t inserts, size_t retracts) {
  std::vector<core::GraphEdit> edits;
  for (size_t i = 0; i < inserts; ++i) {
    core::GraphEdit edit;
    edit.kind = core::GraphEdit::Kind::kInsert;
    const int64_t begin = 1990 + static_cast<int64_t>(rng->Uniform(25));
    const std::string player =
        "player" + std::to_string(rng->Uniform(200));
    const std::string team = "team" + std::to_string(rng->Uniform(16));
    // Random high-precision confidence: exercises exact round-tripping
    // and makes exact objective ties (which any solver may break by
    // enumeration order) measure-zero.
    const double conf =
        0.05 + 0.9 * (static_cast<double>(rng->Next() >> 11) * 0x1.0p-53);
    edit.fact = rdf::TemporalFact(
        graph->dict().InternIri(player), graph->dict().InternIri("playsFor"),
        graph->dict().InternIri(team),
        temporal::Interval(begin, begin + static_cast<int64_t>(
                                              rng->Uniform(6))),
        conf);
    edits.push_back(edit);
  }
  for (size_t i = 0; i < retracts && graph->NumLiveFacts() > 0; ++i) {
    // Pick a random live fact (facts inserted above are candidates too —
    // insert+retract of the same quad in one batch is a legal script).
    rdf::FactId id =
        static_cast<rdf::FactId>(rng->Uniform(graph->NumFacts()));
    while (!graph->is_live(id)) id = (id + 1) % graph->NumFacts();
    core::GraphEdit edit;
    edit.kind = core::GraphEdit::Kind::kRetract;
    edit.fact = graph->fact(id);
    // Avoid double-retracting the same quad within a batch (the second
    // application would match nothing and fail by design).
    bool duplicate = false;
    for (const core::GraphEdit& prev : edits) {
      if (prev.kind == core::GraphEdit::Kind::kRetract &&
          prev.fact.SameTriple(edit.fact) &&
          prev.fact.interval == edit.fact.interval) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) edits.push_back(edit);
  }
  return edits;
}

TEST(IncrementalResolve, RandomizedBatchesMatchFromScratch) {
  // Three independent incremental tracks (pools of 1/2/4) apply identical
  // edit batches; every track must match the sequential from-scratch
  // reference bit-for-bit after every batch — network included.
  const rules::RuleSet rules = FootballRules(/*with_inference=*/true);
  datagen::FootballDbOptions gen;
  gen.num_players = 150;
  gen.num_teams = 16;

  struct Track {
    std::unique_ptr<util::ThreadPool> pool;  // outlives the resolver
    datagen::GeneratedKg kg;
    std::unique_ptr<core::IncrementalResolver> resolver;
  };
  std::vector<std::unique_ptr<Track>> tracks;
  for (int threads : {1, 2, 4}) {
    auto track = std::make_unique<Track>();
    track->pool = std::make_unique<util::ThreadPool>(threads);
    track->kg = datagen::GenerateFootballDb(gen);
    core::ResolveOptions options;
    options.grounding.pool = options.mln.pool = options.psl.pool =
        track->pool.get();
    track->resolver = std::make_unique<core::IncrementalResolver>(
        &track->kg.graph, rules, options);
    auto init = track->resolver->Initialize();
    ASSERT_TRUE(init.ok()) << init.status().ToString();
    tracks.push_back(std::move(track));
  }

  Rng rng(20260730);
  for (int batch = 0; batch < 4; ++batch) {
    // Build the batch against track 0's graph; term ids are
    // dictionary-specific, so re-intern per track via the rendered form.
    std::vector<core::GraphEdit> edits = RandomBatch(
        &tracks[0]->kg.graph, &rng, /*inserts=*/3, /*retracts=*/2);

    std::vector<core::ResolveResult> results;
    for (std::unique_ptr<Track>& track : tracks) {
      std::vector<core::GraphEdit> local = edits;
      if (track != tracks[0]) {
        for (core::GraphEdit& edit : local) {
          const rdf::Dictionary& dict0 = tracks[0]->kg.graph.dict();
          edit.fact = rdf::TemporalFact(
              track->kg.graph.dict().Intern(dict0.Lookup(edit.fact.subject)),
              track->kg.graph.dict().Intern(
                  dict0.Lookup(edit.fact.predicate)),
              track->kg.graph.dict().Intern(dict0.Lookup(edit.fact.object)),
              edit.fact.interval, edit.fact.confidence);
        }
      }
      auto result = track->resolver->ApplyEdits(local);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      results.push_back(std::move(*result));
    }

    core::ResolveOptions scratch_options;
    core::ResolveResult scratch =
        ScratchResolve(tracks[0]->kg.graph, rules, scratch_options);
    const std::string scratch_net = ScratchNetworkRendering(
        tracks[0]->kg.graph, rules, ground::GroundingOptions());
    for (size_t t = 0; t < tracks.size(); ++t) {
      SCOPED_TRACE(StringPrintf("batch %d track %zu", batch, t));
      ExpectResolutionBitIdentical(results[t], tracks[t]->kg.graph, scratch);
      EXPECT_EQ(RenderNetwork(tracks[t]->resolver->network(),
                              tracks[t]->kg.graph.dict()),
                scratch_net);
    }
  }
}

TEST(IncrementalResolve, PureInsertionFastPathIsBitIdentical) {
  // Insert-only batches on a constraint-only rule set take the O(remap)
  // fast path (block rotation instead of full rebuild) — it must be just
  // as bit-identical as the general path, network layout included.
  const rules::RuleSet rules = FootballRules(/*with_inference=*/false);
  datagen::FootballDbOptions gen;
  gen.num_players = 120;
  datagen::GeneratedKg kg = datagen::GenerateFootballDb(gen);
  core::IncrementalResolver resolver(&kg.graph, rules,
                                     core::ResolveOptions());
  ASSERT_TRUE(resolver.Initialize().ok());

  Rng rng(99);
  for (int batch = 0; batch < 3; ++batch) {
    SCOPED_TRACE(batch);
    std::vector<core::GraphEdit> edits =
        RandomBatch(&kg.graph, &rng, /*inserts=*/4, /*retracts=*/0);
    auto result = resolver.ApplyEdits(edits);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(resolver.last_update_stats().fast_path);
    core::ResolveResult scratch =
        ScratchResolve(kg.graph, rules, core::ResolveOptions());
    ExpectResolutionBitIdentical(*result, kg.graph, scratch);
    EXPECT_EQ(RenderNetwork(resolver.network(), kg.graph.dict()),
              ScratchNetworkRendering(kg.graph, rules,
                                      ground::GroundingOptions()));
  }
  // A later retraction (slow path) over fast-path-maintained state must
  // keep the contract too — the two paths have to compose.
  std::vector<core::GraphEdit> edits =
      RandomBatch(&kg.graph, &rng, /*inserts=*/1, /*retracts=*/3);
  auto result = resolver.ApplyEdits(edits);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  core::ResolveResult scratch =
      ScratchResolve(kg.graph, rules, core::ResolveOptions());
  ExpectResolutionBitIdentical(*result, kg.graph, scratch);
  EXPECT_EQ(RenderNetwork(resolver.network(), kg.graph.dict()),
            ScratchNetworkRendering(kg.graph, rules,
                                    ground::GroundingOptions()));
}

TEST(IncrementalResolve, RetractAndRederiveInOneBatch) {
  // DRed resurrection: the only fact deriving a worksFor atom is retracted
  // while another fact deriving the same atom is inserted in the same
  // batch — the sweep must keep the atom alive through the new support.
  const rules::RuleSet rules = FootballRules(/*with_inference=*/true);
  auto graph = rdf::ParseGraphText(R"(
    CR playsFor Palermo [1984,1986] 0.5 .
    Palermo locatedIn Italy [1900,2020] 1.0 .
  )");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  rdf::TemporalGraph kg = std::move(*graph);

  core::IncrementalResolver resolver(&kg, rules, core::ResolveOptions());
  auto init = resolver.Initialize();
  ASSERT_TRUE(init.ok()) << init.status().ToString();
  ASSERT_FALSE(init->derived_facts.empty());  // worksFor/livesIn derived

  auto edits = core::ParseEditScript(R"(
    - CR playsFor Palermo [1984,1986] .
    + CR playsFor Palermo [1984,1986] 0.7 .
  )",
                                     &kg);
  ASSERT_TRUE(edits.ok()) << edits.status().ToString();
  auto result = resolver.ApplyEdits(*edits);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  core::ResolveResult scratch =
      ScratchResolve(kg, rules, core::ResolveOptions());
  ExpectResolutionBitIdentical(*result, kg, scratch);
  EXPECT_EQ(RenderNetwork(resolver.network(), kg.dict()),
            ScratchNetworkRendering(kg, rules, ground::GroundingOptions()));
}

TEST(IncrementalResolve, DuplicateQuadSupportMergesAndSplits) {
  // Two facts share a quad (their priors merge into one evidence atom);
  // retracting one must leave the atom alive with the other's prior,
  // bit-exactly as a fresh run would seed it.
  const rules::RuleSet rules = FootballRules(/*with_inference=*/false);
  auto graph = rdf::ParseGraphText(R"(
    CR coach Chelsea [2000,2004] 0.9 .
    CR coach Chelsea [2000,2004] 0.6 .
    CR coach Napoli [2001,2003] 0.6 .
  )");
  ASSERT_TRUE(graph.ok());
  rdf::TemporalGraph kg = std::move(*graph);
  core::IncrementalResolver resolver(&kg, rules, core::ResolveOptions());
  ASSERT_TRUE(resolver.Initialize().ok());

  // Retraction by quad tombstones *both* duplicates; re-insert one.
  auto edits = core::ParseEditScript(R"(
    - CR coach Chelsea [2000,2004] .
    + CR coach Chelsea [2000,2004] 0.6 .
  )",
                                     &kg);
  ASSERT_TRUE(edits.ok()) << edits.status().ToString();
  auto result = resolver.ApplyEdits(*edits);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(kg.NumLiveFacts(), 2u);

  core::ResolveResult scratch =
      ScratchResolve(kg, rules, core::ResolveOptions());
  ExpectResolutionBitIdentical(*result, kg, scratch);
  EXPECT_EQ(RenderNetwork(resolver.network(), kg.dict()),
            ScratchNetworkRendering(kg, rules, ground::GroundingOptions()));
}

TEST(IncrementalResolve, PslBackendSplicesToo) {
  const rules::RuleSet rules = FootballRules(/*with_inference=*/false);
  datagen::FootballDbOptions gen;
  gen.num_players = 100;
  datagen::GeneratedKg kg = datagen::GenerateFootballDb(gen);

  core::ResolveOptions options;
  options.solver = rules::SolverKind::kPsl;
  core::IncrementalResolver resolver(&kg.graph, rules, options);
  ASSERT_TRUE(resolver.Initialize().ok());

  Rng rng(7);
  auto edits = RandomBatch(&kg.graph, &rng, 2, 2);
  auto result = resolver.ApplyEdits(edits);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->spliced_components, 0u);

  core::ResolveResult scratch = ScratchResolve(kg.graph, rules, options);
  ExpectResolutionBitIdentical(*result, kg.graph, scratch);
}

TEST(IncrementalResolve, SessionAppliesEditScriptsAndSplices) {
  core::Session session;
  datagen::FootballDbOptions gen;
  gen.num_players = 200;
  session.SetGraph(std::move(datagen::GenerateFootballDb(gen).graph));
  session.AddRules(FootballRules(/*with_inference=*/false));

  core::ResolveOptions options;
  auto first = session.ApplyEditScript(
      "+ playerX playsFor teamY [2001,2005] 0.85 .\n", options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // Second edit: nearly every component is clean and spliced.
  auto second = session.ApplyEditScript(
      "+ playerX playsFor teamZ [2003,2007] 0.4 . # overlapping spell\n",
      options);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT(second->spliced_components, 0u);
  EXPECT_LT(second->dirty_components, second->num_components / 4 + 8);

  core::ResolveResult scratch =
      ScratchResolve(session.graph(), session.rules(), options);
  ExpectResolutionBitIdentical(*second, session.graph(), scratch);

  // Retracting a fact that does not exist is a script error — and the
  // batch is atomic: the valid insert before the bad retract must NOT
  // leak into the graph.
  const size_t live_before = session.graph().NumLiveFacts();
  const uint64_t epoch_before = session.graph().edit_epoch();
  auto bad = session.ApplyEditScript(
      "+ playerY playsFor teamQ [1999,2001] 0.5 .\n"
      "- nosuch fact here [1,2] .\n",
      options);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(session.graph().NumLiveFacts(), live_before);
  EXPECT_EQ(session.graph().edit_epoch(), epoch_before);
  // Retract-after-insert of the same quad within one batch is legal.
  auto churn = session.ApplyEditScript(
      "+ playerY playsFor teamQ [1999,2001] 0.5 .\n"
      "- playerY playsFor teamQ [1999,2001] .\n",
      options);
  ASSERT_TRUE(churn.ok()) << churn.status().ToString();
  EXPECT_EQ(session.graph().NumLiveFacts(), live_before);
}

TEST(IncrementalResolve, EditScriptParsing) {
  rdf::TemporalGraph graph;
  auto edits = core::ParseEditScript(R"(
    # comment line
    + a p b [1,5] 0.75 .
    - c p d [2]      # retract, trailing comment
  )",
                                     &graph);
  ASSERT_TRUE(edits.ok()) << edits.status().ToString();
  ASSERT_EQ(edits->size(), 2u);
  EXPECT_EQ((*edits)[0].kind, core::GraphEdit::Kind::kInsert);
  EXPECT_DOUBLE_EQ((*edits)[0].fact.confidence, 0.75);
  EXPECT_EQ((*edits)[1].kind, core::GraphEdit::Kind::kRetract);
  EXPECT_EQ((*edits)[1].fact.interval, temporal::Interval(2, 2));

  auto bad = core::ParseEditScript("a p b [1,2] .\n", &graph);
  EXPECT_FALSE(bad.ok());  // missing +/- prefix
}

}  // namespace
}  // namespace tecore
