// The traced run's in-process layer profile: times calls into each
// module's public functions on the workload's own KB and edit scripts,
// recording one span per call, and reports the per-layer metrics that a
// module call (rather than a server scrape) defines.
#include "layers.h"

#include <stdexcept>

#include "api/engine.h"
#include "api/registry.h"
#include "core/conflict.h"
#include "core/edits.h"
#include "ground/grounder.h"
#include "mine/miner.h"
#include "mln/solver.h"
#include "obs/metrics.h"
#include "psl/solver.h"
#include "rdf/io.h"
#include "rules/parser.h"
#include "storage/wal.h"

namespace tcbench {

using namespace tecore;  // NOLINT

namespace {

double StageSumUs(const char* stage) {
  return static_cast<double>(obs::StageHistogram(stage)->Snap().sum);
}

uint64_t CounterValue(const char* name) {
  return obs::Registry::Default()->GetCounter(name)->Value();
}

/// Times `fn` under a span named `name` (child of `parent`); returns
/// seconds.
template <typename Fn>
double Timed(Tracer* tracer, const std::string& name, uint64_t request,
             uint64_t parent, Fn&& fn) {
  const double start = Now();
  fn();
  const double end = Now();
  tracer->Record(name, request, parent, start, end);
  return end - start;
}

}  // namespace

void ProfileModules(const LayerInput& in, Report* report, Tracer* tracer) {
  const uint64_t request = tracer->NewRequest();
  const rules::RuleSet rules =
      OrDie(rules::ParseRules(in.rules_text), "parse rules");

  // rdf: whole-document parse.
  Samples parse_ms;
  rdf::TemporalGraph graph;
  for (int i = 0; i < 3; ++i) {
    parse_ms.Add(1e3 * Timed(tracer, "profile.rdf.parse", request, 0, [&]() {
      graph = OrDie(rdf::ParseGraphText(in.graph_text), "parse graph");
    }));
  }
  report->Metric("rdf.parse_ms", parse_ms.Median(), "ms", parse_ms.size());
  report->Metric("rdf.parse_mb_per_s",
                 in.graph_text.size() / 1e6 / (parse_ms.Median() / 1e3),
                 "MB/s", parse_ms.size());

  // ground: full grounding, canonicalization inside it.
  const double canon_before = StageSumUs("canonicalize");
  ground::GroundingResult grounding;
  const double ground_s =
      Timed(tracer, "profile.ground.full", request, 0, [&]() {
        ground::Grounder grounder(&graph, rules);
        grounding = OrDie(grounder.Run(), "ground");
      });
  report->Metric("ground.full_ms", 1e3 * ground_s, "ms", 1);
  report->Metric("ground.canonicalize_ms",
                 (StageSumUs("canonicalize") - canon_before) / 1e3, "ms", 1);
  report->Metric("ground.atoms",
                 static_cast<double>(grounding.network.NumAtoms()), "count",
                 1);
  report->Metric("ground.clauses",
                 static_cast<double>(grounding.network.NumClauses()), "count",
                 1);

  // mln / psl: MAP over the same network.
  mln::MlnSolution mln_solution;
  const double mln_s = Timed(tracer, "profile.mln.solve", request, 0, [&]() {
    mln::MlnMapSolver solver(grounding.network);
    mln_solution = OrDie(solver.Solve(), "mln solve");
  });
  report->Metric("mln.solve_ms", 1e3 * mln_s, "ms", 1);
  report->Metric("mln.components",
                 static_cast<double>(mln_solution.num_components), "count", 1);
  report->Metric("mln.largest_component",
                 static_cast<double>(mln_solution.largest_component), "count",
                 1);
  report->Metric("mln.search_steps",
                 static_cast<double>(mln_solution.search_steps), "count", 1);
  // PSL runs on its own KB when the workload solves a different one with
  // it (resolve_batch: FootballDB F u C).
  ground::GroundingResult psl_grounding;
  rdf::TemporalGraph psl_graph;
  if (!in.psl_graph_text.empty()) {
    psl_graph = OrDie(rdf::ParseGraphText(in.psl_graph_text), "parse graph");
    const rules::RuleSet psl_rules =
        OrDie(rules::ParseRules(in.psl_rules_text), "parse rules");
    ground::Grounder grounder(&psl_graph, psl_rules);
    psl_grounding = OrDie(grounder.Run(), "ground");
  }
  const ground::GroundNetwork& psl_network = in.psl_graph_text.empty()
                                                 ? grounding.network
                                                 : psl_grounding.network;
  psl::PslSolution psl_solution;
  const double psl_s = Timed(tracer, "profile.psl.solve", request, 0, [&]() {
    psl::PslSolver solver(psl_network);
    psl_solution = OrDie(solver.Solve(), "psl solve");
  });
  report->Metric("psl.solve_ms", 1e3 * psl_s, "ms", 1);
  report->Metric("psl.admm_iterations",
                 static_cast<double>(psl_solution.admm_iterations), "count",
                 1);
  report->Metric("psl.repair_flips",
                 static_cast<double>(psl_solution.repair_flips), "count", 1);

  // core: uncached conflict detection.
  const double detect_s =
      Timed(tracer, "profile.core.detect", request, 0, [&]() {
        core::ConflictDetector detector(&graph, rules);
        OrDie(detector.Detect(), "detect");
      });
  report->Metric("core.detect_ms", 1e3 * detect_s, "ms", 1);

  // mine: one pass over the KB.
  mine::MiningReport mined;
  const double mine_s = Timed(tracer, "profile.mine.pass", request, 0, [&]() {
    mined = mine::Miner().Mine(graph);
  });
  report->Metric("mine.ms", 1e3 * mine_s, "ms", 1);
  report->Metric("mine.patterns_considered",
                 static_cast<double>(mined.patterns_considered), "count", 1);
  report->Metric("mine.emit_ratio",
                 mined.patterns_considered == 0
                     ? 0.0
                     : static_cast<double>(mined.rules.size()) /
                           mined.patterns_considered,
                 "ratio", 1);

}

void ProfileEdits(const LayerInput& in, Report* report, Tracer* tracer) {
  const uint64_t request = tracer->NewRequest();
  const rules::RuleSet rules =
      OrDie(rules::ParseRules(in.rules_text), "parse rules");
  // core + ground: incremental re-solve of the workload's edit scripts.
  core::ResolveOptions options;
  options.solver = in.solver;
  {
    rdf::TemporalGraph inc_graph =
        OrDie(rdf::ParseGraphText(in.graph_text), "parse graph");
    core::IncrementalResolver resolver(&inc_graph, rules, options);
    OrDie(resolver.Initialize(), "initialize");
    Samples apply_ms, delta_ms, rebuild_ms;
    double dirty = 0, spliced = 0, fast = 0;
    for (const std::string& script : in.scripts) {
      auto edits = OrDie(core::ParseEditScript(script, &inc_graph), "edits");
      core::ResolveResult result;
      apply_ms.Add(1e3 * Timed(tracer, "profile.core.apply_edits", request, 0,
                               [&]() {
                                 result = OrDie(resolver.ApplyEdits(edits),
                                                "apply edits");
                               }));
      const auto& stats = resolver.last_update_stats();
      delta_ms.Add(stats.delta_ground_ms);
      rebuild_ms.Add(stats.rebuild_ms);
      fast += stats.fast_path ? 1 : 0;
      dirty += static_cast<double>(result.dirty_components);
      spliced += static_cast<double>(result.spliced_components);
    }
    const double n = static_cast<double>(in.scripts.size());
    report->Metric("core.apply_edits_ms", apply_ms.Median(), "ms",
                   apply_ms.size());
    report->Metric("core.dirty_components", dirty / n, "count",
                   apply_ms.size());
    report->Metric("core.spliced_ratio",
                   spliced + dirty == 0 ? 0 : spliced / (spliced + dirty),
                   "ratio", apply_ms.size());
    report->Metric("ground.delta_ms", delta_ms.Median(), "ms", delta_ms.size());
    report->Metric("ground.rebuild_ms", rebuild_ms.Median(), "ms",
                   rebuild_ms.size());
    report->Metric("ground.fast_path_ratio", fast / n, "ratio",
                   apply_ms.size());
  }

  // api: the same scripts through the service facade, plus the read-path
  // lookups every request pays.
  {
    api::EngineRegistry registry;
    auto engine = OrDie(registry.Create("profile"), "create");
    OrDie(engine->LoadGraphText(in.graph_text), "load");
    OrDie(engine->AddRulesText(in.rules_text), "rules");
    OrDie(engine->Solve(options), "solve");
    OrDie(engine->snapshot()->DetectConflicts(), "warm conflicts");
    const auto counters_before = engine->cache_counters();
    const uint64_t copies_before =
        CounterValue("tecore_graph_chunk_copies_total");
    const uint64_t interned_before =
        CounterValue("tecore_dict_terms_interned_total");
    Samples edit_ms, publish_ms;
    for (const std::string& script : in.scripts) {
      const double publish_before = StageSumUs("publish");
      const uint64_t edit_request = tracer->NewRequest();
      const double start = Now();
      OrDie(engine->ApplyEditScript(script, options), "edit");
      const double end = Now();
      const uint64_t root =
          tracer->Record("profile.api.edit_call", edit_request, 0, start, end);
      const double publish_us = StageSumUs("publish") - publish_before;
      tracer->Record("profile.api.publish", edit_request, root,
                     end - publish_us / 1e6, end);
      edit_ms.Add(1e3 * (end - start));
      publish_ms.Add(publish_us / 1e3);
      // Readers re-detect after every publish unless the report carried.
      OrDie(engine->snapshot()->DetectConflicts(), "detect");
    }
    const auto counters = engine->cache_counters();
    const double n = static_cast<double>(in.scripts.size());
    report->Metric("api.edit_call_ms", edit_ms.Median(), "ms", edit_ms.size());
    report->Metric("api.publish_ms", publish_ms.Median(), "ms",
                   publish_ms.size());
    report->Metric(
        "api.conflict_cache_hit_ratio",
        (counters.conflict_carried - counters_before.conflict_carried) / n,
        "ratio", edit_ms.size());
    const double reused = static_cast<double>(
        counters.completion_reused - counters_before.completion_reused);
    const double rebuilt = static_cast<double>(
        counters.completion_rebuilt - counters_before.completion_rebuilt);
    report->Metric("api.completion_reuse_ratio",
                   reused + rebuilt == 0 ? 0 : reused / (reused + rebuilt),
                   "ratio", edit_ms.size());
    report->Metric(
        "rdf.chunk_copies_per_edit",
        (CounterValue("tecore_graph_chunk_copies_total") - copies_before) / n,
        "count", edit_ms.size());
    report->Metric("rdf.intern_misses_per_edit",
                   (CounterValue("tecore_dict_terms_interned_total") -
                    interned_before) /
                       n,
                   "count", edit_ms.size());

    Samples get_us, snap_us, snap_at_us;
    const uint64_t version = engine->version();
    for (int i = 0; i < 2000; ++i) {
      double t = Now();
      auto got = registry.Get("profile");
      get_us.Add(1e6 * (Now() - t));
      t = Now();
      auto snap = (*got)->snapshot();
      snap_us.Add(1e6 * (Now() - t));
      t = Now();
      auto at = (*got)->SnapshotAt(version - 1);
      snap_at_us.Add(1e6 * (Now() - t));
      if (!at.ok()) throw std::runtime_error("SnapshotAt failed");
    }
    report->Metric("api.registry_get_us", get_us.Median(), "us",
                   get_us.size());
    report->Metric("api.snapshot_us", snap_us.Median(), "us", snap_us.size());
    report->Metric("api.snapshot_at_us", snap_at_us.Median(), "us",
                   snap_at_us.size());
  }

  // storage: the scripts as WAL records, appended then fsynced.
  {
    storage::Wal wal;
    const std::string path = in.work_dir + "/profile.wal";
    if (!wal.Open(path).ok()) throw std::runtime_error("wal open " + path);
    Samples append_us, fsync_us;
    uint64_t version = 1;
    for (const std::string& script : in.scripts) {
      storage::WalRecord record;
      record.type = storage::WalRecordType::kEditBatch;
      record.version = version++;
      record.payload = script;
      append_us.Add(1e6 * Timed(tracer, "profile.storage.wal_append",
                                request, 0, [&]() {
                                  if (!wal.Append(record, false).ok()) {
                                    throw std::runtime_error("wal append");
                                  }
                                }));
      fsync_us.Add(1e6 * Timed(tracer, "profile.storage.fsync", request, 0,
                               [&]() {
                                 if (!wal.Sync().ok()) {
                                   throw std::runtime_error("wal sync");
                                 }
                               }));
    }
    report->Metric("storage.wal_append_us", append_us.Median(), "us",
                   append_us.size());
    report->Metric("storage.fsync_us", fsync_us.Median(), "us",
                   fsync_us.size());
  }
}

}  // namespace tcbench
