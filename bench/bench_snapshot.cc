// Snapshot publish latency: copy-on-write fork vs deep clone.
//
// The service layer publishes an immutable snapshot after every write.
// Pre-COW, that cost a DeepCopy of the whole graph — O(graph) per edit,
// which dominates small interactive edits. The chunked columnar store
// makes publish a Clone(): O(#chunks) pointer copies, with later
// mutations copying only the chunks they touch. This bench runs
// edit-then-publish cycles at several batch sizes and compares the two
// publish strategies on the same evolving graph, plus the matching
// statistics paths (incremental accumulator emit vs from-scratch scan).
//
// `--smoke` shrinks the workload for CI.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "kb/statistics.h"
#include "rdf/graph.h"
#include "temporal/interval.h"
#include "util/csv.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {
using namespace tecore;  // NOLINT

/// Apply `k` mutations (2/3 inserts, 1/3 retractions) to `graph`,
/// feeding `acc` the way the engine's mutation observer does.
void ApplyEdits(rdf::TemporalGraph* graph, kb::StatsAccumulator* acc,
                Rng* rng, size_t k, uint64_t* serial) {
  for (size_t i = 0; i < k; ++i) {
    if (i % 3 != 2 || graph->NumLiveFacts() == 0) {
      const int64_t begin = static_cast<int64_t>(rng->Uniform(100));
      auto id = graph->AddQuad(
          "player" + std::to_string(rng->Uniform(50000)), "playsFor",
          "team" + std::to_string((*serial)++),
          temporal::Interval(begin, begin + 3),
          static_cast<double>(1 + rng->Uniform(255)) / 256.0);
      if (!id.ok()) continue;
      acc->OnInsert(graph->fact(*id));
    } else {
      rdf::FactId id =
          static_cast<rdf::FactId>(rng->Uniform(graph->NumFacts()));
      while (!graph->is_live(id)) id = (id + 1) % graph->NumFacts();
      const rdf::TemporalFact fact = graph->fact(id);
      if (graph->Retract(id).ok()) acc->OnRetract(fact);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }

  const size_t num_facts = smoke ? 20000 : 100000;
  const int iters = smoke ? 10 : 40;

  rdf::TemporalGraph graph;
  kb::StatsAccumulator acc;
  Rng rng(20260808);
  uint64_t serial = 0;
  {
    uint64_t seed_serial = 0;
    for (size_t i = 0; i < num_facts; ++i) {
      const int64_t begin = static_cast<int64_t>(i % 100);
      auto added = graph.AddQuad(
          "player" + std::to_string(i % 50000), "playsFor",
          "team" + std::to_string(seed_serial++),
          temporal::Interval(begin, begin + 3),
          static_cast<double>(1 + (i % 255)) / 256.0);
      if (!added.ok()) {
        std::fprintf(stderr, "%s\n", added.status().ToString().c_str());
        return 1;
      }
    }
    serial = seed_serial;
  }
  acc.SeedFrom(graph);
  std::printf("graph: %zu facts in %zu chunks of %zu\n\n",
              graph.NumLiveFacts(), graph.NumChunks(),
              rdf::TemporalGraph::kChunkSize);

  Table table({"edit batch", "facts", "chunks", "clone ms", "cow ms",
               "speedup", "chunks copied/cycle"});
  bool shape_ok = true;
  double single_edit_speedup = 0.0;
  for (size_t k : std::vector<size_t>{1, 16, 256}) {
    // Deep-clone publish cycles (the pre-COW semantics): edit k facts,
    // then DeepCopy the whole graph as the frozen snapshot.
    std::vector<rdf::TemporalGraph> deep_snaps;
    deep_snaps.reserve(static_cast<size_t>(iters));
    Timer deep_timer;
    for (int it = 0; it < iters; ++it) {
      ApplyEdits(&graph, &acc, &rng, k, &serial);
      deep_snaps.push_back(graph.DeepCopy());
    }
    const double deep_ms = deep_timer.ElapsedMillis() / iters;
    deep_snaps.clear();

    // COW publish cycles: the same edits, snapshot = Clone(). Snapshots
    // stay alive across the loop (the retention ring does too), so every
    // cycle pays the real copy-on-write cost of mutating shared chunks.
    std::vector<rdf::TemporalGraph> cow_snaps;
    cow_snaps.reserve(static_cast<size_t>(iters));
    const uint64_t copies_before = graph.chunk_copies();
    Timer cow_timer;
    for (int it = 0; it < iters; ++it) {
      ApplyEdits(&graph, &acc, &rng, k, &serial);
      cow_snaps.push_back(graph.Clone());
    }
    const double cow_ms = cow_timer.ElapsedMillis() / iters;
    const double copied_per_cycle =
        static_cast<double>(graph.chunk_copies() - copies_before) / iters;
    cow_snaps.clear();

    const double speedup = deep_ms / cow_ms;
    if (k == 1) single_edit_speedup = speedup;
    table.AddRow({std::to_string(k), std::to_string(graph.NumLiveFacts()),
                  std::to_string(graph.NumChunks()),
                  StringPrintf("%.3f", deep_ms),
                  StringPrintf("%.3f", cow_ms),
                  StringPrintf("%.1fx", speedup),
                  StringPrintf("%.1f", copied_per_cycle)});
  }
  std::printf("%s\n", table.ToAscii().c_str());

  // The statistics half of publish: incremental accumulator emit vs a
  // from-scratch scan, and the bit-identity the exact sums guarantee.
  Timer emit_timer;
  kb::GraphStatistics incremental_stats = acc.Emit(graph);
  const double emit_ms = emit_timer.ElapsedMillis();
  Timer scan_timer;
  kb::GraphStatistics scratch_stats = kb::ComputeStatistics(graph);
  const double scan_ms = scan_timer.ElapsedMillis();
  const bool stats_match =
      incremental_stats.mean_confidence == scratch_stats.mean_confidence &&
      incremental_stats.mean_interval_duration ==
          scratch_stats.mean_interval_duration &&
      incremental_stats.num_facts == scratch_stats.num_facts;
  std::printf("stats: emit %.3f ms vs scan %.3f ms (bit-identical: %s)\n",
              emit_ms, scan_ms, stats_match ? "yes" : "NO");

  shape_ok = stats_match && single_edit_speedup >= 5.0;
  std::printf("shape (single-fact edit publish >= 5x faster than deep "
              "clone): %s (%.1fx)\n",
              single_edit_speedup >= 5.0 ? "MATCH" : "MISMATCH",
              single_edit_speedup);
  return shape_ok ? 0 : 1;
}
