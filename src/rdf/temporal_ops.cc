#include "rdf/temporal_ops.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <unordered_map>

#include "temporal/interval_set.h"

namespace tecore {
namespace rdf {

namespace {

using TripleKey = std::tuple<TermId, TermId, TermId>;

struct TripleKeyHash {
  size_t operator()(const TripleKey& key) const {
    uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](uint64_t v) {
      h ^= v;
      h *= 1099511628211ULL;
    };
    mix(std::get<0>(key));
    mix(std::get<1>(key));
    mix(std::get<2>(key));
    return static_cast<size_t>(h);
  }
};

}  // namespace

TemporalGraph Coalesce(const TemporalGraph& graph, CoalesceConfidence policy,
                       size_t* merged_away) {
  // Bucket facts by triple.
  std::unordered_map<TripleKey, std::vector<FactId>, TripleKeyHash> buckets;
  for (FactId id = 0; id < graph.NumFacts(); ++id) {
    const TemporalFact& f = graph.fact(id);
    buckets[{f.subject, f.predicate, f.object}].push_back(id);
  }
  TemporalGraph out;
  // Deterministic output order: iterate facts, emit each triple's merged
  // spells when its first fact is reached.
  std::unordered_map<TripleKey, bool, TripleKeyHash> done;
  for (FactId id = 0; id < graph.NumFacts(); ++id) {
    const TemporalFact& f = graph.fact(id);
    TripleKey key{f.subject, f.predicate, f.object};
    if (done[key]) continue;
    done[key] = true;
    const auto& bucket = buckets[key];
    // Sort the triple's spells and sweep-merge, combining confidences.
    std::vector<FactId> sorted = bucket;
    std::sort(sorted.begin(), sorted.end(), [&graph](FactId a, FactId b) {
      return graph.fact(a).interval < graph.fact(b).interval;
    });
    auto combine = [policy](double a, double b) {
      return policy == CoalesceConfidence::kMax
                 ? std::max(a, b)
                 : 1.0 - (1.0 - a) * (1.0 - b);
    };
    temporal::Interval current = graph.fact(sorted[0]).interval;
    double confidence = graph.fact(sorted[0]).confidence;
    auto emit = [&]() {
      // s, p, o order: as constructor arguments it is the compiler's.
      const TermId s = out.dict().Intern(graph.dict().Lookup(f.subject));
      const TermId p = out.dict().Intern(graph.dict().Lookup(f.predicate));
      const TermId o = out.dict().Intern(graph.dict().Lookup(f.object));
      Result<FactId> added =
          out.Add(TemporalFact(s, p, o, current, std::min(confidence, 1.0)));
      (void)added;
    };
    for (size_t i = 1; i < sorted.size(); ++i) {
      const TemporalFact& next = graph.fact(sorted[i]);
      if (next.interval.begin() <= current.end() + 1) {
        current = temporal::Interval(
            current.begin(), std::max(current.end(), next.interval.end()));
        confidence = combine(confidence, next.confidence);
      } else {
        emit();
        current = next.interval;
        confidence = next.confidence;
      }
    }
    emit();
  }
  if (merged_away != nullptr) {
    *merged_away = graph.NumFacts() - out.NumFacts();
  }
  return out;
}

namespace {

/// Canonical string key of a quad for cross-graph comparison (dictionaries
/// differ between graphs, so ids are not comparable).
std::string QuadKeyOf(const TemporalGraph& graph, const TemporalFact& fact) {
  return graph.dict().Lookup(fact.subject).ToString() + "\x1f" +
         graph.dict().Lookup(fact.predicate).ToString() + "\x1f" +
         graph.dict().Lookup(fact.object).ToString() + "\x1f" +
         fact.interval.ToString();
}

}  // namespace

GraphDiff DiffGraphs(const TemporalGraph& before, const TemporalGraph& after) {
  GraphDiff diff;
  std::unordered_map<std::string, FactId> before_index;
  for (FactId id = 0; id < before.NumFacts(); ++id) {
    before_index.emplace(QuadKeyOf(before, before.fact(id)), id);
  }
  std::unordered_map<std::string, FactId> after_index;
  for (FactId id = 0; id < after.NumFacts(); ++id) {
    const TemporalFact& fact = after.fact(id);
    const std::string key = QuadKeyOf(after, fact);
    after_index.emplace(key, id);
    auto it = before_index.find(key);
    if (it == before_index.end()) {
      diff.added.push_back(fact);
    } else if (before.fact(it->second).confidence != fact.confidence) {
      diff.rescored.emplace_back(before.fact(it->second), fact);
    }
  }
  for (FactId id = 0; id < before.NumFacts(); ++id) {
    if (after_index.find(QuadKeyOf(before, before.fact(id))) ==
        after_index.end()) {
      diff.removed.push_back(before.fact(id));
    }
  }
  return diff;
}

std::vector<std::pair<TermId, int64_t>> TemporalCoverage(
    const TemporalGraph& graph) {
  std::map<TermId, temporal::IntervalSet> coverage;
  for (const TemporalFact& fact : graph.facts()) {
    coverage[fact.predicate].Add(fact.interval);
  }
  std::vector<std::pair<TermId, int64_t>> out;
  out.reserve(coverage.size());
  for (const auto& [pred, set] : coverage) {
    out.emplace_back(pred, set.TotalDuration());
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  return out;
}

}  // namespace rdf
}  // namespace tecore
