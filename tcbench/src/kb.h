// Seeded inputs for the workloads — generated `.tq` documents, rule
// texts and edit scripts — plus the in-process references the output
// checks compare against.
#ifndef TCBENCH_KB_H_
#define TCBENCH_KB_H_

#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/resolver.h"
#include "rdf/graph.h"
#include "rules/ast.h"

namespace tcbench {

/// FootballDB `.tq` text (paper size at 6,500 players).
std::string FootballText(size_t players, uint64_t seed);
/// Wikidata-mix `.tq` text at Fig. 8 scale (243,157 facts).
std::string WikidataText(uint64_t seed);

std::string FootballConstraintsText();
std::string FootballRulesAndConstraintsText();
std::string WikidataConstraintsText();

/// Seeded edit-script stream over a KB's live facts: batches of 1, 4 or
/// 16 facts; about half the batches retract live facts, the rest insert
/// new ones. Every retraction names a fact live at that point, so no
/// batch fails.
class EditStream {
 public:
  using InsertFn = std::function<std::string(std::mt19937_64*)>;
  /// `text` is the KB's `.tq` document; `retractable` filters which live
  /// facts may be retracted (by line); `insert` makes one new fact line.
  EditStream(const std::string& text, uint64_t seed,
             std::function<bool(const std::string&)> retractable,
             InsertFn insert);
  std::string Next();
  /// Payload bytes across all scripts so far.
  size_t script_bytes() const { return script_bytes_; }

 private:
  void AddLive(const std::string& key);
  std::string TakeLive();

  std::mt19937_64 rng_;
  std::function<bool(const std::string&)> retractable_;
  InsertFn insert_;
  std::vector<std::string> live_;
  std::unordered_map<std::string, int> count_;
  size_t script_bytes_ = 0;
};

/// New FootballDB `playsFor` facts about the KB's players.
EditStream::InsertFn FootballInsert(size_t players);

/// Applies one edit script to `graph` (reference side).
void ApplyScript(tecore::rdf::TemporalGraph* graph, const std::string& script);

/// The graph `text` with `scripts` applied in order (reference side).
tecore::rdf::TemporalGraph ApplyScripts(
    const std::string& text, const std::vector<std::string>& scripts);

/// Conflict count of `graph` under `rules_text` (detection semantics).
int64_t CountConflicts(tecore::rdf::TemporalGraph* graph,
                       const std::string& rules_text);

/// From-scratch core::Resolver::Run on `graph`.
tecore::core::ResolveResult ResolveFromScratch(
    tecore::rdf::TemporalGraph* graph, const std::string& rules_text,
    tecore::rules::SolverKind solver);

/// The `objective` field of a solve/edits response, parsed back to the
/// exact double it was rendered from; NaN when absent.
double ObjectiveOf(const std::string& body);

}  // namespace tcbench

#endif  // TCBENCH_KB_H_
