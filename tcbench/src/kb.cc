#include "kb.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "core/conflict.h"
#include "core/edits.h"
#include "datagen/generators.h"
#include "harness.h"
#include "rdf/io.h"
#include "rules/library.h"
#include "rules/parser.h"
#include "util/json.h"

namespace tcbench {

using namespace tecore;  // NOLINT

namespace {

/// `s p o [b,e]` of a `.tq` line — the key a retraction matches on.
std::string KeyOf(const std::string& line) {
  const size_t close = line.find(']');
  return close == std::string::npos ? line : line.substr(0, close + 1);
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::string FactLine(const std::string& s, const std::string& p,
                     const std::string& o, int begin, int end, double conf) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s %s %s [%d,%d] %.4f .", s.c_str(),
                p.c_str(), o.c_str(), begin, end, conf);
  return buf;
}

}  // namespace

std::string FootballText(size_t players, uint64_t seed) {
  datagen::FootballDbOptions options;
  options.num_players = players;
  options.seed = seed;
  return rdf::WriteGraphText(datagen::GenerateFootballDb(options).graph);
}

std::string WikidataText(uint64_t seed) {
  datagen::WikidataOptions options;
  options.seed = seed;
  return rdf::WriteGraphText(datagen::GenerateWikidata(options).graph);
}

std::string FootballConstraintsText() {
  return rules::WriteRulesText(
      OrDie(rules::FootballConstraints(), "football constraints"));
}

std::string FootballRulesAndConstraintsText() {
  rules::RuleSet set = OrDie(rules::FootballConstraints(), "constraints");
  set.Merge(OrDie(rules::FootballInferenceRules(), "inference rules"));
  return rules::WriteRulesText(set);
}

std::string WikidataConstraintsText() {
  return rules::WriteRulesText(
      OrDie(rules::WikidataConstraints(), "wikidata constraints"));
}

// ----------------------------------------------------------- EditStream

EditStream::EditStream(const std::string& text, uint64_t seed,
                       std::function<bool(const std::string&)> retractable,
                       InsertFn insert)
    : rng_(seed), retractable_(std::move(retractable)),
      insert_(std::move(insert)) {
  for (const std::string& line : SplitLines(text)) {
    if (retractable_(line)) AddLive(KeyOf(line));
  }
}

void EditStream::AddLive(const std::string& key) {
  live_.push_back(key);
  ++count_[key];
}

std::string EditStream::TakeLive() {
  const size_t i = rng_() % live_.size();
  const std::string key = live_[i];
  // A retraction tombstones every live copy of the key.
  if (count_[key] == 1) {
    live_[i] = live_.back();
    live_.pop_back();
  } else {
    size_t w = 0;
    for (size_t r = 0; r < live_.size(); ++r) {
      if (live_[r] != key) live_[w++] = live_[r];
    }
    live_.resize(w);
  }
  count_.erase(key);
  return key;
}

std::string EditStream::Next() {
  static const size_t kSizes[] = {1, 4, 16};
  const size_t n = kSizes[rng_() % 3];
  // Half the batches retract n live facts, half insert n new ones, so the
  // KB's live size random-walks around its start instead of drifting.
  const bool retracting = rng_() % 2 == 0 && live_.size() > n;
  std::string script;
  for (size_t i = 0; i < n; ++i) {
    if (retracting) {
      script += "- " + TakeLive() + " .\n";
    } else {
      script += "+ " + insert_(&rng_) + "\n";
    }
  }
  // Inserted facts become retractable by later batches only.
  if (!retracting) {
    size_t start = 0;
    while (start < script.size()) {
      const size_t end = script.find('\n', start);
      const std::string line = script.substr(start + 2, end - start - 2);
      if (retractable_(line)) AddLive(KeyOf(line));
      start = end + 1;
    }
  }
  script_bytes_ += script.size();
  return script;
}

EditStream::InsertFn FootballInsert(size_t players) {
  return [players](std::mt19937_64* rng) {
    char player[32], team[32];
    std::snprintf(player, sizeof(player), "Player%05zu",
                  static_cast<size_t>((*rng)() % players));
    std::snprintf(team, sizeof(team), "Team%03d",
                  static_cast<int>((*rng)() % 48));
    const int begin = 1960 + static_cast<int>((*rng)() % 53);
    const int end = begin + static_cast<int>((*rng)() % 6);
    const double conf =
        0.3 + 0.65 * std::uniform_real_distribution<double>(0, 1)(*rng);
    return FactLine(player, "playsFor", team, begin, end, conf);
  };
}

// ----------------------------------------------------------- references

void ApplyScript(rdf::TemporalGraph* graph, const std::string& script) {
  auto edits = OrDie(core::ParseEditScript(script, graph), "parse edits");
  OrDie(core::ApplyGraphEdits(edits, graph), "apply edits");
}

rdf::TemporalGraph ApplyScripts(const std::string& text,
                                const std::vector<std::string>& scripts) {
  rdf::TemporalGraph graph = OrDie(rdf::ParseGraphText(text), "parse kb");
  for (const std::string& script : scripts) ApplyScript(&graph, script);
  return graph;
}

int64_t CountConflicts(rdf::TemporalGraph* graph,
                       const std::string& rules_text) {
  rules::RuleSet rules = OrDie(rules::ParseRules(rules_text), "parse rules");
  core::ConflictDetector detector(graph, rules);
  return static_cast<int64_t>(
      OrDie(detector.Detect(), "detect").conflicts.size());
}

core::ResolveResult ResolveFromScratch(rdf::TemporalGraph* graph,
                                       const std::string& rules_text,
                                       rules::SolverKind solver) {
  rules::RuleSet rules = OrDie(rules::ParseRules(rules_text), "parse rules");
  core::ResolveOptions options;
  options.solver = solver;
  core::Resolver resolver(graph, rules, options);
  return OrDie(resolver.Run(), "resolve");
}

double ObjectiveOf(const std::string& body) {
  auto json = util::Json::Parse(body);
  if (!json.ok()) return std::nan("");
  const util::Json* objective = json->Find("objective");
  return objective == nullptr ? std::nan("") : objective->number_value();
}

}  // namespace tcbench
