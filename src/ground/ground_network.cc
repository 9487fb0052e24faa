#include "ground/ground_network.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/metrics.h"
#include "util/string_util.h"

namespace tecore {
namespace ground {

namespace {
const std::vector<AtomId> kEmptyAtomList;

/// Content hash used for clause dedup (literals + weight class + origin).
uint64_t ClauseContentHash(const GroundClause& clause) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (int32_t lit : clause.literals) {
    mix(static_cast<uint64_t>(static_cast<int64_t>(lit)) + (1ULL << 40));
  }
  mix(clause.hard ? 1 : 0);
  if (!clause.hard) {
    mix(static_cast<uint64_t>(std::llround(clause.weight * 1e6)));
  }
  mix(static_cast<uint64_t>(static_cast<int64_t>(clause.rule_index)) +
      (1ULL << 20));
  return h;
}

}  // namespace

bool CanonicalClauseLess(const GroundClause& a, const GroundClause& b) {
  if (a.literals != b.literals) return a.literals < b.literals;
  if (a.rule_index != b.rule_index) return a.rule_index < b.rule_index;
  if (a.hard != b.hard) return a.hard;
  return a.weight < b.weight;
}

bool ClauseContentEquals(const GroundClause& a, const GroundClause& b) {
  return a.literals == b.literals && a.rule_index == b.rule_index &&
         a.hard == b.hard && a.weight == b.weight;
}

AtomId GroundNetwork::GetOrAddAtom(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                                   const temporal::Interval& iv,
                                   bool is_evidence, double prior_weight,
                                   rdf::FactId source_fact) {
  QuadKey key{s, p, o, iv.begin(), iv.end()};
  auto it = atom_index_.find(key);
  if (it != atom_index_.end()) {
    GroundAtom& existing = atoms_[it->second];
    if (is_evidence) {
      // Merge support from another input fact with the same quad.
      existing.prior_weight += prior_weight;
      if (!existing.is_evidence) {
        existing.is_evidence = true;
        existing.source_fact = source_fact;
      }
    }
    return it->second;
  }
  AtomId id = static_cast<AtomId>(atoms_.size());
  GroundAtom atom;
  atom.subject = s;
  atom.predicate = p;
  atom.object = o;
  atom.interval = iv;
  atom.is_evidence = is_evidence;
  atom.prior_weight = is_evidence ? prior_weight : 0.0;
  atom.source_fact = source_fact;
  atoms_.push_back(atom);
  atom_index_.emplace(key, id);
  by_pred_[p].push_back(id);
  by_pred_subject_[{p, s}].push_back(id);
  by_pred_object_[{p, o}].push_back(id);
  return id;
}

AtomId GroundNetwork::FindAtom(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                               const temporal::Interval& iv) const {
  QuadKey key{s, p, o, iv.begin(), iv.end()};
  auto it = atom_index_.find(key);
  return it == atom_index_.end() ? kInvalidAtomId : it->second;
}

bool GroundNetwork::NormalizeClause(GroundClause* clause) {
  // Normalize: sort, dedup, drop tautologies (p ∨ ¬p).
  std::sort(clause->literals.begin(), clause->literals.end());
  clause->literals.erase(
      std::unique(clause->literals.begin(), clause->literals.end()),
      clause->literals.end());
  for (size_t i = 0; i + 1 < clause->literals.size(); ++i) {
    if (clause->literals[i] == -clause->literals[i + 1] ||
        (clause->literals[i] < 0 &&
         std::binary_search(clause->literals.begin(), clause->literals.end(),
                            -clause->literals[i]))) {
      return false;  // tautology
    }
  }
  return !clause->literals.empty();
}

bool GroundNetwork::AddClause(GroundClause clause) {
  if (!NormalizeClause(&clause)) return false;
  // Dedup by content hash (includes weight class and origin).
  if (!clause_hashes_.insert(ClauseContentHash(clause)).second) return false;
  clauses_.push_back(std::move(clause));
  return true;
}

std::vector<AtomId> GroundNetwork::AtomsSince(AtomId since) const {
  std::vector<AtomId> out;
  for (AtomId id = since; id < atoms_.size(); ++id) out.push_back(id);
  return out;
}

const std::vector<AtomId>& GroundNetwork::AtomsWithPredicate(
    rdf::TermId p) const {
  auto it = by_pred_.find(p);
  return it == by_pred_.end() ? kEmptyAtomList : it->second;
}

const std::vector<AtomId>& GroundNetwork::AtomsWithPredSubject(
    rdf::TermId p, rdf::TermId s) const {
  auto it = by_pred_subject_.find({p, s});
  return it == by_pred_subject_.end() ? kEmptyAtomList : it->second;
}

const std::vector<AtomId>& GroundNetwork::AtomsWithPredObject(
    rdf::TermId p, rdf::TermId o) const {
  auto it = by_pred_object_.find({p, o});
  return it == by_pred_object_.end() ? kEmptyAtomList : it->second;
}

void GroundNetwork::AddPriorClauses(double derived_prior_weight) {
  for (AtomId id = 0; id < atoms_.size(); ++id) {
    const GroundAtom& atom = atoms_[id];
    GroundClause unit;
    unit.rule_index = -1;
    unit.hard = false;
    if (atom.is_evidence) {
      if (atom.prior_weight > 0) {
        unit.literals = {PositiveLiteral(id)};
        unit.weight = atom.prior_weight;
      } else if (atom.prior_weight < 0) {
        unit.literals = {NegativeLiteral(id)};
        unit.weight = -atom.prior_weight;
      } else {
        continue;  // confidence 0.5: indifferent
      }
    } else {
      if (derived_prior_weight <= 0) continue;
      unit.literals = {NegativeLiteral(id)};
      unit.weight = derived_prior_weight;
    }
    // Direct append: unit priors are already normalized, cannot be
    // tautologies, and cannot collide with rule clauses (rule_index -1) or
    // each other (one per atom) — skipping AddClause's dedup hashing
    // shaves a measurable slice off every (re)build.
    clauses_.push_back(std::move(unit));
  }
}

namespace {
/// Lexical sort key of one atom: dictionary-independent (two dictionaries
/// interning the same terms in different orders yield the same key order).
/// The terms are read through pointers into the dictionary's stable store.
struct AtomLexicalKey {
  const rdf::Term* s;
  const rdf::Term* p;
  const rdf::Term* o;
  int64_t begin, end;
  AtomId id;

  /// Lexical form, then kind. Distinct pointers are distinct terms.
  static int CompareTerms(const rdf::Term* a, const rdf::Term* b) {
    if (a == b) return 0;
    if (int c = a->lexical().compare(b->lexical()); c != 0) return c;
    return static_cast<int>(a->kind()) - static_cast<int>(b->kind());
  }

  bool operator<(const AtomLexicalKey& other) const {
    if (int c = CompareTerms(s, other.s); c != 0) return c < 0;
    if (int c = CompareTerms(p, other.p); c != 0) return c < 0;
    if (int c = CompareTerms(o, other.o); c != 0) return c < 0;
    if (begin != other.begin) return begin < other.begin;
    return end < other.end;
  }
};
}  // namespace

void SortAtomIdsLexical(const GroundNetwork& network,
                        const rdf::Dictionary& dict,
                        std::vector<AtomId>* ids) {
  std::vector<AtomLexicalKey> keys;
  keys.reserve(ids->size());
  for (AtomId id : *ids) {
    const GroundAtom& atom = network.atom(id);
    keys.push_back({&dict.Lookup(atom.subject), &dict.Lookup(atom.predicate),
                    &dict.Lookup(atom.object), atom.interval.begin(),
                    atom.interval.end(), id});
  }
  std::sort(keys.begin(), keys.end());
  for (size_t i = 0; i < keys.size(); ++i) (*ids)[i] = keys[i].id;
}

std::vector<AtomId> GroundNetwork::Canonicalize(const rdf::Dictionary& dict) {
  static const auto stage_hist = obs::StageHistogram("canonicalize");
  obs::ScopedTimer stage_timer(stage_hist);
  const AtomId n = static_cast<AtomId>(atoms_.size());
  // Evidence atoms are a prefix (seeded before any rule fires) and are
  // already canonically ordered: first-supporting-fact order.
  AtomId evidence_end = 0;
  while (evidence_end < n && atoms_[evidence_end].is_evidence) ++evidence_end;

  std::vector<AtomId> remap(n);
  for (AtomId id = 0; id < n; ++id) remap[id] = id;
  std::vector<AtomId> derived(remap.begin() + evidence_end, remap.end());
  SortAtomIdsLexical(*this, dict, &derived);
  bool identity = true;
  for (size_t i = 0; i < derived.size(); ++i) {
    remap[derived[i]] = evidence_end + static_cast<AtomId>(i);
    identity = identity && derived[i] == evidence_end + i;
  }

  // Unless the sort left the derived block in place, permute the atom
  // store and remap the indexes and literals in place (evidence ids are
  // fixed points). Literal order within a clause may change, and with it
  // the literal-dependent dedup hashes.
  if (!identity) {
    std::vector<GroundAtom> reordered(n);
    for (AtomId id = 0; id < n; ++id) reordered[remap[id]] = atoms_[id];
    atoms_ = std::move(reordered);
    RemapAtomIds(remap, evidence_end, evidence_end);
    clause_hashes_.clear();
    for (GroundClause& clause : clauses_) {
      std::sort(clause.literals.begin(), clause.literals.end());
      clause_hashes_.insert(ClauseContentHash(clause));
    }
  }
  SortClausesCanonical();
  return remap;
}

void GroundNetwork::RemapAtomIds(const std::vector<AtomId>& remap,
                                 AtomId fixed_end, AtomId unsorted_from) {
  for (auto& [key, id] : atom_index_) id = remap[id];
  auto remap_lists = [&](auto* index_map) {
    for (auto& [key, list] : *index_map) {
      if (list.empty() || list.back() < fixed_end) continue;
      const bool unsorted = list.back() >= unsorted_from;
      for (AtomId& id : list) id = remap[id];
      if (unsorted) std::sort(list.begin(), list.end());
    }
  };
  remap_lists(&by_pred_);
  remap_lists(&by_pred_subject_);
  remap_lists(&by_pred_object_);
  for (GroundClause& clause : clauses_) {
    for (int32_t& lit : clause.literals) {
      const AtomId atom = remap[LiteralAtom(lit)];
      lit = LiteralSign(lit) ? PositiveLiteral(atom) : NegativeLiteral(atom);
    }
  }
}

void GroundNetwork::SortClausesCanonical() {
  std::sort(clauses_.begin(), clauses_.end(), CanonicalClauseLess);
}

std::vector<AtomId> GroundNetwork::CanonicalizeAppendedEvidence(
    AtomId appended_begin) {
  static const auto stage_hist = obs::StageHistogram("canonicalize");
  obs::ScopedTimer stage_timer(stage_hist);
  const AtomId n = static_cast<AtomId>(atoms_.size());
  const AtomId k = n - appended_begin;
  std::vector<AtomId> remap(n);
  AtomId evidence_end = 0;
  while (evidence_end < appended_begin && atoms_[evidence_end].is_evidence) {
    ++evidence_end;
  }
  for (AtomId id = 0; id < evidence_end; ++id) remap[id] = id;
  for (AtomId id = evidence_end; id < appended_begin; ++id) remap[id] = id + k;
  for (AtomId id = appended_begin; id < n; ++id) {
    remap[id] = evidence_end + (id - appended_begin);
  }
  if (k == 0) return remap;

  // Rotate the atom store: [evidence][appended evidence][derived]. Index
  // lists of pre-existing atoms stay sorted under the monotone shift; lists
  // the appended atoms touched carry them at the tail and need a re-sort.
  // Appended atoms appear in no existing clause, so per-clause literal
  // order and the canonical clause order are both preserved.
  std::rotate(atoms_.begin() + evidence_end, atoms_.begin() + appended_begin,
              atoms_.end());
  RemapAtomIds(remap, evidence_end, appended_begin);
  // Dedup hashes are literal-dependent and only serve AddClause; the
  // fast-path owner appends clauses via MergeCanonicalClauses instead.
  clause_hashes_.clear();
  return remap;
}

void GroundNetwork::DropPriorClauses() {
  while (!clauses_.empty() && clauses_.back().rule_index < 0) {
    clauses_.pop_back();
  }
}

void GroundNetwork::MergeCanonicalClauses(std::vector<GroundClause> extra) {
  const size_t old_size = clauses_.size();
  clauses_.reserve(old_size + extra.size());
  for (GroundClause& clause : extra) clauses_.push_back(std::move(clause));
  std::inplace_merge(clauses_.begin(), clauses_.begin() + old_size,
                     clauses_.end(), CanonicalClauseLess);
}

Signature GroundNetwork::ComponentSignature(const Component& component) const {
  Signature sig;
  sig.Mix(component.atoms.size());
  // component.atoms is ascending, so local ids resolve by binary search.
  auto local = [&component](AtomId atom) {
    return static_cast<uint64_t>(
        std::lower_bound(component.atoms.begin(), component.atoms.end(),
                         atom) -
        component.atoms.begin());
  };
  for (uint32_t ci : component.clause_indices) {
    const GroundClause& clause = clauses_[ci];
    sig.Mix(static_cast<uint64_t>(static_cast<int64_t>(clause.rule_index)) +
            (1ULL << 20));
    sig.Mix(clause.hard ? 0x9e3779b97f4a7c15ULL : 0x85ebca6b0dd94bb3ULL);
    uint64_t weight_bits = 0;
    static_assert(sizeof(weight_bits) == sizeof(clause.weight));
    std::memcpy(&weight_bits, &clause.weight, sizeof(weight_bits));
    sig.Mix(weight_bits);
    sig.Mix(clause.literals.size());
    for (int32_t lit : clause.literals) {
      sig.Mix((local(LiteralAtom(lit)) << 1) | (LiteralSign(lit) ? 1 : 0));
    }
  }
  return sig;
}

namespace {
/// Minimal union-find.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n), rank_(n, 0) {
    for (size_t i = 0; i < n; ++i) parent_[i] = static_cast<uint32_t>(i);
  }
  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (rank_[a] < rank_[b]) std::swap(a, b);
    parent_[b] = a;
    if (rank_[a] == rank_[b]) ++rank_[a];
  }

 private:
  std::vector<uint32_t> parent_;
  std::vector<uint8_t> rank_;
};
}  // namespace

std::vector<Component> GroundNetwork::ConnectedComponents() const {
  UnionFind uf(atoms_.size());
  for (const GroundClause& clause : clauses_) {
    for (size_t i = 1; i < clause.literals.size(); ++i) {
      uf.Union(LiteralAtom(clause.literals[0]),
               LiteralAtom(clause.literals[i]));
    }
  }
  std::unordered_map<uint32_t, uint32_t> root_to_component;
  std::vector<Component> components;
  for (AtomId id = 0; id < atoms_.size(); ++id) {
    uint32_t root = uf.Find(id);
    auto [it, inserted] =
        root_to_component.emplace(root, static_cast<uint32_t>(components.size()));
    if (inserted) components.emplace_back();
    components[it->second].atoms.push_back(id);
  }
  for (uint32_t ci = 0; ci < clauses_.size(); ++ci) {
    uint32_t root = uf.Find(LiteralAtom(clauses_[ci].literals[0]));
    components[root_to_component[root]].clause_indices.push_back(ci);
  }
  return components;
}

double GroundNetwork::TotalSoftWeight() const {
  double total = 0.0;
  for (const GroundClause& clause : clauses_) {
    if (!clause.hard) total += clause.weight;
  }
  return total;
}

std::string GroundNetwork::AtomToString(AtomId id,
                                        const rdf::Dictionary& dict) const {
  const GroundAtom& a = atoms_[id];
  return StringPrintf("(%s, %s, %s, %s)%s",
                      dict.Lookup(a.subject).ToString().c_str(),
                      dict.Lookup(a.predicate).ToString().c_str(),
                      dict.Lookup(a.object).ToString().c_str(),
                      a.interval.ToString().c_str(),
                      a.is_evidence ? "" : "*");
}

std::string GroundNetwork::ClauseToString(const GroundClause& clause,
                                          const rdf::Dictionary& dict) const {
  std::string out = clause.hard ? "[hard] " : StringPrintf("[%.3f] ", clause.weight);
  for (size_t i = 0; i < clause.literals.size(); ++i) {
    if (i > 0) out += " v ";
    int32_t lit = clause.literals[i];
    if (!LiteralSign(lit)) out += "!";
    out += AtomToString(LiteralAtom(lit), dict);
  }
  return out;
}

}  // namespace ground
}  // namespace tecore
