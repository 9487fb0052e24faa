#include "rdf/io.h"

#include <algorithm>
#include <unordered_map>

#include "util/file.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace tecore {
namespace rdf {

namespace {

/// std::isspace in the "C" locale, which the program never leaves.
inline bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// Tokenize a fact line into views of it — whitespace-separated, a quoted
/// literal (quotes and escapes kept; TermFromToken undoes both) is one
/// token — and parse its interval and confidence. On success (*tokens)[0..2]
/// are the raw s, p, o. `tokens` is caller-owned scratch, so a document
/// parse allocates nothing per line.
Status ScanFact(std::string_view line, std::vector<std::string_view>* tokens,
                temporal::Interval* interval, double* confidence) {
  tokens->clear();
  size_t i = 0;
  const size_t n = line.size();
  while (i < n) {
    while (i < n && IsSpace(line[i])) ++i;
    if (i >= n) break;
    const size_t start = i;
    if (line[i] == '"') {
      ++i;
      bool closed = false;
      while (i < n) {
        const char c = line[i++];
        if (c == '\\' && i < n) {
          ++i;
        } else if (c == '"') {
          closed = true;
          break;
        }
      }
      if (!closed) {
        return Status::ParseError("unterminated string literal: '" +
                                  std::string(line) + "'");
      }
    } else {
      while (i < n && !IsSpace(line[i])) ++i;
    }
    tokens->push_back(line.substr(start, i - start));
  }
  if (!tokens->empty() && tokens->back() == ".") tokens->pop_back();
  // The statement terminator may also be attached to the last token
  // (`s p o [1,2].` in the examples' style). Quoted literals keep their
  // dot: a trailing `.` after a closing quote tokenizes separately above.
  if (!tokens->empty() && tokens->back().size() > 1 &&
      tokens->back().back() == '.' && tokens->back().front() != '"') {
    tokens->back().remove_suffix(1);
  }
  if (tokens->size() < 4 || tokens->size() > 5) {
    return Status::ParseError(
        "expected 's p o [b,e] [conf]' , got " +
        std::to_string(tokens->size()) + " tokens in: '" + std::string(line) +
        "'");
  }
  TECORE_ASSIGN_OR_RETURN(parsed, temporal::Interval::Parse((*tokens)[3]));
  *interval = parsed;
  *confidence = 1.0;
  if (tokens->size() == 5 && !ParseDouble((*tokens)[4], confidence)) {
    return Status::ParseError("bad confidence '" + std::string((*tokens)[4]) +
                              "' in: '" + std::string(line) + "'");
  }
  // The predicate must build an IRI (see TermFromToken).
  const std::string_view p = (*tokens)[1];
  int64_t unused = 0;
  if (p.front() == '"' || StartsWith(p, "_:") || ParseInt64(p, &unused)) {
    return Status::ParseError("predicate must be an IRI in: '" +
                              std::string(line) + "'");
  }
  return Status::OK();
}

/// Build a Term from a raw token (quotes -> literal with escapes undone,
/// digits -> int, _: -> blank, anything else -> IRI).
Term TermFromToken(std::string_view token) {
  if (token.front() == '"') {
    std::string value;
    value.reserve(token.size() - 2);
    for (size_t i = 1; i + 1 < token.size(); ++i) {
      if (token[i] == '\\') ++i;
      value.push_back(token[i]);
    }
    return Term::Literal(std::move(value));
  }
  if (StartsWith(token, "_:")) {
    return Term::Blank(std::string(token.substr(2)));
  }
  int64_t value = 0;
  if (ParseInt64(token, &value)) {
    return Term::IntLiteral(value);
  }
  return Term::Iri(std::string(token));
}

}  // namespace

Result<TemporalFact> ParseFactText(std::string_view line,
                                   TemporalGraph* graph) {
  std::vector<std::string_view> tokens;
  temporal::Interval interval(0, 0);
  double confidence;
  TECORE_RETURN_NOT_OK(ScanFact(line, &tokens, &interval, &confidence));
  // Intern in s, p, o order, one statement each: as constructor arguments
  // the evaluation order (and with it the term ids) is the compiler's.
  Dictionary& dict = graph->dict();
  const TermId s = dict.Intern(TermFromToken(tokens[0]));
  const TermId p = dict.Intern(TermFromToken(tokens[1]));
  const TermId o = dict.Intern(TermFromToken(tokens[2]));
  return TemporalFact(s, p, o, interval, confidence);
}

Result<FactId> ParseFactLine(std::string_view line, TemporalGraph* graph) {
  TECORE_ASSIGN_OR_RETURN(fact, ParseFactText(line, graph));
  return graph->Add(fact);
}

std::string_view StripTqComment(std::string_view line) {
  // A '#' starts a comment unless it sits inside a string literal. Escape
  // sequences consume the next character, so `"ends with \\"` closes the
  // string and `"a \" b"` does not — the same rules ScanFact applies.
  bool in_string = false;
  bool escaped = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '#') {
      return line.substr(0, i);
    }
  }
  return line;
}

Result<TemporalGraph> ParseGraphText(std::string_view text,
                                     const ParseOptions& options) {
  // Chunk boundaries are fixed byte targets extended to the next newline:
  // a pure function of the input, never of the executor count.
  constexpr size_t kChunkTargetBytes = 256 * 1024;
  std::vector<std::string_view> chunks;
  for (size_t pos = 0; pos < text.size();) {
    const size_t nl =
        text.find('\n', std::min(pos + kChunkTargetBytes, text.size()));
    const size_t end = nl == std::string_view::npos ? text.size() : nl + 1;
    chunks.push_back(text.substr(pos, end - pos));
    pos = end;
  }

  // (a) Tokenize each chunk concurrently into views of `text`: the chunk's
  // distinct raw tokens, each fact's s, p, o as indexes into them, and its
  // interval and confidence. Nothing is interned and no string is copied.
  struct ChunkResult {
    std::vector<std::string_view> distinct;  // first-occurrence order
    std::vector<uint32_t> terms;  // s, p, o of each fact, into `distinct`
    std::vector<std::pair<temporal::Interval, double>> spans;  // per fact
    size_t lines = 0;  // lines walked, up to the failing one on error
    Status status;
  };
  std::vector<ChunkResult> results(chunks.size());
  util::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : util::ComputePool();
  pool.ParallelFor(chunks.size(), [&](size_t ci) {
    const std::string_view chunk = chunks[ci];
    ChunkResult& out = results[ci];
    std::vector<std::string_view> tokens;
    std::unordered_map<std::string_view, uint32_t> local;
    temporal::Interval interval(0, 0);
    double confidence;
    for (size_t pos = 0; pos < chunk.size();) {
      size_t eol = chunk.find('\n', pos);
      if (eol == std::string_view::npos) eol = chunk.size();
      const std::string_view line =
          Trim(StripTqComment(chunk.substr(pos, eol - pos)));
      pos = eol + 1;
      ++out.lines;
      if (line.empty()) continue;
      out.status = ScanFact(line, &tokens, &interval, &confidence);
      // Add's own check, made here so that a bad confidence is reported in
      // line order with the syntax errors.
      if (out.status.ok()) out.status = CheckConfidence(confidence);
      if (!out.status.ok()) break;
      for (size_t k = 0; k < 3; ++k) {
        const auto [it, fresh] = local.try_emplace(
            tokens[k], static_cast<uint32_t>(out.distinct.size()));
        if (fresh) out.distinct.push_back(tokens[k]);
        out.terms.push_back(it->second);
      }
      out.spans.emplace_back(interval, confidence);
    }
  });

  // Chunk order is line order, so the first failing chunk holds the
  // document's earliest error.
  size_t first_line = 1;
  for (const ChunkResult& result : results) {
    if (!result.status.ok()) {
      return Status::ParseError(
          StringPrintf("line %zu: ", first_line + result.lines - 1) +
          result.status.message());
    }
    first_line += result.lines;
  }

  // (b) Intern each chunk's distinct tokens, serially in chunk order: a
  // map from raw token to id sends only each token's first occurrence
  // (~62k of ~730k tokens on Wikidata) through TermFromToken and the
  // dictionary, so term ids are first-occurrence order. (c) Append the
  // chunk's facts under those ids.
  TemporalGraph graph;
  std::unordered_map<std::string_view, TermId> ids;
  std::vector<TermId> chunk_ids;
  for (ChunkResult& result : results) {
    chunk_ids.clear();
    for (std::string_view token : result.distinct) {
      const auto [it, fresh] = ids.try_emplace(token);
      if (fresh) it->second = graph.dict().Intern(TermFromToken(token));
      chunk_ids.push_back(it->second);
    }
    const uint32_t* spo = result.terms.data();
    for (const auto& [interval, confidence] : result.spans) {
      TECORE_RETURN_NOT_OK(
          graph
              .Add(TemporalFact(chunk_ids[spo[0]], chunk_ids[spo[1]],
                                chunk_ids[spo[2]], interval, confidence))
              .status());
      spo += 3;
    }
    result = ChunkResult();  // release the chunk's buffers early
  }
  return graph;
}

std::string WriteFactText(const TemporalGraph& graph,
                          const TemporalFact& fact) {
  std::string out;
  out += graph.dict().Lookup(fact.subject).ToString();
  out += ' ';
  out += graph.dict().Lookup(fact.predicate).ToString();
  out += ' ';
  out += graph.dict().Lookup(fact.object).ToString();
  out += ' ';
  out += fact.interval.ToString();
  // Shortest round-trip-exact confidence: "%g" (6 significant digits)
  // silently perturbed confidences on save/load and with them the
  // resolution objective.
  out += ' ';
  out += FormatDoubleExact(fact.confidence);
  return out;
}

std::string WriteGraphText(const TemporalGraph& graph) {
  std::string out;
  for (FactId id = 0; id < graph.NumFacts(); ++id) {
    if (!graph.is_live(id)) continue;
    out += WriteFactText(graph, graph.fact(id));
    out += " .\n";
  }
  return out;
}

Result<TemporalGraph> LoadGraphFile(const std::string& path,
                                    const ParseOptions& options) {
  TECORE_ASSIGN_OR_RETURN(text, util::ReadFileToString(path));
  return ParseGraphText(text, options);
}

Status SaveGraphFile(const TemporalGraph& graph, const std::string& path) {
  return util::WriteStringToFile(path, WriteGraphText(graph));
}

}  // namespace rdf
}  // namespace tecore
