#include "rdf/io.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "util/string_util.h"
#include "util/thread_pool.h"

namespace tecore {
namespace rdf {

namespace {

/// Tokenize a fact line: whitespace-separated, but quoted strings are one
/// token (quotes retained so the term builder can tell literals apart).
Result<std::vector<std::string>> TokenizeLine(std::string_view line) {
  std::vector<std::string> tokens;
  size_t i = 0;
  const size_t n = line.size();
  while (i < n) {
    while (i < n && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    if (i >= n) break;
    if (line[i] == '"') {
      std::string tok = "\"";
      ++i;
      bool closed = false;
      while (i < n) {
        char c = line[i++];
        if (c == '\\' && i < n) {
          tok.push_back(line[i++]);
          continue;
        }
        if (c == '"') {
          closed = true;
          break;
        }
        tok.push_back(c);
      }
      if (!closed) {
        return Status::ParseError("unterminated string literal: '" +
                                  std::string(line) + "'");
      }
      tok += '"';
      tokens.push_back(std::move(tok));
    } else {
      size_t start = i;
      while (i < n && !std::isspace(static_cast<unsigned char>(line[i]))) ++i;
      tokens.emplace_back(line.substr(start, i - start));
    }
  }
  return tokens;
}

/// Build a Term from a token (quotes -> literal, digits -> int, _: -> blank).
Term TermFromToken(const std::string& token) {
  if (token.size() >= 2 && token.front() == '"' && token.back() == '"') {
    return Term::Literal(token.substr(1, token.size() - 2));
  }
  if (StartsWith(token, "_:")) {
    return Term::Blank(token.substr(2));
  }
  int64_t value = 0;
  if (ParseInt64(token, &value)) {
    return Term::IntLiteral(value);
  }
  return Term::Iri(token);
}

}  // namespace

Result<TemporalFact> ParseFactText(std::string_view line,
                                   TemporalGraph* graph) {
  TECORE_ASSIGN_OR_RETURN(tokens, TokenizeLine(line));
  if (!tokens.empty() && tokens.back() == ".") tokens.pop_back();
  // The statement terminator may also be attached to the last token
  // (`s p o [1,2].` in the examples' style). Quoted literals keep their
  // dot: a trailing `.` after a closing quote tokenizes separately above.
  if (!tokens.empty() && tokens.back().size() > 1 &&
      tokens.back().back() == '.' && tokens.back().front() != '"') {
    tokens.back().pop_back();
  }
  if (tokens.size() < 4 || tokens.size() > 5) {
    return Status::ParseError(
        "expected 's p o [b,e] [conf]' , got " +
        std::to_string(tokens.size()) + " tokens in: '" + std::string(line) +
        "'");
  }
  TECORE_ASSIGN_OR_RETURN(interval, temporal::Interval::Parse(tokens[3]));
  double confidence = 1.0;
  if (tokens.size() == 5) {
    if (!ParseDouble(tokens[4], &confidence)) {
      return Status::ParseError("bad confidence '" + tokens[4] + "' in: '" +
                                std::string(line) + "'");
    }
  }
  Term subject = TermFromToken(tokens[0]);
  Term predicate = TermFromToken(tokens[1]);
  Term object = TermFromToken(tokens[2]);
  if (!predicate.is_iri()) {
    return Status::ParseError("predicate must be an IRI in: '" +
                              std::string(line) + "'");
  }
  return TemporalFact(graph->dict().Intern(subject),
                      graph->dict().Intern(predicate),
                      graph->dict().Intern(object), interval, confidence);
}

Result<FactId> ParseFactLine(std::string_view line, TemporalGraph* graph) {
  TECORE_ASSIGN_OR_RETURN(fact, ParseFactText(line, graph));
  return graph->Add(fact);
}

std::string_view StripTqComment(std::string_view line) {
  // A '#' starts a comment unless it sits inside a string literal. Escape
  // sequences consume the next character, so `"ends with \\"` closes the
  // string and `"a \" b"` does not — the same rules TokenizeLine applies.
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

Result<TemporalGraph> ParseGraphText(std::string_view text) {
  TemporalGraph graph;
  size_t line_no = 0;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view raw = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    std::string_view line = Trim(StripTqComment(raw));
    if (line.empty()) continue;
    Result<FactId> fact = ParseFactLine(line, &graph);
    if (!fact.ok()) {
      return Status::ParseError(StringPrintf("line %zu: ", line_no) +
                                fact.status().message());
    }
  }
  return graph;
}

Result<TemporalGraph> ParseGraphText(std::string_view text,
                                     const ParseOptions& options) {
  // Chunk boundaries are fixed byte targets extended to the next newline:
  // a pure function of the input, never of the thread count, so the fact
  // append order below — and with it every canonical output — is identical
  // at 1, 2 or N threads.
  constexpr size_t kChunkTargetBytes = 256 * 1024;
  struct Chunk {
    size_t begin = 0;
    size_t end = 0;        // one past the last byte
    size_t first_line = 1;
  };
  std::vector<Chunk> chunks;
  {
    size_t pos = 0;
    size_t line = 1;
    while (pos < text.size()) {
      size_t end = pos + kChunkTargetBytes;
      if (end >= text.size()) {
        end = text.size();
      } else {
        const size_t nl = text.find('\n', end);
        end = nl == std::string_view::npos ? text.size() : nl + 1;
      }
      chunks.push_back({pos, end, line});
      line += static_cast<size_t>(
          std::count(text.begin() + pos, text.begin() + end, '\n'));
      pos = end;
    }
  }

  TemporalGraph graph;
  struct ChunkResult {
    /// Parsed facts with their 1-based line numbers (for Add errors).
    std::vector<std::pair<TemporalFact, size_t>> facts;
    size_t error_line = 0;  // 0 = no error
    std::string error_message;
  };
  std::vector<ChunkResult> results(chunks.size());
  // ParseFactText only *interns* into the sharded dictionary — the one
  // mutation TemporalGraph supports concurrently — and buffers the facts;
  // the appends happen single-threaded below, in chunk order.
  util::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : util::ComputePool();
  pool.ParallelFor(chunks.size(), [&](size_t ci) {
    const Chunk& chunk = chunks[ci];
    ChunkResult& out = results[ci];
    size_t pos = chunk.begin;
    size_t line_no = chunk.first_line;
    while (pos < chunk.end) {
      size_t eol = text.find('\n', pos);
      if (eol == std::string_view::npos || eol >= chunk.end) eol = chunk.end;
      std::string_view raw = text.substr(pos, eol - pos);
      pos = eol + 1;
      std::string_view line = Trim(StripTqComment(raw));
      if (!line.empty()) {
        Result<TemporalFact> fact = ParseFactText(line, &graph);
        if (!fact.ok()) {
          // First error only; chunk order == line order, so the earliest
          // erroring chunk carries the globally earliest error.
          out.error_line = line_no;
          out.error_message = fact.status().message();
          break;
        }
        out.facts.emplace_back(std::move(*fact), line_no);
      }
      ++line_no;
    }
  });

  for (const ChunkResult& result : results) {
    if (result.error_line != 0) {
      return Status::ParseError(
          StringPrintf("line %zu: ", result.error_line) +
          result.error_message);
    }
  }
  for (ChunkResult& result : results) {
    for (auto& [fact, line_no] : result.facts) {
      Result<FactId> added = graph.Add(fact);
      if (!added.ok()) {
        return Status::ParseError(StringPrintf("line %zu: ", line_no) +
                                  added.status().message());
      }
    }
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

Result<TemporalGraph> LoadGraphFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open file: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseGraphText(buf.str());
}

Result<TemporalGraph> LoadGraphFile(const std::string& path,
                                    const ParseOptions& options) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open file: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseGraphText(buf.str(), options);
}

Status SaveGraphFile(const TemporalGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open file for writing: " + path);
  }
  out << WriteGraphText(graph);
  return out.good() ? Status::OK()
                    : Status::IoError("write failed: " + path);
}

}  // namespace rdf
}  // namespace tecore
