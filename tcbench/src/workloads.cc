// The three workloads. Each prints all twelve end-to-end metrics; the
// detail line marks as primary the (metric, workload) pairs the workload
// was built to measure. The others come from a bounded side phase on the
// same process architecture (see tcbench/README.md).
#include <algorithm>
#include <cmath>
#include <exception>
#include <filesystem>
#include <random>
#include <stdexcept>
#include <thread>

#include "api/registry.h"
#include "harness.h"
#include "kb.h"
#include "layers.h"
#include "mine/miner.h"
#include "obs/metrics.h"
#include "rdf/io.h"
#include "server/routes.h"
#include "util/json.h"
#include "util/string_util.h"

namespace tcbench {

using namespace tecore;  // NOLINT
using util::Json;

namespace {

// ------------------------------------------------------------ helpers

/// Runs fn(0..workers-1) on their own threads; rethrows the first error
/// after every thread has joined.
void ParallelFor(int workers, const std::function<void(int)>& fn) {
  std::vector<std::exception_ptr> errors(static_cast<size_t>(workers));
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w]() {
      try {
        fn(w);
      } catch (...) {
        errors[static_cast<size_t>(w)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// JSON request body {key: value, "max_facts": 0[, "solver": solver]}.
std::string Body(const std::string& key, const std::string& value,
                 const char* solver = nullptr) {
  Json body = Json::Object();
  if (!key.empty()) body.Set(key, Json::Str(value));
  if (solver != nullptr) body.Set("solver", Json::Str(solver));
  body.Set("max_facts", Json::Int(0));
  return body.Dump();
}

/// A request that must succeed; returns the body.
std::string Must(HttpClient* client, const std::string& method,
                 const std::string& path, const std::string& body = "") {
  std::string out;
  const int status = client->Round(method, path, body, &out);
  if (status != 200 && status != 201) {
    throw std::runtime_error(method + " " + path + " -> " +
                             std::to_string(status) + " " + out.substr(0, 200));
  }
  return out;
}

uint64_t VersionOf(const std::string& body) {
  auto json = Json::Parse(body);
  if (!json.ok()) return 0;
  const Json* v = json->Find("version");
  return v == nullptr ? 0 : static_cast<uint64_t>(v->int_value());
}

std::string KbPath(const std::string& kb, const std::string& endpoint) {
  return "/v1/kb/" + kb + "/" + endpoint;
}

std::string FreshDir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

/// Seeded Poisson arrivals at `rate` per second for `seconds`.
std::vector<double> PoissonSchedule(std::mt19937_64* rng, double rate,
                                    double seconds) {
  std::exponential_distribution<double> gap(rate);
  std::vector<double> due;
  for (double t = gap(*rng); t < seconds; t += gap(*rng)) due.push_back(t);
  return due;
}

bool IsPlaysFor(const std::string& line) {
  return line.find(" playsFor ") != std::string::npos;
}

double Delta(const std::map<std::string, double>& after,
             const std::map<std::string, double>& before,
             const std::string& key) {
  auto a = after.find(key);
  auto b = before.find(key);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

std::string StageKey(const char* stage) {
  return std::string("tecore_stage_duration_micros_sum{stage=\"") + stage +
         "\"}";
}

/// Median of the request-latency histogram the program keeps itself
/// (`tecore_http_request_duration_micros`, all endpoints merged), read by
/// interpolating inside its buckets as an operator's dashboard would.
double ServerHistP50(const std::map<std::string, double>& m) {
  std::map<double, double> cumulative;  // upper bound -> count
  for (const auto& [key, value] : m) {
    if (key.rfind("tecore_http_request_duration_micros_bucket", 0) != 0) {
      continue;
    }
    const size_t at = key.find("le=\"");
    if (at == std::string::npos) continue;
    const std::string le = key.substr(at + 4, key.find('"', at + 4) - at - 4);
    cumulative[le == "+Inf" ? INFINITY : std::atof(le.c_str())] += value;
  }
  if (cumulative.empty()) return 0;
  const double half = cumulative.rbegin()->second / 2;
  double prev_bound = 0, prev_count = 0;
  for (const auto& [bound, count] : cumulative) {
    if (count >= half) {
      if (!std::isfinite(bound) || count == prev_count) return prev_bound;
      return prev_bound +
             (bound - prev_bound) * (half - prev_count) / (count - prev_count);
    }
    prev_bound = bound;
    prev_count = count;
  }
  return prev_bound;
}

/// The program's own metrics registry, read in-process (resolve_batch).
std::map<std::string, double> InProcessMetrics() {
  return ParseMetricsText(obs::Registry::Default()->RenderPrometheusText());
}

constexpr size_t kReadWindow = 1000;  // reads per percentile window

/// End-to-end samples of one run, emitted in one place so every workload
/// prints the same twelve names.
struct EndToEnd {
  Samples setup_s;
  double rss_mb = 0;
  LoadResult open_loop;    ///< every open-loop segment, merged
  Samples capacity_rps;    ///< one per closed-loop saturation burst
  uint64_t saturation_attempted = 0;
  uint64_t saturation_failed = 0;
  Samples edit_ms;
  Samples edit_rate;       ///< acknowledged batches/s, one per edit phase
  Samples recover_s;
  Samples resolve_mln_s, resolve_psl_s, mine_s;
  /// One open-loop segment; segments are appended in run order.
  void AddReads(const LoadResult& r) { Merge(&open_loop, r); }

  /// One closed-loop burst over `connections` for `seconds`.
  void Saturate(const std::vector<ReadOp>& ops, int connections,
                double seconds, const Transport& transport) {
    const LoadResult r = RunClosedLoop(ops, connections, seconds, transport);
    capacity_rps.Add((r.attempted - r.failed) / r.elapsed_s);
    saturation_attempted += r.attempted;
    saturation_failed += r.failed;
  }
};

void EmitEndToEnd(const EndToEnd& e, const std::vector<std::string>& primary,
                  Report* report) {
  auto is = [&](const char* name) {
    return std::find(primary.begin(), primary.end(), name) != primary.end();
  };
  // Read percentiles of consecutive windows of kReadWindow requests (a
  // short remainder joins the last one); the metrics are their medians,
  // so one stalled stretch of a run cannot set them.
  Samples read_p50_windows, read_p99_windows;
  size_t min_beyond_p99 = SIZE_MAX;
  const std::vector<double>& reads = e.open_loop.latency_by_request_us;
  const size_t windows = std::max<size_t>(1, reads.size() / kReadWindow);
  for (size_t w = 0; w < windows; ++w) {
    const size_t end = w + 1 == windows ? reads.size() : (w + 1) * kReadWindow;
    Samples window;
    for (size_t i = w * kReadWindow; i < end; ++i) window.Add(reads[i]);
    read_p50_windows.Add(window.Quantile(0.5));
    read_p99_windows.Add(window.Quantile(0.99));
    min_beyond_p99 = std::min(min_beyond_p99, window.Beyond(0.99));
  }
  report->Metric("setup_s", e.setup_s.Median(), "s", e.setup_s.size(), true);
  report->Metric("rss_mb", e.rss_mb, "MiB", 1, true);
  report->Metric("read_p50_us", read_p50_windows.Median(), "us",
                 e.open_loop.latency_us.size(), is("read"));
  report->Metric("read_p99_us", read_p99_windows.Median(), "us",
                 e.open_loop.latency_us.size(), is("read"));
  report->Detail("read.windows", static_cast<double>(read_p99_windows.size()),
                 "count", e.open_loop.latency_us.size());
  report->Detail("read.window_p99_q1_us", read_p99_windows.Quantile(0.25),
                 "us", read_p99_windows.size());
  report->Detail("read.window_p99_q3_us", read_p99_windows.Quantile(0.75),
                 "us", read_p99_windows.size());
  report->Check("read_p99_us.tail_samples", min_beyond_p99 >= 10,
                std::to_string(min_beyond_p99) +
                    " beyond p99 in the thinnest window");
  report->Metric("read_capacity_rps", e.capacity_rps.Median(), "1/s",
                 e.saturation_attempted, is("capacity"));
  report->Percentile("edit_p50_ms", e.edit_ms, 0.5, "ms", is("edit"));
  report->Percentile("edit_p95_ms", e.edit_ms, 0.95, "ms", is("edit"));
  report->Metric("edit_batches_per_s", e.edit_rate.Median(), "1/s",
                 e.edit_ms.size(), is("edit"));
  report->Metric("recover_s", e.recover_s.Median(), "s", e.recover_s.size(),
                 is("recover"));
  report->Metric("resolve_mln_s", e.resolve_mln_s.Median(), "s",
                 e.resolve_mln_s.size(), is("resolve"));
  report->Metric("resolve_psl_s", e.resolve_psl_s.Median(), "s",
                 e.resolve_psl_s.size(), is("resolve"));
  report->Metric("mine_s", e.mine_s.Median(), "s", e.mine_s.size(),
                 is("mine"));
  report->Detail("loadgen.offered_rps",
                 e.open_loop.attempted / std::max(e.open_loop.elapsed_s, 1e-9),
                 "1/s", e.open_loop.attempted);
  report->Detail("loadgen.round_trip_p50_us",
                 e.open_loop.round_trip_us.Median(), "us",
                 e.open_loop.round_trip_us.size());
  report->Detail("loadgen.late_p99_us", e.open_loop.late_us.Quantile(0.99),
                 "us", e.open_loop.late_us.size());
  report->Detail("loadgen.queued",
                 static_cast<double>(e.open_loop.queue_us.size()), "count",
                 e.open_loop.attempted);
  report->Attempt(e.open_loop.attempted + e.saturation_attempted,
                  e.open_loop.failed + e.saturation_failed);
  report->Attempt(e.edit_ms.size() + e.recover_s.size() +
                      e.resolve_mln_s.size() + e.resolve_psl_s.size() +
                      e.mine_s.size(),
                  0);
}

/// Splits a run into `rounds` equal slices of an open-loop schedule:
/// segment k holds the requests due in [k*T/rounds, (k+1)*T/rounds),
/// re-based to the segment start.
struct Segment {
  std::vector<ReadOp> ops;
  std::vector<double> due;
};
std::vector<Segment> SplitSchedule(const std::vector<ReadOp>& ops,
                                   const std::vector<double>& due,
                                   double total_s, int rounds) {
  std::vector<Segment> out(static_cast<size_t>(rounds));
  const double len = total_s / rounds;
  for (size_t i = 0; i < ops.size(); ++i) {
    const size_t k = std::min(static_cast<size_t>(due[i] / len),
                              out.size() - 1);
    out[k].ops.push_back(ops[i]);
    out[k].due.push_back(due[i] - k * len);
  }
  return out;
}

/// Rounds per run, one per `round_s` seconds of --seconds (at least 3):
/// each round takes a slice of every measured phase, so each metric
/// samples the whole run rather than one stretch of it. The VM this was
/// tuned on swings in speed by up to half over 5-10 s.
int Rounds(double seconds, double round_s) {
  return std::max(3, static_cast<int>(seconds / round_s));
}

/// Keep-alive connections, opened right before the phase that uses them
/// (the server closes idle ones).
struct Connections {
  Connections(int port, int n) {
    for (int c = 0; c < n; ++c) {
      clients.push_back(std::make_unique<HttpClient>(port));
    }
  }
  ReadOutcome Get(int conn, const ReadOp& op) {
    ReadOutcome out;
    std::string body;
    out.status = clients[static_cast<size_t>(conn)]->Round("GET", op.path, "",
                                                           &body);
    ParseReadBody(body, &out);
    return out;
  }
  std::vector<std::unique_ptr<HttpClient>> clients;
};

/// SIGKILL the server (if any), restart it on `data_dir`, and time until
/// a read of every KB succeeds; the new server is killed again unless
/// `keep_running`.
double RestartAndTime(std::unique_ptr<ServerProcess>* server,
                      const RunConfig& config, const std::string& data_dir,
                      const std::string& log,
                      const std::vector<std::string>& kbs,
                      bool keep_running = true) {
  if (*server) (*server)->Kill();
  const double start = Now();
  *server =
      std::make_unique<ServerProcess>(config.server_binary, data_dir, log);
  if (!(*server)->ok()) throw std::runtime_error("server restart failed");
  HttpClient client((*server)->port());
  for (const std::string& kb : kbs) {
    std::string body;
    while (client.Round("GET", KbPath(kb, "stats"), "", &body) != 200) {
      if (Now() - start > 60) throw std::runtime_error("recovery timeout");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  const double elapsed = Now() - start;
  if (!keep_running) (*server)->Kill();
  return elapsed;
}

/// Recovery from a crash image: the idle server's data dir copied (as a
/// SIGKILL would leave it), a second server started on the copy, timed
/// until a read of every KB succeeds, then killed. The measured server
/// keeps running, so the retained versions the reads use survive.
double CrashImageRecovery(const RunConfig& config, const std::string& data_dir,
                          const std::string& image_dir, const std::string& log,
                          const std::vector<std::string>& kbs) {
  std::filesystem::remove_all(image_dir);
  std::filesystem::copy(data_dir, image_dir,
                        std::filesystem::copy_options::recursive);
  std::unique_ptr<ServerProcess> image;
  return RestartAndTime(&image, config, image_dir, log, kbs, false);
}

/// In-process replay of `ops` through the served handler on `registry`:
/// per-request handler time and response size.
struct Replay {
  Samples handler_us;
  std::map<std::string, Samples> by_endpoint;
  double bytes = 0;
};
Replay ReplayHandler(api::EngineRegistry* registry,
                     const std::vector<ReadOp>& ops) {
  const server::HttpHandler handler = server::MakeApiHandler(registry);
  Replay replay;
  for (const ReadOp& op : ops) {
    server::HttpRequest request;
    request.method = "GET";
    const size_t q = op.path.find('?');
    request.path = op.path.substr(0, q);
    request.query = q == std::string::npos ? "" : op.path.substr(q + 1);
    const double start = Now();
    const server::HttpResponse response = handler(request);
    const double us = 1e6 * (Now() - start);
    if (response.status != 200) {
      throw std::runtime_error("replay " + op.path + " -> " +
                               std::to_string(response.status));
    }
    replay.handler_us.Add(us);
    replay.by_endpoint[op.endpoint].Add(us);
    replay.bytes += static_cast<double>(response.body.size());
  }
  return replay;
}

/// Traced reads: one span per request, around its round trip.
Transport TracedReads(Tracer* tracer, const Transport& inner) {
  return [tracer, inner](int conn, const ReadOp& op) {
    const uint64_t request = tracer->NewRequest();
    const double start = Now();
    ReadOutcome out = inner(conn, op);
    tracer->Record("read.round_trip", request, 0, start, Now());
    return out;
  };
}

/// Server and loadgen layer metrics of a traced read phase. Handler time
/// comes from the replay; transport is the rest of the round trip.
void EmitReadLayers(const LoadResult& traced, const LoadResult& untraced,
                    const Replay& replay,
                    const std::map<std::string, double>& server_metrics,
                    bool transport, Report* report) {
  report->Metric("server.handler_us", replay.handler_us.Median(), "us",
                 replay.handler_us.size());
  for (const auto& [endpoint, s] : replay.by_endpoint) {
    report->Detail("server.handler_us." + endpoint, s.Median(), "us",
                   s.size());
  }
  report->Metric("server.transport_us",
                 transport ? std::max(0.0, traced.round_trip_us.Median() -
                                               replay.handler_us.Median())
                           : 0.0,
                 "us", traced.round_trip_us.size());
  report->Metric("server.response_bytes",
                 replay.bytes / std::max<size_t>(replay.handler_us.size(), 1),
                 "bytes", replay.handler_us.size());
  report->Metric("server.hist_p50_us", ServerHistP50(server_metrics), "us", 1);
  report->Metric("loadgen.late_p99_us", traced.late_us.Quantile(0.99), "us",
                 traced.late_us.size());
  report->Metric("loadgen.queue_us", traced.queue_us.Median(), "us",
                 traced.queue_us.size());
  report->Metric("loadgen.failed",
                 static_cast<double>(traced.failed + untraced.failed), "count",
                 traced.attempted + untraced.attempted);
}

/// The WAL/checkpoint counters of the program over `edits` batches of
/// `script_bytes` payload.
void EmitStorageCounters(double edits, double script_bytes,
                         const std::map<std::string, double>& after,
                         const std::map<std::string, double>& before,
                         const std::map<std::string, double>& recovered,
                         double recovery_s, Report* report) {
  report->Metric("storage.fsyncs_per_edit",
                 Delta(after, before, "tecore_wal_fsyncs_total") / edits,
                 "count", static_cast<size_t>(edits));
  report->Metric("storage.wal_bytes_per_edit_byte",
                 Delta(after, before, "tecore_wal_append_bytes_total") /
                     script_bytes,
                 "ratio", static_cast<size_t>(edits));
  report->Metric("storage.checkpoints",
                 Delta(after, before, "tecore_checkpoints_total"), "count", 1);
  report->Metric("storage.recovery_ms", 1e3 * recovery_s, "ms", 1);
  report->Metric("storage.torn_tails",
                 Delta(recovered, {}, "tecore_wal_torn_tails_total"), "count",
                 1);
}

/// Layer self times of the span trees under `roots`, as shares of the
/// roots' total time; the roots' own self time is the unattributed share.
/// Checks that the shares add up to the end-to-end time.
void EmitSelfShares(const Tracer& tracer, const std::vector<std::string>& roots,
                    const std::vector<std::string>& layers, Report* report) {
  double total = 0, unattributed = 0, sum = 0;
  size_t count = 0;
  for (const std::string& root : roots) {
    total += tracer.TotalTime(root);
    unattributed += tracer.SelfTime(root);
    count += tracer.Count(root);
  }
  for (const std::string& layer : layers) {
    const double self = tracer.SelfTime(layer);
    sum += self;
    report->Detail("self_share." + layer, self / total, "ratio", count);
  }
  report->Metric("trace.unattributed_frac", unattributed / total, "ratio",
                 count);
  const double covered = (sum + unattributed) / total;
  report->Check("trace.self_times_add_up", std::fabs(covered - 1) < 1e-6,
                "layer self times + unattributed = " + Num(covered) +
                    " of the end-to-end time");
}

/// Builds a KB in an in-process registry the way the server got it.
void BuildReplica(api::EngineRegistry* registry, const std::string& name,
                  const std::string& text, const std::string& rules,
                  const std::vector<std::string>& scripts) {
  const core::ResolveOptions options;  // MLN, as the server solved it
  auto engine = OrDie(registry->Create(name), "replica create");
  OrDie(engine->AddRulesText(rules), "replica rules");
  OrDie(engine->LoadGraphText(text), "replica graph");
  OrDie(engine->Solve(options), "replica solve");
  for (const std::string& script : scripts) {
    OrDie(engine->ApplyEditScript(script, options), "replica edit");
  }
}

double TotalBytes(const std::vector<std::vector<std::string>>& scripts,
                  size_t* count) {
  double bytes = 0;
  *count = 0;
  for (const auto& per_kb : scripts) {
    for (const auto& s : per_kb) bytes += static_cast<double>(s.size());
    *count += per_kb.size();
  }
  return bytes;
}

constexpr int kSetups = 3;  // set-ups per run; setup_s is their median

}  // namespace

// =========================================================== kg_browse

namespace {
constexpr int kBrowseKbs = 8;
constexpr size_t kBrowsePlayers = 6500;
constexpr double kBrowseRate = 2000;  // offered req/s, open loop
constexpr int kRetained = 8;          // the server's default --retain
constexpr double kZipfS = 2.0;        // kb0 receives ~65% of reads
// Side phases per round: cold reloads of the spare KB per solver, and
// mining passes (10 and 40 samples in a 20 s run).
constexpr int kBrowseReloads = 1;
constexpr int kBrowseMines = 4;

/// Even KBs are solved with MLN, odd ones with nPSL.
const char* BrowseSolver(int kb) { return kb % 2 == 0 ? "mln" : "psl"; }
}  // namespace

void RunKgBrowse(const RunConfig& config, Report* report, Tracer* tracer) {
  const std::string work = FreshDir(config.work_dir + "/kg_browse");
  const std::string log = work + "/server.log";
  std::mt19937_64 rng(config.seed);
  EndToEnd e;
  const std::string constraints = FootballConstraintsText();
  std::vector<std::string> kbs;
  for (int i = 0; i < kBrowseKbs; ++i) kbs.push_back("kb" + std::to_string(i));

  // Set-up, repeated on fresh data dirs: generate, load, solve, warm.
  std::vector<std::string> texts(kBrowseKbs);
  std::unique_ptr<ServerProcess> server;
  std::string data;
  for (int setup = 0; setup < kSetups; ++setup) {
    if (server) server->Kill();
    data = FreshDir(work + "/data");
    const double t0 = Now();
    ParallelFor(config.nproc, [&](int t) {
      for (int i = t; i < kBrowseKbs; i += config.nproc) {
        texts[i] = FootballText(kBrowsePlayers, config.seed * 1000 + i);
      }
    });
    server = std::make_unique<ServerProcess>(config.server_binary, data, log);
    if (!server->ok()) throw std::runtime_error("server start failed");
    // KBs load concurrently, one connection per loader.
    ParallelFor(config.nproc, [&](int t) {
      HttpClient c(server->port());
      for (int i = t; i < kBrowseKbs; i += config.nproc) {
        Must(&c, "POST", "/v1/kb", "{\"name\": \"" + kbs[i] + "\"}");
        Must(&c, "POST", KbPath(kbs[i], "rules"), Body("text", constraints));
        Must(&c, "POST", KbPath(kbs[i], "graph"), Body("text", texts[i]));
        Must(&c, "POST", KbPath(kbs[i], "solve"),
             Body("", "", BrowseSolver(i)));
        Must(&c, "GET", KbPath(kbs[i], "conflicts") + "?limit=25");
      }
    });
    e.setup_s.Add(Now() - t0);
  }
  report->Env("data_dir_fs", FilesystemOf(data));

  std::map<std::string, double> before_history;
  {
    HttpClient c(server->port());
    before_history = ScrapeMetrics(&c);
    // A spare KB, outside the read mix, for the cold reloads.
    Must(&c, "POST", "/v1/kb", "{\"name\": \"spare\"}");
    Must(&c, "POST", KbPath("spare", "rules"), Body("text", constraints));
  }

  // Curation: seeded edit streams per KB. Every KB first gets kRetained
  // batches (so its retained versions are all edit-written); after that
  // only the cold KBs (the upper half) are edited, a slice per round.
  std::vector<EditStream> streams;
  std::vector<rdf::TemporalGraph> reference;  // KB i with acked scripts
  for (int i = 0; i < kBrowseKbs; ++i) {
    streams.emplace_back(texts[i], config.seed * 7919 + i, IsPlaysFor,
                         FootballInsert(kBrowsePlayers));
    reference.push_back(ApplyScripts(texts[i], {}));
  }
  std::vector<std::vector<std::string>> scripts(kBrowseKbs);
  std::vector<std::vector<uint64_t>> acked(kBrowseKbs);
  std::vector<uint64_t> current(kBrowseKbs);
  std::vector<std::map<uint64_t, int64_t>> expected(kBrowseKbs);
  // `batches[i]` edit batches on KB i, one curator per KB; then the
  // reference counts and warm conflict reports of the newly retained
  // versions. Returns the curation's wall time.
  auto curate = [&](const std::vector<int>& batches, Samples* latency) {
    std::vector<size_t> first(kBrowseKbs);
    std::vector<Samples> local(kBrowseKbs);
    std::vector<int> todo;
    for (int i = 0; i < kBrowseKbs; ++i) {
      first[i] = scripts[i].size();
      if (batches[i] > 0) todo.push_back(i);
    }
    const double start = Now();
    ParallelFor(static_cast<int>(todo.size()), [&](int t) {
      const int i = todo[static_cast<size_t>(t)];
      HttpClient c(server->port());
      for (int b = 0; b < batches[i]; ++b) {
        const std::string script = streams[i].Next();
        const double s = Now();
        const std::string out = Must(&c, "POST", KbPath(kbs[i], "edits"),
                                     Body("script", script, BrowseSolver(i)));
        local[i].Add(1e3 * (Now() - s));
        scripts[i].push_back(script);
        acked[i].push_back(VersionOf(out));
      }
    });
    const double elapsed = Now() - start;
    if (latency != nullptr) {
      for (const Samples& l : local) latency->Append(l);
    }
    ParallelFor(config.nproc, [&](int t) {
      HttpClient c(server->port());
      for (size_t k = static_cast<size_t>(t); k < todo.size();
           k += static_cast<size_t>(config.nproc)) {
        const int i = todo[k];
        current[i] = acked[i].back();
        for (size_t j = first[i]; j < scripts[i].size(); ++j) {
          ApplyScript(&reference[i], scripts[i][j]);
          const uint64_t v = acked[i][j];
          if (v + kRetained <= current[i]) continue;
          expected[i][v] = CountConflicts(&reference[i], constraints);
          Must(&c, "GET", KbPath(kbs[i], "conflicts") +
                              "?limit=25&as_of=" + std::to_string(v));
        }
      }
    });
    return elapsed;
  };
  curate(std::vector<int>(kBrowseKbs, kRetained), nullptr);

  // The read mix: Zipf over KBs, an endpoint mix, and a fifth of the
  // reads pinned to an older retained version with ?as_of=.
  std::vector<double> zipf(kBrowseKbs);
  for (int i = 0; i < kBrowseKbs; ++i) zipf[i] = 1.0 / std::pow(i + 1, kZipfS);
  std::discrete_distribution<int> pick_kb(zipf.begin(), zipf.end());
  std::uniform_real_distribution<double> unit(0, 1);
  static const char* kPrefixes[] = {"p", "pl", "b", "l", "plays"};
  auto make_op = [&]() {
    ReadOp op;
    op.kb = pick_kb(rng);
    const double r = unit(rng);
    std::string query;
    if (r < 0.3) {
      op.endpoint = "stats";
    } else if (r < 0.5) {
      op.endpoint = "complete";
      query = std::string("prefix=") + kPrefixes[rng() % 5];
    } else if (r < 0.7) {
      op.endpoint = "graph";
    } else {
      op.endpoint = "conflicts";
      op.conflicts = true;
      query = "limit=25";
    }
    op.as_of = current[op.kb];
    if (unit(rng) < 0.2) {
      op.as_of -= 1 + rng() % (kRetained - 1);
      query += (query.empty() ? "" : "&") + std::string("as_of=") +
               std::to_string(op.as_of);
    }
    op.path = KbPath(kbs[op.kb], op.endpoint) +
              (query.empty() ? "" : "?" + query);
    return op;
  };
  const int rounds = Rounds(config.seconds, 2);
  // Open-loop reads take half the run: each round's segment runs twice.
  const double segment_s = config.seconds * 0.25 / rounds;
  // Edit batches per cold KB per round: at least 200 in all, so edit_p95
  // has ten samples beyond it.
  const int per_round = (200 + 4 * rounds - 1) / (4 * rounds);
  std::vector<int> cold(kBrowseKbs, 0);
  for (int i = kBrowseKbs / 2; i < kBrowseKbs; ++i) cold[i] = per_round;

  // Rounds: a curation slice, an open-loop read segment, a saturation
  // burst, then the side phases (cold reloads of the spare KB, mining,
  // crash-image recovery).
  LoadResult untraced;
  size_t bad = 0, reads = 0;
  for (int r = 0; r < rounds; ++r) {
    e.edit_rate.Add(kBrowseKbs / 2 * per_round / curate(cold, &e.edit_ms));
    const std::vector<double> due =
        PoissonSchedule(&rng, kBrowseRate, segment_s);
    std::vector<ReadOp> ops, sat_ops;
    for (size_t i = 0; i < due.size(); ++i) ops.push_back(make_op());
    for (int i = 0; i < 4096; ++i) sat_ops.push_back(make_op());
    // The segment's schedule runs twice (traced: untraced, then traced).
    LoadResult first, second;
    {
      Connections conns(server->port(), config.nproc);
      const Transport http = [&](int c, const ReadOp& op) {
        return conns.Get(c, op);
      };
      first = RunOpenLoop(ops, due, config.nproc, http);
      second = RunOpenLoop(ops, due, config.nproc,
                           config.trace ? TracedReads(tracer, http) : http);
      e.Saturate(sat_ops, config.nproc, config.seconds * 0.1 / rounds, http);
    }
    for (const LoadResult* pass : {&first, &second}) {
      for (size_t i = 0; i < ops.size(); ++i) {
        const ReadOutcome& out = pass->outcomes[i];
        bool ok = out.status == 200 && out.version == ops[i].as_of;
        if (ok && ops[i].conflicts) {
          auto it = expected[ops[i].kb].find(ops[i].as_of);
          ok = it != expected[ops[i].kb].end() &&
               it->second == out.num_conflicts;
        }
        bad += ok ? 0 : 1;
      }
      reads += ops.size();
    }
    if (config.trace) {
      Merge(&untraced, first);
      e.AddReads(second);
    } else {
      e.AddReads(BetterOfTwo(first, second));
    }
    HttpClient c(server->port());
    for (int k = 0; k < kBrowseReloads; ++k) {
      const std::string& text =
          texts[static_cast<size_t>(r * kBrowseReloads + k) % texts.size()];
      for (const char* solver : {"mln", "psl"}) {
        const double start = Now();
        Must(&c, "POST", KbPath("spare", "graph"), Body("text", text));
        Must(&c, "POST", KbPath("spare", "solve"), Body("", "", solver));
        (solver[0] == 'm' ? e.resolve_mln_s : e.resolve_psl_s)
            .Add(Now() - start);
      }
    }
    for (int m = 0; m < kBrowseMines; ++m) {
      const double start = Now();
      Must(&c, "POST",
           KbPath(kbs[(kBrowseMines * r + m) % kBrowseKbs], "mine"), "{}");
      e.mine_s.Add(Now() - start);
    }
    if (r % 2 == 0) {  // a recovery takes ~0.4 s; five per 20 s run
      e.recover_s.Add(
          CrashImageRecovery(config, data, work + "/image", log, kbs));
    }
  }
  report->Check("kg_browse.reads_match_reference", bad == 0,
                std::to_string(bad) + " of " + std::to_string(reads) +
                    " reads mismatched");
  e.rss_mb = server->PeakRssMb();
  std::map<std::string, double> scrape;
  {
    HttpClient c(server->port());
    scrape = ScrapeMetrics(&c);
  }
  // The real thing once: SIGKILL the measured server and restart it.
  e.recover_s.Add(RestartAndTime(&server, config, data, log, kbs));
  std::map<std::string, double> recovered;
  {
    HttpClient c(server->port());
    size_t lost = 0;
    for (int i = 0; i < kBrowseKbs; ++i) {
      const uint64_t v = VersionOf(Must(&c, "GET", KbPath(kbs[i], "graph")));
      lost += v == acked[i].back() ? 0 : 1;
    }
    report->Check("kg_browse.acked_versions_survive_restart", lost == 0,
                  std::to_string(lost) + " KBs lost acknowledged versions");
    recovered = ScrapeMetrics(&c);
  }
  if (!config.trace) {
    EmitEndToEnd(e, {"read", "capacity"}, report);
    return;
  }

  // Traced: handler time from the hot KB rebuilt in-process and its reads
  // replayed; transport is the rest of the round trip.
  api::EngineRegistry replica;
  BuildReplica(&replica, kbs[0], texts[0], constraints, scripts[0]);
  // The hot KB is not edited after its first kRetained batches, so its
  // current-version reads replay against the rebuilt KB unchanged.
  std::vector<ReadOp> hot;
  for (int i = 0; i < 4000; ++i) {
    ReadOp op = make_op();
    if (op.kb == 0 && op.path.find("as_of") == std::string::npos) {
      hot.push_back(op);
    }
  }
  EmitReadLayers(e.open_loop, untraced, ReplayHandler(&replica, hot), scrape,
                 true, report);
  report->Metric("trace.overhead_frac",
                 e.open_loop.latency_us.Median() /
                         untraced.latency_us.Median() -
                     1,
                 "ratio", e.open_loop.latency_us.size());
  // A read's due-to-done time is generator wait plus the round trip; the
  // replay splits the round trip into handler and transport.
  const double total = e.open_loop.latency_us.Sum();
  const double covered = e.open_loop.round_trip_us.Sum() +
                         e.open_loop.queue_us.Sum() +
                         e.open_loop.late_us.Sum();
  report->Metric("trace.unattributed_frac",
                 std::max(0.0, total - covered) / total, "ratio",
                 e.open_loop.latency_us.size());
  size_t edits = 0;
  const double bytes = TotalBytes(scripts, &edits);
  EmitStorageCounters(static_cast<double>(edits), bytes, scrape,
                      before_history, recovered, e.recover_s.Median(), report);
  LayerInput layer;
  layer.graph_text = texts[0];
  layer.rules_text = constraints;
  layer.scripts.assign(scripts[0].begin(), scripts[0].begin() + 8);
  layer.work_dir = work;
  ProfileModules(layer, report, tracer);
  ProfileEdits(layer, report, tracer);
  report->Attempt(untraced.attempted, untraced.failed);
}

// =========================================================== kg_curate

namespace {
constexpr int kCurateKbs = 2;
constexpr size_t kCuratePlayers = 2000;
constexpr double kCurateReadRate = 450;  // offered req/s, open loop
constexpr size_t kConflictsEvery = 32;  // one read in 32 is `conflicts`
// Side phases per round: cold reloads of the spare KB per solver, and
// mining passes (20 and 100 samples in a 20 s run).
constexpr int kCurateReloads = 2;
constexpr int kCurateMines = 10;
}  // namespace

void RunKgCurate(const RunConfig& config, Report* report, Tracer* tracer) {
  const std::string work = FreshDir(config.work_dir + "/kg_curate");
  const std::string log = work + "/server.log";
  std::mt19937_64 rng(config.seed);
  EndToEnd e;
  const std::string constraints = FootballConstraintsText();
  std::vector<std::string> kbs;
  for (int i = 0; i < kCurateKbs; ++i) kbs.push_back("cur" + std::to_string(i));

  // Set-up, repeated on fresh data dirs: generate, load, solve, warm.
  std::vector<std::string> texts(kCurateKbs);
  std::unique_ptr<ServerProcess> server;
  std::string data;
  for (int setup = 0; setup < kSetups; ++setup) {
    if (server) server->Kill();
    data = FreshDir(work + "/data");
    const double t0 = Now();
    for (int i = 0; i < kCurateKbs; ++i) {
      texts[i] = FootballText(kCuratePlayers, config.seed * 1000 + 100 + i);
    }
    server = std::make_unique<ServerProcess>(config.server_binary, data, log);
    if (!server->ok()) throw std::runtime_error("server start failed");
    HttpClient c(server->port());
    for (int i = 0; i < kCurateKbs; ++i) {
      Must(&c, "POST", "/v1/kb", "{\"name\": \"" + kbs[i] + "\"}");
      Must(&c, "POST", KbPath(kbs[i], "rules"), Body("text", constraints));
      Must(&c, "POST", KbPath(kbs[i], "graph"), Body("text", texts[i]));
      Must(&c, "POST", KbPath(kbs[i], "solve"), Body("", "", "mln"));
      Must(&c, "GET", KbPath(kbs[i], "conflicts") + "?limit=25");
    }
    e.setup_s.Add(Now() - t0);
  }
  report->Env("data_dir_fs", FilesystemOf(data));
  {
    HttpClient c(server->port());
    Must(&c, "POST", "/v1/kb", "{\"name\": \"spare\"}");
    Must(&c, "POST", KbPath("spare", "rules"), Body("text", constraints));
  }

  std::vector<EditStream> streams;
  for (int i = 0; i < kCurateKbs; ++i) {
    streams.emplace_back(texts[i], config.seed * 7919 + 100 + i, IsPlaysFor,
                         FootballInsert(kCuratePlayers));
  }
  std::vector<std::vector<std::string>> scripts(kCurateKbs);
  std::vector<uint64_t> last_version(kCurateKbs);
  std::vector<double> last_objective(kCurateKbs);
  // One acknowledged edit batch on KB i; returns its round trip (s) and
  // leaves the response in `*body` when asked.
  auto edit_once = [&](HttpClient* c, int i, std::string* body = nullptr) {
    const std::string script = streams[i].Next();
    const double start = Now();
    const std::string out =
        Must(c, "POST", KbPath(kbs[i], "edits"), Body("script", script));
    const double elapsed = Now() - start;
    scripts[i].push_back(script);
    last_version[i] = VersionOf(out);
    last_objective[i] = ObjectiveOf(out);
    if (body != nullptr) *body = out;
    return elapsed;
  };
  // Readers re-read conflicts and stats of both KBs on the connections the
  // editors leave free.
  const int readers = std::max(1, config.nproc - kCurateKbs);
  auto make_read = [&](size_t i) {
    ReadOp op;
    op.kb = static_cast<int>(i % kCurateKbs);
    op.conflicts = (i / kCurateKbs) % kConflictsEvery == 0;
    op.endpoint = op.conflicts ? "conflicts" : "stats";
    op.path = KbPath(kbs[op.kb], op.endpoint) +
              (op.conflicts ? "?limit=25" : "");
    return op;
  };
  const int rounds = Rounds(config.seconds, 2);
  const double edit_s = config.seconds * 0.65;
  std::vector<ReadOp> ops;
  const std::vector<double> due =
      PoissonSchedule(&rng, kCurateReadRate, edit_s);
  for (size_t i = 0; i < due.size(); ++i) ops.push_back(make_read(i));
  const std::vector<Segment> segments =
      SplitSchedule(ops, due, edit_s, rounds);
  std::vector<ReadOp> sat_ops;
  for (size_t i = 0; i < 64; ++i) sat_ops.push_back(make_read(i));

  std::map<std::string, double> before_scrape;
  {
    HttpClient c(server->port());
    before_scrape = ScrapeMetrics(&c);
  }
  // Traced edits run one at a time with the server's stage counters
  // scraped around each, so their deltas belong to that edit alone. Span
  // tree: the round trip; below it the incremental re-solve (its own
  // timings from the response: grounding with canonicalization inside,
  // then the MAP solve) and the publish stage.
  Samples untraced_edit_s, traced_edit_s;
  auto traced_edit = [&](HttpClient* c, HttpClient* scraper, int i) {
    const auto before = ScrapeMetrics(scraper);
    const uint64_t request = tracer->NewRequest();
    std::string body;
    const double t = Now();
    const double rtt = edit_once(c, i, &body);
    const auto after = ScrapeMetrics(scraper);
    traced_edit_s.Add(rtt);
    auto ms = [&](const char* key) {
      auto json = Json::Parse(body);
      const Json* v = json.ok() ? json->Find(key) : nullptr;
      return v == nullptr ? 0.0 : v->number_value() / 1e3;
    };
    const double total = ms("total_time_ms"), ground = ms("ground_time_ms"),
                 solve = ms("solve_time_ms");
    const double publish = Delta(after, before, StageKey("publish")) / 1e6;
    const double canon = std::min(
        ground, Delta(after, before, StageKey("canonicalize")) / 1e6);
    const uint64_t root = tracer->Record("edit", request, 0, t, t + rtt);
    // Laid out in execution order inside the round trip.
    const double begin = t + std::max(0.0, rtt - total - publish) / 2;
    const uint64_t apply =
        tracer->Record("core.apply_edits", request, root, begin, begin + total);
    const uint64_t g =
        tracer->Record("ground", request, apply, begin, begin + ground);
    tracer->Record("ground.canonicalize", request, g, begin + ground - canon,
                   begin + ground);
    tracer->Record("mln.solve", request, apply, begin + ground,
                   begin + ground + solve);
    tracer->Record("api.publish", request, root, begin + total,
                   begin + total + publish);
  };

  // Rounds: editors and readers together, a saturation burst, then the
  // side phases (cold reloads of a spare KB, mining, crash-image
  // recovery).
  for (int r = 0; r < rounds; ++r) {
    const Segment& seg = segments[static_cast<size_t>(r)];
    const double seg_s = edit_s / rounds;
    if (!config.trace) {
      std::vector<Samples> latency(kCurateKbs);
      Connections conns(server->port(), readers);
      const double start = Now();
      ParallelFor(kCurateKbs + 1, [&](int t) {
        if (t == kCurateKbs) {
          e.AddReads(RunOpenLoop(seg.ops, seg.due, readers,
                                 [&](int c, const ReadOp& op) {
                                   return conns.Get(c, op);
                                 }));
          return;
        }
        HttpClient c(server->port());
        while (Now() - start < seg_s) {
          latency[static_cast<size_t>(t)].Add(1e3 * edit_once(&c, t));
        }
      });
      size_t batches = 0;
      for (const Samples& s : latency) {
        e.edit_ms.Append(s);
        batches += s.size();
      }
      e.edit_rate.Add(batches / (Now() - start));
    } else {
      HttpClient c(server->port());
      HttpClient scraper(server->port());
      size_t n = 0;
      double start = Now();
      while (Now() - start < seg_s / 2) {
        untraced_edit_s.Add(edit_once(&c, static_cast<int>(n++ % kCurateKbs)));
      }
      start = Now();
      while (Now() - start < seg_s / 2) {
        traced_edit(&c, &scraper, static_cast<int>(n++ % kCurateKbs));
      }
    }
    {
      Connections conns(server->port(), config.nproc);
      e.Saturate(sat_ops, config.nproc, config.seconds * 0.1 / rounds,
                 [&](int c, const ReadOp& op) { return conns.Get(c, op); });
    }
    HttpClient c(server->port());
    for (int k = 0; k < kCurateReloads; ++k) {
      const std::string& text =
          texts[static_cast<size_t>(r * kCurateReloads + k) % texts.size()];
      for (const char* solver : {"mln", "psl"}) {
        const double start = Now();
        Must(&c, "POST", KbPath("spare", "graph"), Body("text", text));
        Must(&c, "POST", KbPath("spare", "solve"), Body("", "", solver));
        (solver[0] == 'm' ? e.resolve_mln_s : e.resolve_psl_s)
            .Add(Now() - start);
      }
    }
    for (int m = 0; m < kCurateMines; ++m) {
      const double start = Now();
      Must(&c, "POST", KbPath(kbs[m % kCurateKbs], "mine"), "{}");
      e.mine_s.Add(Now() - start);
    }
    for (int k = 0; k < 2; ++k) {
      e.recover_s.Add(
          CrashImageRecovery(config, data, work + "/image", log, kbs));
    }
  }
  if (!config.trace) {
    size_t bad = 0;
    for (const ReadOutcome& out : e.open_loop.outcomes) {
      bad += out.status == 200 && out.version > 0 ? 0 : 1;
    }
    report->Check("kg_curate.reads_ok", bad == 0,
                  std::to_string(bad) + " failed reads");
  }
  for (int i = 0; i < kCurateKbs; ++i) {
    report->Check("kg_curate.edits_acknowledged_" + kbs[i],
                  !scripts[i].empty(),
                  std::to_string(scripts[i].size()) + " batches");
  }
  e.rss_mb = server->PeakRssMb();
  std::map<std::string, double> after_scrape;
  {
    HttpClient c(server->port());
    after_scrape = ScrapeMetrics(&c);
  }

  // Reference: from-scratch resolve of each edited KB (untimed).
  std::vector<std::string> want(kCurateKbs);
  for (int i = 0; i < kCurateKbs; ++i) {
    rdf::TemporalGraph g = ApplyScripts(texts[i], scripts[i]);
    want[i] = FormatDoubleExact(
        ResolveFromScratch(&g, constraints, rules::SolverKind::kMln).objective);
    report->Check("kg_curate.final_objective_" + kbs[i],
                  FormatDoubleExact(last_objective[i]) == want[i],
                  FormatDoubleExact(last_objective[i]) + " vs " + want[i]);
  }
  // The real thing once: SIGKILL the measured server and restart it.
  e.recover_s.Add(RestartAndTime(&server, config, data, log, kbs));
  std::map<std::string, double> recovered_scrape;
  {
    HttpClient c(server->port());
    recovered_scrape = ScrapeMetrics(&c);
    for (int i = 0; i < kCurateKbs; ++i) {
      const uint64_t v = VersionOf(Must(&c, "GET", KbPath(kbs[i], "graph")));
      report->Check("kg_curate.acked_version_survives_" + kbs[i],
                    v == last_version[i],
                    std::to_string(v) + " vs " +
                        std::to_string(last_version[i]));
      // No solve runs during recovery, so this is a full ground + solve
      // of the recovered KB.
      const std::string solved =
          Must(&c, "POST", KbPath(kbs[i], "solve"), Body("", "", "mln"));
      report->Check("kg_curate.recovered_objective_" + kbs[i],
                    FormatDoubleExact(ObjectiveOf(solved)) == want[i],
                    FormatDoubleExact(ObjectiveOf(solved)) + " vs " + want[i]);
    }
  }

  if (!config.trace) {
    EmitEndToEnd(e, {"edit", "read", "recover"}, report);
    return;
  }
  // Self time of every span of the traced edits, as a share of their
  // round trips; the root's own share is the unattributed part.
  EmitSelfShares(*tracer, {"edit"},
                 {"core.apply_edits", "ground", "ground.canonicalize",
                  "mln.solve", "api.publish"},
                 report);
  report->Metric("trace.overhead_frac",
                 traced_edit_s.Median() / untraced_edit_s.Median() - 1,
                 "ratio", traced_edit_s.size());
  size_t edits = 0;
  const double bytes = TotalBytes(scripts, &edits);
  EmitStorageCounters(static_cast<double>(edits), bytes, after_scrape,
                      before_scrape, recovered_scrape, e.recover_s.Median(),
                      report);
  // Reads on the recovered server: a short untraced/traced pair for the
  // loadgen and server layers; handler time from an in-process replay.
  std::vector<ReadOp> read_ops;
  const std::vector<double> read_due =
      PoissonSchedule(&rng, kCurateReadRate, config.seconds * 0.1);
  for (size_t i = 0; i < read_due.size(); ++i) read_ops.push_back(make_read(i));
  LoadResult untraced, traced;
  {
    Connections conns(server->port(), readers);
    const Transport http = [&](int c, const ReadOp& op) {
      return conns.Get(c, op);
    };
    untraced = RunOpenLoop(read_ops, read_due, readers, http);
    traced =
        RunOpenLoop(read_ops, read_due, readers, TracedReads(tracer, http));
  }
  HttpClient scraper(server->port());
  api::EngineRegistry replica;
  // The unedited KB: reads of it cost what reads of the edited one do.
  BuildReplica(&replica, kbs[0], texts[0], constraints, {});
  std::vector<ReadOp> hot;
  for (const ReadOp& op : read_ops) {
    if (op.kb == 0) hot.push_back(op);
  }
  EmitReadLayers(traced, untraced, ReplayHandler(&replica, hot),
                 ScrapeMetrics(&scraper), true, report);
  LayerInput layer;
  layer.graph_text = texts[0];
  layer.rules_text = constraints;
  layer.scripts.assign(
      scripts[0].begin(),
      scripts[0].begin() + std::min<size_t>(16, scripts[0].size()));
  layer.work_dir = work;
  ProfileModules(layer, report, tracer);
  ProfileEdits(layer, report, tracer);
  report->Attempt(edits + traced.attempted + untraced.attempted,
                  traced.failed + untraced.failed);
}

// ======================================================= resolve_batch

namespace {
constexpr size_t kBatchPlayers = 6500;
constexpr size_t kSidePlayers = 2000;
constexpr int kSideEdits = 400;  // per run, spread over the rounds
// Offered reads/s: 12,000 reads per run, twelve 1,000-read windows.
constexpr double kBatchReadRate = 6000;

struct Outcome {
  std::string objective;
  size_t kept = 0, removed = 0;
  bool operator==(const Outcome& o) const {
    return objective == o.objective && kept == o.kept && removed == o.removed;
  }
};
Outcome OutcomeOf(const core::ResolveResult& r) {
  return Outcome{FormatDoubleExact(r.objective), r.kept_facts.size(),
                 r.removed_facts.size()};
}
}  // namespace

void RunResolveBatch(const RunConfig& config, Report* report,
                     Tracer* tracer) {
  const std::string work = FreshDir(config.work_dir + "/resolve_batch");
  const std::string data = FreshDir(work + "/data");
  report->Env("data_dir_fs", FilesystemOf(data));
  std::mt19937_64 rng(config.seed);
  EndToEnd e;

  // Set-up: input generation, and the durable side store (a 2,000-player
  // KB curated in-process through the `solve --edits` path plus a WAL)
  // loaded and solved. Repeated, median reported. The paper KBs' cold
  // load + solve is the measured operation itself (resolve_*_s).
  std::string wd, fb, side_text;
  const std::string wd_rules = WikidataConstraintsText();
  const std::string fb_rules = FootballRulesAndConstraintsText();
  const std::string side_rules = FootballConstraintsText();
  core::ResolveOptions mln_options, psl_options;
  psl_options.solver = rules::SolverKind::kPsl;
  api::EngineRegistry::Options durable;
  durable.data_dir = data;
  std::unique_ptr<api::EngineRegistry> side_registry;
  std::shared_ptr<api::Engine> side;
  for (int setup = 0; setup < kSetups; ++setup) {
    side.reset();
    side_registry.reset();
    FreshDir(data);
    const double t0 = Now();
    wd = WikidataText(config.seed);
    fb = FootballText(kBatchPlayers, config.seed * 1000 + 7);
    side_text = FootballText(kSidePlayers, config.seed * 1000 + 9);
    side_registry = std::make_unique<api::EngineRegistry>(durable);
    side = OrDie(side_registry->Create("side"), "side create");
    OrDie(side->AddRulesText(side_rules), "side rules");
    OrDie(side->LoadGraphText(side_text), "side load");
    OrDie(side->Solve(mln_options), "side solve");
    e.setup_s.Add(Now() - t0);
  }

  EditStream stream(side_text, config.seed * 7919 + 9, IsPlaysFor,
                    FootballInsert(kSidePlayers));
  const auto side_before = InProcessMetrics();
  std::vector<std::string> side_scripts;
  uint64_t acked = 0;

  api::EngineRegistry registry;
  // One paper run: cold load + ground + solve through the Engine entry
  // points tecore-cli uses. Traced, it is a span tree: the three calls,
  // and below the solve its grounding, MAP and publish.
  auto resolve = [&](const std::string& name, const std::string& text,
                     const std::string& rules,
                     const core::ResolveOptions& options, const char* span,
                     Samples* samples, std::vector<Outcome>* runs) {
    (void)registry.Delete(name);
    auto engine = OrDie(registry.Create(name), "create");
    const uint64_t request = tracer->NewRequest();
    auto publish_us = []() {
      return static_cast<double>(obs::StageHistogram("publish")->Snap().sum);
    };
    const double p0 = publish_us();
    const double start = Now();
    OrDie(engine->LoadGraphText(text), "load");
    const double loaded = Now();
    OrDie(engine->AddRulesText(rules), "rules");
    const double ruled = Now();
    const double p1 = publish_us();
    auto solved = OrDie(engine->Solve(options), "solve");
    const double end = Now();
    samples->Add(end - start);
    runs->push_back(OutcomeOf(*solved.result));
    if (!tracer->enabled()) return engine;
    const double p2 = publish_us();
    const uint64_t root = tracer->Record(span, request, 0, start, end);
    const uint64_t load =
        tracer->Record("api.load_graph", request, root, start, loaded);
    tracer->Record("api.publish", request, load, loaded - (p1 - p0) / 1e6,
                   loaded);
    tracer->Record("api.add_rules", request, root, loaded, ruled);
    const uint64_t solve =
        tracer->Record("api.solve", request, root, ruled, end);
    const double g = solved.result->ground_time_ms / 1e3;
    const double s = solved.result->solve_time_ms / 1e3;
    tracer->Record("ground", request, solve, ruled, ruled + g);
    tracer->Record(options.solver == rules::SolverKind::kPsl ? "psl.solve"
                                                             : "mln.solve",
                   request, solve, ruled + g, ruled + g + s);
    tracer->Record("api.publish", request, solve, end - (p2 - p1) / 1e6, end);
    return engine;
  };

  // Reads of the resolved KBs go through the served handler in-process.
  const server::HttpHandler handler = server::MakeApiHandler(&registry);
  auto make_op = [&](size_t i) {
    static const char* kEndpoints[] = {"stats", "complete", "graph",
                                       "conflicts"};
    ReadOp op;
    op.kb = static_cast<int>(i % 2);
    op.endpoint = kEndpoints[(i / 2) % 4];
    op.conflicts = op.endpoint == "conflicts";
    op.path = KbPath(op.kb == 0 ? "wd" : "fb", op.endpoint) +
              (op.endpoint == "complete" ? "?prefix=p" : "?limit=25");
    return op;
  };
  std::vector<uint64_t> versions(2);
  const Transport local = [&](int, const ReadOp& op) {
    server::HttpRequest request;
    request.method = "GET";
    const size_t q = op.path.find('?');
    request.path = op.path.substr(0, q);
    request.query = op.path.substr(q + 1);
    const server::HttpResponse response = handler(request);
    ReadOutcome out;
    out.status = response.status;
    ParseReadBody(response.body, &out);
    return out;
  };
  const int rounds = Rounds(config.seconds, 4);
  const double read_s = config.seconds * 0.1;  // per pass; two passes
  const std::vector<double> due = PoissonSchedule(&rng, kBatchReadRate, read_s);
  std::vector<ReadOp> ops, sat_ops;
  for (size_t i = 0; i < due.size(); ++i) ops.push_back(make_op(i));
  for (size_t i = 0; i < 64; ++i) sat_ops.push_back(make_op(i));
  // Two read segments per round, apart in time.
  const std::vector<Segment> segments =
      SplitSchedule(ops, due, read_s, 2 * rounds);

  // Rounds: the paper's three runs, between them the side phases (reads of
  // the resolved KBs, slices of the curation), then crash-image recovery.
  std::vector<Outcome> mln_runs, psl_runs;
  std::vector<std::string> tcr_runs;
  LoadResult untraced;
  size_t bad_reads = 0, lost_versions = 0;
  // Four slices of the side curation per round, between the paper runs,
  // so its throughput (one sample per slice) spans the whole round. At
  // least kSideEdits batches in all, so edit_p95 has ten beyond it.
  const int slice = (kSideEdits + 4 * rounds - 1) / (4 * rounds);
  auto curate = [&](int batches) {
    const double start = Now();
    for (int b = 0; b < batches; ++b) {
      side_scripts.push_back(stream.Next());
      const double s = Now();
      acked = OrDie(side->ApplyEditScript(side_scripts.back(), mln_options),
                    "side edit")
                  .version;
      e.edit_ms.Add(1e3 * (Now() - s));
    }
    e.edit_rate.Add(batches / (Now() - start));
  };
  // One read segment, its schedule run twice (traced: untraced, then
  // traced).
  auto read_segment = [&](const Segment& seg) {
    const LoadResult first = RunOpenLoop(seg.ops, seg.due, config.nproc, local);
    const LoadResult second = RunOpenLoop(
        seg.ops, seg.due, config.nproc,
        config.trace ? TracedReads(tracer, local) : local);
    for (const LoadResult* pass : {&first, &second}) {
      for (size_t i = 0; i < seg.ops.size(); ++i) {
        const ReadOutcome& out = pass->outcomes[i];
        const uint64_t want = versions[static_cast<size_t>(seg.ops[i].kb)];
        bad_reads += out.status == 200 && out.version == want ? 0 : 1;
      }
    }
    if (config.trace) {
      Merge(&untraced, first);
      e.AddReads(second);
    } else {
      e.AddReads(BetterOfTwo(first, second));
    }
  };
  for (int r = 0; r < rounds; ++r) {
    auto wd_engine = resolve("wd", wd, wd_rules, mln_options, "resolve_mln",
                             &e.resolve_mln_s, &mln_runs);
    curate(slice);
    auto fb_engine = resolve("fb", fb, fb_rules, psl_options, "resolve_psl",
                             &e.resolve_psl_s, &psl_runs);
    versions = {wd_engine->version(), fb_engine->version()};
    for (size_t i = 0; i < 8; ++i) local(0, make_op(i));  // warm conflicts
    read_segment(segments[static_cast<size_t>(2 * r)]);
    curate(slice);
    {
      const uint64_t request = tracer->NewRequest();
      const double start = Now();
      const mine::MiningReport mined =
          OrDie(wd_engine->snapshot()->MineConstraints(), "mine");
      const double end = Now();
      e.mine_s.Add(end - start);
      tracer->Record("mine", request, 0, start, end);
      tcr_runs.push_back(mine::WriteMinedRulesText(mined, {}));
    }
    curate(slice);
    read_segment(segments[static_cast<size_t>(2 * r + 1)]);
    e.Saturate(sat_ops, config.nproc, config.seconds * 0.08 / rounds, local);

    curate(slice);
    // Crash images of the idle side store, reopened in a fresh registry.
    for (int k = 0; k < 3; ++k) {
      const std::string image = work + "/image";
      std::filesystem::remove_all(image);
      std::filesystem::copy(data, image,
                            std::filesystem::copy_options::recursive);
      const double t0 = Now();
      api::EngineRegistry::Options reopen;
      reopen.data_dir = image;
      api::EngineRegistry reopened(reopen);
      OrDie(reopened.RecoverKbs(), "recover");
      auto engine = OrDie(reopened.Get("side"), "side get");
      const bool readable = engine->snapshot()->has_graph();
      e.recover_s.Add(Now() - t0);
      lost_versions += readable && engine->version() == acked ? 0 : 1;
    }
  }
  report->Check("resolve_batch.acked_version_survives_reopen",
                lost_versions == 0,
                std::to_string(lost_versions) + " of " +
                    std::to_string(e.recover_s.size()) +
                    " reopened stores lost the last acknowledged version");
  report->Check("resolve_batch.reads_ok", bad_reads == 0,
                std::to_string(bad_reads) + " bad reads");

  // References: from-scratch core::Resolver::Run (untimed).
  auto check_runs = [&](const char* name, const std::string& text,
                        const std::string& rules, rules::SolverKind solver,
                        const std::vector<Outcome>& runs) {
    rdf::TemporalGraph g = OrDie(rdf::ParseGraphText(text), "parse");
    const Outcome want = OutcomeOf(ResolveFromScratch(&g, rules, solver));
    const size_t bad = static_cast<size_t>(
        std::count_if(runs.begin(), runs.end(),
                      [&](const Outcome& o) { return !(o == want); }));
    report->Check(name, bad == 0,
                  "objective " + want.objective + ", kept " +
                      std::to_string(want.kept) + ", removed " +
                      std::to_string(want.removed) + "; " +
                      std::to_string(bad) + " of " +
                      std::to_string(runs.size()) + " runs differ");
  };
  check_runs("resolve_batch.mln_matches_reference", wd, wd_rules,
             rules::SolverKind::kMln, mln_runs);
  check_runs("resolve_batch.psl_matches_reference", fb, fb_rules,
             rules::SolverKind::kPsl, psl_runs);
  report->Check(
      "resolve_batch.mined_tcr_identical",
      !tcr_runs.front().empty() &&
          std::all_of(tcr_runs.begin(), tcr_runs.end(),
                      [&](const std::string& t) { return t == tcr_runs[0]; }),
      std::to_string(tcr_runs.size()) + " passes");
  e.rss_mb = SelfPeakRssMb();

  if (!config.trace) {
    EmitEndToEnd(e, {"resolve", "mine"}, report);
    return;
  }
  // Traced: the paper runs' span trees give the layer split; the module
  // profile gives the per-call metrics.
  EmitSelfShares(*tracer, {"resolve_mln", "resolve_psl"},
                 {"api.load_graph", "api.add_rules", "api.solve",
                  "api.publish", "ground", "mln.solve", "psl.solve"},
                 report);
  report->Metric("trace.overhead_frac",
                 e.open_loop.latency_us.Median() /
                         untraced.latency_us.Median() -
                     1,
                 "ratio", e.open_loop.latency_us.size());
  EmitReadLayers(e.open_loop, untraced, ReplayHandler(&registry, ops),
                 InProcessMetrics(), false, report);
  // The side store's WAL and checkpoint counters (this process's own).
  side_registry.reset();
  const auto counters = InProcessMetrics();
  EmitStorageCounters(kSideEdits, static_cast<double>(stream.script_bytes()),
                      counters, side_before, counters, e.recover_s.Median(),
                      report);
  LayerInput paper;
  paper.graph_text = wd;
  paper.rules_text = wd_rules;
  paper.psl_graph_text = fb;
  paper.psl_rules_text = fb_rules;
  ProfileModules(paper, report, tracer);
  // Edits are profiled on the side KB: one Wikidata edit re-solve takes
  // about 0.6 s, too slow to sample per edit.
  LayerInput side_layer;
  side_layer.graph_text = side_text;
  side_layer.rules_text = side_rules;
  side_layer.scripts.assign(side_scripts.begin(), side_scripts.begin() + 16);
  side_layer.work_dir = work;
  ProfileEdits(side_layer, report, tracer);
  report->Attempt(untraced.attempted, untraced.failed);
}

}  // namespace tcbench
