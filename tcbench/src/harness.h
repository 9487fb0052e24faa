// Shared pieces of the tcbench harness: sample statistics, the result
// report, in-memory spans, a keep-alive HTTP client, the tecore-server
// child process, and the open/closed-loop load generators.
#ifndef TCBENCH_HARNESS_H_
#define TCBENCH_HARNESS_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/status.h"

namespace tcbench {

/// The value of an operation that must succeed; throws with `what` and
/// the status otherwise (the run then exits nonzero without a result).
template <typename T>
T OrDie(tecore::Result<T> r, const char* what) {
  if (!r.ok()) {
    throw std::runtime_error(std::string(what) + ": " + r.status().ToString());
  }
  return std::move(*r);
}

using Clock = std::chrono::steady_clock;

/// Seconds since an arbitrary process-wide epoch (steady clock).
double Now();

/// Exact samples; percentiles by nearest rank.
class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  /// Nearest-rank q-quantile (q in [0,1]); 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  /// Samples strictly above the q-quantile's rank — a percentile is
  /// reported only when at least ten lie beyond it.
  size_t Beyond(double q) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// What one run reports: every metric with its unit and sample count,
/// the output checks, and the attempt/failure tally.
class Report {
 public:
  /// `samples` is the count the value was computed from; `primary` marks
  /// the (metric, workload) pairs the workload was built to measure.
  void Metric(const std::string& name, double value, const std::string& unit,
              size_t samples, bool primary = true);
  /// A value printed in the detail line only (breakdowns, diagnostics).
  void Detail(const std::string& name, double value, const std::string& unit,
              size_t samples) {
    details_.push_back({name, Entry{value, unit, samples, false}});
  }
  /// A percentile metric: reports `q` of `s` and records whether at
  /// least ten samples lie beyond it (a check that fails otherwise).
  void Percentile(const std::string& name, const Samples& s, double q,
                  const std::string& unit, bool primary = true);
  void Check(const std::string& name, bool ok, const std::string& detail = "");
  void Attempt(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void Env(const std::string& key, const std::string& value) {
    env_[key] = value;
  }
  bool correct() const { return correct_; }
  /// Prints the detail line, then the result line (last line of stdout).
  void Print() const;

 private:
  struct Entry {
    double value;
    std::string unit;
    size_t samples;
    bool primary;
  };
  std::vector<std::pair<std::string, Entry>> metrics_;
  std::vector<std::pair<std::string, Entry>> details_;
  std::vector<std::pair<std::string, std::string>> checks_;
  std::map<std::string, std::string> env_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// In-memory span store. Spans are appended under a mutex and written
/// out once, when the run ends; recording is a no-op when disabled.
class Tracer {
 public:
  struct Span {
    uint64_t id;
    uint64_t parent;  ///< 0 = root
    uint64_t request;
    std::string name;
    double start;
    double end;
  };
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  uint64_t NewRequest() { return next_request_.fetch_add(1); }
  /// Records a finished span; returns its id (0 when disabled).
  uint64_t Record(const std::string& name, uint64_t request, uint64_t parent,
                  double start, double end);
  /// Sum over spans named `name` of their self time (duration minus the
  /// part covered by child spans), in seconds.
  double SelfTime(const std::string& name) const;
  double TotalTime(const std::string& name) const;
  size_t Count(const std::string& name) const;
  void Write(const std::string& path) const;

 private:
  bool enabled_;
  std::atomic<uint64_t> next_request_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Keep-alive HTTP/1.1 client on one blocking loopback socket.
class HttpClient {
 public:
  explicit HttpClient(int port);
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// One round trip; returns the status (0 = I/O failure, after which the
  /// client reconnects on the next call). The body lands in `*body`.
  int Round(const std::string& method, const std::string& path,
            const std::string& request_body, std::string* body);

 private:
  void Connect();
  bool Fill();
  int port_;
  int fd_ = -1;
  std::string buffer_;
};

/// A tecore-server child process on an ephemeral loopback port.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::string& data_dir,
                const std::string& log_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool ok() const { return port_ > 0; }
  int port() const { return port_; }
  /// Peak resident set of the process so far (VmHWM), in MiB.
  double PeakRssMb() const;
  /// SIGKILL and reap.
  void Kill();

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

/// Peak RSS of this process (MiB).
double SelfPeakRssMb();

/// Prometheus text exposition parsed into `series{labels}` -> value.
std::map<std::string, double> ParseMetricsText(const std::string& text);

/// GET /metrics of a server, parsed.
std::map<std::string, double> ScrapeMetrics(HttpClient* client);

/// One read request of a load schedule.
struct ReadOp {
  std::string path;
  int kb = 0;
  /// The version the response must carry (0 = current, checked later).
  uint64_t as_of = 0;
  bool conflicts = false;
  std::string endpoint;
};

/// Outcome of one read, kept for the output checks.
struct ReadOutcome {
  int status = 0;
  uint64_t version = 0;
  int64_t num_conflicts = -1;
};

/// Executes one request on connection `conn`; returns the outcome.
using Transport = std::function<ReadOutcome(int conn, const ReadOp& op)>;

/// Load-generator results.
struct LoadResult {
  Samples latency_us;     ///< from the scheduled send time (open loop)
  /// The same latencies in schedule order (open loop only).
  std::vector<double> latency_by_request_us;
  Samples late_us;        ///< generator wake-up error per request
  Samples queue_us;       ///< wait for a free connection
  Samples round_trip_us;  ///< send to response
  std::vector<ReadOutcome> outcomes;  ///< parallel to the schedule
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double elapsed_s = 0;
};

/// Appends `part` (a later segment of the same schedule) to `into`.
void Merge(LoadResult* into, const LoadResult& part);

/// Two passes of one schedule combined request by request: each request's
/// latency is the smaller of its two. A stall of the machine rarely hits
/// the same request in both passes, while the program's own slow requests
/// are slow in both. A request that fails in either pass counts as failed
/// (latency 1e12 us). Latencies and outcomes hold one entry per request;
/// attempted, failed, lateness and round trips cover both passes.
LoadResult BetterOfTwo(const LoadResult& a, const LoadResult& b);

/// Open loop: request i is due at `due[i]` seconds after the start; at
/// most `connections` requests are in flight.
LoadResult RunOpenLoop(const std::vector<ReadOp>& ops,
                       const std::vector<double>& due, int connections,
                       const Transport& transport);

/// Closed loop: `connections` workers send back to back for `seconds`,
/// cycling through `ops` from staggered offsets.
LoadResult RunClosedLoop(const std::vector<ReadOp>& ops, int connections,
                         double seconds, const Transport& transport);

/// Parses a read response body into `out` (version, conflict count).
void ParseReadBody(const std::string& body, ReadOutcome* out);

/// Options shared by the workloads.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server_binary;
  std::string work_dir;  ///< scratch space inside the checkout
  int nproc = 4;
};

void RunKgBrowse(const RunConfig& config, Report* report, Tracer* tracer);
void RunKgCurate(const RunConfig& config, Report* report, Tracer* tracer);
void RunResolveBatch(const RunConfig& config, Report* report, Tracer* tracer);

/// Filesystem type name of `path` (statfs).
std::string FilesystemOf(const std::string& path);

/// Formats a double with every digit (round-trips).
std::string Num(double v);

}  // namespace tcbench

#endif  // TCBENCH_HARNESS_H_
