#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "harness.h"

namespace tcbench {

double Now() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ------------------------------------------------------------- Samples

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Sum() const {
  double s = 0;
  for (double v : values_) s += v;
  return s;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  // Nearest rank: the smallest value with at least q*n samples at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(q * values_.size()));
  if (rank < 1) rank = 1;
  return values_[rank - 1];
}

size_t Samples::Beyond(double q) const {
  if (values_.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * values_.size()));
  if (rank < 1) rank = 1;
  return values_.size() - rank;
}

// --------------------------------------------------------------- Report

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, size_t samples, bool primary) {
  metrics_.push_back({name, Entry{value, unit, samples, primary}});
}

void Report::Percentile(const std::string& name, const Samples& s, double q,
                        const std::string& unit, bool primary) {
  Metric(name, s.Quantile(q), unit, s.size(), primary);
  if (q > 0.5) {
    Check(name + ".tail_samples", s.Beyond(q) >= 10,
          std::to_string(s.Beyond(q)) + " beyond");
  }
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, (ok ? "ok" : "FAIL") +
                               (detail.empty() ? "" : ": " + detail)});
  if (!ok) correct_ = false;
}

namespace {
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}
}  // namespace

void Report::Print() const {
  std::string detail = "{\"detail\": {";
  std::string metrics = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, e] = metrics_[i];
    const char* sep = i == 0 ? "" : ", ";
    detail += sep + Quote(name) + ": {\"value\": " + Num(e.value) +
              ", \"unit\": " + Quote(e.unit) +
              ", \"samples\": " + std::to_string(e.samples) +
              ", \"primary\": " + (e.primary ? "true" : "false") + "}";
    metrics += sep + Quote(name) + ": {\"value\": " + Num(e.value) +
               ", \"unit\": " + Quote(e.unit) + "}";
  }
  detail += "}, \"breakdown\": {";
  for (size_t i = 0; i < details_.size(); ++i) {
    const auto& [name, e] = details_[i];
    detail += (i == 0 ? "" : ", ") + Quote(name) + ": {\"value\": " +
              Num(e.value) + ", \"unit\": " + Quote(e.unit) +
              ", \"samples\": " + std::to_string(e.samples) + "}";
  }
  detail += "}, \"checks\": {";
  for (size_t i = 0; i < checks_.size(); ++i) {
    detail += (i == 0 ? "" : ", ") + Quote(checks_[i].first) + ": " +
              Quote(checks_[i].second);
  }
  detail += "}, \"env\": {";
  size_t i = 0;
  for (const auto& [k, v] : env_) {
    detail += (i++ == 0 ? "" : ", ") + Quote(k) + ": " + Quote(v);
  }
  detail += "}}";
  metrics += "}";
  std::printf("%s\n", detail.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct_ ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(attempted_, 1)),
      static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
}

// --------------------------------------------------------------- Tracer

uint64_t Tracer::Record(const std::string& name, uint64_t request,
                        uint64_t parent, double start, double end) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{id, parent, request, name, start, end});
  return id;
}

double Tracer::TotalTime(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.end - s.start;
  }
  return total;
}

size_t Tracer::Count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& s) { return s.name == name; }));
}

double Tracer::SelfTime(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<uint64_t, double> child_time;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_time[s.parent] += s.end - s.start;
  }
  double total = 0;
  for (const Span& s : spans_) {
    if (s.name != name) continue;
    auto it = child_time.find(s.id);
    const double children = it == child_time.end() ? 0 : it->second;
    total += std::max(0.0, (s.end - s.start) - children);
  }
  return total;
}

void Tracer::Write(const std::string& path) const {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"name\": " << Quote(s.name)
        << ", \"start\": " << Num(s.start) << ", \"end\": " << Num(s.end)
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

// ----------------------------------------------------------- HttpClient

HttpClient::HttpClient(int port) : port_(port) { Connect(); }

HttpClient::~HttpClient() {
  if (fd_ >= 0) ::close(fd_);
}

void HttpClient::Connect() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd_);
    fd_ = -1;
    return;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  buffer_.clear();
}

bool HttpClient::Fill() {
  char chunk[65536];
  const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
  if (n <= 0) return false;
  buffer_.append(chunk, static_cast<size_t>(n));
  return true;
}

int HttpClient::Round(const std::string& method, const std::string& path,
                      const std::string& request_body, std::string* body) {
  if (fd_ < 0) Connect();
  if (fd_ < 0) return 0;
  std::string request = method + " " + path +
                        " HTTP/1.1\r\nHost: tcbench\r\nContent-Length: " +
                        std::to_string(request_body.size()) + "\r\n\r\n";
  request += request_body;
  size_t sent = 0;
  auto fail = [&]() {
    ::close(fd_);
    fd_ = -1;
    return 0;
  };
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent,
                             request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return fail();
    sent += static_cast<size_t>(n);
  }
  size_t header_end;
  while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    if (!Fill()) return fail();
  }
  int status = 0;
  std::sscanf(buffer_.c_str(), "HTTP/1.1 %d", &status);
  size_t content_length = 0;
  const std::string headers = buffer_.substr(0, header_end);
  for (const char* key : {"Content-Length:", "content-length:"}) {
    const size_t at = headers.find(key);
    if (at != std::string::npos) {
      content_length =
          static_cast<size_t>(std::atoll(headers.c_str() + at + 15));
    }
  }
  while (buffer_.size() < header_end + 4 + content_length) {
    if (!Fill()) return fail();
  }
  if (body != nullptr) body->assign(buffer_, header_end + 4, content_length);
  buffer_.erase(0, header_end + 4 + content_length);
  return status;
}

// -------------------------------------------------------- ServerProcess

ServerProcess::ServerProcess(const std::string& binary,
                             const std::string& data_dir,
                             const std::string& log_path) {
  int out[2];
  if (::pipe(out) != 0) return;
  pid_ = ::fork();
  if (pid_ == 0) {
    ::dup2(out[1], 1);
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                           0644);
    if (log >= 0) ::dup2(log, 2);
    ::close(out[0]);
    ::close(out[1]);
    // Shipped defaults everywhere: no thread, retention or fsync knob.
    ::execl(binary.c_str(), binary.c_str(), "--port", "0", "--data-dir",
            data_dir.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(out[1]);
  if (pid_ < 0) {
    ::close(out[0]);
    return;
  }
  // The startup line carries the port: "... listening on
  // http://127.0.0.1:<port>/v1".
  std::string line;
  char c;
  while (::read(out[0], &c, 1) == 1 && c != '\n') line += c;
  ::close(out[0]);
  const size_t at = line.find("127.0.0.1:");
  if (at != std::string::npos) port_ = std::atoi(line.c_str() + at + 10);
}

ServerProcess::~ServerProcess() { Kill(); }

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024;
  }
  return 0;
}

void ServerProcess::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

double SelfPeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024;
  }
  return 0;
}

std::map<std::string, double> ParseMetricsText(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::atof(line.c_str() + space + 1);
  }
  return out;
}

std::map<std::string, double> ScrapeMetrics(HttpClient* client) {
  std::string body;
  if (client->Round("GET", "/metrics", "", &body) != 200) {
    throw std::runtime_error("GET /metrics failed");
  }
  return ParseMetricsText(body);
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x65735546: return "fuse";
    case 0x6969: return "nfs";
    case 0x2FC12FC1: return "zfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

// ---------------------------------------------------------- load loops

void ParseReadBody(const std::string& body, ReadOutcome* out) {
  auto json = tecore::util::Json::Parse(body);
  if (!json.ok()) return;
  if (const auto* v = json->Find("version")) {
    out->version = static_cast<uint64_t>(v->int_value());
  }
  if (const auto* c = json->Find("num_conflicts")) {
    out->num_conflicts = c->int_value();
  }
}

namespace {
/// Waits for `t` by spinning with yields, never sleeping. On a VM a
/// sleeping thread often wakes milliseconds late, and a halted vCPU is
/// slow to wake for the server's threads as well; yielding hands the core
/// to any runnable thread meanwhile.
void WaitUntil(double t) {
  while (Now() < t) std::this_thread::yield();
}
}  // namespace

LoadResult RunOpenLoop(const std::vector<ReadOp>& ops,
                       const std::vector<double>& due, int connections,
                       const Transport& transport) {
  LoadResult result;
  result.outcomes.resize(ops.size());
  std::vector<double> latency(ops.size()), late(ops.size(), -1),
      queue(ops.size(), -1), rtt(ops.size());
  std::atomic<size_t> next{0};
  const double start = Now() + 0.01;
  std::vector<std::thread> workers;
  for (int c = 0; c < connections; ++c) {
    workers.emplace_back([&, c]() {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= ops.size()) return;
        const double scheduled = start + due[i];
        const double picked = Now();
        if (picked < scheduled) {
          WaitUntil(scheduled);
          late[i] = Now() - scheduled;
        } else {
          queue[i] = picked - scheduled;
        }
        const double sent = Now();
        result.outcomes[i] = transport(c, ops[i]);
        const double done = Now();
        rtt[i] = done - sent;
        latency[i] = done - scheduled;
      }
    });
  }
  for (auto& w : workers) w.join();
  result.elapsed_s = Now() - start;
  for (size_t i = 0; i < ops.size(); ++i) {
    ++result.attempted;
    result.round_trip_us.Add(rtt[i] * 1e6);
    if (late[i] >= 0) result.late_us.Add(late[i] * 1e6);
    if (queue[i] >= 0) result.queue_us.Add(queue[i] * 1e6);
    // A failed request misses every latency limit.
    const double us = result.outcomes[i].status == 200 ? latency[i] * 1e6
                                                       : 1e12;
    if (result.outcomes[i].status != 200) ++result.failed;
    result.latency_us.Add(us);
    result.latency_by_request_us.push_back(us);
  }
  return result;
}

void Merge(LoadResult* into, const LoadResult& part) {
  into->latency_us.Append(part.latency_us);
  into->latency_by_request_us.insert(into->latency_by_request_us.end(),
                                     part.latency_by_request_us.begin(),
                                     part.latency_by_request_us.end());
  into->late_us.Append(part.late_us);
  into->queue_us.Append(part.queue_us);
  into->round_trip_us.Append(part.round_trip_us);
  into->outcomes.insert(into->outcomes.end(), part.outcomes.begin(),
                        part.outcomes.end());
  into->attempted += part.attempted;
  into->failed += part.failed;
  into->elapsed_s += part.elapsed_s;
}

LoadResult BetterOfTwo(const LoadResult& a, const LoadResult& b) {
  LoadResult out;
  Merge(&out, a);
  Merge(&out, b);
  // One entry per request: the smaller latency, or a failure (1e12 us,
  // the failing outcome) when either pass failed.
  out.latency_us = Samples();
  out.latency_by_request_us.clear();
  out.outcomes.clear();
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    const bool failed =
        a.outcomes[i].status != 200 || b.outcomes[i].status != 200;
    const double us = failed ? 1e12
                             : std::min(a.latency_by_request_us[i],
                                        b.latency_by_request_us[i]);
    out.latency_us.Add(us);
    out.latency_by_request_us.push_back(us);
    out.outcomes.push_back(a.outcomes[i].status != 200 ? a.outcomes[i]
                                                       : b.outcomes[i]);
  }
  return out;
}

LoadResult RunClosedLoop(const std::vector<ReadOp>& ops, int connections,
                         double seconds, const Transport& transport) {
  LoadResult result;
  std::mutex mutex;
  const double start = Now();
  const double deadline = start + seconds;
  std::vector<std::thread> workers;
  for (int c = 0; c < connections; ++c) {
    workers.emplace_back([&, c]() {
      LoadResult local;
      size_t i = ops.size() * static_cast<size_t>(c) /
                 static_cast<size_t>(connections);
      while (Now() < deadline) {
        const ReadOp& op = ops[i++ % ops.size()];
        const double sent = Now();
        ReadOutcome out = transport(c, op);
        const double done = Now();
        ++local.attempted;
        if (out.status != 200) ++local.failed;
        local.round_trip_us.Add((done - sent) * 1e6);
      }
      std::lock_guard<std::mutex> lock(mutex);
      result.attempted += local.attempted;
      result.failed += local.failed;
      result.round_trip_us.Append(local.round_trip_us);
    });
  }
  for (auto& w : workers) w.join();
  result.elapsed_s = Now() - start;
  return result;
}

}  // namespace tcbench
