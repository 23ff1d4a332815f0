#include "server/daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include "data/csv.h"
#include "engine/engine.h"
#include "query/parser.h"
#include "util/count_int.h"
#include "util/failpoint.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace sharpcq {

namespace {

// Database names become directory names under the catalog root, so they
// are restricted to a filesystem-safe alphabet (and cannot start with '.',
// which also rules out traversal).
bool ValidDbName(const std::string& name) {
  if (name.empty() || name[0] == '.') return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) return false;
  }
  return true;
}

std::string FormatMs(double ms) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", ms);
  return buffer;
}

// Maps a storage-layer Status onto the wire's error codes. Most codes
// mirror StatusCodeName 1:1 (the taxonomy was designed for that); the two
// exceptions keep historical client expectations stable.
Response CatalogError(const Status& status) {
  const char* code = wire::kInternal;
  switch (status.code()) {
    case StatusCode::kNotFound:
      code = wire::kNotFound;
      break;
    case StatusCode::kInvalidArgument:
      code = wire::kBadRequest;
      break;
    case StatusCode::kCorruptData:
      code = wire::kCorruptData;
      break;
    case StatusCode::kIoError:
      code = wire::kIoError;
      break;
    default:
      break;
  }
  return ErrorResponse(code, status.message());
}

// Installs the daemon-level memory budgets into the engine options every
// per-database engine is built from: the per-query cap rides as a plain
// limit, the daemon-wide cap as one shared MemoryBudget (all engines
// charge the same pool).
DaemonOptions ApplyMemoryBudgets(DaemonOptions options) {
  options.catalog.engine.max_query_bytes = options.max_query_bytes;
  if (options.max_total_bytes > 0) {
    options.catalog.engine.total_budget =
        std::make_shared<MemoryBudget>(options.max_total_bytes);
  }
  return options;
}

// RAII registration with the disconnect watcher.
class DisconnectWatch {
 public:
  DisconnectWatch(Daemon* daemon, void (Daemon::*watch)(int, CancelToken*),
                  void (Daemon::*unwatch)(int), int fd, CancelToken* token)
      : daemon_(daemon), unwatch_(unwatch), fd_(fd) {
    (daemon_->*watch)(fd_, token);
  }
  ~DisconnectWatch() { (daemon_->*unwatch_)(fd_); }

 private:
  Daemon* daemon_;
  void (Daemon::*unwatch_)(int);
  int fd_;
};

}  // namespace

Daemon::Daemon(DaemonOptions options)
    : options_(ApplyMemoryBudgets(std::move(options))),
      catalog_(options_.catalog_root, options_.catalog) {}

Daemon::~Daemon() { Stop(); }

bool Daemon::Start(std::string* error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "bad listen address: " + options_.host;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (error != nullptr) *error = std::string("bind: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 128) != 0) {
    if (error != nullptr) *error = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = static_cast<int>(ntohs(bound.sin_port));

  start_time_ = MonotonicNow();
  started_at_ = WallTimestamp();
  accept_thread_ = std::thread([this, fd = listen_fd_] { AcceptLoop(fd); });
  watch_thread_ = std::thread([this] { WatchLoop(); });
  return true;
}

void Daemon::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  stop_cv_.wait(lock, [this] { return stop_requested_; });
}

void Daemon::Stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    // A second Stop still waits for the first to have joined; joining
    // happens below only on the first call, so just signal waiters.
    std::lock_guard<std::mutex> lock(mu_);
    stop_cv_.notify_all();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
    stop_cv_.notify_all();
    // Kick every open connection out of its blocking recv. The fds stay
    // owned (and closed) by their connection threads.
    for (int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  {
    // Cancel inflight executions directly; faster than waiting for the
    // watcher to notice the shut-down sockets.
    std::lock_guard<std::mutex> lock(watch_mu_);
    for (auto& [fd, token] : watched_) token->Cancel();
  }
  admission_cv_.notify_all();
  // The shutdown wakes the accept thread, which owns a copy of the fd; the
  // fd is closed only after that thread has exited, so its number cannot
  // be recycled under a pending accept.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (watch_thread_.joinable()) watch_thread_.join();
  std::vector<std::thread> connections;
  {
    std::lock_guard<std::mutex> lock(mu_);
    connections.swap(connection_threads_);
  }
  for (std::thread& t : connections) {
    if (t.joinable()) t.join();
  }
}

DaemonStats Daemon::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void Daemon::AcceptLoop(int listen_fd) {
  for (;;) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by Stop (or fatal; either way, stop)
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    if (SHARPCQ_FAILPOINT("daemon.accept") != FailpointAction::kNone) {
      ::close(fd);  // injected accept failure: drop, keep listening
      continue;
    }
    // Request/response round trips are latency-bound; without this, Nagle
    // can couple small frames to the peer's delayed ACK.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.connections_accepted;
    connection_fds_.push_back(fd);
    connection_threads_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void Daemon::WatchLoop() {
  while (!stopping_.load()) {
    {
      std::lock_guard<std::mutex> lock(watch_mu_);
      for (auto& [fd, token] : watched_) {
        // The protocol is request-response, so a well-behaved client sends
        // nothing while its request executes; readable data here is either
        // EOF (client gone — cancel) or junk (ignored, the connection loop
        // deals with it after the response).
        char byte;
        ssize_t n = ::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
        if (n == 0) {
          token->Cancel();
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          token->Cancel();
        }
      }
    }
    std::this_thread::sleep_for(options_.watch_interval);
  }
}

void Daemon::ServeConnection(int fd) {
  for (;;) {
    std::string payload;
    std::string error;
    if (SHARPCQ_FAILPOINT("daemon.recv") != FailpointAction::kNone) break;
    FrameStatus status =
        RecvFrame(fd, options_.max_frame_bytes, &payload, &error);
    if (status == FrameStatus::kClosed || status == FrameStatus::kError) break;
    if (status == FrameStatus::kTooLarge) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.frames_too_large;
        ++stats_.responses_error;
      }
      // The oversized payload was never read, so the stream cannot be
      // resynchronized: answer and drop the connection.
      SendFrame(fd, SerializeResponse(
                        ErrorResponse(wire::kFrameTooLarge, error)),
                &error);
      break;
    }

    Response response;
    std::optional<Request> request = ParseRequest(payload, &error);
    bool is_shutdown = false;
    if (!request.has_value()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.requests;
      ++stats_.malformed_requests;
      response = ErrorResponse(wire::kBadRequest, error);
    } else {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.requests;
      }
      is_shutdown = request->command == "shutdown";
      response = Dispatch(*request, fd);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (response.ok) {
        ++stats_.responses_ok;
      } else {
        ++stats_.responses_error;
      }
    }
    if (SHARPCQ_FAILPOINT("daemon.send") != FailpointAction::kNone) break;
    if (!SendFrame(fd, SerializeResponse(response), &error)) break;
    if (is_shutdown) {
      std::lock_guard<std::mutex> lock(mu_);
      stop_requested_ = true;
      stop_cv_.notify_all();
      // Keep serving until the client hangs up or Stop() shuts the socket;
      // Stop() itself must come from the Wait() caller (joining this
      // thread from inside itself would deadlock).
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    connection_fds_.erase(
        std::remove(connection_fds_.begin(), connection_fds_.end(), fd),
        connection_fds_.end());
  }
  ::close(fd);
}

Response Daemon::Dispatch(const Request& request, int fd) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (request.command == "count") ++stats_.cmd_count;
    else if (request.command == "ingest") ++stats_.cmd_ingest;
    else if (request.command == "status") ++stats_.cmd_status;
    else if (request.command == "inspect") ++stats_.cmd_inspect;
    else if (request.command == "metrics") ++stats_.cmd_metrics;
    else if (request.command == "shutdown") ++stats_.cmd_shutdown;
  }
  // status/inspect/metrics/shutdown bypass admission: health checks and
  // scrapes must answer even when every count slot is busy.
  if (request.command == "status") return HandleStatus();
  if (request.command == "inspect") return HandleInspect(request);
  if (request.command == "metrics") return HandleMetrics();
  if (request.command == "shutdown") return OkResponse();
  if (request.command == "count" || request.command == "ingest") {
    if (!EnterAdmission()) {
      if (stopping_.load()) {
        return ErrorResponse(wire::kShuttingDown, "daemon is shutting down");
      }
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.rejected_overload;
      return ErrorResponse(
          wire::kOverloaded,
          "admission queue full (" + std::to_string(options_.max_inflight) +
              " inflight, " + std::to_string(options_.max_queued) +
              " queued)");
    }
    const MonotonicClock::time_point start = MonotonicNow();
    Response response = request.command == "count" ? HandleCount(request, fd)
                                                   : HandleIngest(request);
    LeaveAdmission();
    (request.command == "count" ? count_latency_ : ingest_latency_)
        .Record(ElapsedMs(start));
    return response;
  }
  return ErrorResponse(wire::kUnknownCommand,
                       "unknown command: " + request.command);
}

bool Daemon::EnterAdmission() {
  std::unique_lock<std::mutex> lock(admission_mu_);
  if (inflight_ < options_.max_inflight) {
    ++inflight_;
    return true;
  }
  if (queued_ >= options_.max_queued) return false;
  ++queued_;
  admission_cv_.wait(lock, [this] {
    return stopping_.load() || inflight_ < options_.max_inflight;
  });
  --queued_;
  if (stopping_.load()) return false;
  ++inflight_;
  return true;
}

void Daemon::LeaveAdmission() {
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    --inflight_;
  }
  admission_cv_.notify_one();
}

void Daemon::WatchDisconnect(int fd, CancelToken* token) {
  std::lock_guard<std::mutex> lock(watch_mu_);
  watched_[fd] = token;
  // Stop() sets stopping_ before its sweep of watched_ under watch_mu_, so
  // a count registering after that sweep sees the flag here and is
  // cancelled at once instead of running to completion.
  if (stopping_.load()) token->Cancel();
}

void Daemon::UnwatchDisconnect(int fd) {
  std::lock_guard<std::mutex> lock(watch_mu_);
  watched_.erase(fd);
}

Response Daemon::HandleCount(const Request& request, int fd) {
  const std::string* db_name = request.Arg("db");
  if (db_name == nullptr || !ValidDbName(*db_name)) {
    return ErrorResponse(wire::kBadRequest, "count requires db=<name>");
  }
  if (request.body.empty()) {
    return ErrorResponse(wire::kBadRequest,
                         "count requires the query text as the request body");
  }
  std::string error;
  Status open_status;
  std::shared_ptr<const Catalog::Entry> entry =
      catalog_.Open(*db_name, &open_status);
  if (entry == nullptr) return CatalogError(open_status);

  const std::string* strategy = request.Arg("strategy");
  std::optional<PlannerOptions> planner = PlannerOptionsForStrategy(
      strategy != nullptr ? *strategy : "auto", entry->engine->options().planner);
  if (!planner.has_value()) {
    return ErrorResponse(wire::kBadRequest, "unknown strategy: " + *strategy);
  }

  // Query constants may intern names the snapshot dictionary lacks, so the
  // parse works on a private copy; the underlying data never changes.
  ValueDict parse_dict = *entry->dict;
  std::optional<ConjunctiveQuery> query =
      ParseQuery(request.body, &parse_dict, &error);
  if (!query.has_value()) return ErrorResponse(wire::kParseError, error);

  CancelToken token;
  std::chrono::milliseconds deadline = options_.default_deadline;
  if (const std::string* arg = request.Arg("deadline_ms"); arg != nullptr) {
    char* end = nullptr;
    long long ms = std::strtoll(arg->c_str(), &end, 10);
    if (end != arg->c_str() + arg->size() || ms < 0) {
      return ErrorResponse(wire::kBadRequest, "bad deadline_ms: " + *arg);
    }
    deadline = std::chrono::milliseconds(ms);
  }
  if (deadline.count() > 0) token.SetDeadlineAfter(deadline);

  // trace=1: record the span tree and return it as the response body.
  std::optional<Trace> trace;
  if (const std::string* arg = request.Arg("trace");
      arg != nullptr && *arg == "1") {
    trace.emplace();
  }

  CountResult result;
  {
    DisconnectWatch watch(this, &Daemon::WatchDisconnect,
                          &Daemon::UnwatchDisconnect, fd, &token);
    result = entry->engine->Count(*query, *entry->db, *planner, &token,
                                  trace.has_value() ? &*trace : nullptr);
  }

  Response response;
  if (result.status == CountStatus::kDeadlineExceeded) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.deadline_exceeded;
    }
    response = ErrorResponse(wire::kDeadlineExceeded,
                             "deadline of " + std::to_string(deadline.count()) +
                                 "ms expired during execution");
  } else if (result.status == CountStatus::kCancelled) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.cancelled_disconnect;
    }
    response = ErrorResponse(wire::kCancelled, "request cancelled");
  } else if (result.status == CountStatus::kResourceExhausted) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.resource_exhausted;
    }
    response = ErrorResponse(
        wire::kResourceExhausted,
        "memory budget exhausted (refused an allocation of " +
            std::to_string(result.mem_refused_bytes) + " bytes)");
  } else {
    response = OkResponse();
    response.Add("count", CountToString(result.count));
  }

  // Provenance travels on every outcome — an expired request still tells
  // the operator which strategy and cache shard it was on.
  response.Add("db", entry->name);
  response.Add("generation", std::to_string(entry->generation));
  response.Add("method", result.method);
  response.Add("width", std::to_string(result.width));
  response.Add("cache", result.cache_hit ? "hit" : "miss");
  response.Add("cache_shard", std::to_string(result.cache_shard));
  response.Add("cache_shard_hits", std::to_string(result.cache_shard_hits));
  response.Add("cache_shard_misses",
               std::to_string(result.cache_shard_misses));
  response.Add("filter_hits", std::to_string(result.filter_hits));
  response.Add("filter_passes", std::to_string(result.filter_passes));
  response.Add("planner_ms", FormatMs(result.planner_ms));
  response.Add("execute_ms", FormatMs(result.execute_ms));
  response.Add("cost_model", result.cost_model_steered ? "steered" : "off-path");
  response.Add("cost_reorders", std::to_string(result.cost_reorders));
  response.Add("morsels", std::to_string(result.morsels));
  response.Add("worklist_iterations",
               std::to_string(result.worklist_iterations));
  if (trace.has_value()) {
    response.body = SerializeTraceNode(trace->root());
  }
  return response;
}

Response Daemon::HandleIngest(const Request& request) {
  const std::string* db_name = request.Arg("db");
  const std::string* relation = request.Arg("relation");
  if (db_name == nullptr || !ValidDbName(*db_name)) {
    return ErrorResponse(wire::kBadRequest, "ingest requires db=<name>");
  }
  if (relation == nullptr || relation->empty()) {
    return ErrorResponse(wire::kBadRequest, "ingest requires relation=<name>");
  }

  // Read-copy-swap under the ingest lock: counts keep serving the pinned
  // old generation throughout (ingest-while-serving).
  std::lock_guard<std::mutex> ingest_lock(ingest_mu_);
  Status status;
  Database db;
  ValueDict dict;
  if (catalog_.CurrentGeneration(*db_name, &status).has_value()) {
    std::shared_ptr<const Catalog::Entry> entry =
        catalog_.Open(*db_name, &status);
    if (entry == nullptr) return CatalogError(status);
    db = *entry->db;
    dict = *entry->dict;
  }

  std::istringstream body(request.body);
  CsvResult loaded = LoadRelationCsv(body, *relation, &db, &dict);
  if (!loaded.ok()) {
    return ErrorResponse(wire::kParseError,
                         "relation " + *relation + ": " + loaded.message);
  }
  std::optional<std::uint64_t> generation =
      catalog_.Ingest(*db_name, db, &dict, &status);
  if (!generation.has_value()) {
    return CatalogError(status);
  }
  Response response = OkResponse();
  response.Add("db", *db_name);
  response.Add("generation", std::to_string(*generation));
  response.Add("relation", *relation);
  response.Add("tuples", std::to_string(loaded.tuples));
  return response;
}

Response Daemon::HandleStatus() {
  Response response = OkResponse();
  DaemonStats snapshot = stats();
  std::size_t inflight;
  std::size_t queued;
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    inflight = inflight_;
    queued = queued_;
  }
  response.Add("connections_accepted",
               std::to_string(snapshot.connections_accepted));
  response.Add("requests", std::to_string(snapshot.requests));
  response.Add("responses_ok", std::to_string(snapshot.responses_ok));
  response.Add("responses_error", std::to_string(snapshot.responses_error));
  response.Add("rejected_overload",
               std::to_string(snapshot.rejected_overload));
  response.Add("deadline_exceeded",
               std::to_string(snapshot.deadline_exceeded));
  response.Add("cancelled_disconnect",
               std::to_string(snapshot.cancelled_disconnect));
  response.Add("resource_exhausted",
               std::to_string(snapshot.resource_exhausted));
  response.Add("frames_too_large", std::to_string(snapshot.frames_too_large));
  response.Add("malformed_requests",
               std::to_string(snapshot.malformed_requests));
  response.Add("cmd_count", std::to_string(snapshot.cmd_count));
  response.Add("cmd_ingest", std::to_string(snapshot.cmd_ingest));
  response.Add("cmd_status", std::to_string(snapshot.cmd_status));
  response.Add("cmd_inspect", std::to_string(snapshot.cmd_inspect));
  response.Add("cmd_metrics", std::to_string(snapshot.cmd_metrics));
  response.Add("cmd_shutdown", std::to_string(snapshot.cmd_shutdown));
  response.Add("inflight", std::to_string(inflight));
  response.Add("queued", std::to_string(queued));
  response.Add("uptime_s",
               FormatMs(ElapsedMs(start_time_) / 1000.0));
  response.Add("started_at", started_at_);
#ifdef NDEBUG
  response.Add("build_type", "optimized");
#else
  response.Add("build_type", "debug");
#endif
  response.Add("cost_model",
               options_.catalog.engine.enable_cost_model ? "on" : "off");
  response.Add("max_query_bytes", std::to_string(options_.max_query_bytes));
  response.Add("max_total_bytes", std::to_string(options_.max_total_bytes));
  if (const MemoryBudget* budget =
          options_.catalog.engine.total_budget.get();
      budget != nullptr) {
    response.Add("mem_inflight_bytes", std::to_string(budget->used()));
  }
  std::vector<std::string> names = catalog_.ListDatabases();
  response.Add("databases", JoinStrings(names, ","));
  return response;
}

Response Daemon::HandleMetrics() {
  Response response = OkResponse();
  // Process-wide families first (engine counts, plan cache, probe filters,
  // index builds), then this daemon instance's own sharpcqd_* section.
  std::string body = MetricsRegistry::Instance().RenderPrometheus();
  DaemonStats s = stats();
  std::size_t inflight;
  std::size_t queued;
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    inflight = inflight_;
    queued = queued_;
  }
  body += "# TYPE sharpcqd_uptime_seconds gauge\n";
  AppendPrometheusLine(&body, "sharpcqd_uptime_seconds", "",
                       ElapsedMs(start_time_) / 1000.0);
  body += "# TYPE sharpcqd_connections_total counter\n";
  AppendPrometheusLine(&body, "sharpcqd_connections_total", "",
                       s.connections_accepted);
  body += "# TYPE sharpcqd_requests_total counter\n";
  AppendPrometheusLine(&body, "sharpcqd_requests_total",
                       "{command=\"count\"}", s.cmd_count);
  AppendPrometheusLine(&body, "sharpcqd_requests_total",
                       "{command=\"ingest\"}", s.cmd_ingest);
  AppendPrometheusLine(&body, "sharpcqd_requests_total",
                       "{command=\"inspect\"}", s.cmd_inspect);
  AppendPrometheusLine(&body, "sharpcqd_requests_total",
                       "{command=\"metrics\"}", s.cmd_metrics);
  AppendPrometheusLine(&body, "sharpcqd_requests_total",
                       "{command=\"status\"}", s.cmd_status);
  AppendPrometheusLine(&body, "sharpcqd_requests_total",
                       "{command=\"shutdown\"}", s.cmd_shutdown);
  body += "# TYPE sharpcqd_responses_total counter\n";
  AppendPrometheusLine(&body, "sharpcqd_responses_total",
                       "{result=\"ok\"}", s.responses_ok);
  AppendPrometheusLine(&body, "sharpcqd_responses_total",
                       "{result=\"error\"}", s.responses_error);
  body += "# TYPE sharpcqd_rejected_overload_total counter\n";
  AppendPrometheusLine(&body, "sharpcqd_rejected_overload_total", "",
                       s.rejected_overload);
  body += "# TYPE sharpcqd_deadline_exceeded_total counter\n";
  AppendPrometheusLine(&body, "sharpcqd_deadline_exceeded_total", "",
                       s.deadline_exceeded);
  body += "# TYPE sharpcqd_cancelled_disconnect_total counter\n";
  AppendPrometheusLine(&body, "sharpcqd_cancelled_disconnect_total", "",
                       s.cancelled_disconnect);
  body += "# TYPE sharpcqd_resource_exhausted_total counter\n";
  AppendPrometheusLine(&body, "sharpcqd_resource_exhausted_total", "",
                       s.resource_exhausted);
  if (const MemoryBudget* budget =
          options_.catalog.engine.total_budget.get();
      budget != nullptr) {
    body += "# TYPE sharpcqd_memory_budget_bytes gauge\n";
    AppendPrometheusLine(&body, "sharpcqd_memory_budget_bytes", "",
                         budget->limit());
    body += "# TYPE sharpcqd_memory_inflight_bytes gauge\n";
    AppendPrometheusLine(&body, "sharpcqd_memory_inflight_bytes", "",
                         budget->used());
  }
  body += "# TYPE sharpcqd_frames_too_large_total counter\n";
  AppendPrometheusLine(&body, "sharpcqd_frames_too_large_total", "",
                       s.frames_too_large);
  body += "# TYPE sharpcqd_malformed_requests_total counter\n";
  AppendPrometheusLine(&body, "sharpcqd_malformed_requests_total", "",
                       s.malformed_requests);
  body += "# TYPE sharpcqd_inflight_requests gauge\n";
  AppendPrometheusLine(&body, "sharpcqd_inflight_requests", "",
                       static_cast<std::uint64_t>(inflight));
  body += "# TYPE sharpcqd_queued_requests gauge\n";
  AppendPrometheusLine(&body, "sharpcqd_queued_requests", "",
                       static_cast<std::uint64_t>(queued));
  body += "# TYPE sharpcqd_request_latency_ms histogram\n";
  count_latency_.snapshot().AppendPrometheus(
      &body, "sharpcqd_request_latency_ms", "{command=\"count\"}");
  ingest_latency_.snapshot().AppendPrometheus(
      &body, "sharpcqd_request_latency_ms", "{command=\"ingest\"}");
  response.body = std::move(body);
  return response;
}

Response Daemon::HandleInspect(const Request& request) {
  const std::string* db_name = request.Arg("db");
  if (db_name == nullptr || !ValidDbName(*db_name)) {
    return ErrorResponse(wire::kBadRequest, "inspect requires db=<name>");
  }
  Status open_status;
  std::shared_ptr<const Catalog::Entry> entry =
      catalog_.Open(*db_name, &open_status);
  if (entry == nullptr) return CatalogError(open_status);
  Response response = OkResponse();
  response.Add("db", entry->name);
  response.Add("generation", std::to_string(entry->generation));
  response.Add("relations", std::to_string(entry->info.relations.size()));
  response.Add("tuples", std::to_string(entry->info.TotalTuples()));
  response.Add("profile", entry->profile.Fingerprint());
  // Body: one "name arity rows [colN=distinct/max-group...]" line per
  // relation; the per-column profile is present for v2 snapshots (and for
  // v1 generations, whose stats were computed lazily at open).
  for (const SnapshotRelationInfo& rel : entry->info.relations) {
    response.body += rel.name + " " + std::to_string(rel.arity) + " " +
                     std::to_string(rel.rows);
    if (const RelationProfile* profile = entry->profile.Find(rel.name);
        profile != nullptr && profile->stats != nullptr) {
      for (std::size_t c = 0; c < profile->stats->columns.size(); ++c) {
        const ColumnStats& stats = profile->stats->columns[c];
        response.body += " col" + std::to_string(c) + "=" +
                         std::to_string(stats.distinct) + "/" +
                         std::to_string(stats.max_group);
      }
    }
    response.body += "\n";
  }
  // slowlog=1: append the engine's slow-query ring, oldest first. Each
  // entry is one "slow ..." header line; a traced entry's span tree
  // follows, indented by two spaces per depth starting at one level deep
  // (so headers remain greppable at column zero).
  if (const std::string* arg = request.Arg("slowlog");
      arg != nullptr && *arg == "1") {
    SlowQueryLog& log = entry->engine->slow_query_log();
    std::vector<SlowQueryEntry> entries = log.Entries();
    response.Add("slow_total", std::to_string(log.total_slow()));
    response.Add("slow_threshold_ms", FormatMs(log.threshold_ms()));
    response.Add("slow_entries", std::to_string(entries.size()));
    for (const SlowQueryEntry& e : entries) {
      response.body += "slow " + std::to_string(e.sequence) + " [" +
                       e.wall_time + "] planner_ms=" + FormatMs(e.planner_ms) +
                       " execute_ms=" + FormatMs(e.execute_ms) +
                       " method=" + e.method + " query=" + e.query + "\n";
      if (!e.trace.empty()) {
        std::istringstream lines(e.trace);
        std::string line;
        while (std::getline(lines, line)) {
          response.body += "  " + line + "\n";
        }
      }
    }
  }
  return response;
}

}  // namespace sharpcq
