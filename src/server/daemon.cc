#include "server/daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

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

// Every DaemonStats field has a kDaemonCounters row (the one-source test
// checks that the rows are distinct).
static_assert(sizeof(DaemonStats) ==
              std::size(kDaemonCounters) * sizeof(std::atomic<std::uint64_t>));

void Bump(std::atomic<std::uint64_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

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
  std::unique_lock<std::mutex> lock(mu_);
  if (stopping_.exchange(true)) {
    stop_cv_.wait(lock, [this] { return stopped_; });
    return;
  }
  stop_requested_ = true;
  stop_cv_.notify_all();
  // Kick every open connection out of its blocking recv and cancel the
  // count it executes. The fds stay owned (and closed) by their connection
  // threads. A count that registers its token after this sweep sees
  // stopping_ in SetExecuting and is cancelled there.
  for (auto& [id, connection] : connections_) {
    if (connection.finished) continue;
    ::shutdown(connection.fd, SHUT_RDWR);
    if (connection.executing != nullptr) connection.executing->Cancel();
  }
  lock.unlock();
  {
    // Taking the lock orders stopping_ before any admission waiter's next
    // predicate check, so the notify below cannot be lost.
    std::lock_guard<std::mutex> admission_lock(admission_mu_);
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
  // With the accept thread gone no entry is added or dropped; the entries
  // stay until every connection thread has marked its own finished.
  std::vector<std::thread> threads;
  lock.lock();
  for (auto& [id, connection] : connections_) {
    threads.push_back(std::move(connection.thread));
  }
  lock.unlock();
  for (std::thread& thread : threads) thread.join();
  lock.lock();
  connections_.clear();
  stopped_ = true;
  stop_cv_.notify_all();
}

void Daemon::AcceptLoop(int listen_fd) {
  for (;;) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by Stop (or fatal; either way, stop)
    }
    ReapFinished();
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
    Bump(stats_.connections_accepted);
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t id = next_connection_id_++;
    Connection& connection = connections_[id];
    connection.fd = fd;
    try {
      connection.thread =
          std::thread([this, id, fd] { ServeConnection(id, fd); });
    } catch (const std::system_error&) {
      // Out of threads: drop this connection, keep serving the others.
      connections_.erase(id);
      ::close(fd);
    }
  }
}

void Daemon::ReapFinished() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (it->second.finished) {
        finished.push_back(std::move(it->second.thread));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (std::thread& thread : finished) thread.join();
}

void Daemon::WatchLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_cv_.wait_for(lock, options_.watch_interval,
                            [this] { return stopping_.load(); })) {
    for (auto& [id, connection] : connections_) {
      if (connection.executing == nullptr) continue;
      // The protocol is request-response, so a well-behaved client sends
      // nothing while its request executes; readable data here is either
      // EOF (client gone — cancel) or junk (ignored, the connection loop
      // deals with it after the response).
      char byte;
      ssize_t n = ::recv(connection.fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                     errno != EINTR)) {
        connection.executing->Cancel();
      }
    }
  }
}

void Daemon::ServeConnection(std::uint64_t id, int fd) {
  for (;;) {
    std::string payload;
    std::string error;
    if (SHARPCQ_FAILPOINT("daemon.recv") != FailpointAction::kNone) break;
    FrameStatus status =
        RecvFrame(fd, options_.max_frame_bytes, &payload, &error);
    if (status == FrameStatus::kClosed || status == FrameStatus::kError) break;
    if (status == FrameStatus::kTooLarge) {
      Bump(stats_.frames_too_large);
      Bump(stats_.responses_error);
      // The oversized payload was never read, so the stream cannot be
      // resynchronized: answer and drop the connection.
      SendFrame(fd, SerializeResponse(
                        ErrorResponse(wire::kFrameTooLarge, error)),
                &error);
      break;
    }

    Bump(stats_.requests);
    Response response;
    std::optional<Request> request = ParseRequest(payload, &error);
    bool is_shutdown = false;
    if (!request.has_value()) {
      Bump(stats_.malformed_requests);
      response = ErrorResponse(wire::kBadRequest, error);
    } else {
      is_shutdown = request->command == "shutdown";
      response = Dispatch(*request, id);
    }
    if (response.ok) {
      Bump(stats_.responses_ok);
    } else {
      Bump(stats_.responses_error);
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
    // Once finished, Stop() no longer touches the fd, so closing it below
    // cannot race a shutdown of a recycled fd number.
    std::lock_guard<std::mutex> lock(mu_);
    connections_.at(id).finished = true;
  }
  ::close(fd);
}

Response Daemon::Dispatch(const Request& request, std::uint64_t connection) {
  for (const DaemonCounter& counter : kDaemonCounters) {
    const std::string_view key = counter.status_key;
    if (key.starts_with("cmd_") && key.substr(4) == request.command) {
      Bump(stats_.*counter.field);
      break;
    }
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
      Bump(stats_.rejected_overload);
      return ErrorResponse(
          wire::kOverloaded,
          "admission queue full (" + std::to_string(options_.max_inflight) +
              " inflight, " + std::to_string(options_.max_queued) +
              " queued)");
    }
    const MonotonicClock::time_point start = MonotonicNow();
    Response response = request.command == "count"
                            ? HandleCount(request, connection)
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

std::pair<std::size_t, std::size_t> Daemon::AdmissionLoad() {
  std::lock_guard<std::mutex> lock(admission_mu_);
  return {inflight_, queued_};
}

void Daemon::LeaveAdmission() {
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    --inflight_;
  }
  admission_cv_.notify_one();
}

void Daemon::SetExecuting(std::uint64_t connection, CancelToken* token) {
  std::lock_guard<std::mutex> lock(mu_);
  connections_.at(connection).executing = token;
  // Stop() sets stopping_ under mu_ before its sweep of the table, so a
  // count registering after that sweep sees the flag here and is cancelled
  // at once instead of running to completion.
  if (token != nullptr && stopping_.load()) token->Cancel();
}

Response Daemon::HandleCount(const Request& request,
                             std::uint64_t connection) {
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
    std::optional<std::chrono::milliseconds> ms = ParseDeadlineMs(*arg);
    if (!ms.has_value()) {
      return ErrorResponse(wire::kBadRequest, "bad deadline_ms: " + *arg);
    }
    deadline = *ms;
  }
  if (deadline.count() > 0) token.SetDeadlineAfter(deadline);

  // trace=1: record the span tree and return it as the response body.
  std::optional<Trace> trace;
  if (const std::string* arg = request.Arg("trace");
      arg != nullptr && *arg == "1") {
    trace.emplace();
  }

  SetExecuting(connection, &token);
  CountResult result =
      entry->engine->Count(*query, *entry->db, *planner, &token,
                           trace.has_value() ? &*trace : nullptr);
  SetExecuting(connection, nullptr);

  Response response;
  if (result.status == CountStatus::kDeadlineExceeded) {
    Bump(stats_.deadline_exceeded);
    response = ErrorResponse(wire::kDeadlineExceeded,
                             "deadline of " + std::to_string(deadline.count()) +
                                 "ms expired during execution");
  } else if (result.status == CountStatus::kCancelled) {
    Bump(stats_.cancelled_disconnect);
    response = ErrorResponse(wire::kCancelled, "request cancelled");
  } else if (result.status == CountStatus::kResourceExhausted) {
    Bump(stats_.resource_exhausted);
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
  const auto [inflight, queued] = AdmissionLoad();
  for (const DaemonCounter& counter : kDaemonCounters) {
    response.Add(counter.status_key,
                 std::to_string((stats_.*counter.field).load(
                     std::memory_order_relaxed)));
  }
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
  const auto [inflight, queued] = AdmissionLoad();
  body += "# TYPE sharpcqd_uptime_seconds gauge\n";
  AppendPrometheusLine(&body, "sharpcqd_uptime_seconds", "",
                       ElapsedMs(start_time_) / 1000.0);
  std::string_view family;
  for (const DaemonCounter& counter : kDaemonCounters) {
    if (family != counter.family) {
      family = counter.family;
      body += "# TYPE " + std::string(family) + " counter\n";
    }
    AppendPrometheusLine(
        &body, family, counter.labels,
        (stats_.*counter.field).load(std::memory_order_relaxed));
  }
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
