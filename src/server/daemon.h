#ifndef SHARPCQ_SERVER_DAEMON_H_
#define SHARPCQ_SERVER_DAEMON_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "server/protocol.h"
#include "storage/catalog.h"
#include "util/cancel.h"
#include "util/clock.h"
#include "util/metrics.h"

namespace sharpcq {

// Cumulative daemon counters: relaxed atomics, readable while serving
// (tests poll them in-process).
struct DaemonStats {
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> responses_ok{0};
  std::atomic<std::uint64_t> responses_error{0};
  std::atomic<std::uint64_t> rejected_overload{0};
  std::atomic<std::uint64_t> deadline_exceeded{0};
  std::atomic<std::uint64_t> cancelled_disconnect{0};
  std::atomic<std::uint64_t> resource_exhausted{0};
  std::atomic<std::uint64_t> frames_too_large{0};
  std::atomic<std::uint64_t> malformed_requests{0};
  // Per-command request totals (unknown commands count toward none).
  std::atomic<std::uint64_t> cmd_count{0};
  std::atomic<std::uint64_t> cmd_ingest{0};
  std::atomic<std::uint64_t> cmd_status{0};
  std::atomic<std::uint64_t> cmd_inspect{0};
  std::atomic<std::uint64_t> cmd_metrics{0};
  std::atomic<std::uint64_t> cmd_shutdown{0};
};

// One row per DaemonStats field: its `status` key and its `metrics` sample
// (a Prometheus counter family plus label group). `status` and `metrics`
// each render every row in one loop, so the views cannot drift apart. A
// `cmd_<command>` row counts the requests for <command>.
struct DaemonCounter {
  const char* status_key;
  const char* family;
  const char* labels;
  std::atomic<std::uint64_t> DaemonStats::*field;
};

inline constexpr DaemonCounter kDaemonCounters[] = {
    {"connections_accepted", "sharpcqd_connections_total", "",
     &DaemonStats::connections_accepted},
    {"requests", "sharpcqd_requests_received_total", "",
     &DaemonStats::requests},
    {"responses_ok", "sharpcqd_responses_total", "{result=\"ok\"}",
     &DaemonStats::responses_ok},
    {"responses_error", "sharpcqd_responses_total", "{result=\"error\"}",
     &DaemonStats::responses_error},
    {"rejected_overload", "sharpcqd_rejected_overload_total", "",
     &DaemonStats::rejected_overload},
    {"deadline_exceeded", "sharpcqd_deadline_exceeded_total", "",
     &DaemonStats::deadline_exceeded},
    {"cancelled_disconnect", "sharpcqd_cancelled_disconnect_total", "",
     &DaemonStats::cancelled_disconnect},
    {"resource_exhausted", "sharpcqd_resource_exhausted_total", "",
     &DaemonStats::resource_exhausted},
    {"frames_too_large", "sharpcqd_frames_too_large_total", "",
     &DaemonStats::frames_too_large},
    {"malformed_requests", "sharpcqd_malformed_requests_total", "",
     &DaemonStats::malformed_requests},
    {"cmd_count", "sharpcqd_requests_total", "{command=\"count\"}",
     &DaemonStats::cmd_count},
    {"cmd_ingest", "sharpcqd_requests_total", "{command=\"ingest\"}",
     &DaemonStats::cmd_ingest},
    {"cmd_status", "sharpcqd_requests_total", "{command=\"status\"}",
     &DaemonStats::cmd_status},
    {"cmd_inspect", "sharpcqd_requests_total", "{command=\"inspect\"}",
     &DaemonStats::cmd_inspect},
    {"cmd_metrics", "sharpcqd_requests_total", "{command=\"metrics\"}",
     &DaemonStats::cmd_metrics},
    {"cmd_shutdown", "sharpcqd_requests_total", "{command=\"shutdown\"}",
     &DaemonStats::cmd_shutdown},
};

struct DaemonOptions {
  // Catalog root directory; created by Catalog::Ingest on first write.
  std::string catalog_root;
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral; the bound port is Daemon::port()
  // Admission control: at most max_inflight count/ingest requests execute
  // concurrently; up to max_queued more wait for a slot; anything beyond
  // that is rejected immediately with OVERLOADED. Cheap commands (status,
  // inspect, shutdown) bypass the gate so health checks work under load.
  std::size_t max_inflight = 4;
  std::size_t max_queued = 16;
  std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  // Applied to count requests that carry no deadline_ms argument; zero
  // means no deadline.
  std::chrono::milliseconds default_deadline{0};
  // How often the disconnect watcher polls executing requests' sockets.
  std::chrono::milliseconds watch_interval{5};
  // Memory budgets (graceful degradation): max_query_bytes caps what one
  // count may allocate; max_total_bytes caps the sum across all in-flight
  // counts over every database (one shared MemoryBudget installed into
  // each per-database engine). An over-budget count gets a
  // RESOURCE_EXHAUSTED response; the daemon keeps serving. 0 = unlimited.
  std::uint64_t max_query_bytes = 0;
  std::uint64_t max_total_bytes = 0;
  Catalog::Options catalog;
};

// The sharpcqd network daemon: serves a Catalog of durable databases over
// TCP with the length-framed protocol of server/protocol.h.
//
//   count   db=<name> [strategy=<s>] [deadline_ms=<n>] [trace=1]
//                                                        body: query text
//                                                        (trace=1: response
//                                                        body carries the
//                                                        serialized span
//                                                        tree)
//   ingest  db=<name> relation=<rel>                     body: CSV rows
//   status                                               counters + db list
//   inspect db=<name> [slowlog=1]                        schema + sizes
//                                                        (+ slow-query ring)
//   metrics                                              Prometheus text
//   shutdown                                             ack, then Wait() returns
//
// Request lifecycle: the connection thread parses the frame, passes the
// admission gate, and builds a CancelToken carrying the request deadline.
// While the count executes, the disconnect watcher polls the connection's
// socket and cancels the token if the client vanished; the token is also
// checked once per morsel inside the kernel (algebra/exec_policy.h), so a
// deadline expiring mid-join stops the execution within one morsel of
// probe work and the client gets a DEADLINE_EXCEEDED (or CANCELLED)
// response instead of a hang.
//
// Threading: one accept thread, one watcher thread, and one thread per
// live connection. One table under one mutex holds each connection's
// thread, fd and executing token; the watcher polls from it, and the
// accept loop joins and drops finished connections before it takes the
// next, so the daemon keeps threads (and their stacks) for live
// connections only. Stop() (or the `shutdown` command followed by Stop())
// closes the listener, then shuts down, cancels and joins every
// connection in the table; the destructor calls Stop().
class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Binds, listens, and starts the accept + watcher threads. False with
  // *error set if the address cannot be bound.
  bool Start(std::string* error);

  // The bound port (valid after Start; useful with options.port == 0).
  int port() const { return port_; }

  // Blocks until Stop() is called or a client sends `shutdown`.
  void Wait();

  // Full shutdown: stop accepting, cancel and drain inflight requests,
  // join all threads. A second or concurrent call returns once the first
  // has joined everything.
  void Stop();

  const DaemonStats& stats() const { return stats_; }

 private:
  // A live connection's entry in the connection table. Guarded by mu_.
  struct Connection {
    std::thread thread;
    int fd = -1;
    // The token of the count this connection is executing, or nullptr.
    CancelToken* executing = nullptr;
    // ServeConnection has returned; the thread only remains to be joined.
    bool finished = false;
  };

  // Accepts on `listen_fd` until Stop shuts it down.
  void AcceptLoop(int listen_fd);
  // Joins and drops finished connections (accept thread only).
  void ReapFinished();
  void WatchLoop();
  void ServeConnection(std::uint64_t id, int fd);

  Response Dispatch(const Request& request, std::uint64_t connection);
  Response HandleCount(const Request& request, std::uint64_t connection);
  Response HandleIngest(const Request& request);
  Response HandleStatus();
  Response HandleInspect(const Request& request);
  Response HandleMetrics();

  // Admission gate for count/ingest. False = reject with OVERLOADED.
  bool EnterAdmission();
  void LeaveAdmission();
  // {inflight, queued} at this instant.
  std::pair<std::size_t, std::size_t> AdmissionLoad();

  // Publishes the token of the count `connection` executes (nullptr when
  // it ends) to the watcher and to Stop().
  void SetExecuting(std::uint64_t connection, CancelToken* token);

  DaemonOptions options_;
  Catalog catalog_;
  int listen_fd_ = -1;
  int port_ = 0;

  // Uptime anchor (steady) and human start time (wall, log/status only),
  // both stamped in Start().
  MonotonicClock::time_point start_time_{};
  std::string started_at_;

  // Per-instance request latency histograms: tests run several daemons in
  // one process, and each must see exactly its own requests (the
  // process-wide registry would conflate them).
  Histogram count_latency_;
  Histogram ingest_latency_;

  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::thread watch_thread_;

  DaemonStats stats_;

  std::mutex mu_;  // the connection table and the stop signal
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  bool stopped_ = false;  // the first Stop() has joined everything
  // Keyed by a per-connection id: the next accept may reuse a closed fd.
  std::unordered_map<std::uint64_t, Connection> connections_;
  std::uint64_t next_connection_id_ = 0;

  std::mutex admission_mu_;
  std::condition_variable admission_cv_;
  std::size_t inflight_ = 0;
  std::size_t queued_ = 0;

  // Serializes ingest's read-copy-swap against concurrent ingests of the
  // same catalog; counts are unaffected (they pin their generation).
  std::mutex ingest_mu_;
};

}  // namespace sharpcq

#endif  // SHARPCQ_SERVER_DAEMON_H_
