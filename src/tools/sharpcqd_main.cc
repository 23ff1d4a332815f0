// The sharpcqd daemon: serves a catalog of durable databases over TCP with
// the length-framed request protocol of server/protocol.h.
//
//   sharpcqd serve --root DIR [--host H] [--port N] [--max-inflight N]
//                  [--max-queued N] [--default-deadline-ms N]
//                  [--slow-query-ms MS] [--slow-query-capacity N]
//                  [--slow-query-sample N] [--max-query-bytes N]
//                  [--max-total-bytes N]
//   sharpcqd send  --port N [--host H] [--body TEXT] [--retries N]
//                  [--backoff-ms N] 'HEADER'
//
// `serve` prints "sharpcqd listening on HOST:PORT" once ready (with
// --port 0 the kernel-assigned port; CI's smoke job scrapes it) and blocks
// until a client sends `shutdown`.
//
// `send` is a one-shot client: HEADER is a protocol header line, e.g.
// 'count db=demo deadline_ms=500'; the request body comes from --body or,
// when stdin is not a terminal, from stdin (so `echo 'Q(X) <- r(X,Y)' |
// sharpcqd send --port N 'count db=demo'` works). Exits 0 on an ok
// response, 1 on an error response, 2 on usage errors, 3 on transport
// failure. --retries enables bounded reconnect/backoff retries; retries
// after the request may have been delivered happen only for read-only
// commands (never ingest).

#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "server/client.h"
#include "server/daemon.h"
#include "util/failpoint.h"

namespace sharpcq {
namespace {

constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitTransport = 3;

int Usage() {
  std::fprintf(stderr, R"(usage:
  sharpcqd serve --root DIR [--host H] [--port N] [--max-inflight N]
                 [--max-queued N] [--default-deadline-ms N]
                 [--slow-query-ms MS] [--slow-query-capacity N]
                 [--slow-query-sample N] [--max-query-bytes N]
                 [--max-total-bytes N]
  sharpcqd send  --port N [--host H] [--body TEXT] [--retries N]
                 [--backoff-ms N] 'HEADER LINE'
)");
  return kExitUsage;
}

// Every count builds and frees a few megabytes of intermediate tables,
// indexes and #-relation arenas. Under glibc's adaptive defaults the trim
// threshold follows the largest recently freed block (well under a
// megabyte here), so the freed top of each thread's heap goes back to the
// kernel after nearly every count and the next count faults it in again:
// ~170 minor faults per analytic_repeat count and ~15% of the daemon's CPU
// spent in the kernel (4-vCPU VM), a cost that swings with the host's
// memory load. Fixed thresholds keep blocks up to 16 MiB on the heap and
// up to 32 MiB of free heap top per arena; larger blocks are still mapped
// and unmapped one by one, so a huge count's memory goes back when it ends.
void KeepFreedMemoryForReuse() {
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 16 << 20);
  mallopt(M_TRIM_THRESHOLD, 32 << 20);
#endif
}

int CmdServe(const DaemonOptions& options) {
  KeepFreedMemoryForReuse();
  Daemon daemon(options);
  std::string error;
  if (!daemon.Start(&error)) {
    std::fprintf(stderr, "sharpcqd: %s\n", error.c_str());
    return kExitError;
  }
  std::printf("sharpcqd listening on %s:%d\n", options.host.c_str(),
              daemon.port());
  std::fflush(stdout);
  daemon.Wait();
  daemon.Stop();
  const DaemonStats& stats = daemon.stats();
  std::printf("sharpcqd exiting: %llu requests (%llu ok, %llu error)\n",
              static_cast<unsigned long long>(stats.requests.load()),
              static_cast<unsigned long long>(stats.responses_ok.load()),
              static_cast<unsigned long long>(stats.responses_error.load()));
  return kExitOk;
}

int CmdSend(const std::string& host, int port, const std::string& header,
            const std::optional<std::string>& body_flag,
            const RetryPolicy& retry) {
  std::string body;
  if (body_flag.has_value()) {
    body = *body_flag;
  } else if (!::isatty(STDIN_FILENO)) {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    body = buffer.str();
  }
  std::string error;
  std::optional<Request> request = ParseRequest(header + "\n" + body, &error);
  if (!request.has_value()) {
    std::fprintf(stderr, "sharpcqd: bad request: %s\n", error.c_str());
    return kExitUsage;
  }
  Client client;
  std::optional<Response> response;
  if (retry.max_attempts > 1) {
    // CallWithRetry handles the initial connect itself; the retry target
    // must be stamped first, so do a throwaway Connect attempt (its
    // failure is retried inside CallWithRetry).
    client.Connect(host, port, &error);
    if (!client.connected()) client.Close();
    int attempts = 0;
    response = client.CallWithRetry(*request, retry, &error, &attempts);
    if (!response.has_value()) {
      std::fprintf(stderr, "sharpcqd: %s (after %d attempts)\n", error.c_str(),
                   attempts);
      return kExitTransport;
    }
  } else {
    if (!client.Connect(host, port, &error)) {
      std::fprintf(stderr, "sharpcqd: %s\n", error.c_str());
      return kExitTransport;
    }
    response = client.Call(*request, &error);
    if (!response.has_value()) {
      std::fprintf(stderr, "sharpcqd: %s\n", error.c_str());
      return kExitTransport;
    }
  }
  if (response->ok) {
    std::printf("ok\n");
  } else {
    std::printf("error %s %s\n", response->code.c_str(),
                response->message.c_str());
  }
  for (const auto& [key, value] : response->fields) {
    std::printf("%s: %s\n", key.c_str(), value.c_str());
  }
  if (!response->body.empty()) {
    std::printf("\n%s", response->body.c_str());
  }
  return response->ok ? kExitOk : kExitError;
}

int Main(int argc, char** argv) {
  failpoint::ArmFromEnv();
  if (argc < 2) return Usage();
  std::string command = argv[1];

  std::string root;
  std::string host = "127.0.0.1";
  int port = 0;
  bool have_port = false;
  std::size_t max_inflight = 4;
  std::size_t max_queued = 16;
  std::chrono::milliseconds default_deadline{0};
  // Slow-query ring defaults mirror EngineOptions; the flags below thread
  // through Catalog::Options into every database's engine.
  EngineOptions engine_defaults;
  double slow_query_ms = engine_defaults.slow_query_threshold_ms;
  std::size_t slow_query_capacity = engine_defaults.slow_query_log_capacity;
  std::size_t slow_query_sample = engine_defaults.slow_query_sample_every;
  unsigned long long max_query_bytes = 0;
  unsigned long long max_total_bytes = 0;
  int retries = 1;
  long long backoff_ms = 50;
  std::optional<std::string> body;
  std::vector<std::string> positional;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    if (arg == "--root") {
      auto v = next();
      if (!v) return Usage();
      root = *v;
    } else if (arg == "--host") {
      auto v = next();
      if (!v) return Usage();
      host = *v;
    } else if (arg == "--port") {
      auto v = next();
      if (!v) return Usage();
      port = std::atoi(v->c_str());
      have_port = true;
    } else if (arg == "--max-inflight") {
      auto v = next();
      if (!v) return Usage();
      max_inflight = static_cast<std::size_t>(std::atoll(v->c_str()));
    } else if (arg == "--max-queued") {
      auto v = next();
      if (!v) return Usage();
      max_queued = static_cast<std::size_t>(std::atoll(v->c_str()));
    } else if (arg == "--default-deadline-ms") {
      auto v = next();
      if (!v) return Usage();
      std::optional<std::chrono::milliseconds> ms = ParseDeadlineMs(*v);
      if (!ms) return Usage();
      default_deadline = *ms;
    } else if (arg == "--slow-query-ms") {
      auto v = next();
      if (!v) return Usage();
      slow_query_ms = std::atof(v->c_str());
    } else if (arg == "--slow-query-capacity") {
      auto v = next();
      if (!v) return Usage();
      slow_query_capacity = static_cast<std::size_t>(std::atoll(v->c_str()));
    } else if (arg == "--slow-query-sample") {
      auto v = next();
      if (!v) return Usage();
      slow_query_sample = static_cast<std::size_t>(std::atoll(v->c_str()));
      if (slow_query_sample == 0) return Usage();
    } else if (arg == "--max-query-bytes") {
      auto v = next();
      if (!v) return Usage();
      max_query_bytes = std::strtoull(v->c_str(), nullptr, 10);
    } else if (arg == "--max-total-bytes") {
      auto v = next();
      if (!v) return Usage();
      max_total_bytes = std::strtoull(v->c_str(), nullptr, 10);
    } else if (arg == "--retries") {
      auto v = next();
      if (!v) return Usage();
      retries = std::atoi(v->c_str());
      if (retries < 1) return Usage();
    } else if (arg == "--backoff-ms") {
      auto v = next();
      if (!v) return Usage();
      backoff_ms = std::atoll(v->c_str());
      if (backoff_ms < 0) return Usage();
    } else if (arg == "--body") {
      auto v = next();
      if (!v) return Usage();
      body = *v;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "sharpcqd: unknown flag '%s'\n", arg.c_str());
      return Usage();
    } else {
      positional.push_back(arg);
    }
  }

  if (command == "serve") {
    if (root.empty() || !positional.empty()) return Usage();
    if (max_inflight == 0) return Usage();
    DaemonOptions options;
    options.catalog_root = root;
    options.host = host;
    options.port = port;
    options.max_inflight = max_inflight;
    options.max_queued = max_queued;
    options.default_deadline = default_deadline;
    options.catalog.engine.slow_query_threshold_ms = slow_query_ms;
    options.catalog.engine.slow_query_log_capacity = slow_query_capacity;
    options.catalog.engine.slow_query_sample_every = slow_query_sample;
    options.max_query_bytes = max_query_bytes;
    options.max_total_bytes = max_total_bytes;
    return CmdServe(options);
  }
  if (command == "send") {
    if (!have_port || port <= 0 || positional.size() != 1) return Usage();
    RetryPolicy retry;
    retry.max_attempts = retries;
    retry.initial_backoff = std::chrono::milliseconds(backoff_ms);
    return CmdSend(host, port, positional[0], body, retry);
  }
  return Usage();
}

}  // namespace
}  // namespace sharpcq

int main(int argc, char** argv) { return sharpcq::Main(argc, argv); }
