#ifndef PERFBENCH_RUNS_H_
#define PERFBENCH_RUNS_H_

// The two kinds of run: the end-to-end run (tracing off, driver.cc) and the
// traced replay (replay.cc), plus the set-up both share.

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "server/client.h"
#include "server/protocol.h"
#include "workloads.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool tiny = false;    // smoke-test sizes
  std::string daemon;   // path of the sharpcqd binary
  std::string work;     // scratch directory for catalogs
  std::string spans;    // where the traced run writes its spans
};

int RunEndToEnd(const Options& options);
int RunTraced(const Options& options);

sharpcq::Request CountRequest(const QuerySpec& query);
sharpcq::Request IngestRequest(const Workload& w, std::size_t batch);

// A served workload: generated data in a fresh catalog, a sharpcqd child
// on it, connected clients, and the warm-up requests already answered.
struct Served {
  Workload workload;
  std::string root;
  DaemonProcess daemon;
  std::vector<sharpcq::Client> clients;
  std::size_t next_request = 0;  // reader stream position after warm-up
};

// Set-up, timed as setup_s: generate, ingest, start the daemon, connect
// the workload's clients (one when `single_client`) and send the warm-up
// requests. False with *error set on failure, an unknown workload too.
bool SetUp(const Options& options, const std::string& root, bool single_client,
           Served* served, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_RUNS_H_
