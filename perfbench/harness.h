#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Process, clock, statistics and output helpers shared by the end-to-end
// run (driver.cc) and the traced replay (replay.cc).

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "server/client.h"
#include "server/protocol.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) { return MsBetween(a, Clock::now()); }

// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 for an
// empty sample.
double Quantile(std::vector<double> values, double q);

// The tail percentile a sample of n can support: 0.99 when at least ten
// samples lie beyond it, else the highest percentile that still has ten
// beyond (never below the median).
double TailQuantileFor(std::size_t n, double wanted = 0.99);

// A sharpcqd child process serving a catalog root on an ephemeral port.
class DaemonProcess {
 public:
  DaemonProcess() = default;
  ~DaemonProcess();  // kills the child if Stop() was not reached
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  // Forks `binary serve --root <root> --port 0` and waits for its
  // "listening" line. False with *error set on failure.
  bool Start(const std::string& binary, const std::string& root,
             std::string* error);
  // Sends `shutdown` and reaps the child (SIGKILL after a grace period).
  void Stop();

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  // Serving process CPU (user + sys, all threads) in milliseconds.
  double CpuMs() const;
  // Peak resident set (VmHWM) in MiB.
  double PeakRssMb() const;

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
};

// Connects with a few retries (the daemon is already listening, so this
// only guards against transient accept backlog).
bool ConnectClient(sharpcq::Client* client, int port, std::string* error);

// The daemon counters read around a timed window: `status` fields and the
// process-wide Prometheus families the benchmark derives ratios from.
struct Scrape {
  std::map<std::string, double> status;   // numeric status fields
  std::map<std::string, double> metrics;  // summed over label sets
  double Status(const std::string& key) const;
  double Metric(const std::string& key) const;
};
std::optional<Scrape> ScrapeDaemon(sharpcq::Client* client, std::string* error);

// Filesystem type of `path` (ext4, tmpfs, overlay, ...), for the record.
std::string FilesystemName(const std::string& path);

// Removes a directory tree (no-op when absent).
void RemoveTree(const std::string& path);

// Size of a file in bytes, or 0.
std::uint64_t FileBytes(const std::string& path);

// Formats a double with all its significant digits for the JSON output.
std::string Num(double value);

// One output metric, printed as {"value": v, "unit": u}.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// The benchmark's result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
