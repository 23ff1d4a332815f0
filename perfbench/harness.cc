#include "harness.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double TailQuantileFor(std::size_t n, double wanted) {
  if (n == 0) return 0.5;
  const double supported = 1.0 - 10.0 / static_cast<double>(n);
  return std::max(0.5, std::min(wanted, supported));
}

DaemonProcess::~DaemonProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

bool DaemonProcess::Start(const std::string& binary, const std::string& root,
                          std::string* error) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // The daemon must not outlive this process, however it ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(fds[1], STDOUT_FILENO);
    int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) ::dup2(devnull, STDIN_FILENO);
    ::execl(binary.c_str(), binary.c_str(), "serve", "--root", root.c_str(),
            "--port", "0", static_cast<char*>(nullptr));
    std::fprintf(stderr, "exec %s: %s\n", binary.c_str(), std::strerror(errno));
    ::_exit(127);
  }
  ::close(fds[1]);
  pid_ = pid;
  stdout_fd_ = fds[0];

  // Read until the "sharpcqd listening on HOST:PORT" line appears.
  std::string out;
  const Clock::time_point start = Clock::now();
  while (MsSince(start) < 20000.0) {
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 200) <= 0) continue;
    char buf[512];
    ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
    std::size_t at = out.find("listening on ");
    std::size_t eol = at == std::string::npos ? at : out.find('\n', at);
    if (eol != std::string::npos) {
      std::string addr = out.substr(at + 13, eol - at - 13);
      std::size_t colon = addr.rfind(':');
      if (colon != std::string::npos) port_ = std::atoi(addr.c_str() + colon + 1);
      if (port_ > 0) return true;
      break;
    }
  }
  *error = "sharpcqd did not report a listening port (output: " + out + ")";
  return false;
}

void DaemonProcess::Stop() {
  if (pid_ <= 0) return;
  sharpcq::Client client;
  std::string error;
  if (ConnectClient(&client, port_, &error)) {
    sharpcq::Request request;
    request.command = "shutdown";
    client.Call(request, &error);
  }
  client.Close();
  const Clock::time_point start = Clock::now();
  while (MsSince(start) < 10000.0) {
    if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
      pid_ = -1;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

double DaemonProcess::CpuMs() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string line;
  std::getline(in, line);
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  std::size_t close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::atof(field.c_str());
    if (i == 15) stime = std::atof(field.c_str());
  }
  return (utime + stime) * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double DaemonProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

bool ConnectClient(sharpcq::Client* client, int port, std::string* error) {
  for (int attempt = 0; attempt < 50; ++attempt) {
    if (client->Connect("127.0.0.1", port, error)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

double Scrape::Status(const std::string& key) const {
  auto it = status.find(key);
  return it == status.end() ? 0.0 : it->second;
}

double Scrape::Metric(const std::string& key) const {
  auto it = metrics.find(key);
  return it == metrics.end() ? 0.0 : it->second;
}

std::optional<Scrape> ScrapeDaemon(sharpcq::Client* client,
                                   std::string* error) {
  Scrape scrape;
  sharpcq::Request request;
  request.command = "status";
  std::optional<sharpcq::Response> status = client->Call(request, error);
  if (!status.has_value() || !status->ok) {
    if (status.has_value()) *error = "status: " + status->message;
    return std::nullopt;
  }
  for (const auto& [key, value] : status->fields) {
    char* end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (end != value.c_str() && *end == '\0') scrape.status[key] = v;
  }
  request.command = "metrics";
  std::optional<sharpcq::Response> metrics = client->Call(request, error);
  if (!metrics.has_value() || !metrics->ok) {
    if (metrics.has_value()) *error = "metrics: " + metrics->message;
    return std::nullopt;
  }
  std::istringstream body(metrics->body);
  std::string line;
  while (std::getline(body, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::size_t name_end = line.find_first_of("{ ");
    std::size_t value_at = line.rfind(' ');
    if (name_end == std::string::npos || value_at == std::string::npos) continue;
    scrape.metrics[line.substr(0, name_end)] +=
        std::atof(line.c_str() + value_at + 1);
  }
  return scrape;
}

std::string FilesystemName(const std::string& path) {
  struct statfs fs;
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlay";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size)
                                        : 0;
}

std::string Num(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
