// perfbench_driver: the end-to-end sharpcqd benchmark.
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    --daemon PATH/sharpcqd --work DIR [--spans FILE]
//                    [--tiny]
//
// --trace 0 is the end-to-end run: it sets the workload up three times
// (data generation, catalog ingest, daemon start, warm-up; setup_s is the
// median; once with --tiny), drives the daemon over TCP from this one process for S seconds,
// reads the daemon's counters around the timed window, checks every answer
// against an in-process oracle afterwards and prints the end-to-end
// metrics. --trace 1 is the traced replay (replay.cc), which prints the
// per-layer metrics. The last stdout line is the result JSON either way.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "runs.h"

namespace perfbench {

sharpcq::Request CountRequest(const QuerySpec& query) {
  sharpcq::Request request;
  request.command = "count";
  request.args = {{"db", query.db}};
  if (!query.strategy.empty()) request.args.emplace_back("strategy", query.strategy);
  request.body = query.text;
  return request;
}

sharpcq::Request IngestRequest(const Workload& w, std::size_t batch) {
  sharpcq::Request request;
  request.command = "ingest";
  request.args = {{"db", w.ingest_db}, {"relation", w.ingest_relation}};
  request.body = w.batch(batch);
  return request;
}

bool SetUp(const Options& options, const std::string& root, bool single_client,
           Served* served, std::string* error) {
  std::optional<Workload> workload =
      MakeWorkload(options.workload, options.seed, options.tiny);
  if (!workload.has_value()) {
    *error = "unknown workload " + options.workload;
    return false;
  }
  served->workload = std::move(*workload);
  served->root = root;
  const Workload& w = served->workload;
  const int clients = single_client ? 1 : w.clients;
  RemoveTree(root);
  if (!PopulateCatalog(served->workload, root, error)) return false;
  if (!served->daemon.Start(options.daemon, root, error)) return false;
  served->clients.resize(static_cast<std::size_t>(clients));
  for (sharpcq::Client& client : served->clients) {
    if (!ConnectClient(&client, served->daemon.port(), error)) return false;
  }
  for (std::size_t i = 0; i < w.warmup_requests; ++i) {
    const QuerySpec& q =
        w.queries[static_cast<std::size_t>(w.cycle[i % w.cycle.size()])];
    std::optional<sharpcq::Response> response =
        served->clients[i % served->clients.size()].Call(CountRequest(q), error);
    if (!response.has_value()) return false;
    if (!response->ok) {
      *error = "warm-up count failed: " + response->code + " " +
               response->message + " for " + q.text;
      return false;
    }
  }
  served->next_request = w.warmup_requests;
  return true;
}

namespace {

// What one client observed in the timed window.
struct ClientLog {
  std::vector<double> count_ms;     // completed counts, send -> response
  std::vector<double> count_at_ms;  // ... and when each completed
  std::uint64_t counts_sent = 0;
  std::uint64_t errors = 0;  // error responses and transport failures
  std::vector<std::pair<int, std::string>> answers;  // (query, answer)
};

// One closed-loop reader: sends the shared stream's next count as soon as
// the previous response arrives, until the deadline.
void Reader(Served* served, sharpcq::Client* client,
            std::atomic<std::size_t>* next, Clock::time_point start,
            Clock::time_point deadline, ClientLog* log) {
  const Workload& w = served->workload;
  std::string error;
  while (Clock::now() < deadline) {
    const std::size_t i = next->fetch_add(1);
    const int key = w.cycle[i % w.cycle.size()];
    const QuerySpec& q = w.queries[static_cast<std::size_t>(key)];
    const sharpcq::Request request = CountRequest(q);
    ++log->counts_sent;
    const Clock::time_point sent = Clock::now();
    std::optional<sharpcq::Response> response = client->Call(request, &error);
    const double ms = MsSince(sent);
    if (!response.has_value() || !response->ok) {
      ++log->errors;
      if (!response.has_value()) ConnectClient(client, served->daemon.port(), &error);
      continue;
    }
    log->count_ms.push_back(ms);
    log->count_at_ms.push_back(MsSince(start));
    const std::string* count = response->Field("count");
    log->answers.emplace_back(key, count == nullptr ? "" : *count);
  }
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// "method=count ..." over the expected counts the checker computed.
std::string OracleSummary(const AnswerChecker& checker) {
  std::string out;
  for (const auto& [method, count] : checker.methods()) {
    out += (out.empty() ? "" : " ") + method + "=" + std::to_string(count);
  }
  return out;
}

// The timed window is cut into this many equal slices; throughput, the
// median count latency and CPU per operation are computed per slice and
// reported as the median over slices, so a burst of load from a neighbour
// on a shared host moves one slice, not the result. The tail quantile is
// taken over the whole window instead: a slice holds too few counts to put
// ten beyond its p99 on the slower workloads, and on the faster one the
// median of slice p99s spread more across runs than the window's p99.
constexpr int kSlices = 10;

struct SliceStats {
  double qps = 0, p50_ms = 0, cpu_ms_per_op = 0;
  std::vector<double> slice_qps;  // for the record: how steady the host was
};

SliceStats Slice(const ClientLog& all, const std::vector<double>& cpu_at,
                 double slice_ms) {
  std::vector<double> qps, p50, cpu;
  for (int k = 0; k < kSlices; ++k) {
    auto in_slice = [&](double at) {
      return at >= k * slice_ms && (at < (k + 1) * slice_ms || k == kSlices - 1);
    };
    std::vector<double> latencies;
    for (std::size_t i = 0; i < all.count_ms.size(); ++i) {
      if (in_slice(all.count_at_ms[i])) latencies.push_back(all.count_ms[i]);
    }
    const double ops = static_cast<double>(latencies.size());
    qps.push_back(ops / (slice_ms / 1000.0));
    p50.push_back(Quantile(latencies, 0.5));
    cpu.push_back(ops > 0 ? (cpu_at[k + 1] - cpu_at[k]) / ops : 0);
  }
  return {Median(qps), Median(p50), Median(cpu), qps};
}

}  // namespace

int RunEndToEnd(const Options& options) {
  // Set up three times (once when tiny); keep the last one for the timed
  // window. The first MakeWorkload builds (and caches) the request stream,
  // which is the load generator's input rather than part of the system's
  // set-up.
  MakeWorkload(options.workload, options.seed, options.tiny);
  const int setup_reps = options.tiny ? 1 : 3;
  std::vector<double> setup_s;
  Served served;
  for (int rep = 0; rep < setup_reps; ++rep) {
    if (rep > 0) {
      served.daemon.Stop();
      served.clients.clear();
      RemoveTree(served.root);
    }
    const Clock::time_point start = Clock::now();
    std::string error;
    if (!SetUp(options, options.work + "/catalog" + std::to_string(rep),
               /*single_client=*/false, &served, &error)) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(MsSince(start) / 1000.0);
  }
  Workload& w = served.workload;

  // A separate connection for the counter scrapes.
  sharpcq::Client scraper;
  std::string error;
  if (!ConnectClient(&scraper, served.daemon.port(), &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }
  std::optional<Scrape> before = ScrapeDaemon(&scraper, &error);

  const double slice_ms = options.seconds * 1000.0 / kSlices;
  std::vector<double> cpu_at = {served.daemon.CpuMs()};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::seconds(options.seconds);
  std::vector<ClientLog> logs(served.clients.size());
  std::atomic<std::size_t> next{served.next_request};
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < w.clients; ++c) {
      threads.emplace_back(Reader, &served, &served.clients[c], &next, start,
                           deadline, &logs[c]);
    }
    for (int k = 1; k <= kSlices; ++k) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(k * slice_ms)));
      cpu_at.push_back(served.daemon.CpuMs());
    }
    for (std::thread& t : threads) t.join();
  }
  std::optional<Scrape> after = ScrapeDaemon(&scraper, &error);

  ClientLog all;
  for (ClientLog& log : logs) {
    all.count_ms.insert(all.count_ms.end(), log.count_ms.begin(), log.count_ms.end());
    all.count_at_ms.insert(all.count_at_ms.end(), log.count_at_ms.begin(),
                           log.count_at_ms.end());
    all.answers.insert(all.answers.end(), log.answers.begin(), log.answers.end());
    all.counts_sent += log.counts_sent;
    all.errors += log.errors;
  }
  const SliceStats sliced = Slice(all, cpu_at, slice_ms);
  const double tail_quantile = TailQuantileFor(all.count_ms.size());

  const double peak_rss_mb = served.daemon.PeakRssMb();
  served.daemon.Stop();

  // Daemon-side totals must match what this generator sent (no ingests).
  bool totals_match = before.has_value() && after.has_value();
  double hit_share = 0, builds_per_count = 0, rejected = 0;
  if (totals_match) {
    const double counts = after->Status("cmd_count") - before->Status("cmd_count");
    const double ingests = after->Status("cmd_ingest") - before->Status("cmd_ingest");
    totals_match = counts == static_cast<double>(all.counts_sent) && ingests == 0;
    if (!totals_match) {
      std::fprintf(stderr,
                   "perfbench: daemon saw %.0f counts / %.0f ingests, generator "
                   "sent %llu / 0\n",
                   counts, ingests, static_cast<unsigned long long>(all.counts_sent));
    }
    const double hits = after->Metric("sharpcq_plan_cache_hits_total") -
                        before->Metric("sharpcq_plan_cache_hits_total");
    const double misses = after->Metric("sharpcq_plan_cache_misses_total") -
                          before->Metric("sharpcq_plan_cache_misses_total");
    hit_share = hits + misses > 0 ? hits / (hits + misses) : 0;
    builds_per_count = counts > 0
                           ? (after->Metric("sharpcq_index_builds_total") -
                              before->Metric("sharpcq_index_builds_total")) /
                                 counts
                           : 0;
    rejected = after->Status("rejected_overload") - before->Status("rejected_overload");
  } else {
    std::fprintf(stderr, "perfbench: counter scrape failed: %s\n", error.c_str());
  }

  AnswerChecker checker(w);
  for (const auto& [key, answer] : all.answers) checker.Check(key, 0, answer);
  const std::uint64_t wrong = checker.Verify();
  const std::uint64_t attempted = all.counts_sent;
  const std::uint64_t failed = all.errors + wrong;

  std::vector<Metric> metrics = {
      {"count_qps", sliced.qps, "1/s"},
      {"count_p50_ms", sliced.p50_ms, "ms"},
      {"count_p99_ms", Quantile(all.count_ms, tail_quantile), "ms"},
      {"cpu_ms_per_op", sliced.cpu_ms_per_op, "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"ok_frac", attempted > 0 ? 1.0 - static_cast<double>(failed) / attempted : 0, "ratio"},
      {"setup_s", Median(setup_s), "s"},
  };

  // Workload properties and sample counts, for the record (not metrics).
  std::string props = "{\"properties\": {\"workload\": \"" + w.name +
                      "\", \"seed\": " + std::to_string(w.seed);
  for (const auto& [key, value] : DescribeWorkload(w)) {
    props += ", \"" + key + "\": \"" + value + "\"";
  }
  props += ", \"count_samples\": " + std::to_string(all.count_ms.size()) +
           ", \"count_tail_quantile\": " + Num(tail_quantile) +
           ", \"plan_cache_hit_share\": " + Num(hit_share) +
           ", \"index_builds_per_count\": " + Num(builds_per_count) +
           ", \"rejected_overload\": " + Num(rejected) +
           ", \"wrong_answers\": " + std::to_string(wrong) +
           ", \"oracle\": \"" + OracleSummary(checker) + "\"" +
           ", \"catalog_fs\": \"" + FilesystemName(options.work) + "\"";
  auto list = [](const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out += (i > 0 ? ", " : "") + Num(values[i]);
    }
    return out + "]";
  };
  props += ", \"setup_s_each\": " + list(setup_s) +
           ", \"slice_qps\": " + list(sliced.slice_qps) + "}}";
  std::printf("%s\n", props.c_str());
  RemoveTree(served.root);
  std::printf("%s\n",
              ResultJson(failed == 0 && totals_match, attempted, failed, metrics)
                  .c_str());
  return 0;
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload W --seed N --seconds S "
               "--trace 0|1 --daemon PATH --work DIR [--spans FILE] [--tiny]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atoi(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--daemon") {
      options.daemon = value;
    } else if (arg == "--work") {
      options.work = value;
    } else if (arg == "--spans") {
      options.spans = value;
    } else {
      return Usage();
    }
  }
  if (options.workload.empty() || options.seconds < 1 || options.daemon.empty() ||
      options.work.empty()) {
    return Usage();
  }
  if (options.spans.empty()) options.spans = options.work + "/spans.tsv";
  return options.trace ? perfbench::RunTraced(options)
                       : perfbench::RunEndToEnd(options);
}
