// The traced run: a single client sends the workload's request stream to
// the daemon and, after each response, replays the same request in this
// process through the public entry points the daemon calls, in the
// daemon's order, timing each call as a span:
//
//   count:  Catalog::Open -> ValueDict copy -> ParseQuery ->
//           BuildDataProfile -> CanonicalizeQuery -> CountingEngine::Plan ->
//           ExecutePlan (under an ExecScope built from the daemon's
//           EngineOptions), then CountingEngine::Count through a second
//           Catalog on the same root, ComputeColoredCore (the solver's
//           core computation, which planning runs on a cache miss) and
//           FindSharpBDecomposition for #b-planned queries.
//   ingest: Database + ValueDict copy -> LoadRelationCsv ->
//           Catalog::Ingest, then the first Open of the new generation.
//
// Spans (name, start, end, parent, request id) are kept in memory and
// written out when the run ends. Before the traced phase an untraced
// single-client phase sends the same stream, so the run reports its own
// overhead as the gap between the two round-trip medians.

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "algebra/exec_policy.h"
#include "algebra/stats.h"
#include "data/csv.h"
#include "engine/engine.h"
#include "engine/executor.h"
#include "hybrid/sharp_b.h"
#include "query/canonical.h"
#include "query/parser.h"
#include "runs.h"
#include "solver/core.h"
#include "storage/catalog.h"
#include "util/cancel.h"
#include "util/count_int.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

using sharpcq::Catalog;
using sharpcq::CountResult;
using sharpcq::CountingEngine;

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int Begin(const char* name, int parent, std::uint64_t request) {
    spans_.push_back({name, Now(), 0.0, parent, request});
    return static_cast<int>(spans_.size() - 1);
  }
  // Closes the span; returns its duration in microseconds.
  double End(int span) {
    spans_[static_cast<std::size_t>(span)].end_us = Now();
    return spans_[static_cast<std::size_t>(span)].end_us -
           spans_[static_cast<std::size_t>(span)].start_us;
  }
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "id\tname\tstart_us\tend_us\tparent\trequest\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << "\t" << s.name << "\t" << Num(s.start_us) << "\t"
          << Num(s.end_us) << "\t" << s.parent << "\t" << s.request << "\n";
    }
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int parent;
    std::uint64_t request;
  };
  double Now() const { return MsSince(origin_) * 1000.0; }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// The traced replay of one served workload.
class Replay {
 public:
  explicit Replay(Served* served)
      : served_(served),
        w_(served->workload),
        catalog_(served->root),
        count_catalog_(served->root),
        tracer_(Clock::now()),
        checker_(w_) {}

  // One count: socket round trip, then the in-process daemon path.
  void Count(int key) {
    const QuerySpec& q = w_.queries[static_cast<std::size_t>(key)];
    const sharpcq::Request request = CountRequest(q);
    const std::uint64_t rid = ++requests_;
    const int root = tracer_.Begin("request", -1, rid);

    int span = tracer_.Begin("server.roundtrip", root, rid);
    std::string error;
    std::optional<sharpcq::Response> response = client().Call(request, &error);
    const double rt_us = tracer_.End(span);
    ++attempted_;
    if (!response.has_value() || !response->ok) {
      ++failed_;
      tracer_.End(root);
      return;
    }
    Record("server.roundtrip_us", rt_us);
    const std::string* count = response->Field("count");
    checker_.Check(key, applied_, count == nullptr ? "" : *count);

    span = tracer_.Begin("server.codec", root, rid);
    {
      std::string parse_error;
      const std::string request_bytes = sharpcq::SerializeRequest(request);
      sharpcq::ParseRequest(request_bytes, &parse_error);
      const std::string response_bytes = sharpcq::SerializeResponse(*response);
      sharpcq::ParseResponse(response_bytes, &parse_error);
    }
    Record("server.codec_us", tracer_.End(span));

    // The daemon's path, in the daemon's order.
    const int path = tracer_.Begin("daemon_path", root, rid);
    span = tracer_.Begin("storage.open", path, rid);
    sharpcq::Status status;
    std::shared_ptr<const Catalog::Entry> entry = catalog_.Open(q.db, &status);
    const double open_us = tracer_.End(span);
    if (entry == nullptr) {
      std::fprintf(stderr, "perfbench: replay open: %s\n", status.ToString().c_str());
      ++failed_;
      tracer_.End(path);
      tracer_.End(root);
      return;
    }
    RecordOpen(q.db, entry->generation, open_us);

    span = tracer_.Begin("data.dict_copy", path, rid);
    sharpcq::ValueDict dict = *entry->dict;
    const double dict_us = tracer_.End(span);
    Record("data.dict_copy_us", dict_us);

    span = tracer_.Begin("query.parse", path, rid);
    std::optional<sharpcq::ConjunctiveQuery> parsed =
        sharpcq::ParseQuery(q.text, &dict, &error);
    const double parse_us = tracer_.End(span);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "perfbench: replay parse: %s\n", error.c_str());
      ++failed_;
      tracer_.End(path);
      tracer_.End(root);
      return;
    }
    Record("query.parse_us", parse_us);

    span = tracer_.Begin("engine.profile", path, rid);
    std::vector<std::string> names;
    for (const sharpcq::Atom& atom : parsed->atoms()) names.push_back(atom.relation);
    sharpcq::DataProfile profile = sharpcq::BuildDataProfile(*entry->db, names);
    const double profile_us = tracer_.End(span);
    Record("engine.profile_us", profile_us);

    // Timed beside planning (Plan canonicalizes again internally).
    span = tracer_.Begin("query.canonicalize", path, rid);
    [[maybe_unused]] sharpcq::CanonicalForm canonical =
        sharpcq::CanonicalizeQuery(*parsed);
    Record("query.canonicalize_us", tracer_.End(span));

    // The daemon's policy for this request (auto, or the pinned strategy).
    const sharpcq::PlannerOptions planner = *sharpcq::PlannerOptionsForStrategy(
        q.strategy.empty() ? "auto" : q.strategy, entry->engine->options().planner);
    span = tracer_.Begin("engine.plan", path, rid);
    CountingEngine::Planned planned = entry->engine->Plan(*parsed, planner, &profile);
    const double plan_us = tracer_.End(span);
    if (planned.cache_hit) {
      Record("engine.plan_us", plan_us);
    } else {
      Record("engine.plan_miss_ms", plan_us / 1000.0);
    }

    span = tracer_.Begin("engine.execute", path, rid);
    {
      const sharpcq::EngineOptions& engine = entry->engine->options();
      sharpcq::CancelToken token;
      sharpcq::ExecStats stats;
      sharpcq::ExecPolicy policy;
      if (engine.enable_morsel_parallelism) {
        policy.pool = [this] { return &pool_; };
      }
      policy.morsel_rows = engine.morsel_rows;
      policy.row_threshold = engine.morsel_row_threshold;
      policy.cancel = &token;
      policy.cost_model = engine.enable_cost_model;
      policy.stats = &stats;
      sharpcq::ExecScope scope(std::move(policy));
      sharpcq::ExecutePlan(*planned.plan, *entry->db);
    }
    const double execute_us = tracer_.End(span);
    Record("engine.execute_ms", execute_us / 1000.0);
    tracer_.End(path);

    // The engine's own Count, on a second catalog over the same root: its
    // own engine (whose plan cache saw the same stream, so a miss above is
    // a miss here too) and its own tables (whose index caches are as cold
    // or warm as the first catalog's). The daemon copies the dictionary
    // right before counting, which evicts the data from the CPU caches; an
    // untimed copy puts Count in the state the replayed execution saw.
    std::shared_ptr<const Catalog::Entry> twin = count_catalog_.Open(q.db, &status);
    if (twin == nullptr || twin->generation != entry->generation) {
      ++failed_;
      tracer_.End(root);
      return;
    }
    { sharpcq::ValueDict evict = *twin->dict; }
    span = tracer_.Begin("engine.count", root, rid);
    sharpcq::CancelToken token;
    CountResult result = twin->engine->Count(*parsed, *twin->db, planner, &token);
    const double count_us = tracer_.End(span);
    Record("engine.count_ms", count_us / 1000.0);
    ++attempted_;
    checker_.Check(key, applied_, sharpcq::CountToString(result.count));
    filter_hits_ += static_cast<double>(result.filter_hits);
    filter_passes_ += static_cast<double>(result.filter_passes);
    morsels_ += static_cast<double>(result.morsels);
    worklist_ += static_cast<double>(result.worklist_iterations);
    ++counts_;

    // The solver layer as planning reaches it: the colored core, by
    // homomorphism search. Counts never run the consistency worklist
    // (only HomomorphismExistsViaConsistency does), so the count result's
    // worklist_iterations stays 0 on every workload.
    span = tracer_.Begin("solver.core", root, rid);
    [[maybe_unused]] sharpcq::ConjunctiveQuery core =
        sharpcq::ComputeColoredCore(*parsed);
    Record("solver.core_us", tracer_.End(span));

    if (planned.plan->strategy == sharpcq::PlanStrategy::kSharpB) {
      span = tracer_.Begin("hybrid.sharpb_search", root, rid);
      sharpcq::SharpBOptions sharpb;
      sharpb.max_b = planner.hybrid_max_b;
      sharpb.max_cores = planner.max_cores;
      sharpb.max_subsets = planner.hybrid_max_subsets;
      for (int k = 2; k <= planner.max_width; ++k) {
        if (sharpcq::FindSharpBDecomposition(planned.plan->query, *entry->db, k,
                                             sharpb)
                .has_value()) {
          break;
        }
      }
      Record("hybrid.sharpb_search_ms", tracer_.End(span) / 1000.0);
    }
    tracer_.End(root);

    const double attributed_us = profile_us + plan_us + execute_us;
    Record("engine.unattributed_us", count_us - attributed_us);
    Record("server.transport_us", rt_us - (open_us + dict_us + parse_us + attributed_us));
    // Per-request shares; the metrics are their medians.
    Record("engine.attributed_share", attributed_us / count_us);
    Record("engine.execute_share", execute_us / count_us);
    Record("engine.plan_share", plan_us / count_us);
    Record("server.non_execute_share", 1.0 - execute_us / rt_us);
  }

  // One ingest of batch k: socket round trip, then the daemon's ingest path
  // in-process (re-appending the same rows, so the content matches).
  void Ingest(std::size_t k) {
    const sharpcq::Request request = IngestRequest(w_, k);
    const std::uint64_t rid = ++requests_;
    const int root = tracer_.Begin("request", -1, rid);
    int span = tracer_.Begin("server.roundtrip_ingest", root, rid);
    std::string error;
    std::optional<sharpcq::Response> response = client().Call(request, &error);
    const double rt_us = tracer_.End(span);
    ++attempted_;
    if (!response.has_value() || !response->ok) {
      ++failed_;
      tracer_.End(root);
      return;
    }
    ++applied_;
    Record("server.ingest_roundtrip_ms", rt_us / 1000.0);

    sharpcq::Status status;
    span = tracer_.Begin("storage.open", root, rid);
    std::shared_ptr<const Catalog::Entry> entry = catalog_.Open(w_.ingest_db, &status);
    const double open_us = tracer_.End(span);
    if (entry == nullptr) {
      ++failed_;
      tracer_.End(root);
      return;
    }
    RecordOpen(w_.ingest_db, entry->generation, open_us);

    span = tracer_.Begin("storage.db_copy", root, rid);
    sharpcq::Database db = *entry->db;
    sharpcq::ValueDict dict = *entry->dict;
    const double copy_us = tracer_.End(span);
    Record("storage.db_copy_ms", copy_us / 1000.0);

    span = tracer_.Begin("data.csv_parse", root, rid);
    std::istringstream body(request.body);
    sharpcq::CsvResult loaded =
        sharpcq::LoadRelationCsv(body, w_.ingest_relation, &db, &dict);
    const double parse_us = tracer_.End(span);
    Record("data.csv_parse_ms", parse_us / 1000.0);

    span = tracer_.Begin("storage.ingest", root, rid);
    std::optional<std::uint64_t> generation =
        loaded.ok() ? catalog_.Ingest(w_.ingest_db, db, &dict, &status)
                    : std::nullopt;
    const double ingest_us = tracer_.End(span);
    ++attempted_;
    if (!generation.has_value()) {
      std::fprintf(stderr, "perfbench: replay ingest: %s %s\n",
                   loaded.message.c_str(), status.ToString().c_str());
      ++failed_;
      tracer_.End(root);
      return;
    }
    Record("storage.ingest_ms", ingest_us / 1000.0);
    snapshot_bytes_ += static_cast<double>(
        FileBytes(catalog_.SnapshotPath(w_.ingest_db, *generation)));
    csv_bytes_ += static_cast<double>(request.body.size());
    tracer_.End(root);
    Record("storage.ingest_path_share", (copy_us + parse_us + ingest_us) / rt_us);
  }

  std::vector<Metric> Metrics(const Scrape& before, const Scrape& after,
                              double untraced_rt_p50_us) {
    std::vector<Metric> out;
    auto timing = [&](const std::string& name, const std::string& unit) {
      const std::vector<double>& v = samples_[name];
      out.push_back({name + ".p50", Quantile(v, 0.5), unit});
      out.push_back({name + ".p99", Quantile(v, TailQuantileFor(v.size())), unit});
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    auto median = [&](const std::string& name, const std::string& unit) {
      out.push_back({name, Quantile(samples_[name], 0.5), unit});
    };
    timing("server.roundtrip_us", "us");
    timing("server.codec_us", "us");
    timing("server.transport_us", "us");
    timing("server.ingest_roundtrip_ms", "ms");
    out.push_back({"server.rejected_overload",
                   after.Status("rejected_overload") - before.Status("rejected_overload"),
                   "count"});
    median("server.non_execute_share", "ratio");
    timing("storage.open_us", "us");
    timing("storage.open_new_gen_ms", "ms");
    timing("storage.db_copy_ms", "ms");
    timing("storage.ingest_ms", "ms");
    out.push_back({"storage.write_amp", ratio(snapshot_bytes_, csv_bytes_), "ratio"});
    median("storage.ingest_path_share", "ratio");
    timing("data.dict_copy_us", "us");
    timing("data.csv_parse_ms", "ms");
    timing("query.parse_us", "us");
    timing("query.canonicalize_us", "us");
    timing("engine.profile_us", "us");
    timing("engine.plan_us", "us");
    timing("engine.plan_miss_ms", "ms");
    const double hits = after.Metric("sharpcq_plan_cache_hits_total") -
                        before.Metric("sharpcq_plan_cache_hits_total");
    const double misses = after.Metric("sharpcq_plan_cache_misses_total") -
                          before.Metric("sharpcq_plan_cache_misses_total");
    out.push_back({"engine.plan_cache_hit_ratio", ratio(hits, hits + misses), "ratio"});
    timing("engine.execute_ms", "ms");
    timing("engine.count_ms", "ms");
    timing("engine.unattributed_us", "us");
    median("engine.attributed_share", "ratio");
    median("engine.execute_share", "ratio");
    median("engine.plan_share", "ratio");
    timing("hybrid.sharpb_search_ms", "ms");
    const double daemon_counts =
        after.Status("cmd_count") - before.Status("cmd_count");
    out.push_back({"algebra.index_builds_per_count",
                   ratio(after.Metric("sharpcq_index_builds_total") -
                             before.Metric("sharpcq_index_builds_total"),
                         daemon_counts),
                   "count"});
    out.push_back({"algebra.filter_hit_ratio",
                   ratio(filter_hits_, filter_hits_ + filter_passes_), "ratio"});
    out.push_back({"algebra.morsels_per_count", ratio(morsels_, counts_), "count"});
    timing("solver.core_us", "us");
    out.push_back({"solver.worklist_iterations_per_count", ratio(worklist_, counts_),
                   "count"});
    out.push_back({"trace.overhead_us",
                   Quantile(samples_["server.roundtrip_us"], 0.5) - untraced_rt_p50_us,
                   "us"});
    return out;
  }

  void Record(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  sharpcq::Client& client() { return served_->clients[0]; }
  std::size_t applied() const { return applied_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  AnswerChecker& checker() { return checker_; }
  const Tracer& tracer() const { return tracer_; }

 private:
  // Open of the generation already open is the steady-state cost; the
  // first Open of a new generation pays verify + map + profile.
  void RecordOpen(const std::string& db, std::uint64_t generation, double us) {
    auto [it, inserted] = open_generation_.emplace(db, generation);
    if (!inserted && it->second != generation) {
      Record("storage.open_new_gen_ms", us / 1000.0);
      it->second = generation;
    } else {
      Record("storage.open_us", us);
    }
  }

  Served* served_;
  const Workload& w_;
  Catalog catalog_;
  Catalog count_catalog_;
  Tracer tracer_;
  AnswerChecker checker_;
  sharpcq::ThreadPool pool_;  // hardware concurrency, like the daemon's engines
  std::map<std::string, std::uint64_t> open_generation_;
  std::map<std::string, std::vector<double>> samples_;
  std::uint64_t requests_ = 0;
  std::size_t applied_ = 0;  // probe batches the daemon has acknowledged
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  double counts_ = 0, filter_hits_ = 0, filter_passes_ = 0, morsels_ = 0,
         worklist_ = 0;
  double snapshot_bytes_ = 0, csv_bytes_ = 0;
};

}  // namespace

int RunTraced(const Options& options) {
  Served served;
  std::string error;
  if (!SetUp(options, options.work + "/traced", /*single_client=*/true, &served,
             &error)) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
    return 1;
  }
  const Workload& w = served.workload;
  sharpcq::Client scraper;
  if (!ConnectClient(&scraper, served.daemon.port(), &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }
  std::size_t next = served.next_request;
  auto next_key = [&] { return w.cycle[next++ % w.cycle.size()]; };

  // Untraced reference: socket round trips only, a quarter of the time.
  std::vector<double> untraced_us;
  const Clock::time_point untraced_end =
      Clock::now() + std::chrono::milliseconds(options.seconds * 250);
  while (Clock::now() < untraced_end) {
    const sharpcq::Request request =
        CountRequest(w.queries[static_cast<std::size_t>(next_key())]);
    const Clock::time_point sent = Clock::now();
    std::optional<sharpcq::Response> response = served.clients[0].Call(request, &error);
    if (response.has_value() && response->ok) untraced_us.push_back(MsSince(sent) * 1000.0);
  }

  std::optional<Scrape> before = ScrapeDaemon(&scraper, &error);
  Replay replay(&served);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::milliseconds(options.seconds * 750);
  while (Clock::now() < deadline) replay.Count(next_key());
  std::optional<Scrape> after = ScrapeDaemon(&scraper, &error);
  // Probe ingests, after the window: the write path and the first count
  // on each new generation.
  for (int k = 0; k < w.probe_batches; ++k) {
    replay.Ingest(static_cast<std::size_t>(k));
    replay.Count(w.SwapQuery(static_cast<std::size_t>(k)));
  }
  served.daemon.Stop();
  if (!before.has_value() || !after.has_value()) {
    std::fprintf(stderr, "perfbench: counter scrape failed: %s\n", error.c_str());
    return 1;
  }

  const std::uint64_t wrong = replay.checker().Verify();
  const std::string spans_path = options.spans;
  replay.tracer().Write(spans_path);
  std::vector<Metric> metrics =
      replay.Metrics(*before, *after, Quantile(untraced_us, 0.5));
  std::printf("{\"properties\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"untraced_roundtrips\": %zu, \"spans\": \"%s\"}}\n",
              w.name.c_str(), static_cast<unsigned long long>(w.seed),
              untraced_us.size(), spans_path.c_str());
  RemoveTree(served.root);
  const std::uint64_t failed = replay.failed() + wrong;
  std::printf("%s\n",
              ResultJson(failed == 0, replay.attempted(), failed, metrics).c_str());
  return 0;
}

}  // namespace perfbench
