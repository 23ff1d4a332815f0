// The observability layer (ISSUE 9): metrics histogram bucket math and
// concurrent counter correctness, the trace span tree (nesting, notes,
// serialize -> parse round-trip), the null-sink guarantee that untraced
// spans never allocate (checked with a counting operator new), the
// slow-query ring buffer's eviction and deterministic sampling, and the
// surfaced ends: an engine Count threading a Trace through the planner and
// strategies, and an in-process daemon serving `metrics` in parseable
// Prometheus text plus `count trace=1` bodies that ParseTraceNode accepts.
// Runs under both sanitizers in CI (.github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "count/enumeration.h"
#include "engine/engine.h"
#include "query/parser.h"
#include "server/client.h"
#include "server/daemon.h"
#include "server/protocol.h"
#include "storage/catalog.h"
#include "tests/test_util.h"
#include "util/metrics.h"
#include "util/trace.h"

// --- counting allocator ------------------------------------------------------
// Global operator new/delete replacements that tally every allocation in
// this binary, so the null-sink test below can assert an exact zero over a
// region of code. Routed through malloc/free so sanitizer interception
// still sees a consistent pairing.

namespace {
std::atomic<std::uint64_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace sharpcq {
namespace {

ConjunctiveQuery Parse(const std::string& text) {
  std::string error;
  auto q = ParseQuery(text, nullptr, &error);
  EXPECT_TRUE(q.has_value()) << text << ": " << error;
  return *q;
}

// --- histogram bucket math ---------------------------------------------------

TEST(HistogramTest, BucketIndexIsBitWidthOfMicros) {
  // Bucket 0 is reserved for sub-microsecond samples; bucket i >= 1 holds
  // [2^(i-1), 2^i) microseconds, i.e. the bit width of the sample.
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  EXPECT_EQ(Histogram::BucketIndex(1000), 10u);   // 1ms
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  // Everything past the last boundary is absorbed by the final bucket.
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<std::uint64_t>::max()),
            Histogram::kBuckets - 1);
}

TEST(HistogramTest, BucketUpperBoundsDoubleAndEndAtInfinity) {
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperMs(0), 0.001);   // 1us
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperMs(1), 0.002);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperMs(10), 1.024);  // ~1ms
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperMs(11), 2.048);
  for (std::size_t i = 0; i + 2 < Histogram::kBuckets; ++i) {
    EXPECT_DOUBLE_EQ(Histogram::BucketUpperMs(i + 1),
                     Histogram::BucketUpperMs(i) * 2.0);
  }
  EXPECT_TRUE(std::isinf(Histogram::BucketUpperMs(Histogram::kBuckets - 1)));
}

TEST(HistogramTest, RecordSnapshotAndPercentiles) {
  Histogram h;
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_DOUBLE_EQ(h.snapshot().PercentileMs(99), 0.0);

  // 90 fast samples (~1ms -> bucket 10) and 10 slow ones (~100ms ->
  // bit_width(100000) = 17).
  for (int i = 0; i < 90; ++i) h.Record(1.0);
  for (int i = 0; i < 10; ++i) h.Record(100.0);
  Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_NEAR(snap.sum_ms, 90.0 + 1000.0, 1e-9);
  EXPECT_EQ(snap.buckets[10], 90u);
  EXPECT_EQ(snap.buckets[17], 10u);
  // Percentiles report the containing bucket's upper bound.
  EXPECT_DOUBLE_EQ(snap.PercentileMs(50), Histogram::BucketUpperMs(10));
  EXPECT_DOUBLE_EQ(snap.PercentileMs(90), Histogram::BucketUpperMs(10));
  EXPECT_DOUBLE_EQ(snap.PercentileMs(99), Histogram::BucketUpperMs(17));

  // Negative and sub-microsecond samples land in bucket 0.
  Histogram tiny;
  tiny.Record(-5.0);
  tiny.Record(0.0005);
  EXPECT_EQ(tiny.snapshot().buckets[0], 2u);
}

TEST(HistogramTest, PrometheusExpositionIsCumulativeAndTruncated) {
  Histogram h;
  for (int i = 0; i < 3; ++i) h.Record(1.0);  // bucket 10
  std::string out;
  h.snapshot().AppendPrometheus(&out, "t_lat_ms", "{command=\"count\"}");
  // Cumulative series: empty buckets before the samples render 0, the
  // bucket holding them renders the full count, and the tail is truncated
  // straight to the mandatory +Inf bucket.
  EXPECT_NE(out.find("t_lat_ms_bucket{command=\"count\",le=\"0.001\"} 0\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("t_lat_ms_bucket{command=\"count\",le=\"1.024\"} 3\n"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("le=\"2.048\""), std::string::npos) << out;
  EXPECT_NE(out.find("t_lat_ms_bucket{command=\"count\",le=\"+Inf\"} 3\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("t_lat_ms_sum{command=\"count\"} 3\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("t_lat_ms_count{command=\"count\"} 3\n"),
            std::string::npos)
      << out;
}

// --- counters ----------------------------------------------------------------

TEST(CounterTest, ConcurrentStripedAddsSumExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.Add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(CounterTest, DisabledMetricsDropEveryWrite) {
  Counter counter;
  Histogram histogram;
  counter.Add(5);
  SetMetricsEnabled(false);
  counter.Add(1000);
  histogram.Record(50.0);
  SetMetricsEnabled(true);
  EXPECT_EQ(counter.Value(), 5u);
  EXPECT_EQ(histogram.snapshot().count, 0u);
}

TEST(RegistryTest, SameNameAndLabelsReturnSameInstance) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  Counter& a = registry.GetCounter("sharpcq_test_registry_total");
  Counter& b = registry.GetCounter("sharpcq_test_registry_total");
  EXPECT_EQ(&a, &b);
  Counter& labeled =
      registry.GetCounter("sharpcq_test_registry_total", "{kind=\"x\"}");
  EXPECT_NE(&a, &labeled);

  a.Add(3);
  labeled.Add(4);
  registry.GetGauge("sharpcq_test_registry_depth").Set(-2);
  std::string out = registry.RenderPrometheus();
  EXPECT_NE(out.find("# TYPE sharpcq_test_registry_total counter\n"),
            std::string::npos);
  EXPECT_NE(out.find("sharpcq_test_registry_total 3\n"), std::string::npos)
      << out;
  EXPECT_NE(out.find("sharpcq_test_registry_total{kind=\"x\"} 4\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("sharpcq_test_registry_depth -2\n"), std::string::npos)
      << out;
}

// --- trace spans -------------------------------------------------------------

const std::string* FindNote(const TraceNode& node, std::string_view key) {
  for (const auto& [k, v] : node.notes) {
    if (k == key) return &v;
  }
  return nullptr;
}

TEST(TraceTest, SpansNestUnderTheScopeAndRecordNotes) {
  Trace trace;
  {
    TraceScope scope(&trace);
    ASSERT_EQ(CurrentTrace(), &trace);
    TraceSpan outer("plan");
    outer.Note("strategy", "sharp-hypertree");
    outer.NoteCount("atoms", 4);
    outer.NoteMs("elapsed", 1.5);
    {
      TraceSpan inner("width_search");
      inner.NoteCount("k", 2);
    }
    TraceSpan sibling("install");
    (void)sibling;
  }
  EXPECT_EQ(CurrentTrace(), nullptr);
  trace.Finish();

  const TraceNode& root = trace.root();
  EXPECT_EQ(root.name, "query");
  ASSERT_EQ(root.children.size(), 1u);
  const TraceNode* plan = FindChild(root, "plan");
  ASSERT_NE(plan, nullptr);
  ASSERT_NE(FindNote(*plan, "strategy"), nullptr);
  EXPECT_EQ(*FindNote(*plan, "strategy"), "sharp-hypertree");
  EXPECT_EQ(*FindNote(*plan, "atoms"), "4");
  EXPECT_EQ(*FindNote(*plan, "elapsed"), "1.500");
  ASSERT_EQ(plan->children.size(), 2u);  // inner + sibling both under plan
  EXPECT_NE(FindChild(*plan, "width_search"), nullptr);
  EXPECT_NE(FindChild(*plan, "install"), nullptr);
  EXPECT_GE(root.duration_ms, plan->duration_ms);
}

TEST(TraceTest, SerializeParseRoundTripIsIdentity) {
  Trace trace;
  {
    TraceScope scope(&trace);
    TraceSpan a("phase one");  // space in the name exercises escaping
    a.Note("path", "a\\b c");
    a.Note("multi", "line\none\ttab");
    TraceSpan b("inner");
    b.NoteCount("rows", 42);
  }
  trace.Finish();

  const std::string wire = SerializeTraceNode(trace.root());
  EXPECT_EQ(wire.back(), '\n');
  std::string error;
  auto parsed = ParseTraceNode(wire, &error);
  ASSERT_NE(parsed, nullptr) << error;
  EXPECT_EQ(parsed->name, "query");
  const TraceNode* a = FindChild(*parsed, "phase one");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(*FindNote(*a, "path"), "a\\b c");
  EXPECT_EQ(*FindNote(*a, "multi"), "line\none\ttab");
  ASSERT_NE(FindChild(*a, "inner"), nullptr);
  EXPECT_EQ(*FindNote(*FindChild(*a, "inner"), "rows"), "42");
  // Re-serializing the parsed tree reproduces the wire text exactly.
  EXPECT_EQ(SerializeTraceNode(*parsed), wire);
}

TEST(TraceTest, ParseRejectsMalformedTrees) {
  std::string error;
  EXPECT_EQ(ParseTraceNode("", &error), nullptr);
  EXPECT_EQ(ParseTraceNode("a +0.0ms\n", &error), nullptr);  // missing field
  EXPECT_EQ(ParseTraceNode(" a +0.0ms 1.0ms\n", &error), nullptr);  // odd
  EXPECT_EQ(ParseTraceNode("a +0.0ms 1.0ms\n    b +0.0ms 1.0ms\n", &error),
            nullptr);  // depth jumps past its parent
  EXPECT_EQ(ParseTraceNode("a +0.0ms 1.0ms\nb +0.0ms 1.0ms\n", &error),
            nullptr);  // two roots
  EXPECT_EQ(ParseTraceNode("a +0.0ms 1.0ms badnote\n", &error), nullptr);
}

TEST(TraceTest, UntracedSpansNeverAllocate) {
  ASSERT_EQ(CurrentTrace(), nullptr);
  // Warm up thread-local machinery outside the measured region.
  { TraceSpan warmup("w"); }
  const std::uint64_t before =
      g_allocation_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    TraceSpan span("materialize_bags");
    span.Note("regime", "priority");
    span.NoteCount("relaxations", 17);
    span.NoteMs("elapsed", 3.25);
    TraceSpan inner("count_full_join");
    inner.NoteCount("nodes", 9);
  }
  const std::uint64_t after =
      g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "untraced TraceSpan must be the null sink";
}

// --- slow-query log ----------------------------------------------------------

TEST(SlowQueryLogTest, RingEvictsOldestPastCapacity) {
  SlowQueryLog log({/*capacity=*/4, /*threshold_ms=*/0.0,
                    /*sample_every=*/1});
  ASSERT_TRUE(log.enabled());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(log.ShouldRecord(5.0));
    SlowQueryEntry entry;
    entry.query = "q" + std::to_string(i);
    log.Record(std::move(entry));
  }
  std::vector<SlowQueryEntry> entries = log.Entries();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries.front().sequence, 6u);  // oldest surviving
  EXPECT_EQ(entries.front().query, "q6");
  EXPECT_EQ(entries.back().sequence, 9u);
  EXPECT_EQ(log.total_slow(), 10u);
}

TEST(SlowQueryLogTest, ThresholdAndSamplingAreDeterministic) {
  SlowQueryLog log({/*capacity=*/8, /*threshold_ms=*/10.0,
                    /*sample_every=*/3});
  EXPECT_FALSE(log.ShouldRecord(9.99));  // under threshold: not even counted
  EXPECT_EQ(log.total_slow(), 0u);
  int recorded = 0;
  for (int i = 0; i < 9; ++i) {
    if (log.ShouldRecord(10.0)) ++recorded;
  }
  EXPECT_EQ(recorded, 3);  // ordinals 0, 3, 6
  EXPECT_EQ(log.total_slow(), 9u);

  SlowQueryLog disabled({/*capacity=*/8, /*threshold_ms=*/-1.0,
                         /*sample_every=*/1});
  EXPECT_FALSE(disabled.enabled());
  EXPECT_FALSE(disabled.ShouldRecord(1e9));

  SlowQueryLog zero_capacity({/*capacity=*/0, /*threshold_ms=*/0.0,
                              /*sample_every=*/1});
  EXPECT_FALSE(zero_capacity.enabled());
}

// --- engine trace-through ----------------------------------------------------

Database MakeChainDatabase() {
  Database db;
  db.AddTuple("r", {1, 2});
  db.AddTuple("r", {2, 3});
  db.AddTuple("r", {3, 4});
  db.AddTuple("s", {2, 5});
  db.AddTuple("s", {3, 6});
  db.AddTuple("s", {4, 7});
  return db;
}

TEST(EngineTraceTest, CountRecordsPlannerAndExecutionSpans) {
  CountingEngine engine;
  Database db = MakeChainDatabase();
  Trace trace;
  CountResult result = engine.Count(Parse("Q(X,Y) <- r(X,Z), s(Z,Y)"), db,
                                    PlannerOptions{}, nullptr, &trace);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.count, CountInt{3});
  EXPECT_EQ(CurrentTrace(), nullptr);  // scope restored

  const TraceNode& root = trace.root();
  EXPECT_EQ(root.name, "query");
  EXPECT_GT(root.duration_ms, 0.0);  // Finish() was called
  const TraceNode* profile = FindChild(root, "profile");
  const TraceNode* plan = FindChild(root, "plan");
  const TraceNode* execute = FindChild(root, "execute");
  ASSERT_NE(profile, nullptr);
  ASSERT_NE(plan, nullptr);
  ASSERT_NE(execute, nullptr);
  ASSERT_NE(FindNote(*plan, "strategy"), nullptr);
  EXPECT_EQ(*FindNote(*plan, "strategy"), "sharp-hypertree");
  ASSERT_NE(FindNote(*plan, "cache"), nullptr);
  ASSERT_NE(FindNote(*execute, "method"), nullptr);
  EXPECT_EQ(*FindNote(*execute, "method"), result.method);
  EXPECT_EQ(*FindNote(*execute, "status"), "OK");
  // The strategy contributed nested spans under the execute phase.
  EXPECT_NE(FindChild(*execute, "materialize_bags"), nullptr);

  // A second traced count on the same engine sees the warm plan cache.
  Trace second;
  engine.Count(Parse("Q(X,Y) <- r(X,Z), s(Z,Y)"), db, PlannerOptions{},
               nullptr, &second);
  const TraceNode* second_plan = FindChild(second.root(), "plan");
  ASSERT_NE(second_plan, nullptr);
  EXPECT_EQ(*FindNote(*second_plan, "cache"), "hit");
}

TEST(EngineTraceTest, SlowQueryLogCapturesTracedCounts) {
  EngineOptions options;
  options.slow_query_threshold_ms = 0.0;  // everything is "slow"
  CountingEngine engine(options);
  Database db = MakeChainDatabase();
  Trace trace;
  engine.Count(Parse("Q(X) <- r(X,Y)"), db, PlannerOptions{}, nullptr,
               &trace);
  engine.Count(Parse("Q(X) <- s(X,Y)"), db);  // untraced

  std::vector<SlowQueryEntry> entries = engine.slow_query_log().Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_FALSE(entries[0].query.empty());
  EXPECT_FALSE(entries[0].method.empty());
  EXPECT_FALSE(entries[0].wall_time.empty());
  // The traced call keeps its span tree; the untraced one records "".
  std::string error;
  ASSERT_NE(ParseTraceNode(entries[0].trace, &error), nullptr) << error;
  EXPECT_TRUE(entries[1].trace.empty());
}

// --- daemon exposition -------------------------------------------------------

std::string MakeScratchDir() {
  std::string tmpl = ::testing::TempDir() + "sharpcq_obs_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const char* dir = ::mkdtemp(buf.data());
  EXPECT_NE(dir, nullptr);
  return dir;
}

TEST(DaemonObservabilityTest, MetricsCommandServesParseableExposition) {
  DaemonOptions options;
  options.catalog_root = MakeScratchDir();
  options.catalog.engine.slow_query_threshold_ms = 0.0;
  {
    Catalog catalog(options.catalog_root);
    Status error;
    ASSERT_TRUE(
        catalog.Ingest("demo", MakeChainDatabase(), nullptr, &error)
            .has_value())
        << error;
  }
  Daemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", daemon.port(), &error)) << error;

  // One traced count: the response carries the serialized span tree.
  Request count;
  count.command = "count";
  count.args = {{"db", "demo"}, {"trace", "1"}};
  count.body = "Q(X,Y) <- r(X,Z), s(Z,Y)";
  auto counted = client.Call(count, &error);
  ASSERT_TRUE(counted.has_value()) << error;
  ASSERT_TRUE(counted->ok) << counted->code << " " << counted->message;
  EXPECT_EQ(*counted->Field("count"), "3");
  ASSERT_FALSE(counted->body.empty());
  auto tree = ParseTraceNode(counted->body, &error);
  ASSERT_NE(tree, nullptr) << error << "\n" << counted->body;
  EXPECT_EQ(tree->name, "query");
  EXPECT_NE(FindChild(*tree, "execute"), nullptr);

  // The scrape: well-formed exposition with this daemon's request totals.
  Request metrics;
  metrics.command = "metrics";
  auto scraped = client.Call(metrics, &error);
  ASSERT_TRUE(scraped.has_value()) << error;
  ASSERT_TRUE(scraped->ok) << scraped->code;
  const std::string& body = scraped->body;
  EXPECT_NE(body.find("# TYPE sharpcqd_requests_total counter\n"),
            std::string::npos);
  EXPECT_EQ(
      ParseExposition(body, "sharpcqd_requests_total{command=\"count\"}"),
      1.0)
      << body;
  EXPECT_EQ(
      ParseExposition(body, "sharpcqd_requests_total{command=\"metrics\"}"),
      1.0);
  EXPECT_EQ(ParseExposition(body, "sharpcqd_responses_total{result=\"ok\"}"),
            1.0);
  EXPECT_GE(ParseExposition(body, "sharpcqd_uptime_seconds"), 0.0);
  EXPECT_EQ(
      ParseExposition(
          body, "sharpcqd_request_latency_ms_count{command=\"count\"}"),
      1.0);
  // Process-wide engine families ride along in the same exposition.
  EXPECT_NE(body.find("# TYPE sharpcq_counts_total counter\n"),
            std::string::npos);

  // Per-command totals in `status`, and the slow-query ring via `inspect`.
  Request status;
  status.command = "status";
  auto state = client.Call(status, &error);
  ASSERT_TRUE(state.has_value()) << error;
  ASSERT_TRUE(state->ok);
  EXPECT_EQ(*state->Field("cmd_count"), "1");
  EXPECT_EQ(*state->Field("cmd_metrics"), "1");
  ASSERT_NE(state->Field("uptime_s"), nullptr);
  ASSERT_NE(state->Field("build_type"), nullptr);

  Request inspect;
  inspect.command = "inspect";
  inspect.args = {{"db", "demo"}, {"slowlog", "1"}};
  auto inspected = client.Call(inspect, &error);
  ASSERT_TRUE(inspected.has_value()) << error;
  ASSERT_TRUE(inspected->ok) << inspected->code;
  ASSERT_NE(inspected->Field("slow_entries"), nullptr);
  EXPECT_EQ(*inspected->Field("slow_entries"), "1");
  EXPECT_NE(inspected->body.find("slow 0 ["), std::string::npos)
      << inspected->body;
  EXPECT_NE(inspected->body.find("method="), std::string::npos);

  daemon.Stop();
}

}  // namespace
}  // namespace sharpcq
