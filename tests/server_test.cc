// The sharpcqd daemon end to end: protocol round-trips, malformed and
// oversized frames, admission-control backpressure, and the request
// deadline/cancellation path — a deadline expiring mid-count must come
// back as DEADLINE_EXCEEDED (not a hang), and a client disconnecting
// mid-request must cancel the execution it abandoned. Runs under both
// sanitizers in CI (.github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algebra/exec_policy.h"
#include "count/enumeration.h"
#include "engine/engine.h"
#include "gen/paper_queries.h"
#include "query/parser.h"
#include "server/client.h"
#include "server/daemon.h"
#include "server/protocol.h"
#include "storage/catalog.h"
#include "tests/test_util.h"
#include "util/cancel.h"
#include "util/thread_pool.h"

namespace sharpcq {
namespace {

using std::chrono::steady_clock;

// Sanitized builds run several times slower, so tight latency bounds hold
// only without them.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

std::string MakeScratchDir() {
  std::string tmpl = ::testing::TempDir() + "sharpcqd_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const char* dir = ::mkdtemp(buf.data());
  EXPECT_NE(dir, nullptr);
  return dir;
}

ConjunctiveQuery Parse(const std::string& text) {
  std::string error;
  auto q = ParseQuery(text, nullptr, &error);
  EXPECT_TRUE(q.has_value()) << text << ": " << error;
  return *q;
}

// Random binary relation; with ~4000 edges over ~200 values, counting the
// 4-cycle with all variables free by backtracking takes ~30 seconds —
// far past every deadline used here, so expiry always lands mid-count.
Database MakeSlowDatabase() {
  Database db;
  std::mt19937 rng(42);
  std::uniform_int_distribution<Value> value(0, 199);
  for (int i = 0; i < 4000; ++i) db.AddTuple("r", {value(rng), value(rng)});
  db.DedupAll();
  return db;
}

const char kSlowQuery[] = "Q(A,B,C,D) <- r(A,B), r(B,C), r(C,D), r(D,A)";

double MsSince(steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(steady_clock::now() -
                                                   start)
      .count();
}

// --- protocol round-trips ----------------------------------------------------

TEST(ProtocolTest, RequestRoundTrip) {
  Request request;
  request.command = "count";
  request.args = {{"db", "demo"}, {"deadline_ms", "250"}};
  request.body = "Q(X) <- r(X,Y)\n";
  std::string error;
  auto parsed = ParseRequest(SerializeRequest(request), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->command, "count");
  ASSERT_NE(parsed->Arg("db"), nullptr);
  EXPECT_EQ(*parsed->Arg("db"), "demo");
  ASSERT_NE(parsed->Arg("deadline_ms"), nullptr);
  EXPECT_EQ(*parsed->Arg("deadline_ms"), "250");
  EXPECT_EQ(parsed->Arg("missing"), nullptr);
  EXPECT_EQ(parsed->body, request.body);
}

TEST(ProtocolTest, RequestParseRejectsMalformedHeaders) {
  std::string error;
  EXPECT_FALSE(ParseRequest("", &error).has_value());
  EXPECT_FALSE(ParseRequest("\nbody", &error).has_value());
  EXPECT_FALSE(ParseRequest("count bare_token\n", &error).has_value());
  EXPECT_FALSE(ParseRequest("count =value\n", &error).has_value());
  // Values may contain '='; the split is on the first one.
  auto ok = ParseRequest("count k=a=b\n", &error);
  ASSERT_TRUE(ok.has_value()) << error;
  EXPECT_EQ(*ok->Arg("k"), "a=b");
}

TEST(ProtocolTest, ResponseRoundTrip) {
  Response response = OkResponse();
  response.Add("count", "42");
  response.Add("method", "#-hypertree(k=2)");
  response.body = "r 2 4\ns 2 4\n";
  std::string error;
  auto parsed = ParseResponse(SerializeResponse(response), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(parsed->ok);
  ASSERT_NE(parsed->Field("count"), nullptr);
  EXPECT_EQ(*parsed->Field("count"), "42");
  EXPECT_EQ(*parsed->Field("method"), "#-hypertree(k=2)");
  EXPECT_EQ(parsed->body, response.body);

  Response failure = ErrorResponse(wire::kDeadlineExceeded,
                                   "deadline of 20ms expired");
  failure.Add("method", "interrupted");
  auto reparsed = ParseResponse(SerializeResponse(failure), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_FALSE(reparsed->ok);
  EXPECT_EQ(reparsed->code, wire::kDeadlineExceeded);
  EXPECT_EQ(reparsed->message, "deadline of 20ms expired");
  EXPECT_EQ(*reparsed->Field("method"), "interrupted");
}

TEST(ProtocolTest, ResponseParseRejectsGarbage) {
  std::string error;
  EXPECT_FALSE(ParseResponse("", &error).has_value());
  EXPECT_FALSE(ParseResponse("okay\n", &error).has_value());
  EXPECT_FALSE(ParseResponse("error \n", &error).has_value());
  EXPECT_FALSE(ParseResponse("ok\nno-colon-line\n", &error).has_value());
}

TEST(ProtocolTest, ParseDeadlineMsRejectsSignsJunkAndOverflow) {
  using std::chrono::milliseconds;
  EXPECT_EQ(ParseDeadlineMs("250"), milliseconds(250));
  EXPECT_EQ(ParseDeadlineMs("0"), milliseconds(0));
  EXPECT_EQ(ParseDeadlineMs("9223372036854775807"), milliseconds::max());
  EXPECT_FALSE(ParseDeadlineMs("9223372036854775808").has_value());
  EXPECT_FALSE(ParseDeadlineMs("99999999999999999999").has_value());
  EXPECT_FALSE(ParseDeadlineMs("-5").has_value());
  EXPECT_FALSE(ParseDeadlineMs("+5").has_value());
  EXPECT_FALSE(ParseDeadlineMs("").has_value());
  EXPECT_FALSE(ParseDeadlineMs("12ms").has_value());
}

// --- cancellation substrate --------------------------------------------------

TEST(CancelTokenTest, CancelWinsOverDeadlineAndVerdictLatches) {
  CancelToken token;
  EXPECT_EQ(token.ShouldStop(), CancelToken::StopReason::kNone);
  token.SetDeadlineAfter(std::chrono::milliseconds(0));
  EXPECT_EQ(token.ShouldStop(), CancelToken::StopReason::kDeadline);
  // The deadline verdict latches; a later Cancel still wins the report
  // because explicit cancellation is the stronger signal.
  token.Cancel();
  EXPECT_EQ(token.ShouldStop(), CancelToken::StopReason::kCancelled);
  EXPECT_TRUE(token.stop_requested());
}

TEST(CancelTokenTest, DeadlinePastTheClockRangeSaturatesInsteadOfOverflowing) {
  // 10^13 ms is ~317 years: in nanoseconds it overflows signed 64 bits,
  // and the deadline must saturate rather than wrap into the past.
  CancelToken far;
  far.SetDeadlineAfter(std::chrono::milliseconds(10'000'000'000'000));
  EXPECT_EQ(far.ShouldStop(), CancelToken::StopReason::kNone);
  CancelToken longest;
  longest.SetDeadlineAfter(std::chrono::milliseconds::max());
  EXPECT_EQ(longest.ShouldStop(), CancelToken::StopReason::kNone);
  // A budget already spent still expires at once.
  CancelToken spent;
  spent.SetDeadlineAfter(std::chrono::milliseconds(-1));
  EXPECT_EQ(spent.ShouldStop(), CancelToken::StopReason::kDeadline);
}

TEST(MorselCancelTest, ParallelClaimLoopStopsWithinAFewMorsels) {
  ThreadPool pool(4);
  CancelToken token;
  ExecStats stats;
  ExecPolicy policy;
  policy.pool = [&pool] { return &pool; };
  policy.morsel_rows = 64;
  policy.row_threshold = 64;
  policy.cancel = &token;
  policy.stats = &stats;
  ExecScope scope(policy);

  const std::size_t rows = 64 * 1024;
  MorselPlan plan = PlanMorsels(rows);
  ASSERT_GT(plan.chunks, 100u);
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(
      RunMorsels(plan, rows,
                 [&](std::size_t, std::size_t, std::size_t) {
                   if (executed.fetch_add(1) == 0) token.Cancel();
                 }),
      ExecInterrupted);
  // Every runner may have had one morsel in flight when the token flipped,
  // but the claim loop must not keep executing bodies afterwards.
  EXPECT_LE(executed.load(), 16u) << "of " << plan.chunks << " chunks";
}

TEST(MorselCancelTest, SequentialExecutionChunksWhenTokenInstalled) {
  CancelToken token;
  ExecPolicy policy;  // no pool
  policy.morsel_rows = 128;
  policy.row_threshold = 128;
  policy.cancel = &token;
  ExecScope scope(policy);

  const std::size_t rows = 4096;
  MorselPlan plan = PlanMorsels(rows);
  EXPECT_FALSE(plan.parallel);
  ASSERT_GT(plan.chunks, 1u) << "cancel token must force chunking";
  std::size_t executed = 0;
  EXPECT_THROW(RunMorsels(plan, rows,
                          [&](std::size_t, std::size_t, std::size_t) {
                            ++executed;
                            token.Cancel();
                          }),
               ExecInterrupted);
  EXPECT_EQ(executed, 1u);
}

TEST(EngineCancelTest, PreCancelledTokenReturnsCancelledWithoutExecuting) {
  Database db;
  db.AddTuple("r", {1, 2});
  CountingEngine engine;
  CancelToken token;
  token.Cancel();
  CountResult result = engine.Count(Parse("Q(X) <- r(X,Y)"), db,
                                    engine.options().planner, &token);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status, CountStatus::kCancelled);
  EXPECT_STREQ(CountStatusName(result.status), "CANCELLED");
}

TEST(EngineCancelTest, DeadlineExpiryMidBacktrackingReturnsDeadlineExceeded) {
  Database db = MakeSlowDatabase();
  CountingEngine engine;
  auto planner = PlannerOptionsForStrategy("backtracking",
                                           engine.options().planner);
  ASSERT_TRUE(planner.has_value());
  CancelToken token;
  token.SetDeadlineAfter(std::chrono::milliseconds(20));
  auto start = steady_clock::now();
  CountResult result = engine.Count(Parse(kSlowQuery), db, *planner, &token);
  double elapsed_ms = MsSince(start);
  EXPECT_EQ(result.status, CountStatus::kDeadlineExceeded);
  EXPECT_EQ(result.method, "interrupted");
  // The execution ran until the deadline stopped it: its time is part of
  // the result even though the count is not.
  EXPECT_GT(result.execute_ms, 0.0);
  EXPECT_LE(result.execute_ms, elapsed_ms);
  // The point of the checkpoints: expiry stops the execution promptly
  // instead of letting a many-second count run to completion.
  EXPECT_LT(elapsed_ms, 5000.0);
  // A null token still runs to completion on a small instance.
  Database small;
  small.AddTuple("r", {1, 2});
  small.AddTuple("r", {2, 1});
  CountResult full =
      engine.Count(Parse(kSlowQuery), small, *planner, nullptr);
  EXPECT_TRUE(full.ok());
  EXPECT_EQ(full.count, CountInt{2});  // 1-2-1-2 and 2-1-2-1
}

TEST(EngineCancelTest, BacktrackingDeadlineOvershootIsBoundedByRowsScanned) {
  // The backtracking counter polls its token per rows scanned, so a 20 ms
  // deadline stops the slow count within one poll interval of work. One
  // search node can scan whole relations, so polling per node could not
  // bound this.
  Database db = MakeSlowDatabase();
  CountingEngine engine;
  auto planner = PlannerOptionsForStrategy("backtracking",
                                           engine.options().planner);
  ASSERT_TRUE(planner.has_value());
  CancelToken token;
  token.SetDeadlineAfter(std::chrono::milliseconds(20));
  auto start = steady_clock::now();
  CountResult result = engine.Count(Parse(kSlowQuery), db, *planner, &token);
  double elapsed_ms = MsSince(start);
  EXPECT_EQ(result.status, CountStatus::kDeadlineExceeded);
  if (!kSanitized) EXPECT_LT(elapsed_ms, 50.0);
}

TEST(EngineCancelTest, DeadlineBoundsAPlanMiss) {
  // Q^8_2 under the hybrid preset: no #-hypertree decomposition up to width
  // 3, so planning runs the width search and then the #b search over the
  // pseudo-free sets — over a second of planning before execution starts.
  // Both searches check the deadline, so the count stops inside planning.
  ConjunctiveQuery q = MakeQh2(8);
  Database db = MakeQh2Database(8);
  CountingEngine engine;
  auto planner = PlannerOptionsForStrategy("hybrid", engine.options().planner);
  ASSERT_TRUE(planner.has_value());
  CancelToken token;
  token.SetDeadlineAfter(std::chrono::milliseconds(50));
  auto start = steady_clock::now();
  CountResult result = engine.Count(q, db, *planner, &token);
  double elapsed_ms = MsSince(start);
  EXPECT_EQ(result.status, CountStatus::kDeadlineExceeded);
  EXPECT_EQ(result.method, "interrupted");
  EXPECT_LT(elapsed_ms, 500.0);
  // The planning it did is reported; execution never started.
  EXPECT_GT(result.planner_ms, 0.0);
  EXPECT_LE(result.planner_ms, elapsed_ms);
  EXPECT_EQ(result.execute_ms, 0.0);
  // The interrupted plan was not cached: the next count plans afresh and
  // completes.
  CountResult full = engine.Count(q, db, *planner, nullptr);
  EXPECT_TRUE(full.ok());
  EXPECT_FALSE(full.cache_hit);
  EXPECT_EQ(full.count, CountInt{1} << 8);
}

// --- daemon ------------------------------------------------------------------

// Seeds `root` with a demo database (the 2-cycle) and a slow one (the
// random relation above), so daemon tests can count both fast and long.
void SeedCatalog(const std::string& root) {
  Catalog catalog(root);
  Status error;
  Database demo;
  demo.AddTuple("r", {1, 2});
  demo.AddTuple("r", {2, 3});
  demo.AddTuple("r", {3, 1});
  demo.AddTuple("s", {1, 10});
  demo.AddTuple("s", {2, 20});
  ASSERT_TRUE(catalog.Ingest("demo", demo, nullptr, &error).has_value())
      << error;
  ASSERT_TRUE(
      catalog.Ingest("slow", MakeSlowDatabase(), nullptr, &error).has_value())
      << error;
}

struct DaemonFixture {
  explicit DaemonFixture(DaemonOptions options = {}) {
    options.catalog_root = MakeScratchDir();
    SeedCatalog(options.catalog_root);
    daemon = std::make_unique<Daemon>(std::move(options));
    std::string error;
    EXPECT_TRUE(daemon->Start(&error)) << error;
  }
  ~DaemonFixture() { daemon->Stop(); }

  Client Connect() {
    Client client;
    std::string error;
    EXPECT_TRUE(client.Connect("127.0.0.1", daemon->port(), &error)) << error;
    return client;
  }

  std::unique_ptr<Daemon> daemon;
};

Request CountRequest(const std::string& db, const std::string& query) {
  Request request;
  request.command = "count";
  request.args.emplace_back("db", db);
  request.body = query;
  return request;
}

// Polls `status` on `client` until the daemon reports `inflight` requests
// executing, or 20 s pass.
bool WaitForInflight(Client* client, const std::string& inflight) {
  Request status;
  status.command = "status";
  std::string error;
  const auto deadline = steady_clock::now() + std::chrono::seconds(20);
  while (steady_clock::now() < deadline) {
    auto state = client->Call(status, &error);
    if (!state.has_value()) return false;
    if (*state->Field("inflight") == inflight) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

TEST(DaemonTest, CountIngestInspectStatusRoundTrip) {
  DaemonFixture fixture;
  Client client = fixture.Connect();
  std::string error;

  auto counted =
      client.Call(CountRequest("demo", "Q(X,Z) <- r(X,Y), s(Y,Z)"), &error);
  ASSERT_TRUE(counted.has_value()) << error;
  ASSERT_TRUE(counted->ok) << counted->code << " " << counted->message;
  EXPECT_EQ(*counted->Field("count"), "2");  // (1,20) and (3,10)
  EXPECT_NE(counted->Field("method"), nullptr);
  EXPECT_NE(counted->Field("cache_shard"), nullptr);
  EXPECT_NE(counted->Field("planner_ms"), nullptr);
  EXPECT_EQ(*counted->Field("generation"), "1");

  Request ingest;
  ingest.command = "ingest";
  ingest.args = {{"db", "demo"}, {"relation", "t"}};
  ingest.body = "10,11\n11,12\n";
  auto ingested = client.Call(ingest, &error);
  ASSERT_TRUE(ingested.has_value()) << error;
  ASSERT_TRUE(ingested->ok) << ingested->code << " " << ingested->message;
  EXPECT_EQ(*ingested->Field("generation"), "2");
  EXPECT_EQ(*ingested->Field("tuples"), "2");

  auto recount =
      client.Call(CountRequest("demo", "Q(X,Z) <- t(X,Y), t(Y,Z)"), &error);
  ASSERT_TRUE(recount.has_value()) << error;
  ASSERT_TRUE(recount->ok) << recount->code << " " << recount->message;
  EXPECT_EQ(*recount->Field("count"), "1");
  EXPECT_EQ(*recount->Field("generation"), "2");

  Request inspect;
  inspect.command = "inspect";
  inspect.args.emplace_back("db", "demo");
  auto inspected = client.Call(inspect, &error);
  ASSERT_TRUE(inspected.has_value()) << error;
  ASSERT_TRUE(inspected->ok);
  EXPECT_EQ(*inspected->Field("relations"), "3");
  EXPECT_NE(inspected->body.find("r 2 3"), std::string::npos)
      << inspected->body;

  Request status;
  status.command = "status";
  auto state = client.Call(status, &error);
  ASSERT_TRUE(state.has_value()) << error;
  ASSERT_TRUE(state->ok);
  EXPECT_EQ(*state->Field("responses_error"), "0");
  EXPECT_NE(state->Field("databases")->find("demo"), std::string::npos);
  EXPECT_NE(state->Field("databases")->find("slow"), std::string::npos);
}

TEST(DaemonTest, CountErrorsCarryDistinctCodes) {
  DaemonFixture fixture;
  Client client = fixture.Connect();
  std::string error;

  auto missing = client.Call(CountRequest("nosuchdb", "Q(X) <- r(X,Y)"),
                             &error);
  ASSERT_TRUE(missing.has_value()) << error;
  EXPECT_EQ(missing->code, wire::kNotFound);

  auto bad_query = client.Call(CountRequest("demo", "Q(X,,Y) <- r(X,Y)"),
                               &error);
  ASSERT_TRUE(bad_query.has_value()) << error;
  EXPECT_EQ(bad_query->code, wire::kParseError);
  EXPECT_NE(bad_query->message.find("empty argument position"),
            std::string::npos);

  Request bad_csv;
  bad_csv.command = "ingest";
  bad_csv.args = {{"db", "demo"}, {"relation", "bad"}};
  bad_csv.body = "1,,3\n";
  auto rejected = client.Call(bad_csv, &error);
  ASSERT_TRUE(rejected.has_value()) << error;
  EXPECT_EQ(rejected->code, wire::kParseError);
  EXPECT_NE(rejected->message.find("line 1, column 2"), std::string::npos)
      << rejected->message;

  Request unknown;
  unknown.command = "frobnicate";
  auto unhandled = client.Call(unknown, &error);
  ASSERT_TRUE(unhandled.has_value()) << error;
  EXPECT_EQ(unhandled->code, wire::kUnknownCommand);
}

TEST(DaemonTest, MalformedFrameGetsBadRequestAndConnectionSurvives) {
  DaemonFixture fixture;
  Client client = fixture.Connect();
  std::string error;
  ASSERT_TRUE(client.SendFramed("", &error)) << error;
  auto response = client.Receive(&error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->code, wire::kBadRequest);

  ASSERT_TRUE(client.SendFramed("count bare_token\n", &error)) << error;
  response = client.Receive(&error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->code, wire::kBadRequest);

  // The same connection still serves well-formed requests afterwards.
  auto counted =
      client.Call(CountRequest("demo", "Q(X,Y) <- r(X,Y)"), &error);
  ASSERT_TRUE(counted.has_value()) << error;
  EXPECT_TRUE(counted->ok);
  EXPECT_EQ(*counted->Field("count"), "3");
}

TEST(DaemonTest, OversizedFrameRejectedThenConnectionDropped) {
  DaemonOptions options;
  options.max_frame_bytes = 1024;
  DaemonFixture fixture(std::move(options));
  Client client = fixture.Connect();
  std::string error;
  // Announce a 1 MiB frame without sending its payload: the daemon must
  // answer FRAME_TOO_LARGE on the header alone and drop the connection
  // (the unread payload makes resync impossible).
  const char header[4] = {0x00, 0x10, 0x00, 0x00};
  ASSERT_TRUE(client.SendRaw(std::string_view(header, 4), &error)) << error;
  auto response = client.Receive(&error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->code, wire::kFrameTooLarge);
  EXPECT_FALSE(client.Receive(&error).has_value());
  EXPECT_EQ(fixture.daemon->stats().frames_too_large, 1u);
}

TEST(DaemonTest, MidFrameDisconnectLeavesDaemonHealthy) {
  DaemonFixture fixture;
  {
    Client client = fixture.Connect();
    std::string error;
    // Header promises 100 bytes; send 10 and vanish.
    const char header[4] = {0x00, 0x00, 0x00, 0x64};
    ASSERT_TRUE(client.SendRaw(std::string_view(header, 4), &error)) << error;
    ASSERT_TRUE(client.SendRaw("truncated!", &error)) << error;
  }
  Client fresh = fixture.Connect();
  std::string error;
  auto counted = fresh.Call(CountRequest("demo", "Q(X,Y) <- r(X,Y)"), &error);
  ASSERT_TRUE(counted.has_value()) << error;
  EXPECT_TRUE(counted->ok);
}

TEST(DaemonTest, DeadlineExpiryMidCountReturnsDeadlineExceeded) {
  DaemonFixture fixture;
  Client client = fixture.Connect();
  std::string error;
  Request request = CountRequest("slow", kSlowQuery);
  request.args.emplace_back("strategy", "backtracking");
  request.args.emplace_back("deadline_ms", "20");
  auto start = steady_clock::now();
  auto response = client.Call(request, &error);
  double elapsed_ms = MsSince(start);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->code, wire::kDeadlineExceeded);
  // Provenance still travels on the error: the operator sees what was
  // interrupted and where it was planned.
  ASSERT_NE(response->Field("method"), nullptr);
  EXPECT_EQ(*response->Field("method"), "interrupted");
  EXPECT_NE(response->Field("cache_shard"), nullptr);
  EXPECT_LT(elapsed_ms, 5000.0) << "deadline must interrupt, not hang";
  EXPECT_EQ(fixture.daemon->stats().deadline_exceeded, 1u);
}

TEST(DaemonTest, DeadlinePastTheClockRangeCountsAndOverflowIsABadRequest) {
  DaemonFixture fixture;
  Client client = fixture.Connect();
  std::string error;
  Request far = CountRequest("demo", "Q(X,Y) <- r(X,Y)");
  far.args.emplace_back("deadline_ms", "10000000000000");
  auto counted = client.Call(far, &error);
  ASSERT_TRUE(counted.has_value()) << error;
  ASSERT_TRUE(counted->ok) << counted->code << " " << counted->message;
  EXPECT_EQ(*counted->Field("count"), "3");

  Request overflow = CountRequest("demo", "Q(X,Y) <- r(X,Y)");
  overflow.args.emplace_back("deadline_ms", "99999999999999999999");
  auto rejected = client.Call(overflow, &error);
  ASSERT_TRUE(rejected.has_value()) << error;
  EXPECT_EQ(rejected->code, wire::kBadRequest);
  EXPECT_EQ(fixture.daemon->stats().deadline_exceeded, 0u);
}

TEST(DaemonTest, DisconnectMidCountCancelsTheExecution) {
  DaemonFixture fixture;
  std::string error;
  {
    Client client = fixture.Connect();
    Request request = CountRequest("slow", kSlowQuery);
    request.args.emplace_back("strategy", "backtracking");
    ASSERT_TRUE(client.Send(request, &error)) << error;
    // Give the daemon a moment to start executing, then vanish without
    // reading the response.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // The disconnect watcher must notice the dead socket and cancel the
  // orphaned execution instead of letting it run for minutes.
  auto deadline = steady_clock::now() + std::chrono::seconds(20);
  while (fixture.daemon->stats().cancelled_disconnect == 0 &&
         steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fixture.daemon->stats().cancelled_disconnect, 1u);
  // The admission slot must have been released: a fresh request executes.
  Client fresh = fixture.Connect();
  auto counted = fresh.Call(CountRequest("demo", "Q(X,Y) <- r(X,Y)"), &error);
  ASSERT_TRUE(counted.has_value()) << error;
  EXPECT_TRUE(counted->ok);
}

TEST(DaemonTest, OverloadRejectsFastWhenQueueFull) {
  DaemonOptions options;
  options.max_inflight = 1;
  options.max_queued = 0;
  DaemonFixture fixture(std::move(options));
  std::string error;

  Client blocker = fixture.Connect();
  Request slow = CountRequest("slow", kSlowQuery);
  slow.args.emplace_back("strategy", "backtracking");
  ASSERT_TRUE(blocker.Send(slow, &error)) << error;

  // Wait until the slow count occupies the only admission slot (status
  // bypasses the gate, so it works under full load).
  Client prober = fixture.Connect();
  ASSERT_TRUE(WaitForInflight(&prober, "1"));

  auto start = steady_clock::now();
  auto rejected =
      prober.Call(CountRequest("demo", "Q(X,Y) <- r(X,Y)"), &error);
  double elapsed_ms = MsSince(start);
  ASSERT_TRUE(rejected.has_value()) << error;
  EXPECT_EQ(rejected->code, wire::kOverloaded);
  // Backpressure means fast rejection, not queueing behind the blocker.
  EXPECT_LT(elapsed_ms, 2000.0);
  EXPECT_EQ(fixture.daemon->stats().rejected_overload, 1u);

  blocker.Close();  // the watcher cancels the blocked count during Stop
}

// Virtual memory of this process in KiB (/proc/self/status), 0 if unknown.
std::uint64_t VmSizeKiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::strtoull(line.c_str() + 7, nullptr, 10);
    }
  }
  return 0;
}

// A connection thread that exits must be joined: until then its stack
// (8 MiB by default) stays mapped, so a daemon that never joins grows by
// that much per connection it serves.
TEST(DaemonTest, SequentialConnectionsReleaseTheirThreads) {
  DaemonFixture fixture;
  Request status;
  status.command = "status";
  auto cycle = [&] {
    Client client = fixture.Connect();
    std::string error;
    auto state = client.Call(status, &error);
    ASSERT_TRUE(state.has_value()) << error;
    ASSERT_TRUE(state->ok);
  };
  // Warm up with 8 concurrent connections, then a few sequential ones. The
  // allocator gives each concurrently running thread its own arena (64 MiB
  // of address space) and caches freed stacks; later connection threads
  // reuse both, so the measurement below sees only what the daemon keeps.
  {
    std::vector<Client> clients;
    for (int i = 0; i < 8; ++i) clients.push_back(fixture.Connect());
    for (Client& client : clients) {
      std::string error;
      auto state = client.Call(status, &error);
      ASSERT_TRUE(state.has_value()) << error;
    }
  }
  for (int i = 0; i < 10; ++i) cycle();
  const std::uint64_t before = VmSizeKiB();
  if (before == 0) GTEST_SKIP() << "no /proc/self/status";
  for (int i = 0; i < 500; ++i) cycle();
  const std::uint64_t after = VmSizeKiB();
  EXPECT_LT(after, before + 64 * 1024)
      << "VmSize grew from " << before << " to " << after << " KiB";
  EXPECT_EQ(fixture.daemon->stats().connections_accepted, 518u);
}

// `status`, `metrics` and stats() read one counter table. After a mix of
// ok, malformed, oversized, deadline-expired and overloaded requests every
// counter agrees across the three views, up to the status and metrics
// requests themselves.
TEST(DaemonTest, StatusMetricsAndStatsReadOneCounterTable) {
  DaemonOptions options;
  options.max_inflight = 1;
  options.max_queued = 0;
  options.max_frame_bytes = 1024;
  DaemonFixture fixture(std::move(options));
  std::string error;
  Client client = fixture.Connect();

  auto counted =
      client.Call(CountRequest("demo", "Q(X,Y) <- r(X,Y)"), &error);
  ASSERT_TRUE(counted.has_value()) << error;
  EXPECT_TRUE(counted->ok);

  ASSERT_TRUE(client.SendFramed("", &error)) << error;
  auto malformed = client.Receive(&error);
  ASSERT_TRUE(malformed.has_value()) << error;
  EXPECT_EQ(malformed->code, wire::kBadRequest);

  {
    Client oversized = fixture.Connect();
    const char header[4] = {0x00, 0x10, 0x00, 0x00};
    ASSERT_TRUE(oversized.SendRaw(std::string_view(header, 4), &error))
        << error;
    auto response = oversized.Receive(&error);
    ASSERT_TRUE(response.has_value()) << error;
    EXPECT_EQ(response->code, wire::kFrameTooLarge);
  }

  // A slow count holds the only admission slot until its deadline expires;
  // a count sent meanwhile is rejected as overloaded.
  Client blocker = fixture.Connect();
  Request slow = CountRequest("slow", kSlowQuery);
  slow.args.emplace_back("strategy", "backtracking");
  slow.args.emplace_back("deadline_ms", "500");
  ASSERT_TRUE(blocker.Send(slow, &error)) << error;
  ASSERT_TRUE(WaitForInflight(&client, "1"));
  auto rejected =
      client.Call(CountRequest("demo", "Q(X,Y) <- r(X,Y)"), &error);
  ASSERT_TRUE(rejected.has_value()) << error;
  EXPECT_EQ(rejected->code, wire::kOverloaded);
  auto expired = blocker.Receive(&error);
  ASSERT_TRUE(expired.has_value()) << error;
  EXPECT_EQ(expired->code, wire::kDeadlineExceeded);

  Request status;
  status.command = "status";
  auto state = client.Call(status, &error);
  ASSERT_TRUE(state.has_value()) << error;
  Request metrics;
  metrics.command = "metrics";
  auto scrape = client.Call(metrics, &error);
  ASSERT_TRUE(scrape.has_value()) << error;
  const DaemonStats& stats = fixture.daemon->stats();

  std::set<std::string> keys;
  std::set<std::string> samples;
  for (const DaemonCounter& counter : kDaemonCounters) {
    const std::string key = counter.status_key;
    const std::string sample = std::string(counter.family) + counter.labels;
    keys.insert(key);
    samples.insert(sample);
    ASSERT_NE(state->Field(key), nullptr) << key;
    const double in_status = std::stod(*state->Field(key));
    // `status` counted itself as a request but not yet its response; the
    // metrics scrape came one request later, and stats() is read after
    // both responses went out.
    const bool metrics_extra =
        key == "requests" || key == "cmd_metrics" || key == "responses_ok";
    const bool stats_extra = key == "responses_ok";
    EXPECT_EQ(ParseExposition(scrape->body, sample),
              in_status + metrics_extra)
        << sample;
    EXPECT_EQ(static_cast<double>((stats.*counter.field).load()),
              in_status + metrics_extra + stats_extra)
        << key;
  }
  EXPECT_EQ(keys.size(), std::size(kDaemonCounters));
  EXPECT_EQ(samples.size(), std::size(kDaemonCounters));
  EXPECT_EQ(stats.frames_too_large, 1u);
  EXPECT_EQ(stats.malformed_requests, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.rejected_overload, 1u);
  EXPECT_EQ(stats.cmd_count, 3u);
  EXPECT_EQ(stats.connections_accepted, 3u);

  // Every status key and sharpcqd_* counter sample keeps its wire name.
  for (const char* key :
       {"connections_accepted", "requests", "responses_ok", "responses_error",
        "rejected_overload", "deadline_exceeded", "cancelled_disconnect",
        "resource_exhausted", "frames_too_large", "malformed_requests",
        "cmd_count", "cmd_ingest", "cmd_status", "cmd_inspect", "cmd_metrics",
        "cmd_shutdown"}) {
    EXPECT_NE(state->Field(key), nullptr) << key;
  }
  for (const char* sample :
       {"sharpcqd_connections_total",
        "sharpcqd_requests_total{command=\"count\"}",
        "sharpcqd_requests_total{command=\"ingest\"}",
        "sharpcqd_requests_total{command=\"inspect\"}",
        "sharpcqd_requests_total{command=\"metrics\"}",
        "sharpcqd_requests_total{command=\"status\"}",
        "sharpcqd_requests_total{command=\"shutdown\"}",
        "sharpcqd_responses_total{result=\"ok\"}",
        "sharpcqd_responses_total{result=\"error\"}",
        "sharpcqd_rejected_overload_total", "sharpcqd_deadline_exceeded_total",
        "sharpcqd_cancelled_disconnect_total",
        "sharpcqd_resource_exhausted_total", "sharpcqd_frames_too_large_total",
        "sharpcqd_malformed_requests_total"}) {
    EXPECT_GE(ParseExposition(scrape->body, sample), 0.0) << sample;
  }
}

TEST(DaemonTest, ShutdownCommandUnblocksWait) {
  DaemonFixture fixture;
  std::atomic<bool> returned{false};
  std::thread waiter([&] {
    fixture.daemon->Wait();
    returned.store(true);
  });
  std::string error;
  Client client = fixture.Connect();
  Request shutdown;
  shutdown.command = "shutdown";
  auto acked = client.Call(shutdown, &error);
  ASSERT_TRUE(acked.has_value()) << error;
  EXPECT_TRUE(acked->ok);
  waiter.join();
  EXPECT_TRUE(returned.load());
  fixture.daemon->Stop();
}

}  // namespace
}  // namespace sharpcq
