// Robustness suite (ISSUE 10): fault injection, crash-consistent recovery,
// and resource-budgeted degradation. The crash matrix forks a child per
// storage failpoint site, injects a simulated power cut (_exit, no
// destructors), and asserts the reopened catalog serves the last committed
// generation byte-identically with no partial files left behind. The
// budget tests assert the differential property — a budgeted count either
// matches the unbudgeted answer exactly or refuses with
// kResourceExhausted — and that engines and daemons stay fully usable
// after a refusal.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algebra/table.h"
#include "data/csv.h"
#include "count/enumeration.h"
#include "engine/engine.h"
#include "gen/paper_queries.h"
#include "gen/random_gen.h"
#include "query/parser.h"
#include "server/client.h"
#include "server/daemon.h"
#include "server/protocol.h"
#include "storage/catalog.h"
#include "util/failpoint.h"
#include "util/mem_budget.h"
#include "util/status.h"

namespace sharpcq {
namespace {

std::string MakeScratchDir() {
  std::string tmpl = ::testing::TempDir() + "sharpcq_robust_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const char* dir = ::mkdtemp(buf.data());
  EXPECT_NE(dir, nullptr);
  return dir;
}

std::vector<std::uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (dirent* entry = ::readdir(d)) {
    std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(std::move(name));
  }
  ::closedir(d);
  return names;
}

bool AnyTmpFile(const std::string& dir) {
  for (const std::string& name : ListDir(dir)) {
    if (name.find(".tmp.") != std::string::npos) return true;
  }
  return false;
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

// Every test that arms failpoints scopes them: the suite binary runs many
// tests in one process and the registry is global.
struct ScopedFailpoints {
  ScopedFailpoints() { failpoint::DisarmAll(); }
  ~ScopedFailpoints() { failpoint::DisarmAll(); }
};

ConjunctiveQuery Parse(const std::string& text) {
  std::string error;
  auto q = ParseQuery(text, nullptr, &error);
  EXPECT_TRUE(q.has_value()) << text << ": " << error;
  return *q;
}

Database SmallDatabase() {
  Database db;
  db.AddTuple("r", {1, 2});
  db.AddTuple("r", {2, 3});
  db.AddTuple("r", {3, 1});
  db.AddTuple("s", {1, 10});
  db.AddTuple("s", {2, 20});
  return db;
}

// Big enough that any join over it charges far more than the tiny budgets
// below (one index on r alone is >= 4000 * 40 bytes).
Database BigDatabase() {
  Database db;
  std::mt19937 rng(7);
  std::uniform_int_distribution<Value> value(0, 199);
  for (int i = 0; i < 4000; ++i) db.AddTuple("r", {value(rng), value(rng)});
  db.DedupAll();
  return db;
}

const char kBigQuery[] = "Q(A,B,C) <- r(A,B), r(B,C), r(C,A)";
const char kSmallQuery[] = "Q(X,Z) <- r(X,Y), s(Y,Z)";

// --- failpoint framework -----------------------------------------------------

TEST(FailpointTest, UnarmedSiteIsFreeAndReturnsNone) {
  ScopedFailpoints scoped;
  EXPECT_FALSE(failpoint::AnyArmed());
  EXPECT_EQ(SHARPCQ_FAILPOINT("robust.test.site"), FailpointAction::kNone);
}

TEST(FailpointTest, FiresOnNthHitAndAutoDisarms) {
  ScopedFailpoints scoped;
  failpoint::Trigger trigger;
  trigger.action = FailpointAction::kError;
  trigger.after_hits = 2;  // skip two hits
  trigger.fire_count = 1;  // fire once
  failpoint::Arm("robust.test.nth", trigger);
  EXPECT_TRUE(failpoint::AnyArmed());
  EXPECT_EQ(SHARPCQ_FAILPOINT("robust.test.nth"), FailpointAction::kNone);
  EXPECT_EQ(SHARPCQ_FAILPOINT("robust.test.nth"), FailpointAction::kNone);
  EXPECT_EQ(SHARPCQ_FAILPOINT("robust.test.nth"), FailpointAction::kError);
  EXPECT_EQ(SHARPCQ_FAILPOINT("robust.test.nth"), FailpointAction::kNone);
  EXPECT_EQ(failpoint::HitCount("robust.test.nth"), 4u);
}

TEST(FailpointTest, DisarmStopsFiring) {
  ScopedFailpoints scoped;
  failpoint::Trigger trigger;
  trigger.action = FailpointAction::kError;
  failpoint::Arm("robust.test.disarm", trigger);
  EXPECT_EQ(SHARPCQ_FAILPOINT("robust.test.disarm"), FailpointAction::kError);
  failpoint::Disarm("robust.test.disarm");
  EXPECT_EQ(SHARPCQ_FAILPOINT("robust.test.disarm"), FailpointAction::kNone);
}

TEST(FailpointTest, OtherSitesUnaffectedWhileArmed) {
  ScopedFailpoints scoped;
  failpoint::Trigger trigger;
  trigger.action = FailpointAction::kError;
  failpoint::Arm("robust.test.only", trigger);
  EXPECT_EQ(SHARPCQ_FAILPOINT("robust.test.other"), FailpointAction::kNone);
  EXPECT_EQ(SHARPCQ_FAILPOINT("robust.test.only"), FailpointAction::kError);
}

TEST(FailpointTest, ArmFromSpecParsesGrammar) {
  ScopedFailpoints scoped;
  std::string error;
  ASSERT_TRUE(failpoint::ArmFromSpec(
      "robust.spec.a=error@1x2;robust.spec.b=delay:5ms", &error))
      << error;
  // @1: first hit skipped; x2: fires exactly twice.
  EXPECT_EQ(SHARPCQ_FAILPOINT("robust.spec.a"), FailpointAction::kNone);
  EXPECT_EQ(SHARPCQ_FAILPOINT("robust.spec.a"), FailpointAction::kError);
  EXPECT_EQ(SHARPCQ_FAILPOINT("robust.spec.a"), FailpointAction::kError);
  EXPECT_EQ(SHARPCQ_FAILPOINT("robust.spec.a"), FailpointAction::kNone);
  // kDelay is absorbed inside Hit (sleep, then proceed): callers see kNone.
  EXPECT_EQ(SHARPCQ_FAILPOINT("robust.spec.b"), FailpointAction::kNone);
}

TEST(FailpointTest, MalformedSpecsRejected) {
  ScopedFailpoints scoped;
  std::string error;
  EXPECT_FALSE(failpoint::ArmFromSpec("nosite", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(failpoint::ArmFromSpec("a.b=notanaction", &error));
  EXPECT_FALSE(failpoint::ArmFromSpec("=error", &error));
  EXPECT_FALSE(failpoint::ArmFromSpec("a.b=error@x", &error));
}

// --- memory budget primitive -------------------------------------------------

TEST(MemoryBudgetTest, ChargesAndRefusesAtLimit) {
  MemoryBudget budget(100);
  EXPECT_TRUE(budget.TryCharge(60));
  EXPECT_EQ(budget.used(), 60u);
  EXPECT_FALSE(budget.TryCharge(50));  // would be 110; backed out
  EXPECT_EQ(budget.used(), 60u);
  EXPECT_TRUE(budget.TryCharge(40));
  EXPECT_EQ(budget.used(), 100u);
  budget.Release(100);
  EXPECT_EQ(budget.used(), 0u);
}

TEST(MemoryBudgetTest, UnlimitedBudgetStillCounts) {
  MemoryBudget budget(0);
  EXPECT_TRUE(budget.TryCharge(1ull << 40));
  EXPECT_EQ(budget.used(), 1ull << 40);
  budget.Release(1ull << 40);
  EXPECT_EQ(budget.used(), 0u);
}

// --- crash matrix ------------------------------------------------------------

// One crash-consistency trial: seed generation 1, then fork a child that
// arms `site` with a simulated crash and attempts generation 2. The child
// must die with the failpoint exit code (proving the site actually fired
// mid-ingest); a fresh catalog must then serve generation 1 byte-for-byte
// and leave no temp files behind after recovery.
void RunCrashTrial(const std::string& site) {
  SCOPED_TRACE(site);
  const std::string root = MakeScratchDir();
  std::vector<std::uint8_t> committed_bytes;
  std::string snapshot1;
  {
    Catalog catalog(root);
    Status status;
    auto gen = catalog.Ingest("db", SmallDatabase(), nullptr, &status);
    ASSERT_TRUE(gen.has_value()) << status;
    ASSERT_EQ(*gen, 1u);
    snapshot1 = catalog.SnapshotPath("db", 1);
    committed_bytes = ReadFileBytes(snapshot1);
  }

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: no gtest machinery, no destructors — a power cut in miniature.
    failpoint::Trigger trigger;
    trigger.action = FailpointAction::kCrash;
    failpoint::Arm(site, trigger);
    Catalog catalog(root);
    Database next;
    next.AddTuple("r", {9, 9});
    Status status;
    catalog.Ingest("db", next, nullptr, &status);
    ::_exit(0);  // the failpoint did not fire: the trial is broken
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus)) << "child did not exit cleanly";
  ASSERT_EQ(WEXITSTATUS(wstatus), kFailpointCrashExit)
      << "injected crash at " << site << " never fired";

  // Recovery: a brand-new catalog (fresh caches, as after a real restart).
  Catalog reopened(root);
  Status status;
  auto entry = reopened.Open("db", &status);
  ASSERT_NE(entry, nullptr) << status;
  EXPECT_EQ(entry->generation, 1u);
  EXPECT_EQ(entry->db->TotalTuples(), SmallDatabase().TotalTuples());
  EXPECT_EQ(ReadFileBytes(snapshot1), committed_bytes);
  EXPECT_FALSE(AnyTmpFile(root + "/db"))
      << "partial files survived recovery after crash at " << site;
}

TEST(CrashMatrixTest, TmpOpen) { RunCrashTrial("storage.tmp_open"); }
TEST(CrashMatrixTest, Write) { RunCrashTrial("storage.write"); }
TEST(CrashMatrixTest, Fsync) { RunCrashTrial("storage.fsync"); }
TEST(CrashMatrixTest, Rename) { RunCrashTrial("storage.rename"); }
TEST(CrashMatrixTest, ManifestSwap) { RunCrashTrial("catalog.manifest_swap"); }

// --- stale temp files (the recycled-pid bugfix) ------------------------------

TEST(ScavengeTest, IngestSurvivesPlantedTmpCollision) {
  const std::string root = MakeScratchDir();
  Catalog catalog(root);
  Status status;
  ASSERT_TRUE(
      catalog.Ingest("db", SmallDatabase(), nullptr, &status).has_value())
      << status;

  // The exact temp name the next ingest's writer will want: a crashed
  // earlier incarnation of this very pid. Without scavenging, the O_EXCL
  // open collides and ingest fails forever.
  const std::string dir = root + "/db";
  const std::string collision = catalog.SnapshotPath("db", 2) + ".tmp." +
                                std::to_string(::getpid());
  WriteFileBytes(collision, {0xde, 0xad});
  WriteFileBytes(dir + "/snapshot-9.sharpcq.tmp.12345", {0xbe, 0xef});

  auto gen = catalog.Ingest("db", SmallDatabase(), nullptr, &status);
  ASSERT_TRUE(gen.has_value()) << status;
  EXPECT_EQ(*gen, 2u);
  EXPECT_FALSE(AnyTmpFile(dir));
}

TEST(ScavengeTest, OpenRemovesOrphanedTmpFiles) {
  const std::string root = MakeScratchDir();
  {
    Catalog catalog(root);
    Status status;
    ASSERT_TRUE(
        catalog.Ingest("db", SmallDatabase(), nullptr, &status).has_value())
        << status;
  }
  const std::string dir = root + "/db";
  WriteFileBytes(dir + "/snapshot-2.sharpcq.tmp.4242", {0x00});
  ASSERT_TRUE(AnyTmpFile(dir));

  Catalog reopened(root);
  Status status;
  ASSERT_NE(reopened.Open("db", &status), nullptr) << status;
  EXPECT_FALSE(AnyTmpFile(dir));
}

// --- corruption quarantine and rollback --------------------------------------

TEST(QuarantineTest, CorruptCurrentGenerationRollsBackToOlder) {
  const std::string root = MakeScratchDir();
  std::string snapshot2;
  {
    Catalog catalog(root);
    Status status;
    ASSERT_TRUE(
        catalog.Ingest("db", SmallDatabase(), nullptr, &status).has_value());
    Database next = SmallDatabase();
    next.AddTuple("r", {7, 8});
    ASSERT_TRUE(catalog.Ingest("db", next, nullptr, &status).has_value());
    snapshot2 = catalog.SnapshotPath("db", 2);
  }
  // Flip one byte mid-file: the checksum pass must catch it.
  std::vector<std::uint8_t> bytes = ReadFileBytes(snapshot2);
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() / 2] ^= 0xff;
  WriteFileBytes(snapshot2, bytes);

  Catalog reopened(root);
  Status status;
  auto entry = reopened.Open("db", &status);
  ASSERT_NE(entry, nullptr) << status;
  EXPECT_EQ(entry->generation, 1u);
  EXPECT_EQ(entry->db->TotalTuples(), SmallDatabase().TotalTuples());

  // The evidence moved to corrupt/ (never served again), and the manifest
  // rolled back so a third catalog pays no re-verification of gen 2.
  EXPECT_FALSE(FileExists(snapshot2));
  EXPECT_TRUE(FileExists(root + "/db/corrupt/snapshot-000002.sharpcq"));
  Catalog third(root);
  auto current = third.CurrentGeneration("db", &status);
  ASSERT_TRUE(current.has_value()) << status;
  EXPECT_EQ(*current, 1u);
}

TEST(QuarantineTest, AllGenerationsCorruptFailsWithCorruptData) {
  const std::string root = MakeScratchDir();
  std::string snapshot1;
  {
    Catalog catalog(root);
    Status status;
    ASSERT_TRUE(
        catalog.Ingest("db", SmallDatabase(), nullptr, &status).has_value());
    snapshot1 = catalog.SnapshotPath("db", 1);
  }
  std::vector<std::uint8_t> bytes = ReadFileBytes(snapshot1);
  bytes[bytes.size() / 2] ^= 0xff;
  WriteFileBytes(snapshot1, bytes);

  Catalog reopened(root);
  Status status;
  EXPECT_EQ(reopened.Open("db", &status), nullptr);
  EXPECT_EQ(status.code(), StatusCode::kCorruptData) << status;
}

// --- injected I/O errors -----------------------------------------------------

TEST(InjectedIoTest, ShortWriteNeverCommitsAndIngestRecovers) {
  ScopedFailpoints scoped;
  const std::string root = MakeScratchDir();
  Catalog catalog(root);
  Status status;
  ASSERT_TRUE(
      catalog.Ingest("db", SmallDatabase(), nullptr, &status).has_value());

  failpoint::Trigger trigger;
  trigger.action = FailpointAction::kShortWrite;
  trigger.fire_count = 1;
  failpoint::Arm("storage.write", trigger);
  EXPECT_FALSE(
      catalog.Ingest("db", SmallDatabase(), nullptr, &status).has_value());
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status;
  // The torn prefix never crossed the rename barrier.
  EXPECT_FALSE(FileExists(catalog.SnapshotPath("db", 2)));

  // The same catalog object ingests fine once the fault clears.
  failpoint::DisarmAll();
  auto gen = catalog.Ingest("db", SmallDatabase(), nullptr, &status);
  ASSERT_TRUE(gen.has_value()) << status;
  auto entry = catalog.Open("db", &status);
  ASSERT_NE(entry, nullptr) << status;
  EXPECT_EQ(entry->generation, *gen);
}

TEST(InjectedIoTest, FsyncFailureSurfacesAsIoError) {
  ScopedFailpoints scoped;
  const std::string root = MakeScratchDir();
  Catalog catalog(root);
  failpoint::Trigger trigger;
  trigger.action = FailpointAction::kError;
  trigger.fire_count = 1;
  failpoint::Arm("storage.fsync", trigger);
  Status status;
  EXPECT_FALSE(
      catalog.Ingest("db", SmallDatabase(), nullptr, &status).has_value());
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status;
}

TEST(InjectedIoTest, CsvRowFaultFailsTheLoad) {
  ScopedFailpoints scoped;
  failpoint::Trigger trigger;
  trigger.action = FailpointAction::kError;
  failpoint::Arm("csv.row", trigger);
  std::istringstream in("1,2\n3,4\n");
  Database db;
  CsvResult result = LoadRelationCsv(in, "r", &db);
  EXPECT_EQ(result.status, CsvStatus::kIoError) << result.message;
}

// --- memory-budget differential ----------------------------------------------

TEST(MemoryBudgetEngineTest, GenerousBudgetMatchesUnbudgetedCount) {
  const Database db = BigDatabase();
  const ConjunctiveQuery q = Parse(kBigQuery);
  CountingEngine unbudgeted;
  const CountResult expected = unbudgeted.Count(q, db);
  ASSERT_TRUE(expected.ok());

  EngineOptions options;
  options.max_query_bytes = 1ull << 30;
  CountingEngine budgeted(options);
  const CountResult result = budgeted.Count(q, db);
  ASSERT_TRUE(result.ok()) << CountStatusName(result.status);
  EXPECT_EQ(result.count, expected.count);
  EXPECT_GT(result.mem_charged_bytes, 0u);
  EXPECT_LT(result.mem_charged_bytes, options.max_query_bytes);
}

TEST(MemoryBudgetEngineTest, TinyBudgetRefusesAndEngineStaysUsable) {
  const Database big = BigDatabase();
  EngineOptions options;
  options.max_query_bytes = 8192;
  CountingEngine engine(options);

  const CountResult refused = engine.Count(Parse(kBigQuery), big);
  EXPECT_EQ(refused.status, CountStatus::kResourceExhausted);
  EXPECT_GT(refused.mem_refused_bytes, 0u);
  EXPECT_GT(refused.execute_ms, 0.0);  // the refused execution still ran

  // Same engine, a query that fits: full service continues.
  const Database small = SmallDatabase();
  const CountResult ok = engine.Count(Parse(kSmallQuery), small);
  ASSERT_TRUE(ok.ok()) << CountStatusName(ok.status);
  EXPECT_EQ(ok.count, CountInt{2});  // (1,20) and (3,10)

  // And the big query still refuses deterministically.
  EXPECT_EQ(engine.Count(Parse(kBigQuery), big).status,
            CountStatus::kResourceExhausted);
}

TEST(MemoryBudgetEngineTest, WidthTwoWorkforceCountFitsInOneMebibyte) {
  // Q0 over the workforce instance with every size x15. Its bag {B,D,H}
  // is guarded by rr(G,H) and wt(B,D), which share no variable: joining
  // the guards whole built a 450 x 300 cross product and was refused
  // below 16 MiB. Bags built with projection-pushed joins stay small.
  Q0DatabaseParams p;
  const int f = 15;
  p.machines *= f, p.workers *= f, p.tasks *= f, p.projects *= f;
  p.subtasks *= f, p.resources *= f, p.mw_tuples *= f, p.wt_tuples *= f;
  p.pt_tuples *= f, p.st_tuples *= f, p.rr_tuples *= f;
  const Database db = MakeQ0Database(p);
  const ConjunctiveQuery q = MakeQ0();

  EngineOptions options;
  options.max_query_bytes = std::uint64_t{1} << 20;
  CountingEngine engine(options);
  const CountResult result = engine.Count(q, db);
  ASSERT_TRUE(result.ok()) << CountStatusName(result.status);
  EXPECT_EQ(result.method, "#-hypertree(k=2)");
  EXPECT_EQ(result.count, CountInt{75});
  EXPECT_EQ(result.count, CountByBacktracking(q, db));
}

TEST(MemoryBudgetEngineTest, ProcessBudgetDrainsToZeroAfterEachCount) {
  EngineOptions options;
  options.total_budget = std::make_shared<MemoryBudget>(1ull << 30);
  CountingEngine engine(options);
  const Database db = BigDatabase();
  const CountResult result = engine.Count(Parse(kBigQuery), db);
  ASSERT_TRUE(result.ok()) << CountStatusName(result.status);
  EXPECT_EQ(options.total_budget->used(), 0u)
      << "execution ended without releasing its process-budget charges";
  // A refused run drains too (the partial charges back out on unwind).
  EngineOptions tight;
  tight.total_budget = std::make_shared<MemoryBudget>(8192);
  CountingEngine tight_engine(tight);
  EXPECT_EQ(tight_engine.Count(Parse(kBigQuery), db).status,
            CountStatus::kResourceExhausted);
  EXPECT_EQ(tight.total_budget->used(), 0u);
}

TEST(MemoryBudgetEngineTest, InjectedIndexBuildFailureIsResourceExhausted) {
  ScopedFailpoints scoped;
  failpoint::Trigger trigger;
  trigger.action = FailpointAction::kError;
  trigger.fire_count = 1;
  failpoint::Arm("index.build", trigger);
  CountingEngine engine;
  const CountResult result = engine.Count(Parse(kSmallQuery), SmallDatabase());
  EXPECT_EQ(result.status, CountStatus::kResourceExhausted);
  failpoint::DisarmAll();
  EXPECT_TRUE(engine.Count(Parse(kSmallQuery), SmallDatabase()).ok());
}

// --- daemon budgets ----------------------------------------------------------

void SeedDaemonCatalog(const std::string& root) {
  Catalog catalog(root);
  Status status;
  ASSERT_TRUE(
      catalog.Ingest("demo", SmallDatabase(), nullptr, &status).has_value())
      << status;
  ASSERT_TRUE(
      catalog.Ingest("big", BigDatabase(), nullptr, &status).has_value())
      << status;
}

struct DaemonFixture {
  explicit DaemonFixture(DaemonOptions options = {}) {
    options.catalog_root = MakeScratchDir();
    SeedDaemonCatalog(options.catalog_root);
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

TEST(DaemonBudgetTest, OverBudgetCountRefusedWhileDaemonKeepsServing) {
  DaemonOptions options;
  options.max_query_bytes = 8192;
  DaemonFixture fixture(options);
  Client client = fixture.Connect();
  std::string error;

  auto refused = client.Call(CountRequest("big", kBigQuery), &error);
  ASSERT_TRUE(refused.has_value()) << error;
  EXPECT_FALSE(refused->ok);
  EXPECT_EQ(refused->code, wire::kResourceExhausted) << refused->message;

  // The same connection immediately serves a query that fits the budget.
  auto served = client.Call(CountRequest("demo", kSmallQuery), &error);
  ASSERT_TRUE(served.has_value()) << error;
  ASSERT_TRUE(served->ok) << served->code << " " << served->message;
  EXPECT_EQ(*served->Field("count"), "2");

  Request status_request;
  status_request.command = "status";
  auto status = client.Call(status_request, &error);
  ASSERT_TRUE(status.has_value()) << error;
  ASSERT_TRUE(status->ok);
  EXPECT_EQ(*status->Field("resource_exhausted"), "1");
  EXPECT_EQ(*status->Field("max_query_bytes"), "8192");
}

TEST(DaemonBudgetTest, SharedTotalBudgetRefusesAndReportsInflight) {
  DaemonOptions options;
  options.max_total_bytes = 8192;
  DaemonFixture fixture(options);
  Client client = fixture.Connect();
  std::string error;

  auto refused = client.Call(CountRequest("big", kBigQuery), &error);
  ASSERT_TRUE(refused.has_value()) << error;
  EXPECT_EQ(refused->code, wire::kResourceExhausted) << refused->message;

  Request status_request;
  status_request.command = "status";
  auto status = client.Call(status_request, &error);
  ASSERT_TRUE(status.has_value()) << error;
  EXPECT_EQ(*status->Field("max_total_bytes"), "8192");
  // Nothing in flight now: the refused execution backed its charges out.
  EXPECT_EQ(*status->Field("mem_inflight_bytes"), "0");
}

TEST(DaemonFailpointTest, InjectedRecvFaultDropsOneConnectionOnly) {
  ScopedFailpoints scoped;
  DaemonFixture fixture;
  Client doomed = fixture.Connect();
  failpoint::Trigger trigger;
  trigger.action = FailpointAction::kError;
  trigger.fire_count = 1;
  failpoint::Arm("daemon.recv", trigger);
  std::string error;
  EXPECT_FALSE(
      doomed.Call(CountRequest("demo", kSmallQuery), &error).has_value());
  failpoint::DisarmAll();

  Client healthy = fixture.Connect();
  auto served = healthy.Call(CountRequest("demo", kSmallQuery), &error);
  ASSERT_TRUE(served.has_value()) << error;
  EXPECT_TRUE(served->ok) << served->code;
}

// --- client retries ----------------------------------------------------------

TEST(ClientRetryTest, RetrySafeCommandsAreExactlyTheReadOnlyOnes) {
  EXPECT_TRUE(IsRetrySafeCommand("count"));
  EXPECT_TRUE(IsRetrySafeCommand("status"));
  EXPECT_TRUE(IsRetrySafeCommand("inspect"));
  EXPECT_TRUE(IsRetrySafeCommand("metrics"));
  EXPECT_FALSE(IsRetrySafeCommand("ingest"));
  EXPECT_FALSE(IsRetrySafeCommand("shutdown"));
}

// A scriptable fake peer: binds an ephemeral loopback port and runs
// `serve` on each accepted connection until destruction.
struct FakeServer {
  explicit FakeServer(std::function<void(int fd)> serve) {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd, 8), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    port = ntohs(addr.sin_port);
    thread = std::thread([this, serve = std::move(serve)] {
      for (;;) {
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) return;
        serve(fd);
        ::close(fd);
      }
    });
  }
  ~FakeServer() {
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
    if (thread.joinable()) thread.join();
  }

  int listen_fd = -1;
  int port = 0;
  std::thread thread;
};

RetryPolicy FastRetry(int attempts) {
  RetryPolicy policy;
  policy.max_attempts = attempts;
  policy.initial_backoff = std::chrono::milliseconds(1);
  return policy;
}

TEST(ClientRetryTest, OverloadedResponseRetriesUntilSuccess) {
  // First request on each connection gets OVERLOADED, the second succeeds.
  FakeServer server([](int fd) {
    std::string payload;
    std::string error;
    if (RecvFrame(fd, kDefaultMaxFrameBytes, &payload, &error) !=
        FrameStatus::kOk) {
      return;
    }
    SendFrame(fd, SerializeResponse(ErrorResponse(wire::kOverloaded, "busy")),
              &error);
    if (RecvFrame(fd, kDefaultMaxFrameBytes, &payload, &error) !=
        FrameStatus::kOk) {
      return;
    }
    SendFrame(fd, SerializeResponse(OkResponse()), &error);
  });

  Client client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port, &error)) << error;
  int attempts = 0;
  auto response = client.CallWithRetry(CountRequest("demo", kSmallQuery),
                                       FastRetry(3), &error, &attempts);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_TRUE(response->ok);
  EXPECT_EQ(attempts, 2);
}

TEST(ClientRetryTest, ConnectRefusedRetriesEvenForIngestThenGivesUp) {
  // Grab an ephemeral port, then close it: connects are refused, so the
  // request is provably never delivered and even ingest may retry.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int dead_port = ntohs(addr.sin_port);
  ::close(probe);

  Client client;
  std::string error;
  EXPECT_FALSE(client.Connect("127.0.0.1", dead_port, &error));
  Request ingest;
  ingest.command = "ingest";
  int attempts = 0;
  auto response =
      client.CallWithRetry(ingest, FastRetry(3), &error, &attempts);
  EXPECT_FALSE(response.has_value());
  EXPECT_EQ(attempts, 3);
  EXPECT_FALSE(error.empty());
}

TEST(ClientRetryTest, MidCallFailureRetriesCountButNeverIngest) {
  // The server reads each request and drops the connection unanswered: the
  // outcome is ambiguous from the client's side.
  FakeServer server([](int fd) {
    std::string payload;
    std::string error;
    RecvFrame(fd, kDefaultMaxFrameBytes, &payload, &error);
  });

  Client client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port, &error)) << error;
  Request ingest;
  ingest.command = "ingest";
  int attempts = 0;
  EXPECT_FALSE(
      client.CallWithRetry(ingest, FastRetry(3), &error, &attempts)
          .has_value());
  EXPECT_EQ(attempts, 1) << "ingest must not be re-sent after an ambiguous "
                            "failure";

  ASSERT_TRUE(client.Connect("127.0.0.1", server.port, &error)) << error;
  attempts = 0;
  EXPECT_FALSE(client
                   .CallWithRetry(CountRequest("demo", kSmallQuery),
                                  FastRetry(3), &error, &attempts)
                   .has_value());
  EXPECT_EQ(attempts, 3) << "read-only commands retry to exhaustion";
}

TEST(ClientRetryTest, RetryAgainstRealDaemonAfterInjectedDrop) {
  ScopedFailpoints scoped;
  DaemonFixture fixture;
  // The daemon drops exactly one request read; the retry succeeds. Armed
  // before connecting: the connection thread checks the failpoint before
  // it blocks in recv, so arming later could miss the first request.
  failpoint::Trigger trigger;
  trigger.action = FailpointAction::kError;
  trigger.fire_count = 1;
  failpoint::Arm("daemon.recv", trigger);
  Client client = fixture.Connect();
  std::string error;
  int attempts = 0;
  auto response = client.CallWithRetry(CountRequest("demo", kSmallQuery),
                                       FastRetry(3), &error, &attempts);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_TRUE(response->ok) << response->code;
  EXPECT_EQ(*response->Field("count"), "2");
  EXPECT_GE(attempts, 2);
}

}  // namespace
}  // namespace sharpcq
