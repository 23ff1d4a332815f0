// The storage subsystem (ISSUE 4): snapshot round-trips must preserve
// counts under every strategy and both load modes, corruption must fail
// loudly (never UB — this suite runs under ASan in CI), writes must be
// byte-deterministic, and the catalog must swap generations atomically
// while keeping the per-database plan cache warm.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algebra/stats.h"
#include "algebra/table.h"
#include "count/enumeration.h"
#include "data/csv.h"
#include "engine/engine.h"
#include "gen/paper_queries.h"
#include "gen/random_gen.h"
#include "query/atom_relation.h"
#include "query/parser.h"
#include "storage/catalog.h"
#include "storage/mem_map.h"
#include "storage/snapshot.h"
#include "tests/test_util.h"
#include "util/trace.h"

namespace sharpcq {
namespace {

// A fresh scratch directory per test; contents are left for inspection on
// failure (the OS tmpdir reaper collects them).
std::string MakeScratchDir() {
  std::string tmpl = ::testing::TempDir() + "sharpcq_storage_XXXXXX";
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

// --- round-trip property test ----------------------------------------------

TEST(SnapshotRoundTripTest, RandomInstancesAgreeUnderEveryStrategy) {
  const std::string dir = MakeScratchDir();
  CountingEngine engine;
  const char* kStrategies[] = {"auto", "sharp", "ps13", "hybrid",
                               "backtracking"};
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 110; ++seed) {
    RandomQueryParams qp;
    qp.num_vars = 4 + static_cast<int>(seed % 3);
    qp.num_atoms = 3 + static_cast<int>(seed % 3);
    qp.max_arity = 2 + static_cast<int>(seed % 2);
    qp.num_free = 1 + static_cast<int>(seed % 3);
    qp.num_relations = 2 + static_cast<int>(seed % 3);
    qp.force_acyclic = (seed % 2 == 0);
    qp.seed = seed;
    ConjunctiveQuery q = MakeRandomQuery(qp);
    RandomDatabaseParams dp;
    dp.domain = 3;
    dp.tuples_per_relation = 8 + static_cast<int>(seed % 5);
    dp.seed = seed * 0x9e3779b97f4a7c15ULL + 1;
    Database db = MakeRandomDatabase(q, dp);

    const CountInt expected = engine.Count(q, db).count;

    const std::string path = dir + "/rt_" + std::to_string(seed) + ".sharpcq";
    Status error;
    auto stats = WriteSnapshot(db, nullptr, path, &error);
    ASSERT_TRUE(stats.has_value()) << error;

    auto owned = LoadSnapshot(path, SnapshotLoadMode::kOwned, &error);
    ASSERT_TRUE(owned.has_value()) << "seed " << seed << ": " << error;
    auto mapped = LoadSnapshot(path, SnapshotLoadMode::kMapped, &error);
    ASSERT_TRUE(mapped.has_value()) << "seed " << seed << ": " << error;

    EXPECT_EQ(owned->db.TotalTuples(), mapped->db.TotalTuples());

    EXPECT_EQ(engine.Count(q, owned->db).count, expected) << "seed " << seed;
    for (const char* strategy : kStrategies) {
      auto options =
          PlannerOptionsForStrategy(strategy, engine.options().planner);
      ASSERT_TRUE(options.has_value());
      CountResult result = engine.Count(q, mapped->db, *options);
      EXPECT_EQ(result.count, expected)
          << "seed " << seed << " strategy " << strategy << " via "
          << result.method;
    }
    ++checked;
  }
  EXPECT_GE(checked, 100);
}

// --- determinism -----------------------------------------------------------

TEST(SnapshotWriterTest, ByteStableAcrossInsertionOrders) {
  const std::string dir = MakeScratchDir();
  Database forward;
  Database shuffled;
  // Same logical database, different relation and row insertion orders
  // (plus a duplicate row the writer must collapse).
  forward.AddTuple("r", {1, 2});
  forward.AddTuple("r", {3, 4});
  forward.AddTuple("s", {7});
  shuffled.AddTuple("s", {7});
  shuffled.AddTuple("r", {3, 4});
  shuffled.AddTuple("r", {1, 2});
  shuffled.AddTuple("r", {3, 4});

  Status error;
  ASSERT_TRUE(
      WriteSnapshot(forward, nullptr, dir + "/a.sharpcq", &error).has_value())
      << error;
  ASSERT_TRUE(
      WriteSnapshot(shuffled, nullptr, dir + "/b.sharpcq", &error).has_value())
      << error;
  EXPECT_EQ(ReadFileBytes(dir + "/a.sharpcq"),
            ReadFileBytes(dir + "/b.sharpcq"));
}

TEST(SnapshotWriterTest, V2FilesAreByteDeterministic) {
  // The stats section aggregates through a hash map; the bytes must still
  // be independent of iteration order (aggregates, not sequences).
  const std::string dir = MakeScratchDir();
  Status error;
  for (int trial = 0; trial < 2; ++trial) {
    Database db;
    for (int i = 0; i < 64; ++i) {
      db.AddTuple("e", {(i * 7) % 16, i});
      db.AddTuple("f", {i % 4});
    }
    ASSERT_TRUE(WriteSnapshot(db, nullptr,
                              dir + "/t" + std::to_string(trial) + ".sharpcq",
                              &error)
                    .has_value())
        << error;
  }
  EXPECT_EQ(ReadFileBytes(dir + "/t0.sharpcq"),
            ReadFileBytes(dir + "/t1.sharpcq"));
}

TEST(SnapshotWriterTest, SortedRelationNamesIsSortedAndComplete) {
  Database db;
  db.AddTuple("zeta", {1});
  db.AddTuple("alpha", {2});
  db.AddTuple("mid", {3});
  EXPECT_EQ(db.SortedRelationNames(),
            (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

// --- dictionary round trip -------------------------------------------------

TEST(SnapshotRoundTripTest, ValueDictSurvives) {
  const std::string dir = MakeScratchDir();
  const std::string path = dir + "/dict.sharpcq";
  Database db;
  ValueDict dict;
  db.AddTuple("works_on", {dict.Intern("alice"), dict.Intern("project_x")});
  db.AddTuple("works_on", {dict.Intern("bob"), dict.Intern("project_x")});

  Status error;
  ASSERT_TRUE(WriteSnapshot(db, &dict, path, &error).has_value()) << error;
  auto loaded = LoadSnapshot(path, SnapshotLoadMode::kMapped, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->dict.size(), dict.size());
  ASSERT_TRUE(loaded->dict.Find("alice").has_value());
  EXPECT_EQ(*loaded->dict.Find("alice"), *dict.Find("alice"));
  EXPECT_EQ(loaded->dict.NameOf(*dict.Find("project_x")), "project_x");

  // Counting through the reloaded dictionary: who works on project_x?
  auto q = ParseQuery("Q(W) <- works_on(W, 'project_x')", &loaded->dict);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(CountingEngine().Count(*q, loaded->db).count, CountInt{2});
}

// --- zero-copy contract ----------------------------------------------------

TEST(SnapshotMappedTest, TablesAliasTheMappingAndAtomBridgeStaysZeroCopy) {
  const std::string dir = MakeScratchDir();
  const std::string path = dir + "/zc.sharpcq";
  Database db;
  for (int i = 0; i < 16; ++i) {
    db.AddTuple("e", {i, (i + 1) % 16});
  }
  Status error;
  ASSERT_TRUE(WriteSnapshot(db, nullptr, path, &error).has_value()) << error;
  auto loaded = LoadSnapshot(path, SnapshotLoadMode::kMapped, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  std::shared_ptr<const Table> backing = loaded->db.ColumnarBacking("e");
  ASSERT_NE(backing, nullptr);
  EXPECT_TRUE(backing->is_external());
  EXPECT_EQ(backing->rows(), 16u);

  // A plain atom over the mapped relation aliases the same buffers: the
  // bridge does not copy tuple data, only permutes column views.
  auto q = ParseQuery("Q(X,Y) <- e(X,Y)");
  ASSERT_TRUE(q.has_value());
  Rel rel = AtomToRel(q->atoms()[0], loaded->db);
  EXPECT_TRUE(rel.table()->is_external());
  EXPECT_EQ(rel.table()->Column(0).data(), backing->Column(0).data());

  // A constrained atom (repeated variable) must filter, not alias.
  auto loops = ParseQuery("L(X) <- e(X,X)");
  ASSERT_TRUE(loops.has_value());
  Rel loop_rel = AtomToRel(loops->atoms()[0], loaded->db);
  EXPECT_EQ(loop_rel.size(), 0u);
}

TEST(SnapshotMappedTest, MappingOutlivesTheLoadedDatabase) {
  const std::string dir = MakeScratchDir();
  const std::string path = dir + "/lifetime.sharpcq";
  Database db;
  db.AddTuple("e", {1, 2});
  db.AddTuple("e", {2, 3});
  Status error;
  ASSERT_TRUE(WriteSnapshot(db, nullptr, path, &error).has_value()) << error;

  // Keep only a table handle; the LoadedSnapshot (and its Database) die.
  std::shared_ptr<const Table> survivor;
  {
    auto loaded = LoadSnapshot(path, SnapshotLoadMode::kMapped, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    survivor = loaded->db.ColumnarBacking("e");
  }
  // The arena shared_ptr keeps the mapping alive: reads stay valid (ASan
  // would flag a use-after-munmap here).
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ(survivor->rows(), 2u);
  EXPECT_EQ(survivor->at(0, 0) + survivor->at(1, 0), 3);
}

// --- lazy materialization --------------------------------------------------

TEST(ColumnarDatabaseTest, LazyMaterializationMatchesBacking) {
  const std::string dir = MakeScratchDir();
  const std::string path = dir + "/mat.sharpcq";
  Database db;
  db.AddTuple("r", {5, 6});
  db.AddTuple("r", {1, 2});
  Status error;
  ASSERT_TRUE(WriteSnapshot(db, nullptr, path, &error).has_value()) << error;
  auto loaded = LoadSnapshot(path, SnapshotLoadMode::kMapped, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  // relation() materializes a row-major copy of the mapped columns.
  const Relation& rel = loaded->db.relation("r");
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_TRUE(rel.ContainsRow(std::vector<Value>{5, 6}));
  EXPECT_EQ(loaded->db.TotalTuples(), 2u);  // not double counted

  // Mutable access drops the columnar backing so the two forms cannot
  // diverge.
  loaded->db.AddTuple("r", {9, 9});
  EXPECT_EQ(loaded->db.ColumnarBacking("r"), nullptr);
  EXPECT_EQ(loaded->db.relation("r").size(), 3u);
  EXPECT_EQ(loaded->db.TotalTuples(), 3u);
}

TEST(ColumnarDatabaseTest, ConcurrentCountsAndMaterializationAreSafe) {
  // A mapped database under concurrent batch counting plus direct
  // relation() materialization from several threads: the sanitizer CI jobs
  // run this suite, so a race in the lazy-materialization path would trip
  // TSan here.
  const std::string dir = MakeScratchDir();
  const std::string path = dir + "/conc.sharpcq";
  Database source;
  for (int i = 0; i < 64; ++i) {
    source.AddTuple("e", {i % 8, (i * 3) % 8});
    source.AddTuple("f", {(i * 5) % 8, i % 8});
  }
  Status error;
  ASSERT_TRUE(WriteSnapshot(source, nullptr, path, &error).has_value())
      << error;
  auto loaded = LoadSnapshot(path, SnapshotLoadMode::kMapped, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  auto q = ParseQuery("Q(X,Z) <- e(X,Y), f(Y,Z)");
  ASSERT_TRUE(q.has_value());
  EngineOptions options;
  options.batch_threads = 4;
  CountingEngine engine(options);
  const CountInt expected = engine.Count(*q, loaded->db).count;

  std::vector<CountJob> jobs(16, CountJob{*q, &loaded->db});
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&loaded, t] {
      const Relation& rel = loaded->db.relation(t % 2 == 0 ? "e" : "f");
      EXPECT_GT(rel.size(), 0u);
    });
  }
  std::vector<CountResult> results = engine.CountBatch(jobs);
  for (std::thread& reader : readers) reader.join();
  for (const CountResult& result : results) {
    EXPECT_EQ(result.count, expected);
  }
}

// --- corruption ------------------------------------------------------------

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeScratchDir();
    path_ = dir_ + "/victim.sharpcq";
    Database db;
    for (int i = 0; i < 32; ++i) db.AddTuple("e", {i, i * 7 % 13});
    Status error;
    ASSERT_TRUE(WriteSnapshot(db, nullptr, path_, &error).has_value())
        << error;
    pristine_ = ReadFileBytes(path_);
    ASSERT_GT(pristine_.size(), kSnapshotHeaderBytes);
  }

  // Both load modes and the verifier must reject the current file.
  void ExpectRejected(const std::string& label) {
    Status error;
    EXPECT_FALSE(
        LoadSnapshot(path_, SnapshotLoadMode::kOwned, &error).has_value())
        << label;
    EXPECT_FALSE(error.ok()) << label;
    EXPECT_FALSE(VerifySnapshot(path_, &error)) << label;
  }

  std::string dir_;
  std::string path_;
  std::vector<std::uint8_t> pristine_;
};

TEST_F(SnapshotCorruptionTest, BadMagic) {
  auto bytes = pristine_;
  bytes[0] ^= 0xff;
  WriteFileBytes(path_, bytes);
  Status error;
  EXPECT_FALSE(ReadSnapshotInfo(path_, &error).has_value());
  EXPECT_NE(error.message().find("magic"), std::string::npos);
  ExpectRejected("bad magic");
}

TEST_F(SnapshotCorruptionTest, TruncatedAtEveryQuarter) {
  for (std::size_t denom = 1; denom <= 4; ++denom) {
    auto bytes = pristine_;
    bytes.resize(bytes.size() * (denom - 1) / denom + denom);  // incl. tiny
    WriteFileBytes(path_, bytes);
    ExpectRejected("truncated to " + std::to_string(bytes.size()));
  }
}

TEST_F(SnapshotCorruptionTest, FlippedHeaderByte) {
  auto bytes = pristine_;
  bytes[0x10] ^= 0x01;  // relation count field
  WriteFileBytes(path_, bytes);
  ExpectRejected("flipped header byte");
}

TEST_F(SnapshotCorruptionTest, FlippedTocChecksumByte) {
  // The toc records per-column checksums; flipping one of those bytes must
  // be caught by the toc section checksum.
  auto bytes = pristine_;
  bytes[kSnapshotHeaderBytes + 4 + 4 + 8 + 8] ^= 0x40;  // first col checksum
  WriteFileBytes(path_, bytes);
  ExpectRejected("flipped toc checksum byte");
}

TEST_F(SnapshotCorruptionTest, FlippedDataByteFailsOwnedLoadAndVerify) {
  auto bytes = pristine_;
  bytes[bytes.size() - 3] ^= 0x08;  // inside the last column segment
  WriteFileBytes(path_, bytes);
  Status error;
  EXPECT_FALSE(
      LoadSnapshot(path_, SnapshotLoadMode::kOwned, &error).has_value());
  EXPECT_NE(error.message().find("checksum"), std::string::npos);
  EXPECT_FALSE(VerifySnapshot(path_, &error));
  // Mapped mode defers data validation to VerifySnapshot by design (O(header)
  // loads); the front matter is intact, so the load itself succeeds.
  EXPECT_TRUE(
      LoadSnapshot(path_, SnapshotLoadMode::kMapped, &error).has_value());
}

TEST_F(SnapshotCorruptionTest, EmptyAndGarbageFiles) {
  WriteFileBytes(path_, {});
  ExpectRejected("empty file");
  WriteFileBytes(path_, {'h', 'e', 'l', 'l', 'o'});
  ExpectRejected("short garbage");
  std::vector<std::uint8_t> big(4096, 0xab);
  WriteFileBytes(path_, big);
  ExpectRejected("big garbage");
}

TEST_F(SnapshotCorruptionTest, FlippedStatsSectionByte) {
  // stats_offset lives at header offset 0x60 in v2 files; flipping a byte
  // inside the stats section must be caught by the stats checksum, not
  // silently mis-steer the cost model.
  std::uint64_t stats_offset = 0;
  for (int i = 0; i < 8; ++i) {
    stats_offset |= static_cast<std::uint64_t>(pristine_[0x60 + i]) << (8 * i);
  }
  ASSERT_GT(stats_offset, 0u);
  ASSERT_LT(stats_offset, pristine_.size());
  auto bytes = pristine_;
  bytes[stats_offset] ^= 0x04;  // first column's distinct count
  WriteFileBytes(path_, bytes);
  Status error;
  EXPECT_FALSE(ReadSnapshotInfo(path_, &error).has_value());
  EXPECT_NE(error.message().find("stats"), std::string::npos) << error;
  ExpectRejected("flipped stats byte");
}

TEST_F(SnapshotCorruptionTest, UnsupportedFutureVersionIsRejected) {
  auto bytes = pristine_;
  bytes[0x08] = 3;  // version field: a format this reader does not know
  WriteFileBytes(path_, bytes);
  Status error;
  EXPECT_FALSE(ReadSnapshotInfo(path_, &error).has_value());
  EXPECT_NE(error.message().find("unsupported snapshot version"), std::string::npos)
      << error;
  ExpectRejected("future version");
}

// --- v1 backward compatibility ---------------------------------------------

TEST(SnapshotV1CompatTest, V1FilesLoadWithLazyStatsInBothModes) {
  // Old-format snapshots (no stats section) must keep loading; their
  // tables simply have no persisted stats, and the cost model computes
  // them lazily on first use.
  const std::string dir = MakeScratchDir();
  const std::string path = dir + "/v1.sharpcq";
  Database db;
  for (int i = 0; i < 24; ++i) db.AddTuple("e", {i % 6, i});
  SnapshotWriter writer;
  writer.AddDatabase(db);
  writer.set_format_version(kSnapshotVersionV1);
  Status error;
  ASSERT_TRUE(writer.Finish(path, nullptr, &error).has_value()) << error;

  auto info = ReadSnapshotInfo(path, &error);
  ASSERT_TRUE(info.has_value()) << error;
  EXPECT_EQ(info->version, kSnapshotVersionV1);
  ASSERT_EQ(info->relations.size(), 1u);
  EXPECT_TRUE(info->relations[0].stats.empty());
  EXPECT_TRUE(VerifySnapshot(path, &error)) << error;

  auto q = ParseQuery("Q(X) <- e(X,Y), e(X,Z)");
  ASSERT_TRUE(q.has_value());
  CountingEngine engine;
  const CountInt expected = engine.Count(*q, db).count;
  for (SnapshotLoadMode mode :
       {SnapshotLoadMode::kOwned, SnapshotLoadMode::kMapped}) {
    auto loaded = LoadSnapshot(path, mode, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    auto backing = loaded->db.ColumnarBacking("e");
    ASSERT_NE(backing, nullptr);
    // Nothing installed at load time; Stats() computes on demand and the
    // result matches a v2 writer's persisted section.
    EXPECT_EQ(backing->StatsIfPresent(), nullptr);
    // The engine (cost model on by default) still counts correctly.
    EXPECT_EQ(engine.Count(*q, loaded->db).count, expected);
    auto lazy = backing->Stats();
    ASSERT_NE(lazy, nullptr);
    EXPECT_EQ(*lazy, ComputeTableStats(*backing));
    EXPECT_EQ(lazy->columns[0].distinct, 6u);
  }
}

TEST(SnapshotV1CompatTest, V1AndV2CarryIdenticalDataSections) {
  // The stats section is purely additive: the dict, toc layout, and tuple
  // data of a v2 file are the same bytes a v1 writer emits, just shifted
  // by the stats extent — so both versions load identical databases.
  const std::string dir = MakeScratchDir();
  Database db;
  ValueDict dict;
  db.AddTuple("works", {dict.Intern("ann"), dict.Intern("rome")});
  db.AddTuple("works", {dict.Intern("bo"), dict.Intern("oslo")});
  Status error;
  SnapshotWriter v1;
  v1.AddDatabase(db);
  v1.set_format_version(kSnapshotVersionV1);
  ASSERT_TRUE(v1.Finish(dir + "/v1.sharpcq", &dict, &error).has_value())
      << error;
  SnapshotWriter v2;
  v2.AddDatabase(db);
  ASSERT_TRUE(v2.Finish(dir + "/v2.sharpcq", &dict, &error).has_value())
      << error;

  auto a = LoadSnapshot(dir + "/v1.sharpcq", SnapshotLoadMode::kOwned, &error);
  ASSERT_TRUE(a.has_value()) << error;
  auto b = LoadSnapshot(dir + "/v2.sharpcq", SnapshotLoadMode::kMapped, &error);
  ASSERT_TRUE(b.has_value()) << error;
  EXPECT_EQ(a->db.TotalTuples(), b->db.TotalTuples());
  EXPECT_EQ(a->dict.size(), b->dict.size());
  auto q = ParseQuery("Q(W) <- works(W, 'rome')", &a->dict);
  ASSERT_TRUE(q.has_value());
  CountingEngine engine;
  EXPECT_EQ(engine.Count(*q, a->db).count, engine.Count(*q, b->db).count);
  // And the profiles agree — one persisted, one computed lazily.
  EXPECT_EQ(BuildDataProfile(a->db).Fingerprint(),
            BuildDataProfile(b->db).Fingerprint());
}

// --- CSV -> writer streaming -----------------------------------------------

TEST(SnapshotWriterTest, CsvStreamsStraightIntoSnapshot) {
  const std::string dir = MakeScratchDir();
  const std::string path = dir + "/csv.sharpcq";
  std::istringstream csv("1,2\n2,3\n3,1\n");
  SnapshotWriter writer;
  CsvResult result = LoadRelationCsvIntoWriter(csv, "e", &writer);
  ASSERT_TRUE(result.ok()) << result.message;
  EXPECT_EQ(result.tuples, 3u);
  Status error;
  ASSERT_TRUE(writer.Finish(path, nullptr, &error).has_value()) << error;

  auto loaded = LoadSnapshot(path, SnapshotLoadMode::kOwned, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  auto q = ParseQuery("Q(X) <- e(X,Y), e(Y,Z), e(Z,X)");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(CountingEngine().Count(*q, loaded->db).count, CountInt{3});
}

TEST(SnapshotWriterTest, ArityConflictAcrossCsvFilesIsAParseError) {
  // Two files feeding one relation with different arities is bad data and
  // must surface as kParseError (CLI exit 4), not an invariant abort.
  SnapshotWriter writer;
  std::istringstream first("1,2\n");
  ASSERT_TRUE(LoadRelationCsvIntoWriter(first, "r", &writer).ok());
  std::istringstream second("1,2,3\n");
  CsvResult result = LoadRelationCsvIntoWriter(second, "r", &writer);
  EXPECT_EQ(result.status, CsvStatus::kParseError);
  EXPECT_NE(result.message.find("arity"), std::string::npos);
}

// --- catalog ---------------------------------------------------------------

TEST(CatalogTest, GenerationSwapKeepsOldEntryServableAndPlanCacheWarm) {
  const std::string root = MakeScratchDir() + "/catalog";
  Catalog catalog(root);
  Status error;

  Database gen1;
  gen1.AddTuple("e", {1, 2});
  gen1.AddTuple("e", {2, 1});
  ASSERT_TRUE(catalog.Ingest("g", gen1, nullptr, &error).has_value()) << error;

  auto entry1 = catalog.Open("g", &error);
  ASSERT_NE(entry1, nullptr) << error;
  EXPECT_EQ(entry1->generation, 1u);

  auto q = ParseQuery("Q(X,Y) <- e(X,Y), e(Y,X)");
  ASSERT_TRUE(q.has_value());
  CountResult first = entry1->engine->Count(*q, *entry1->db);
  EXPECT_EQ(first.count, CountInt{2});
  EXPECT_FALSE(first.cache_hit);

  // Ingest generation 2 while entry1 is still held (ingest-while-serving).
  // Doubling the relation moves its row-count size class (2 rows -> 4).
  Database gen2;
  gen2.AddTuple("e", {1, 2});
  gen2.AddTuple("e", {2, 1});
  gen2.AddTuple("e", {3, 4});
  gen2.AddTuple("e", {4, 3});
  ASSERT_TRUE(catalog.Ingest("g", gen2, nullptr, &error).has_value()) << error;

  auto entry2 = catalog.Open("g", &error);
  ASSERT_NE(entry2, nullptr) << error;
  EXPECT_EQ(entry2->generation, 2u);
  EXPECT_NE(entry1->db.get(), entry2->db.get());
  // Same engine across generations, but the plan cache keys on the data
  // profile fingerprint: the ingest changed the relation's size class, so
  // the first count against generation 2 re-plans for the new data.
  EXPECT_EQ(entry1->engine.get(), entry2->engine.get());
  EXPECT_NE(entry1->profile.Fingerprint(), entry2->profile.Fingerprint());
  CountResult second = entry2->engine->Count(*q, *entry2->db);
  EXPECT_EQ(second.count, CountInt{4});
  EXPECT_FALSE(second.cache_hit);
  // Once planned for this profile class, repeats hit the warm cache.
  CountResult third = entry2->engine->Count(*q, *entry2->db);
  EXPECT_EQ(third.count, CountInt{4});
  EXPECT_TRUE(third.cache_hit);

  // The superseded generation still serves exact answers, from its own
  // still-cached plan (its profile class never left the cache).
  CountResult old_gen = entry1->engine->Count(*q, *entry1->db);
  EXPECT_EQ(old_gen.count, CountInt{2});
  EXPECT_TRUE(old_gen.cache_hit);

  // An ingest that leaves the profile class unchanged keeps the cache
  // warm: generation 3 re-adds the same tuples.
  ASSERT_TRUE(catalog.Ingest("g", gen2, nullptr, &error).has_value()) << error;
  auto entry3 = catalog.Open("g", &error);
  ASSERT_NE(entry3, nullptr) << error;
  EXPECT_EQ(entry3->profile.Fingerprint(), entry2->profile.Fingerprint());
  CountResult fourth = entry3->engine->Count(*q, *entry3->db);
  EXPECT_EQ(fourth.count, CountInt{4});
  EXPECT_TRUE(fourth.cache_hit);

  // Re-opening the current generation is cached (same Entry object).
  EXPECT_EQ(catalog.Open("g", &error).get(), entry3.get());

  EXPECT_EQ(catalog.ListDatabases(), std::vector<std::string>{"g"});
  EXPECT_EQ(catalog.CurrentGeneration("g", &error), 3u);
}

TEST(CatalogTest, IngestThatChangesBRunsTheSharpBDataStepOnce) {
  const std::string root = MakeScratchDir() + "/catalog";
  Catalog catalog(root);
  Status error;
  const ConjunctiveQuery q = MakeQbarh2(3);
  // Counts q over the current generation; returns the #b data steps run.
  auto count = [&](CountResult* result) -> std::size_t {
    auto entry = catalog.Open("qbar", &error);
    EXPECT_NE(entry, nullptr) << error;
    Trace trace;
    *result = entry->engine->Count(
        q, *entry->db, entry->engine->options().planner, nullptr, &trace);
    EXPECT_TRUE(result->ok());
    EXPECT_EQ(result->count, CountByBacktracking(q, *entry->db));
    return CountSpans(trace.root(), "sharp_b_search");
  };

  // Generation 1: the generator's instance, b = 1.
  ASSERT_TRUE(catalog.Ingest("qbar", MakeQbarh2Database(3, 4), nullptr, &error)
                  .has_value())
      << error;
  CountResult result;
  EXPECT_EQ(count(&result), 1u);
  EXPECT_EQ(result.method, "#b-hypertree(k=2,b=1)");
  EXPECT_EQ(count(&result), 0u);
  EXPECT_TRUE(result.cache_hit);

  // Generation 2: random data whose best width-2 decomposition has b = 4.
  RandomDatabaseParams dp;
  dp.domain = 2;
  dp.tuples_per_relation = 20;
  dp.seed = 1;
  ASSERT_TRUE(
      catalog.Ingest("qbar", MakeRandomDatabase(q, dp), nullptr, &error)
          .has_value())
      << error;
  EXPECT_EQ(count(&result), 1u);
  EXPECT_EQ(result.method, "#b-hypertree(k=2,b=4)");
  EXPECT_EQ(count(&result), 0u);
  EXPECT_EQ(result.method, "#b-hypertree(k=2,b=4)");
  EXPECT_TRUE(result.cache_hit);
}

TEST(CatalogTest, MalformedManifestFailsIngestInsteadOfResetting) {
  // Regression: a present-but-corrupt manifest must fail the ingest, not
  // silently restart at generation 1 (which would rename over an existing
  // immutable snapshot a reader may be mapping).
  const std::string root = MakeScratchDir() + "/catalog";
  Catalog catalog(root);
  Status error;
  Database db;
  db.AddTuple("e", {1, 2});
  ASSERT_TRUE(catalog.Ingest("g", db, nullptr, &error).has_value()) << error;
  ASSERT_TRUE(catalog.Ingest("g", db, nullptr, &error).has_value()) << error;
  const auto gen1_bytes = ReadFileBytes(root + "/g/snapshot-000001.sharpcq");

  {
    std::ofstream manifest(root + "/g/MANIFEST", std::ios::trunc);
    manifest << "garbage\n";
  }
  EXPECT_FALSE(catalog.Ingest("g", db, nullptr, &error).has_value());
  EXPECT_FALSE(error.ok());
  // Generation 1 was not overwritten.
  EXPECT_EQ(ReadFileBytes(root + "/g/snapshot-000001.sharpcq"), gen1_bytes);
}

TEST(CatalogTest, RejectsEscapingNamesAndMissingDatabases) {
  const std::string root = MakeScratchDir() + "/catalog";
  Catalog catalog(root);
  Status error;
  Database db;
  db.AddTuple("e", {1});
  EXPECT_FALSE(catalog.Ingest("../evil", db, nullptr, &error).has_value());
  EXPECT_FALSE(catalog.Ingest("a/b", db, nullptr, &error).has_value());
  EXPECT_EQ(catalog.Open("absent", &error), nullptr);
  EXPECT_NE(error.message().find("absent"), std::string::npos);
}

// --- paper example through snapshots (acceptance criterion) ----------------

TEST(SnapshotRoundTripTest, WorkforceQ0AgreesThroughBothLoadPaths) {
  const std::string dir = MakeScratchDir();
  const std::string path = dir + "/q0.sharpcq";
  ConjunctiveQuery q0 = MakeQ0();
  Q0DatabaseParams params;
  Database db = MakeQ0Database(params);
  CountingEngine engine;
  const CountInt expected = engine.Count(q0, db).count;

  Status error;
  ASSERT_TRUE(WriteSnapshot(db, nullptr, path, &error).has_value()) << error;
  auto owned = LoadSnapshot(path, SnapshotLoadMode::kOwned, &error);
  ASSERT_TRUE(owned.has_value()) << error;
  auto mapped = LoadSnapshot(path, SnapshotLoadMode::kMapped, &error);
  ASSERT_TRUE(mapped.has_value()) << error;
  EXPECT_EQ(engine.Count(q0, owned->db).count, expected);
  EXPECT_EQ(engine.Count(q0, mapped->db).count, expected);
}

}  // namespace
}  // namespace sharpcq
