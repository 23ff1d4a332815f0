// The statistics-driven cost model (ISSUE 8): estimator units, fingerprint
// stability, and — the load-bearing property — scheduling neutrality: every
// count with the cost model on must equal the same count with it off,
// because the model only reorders exact algorithms. The differential suite
// here runs 200+ random instances (including skewed/heavy-tail data and
// columnar snapshot-backed databases) through both settings.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "algebra/rel.h"
#include "algebra/stats.h"
#include "algebra/table.h"
#include "count/enumeration.h"
#include "engine/engine.h"
#include "gen/random_gen.h"
#include "query/parser.h"
#include "storage/snapshot.h"

namespace sharpcq {
namespace {

std::string MakeScratchDir() {
  std::string tmpl = ::testing::TempDir() + "sharpcq_cost_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const char* dir = ::mkdtemp(buf.data());
  EXPECT_NE(dir, nullptr);
  return dir;
}

std::shared_ptr<const Table> BuildTable(
    const std::vector<std::vector<Value>>& rows) {
  TableBuilder builder(rows.empty() ? 0 : static_cast<int>(rows[0].size()));
  for (const auto& row : rows) builder.AddRow(row);
  return std::move(builder).Build();
}

// --- estimator units -------------------------------------------------------

TEST(CostModelUnitTest, DegreeBucketIsLogTwoClamped) {
  EXPECT_EQ(DegreeBucket(1), 0u);
  EXPECT_EQ(DegreeBucket(2), 1u);
  EXPECT_EQ(DegreeBucket(3), 1u);
  EXPECT_EQ(DegreeBucket(4), 2u);
  EXPECT_EQ(DegreeBucket(7), 2u);
  EXPECT_EQ(DegreeBucket(8), 3u);
  EXPECT_EQ(DegreeBucket(1u << 15), 15u);
  // Everything past the last bucket boundary is absorbed by bucket 15.
  EXPECT_EQ(DegreeBucket(std::uint64_t{1} << 40), kDegreeHistogramBuckets - 1);
}

TEST(CostModelUnitTest, SizeClassIsBitWidth) {
  EXPECT_EQ(SizeClass(0), 0u);
  EXPECT_EQ(SizeClass(1), 1u);
  EXPECT_EQ(SizeClass(2), 2u);
  EXPECT_EQ(SizeClass(3), 2u);
  EXPECT_EQ(SizeClass(4), 3u);
  EXPECT_EQ(SizeClass(1023), 10u);
  EXPECT_EQ(SizeClass(1024), 11u);
}

TEST(CostModelUnitTest, ComputeTableStatsMatchesHandCount) {
  // Column 0: values {1 x3, 2 x1} -> distinct 2, max_group 3.
  // Column 1: values {10, 20, 30, 40} -> distinct 4, max_group 1.
  auto table = BuildTable({{1, 10}, {1, 20}, {1, 30}, {2, 40}});
  TableStats stats = ComputeTableStats(*table);
  ASSERT_EQ(stats.rows, 4u);
  ASSERT_EQ(stats.columns.size(), 2u);
  EXPECT_EQ(stats.columns[0].distinct, 2u);
  EXPECT_EQ(stats.columns[0].max_group, 3u);
  // Groups of size 3 land in bucket 1 ([2,4)), size 1 in bucket 0.
  EXPECT_EQ(stats.columns[0].histogram[0], 1u);
  EXPECT_EQ(stats.columns[0].histogram[1], 1u);
  EXPECT_EQ(stats.columns[1].distinct, 4u);
  EXPECT_EQ(stats.columns[1].max_group, 1u);
  EXPECT_EQ(stats.columns[1].histogram[0], 4u);
  EXPECT_DOUBLE_EQ(stats.columns[0].AvgGroup(stats.rows), 2.0);

  // The lazy per-table cache returns the same statistics, and installs win
  // only once.
  auto cached = table->Stats();
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(*cached, stats);
  EXPECT_EQ(table->StatsIfPresent().get(), cached.get());
}

TEST(CostModelUnitTest, PermuteStatsReordersColumns) {
  auto table = BuildTable({{1, 10}, {1, 20}, {2, 30}});
  TableStats stats = ComputeTableStats(*table);
  const std::vector<int> perm = {1, 0};
  auto permuted = PermuteStats(stats, perm);
  ASSERT_NE(permuted, nullptr);
  EXPECT_EQ(permuted->rows, stats.rows);
  ASSERT_EQ(permuted->columns.size(), 2u);
  EXPECT_EQ(permuted->columns[0], stats.columns[1]);
  EXPECT_EQ(permuted->columns[1], stats.columns[0]);
}

TEST(CostModelUnitTest, EstimatedDistinctCountUsesStatsAndCaps) {
  // 8 rows, column 0 has 4 distinct values, column 1 has 8.
  std::vector<std::vector<Value>> rows;
  for (Value i = 0; i < 8; ++i) rows.push_back({i % 4, i});
  auto table = BuildTable(rows);
  Rel rel(IdSet{3, 7}, table);

  // No stats cached yet: falls back to the row count.
  EXPECT_EQ(EstimatedDistinctCount(rel, IdSet{3}), 8u);

  table->Stats();  // prime the cache
  EXPECT_EQ(EstimatedDistinctCount(rel, IdSet{3}), 4u);
  EXPECT_EQ(EstimatedDistinctCount(rel, IdSet{7}), 8u);
  // The product 4 * 8 exceeds the row count, so the estimate caps at rows
  // (a relation never has more distinct keys than rows).
  EXPECT_EQ(EstimatedDistinctCount(rel, IdSet{3, 7}), 8u);
  // Variables outside the relation's schema do not constrain it.
  EXPECT_EQ(EstimatedDistinctCount(rel, IdSet{99}), 1u);
  EXPECT_EQ(EstimatedDistinctCount(rel, IdSet{3, 99}), 4u);
}

// --- fingerprints ----------------------------------------------------------

TEST(CostModelUnitTest, FingerprintIsRowOrderInsensitive) {
  Database forward;
  Database shuffled;
  forward.AddTuple("r", {1, 2});
  forward.AddTuple("r", {3, 4});
  forward.AddTuple("s", {7});
  shuffled.AddTuple("s", {7});
  shuffled.AddTuple("r", {3, 4});
  shuffled.AddTuple("r", {1, 2});

  const std::string dir = MakeScratchDir();
  Status error;
  ASSERT_TRUE(WriteSnapshot(forward, nullptr, dir + "/a.sharpcq", &error)
                  .has_value())
      << error;
  ASSERT_TRUE(WriteSnapshot(shuffled, nullptr, dir + "/b.sharpcq", &error)
                  .has_value())
      << error;
  auto a = LoadSnapshot(dir + "/a.sharpcq", SnapshotLoadMode::kMapped, &error);
  auto b = LoadSnapshot(dir + "/b.sharpcq", SnapshotLoadMode::kOwned, &error);
  ASSERT_TRUE(a.has_value() && b.has_value()) << error;
  EXPECT_EQ(BuildDataProfile(a->db).Fingerprint(),
            BuildDataProfile(b->db).Fingerprint());
  EXPECT_FALSE(BuildDataProfile(a->db).Fingerprint().empty());
}

TEST(CostModelUnitTest, FingerprintTracksSizeClassNotExactCounts) {
  // Within one log2 class the fingerprint is stable; crossing a class
  // boundary (2 rows -> 4 rows) moves it.
  auto profile_of = [](int rows) {
    Database db;
    for (int i = 0; i < rows; ++i) db.AddTuple("e", {i, i + 100});
    const std::string dir = MakeScratchDir();
    Status error;
    EXPECT_TRUE(
        WriteSnapshot(db, nullptr, dir + "/p.sharpcq", &error).has_value());
    auto loaded =
        LoadSnapshot(dir + "/p.sharpcq", SnapshotLoadMode::kMapped, &error);
    EXPECT_TRUE(loaded.has_value()) << error;
    return BuildDataProfile(loaded->db).Fingerprint();
  };
  EXPECT_EQ(profile_of(2), profile_of(3));    // both class bit_width=2
  EXPECT_NE(profile_of(2), profile_of(4));    // class 2 vs class 3
  EXPECT_NE(profile_of(4), profile_of(100));  // order of magnitude apart
}

// --- persisted stats == computed stats -------------------------------------

TEST(CostModelUnitTest, SnapshotPersistedStatsEqualLazyComputation) {
  Database db;
  for (int i = 0; i < 50; ++i) {
    db.AddTuple("skew", {i % 5, i});  // col 0 heavy, col 1 unique
  }
  const std::string dir = MakeScratchDir();
  const std::string path = dir + "/stats.sharpcq";
  Status error;
  ASSERT_TRUE(WriteSnapshot(db, nullptr, path, &error).has_value()) << error;

  for (SnapshotLoadMode mode :
       {SnapshotLoadMode::kOwned, SnapshotLoadMode::kMapped}) {
    auto loaded = LoadSnapshot(path, mode, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    auto backing = loaded->db.ColumnarBacking("skew");
    ASSERT_NE(backing, nullptr);
    // v2 loads install the persisted stats without a computation pass...
    auto persisted = backing->StatsIfPresent();
    ASSERT_NE(persisted, nullptr);
    // ...and they match what a from-scratch pass over the data produces.
    EXPECT_EQ(*persisted, ComputeTableStats(*backing));
    EXPECT_EQ(persisted->columns[0].distinct, 5u);
    EXPECT_EQ(persisted->columns[0].max_group, 10u);
    EXPECT_EQ(persisted->columns[1].distinct, 50u);
  }
}

// --- plan cache keying -----------------------------------------------------

TEST(CostModelCacheTest, ProfileClassChangeReplansSameClassStaysWarm) {
  const std::string dir = MakeScratchDir();
  Status error;
  auto snapshot_db = [&](const std::string& name, int rows) {
    Database db;
    for (int i = 0; i < rows; ++i) db.AddTuple("e", {i, i + 1});
    const std::string path = dir + "/" + name + ".sharpcq";
    EXPECT_TRUE(WriteSnapshot(db, nullptr, path, &error).has_value()) << error;
    auto loaded = LoadSnapshot(path, SnapshotLoadMode::kMapped, &error);
    EXPECT_TRUE(loaded.has_value()) << error;
    return std::move(loaded->db);
  };
  Database small = snapshot_db("small", 6);        // rows class 3
  Database small2 = snapshot_db("small2", 7);      // same class
  Database large = snapshot_db("large", 400);      // different class

  auto q = ParseQuery("Q(X,Z) <- e(X,Y), e(Y,Z)");
  ASSERT_TRUE(q.has_value());

  CountingEngine engine;  // cost model on by default
  EXPECT_FALSE(engine.Count(*q, small).cache_hit);
  // Same shape, same profile class: the cached plan is reused.
  EXPECT_TRUE(engine.Count(*q, small2).cache_hit);
  // Same shape, different data class: the fingerprinted key forces a
  // re-plan ("same shape + same data profile => same plan").
  EXPECT_FALSE(engine.Count(*q, large).cache_hit);
  // And the large class is now warm too.
  EXPECT_TRUE(engine.Count(*q, large).cache_hit);

  // With the cost model off the key has no profile component, so every
  // database shares one cached plan per shape.
  EngineOptions off;
  off.enable_cost_model = false;
  CountingEngine blind(off);
  EXPECT_FALSE(blind.Count(*q, small).cache_hit);
  EXPECT_TRUE(blind.Count(*q, large).cache_hit);
}

// --- differential: cost model on == cost model off -------------------------

struct DiffCase {
  ConjunctiveQuery query;
  Database db;
  std::uint64_t seed = 0;
};

std::vector<DiffCase> MakeDiffCases(std::uint64_t first_seed,
                                    std::uint64_t last_seed, bool skewed) {
  std::vector<DiffCase> cases;
  for (std::uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    RandomQueryParams qp;
    qp.num_vars = 4 + static_cast<int>(seed % 3);
    qp.num_atoms = 3 + static_cast<int>(seed % 3);
    qp.max_arity = 2 + static_cast<int>(seed % 2);
    qp.num_free = 1 + static_cast<int>(seed % 3);
    qp.num_relations = 2 + static_cast<int>(seed % 3);
    qp.force_acyclic = (seed % 2 == 0);
    qp.seed = seed;
    DiffCase c;
    c.query = MakeRandomQuery(qp);
    RandomDatabaseParams dp;
    dp.domain = skewed ? 6 : 3;
    dp.tuples_per_relation = 8 + static_cast<int>(seed % 5);
    dp.seed = seed * 0x9e3779b97f4a7c15ULL + 17;
    c.db = MakeRandomDatabase(c.query, dp);
    if (skewed) {
      // Heavy-tail the data: pile extra tuples onto one hot value per
      // relation so per-column max_group dwarfs the average (the regime the
      // degree-steer threshold reacts to).
      for (const Atom& atom : c.query.atoms()) {
        for (int i = 0; i < 12; ++i) {
          std::vector<Value> row(static_cast<std::size_t>(atom.arity()), 0);
          row.back() = i % 6;
          c.db.AddTuple(atom.relation, row);
        }
      }
    }
    c.seed = seed;
    cases.push_back(std::move(c));
  }
  return cases;
}

void RunDifferential(const std::vector<DiffCase>& cases, bool via_snapshot) {
  CountingEngine on;  // default: cost model enabled
  EngineOptions off_options;
  off_options.enable_cost_model = false;
  CountingEngine off(off_options);

  const std::string dir = via_snapshot ? MakeScratchDir() : "";
  for (const DiffCase& c : cases) {
    const Database* db = &c.db;
    Database columnar;
    if (via_snapshot) {
      // Round-trip through a v2 snapshot: the cost-model engine then runs
      // on columnar tables with persisted stats installed (the production
      // serving shape).
      const std::string path =
          dir + "/case_" + std::to_string(c.seed) + ".sharpcq";
      Status error;
      ASSERT_TRUE(WriteSnapshot(c.db, nullptr, path, &error).has_value())
          << error;
      auto loaded = LoadSnapshot(path, SnapshotLoadMode::kMapped, &error);
      ASSERT_TRUE(loaded.has_value()) << error;
      columnar = std::move(loaded->db);
      db = &columnar;
    }
    const CountInt expected = off.Count(c.query, *db).count;
    EXPECT_EQ(CountByBacktracking(c.query, *db), expected)
        << "seed " << c.seed;
    CountResult steered = on.Count(c.query, *db);
    EXPECT_EQ(steered.count, expected)
        << "seed " << c.seed << " via " << steered.method;
    // And under every named strategy the two engines still agree.
    for (const char* strategy : {"sharp", "ps13", "hybrid"}) {
      auto options = PlannerOptionsForStrategy(strategy, PlannerOptions{});
      ASSERT_TRUE(options.has_value());
      EXPECT_EQ(on.Count(c.query, *db, *options).count,
                off.Count(c.query, *db, *options).count)
          << "seed " << c.seed << " strategy " << strategy;
    }
  }
}

TEST(CostModelDifferentialTest, UniformRandomInstancesAgree) {
  RunDifferential(MakeDiffCases(1, 120, /*skewed=*/false),
                  /*via_snapshot=*/false);
}

TEST(CostModelDifferentialTest, SkewedHeavyTailInstancesAgree) {
  RunDifferential(MakeDiffCases(301, 360, /*skewed=*/true),
                  /*via_snapshot=*/false);
}

TEST(CostModelDifferentialTest, ColumnarSnapshotBackedInstancesAgree) {
  // Through the snapshot the tables carry persisted stats, so every
  // cost-model consult actually fires (StatsIfPresent is non-null).
  RunDifferential(MakeDiffCases(401, 430, /*skewed=*/true),
                  /*via_snapshot=*/true);
}

TEST(CostModelDifferentialTest, MorselForcedCostModelAgrees) {
  // Cost model on with morsels forced tiny: the build-size-aware threshold
  // path and the reordered executions must still match the sequential
  // cost-model-off engine.
  EngineOptions on_options;
  on_options.batch_threads = 3;
  on_options.morsel_rows = 2;
  on_options.morsel_row_threshold = 1;
  CountingEngine on(on_options);
  EngineOptions off_options;
  off_options.enable_cost_model = false;
  off_options.enable_morsel_parallelism = false;
  CountingEngine off(off_options);

  for (const DiffCase& c : MakeDiffCases(501, 540, /*skewed=*/true)) {
    EXPECT_EQ(on.Count(c.query, c.db).count, off.Count(c.query, c.db).count)
        << "seed " << c.seed;
  }
}

// --- concurrency -----------------------------------------------------------

TEST(CostModelConcurrencyTest, ConcurrentLazyStatsComputeOnce) {
  // Many threads racing the double-checked lazy Stats() computation: the
  // sanitizer CI legs run this test, so a data race in the compute-outside-
  // the-lock/first-install-wins protocol would trip TSan here.
  std::vector<std::vector<Value>> rows;
  for (Value i = 0; i < 512; ++i) rows.push_back({i % 17, i % 3, i});
  auto table = BuildTable(rows);

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const TableStats>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, &seen, t] { seen[t] = table->Stats(); });
  }
  for (std::thread& thread : threads) thread.join();

  // Whoever computed, exactly one result was installed and everyone agrees
  // with the ground truth.
  const TableStats expected = ComputeTableStats(*table);
  for (const auto& stats : seen) {
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(*stats, expected);
    EXPECT_EQ(stats.get(), table->StatsIfPresent().get());
  }
  EXPECT_EQ(expected.columns[0].distinct, 17u);
  EXPECT_EQ(expected.columns[2].distinct, 512u);
}

TEST(CostModelConcurrencyTest, ConcurrentCountsWithCostModelOn) {
  // Batch counting over a snapshot-backed database with the cost model on:
  // concurrent jobs consult shared stats and reorder join trees under
  // TSan.
  Database source;
  for (int i = 0; i < 200; ++i) {
    source.AddTuple("e", {i % 20, (i * 3) % 40});
    source.AddTuple("f", {(i * 5) % 40, i % 10});
  }
  const std::string dir = MakeScratchDir();
  const std::string path = dir + "/batch.sharpcq";
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
  for (const CountResult& result : engine.CountBatch(jobs)) {
    EXPECT_EQ(result.count, expected);
  }
}

}  // namespace
}  // namespace sharpcq
