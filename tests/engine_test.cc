#include <gtest/gtest.h>

#include "algebra/exec_policy.h"
#include "algebra/miss_filter.h"
#include "core/analyze.h"
#include "count/enumeration.h"
#include "engine/engine.h"
#include "gen/paper_queries.h"
#include "gen/random_gen.h"
#include "hypergraph/acyclic.h"
#include "query/atom_relation.h"
#include "query/parser.h"
#include "tests/test_util.h"
#include "util/mem_budget.h"
#include "util/trace.h"

namespace sharpcq {
namespace {

ConjunctiveQuery Parse(const std::string& text) {
  std::string error;
  auto q = ParseQuery(text, nullptr, &error);
  EXPECT_TRUE(q.has_value()) << text << ": " << error;
  return *q;
}

// --- planner policy ----------------------------------------------------------

TEST(PlannerTest, AcyclicQueryGetsWidthOneSharpPlan) {
  // A quantifier-light path query: acyclic colored core, frontier covered
  // by single atoms, so the structural strategy wins at width 1.
  ConjunctiveQuery q = Parse("Q(X,Y,Z) <- r(X,Y), s(Y,Z)");
  CountingPlan plan = MakePlan(q);
  EXPECT_EQ(plan.strategy, PlanStrategy::kSharpHypertree);
  EXPECT_EQ(plan.width_budget, 1);
  EXPECT_EQ(AnalyzeQuery(q, 3).sharp_hypertree_width, plan.width_budget);
  ASSERT_TRUE(plan.sharp.has_value());
}

TEST(PlannerTest, Q0GetsWidthTwoSharpPlan) {
  CountingPlan plan = MakePlan(MakeQ0());
  EXPECT_EQ(plan.strategy, PlanStrategy::kSharpHypertree);
  EXPECT_EQ(plan.width_budget, 2);  // Figure 3(c)
}

TEST(PlannerTest, HybridFamilyGetsSharpBPlan) {
  // Example 6.3: unbounded #-htw, cyclic hypergraph -> the hybrid strategy.
  PlannerOptions options;
  options.max_width = 2;
  CountingPlan plan = MakePlan(MakeQbarh2(3), options);
  EXPECT_EQ(plan.strategy, PlanStrategy::kSharpB);
}

TEST(PlannerTest, SharpBPlanStoresTheFirstWidthWithCandidates) {
  // Qbar^4_2 has #-htw > 3; #b succeeds at width 2, so only k = 2 is
  // collected and the cost sketch is m^(k+1), not m^(max_width+1).
  CountingPlan plan = MakePlan(MakeQbarh2(4));
  ASSERT_EQ(plan.strategy, PlanStrategy::kSharpB);
  ASSERT_EQ(plan.sharp_b.size(), 1u);
  EXPECT_EQ(plan.sharp_b.front().k, 2);
  EXPECT_FALSE(plan.sharp_b.front().candidates.empty());
  EXPECT_EQ(plan.cost.db_exponent, 3.0);
  EXPECT_EQ(plan.cost.note.find("search"), std::string::npos)
      << plan.cost.note;
}

TEST(PlannerTest, NoSharpBCandidatePlansExplicitBacktracking) {
  // K5 with every variable free: generalized hypertree width 3, so no
  // width-2 #-hypertree or #b decomposition exists, and the hybrid gate
  // yields an explicit backtracking plan instead of a #b plan that falls
  // back silently.
  ConjunctiveQuery q = Parse(
      "Q(A,B,C,D,E) <- e(A,B), e(A,C), e(A,D), e(A,E), e(B,C), e(B,D), "
      "e(B,E), e(C,D), e(C,E), e(D,E)");
  PlannerOptions options;
  options.max_width = 2;
  CountingPlan plan = MakePlan(q, options);
  EXPECT_FALSE(IsAcyclic(plan.query.BuildHypergraph()));
  EXPECT_EQ(plan.strategy, PlanStrategy::kBacktracking);
  EXPECT_TRUE(plan.sharp_b.empty());

  Database db;
  for (int a = 0; a < 5; ++a) {
    for (int b = 0; b < 5; ++b) {
      if (a != b && (a * 7 + b * 3) % 4 != 0) db.AddTuple("e", {a, b});
    }
  }
  CountingEngine engine;
  CountResult result = engine.Count(q, db, options);
  EXPECT_EQ(result.method, "backtracking");
  EXPECT_EQ(result.count, CountByBacktracking(q, db));
}

TEST(PlannerTest, AcyclicUnboundedWidthFamilyGetsPs13Plan) {
  // Example C.1: Q^h_2 is acyclic but needs #-htw ~ h; with a small width
  // budget the acyclic PS13 strategy takes over (instead of backtracking).
  PlannerOptions options;
  options.max_width = 3;
  CountingPlan plan = MakePlan(MakeQh2(5), options);
  EXPECT_TRUE(IsAcyclic(plan.query.BuildHypergraph()));
  EXPECT_EQ(plan.strategy, PlanStrategy::kAcyclicPs13);
}

TEST(PlannerTest, StrategyGatesRestoreLegacyBehavior) {
  PlannerOptions options;
  options.max_width = 3;
  options.enable_acyclic_ps13 = false;
  options.enable_hybrid = false;
  CountingPlan plan = MakePlan(MakeQh2(5), options);
  EXPECT_EQ(plan.strategy, PlanStrategy::kBacktracking);

  options.enable_hybrid = true;
  plan = MakePlan(MakeQh2(5), options);
  EXPECT_EQ(plan.strategy, PlanStrategy::kSharpB);
}

TEST(PlannerTest, PlanCarriesProfileAndCost) {
  CountingPlan plan = MakePlan(MakeQ0());
  EXPECT_EQ(plan.query.NumAtoms(), 9u);
  EXPECT_GT(plan.cost.db_exponent, 0.0);
  EXPECT_NE(plan.DebugString().find("sharp-hypertree"), std::string::npos);
}

// --- plan cache --------------------------------------------------------------

TEST(PlanCacheTest, SharpBCandidatesAreEnumeratedOnlyOnThePlanMiss) {
  CountingEngine engine;
  ConjunctiveQuery q = MakeQbarh2(4);
  Database db = MakeQbarh2Database(4, 6);

  Trace miss;
  CountResult cold = engine.Count(q, db, PlannerOptions{}, nullptr, &miss);
  miss.Finish();
  const TraceNode* miss_plan = FindChild(miss.root(), "plan");
  ASSERT_NE(miss_plan, nullptr);
  EXPECT_EQ(NoteOf(*miss_plan, "cache"), "miss");
  std::vector<const TraceNode*> enumerations;
  CollectSpans(*miss_plan, "sharp_b_candidates", &enumerations);
  ASSERT_EQ(enumerations.size(), 1u);
  EXPECT_EQ(NoteOf(*enumerations[0], "k"), "2");

  Trace hit;
  CountResult warm = engine.Count(q, db, PlannerOptions{}, nullptr, &hit);
  hit.Finish();
  EXPECT_EQ(warm.count, cold.count);
  EXPECT_EQ(warm.method, cold.method);
  EXPECT_EQ(warm.count, CountInt{1} << 4);
  const TraceNode* hit_plan = FindChild(hit.root(), "plan");
  ASSERT_NE(hit_plan, nullptr);
  EXPECT_EQ(NoteOf(*hit_plan, "cache"), "hit");
  enumerations.clear();
  CollectSpans(hit.root(), "sharp_b_candidates", &enumerations);
  EXPECT_TRUE(enumerations.empty());

  // The hit runs only the data half: one search over the stored candidates
  // that stops at the first one (b = 1).
  const TraceNode* execute = FindChild(hit.root(), "execute");
  ASSERT_NE(execute, nullptr);
  std::vector<const TraceNode*> searches;
  CollectSpans(*execute, "sharp_b_search", &searches);
  ASSERT_EQ(searches.size(), 1u);
  EXPECT_EQ(NoteOf(*searches[0], "visited"), "1");
  EXPECT_EQ(NoteOf(*searches[0], "b"), "1");
}

// --- the #b data step, once per data generation ----------------------------

// Qbar^3_2 on random data: its best width-2 #b decomposition has b = 4
// (see ExecutorTest.FiniteHybridMaxBFallsThroughToTheNextWidth), where the
// generator's own instance has b = 1.
Database QbarDatabaseWithBFour() {
  RandomDatabaseParams dp;
  dp.domain = 2;
  dp.tuples_per_relation = 20;
  dp.seed = 1;
  return MakeRandomDatabase(MakeQbarh2(3), dp);
}

// ExecutePlan under a trace; returns how many #b data steps it ran.
std::size_t DataStepsOf(const CountingPlan& plan, const Database& db,
                        CountResult* result) {
  Trace trace;
  {
    TraceScope scope(&trace);
    *result = ExecutePlan(plan, db);
  }
  trace.Finish();
  return CountSpans(trace.root(), "sharp_b_search");
}

TEST(SharpBMemoTest, WarmCountOverColumnarDataRunsNoDataStep) {
  const ConjunctiveQuery q = MakeQbarh2(4);
  const Database db = ColumnarCopy(MakeQbarh2Database(4, 6));
  CountingEngine engine;
  Trace cold_trace;
  const CountResult cold =
      engine.Count(q, db, PlannerOptions{}, nullptr, &cold_trace);
  EXPECT_EQ(CountSpans(cold_trace.root(), "sharp_b_search"), 1u);
  for (int i = 0; i < 3; ++i) {
    Trace warm_trace;
    const CountResult warm =
        engine.Count(q, db, PlannerOptions{}, nullptr, &warm_trace);
    EXPECT_TRUE(warm.cache_hit);
    EXPECT_EQ(CountSpans(warm_trace.root(), "sharp_b_search"), 0u);
    EXPECT_EQ(warm.count, cold.count);
    EXPECT_EQ(warm.method, cold.method);  // the same k and b
  }
  EXPECT_EQ(cold.method, "#b-hypertree(k=2,b=1)");
  EXPECT_EQ(cold.count, CountByBacktracking(q, db));
}

TEST(SharpBMemoTest, NewTablesRunTheDataStepOnceAndRowMajorDataEveryTime) {
  const ConjunctiveQuery q = MakeQbarh2(3);
  const Database b_one = ColumnarCopy(MakeQbarh2Database(3, 4));
  const Database b_four = ColumnarCopy(QbarDatabaseWithBFour());
  const CountingPlan plan = MakePlan(q);
  ASSERT_EQ(plan.strategy, PlanStrategy::kSharpB);
  EXPECT_TRUE(plan.sharp_b_memo.empty());

  CountResult result;
  EXPECT_EQ(DataStepsOf(plan, b_one, &result), 1u);
  EXPECT_EQ(result.method, "#b-hypertree(k=2,b=1)");
  EXPECT_EQ(result.count, CountByBacktracking(q, b_one));
  EXPECT_EQ(DataStepsOf(plan, b_one, &result), 0u);
  EXPECT_FALSE(plan.sharp_b_memo.empty());

  // Other tables: one data step, which replaces the memo's one outcome.
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(DataStepsOf(plan, b_four, &result), i == 0 ? 1u : 0u);
    EXPECT_EQ(result.method, "#b-hypertree(k=2,b=4)");
    EXPECT_EQ(result.count, CountByBacktracking(q, b_four));
  }
  EXPECT_EQ(DataStepsOf(plan, b_one, &result), 1u);
  EXPECT_EQ(result.method, "#b-hypertree(k=2,b=1)");

  // A copy of the database shares its tables, so it shares the outcome.
  const Database copy = b_one;
  EXPECT_EQ(DataStepsOf(plan, copy, &result), 0u);

  // Row-major relations have no identity to key on: every count runs it.
  const Database row_major = QbarDatabaseWithBFour();
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(DataStepsOf(plan, row_major, &result), 1u);
    EXPECT_EQ(result.method, "#b-hypertree(k=2,b=4)");
    EXPECT_EQ(result.count, CountByBacktracking(q, row_major));
  }
}

TEST(SharpBMemoTest, NoCandidateWithinTheCapIsMemoizedToo) {
  // hybrid_max_b = 1 rejects every candidate of b_four at widths 2 and 3:
  // the outcome "none" is kept, so the backtracking fallback does not
  // search again either.
  const ConjunctiveQuery q = MakeQbarh2(3);
  const Database db = ColumnarCopy(QbarDatabaseWithBFour());
  PlannerOptions options;
  options.hybrid_max_b = 1;
  const CountingPlan plan = MakePlan(q, options);
  ASSERT_EQ(plan.strategy, PlanStrategy::kSharpB);
  CountResult result;
  EXPECT_EQ(DataStepsOf(plan, db, &result), plan.sharp_b.size());
  EXPECT_EQ(result.method, "backtracking");
  EXPECT_EQ(DataStepsOf(plan, db, &result), 0u);
  EXPECT_EQ(result.method, "backtracking");
  EXPECT_EQ(result.count, CountByBacktracking(q, db));
}

TEST(SharpBMemoTest, InterruptedDataStepLeavesTheSlotEmpty) {
  const ConjunctiveQuery q = MakeQbarh2(3);
  const Database db = ColumnarCopy(QbarDatabaseWithBFour());
  const CountingPlan plan = MakePlan(q);
  ASSERT_EQ(plan.strategy, PlanStrategy::kSharpB);
  // A one-byte budget refuses the first allocation of the data step, the
  // join of a guard view.
  MemoryBudget budget(1);
  ExecPolicy policy;
  policy.query_memory = &budget;
  Trace trace;
  bool refused = false;
  {
    TraceScope trace_scope(&trace);
    ExecScope scope(std::move(policy));
    try {
      ExecutePlan(plan, db);
    } catch (const ExecResourceExhausted&) {
      refused = true;
    }
  }
  trace.Finish();
  EXPECT_TRUE(refused);
  EXPECT_EQ(CountSpans(trace.root(), "sharp_b_search"), 1u);
  EXPECT_TRUE(plan.sharp_b_memo.empty());

  CountResult result;
  EXPECT_EQ(DataStepsOf(plan, db, &result), 1u);
  EXPECT_EQ(result.method, "#b-hypertree(k=2,b=4)");
  EXPECT_EQ(result.count, CountByBacktracking(q, db));
  EXPECT_FALSE(plan.sharp_b_memo.empty());
}

TEST(SharpBMemoTest, BatchOfIdenticalCountsAgrees) {
  // Every job shares one plan and races on its memo slot.
  const ConjunctiveQuery q = MakeQbarh2(3);
  const Database db = ColumnarCopy(QbarDatabaseWithBFour());
  const CountInt expected = CountByBacktracking(q, db);
  EngineOptions options;
  options.batch_threads = 4;
  CountingEngine engine(options);
  const std::vector<CountJob> jobs(16, CountJob{q, &db});
  for (const CountResult& result : engine.CountBatch(jobs)) {
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.count, expected);
    EXPECT_EQ(result.method, "#b-hypertree(k=2,b=4)");
  }
}

TEST(PlanCacheTest, CanonicalizedVariantsHitTheCache) {
  CountingEngine engine;
  ConjunctiveQuery a = Parse("Q(A,C) <- s1(A,B), s2(B,C), s3(C,D), s4(D,A)");
  // The same square, variables renamed and atoms rotated.
  ConjunctiveQuery b = Parse("Q(X,Z) <- s3(Z,W), s4(W,X), s1(X,Y), s2(Y,Z)");

  CountingEngine::Planned first = engine.Plan(a);
  EXPECT_FALSE(first.cache_hit);
  CountingEngine::Planned second = engine.Plan(b);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.plan.get(), second.plan.get());  // literally shared

  PlanCache::Stats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);
}

TEST(PlanCacheTest, DifferentOptionsPlanSeparately) {
  CountingEngine engine;
  ConjunctiveQuery q = MakeQ1();
  PlannerOptions narrow;
  narrow.max_width = 1;
  PlannerOptions wide;
  wide.max_width = 2;
  EXPECT_FALSE(engine.Plan(q, narrow).cache_hit);
  EXPECT_FALSE(engine.Plan(q, wide).cache_hit);
  EXPECT_TRUE(engine.Plan(q, narrow).cache_hit);
  EXPECT_NE(engine.Plan(q, narrow).plan->strategy,
            PlanStrategy::kSharpHypertree);
  EXPECT_EQ(engine.Plan(q, wide).plan->strategy,
            PlanStrategy::kSharpHypertree);
}

TEST(PlanCacheTest, CachedCountsMatchColdCounts) {
  CountingEngine engine;
  ConjunctiveQuery q = MakeQ0();
  Q0DatabaseParams params;
  params.seed = 17;
  Database db = MakeQ0Database(params);
  CountResult cold = engine.Count(q, db);
  EXPECT_FALSE(cold.cache_hit);
  CountResult warm = engine.Count(q, db);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(cold.count, warm.count);
  EXPECT_EQ(cold.method, warm.method);
}

TEST(PlanCacheTest, ShardCountCollapsesForSmallCapacities) {
  // Sharding spreads locks only when each shard can hold a useful number of
  // plans; small caches keep one shard and exact global LRU order.
  EXPECT_EQ(PlanCache::EffectiveShards(1, 8), 1u);
  EXPECT_EQ(PlanCache::EffectiveShards(2, 8), 1u);
  EXPECT_EQ(PlanCache::EffectiveShards(16, 8), 1u);
  EXPECT_EQ(PlanCache::EffectiveShards(64, 8), 4u);
  EXPECT_EQ(PlanCache::EffectiveShards(1024, 8), 8u);
  EXPECT_EQ(PlanCache::EffectiveShards(1024, 0), 1u);
  EXPECT_EQ(PlanCache::EffectiveShards(1024, 3), 3u);
}

TEST(PlanCacheTest, ShardedStatsAggregateAcrossShards) {
  PlanCache cache(/*capacity=*/1024, /*num_shards=*/8);
  EXPECT_EQ(cache.num_shards(), 8u);
  auto plan = std::make_shared<const CountingPlan>();
  for (int i = 0; i < 64; ++i) {
    const std::string key = "k" + std::to_string(i);
    EXPECT_EQ(cache.Find(key), nullptr);
    cache.Insert(key, plan);
    EXPECT_EQ(cache.Find(key).get(), plan.get());
    EXPECT_EQ(cache.ShardOf(key), cache.ShardOf(key));  // stable
  }
  PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 128u);
  EXPECT_EQ(stats.hits, 64u);
  EXPECT_EQ(stats.misses, 64u);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_EQ(stats.size, 64u);
  EXPECT_EQ(stats.shards.size(), 8u);
  std::size_t shard_sum = 0;
  std::size_t used_shards = 0;
  for (const PlanCache::ShardStats& s : stats.shards) {
    EXPECT_EQ(s.hits + s.misses, s.lookups);
    shard_sum += s.size;
    if (s.lookups > 0) ++used_shards;
  }
  EXPECT_EQ(shard_sum, stats.size);
  EXPECT_GT(used_shards, 1u);  // 64 keys must not all hash to one shard
}

TEST(PlanCacheTest, LookupProvenanceSnapshotsTheServingShard) {
  CountingEngine engine;
  ConjunctiveQuery q = MakeQ1();
  Database db = MakeQ1Database(6, 14, 2);
  CountResult cold = engine.Count(q, db);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(cold.cache_shard_misses, 1u);
  EXPECT_EQ(cold.cache_shard_hits, 0u);
  CountResult warm = engine.Count(q, db);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.cache_shard, cold.cache_shard);
  EXPECT_EQ(warm.cache_shard_hits, 1u);
  EXPECT_EQ(warm.cache_shard_misses, 1u);
}

TEST(PlanCacheTest, CachedPlansSurviveEvictionPressure) {
  // capacity=1 thrash regression: two shapes alternately evict each other,
  // while a caller still holds the evicted plan. The shared_ptr must keep
  // the plan alive and executable, and the counts must stay exact.
  EngineOptions options;
  options.plan_cache_capacity = 1;
  CountingEngine engine(options);
  ConjunctiveQuery q1 = MakeQ1();
  Database db1 = MakeQ1Database(6, 14, 2);
  ConjunctiveQuery q2 = MakeQn1(3);
  Database db2 = MakeQn1RandomDatabase(6, 16, 5);
  const CountInt expected1 = engine.Count(q1, db1).count;

  // Hold q1's plan, then thrash it out of the cache repeatedly.
  CountingEngine::Planned held = engine.Plan(q1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(engine.Count(q2, db2).cache_hit);  // q1 just evicted it
    EXPECT_FALSE(engine.Count(q1, db1).cache_hit);
    EXPECT_EQ(engine.Count(q1, db1).count, expected1);
  }
  PlanCache::Stats stats = engine.cache_stats();
  EXPECT_EQ(stats.size, 1u);
  EXPECT_GT(stats.evictions, 10u);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);

  // The long-evicted plan still executes correctly.
  EXPECT_EQ(ExecutePlan(*held.plan, db1).count, expected1);
}

TEST(PlanCacheTest, LruEvictionBoundsTheCache) {
  EngineOptions options;
  options.plan_cache_capacity = 2;
  CountingEngine engine(options);
  engine.Plan(MakeQn1(2));
  engine.Plan(MakeQn1(3));
  engine.Plan(MakeQn1(4));  // evicts MakeQn1(2)
  EXPECT_EQ(engine.cache_stats().size, 2u);
  EXPECT_EQ(engine.cache_stats().evictions, 1u);
  EXPECT_FALSE(engine.Plan(MakeQn1(2)).cache_hit);
  EXPECT_TRUE(engine.Plan(MakeQn1(4)).cache_hit);
}

// --- execution ---------------------------------------------------------------

TEST(ExecutorTest, AcyclicPs13CountsThePaperFamily) {
  for (int h : {2, 3, 5}) {
    ConjunctiveQuery q = MakeQh2(h);
    Database db = MakeQh2Database(h);
    CountResult result = CountByAcyclicPs13(q, db);
    EXPECT_EQ(result.count, CountInt{1} << h) << "h=" << h;
    EXPECT_EQ(result.method, "acyclic-ps13");
  }
}

TEST(ExecutorTest, AcyclicPs13AgreesWithBruteForce) {
  int counted = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    RandomQueryParams qp;
    qp.num_vars = 6;
    qp.num_atoms = 5;
    qp.max_arity = 3;
    qp.num_free = 2;
    qp.force_acyclic = true;
    qp.seed = seed;
    ConjunctiveQuery q = MakeRandomQuery(qp);
    if (!IsAcyclic(q.BuildHypergraph())) continue;
    RandomDatabaseParams dp;
    dp.domain = 3;
    dp.tuples_per_relation = 10;
    dp.seed = seed * 911;
    Database db = MakeRandomDatabase(q, dp);
    ++counted;
    EXPECT_EQ(CountByAcyclicPs13(q, db).count, CountByBacktracking(q, db))
        << "seed " << seed;
  }
  EXPECT_GT(counted, 15);
}

TEST(ExecutorTest, EngineCountsQh2ViaPs13WhenWidthBudgetTooSmall) {
  const int h = 5;  // #-htw > 3, so the structural strategy fails
  CountingEngine engine;
  CountResult result = engine.Count(MakeQh2(h), MakeQh2Database(h));
  EXPECT_EQ(result.method, "acyclic-ps13");
  EXPECT_EQ(result.count, CountInt{1} << h);
}

TEST(ExecutorTest, Ps13SharpRelationsAreChargedToTheQueryBudget) {
  const int h = 12;
  const ConjunctiveQuery q = MakeQh2(h);
  const Database db = ColumnarCopy(MakeQh2Database(h));
  const PlannerOptions ps13 = *PlannerOptionsForStrategy("ps13");

  // What a warm count charges: the stored tables' indexes are cached by
  // the first count, so what is left is the #-relation arenas, charged
  // last (PS13 runs after every kernel operator of the count).
  EngineOptions tracking;
  tracking.max_query_bytes = 1ull << 40;
  CountingEngine tracker(tracking);
  ASSERT_TRUE(tracker.Count(q, db, ps13).ok());
  const CountResult full = tracker.Count(q, db, ps13);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full.method, "acyclic-ps13");
  ASSERT_GT(full.mem_charged_bytes, 0u);

  // One byte short: the refusal lands on an arena growth inside PS13.
  EngineOptions tight;
  tight.max_query_bytes = full.mem_charged_bytes - 1;
  Trace trace;
  const CountResult refused =
      CountingEngine(tight).Count(q, db, ps13, /*cancel=*/nullptr, &trace);
  EXPECT_EQ(refused.status, CountStatus::kResourceExhausted);
  std::vector<const TraceNode*> ps13_spans;
  CollectSpans(trace.root(), "ps13_count", &ps13_spans);
  EXPECT_EQ(ps13_spans.size(), 1u);

  CountingEngine unbudgeted;
  const CountResult next = unbudgeted.Count(q, db, ps13);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.count, CountInt{1} << h);
}

TEST(ExecutorTest, WarmQh2CountBuildsNoIndexOnItsStoredTables) {
  const int h = 12;
  const ConjunctiveQuery q = MakeQh2(h);
  const Database db = ColumnarCopy(MakeQh2Database(h));
  const PlannerOptions ps13 = *PlannerOptionsForStrategy("ps13");
  CountingEngine engine;
  ASSERT_EQ(engine.Count(q, db, ps13).count, CountInt{1} << h);

  // The tables the plan's atoms read: stored tables, and for s, whose
  // variable order permutes the stored columns, the stored table's alias.
  const ConjunctiveQuery& planned = engine.Plan(q, ps13).plan->query;
  auto cached_indexes = [&] {
    std::vector<std::size_t> counts;
    for (const Atom& atom : planned.atoms()) {
      counts.push_back(AtomToRel(atom, db).table()->CachedIndexCount());
    }
    return counts;
  };
  const std::vector<std::size_t> cold = cached_indexes();
  const Atom* s_atom = nullptr;
  for (const Atom& atom : planned.atoms()) {
    if (atom.relation == "s") s_atom = &atom;
  }
  ASSERT_NE(s_atom, nullptr);
  const Rel s_rel = AtomToRel(*s_atom, db);
  EXPECT_NE(s_rel.table(), db.ColumnarBacking("s"));
  EXPECT_GT(s_rel.table()->CachedIndexCount(), 0u);

  const CountResult warm = engine.Count(q, db, ps13);
  EXPECT_EQ(warm.method, "acyclic-ps13");
  EXPECT_EQ(warm.count, CountInt{1} << h);
  EXPECT_EQ(cached_indexes(), cold);
}

TEST(ExecutorTest, EngineCountsHybridFamilyViaSharpB) {
  PlannerOptions options;
  options.max_width = 2;
  CountingEngine engine;
  CountResult result =
      engine.Count(MakeQbarh2(3), MakeQbarh2Database(3, 4), options);
  EXPECT_EQ(result.count, CountInt{1} << 3);
  EXPECT_EQ(result.method.rfind("#b-hypertree", 0), 0u) << result.method;
}

TEST(ExecutorTest, FiniteHybridMaxBFallsThroughToTheNextWidth) {
  // Qbar^3_2 on random data: the best width-2 #b decomposition has b = 4,
  // the best width-3 one b = 2. A cap of 2 keeps both widths in the plan
  // and the executor answers from width 3.
  ConjunctiveQuery q = MakeQbarh2(3);
  RandomDatabaseParams dp;
  dp.domain = 2;
  dp.tuples_per_relation = 20;
  dp.seed = 1;
  Database db = MakeRandomDatabase(q, dp);
  PlannerOptions options;
  options.hybrid_max_b = 2;
  CountingPlan plan = MakePlan(q, options);
  ASSERT_EQ(plan.strategy, PlanStrategy::kSharpB);
  ASSERT_EQ(plan.sharp_b.size(), 2u);
  EXPECT_EQ(plan.sharp_b[0].k, 2);
  EXPECT_EQ(plan.sharp_b[1].k, 3);
  CountResult result = ExecutePlan(plan, db);
  EXPECT_EQ(result.method, "#b-hypertree(k=3,b=2)");
  EXPECT_EQ(result.count, CountByBacktracking(q, db));

  // A cap no candidate meets: the executor's backtracking fallback.
  options.hybrid_max_b = 1;
  plan = MakePlan(q, options);
  ASSERT_EQ(plan.strategy, PlanStrategy::kSharpB);
  result = ExecutePlan(plan, db);
  EXPECT_EQ(result.method, "backtracking");
  EXPECT_EQ(result.count, CountByBacktracking(q, db));
}

TEST(ExecutorTest, ProvenanceFieldsPopulated) {
  CountingEngine engine;
  ConjunctiveQuery q = MakeQ0();
  Q0DatabaseParams params;
  Database db = MakeQ0Database(params);
  CountResult cold = engine.Count(q, db);
  CountResult warm = engine.Count(q, db);
  EXPECT_GT(cold.planner_ms, 0.0);
  EXPECT_GT(cold.execute_ms, 0.0);
  // The cached call skips the width searches entirely.
  EXPECT_LT(warm.planner_ms, cold.planner_ms);
}

TEST(ExecutorTest, FilterProvenanceCountsMissHeavyProbesAndGatesOff) {
  ConjunctiveQuery q = Parse("Q(X,Z) <- r(X,Y), s(Y,Z)");
  Database db;
  Relation& r = db.DeclareRelation("r", 2);
  Relation& s = db.DeclareRelation("s", 2);
  // The query is one width-2 bag, materialized from its smaller guard: r's
  // 400 rows probe the 1000-row s, and 380 of their join-key values are
  // absent from s — a miss-heavy probe, the shape the filters absorb.
  for (Value i = 0; i < 400; ++i) r.AddRow({i, i + 1000});
  for (Value i = 0; i < 1000; ++i) s.AddRow({i + 1380, i});

  CountingEngine filtered;
  CountResult with = filtered.Count(q, db);
  EXPECT_EQ(with.count, CountInt{20});
  EXPECT_GT(with.filter_hits, 300u);
  EXPECT_GE(with.filter_passes, 20u);

  MissFilterDisableScope no_filters;
  CountingEngine unfiltered;
  CountResult without = unfiltered.Count(q, db);
  EXPECT_EQ(without.count, CountInt{20});  // filters never change results
  EXPECT_EQ(without.filter_hits, 0u);
  EXPECT_EQ(without.filter_passes, 0u);
}

// --- cross-engine agreement ---------------------------------------------------
//
// Every strategy must produce the identical CountInt on whatever the random
// generator produces; the engines differ only in cost, never in answers.

TEST(CrossEngineAgreementTest, AllStrategiesAgreeOnRandomInstances) {
  CountingEngine engine;  // default: all strategies enabled
  PlannerOptions sharp_only;
  sharp_only.enable_acyclic_ps13 = false;
  sharp_only.enable_hybrid = false;
  PlannerOptions hybrid;
  hybrid.enable_acyclic_ps13 = false;
  hybrid.enable_hybrid = true;

  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    RandomQueryParams qp;
    qp.num_vars = 6;
    qp.num_atoms = 5;
    qp.max_arity = 3;
    qp.num_free = 2;
    qp.num_relations = 3;
    qp.force_acyclic = (seed % 2 == 0);
    qp.seed = seed;
    ConjunctiveQuery q = MakeRandomQuery(qp);
    RandomDatabaseParams dp;
    dp.domain = 3;
    dp.tuples_per_relation = 10;
    dp.seed = seed * 7919;
    Database db = MakeRandomDatabase(q, dp);

    const CountInt expected = CountByBacktracking(q, db);
    EXPECT_EQ(CountByJoinProject(q, db), expected) << "seed " << seed;
    CountResult full = engine.Count(q, db);
    EXPECT_EQ(full.count, expected)
        << "seed " << seed << " via " << full.method;
    CountResult structural = engine.Count(q, db, sharp_only);
    EXPECT_EQ(structural.count, expected)
        << "seed " << seed << " via " << structural.method;
    CountResult hybrid_result = engine.Count(q, db, hybrid);
    EXPECT_EQ(hybrid_result.count, expected)
        << "seed " << seed << " via " << hybrid_result.method;
    if (IsAcyclic(q.BuildHypergraph()) &&
        q.free_vars().IsSubsetOf(q.AllVars())) {
      EXPECT_EQ(CountByAcyclicPs13(q, db).count, expected) << "seed " << seed;
    }
  }
}

TEST(CrossEngineAgreementTest, PaperQueriesAgreeAcrossStrategies) {
  CountingEngine engine;
  struct Case {
    ConjunctiveQuery q;
    Database db;
  };
  std::vector<Case> cases;
  Q0DatabaseParams q0p;
  q0p.seed = 3;
  cases.push_back({MakeQ0(), MakeQ0Database(q0p)});
  cases.push_back({MakeQ1(), MakeQ1Database(6, 14, 2)});
  cases.push_back({MakeQn1(4), MakeQn1RandomDatabase(6, 16, 5)});
  cases.push_back({MakeQh2(3), MakeQh2Database(3)});
  cases.push_back({MakeQbarh2(2), MakeQbarh2Database(2, 5)});

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CountInt expected = CountByBacktracking(cases[i].q, cases[i].db);
    CountResult result = engine.Count(cases[i].q, cases[i].db);
    EXPECT_EQ(result.count, expected)
        << "case " << i << " via " << result.method;
  }
}

}  // namespace
}  // namespace sharpcq
