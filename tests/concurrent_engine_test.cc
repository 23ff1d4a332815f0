// Concurrency stress for the shared engine: many threads hammering one
// CountingEngine on overlapping canonical forms. Counts must stay exact,
// the sharded plan cache's statistics must stay internally consistent
// (hits + misses == lookups, per-shard sums == aggregate), and plans must
// survive eviction pressure while other threads still hold them. Run under
// ThreadSanitizer in CI (.github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "count/enumeration.h"
#include "engine/engine.h"
#include "gen/paper_queries.h"
#include "query/parser.h"
#include "util/thread_pool.h"

namespace sharpcq {
namespace {

ConjunctiveQuery Parse(const std::string& text) {
  std::string error;
  auto q = ParseQuery(text, nullptr, &error);
  EXPECT_TRUE(q.has_value()) << text << ": " << error;
  return *q;
}

// The overlapping-canonical-form workload: a few query shapes, each in
// several renamed/reordered spellings that canonicalize to the same key, so
// concurrent planners collide on the same cache entries.
struct Workload {
  std::vector<ConjunctiveQuery> variants;  // all spellings, round-robined
  std::vector<CountInt> expected;          // aligned with variants
  std::vector<Database> databases;         // one per shape
  std::vector<std::size_t> db_of;          // variant -> database index
};

Workload MakeWorkload() {
  Workload w;
  auto add_shape = [&w](std::vector<ConjunctiveQuery> spellings, Database db) {
    const std::size_t db_index = w.databases.size();
    w.databases.push_back(std::move(db));
    for (ConjunctiveQuery& q : spellings) {
      w.expected.push_back(CountByBacktracking(q, w.databases[db_index]));
      w.variants.push_back(std::move(q));
      w.db_of.push_back(db_index);
    }
  };

  // Shape 1: the square Q1 in three spellings.
  add_shape(
      {Parse("Q(A,C) <- s1(A,B), s2(B,C), s3(C,D), s4(D,A)"),
       Parse("Q(X,Z) <- s3(Z,W), s4(W,X), s1(X,Y), s2(Y,Z)"),
       Parse("Q(U,V) <- s2(T,V), s1(U,T), s4(S,U), s3(V,S)")},
      MakeQ1Database(6, 18, 11));

  // Shape 2: a path with two spellings (width-1 structural plan).
  {
    ConjunctiveQuery a = Parse("Q(X,Z) <- r(X,Y), s(Y,Z)");
    ConjunctiveQuery b = Parse("Q(A,C) <- s(B,C), r(A,B)");
    Database db;
    for (Value i = 0; i < 5; ++i) {
      for (Value j = 0; j < 5; ++j) {
        if ((i + j) % 2 == 0) db.AddTuple("r", {i, j});
        if ((i * j) % 3 == 0) db.AddTuple("s", {i, j});
      }
    }
    add_shape({std::move(a), std::move(b)}, std::move(db));
  }

  // Shape 3: the acyclic unbounded-width family (PS13 plan).
  add_shape({MakeQh2(4)}, MakeQh2Database(4));

  return w;
}

TEST(ConcurrentEngineTest, EightThreadsOneEngineOverlappingShapes) {
  const int kThreads = 8;
  const int kItersPerThread = 60;

  Workload w = MakeWorkload();
  CountingEngine engine;

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&w, &engine, &failures, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        // Interleave shapes differently per thread so lookups overlap.
        const std::size_t v =
            (static_cast<std::size_t>(t) * 7 + static_cast<std::size_t>(i)) %
            w.variants.size();
        CountResult result =
            engine.Count(w.variants[v], w.databases[w.db_of[v]]);
        if (result.count != w.expected[v]) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  PlanCache::Stats stats = engine.cache_stats();
  const std::size_t total_counts =
      static_cast<std::size_t>(kThreads) * kItersPerThread;
  EXPECT_EQ(stats.lookups, total_counts);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  // Three distinct canonical shapes; concurrent first-misses may plan the
  // same shape more than once, but the cache never holds duplicates.
  EXPECT_EQ(stats.size, 3u);
  EXPECT_GE(stats.misses, 3u);
  EXPECT_GE(stats.insertions, stats.size);
  EXPECT_LE(stats.insertions, stats.misses);

  // Per-shard counters must sum to the aggregate exactly.
  std::size_t shard_lookups = 0, shard_hits = 0, shard_misses = 0;
  for (const PlanCache::ShardStats& s : stats.shards) {
    EXPECT_EQ(s.hits + s.misses, s.lookups);
    shard_lookups += s.lookups;
    shard_hits += s.hits;
    shard_misses += s.misses;
  }
  EXPECT_EQ(shard_lookups, stats.lookups);
  EXPECT_EQ(shard_hits, stats.hits);
  EXPECT_EQ(shard_misses, stats.misses);
}

TEST(ConcurrentEngineTest, SharpBPlanIsSharedAcrossThreads) {
  // A #b plan carries the search's query-only half; concurrent counts run
  // the data half over the same stored candidates, without locks.
  ConjunctiveQuery q = MakeQbarh2(3);
  Database db = MakeQbarh2Database(3, 4);
  CountingEngine engine;
  CountingEngine::Planned planned = engine.Plan(q);
  ASSERT_EQ(planned.plan->strategy, PlanStrategy::kSharpB);
  const CountInt expected = CountByBacktracking(q, db);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        if (ExecutePlan(*planned.plan, db).count != expected) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrentEngineTest, CountBatchMatchesSequentialAndSharesPlans) {
  EngineOptions options;
  options.batch_threads = 8;
  CountingEngine engine(options);
  Workload w = MakeWorkload();

  std::vector<CountJob> jobs;
  for (int repeat = 0; repeat < 10; ++repeat) {
    for (std::size_t v = 0; v < w.variants.size(); ++v) {
      jobs.push_back({w.variants[v], &w.databases[w.db_of[v]]});
    }
  }
  std::vector<CountResult> results = engine.CountBatch(jobs);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].count, w.expected[i % w.variants.size()])
        << "job " << i << " via " << results[i].method;
  }
  PlanCache::Stats stats = engine.cache_stats();
  EXPECT_EQ(stats.lookups, jobs.size());
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_EQ(stats.size, 3u);
}

TEST(ConcurrentEngineTest, CountAsyncDeliversExactCounts) {
  EngineOptions options;
  options.batch_threads = 4;
  CountingEngine engine(options);
  Workload w = MakeWorkload();

  std::vector<std::future<CountResult>> futures;
  for (int repeat = 0; repeat < 5; ++repeat) {
    for (std::size_t v = 0; v < w.variants.size(); ++v) {
      futures.push_back(
          engine.CountAsync(w.variants[v], w.databases[w.db_of[v]]));
    }
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().count, w.expected[i % w.variants.size()]);
  }
}

TEST(ConcurrentEngineTest, FilterTalliesStayPerQueryUnderConcurrency) {
  // The probe-filter provenance in CountResult must describe that query's
  // execution alone. This workload's tallies are deterministic — the same
  // query on the same database always probes the same rows — so if any
  // result under concurrency reports more (or fewer) probes than the solo
  // run, executions leaked tallies into each other (the old process-global
  // counters did exactly that).
  CountingEngine engine;
  Database db = MakeQ1Database(80, 900, 11);
  ConjunctiveQuery q = MakeQ1();

  CountResult solo = engine.Count(q, db);
  ASSERT_GT(solo.filter_hits, 0u);
  ASSERT_GT(solo.filter_passes, 0u);

  const int kThreads = 8;
  const int kItersPerThread = 20;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, &db, &q, &solo, &mismatches] {
      for (int i = 0; i < kItersPerThread; ++i) {
        CountResult result = engine.Count(q, db);
        if (result.count != solo.count ||
            result.filter_hits != solo.filter_hits ||
            result.filter_passes != solo.filter_passes) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrentEngineTest, EvictedPlansSurviveWhileExecuting) {
  // capacity=1 collapses to one shard, so every new shape evicts the
  // previous plan; threads alternating two shapes thrash the cache while
  // holding each other's evicted plans through the shared_ptr.
  EngineOptions options;
  options.plan_cache_capacity = 1;
  CountingEngine engine(options);
  Workload w = MakeWorkload();

  const int kThreads = 8;
  const int kItersPerThread = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&w, &engine, &failures, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const std::size_t v =
            (static_cast<std::size_t>(t) + static_cast<std::size_t>(i)) %
            w.variants.size();
        CountResult result =
            engine.Count(w.variants[v], w.databases[w.db_of[v]]);
        if (result.count != w.expected[v]) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  PlanCache::Stats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  const int kTasks = 2000;
  std::atomic<int> ran{0};
  std::vector<std::promise<void>> done(kTasks);
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) futures.push_back(done[i].get_future());
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&ran, &done, i] {
      ran.fetch_add(1);
      done[i].set_value();
    });
  }
  for (std::future<void>& f : futures) f.wait();
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPoolTest, NestedSubmissionsComplete) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  std::promise<void> all_done;
  std::future<void> all_done_future = all_done.get_future();
  const int kOuter = 16;
  const int kInner = 8;
  for (int i = 0; i < kOuter; ++i) {
    pool.Submit([&pool, &ran, &all_done] {
      for (int j = 0; j < kInner; ++j) {
        pool.Submit([&ran, &all_done] {
          if (ran.fetch_add(1) + 1 == kOuter * kInner) all_done.set_value();
        });
      }
    });
  }
  all_done_future.wait();
  EXPECT_EQ(ran.load(), kOuter * kInner);
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 500; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }  // ~ThreadPool joins after completing queued work
  EXPECT_EQ(ran.load(), 500);
}

}  // namespace
}  // namespace sharpcq
