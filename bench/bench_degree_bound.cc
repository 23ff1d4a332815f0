// E10, E11, E17 (DESIGN.md) — Theorem 6.2, Example C.1/C.2 (Figure 12),
// Theorem C.5.
//
// On (Q^h_2, D_2) with m = 2^h:
//   - the natural width-1 decomposition HD_2 has bound(D_2, HD_2) = m,
//   - the merged width-2 decomposition HD'_2 has bound 1,
//   - the D-optimal search (Theorem C.5) finds bound 1 automatically at
//     k = 2 and is stuck at bound m for k = 1.
// The PS13 runtime gap is exhibited by rooting the width-1 decomposition at
// the s-vertex (no free variables there): its #-relation then splits
// against the m root groups, paying the degree, while HD'_2 stays flat.
//
// Counters: m, bound, ps13_sets, ps13_set_size.

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include "count/enumeration.h"
#include "engine/executor.h"
#include "gen/paper_queries.h"
#include "hybrid/degree.h"
#include "hybrid/degree_counting.h"
#include "hybrid/optimal_decomp.h"
#include "tests/test_util.h"
#include "util/check.h"

namespace sharpcq {
namespace {

// The width-1 decomposition of Figure 12(c) re-rooted at the s-vertex: the
// root covers no free variable, which is exactly the degenerate case
// Example C.2 warns about.
Hypertree SRootedNaiveHypertree(const ConjunctiveQuery& q, int h) {
  Hypertree ht;
  std::vector<int> parent;
  // Vertex 0 (root): {Y0..Yh} guarded by s (atom 1).
  IdSet s_chi{q.VarByName("Y0")};
  for (int i = 1; i <= h; ++i) {
    s_chi.Insert(q.VarByName("Y" + std::to_string(i)));
  }
  ht.chi.push_back(s_chi);
  ht.lambda.push_back({1});
  parent.push_back(-1);
  // Vertex 1: {X0, Y1..Yh} guarded by r (atom 0), child of the root.
  IdSet r_chi{q.VarByName("X0")};
  for (int i = 1; i <= h; ++i) {
    r_chi.Insert(q.VarByName("Y" + std::to_string(i)));
  }
  ht.chi.push_back(r_chi);
  ht.lambda.push_back({0});
  parent.push_back(0);
  // Vertices 2..h+1: {Xi, Yi} guarded by w_i, children of the r vertex.
  for (int i = 1; i <= h; ++i) {
    ht.chi.push_back(IdSet{q.VarByName("X" + std::to_string(i)),
                           q.VarByName("Y" + std::to_string(i))});
    ht.lambda.push_back({1 + i});
    parent.push_back(1);
  }
  ht.shape = TreeShape::FromParents(std::move(parent));
  return ht;
}

void BM_ExampleC2_BoundOfNaiveHD(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  ConjunctiveQuery q = MakeQh2(h);
  Database db = MakeQh2Database(h);
  Hypertree naive = MakeQh2NaiveHypertree(q, h);
  std::size_t bound = 0;
  for (auto _ : state) {
    bound = HypertreeBound(q, db, naive);
    benchmark::DoNotOptimize(bound);
  }
  SHARPCQ_CHECK(bound == (static_cast<std::size_t>(1) << h));
  state.counters["m"] = static_cast<double>(std::size_t{1} << h);
  state.counters["bound"] = static_cast<double>(bound);
}
BENCHMARK(BM_ExampleC2_BoundOfNaiveHD)->DenseRange(2, 10, 2);

void BM_ExampleC2_BoundOfMergedHD(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  ConjunctiveQuery q = MakeQh2(h);
  Database db = MakeQh2Database(h);
  Hypertree merged = MakeQh2MergedHypertree(q, h);
  std::size_t bound = 0;
  for (auto _ : state) {
    bound = HypertreeBound(q, db, merged);
    benchmark::DoNotOptimize(bound);
  }
  SHARPCQ_CHECK(bound == 1);
  state.counters["m"] = static_cast<double>(std::size_t{1} << h);
  state.counters["bound"] = static_cast<double>(bound);
}
BENCHMARK(BM_ExampleC2_BoundOfMergedHD)->DenseRange(2, 10, 2);

void BM_Theorem62_Ps13OnSRootedNaive(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  ConjunctiveQuery q = MakeQh2(h);
  Database db = MakeQh2Database(h);
  Hypertree naive = SRootedNaiveHypertree(q, h);
  Ps13Stats stats;
  CountInt answers = 0;
  for (auto _ : state) {
    answers = CountByPs13OnHypertree(q, db, naive, &stats).count;
    benchmark::DoNotOptimize(answers);
  }
  SHARPCQ_CHECK(answers == (CountInt{1} << h));
  state.counters["m"] = static_cast<double>(std::size_t{1} << h);
  state.counters["ps13_sets"] = static_cast<double>(stats.max_sets);
  state.counters["ps13_set_size"] = static_cast<double>(stats.max_set_size);
}
BENCHMARK(BM_Theorem62_Ps13OnSRootedNaive)->DenseRange(2, 10, 2);

void BM_Theorem62_Ps13OnMerged(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  ConjunctiveQuery q = MakeQh2(h);
  Database db = MakeQh2Database(h);
  Hypertree merged = MakeQh2MergedHypertree(q, h);
  Ps13Stats stats;
  CountInt answers = 0;
  for (auto _ : state) {
    answers = CountByPs13OnHypertree(q, db, merged, &stats).count;
    benchmark::DoNotOptimize(answers);
  }
  SHARPCQ_CHECK(answers == (CountInt{1} << h));
  state.counters["m"] = static_cast<double>(std::size_t{1} << h);
  state.counters["ps13_sets"] = static_cast<double>(stats.max_sets);
  state.counters["ps13_set_size"] = static_cast<double>(stats.max_set_size);
}
BENCHMARK(BM_Theorem62_Ps13OnMerged)->DenseRange(2, 10, 2);

void BM_TheoremC5_DOptimalAtWidth2(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  ConjunctiveQuery q = MakeQh2(h);
  Database db = MakeQh2Database(h);
  std::size_t bound = 0;
  for (auto _ : state) {
    auto result = FindDOptimalDecomposition(q, db, 2);
    SHARPCQ_CHECK(result.has_value());
    bound = result->bound;
    benchmark::DoNotOptimize(result);
  }
  SHARPCQ_CHECK(bound == 1);
  state.counters["m"] = static_cast<double>(std::size_t{1} << h);
  state.counters["bound"] = static_cast<double>(bound);
}
BENCHMARK(BM_TheoremC5_DOptimalAtWidth2)->DenseRange(2, 8, 2);

void BM_TheoremC5_DOptimalAtWidth1(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  ConjunctiveQuery q = MakeQh2(h);
  Database db = MakeQh2Database(h);
  std::size_t bound = 0;
  for (auto _ : state) {
    auto result = FindDOptimalDecomposition(q, db, 1);
    SHARPCQ_CHECK(result.has_value());
    bound = result->bound;
    benchmark::DoNotOptimize(result);
  }
  SHARPCQ_CHECK(bound == (static_cast<std::size_t>(1) << h));
  state.counters["m"] = static_cast<double>(std::size_t{1} << h);
  state.counters["bound"] = static_cast<double>(bound);
}
BENCHMARK(BM_TheoremC5_DOptimalAtWidth1)->DenseRange(2, 8, 2);

// E17: PS13 acyclic counting scaling in the database size m on the merged
// decomposition (linear shape) — the baseline PS13 behaviour of Section C.
void BM_Ps13_AcyclicScalingInM(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  ConjunctiveQuery q = MakeQh2(h);
  Database db = MakeQh2Database(h);
  Hypertree merged = MakeQh2MergedHypertree(q, h);
  CountInt answers = 0;
  for (auto _ : state) {
    answers = CountByPs13OnHypertree(q, db, merged).count;
    benchmark::DoNotOptimize(answers);
  }
  state.counters["m"] = static_cast<double>(std::size_t{1} << h);
  state.counters["answers_per_m"] = 1.0;
}
BENCHMARK(BM_Ps13_AcyclicScalingInM)->DenseRange(4, 12, 2);

// The engine's kAcyclicPs13 path on Q^h_2, as analytic_repeat runs it: the
// join tree of the query's own atoms, full-reduced, then PS13. The r-vertex
// holds m singleton sets and every child step semijoins all of them, so the
// cost is the #-relation work per step, not the degree.
void BM_Ps13_Qh2Atoms(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  ConjunctiveQuery q = MakeQh2(h);
  // Columnar, as a snapshot-served catalog holds it: the atoms share the
  // stored tables, so their indexes stay cached across counts.
  Database db = ColumnarCopy(MakeQh2Database(h));
  CountInt answers = 0;
  for (auto _ : state) {
    answers = CountByAcyclicPs13(q, db).count;
    benchmark::DoNotOptimize(answers);
  }
  SHARPCQ_CHECK(answers == (CountInt{1} << h));
  state.counters["m"] = static_cast<double>(std::size_t{1} << h);
}
BENCHMARK(BM_Ps13_Qh2Atoms)->DenseRange(8, 12, 2);

}  // namespace
}  // namespace sharpcq

SHARPCQ_BENCH_MAIN();
