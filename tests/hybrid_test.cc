#include <gtest/gtest.h>

#include "count/enumeration.h"
#include "gen/paper_queries.h"
#include "gen/random_gen.h"
#include "hybrid/degree.h"
#include "hybrid/degree_counting.h"
#include "hybrid/hybrid_counting.h"
#include "hybrid/min_degree_search.h"
#include "hybrid/optimal_decomp.h"
#include "hybrid/sharp_b.h"
#include "tests/test_util.h"
#include "util/trace.h"

namespace sharpcq {
namespace {

VarRelation MakeVarRel(IdSet vars, std::vector<std::vector<Value>> rows) {
  VarRelation r(std::move(vars));
  for (const auto& row : rows) r.rel().AddRow(std::span<const Value>(row));
  return r;
}

// --- degrees (Definition 6.1) -------------------------------------------------

TEST(DegreeTest, KeyGivesDegreeOne) {
  VarRelation r = MakeVarRel(IdSet{0, 1}, {{1, 10}, {2, 20}, {3, 30}});
  EXPECT_EQ(DegreeOfRelation(r, IdSet{0}), 1u);
}

TEST(DegreeTest, MultiExtensionCounted) {
  VarRelation r =
      MakeVarRel(IdSet{0, 1}, {{1, 10}, {1, 11}, {1, 12}, {2, 20}});
  EXPECT_EQ(DegreeOfRelation(r, IdSet{0}), 3u);
  // No free variables in the relation: the whole relation is one group.
  EXPECT_EQ(DegreeOfRelation(r, IdSet{9}), 4u);
  // All variables free: degree 1.
  EXPECT_EQ(DegreeOfRelation(r, IdSet{0, 1}), 1u);
  EXPECT_EQ(DegreeOfRelation(VarRelation(IdSet{0}), IdSet{0}), 0u);
}

TEST(DegreeTest, ExampleC2NaiveBoundIsM) {
  // Example C.2: bound(D_2, HD_2) = m = 2^h — the s-vertex covers no free
  // variable and its relation has m tuples.
  for (int h : {2, 3, 4}) {
    ConjunctiveQuery q = MakeQh2(h);
    Database db = MakeQh2Database(h);
    Hypertree naive = MakeQh2NaiveHypertree(q, h);
    EXPECT_EQ(HypertreeBound(q, db, naive),
              static_cast<std::size_t>(1) << h)
        << "h=" << h;
  }
}

TEST(DegreeTest, ExampleC2MergedBoundIsOne) {
  // Example C.2: bound(D_2, HD'_2) = 1 — X0 acts as a key after merging r
  // and s into one vertex.
  for (int h : {2, 3, 4}) {
    ConjunctiveQuery q = MakeQh2(h);
    Database db = MakeQh2Database(h);
    Hypertree merged = MakeQh2MergedHypertree(q, h);
    EXPECT_EQ(HypertreeBound(q, db, merged), 1u) << "h=" << h;
  }
}

// --- Theorem 6.2: PS13 over a hypertree --------------------------------------

TEST(Ps13HypertreeTest, BothQh2DecompositionsCountM) {
  for (int h : {2, 3}) {
    ConjunctiveQuery q = MakeQh2(h);
    Database db = MakeQh2Database(h);
    CountInt expected = CountInt{1} << h;
    Ps13Stats naive_stats, merged_stats;
    EXPECT_EQ(CountByPs13OnHypertree(q, db, MakeQh2NaiveHypertree(q, h),
                                     &naive_stats)
                  .count,
              expected);
    EXPECT_EQ(CountByPs13OnHypertree(q, db, MakeQh2MergedHypertree(q, h),
                                     &merged_stats)
                  .count,
              expected);
    // The naive decomposition pays the degree blowup: its #-relation sets
    // grow with m = 2^h, while the merged one stays at singleton sets.
    EXPECT_GT(naive_stats.max_set_size, merged_stats.max_set_size);
    EXPECT_EQ(merged_stats.max_set_size, 1u);
  }
}

TEST(Ps13HypertreeTest, AgreesWithBruteForceOnRandomInstances) {
  int counted = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RandomQueryParams qp;
    qp.num_vars = 6;
    qp.num_atoms = 5;
    qp.max_arity = 3;
    qp.num_free = 2;
    qp.seed = seed;
    ConjunctiveQuery q = MakeRandomQuery(qp);
    RandomDatabaseParams dp;
    dp.domain = 3;
    dp.tuples_per_relation = 9;
    dp.seed = seed * 31337;
    Database db = MakeRandomDatabase(q, dp);
    auto ht = FindHypertreeDecomposition(q, 3);
    if (!ht.has_value()) continue;
    ++counted;
    EXPECT_EQ(CountByPs13OnHypertree(q, db, *ht).count,
              CountByBacktracking(q, db))
        << "seed " << seed;
  }
  EXPECT_GT(counted, 12);
}

// --- Theorem C.5: D-optimal decompositions -----------------------------------

TEST(DOptimalTest, FindsBoundOneForQh2AtWidthTwo) {
  for (int h : {2, 3}) {
    ConjunctiveQuery q = MakeQh2(h);
    Database db = MakeQh2Database(h);
    auto result = FindDOptimalDecomposition(q, db, 2);
    ASSERT_TRUE(result.has_value()) << "h=" << h;
    EXPECT_EQ(result->bound, 1u) << "h=" << h;
    EXPECT_LE(result->hypertree.width(), 2);
  }
}

TEST(DOptimalTest, WidthOneCannotBeatBoundM) {
  // Over width-1 decompositions the degree value stays m (Example C.2:
  // "there is no width-1 hypertree decomposition with bound < m").
  const int h = 3;
  ConjunctiveQuery q = MakeQh2(h);
  Database db = MakeQh2Database(h);
  auto result = FindDOptimalDecomposition(q, db, 1);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->bound, static_cast<std::size_t>(1) << h);
}

TEST(DOptimalTest, ReturnsValidDecomposition) {
  ConjunctiveQuery q = MakeQ0();
  Q0DatabaseParams params;
  Database db = MakeQ0Database(params);
  auto result = FindDOptimalDecomposition(q, db, 2);
  ASSERT_TRUE(result.has_value());
  std::string why;
  EXPECT_TRUE(IsGeneralizedHypertreeDecomposition(result->hypertree, q, &why))
      << why;
}

// --- Definition 6.4 / Theorems 6.6, 6.7: #b decompositions -------------------

TEST(SharpBTest, QbarFamilyHasWidthTwoBoundOne) {
  // Example 6.5: for every h, (Qbar^h_2, Dbar^m_2) has a width-2
  // #1-generalized hypertree decomposition with S-bar = free ∪ {Y0..Yh}.
  for (int h : {2, 3}) {
    ConjunctiveQuery q = MakeQbarh2(h);
    Database db = MakeQbarh2Database(h, /*z_domain=*/6);
    auto d = FindSharpBDecomposition(q, db, 2);
    ASSERT_TRUE(d.has_value()) << "h=" << h;
    EXPECT_EQ(d->bound, 1u) << "h=" << h;
    EXPECT_LE(d->decomposition.width, 2) << "h=" << h;
    // The pseudo-free set extends the free variables by the Y block (Z
    // stays structural).
    EXPECT_TRUE(q.free_vars().IsSubsetOf(d->s_bar));
    EXPECT_FALSE(d->s_bar.Contains(q.VarByName("Z")));
  }
}

TEST(SharpBTest, PurelyStructuralCaseIsSubsumed) {
  // When the query already has small #-htw, S-bar = free(Q) works and the
  // search must not do worse than the structural method.
  ConjunctiveQuery q = MakeQ1();
  Database db = MakeQ1Database(5, 12, 3);
  auto d = FindSharpBDecomposition(q, db, 2);
  ASSERT_TRUE(d.has_value());
  EXPECT_LE(d->decomposition.width, 2);
}

TEST(SharpBTest, HybridCountMatchesBruteForceOnQbar) {
  for (int h : {2, 3}) {
    for (int z : {2, 5}) {
      ConjunctiveQuery q = MakeQbarh2(h);
      Database db = MakeQbarh2Database(h, z);
      auto result = CountBySharpBDecomposition(q, db, 2);
      ASSERT_TRUE(result.has_value()) << "h=" << h << " z=" << z;
      EXPECT_EQ(result->count, CountInt{1} << h) << "h=" << h << " z=" << z;
      EXPECT_EQ(result->count, CountByBacktracking(q, db));
    }
  }
}

TEST(SharpBTest, HybridCountOnQh2UsesPseudoFreeYs) {
  // The acyclic Example C.1 family also benefits: treating the Y block as
  // pseudo-free yields bound 1 at width 2.
  for (int h : {2, 3}) {
    ConjunctiveQuery q = MakeQh2(h);
    Database db = MakeQh2Database(h);
    auto result = CountBySharpBDecomposition(q, db, 2);
    ASSERT_TRUE(result.has_value()) << "h=" << h;
    EXPECT_EQ(result->count, CountInt{1} << h) << "h=" << h;
  }
}

TEST(SharpBTest, AgreesWithBruteForceOnRandomInstances) {
  int counted = 0;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    RandomQueryParams qp;
    qp.num_vars = 5;
    qp.num_atoms = 4;
    qp.max_arity = 3;
    qp.num_free = 2;
    qp.seed = seed;
    ConjunctiveQuery q = MakeRandomQuery(qp);
    RandomDatabaseParams dp;
    dp.domain = 3;
    dp.tuples_per_relation = 8;
    dp.seed = seed * 104729;
    Database db = MakeRandomDatabase(q, dp);
    auto result = CountBySharpBDecomposition(q, db, 2);
    if (!result.has_value()) continue;
    ++counted;
    EXPECT_EQ(result->count, CountByBacktracking(q, db)) << "seed " << seed;
  }
  EXPECT_GT(counted, 8);
}

// --- the #b search split into its query-only and data halves -----------------

// The data step as it ran with one DegreeOracle per core, each joining its
// guard views anew: the reference for the shared oracle. Adds the views
// the fresh oracles joined to *views_joined.
std::optional<SharpBDecomposition> PerCoreOracleDataStep(
    const ConjunctiveQuery& q, const Database& db,
    const SharpBCandidates& width, std::size_t max_b,
    std::size_t* views_joined) {
  std::optional<SharpBDecomposition> best;
  for (const SharpBCandidate& candidate : width.candidates) {
    const std::size_t cap = best.has_value() ? best->bound - 1 : max_b;
    for (const SharpBCore& c : candidate.cores) {
      DegreeOracle oracle(width.views, q, db, q.free_vars());
      std::optional<MinDegreeResult> found = FindMinDegreeTreeProjection(
          c.cover, c.existence, candidate.s_bar, cap, &oracle);
      *views_joined += oracle.views_joined();
      if (!found.has_value()) continue;
      const std::size_t bound = std::max<std::size_t>(found->bound, 1);
      if (!best.has_value() || bound < best->bound) {
        SharpDecomposition d{c.core, std::move(found->tree), width.views, 0};
        d.width = d.tree.Width(width.views);
        best = SharpBDecomposition{candidate.s_bar, std::move(d), bound};
      }
      break;
    }
    if (best.has_value() && best->bound <= 1) break;
  }
  return best;
}

void ExpectSameDecomposition(const SharpBDecomposition& a,
                             const SharpBDecomposition& b) {
  EXPECT_EQ(a.s_bar, b.s_bar);
  EXPECT_EQ(a.bound, b.bound);
  EXPECT_EQ(a.decomposition.core.atoms(), b.decomposition.core.atoms());
  EXPECT_EQ(a.decomposition.core.free_vars(),
            b.decomposition.core.free_vars());
  EXPECT_EQ(a.decomposition.width, b.decomposition.width);
  EXPECT_EQ(a.decomposition.tree.bags, b.decomposition.tree.bags);
  EXPECT_EQ(a.decomposition.tree.view_ids, b.decomposition.tree.view_ids);
}

// Runs the #b search at widths 2..max_width three ways: the standalone
// search, the data step over candidates collected up front (what a plan
// stores), and that step with a fresh oracle per core. All must pick the
// same S-bar, core, b, tree and count at the first width that succeeds,
// which is returned (0 when none does).
int ExpectStoredCandidatesMatchStandalone(const ConjunctiveQuery& q,
                                          const Database& db,
                                          const SharpBOptions& options,
                                          int max_width,
                                          const std::string& label) {
  for (int k = 2; k <= max_width; ++k) {
    SCOPED_TRACE(label + " k=" + std::to_string(k));
    std::optional<SharpBDecomposition> standalone =
        FindSharpBDecomposition(q, db, k, options);
    SharpBCandidates candidates = CollectSharpBCandidates(q, k, options);
    EXPECT_EQ(candidates.k, k);
    std::optional<SharpBDecomposition> stored =
        FindSharpBDecomposition(q, db, candidates, options.max_b);
    std::size_t views_joined = 0;
    std::optional<SharpBDecomposition> per_core = PerCoreOracleDataStep(
        q, db, candidates, options.max_b, &views_joined);
    EXPECT_EQ(stored.has_value(), standalone.has_value());
    EXPECT_EQ(stored.has_value(), per_core.has_value());
    if (!stored.has_value() || !standalone.has_value()) continue;
    ExpectSameDecomposition(*stored, *standalone);
    if (per_core.has_value()) ExpectSameDecomposition(*stored, *per_core);
    EXPECT_EQ(CountViaSharpB(q, db, *stored).count,
              CountViaSharpB(q, db, *standalone).count);
    return k;
  }
  return 0;
}

TEST(SharpBSplitTest, StoredCandidatesMatchStandaloneOnQbar) {
  for (int h = 2; h <= 5; ++h) {
    for (int z : {2, 6, 40}) {
      ConjunctiveQuery q = MakeQbarh2(h);
      Database db = MakeQbarh2Database(h, z);
      EXPECT_EQ(ExpectStoredCandidatesMatchStandalone(
                    q, db, {}, 2,
                    "Qbar h=" + std::to_string(h) + " z=" + std::to_string(z)),
                2);
    }
  }
}

TEST(SharpBSplitTest, StoredCandidatesMatchStandaloneOnQh2) {
  for (int h = 4; h <= 8; ++h) {
    EXPECT_EQ(ExpectStoredCandidatesMatchStandalone(
                  MakeQh2(h), MakeQh2Database(h), {}, 2,
                  "Qh2 h=" + std::to_string(h)),
              2);
  }
}

TEST(SharpBSplitTest, StoredCandidatesMatchStandaloneOnRandomInstances) {
  // The instances of SharpBTest.AgreesWithBruteForceOnRandomInstances.
  int decomposed = 0;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    RandomQueryParams qp;
    qp.num_vars = 5;
    qp.num_atoms = 4;
    qp.max_arity = 3;
    qp.num_free = 2;
    qp.seed = seed;
    ConjunctiveQuery q = MakeRandomQuery(qp);
    RandomDatabaseParams dp;
    dp.domain = 3;
    dp.tuples_per_relation = 8;
    dp.seed = seed * 104729;
    Database db = MakeRandomDatabase(q, dp);
    if (ExpectStoredCandidatesMatchStandalone(
            q, db, {}, 2, "seed " + std::to_string(seed)) != 0) {
      ++decomposed;
    }
  }
  EXPECT_GT(decomposed, 8);
}

TEST(SharpBSplitTest, FiniteBoundCapForcesWidthThree) {
  // Qbar^3_2 on random data: the best width-2 decomposition has b = 4 and
  // the best width-3 one b = 2, so a cap of 2 rejects every width-2
  // candidate in both searches.
  ConjunctiveQuery q = MakeQbarh2(3);
  RandomDatabaseParams dp;
  dp.domain = 2;
  dp.tuples_per_relation = 20;
  dp.seed = 1;
  Database db = MakeRandomDatabase(q, dp);
  SharpBOptions options;
  ASSERT_EQ(ExpectStoredCandidatesMatchStandalone(q, db, options, 3, "uncapped"),
            2);
  options.max_b = 2;
  EXPECT_EQ(ExpectStoredCandidatesMatchStandalone(q, db, options, 3, "capped"),
            3);
  std::optional<SharpBDecomposition> d = FindSharpBDecomposition(q, db, 3, options);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->bound, 2u);
  EXPECT_EQ(CountViaSharpB(q, db, *d).count, CountByBacktracking(q, db));
}

TEST(SharpBSplitTest, SharedOracleJoinsEachGuardViewOncePerWidth) {
  // The data of FiniteBoundCapForcesWidthThree: b = 4 at width 2, so the
  // step never stops early and tries every candidate.
  ConjunctiveQuery q = MakeQbarh2(3);
  RandomDatabaseParams dp;
  dp.domain = 2;
  dp.tuples_per_relation = 20;
  dp.seed = 1;
  Database db = MakeRandomDatabase(q, dp);
  SharpBCandidates candidates = CollectSharpBCandidates(q, 2, {});
  ASSERT_GT(candidates.candidates.size(), 1u);
  Trace trace;
  std::optional<SharpBDecomposition> shared;
  {
    TraceScope scope(&trace);
    shared = FindSharpBDecomposition(q, db, candidates, SIZE_MAX);
  }
  trace.Finish();
  ASSERT_TRUE(shared.has_value());
  EXPECT_EQ(shared->bound, 4u);
  std::vector<const TraceNode*> searches;
  CollectSpans(trace.root(), "sharp_b_search", &searches);
  ASSERT_EQ(searches.size(), 1u);
  const std::size_t joined = std::stoul(NoteOf(*searches[0], "views_joined"));
  EXPECT_GT(joined, 0u);
  EXPECT_LE(joined, candidates.views.size());

  // A fresh oracle per core joins the same views again and again, and
  // chooses the same decomposition.
  std::size_t per_core_joined = 0;
  std::optional<SharpBDecomposition> per_core = PerCoreOracleDataStep(
      q, db, candidates, SIZE_MAX, &per_core_joined);
  ASSERT_TRUE(per_core.has_value());
  ExpectSameDecomposition(*shared, *per_core);
  EXPECT_GT(per_core_joined, joined);
}

TEST(SharpBSplitTest, CandidatesDependOnTheQueryAlone) {
  // Qbar^4_2: sets are enumerated by increasing size. The first one with a
  // width-2 core extends free(Q) by part of the Y block and keeps Z
  // structural (Example 6.5), whatever the data. Every stored existence
  // tree is a tree projection of its core's cover.
  ConjunctiveQuery q = MakeQbarh2(4);
  SharpBCandidates candidates = CollectSharpBCandidates(q, 2, {});
  ASSERT_FALSE(candidates.candidates.empty());
  const SharpBCandidate& first = candidates.candidates.front();
  EXPECT_TRUE(q.free_vars().IsSubsetOf(first.s_bar));
  EXPECT_FALSE(first.s_bar.Contains(q.VarByName("Z")));
  for (const SharpBCandidate& candidate : candidates.candidates) {
    EXPECT_GE(candidate.s_bar.size(), first.s_bar.size());
    ASSERT_FALSE(candidate.cores.empty());
    for (const SharpBCore& core : candidate.cores) {
      EXPECT_TRUE(
          IsTreeProjection(core.existence, core.cover, candidates.views));
    }
  }
}

TEST(SharpBTest, BoundCapRejects) {
  // Qbar with structural-only width 2 is impossible (frontier clique), and
  // with a bound cap of 0 nothing qualifies... use max_b = 0 is meaningless
  // (bounds are >= 1); instead check that an impossible width fails.
  ConjunctiveQuery q = MakeQbarh2(3);
  Database db = MakeQbarh2Database(3, 2);
  EXPECT_FALSE(FindSharpBDecomposition(q, db, 1).has_value());
}

}  // namespace
}  // namespace sharpcq
