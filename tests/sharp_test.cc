#include <gtest/gtest.h>

#include "core/sharp_counting.h"
#include "core/sharp_decomposition.h"
#include "count/enumeration.h"
#include "engine/engine.h"
#include "gen/paper_queries.h"
#include "gen/random_gen.h"
#include "solver/core.h"
#include "tests/test_util.h"

namespace sharpcq {
namespace {

// --- #-hypertree width of the paper's queries --------------------------------

TEST(SharpWidthTest, Q0HasSharpHypertreeWidthTwo) {
  // Figure 3(c): width-2 #-hypertree decomposition; Q0's core is cyclic so
  // width 1 is impossible.
  EXPECT_EQ(SharpHypertreeWidth(MakeQ0(), 3), 2);
}

TEST(SharpWidthTest, Q1HasSharpHypertreeWidthTwo) {
  // Example 4.1 / Figure 8(e).
  EXPECT_EQ(SharpHypertreeWidth(MakeQ1(), 3), 2);
}

TEST(SharpWidthTest, Qn1HasSharpHypertreeWidthOne) {
  // Example A.2: the colored core is acyclic and its frontier is a single
  // variable, so #-htw = 1 for every n.
  for (int n : {2, 3, 4, 5}) {
    EXPECT_EQ(SharpHypertreeWidth(MakeQn1(n), 2), 1) << "n=" << n;
  }
}

TEST(SharpWidthTest, Qn2HasSharpHypertreeWidthOne) {
  // Theorem A.3: cores collapse the biclique to one atom; no free
  // variables, no frontier to cover.
  for (int n : {2, 3, 4}) {
    EXPECT_EQ(SharpHypertreeWidth(MakeQn2(n), 2), 1) << "n=" << n;
  }
}

TEST(SharpWidthTest, Qh2SharpWidthGrowsWithH) {
  // Example C.1: the frontier of the existential block is all of
  // {X0,...,Xh}; guards are binary w_i atoms plus r, so the width needed to
  // cover the frontier grows with h — the family has unbounded #-htw.
  std::optional<int> w1 = SharpHypertreeWidth(MakeQh2(1), 4);
  std::optional<int> w3 = SharpHypertreeWidth(MakeQh2(3), 4);
  ASSERT_TRUE(w1.has_value());
  ASSERT_TRUE(w3.has_value());
  EXPECT_LT(*w1, *w3);
  // And h = 5 needs width > 3.
  EXPECT_FALSE(SharpHypertreeWidth(MakeQh2(5), 3).has_value());
}

TEST(SharpWidthTest, QuantifierFreeQueriesReduceToPlainWidth) {
  // With no existential variables, FH adds only edges inside free(Q), so
  // #-htw = htw of the core. The 4-clique query (quantifier-free) has
  // width 2 (two edges cover all four vertices... each bag can take two
  // binary atoms, covering the 6 edges with a tree of 3-var bags).
  ConjunctiveQuery q = MakeCliqueQuery(3);
  EXPECT_EQ(SharpHypertreeWidth(q, 3), 2);
}

// --- #-decompositions w.r.t. arbitrary views (Definition 1.4) ---------------

TEST(SharpDecompositionTest, Q0IsSharpCoveredByV0) {
  // Example 3.5 / Figure 7(d): the view set V0 = {{A,B,I}, {B,E}, {B,C,D},
  // {D,F,H}} admits a #-decomposition for the F-branch core...
  ConjunctiveQuery q = MakeQ0();
  std::vector<IdSet> v0_edges = {
      VarsOf(q, {"A", "B", "I"}), VarsOf(q, {"B", "E"}),
      VarsOf(q, {"B", "C", "D"}), VarsOf(q, {"D", "F", "H"})};
  ViewSet v0 = ViewsFromEdges(v0_edges);
  auto d = FindSharpDecomposition(q, v0);
  ASSERT_TRUE(d.has_value());
  // ... and the chosen core must be the F-branch: the G-branch's triangle
  // {D,G,H} is not covered by any view.
  EXPECT_TRUE(d->core.AllVars().Contains(q.VarByName("F")));
  EXPECT_FALSE(d->core.AllVars().Contains(q.VarByName("G")));
}

TEST(SharpDecompositionTest, GBranchCoreFailsAgainstV0) {
  // The symmetric core (with G) admits no tree projection w.r.t. V0
  // (Example 3.5's point about cores not being interchangeable).
  ConjunctiveQuery q = MakeQ0();
  std::vector<IdSet> v0_edges = {
      VarsOf(q, {"A", "B", "I"}), VarsOf(q, {"B", "E"}),
      VarsOf(q, {"B", "C", "D"}), VarsOf(q, {"D", "F", "H"})};
  // Find the G-branch core among the enumerated cores.
  ConjunctiveQuery g_core = MakeQ0();
  bool found = false;
  for (const ConjunctiveQuery& core : EnumerateColoredCores(q, 8)) {
    if (core.AllVars().Contains(q.VarByName("G"))) {
      g_core = core;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  std::vector<IdSet> cover = SharpCoverEdges(g_core, q.free_vars());
  EXPECT_FALSE(
      FindTreeProjection(cover, ViewsFromEdges(v0_edges)).has_value());
}

TEST(SharpDecompositionTest, CoverEdgesIncludeFrontierAndSingletons) {
  ConjunctiveQuery q = MakeQ1();
  // Q1 is a core; FH(Q1, {A,C}) contains {A,C} (Figure 8(c)).
  std::vector<IdSet> cover = SharpCoverEdges(q, q.free_vars());
  EXPECT_TRUE(HasEdge(cover, VarsOf(q, {"A", "C"})));
  EXPECT_TRUE(HasEdge(cover, VarsOf(q, {"A"})));
  EXPECT_TRUE(HasEdge(cover, VarsOf(q, {"C"})));
}

TEST(SharpDecompositionTest, WidthOneViewsFailOnQ1) {
  // No single atom covers the frontier edge {A,C}.
  EXPECT_FALSE(FindSharpHypertreeDecomposition(MakeQ1(), 1).has_value());
}

// --- Theorem 3.7 / 1.3 counting ----------------------------------------------

TEST(SharpCountTest, Q0CountMatchesBruteForce) {
  ConjunctiveQuery q = MakeQ0();
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Q0DatabaseParams params;
    params.seed = seed;
    Database db = MakeQ0Database(params);
    auto result = CountBySharpHypertree(q, db, 2);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->count, CountByBacktracking(q, db)) << "seed " << seed;
  }
}

TEST(SharpCountTest, Q1CountMatchesBruteForce) {
  ConjunctiveQuery q = MakeQ1();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Database db = MakeQ1Database(6, 14, seed);
    auto result = CountBySharpHypertree(q, db, 2);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->count, CountByBacktracking(q, db)) << "seed " << seed;
  }
}

TEST(SharpCountTest, WidthTooSmallReturnsNullopt) {
  ConjunctiveQuery q = MakeQ1();
  Database db = MakeQ1Database(4, 8, 1);
  EXPECT_FALSE(CountBySharpHypertree(q, db, 1).has_value());
}

TEST(SharpCountTest, Qn1CountViaWidthOne) {
  for (int n : {2, 3, 4}) {
    ConjunctiveQuery q = MakeQn1(n);
    Database db = MakeQn1RandomDatabase(6, 16, 11 * n);
    auto result = CountBySharpHypertree(q, db, 1);
    ASSERT_TRUE(result.has_value()) << "n=" << n;
    EXPECT_EQ(result->count, CountByBacktracking(q, db)) << "n=" << n;
  }
}

TEST(SharpCountTest, Qn1CycleCountsExactlyD) {
  ConjunctiveQuery q = MakeQn1(4);
  Database db = MakeQn1CycleDatabase(9);
  auto result = CountBySharpHypertree(q, db, 1);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->count, CountInt{9});
}

TEST(SharpCountTest, BooleanBicliqueViaCore) {
  ConjunctiveQuery q = MakeQn2(3);
  Database db;
  db.AddTuple("r", {1, 2});
  auto result = CountBySharpHypertree(q, db, 1);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->count, CountInt{1});
  Database empty;
  empty.DeclareRelation("r", 2);
  auto zero = CountBySharpHypertree(q, empty, 1);
  ASSERT_TRUE(zero.has_value());
  EXPECT_EQ(zero->count, CountInt{0});
}

TEST(SharpCountTest, EmptyDatabaseRelationGivesZero) {
  ConjunctiveQuery q = MakeQ1();
  Database db = MakeQ1Database(4, 6, 3);
  db.mutable_relation("s2") = Relation(2);  // empty one relation
  auto result = CountBySharpHypertree(q, db, 2);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->count, CountInt{0});
}

TEST(SharpCountTest, CountAnswersFacadeFallsBackGracefully) {
  // Qh2 with h=3 has #-htw 4 (covering the frontier {X0..X3} takes the r
  // atom plus three w_i atoms); with max_width 2 the facade must fall back
  // and still return the right count.
  ConjunctiveQuery q = MakeQh2(3);
  Database db = MakeQh2Database(3);
  PlannerOptions options = *PlannerOptionsForStrategy("sharp");
  options.max_width = 2;
  CountResult result = CountingEngine::Shared().Count(q, db, options);
  EXPECT_EQ(result.count, CountInt{1} << 3);
  EXPECT_EQ(result.method, "backtracking");
  // With enough width the structural method kicks in.
  PlannerOptions wide = *PlannerOptionsForStrategy("sharp");
  wide.max_width = 4;
  CountResult structural = CountingEngine::Shared().Count(q, db, wide);
  EXPECT_EQ(structural.count, CountInt{1} << 3);
  EXPECT_NE(structural.method, "backtracking");
}

// Answers counted through the decomposition agree with brute force on
// random bounded-width instances (the Theorem 1.3 promise).
TEST(SharpCountTest, RandomInstancesAgreeWithBruteForce) {
  int counted = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    RandomQueryParams qp;
    qp.num_vars = 6;
    qp.num_atoms = 5;
    qp.max_arity = 3;
    qp.num_free = 2;
    qp.num_relations = 3;
    qp.seed = seed;
    ConjunctiveQuery q = MakeRandomQuery(qp);
    RandomDatabaseParams dp;
    dp.domain = 3;
    dp.tuples_per_relation = 10;
    dp.seed = seed * 7919;
    Database db = MakeRandomDatabase(q, dp);

    auto result = CountBySharpHypertree(q, db, 3);
    if (!result.has_value()) continue;  // width promise not met
    ++counted;
    EXPECT_EQ(result->count, CountByBacktracking(q, db)) << "seed " << seed;
  }
  EXPECT_GT(counted, 20);
}

}  // namespace
}  // namespace sharpcq
