#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "algebra/exec_policy.h"
#include "count/enumeration.h"
#include "count/join_tree_instance.h"
#include "count/ps13.h"
#include "count/starsize.h"
#include "engine/executor.h"
#include "gen/paper_queries.h"
#include "gen/random_gen.h"
#include "hypergraph/acyclic.h"
#include "query/atom_relation.h"
#include "tests/test_util.h"
#include "util/mem_budget.h"
#include "util/trace.h"

namespace sharpcq {
namespace {

VarRelation MakeVarRel(IdSet vars, std::vector<std::vector<Value>> rows) {
  VarRelation r(std::move(vars));
  for (const auto& row : rows) r.rel().AddRow(std::span<const Value>(row));
  return r;
}

// A two-node chain instance: {X,Y} - {Y,Z}.
JoinTreeInstance ChainInstance() {
  JoinTreeInstance instance;
  instance.shape = TreeShape::FromParents({-1, 0});
  instance.nodes.push_back(
      MakeVarRel(IdSet{0, 1}, {{1, 10}, {2, 20}, {3, 30}}));
  instance.nodes.push_back(
      MakeVarRel(IdSet{1, 2}, {{10, 100}, {10, 101}, {20, 200}, {99, 999}}));
  return instance;
}

TEST(FullReduceTest, RemovesDanglingTuples) {
  JoinTreeInstance instance = ChainInstance();
  ASSERT_TRUE(FullReduce(&instance));
  // (3,30) has no child match; (99,999) has no parent match.
  EXPECT_EQ(instance.nodes[0].size(), 2u);
  EXPECT_EQ(instance.nodes[1].size(), 3u);
}

TEST(FullReduceTest, DetectsEmptyJoin) {
  JoinTreeInstance instance;
  instance.shape = TreeShape::FromParents({-1, 0});
  instance.nodes.push_back(MakeVarRel(IdSet{0}, {{1}}));
  instance.nodes.push_back(MakeVarRel(IdSet{0}, {{2}}));
  EXPECT_FALSE(FullReduce(&instance));
}

TEST(CountFullJoinTest, ChainCount) {
  JoinTreeInstance instance = ChainInstance();
  // Solutions: (1,10,100), (1,10,101), (2,20,200).
  EXPECT_EQ(CountFullJoin(instance), CountInt{3});
}

TEST(CountFullJoinTest, EmptyInstanceCountsOne) {
  EXPECT_EQ(CountFullJoin(JoinTreeInstance{}), CountInt{1});
}

TEST(CountFullJoinTest, ZeroAritySolutionsMultiply) {
  // Two independent bags: 2 x 3 = 6 full solutions.
  JoinTreeInstance instance;
  instance.shape = TreeShape::FromParents({-1, 0});
  instance.nodes.push_back(MakeVarRel(IdSet{0}, {{1}, {2}}));
  instance.nodes.push_back(MakeVarRel(IdSet{1}, {{5}, {6}, {7}}));
  EXPECT_EQ(CountFullJoin(instance), CountInt{6});
}

TEST(RestrictToVarsTest, ProjectsAndDedups) {
  JoinTreeInstance instance = ChainInstance();
  JoinTreeInstance restricted = RestrictToVars(instance, IdSet{1});
  EXPECT_EQ(restricted.nodes[0].vars(), (IdSet{1}));
  EXPECT_EQ(restricted.nodes[0].size(), 3u);  // {10,20,30}
  EXPECT_EQ(restricted.nodes[1].size(), 3u);  // {10,20,99}
}

// --- PS13 (Figure 13) -------------------------------------------------------

TEST(Ps13Test, SingleNodeCountsDistinctFreeProjections) {
  JoinTreeInstance instance;
  instance.shape = TreeShape::FromParents({-1});
  instance.nodes.push_back(
      MakeVarRel(IdSet{0, 1}, {{1, 10}, {1, 20}, {2, 10}}));
  EXPECT_EQ(Ps13Count(instance, IdSet{0}), CountInt{2});
  EXPECT_EQ(Ps13Count(instance, IdSet{0, 1}), CountInt{3});
  EXPECT_EQ(Ps13Count(instance, IdSet{}), CountInt{1});
}

TEST(Ps13Test, EmptyRelationCountsZero) {
  JoinTreeInstance instance;
  instance.shape = TreeShape::FromParents({-1});
  instance.nodes.push_back(VarRelation(IdSet{0}));
  EXPECT_EQ(Ps13Count(instance, IdSet{0}), CountInt{0});
}

TEST(Ps13Test, ChainWithProjection) {
  // free = {X} (variable 0): answers are X values extendable down the
  // chain: X=1, X=2.
  JoinTreeInstance instance = ChainInstance();
  EXPECT_EQ(Ps13Count(instance, IdSet{0}), CountInt{2});
  // free = {Z} (variable 2): Z in {100, 101, 200}.
  EXPECT_EQ(Ps13Count(instance, IdSet{2}), CountInt{3});
  // free = {X, Z}: (1,100), (1,101), (2,200).
  EXPECT_EQ(Ps13Count(instance, IdSet{0, 2}), CountInt{3});
}

TEST(Ps13Test, MatchesFullJoinCountWhenAllVarsFree) {
  JoinTreeInstance instance = ChainInstance();
  EXPECT_EQ(Ps13Count(instance, instance.AllVars()),
            CountFullJoin(instance));
}

TEST(Ps13Test, StatsReflectDegreeBlowup) {
  // Bag {X, Y} with one X extended by 4 Y values: the #-relation of the
  // root has one set of size 4 when X is quantified away below a free
  // parent... here we just sanity check the stats plumbing.
  JoinTreeInstance instance;
  instance.shape = TreeShape::FromParents({-1});
  instance.nodes.push_back(
      MakeVarRel(IdSet{0, 1}, {{1, 10}, {1, 11}, {1, 12}, {1, 13}}));
  Ps13Stats stats;
  EXPECT_EQ(Ps13Count(instance, IdSet{0}, &stats), CountInt{1});
  EXPECT_EQ(stats.max_sets, 1u);
  EXPECT_EQ(stats.max_set_size, 4u);
}

// The join tree of q's own atoms, unreduced (q must be acyclic).
JoinTreeInstance AtomInstance(const ConjunctiveQuery& q, const Database& db) {
  std::vector<IdSet> edges;
  for (const Atom& atom : q.atoms()) edges.push_back(atom.Vars());
  std::optional<TreeShape> shape = BuildJoinTree(edges);
  EXPECT_TRUE(shape.has_value());
  JoinTreeInstance instance;
  instance.shape = std::move(*shape);
  for (const Atom& atom : q.atoms()) {
    instance.nodes.push_back(AtomToRel(atom, db));
  }
  return instance;
}

// PS13 on random acyclic instances — over the atoms as they are and through
// the engine's full-reduced kAcyclicPs13 path — must agree with brute
// force. Returns how many instances had a #-set of more than one row.
int ExpectPs13AgreesOnRandomAcyclicInstances(int domain, int tuples) {
  int multi_row_sets = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RandomQueryParams qp;
    qp.num_vars = 7;
    qp.num_atoms = 5;
    qp.max_arity = 3;
    qp.num_free = 3;
    qp.force_acyclic = true;
    qp.seed = seed;
    ConjunctiveQuery q = MakeRandomQuery(qp);

    RandomDatabaseParams dp;
    dp.domain = domain;
    dp.tuples_per_relation = tuples;
    dp.seed = seed * 131;
    Database db = MakeRandomDatabase(q, dp);

    CountInt brute = CountByJoinProject(q, db);
    EXPECT_EQ(CountByBacktracking(q, db), brute) << "seed " << seed;
    if (!IsAcyclic(q.BuildHypergraph())) continue;
    Ps13Stats stats;
    EXPECT_EQ(Ps13Count(AtomInstance(q, db), q.free_vars(), &stats), brute)
        << "seed " << seed;
    EXPECT_EQ(CountByAcyclicPs13(q, db).count, brute) << "seed " << seed;
    if (stats.max_set_size > 1) ++multi_row_sets;
  }
  return multi_row_sets;
}

TEST(Ps13Test, AgreesWithBruteForceOnRandomAcyclicInstances) {
  ExpectPs13AgreesOnRandomAcyclicInstances(/*domain=*/3, /*tuples=*/10);
}

// Larger relations over a wider domain: #-sets of several rows, and child
// sets sharing join keys, occur.
TEST(Ps13Test, AgreesWithBruteForceOnDenserRandomAcyclicInstances) {
  EXPECT_GT(
      ExpectPs13AgreesOnRandomAcyclicInstances(/*domain=*/6, /*tuples=*/40),
      0);
}

TEST(Ps13Test, EqualKeptSetsMergeTheirCoefficients) {
  // Root {Y} (no free variable: one #-set of rows Y=0..3) with three
  // children. Child 1, {Y, A} with A free, holds (j, i) for j <= i, so it
  // splits the root into the four sets {Y <= i}. Children 2 and 3 keep only
  // Y=0, so child 2 maps all four sets to {Y=0}: they must merge into one
  // set with coefficient 4, which child 3 then walks once. Child 3's one
  // set holds key Y=0 in two rows; the parent row is still kept once.
  std::vector<std::vector<Value>> below;
  for (Value i = 0; i < 4; ++i) {
    for (Value j = 0; j <= i; ++j) below.push_back({j, i});
  }
  JoinTreeInstance instance;
  instance.shape = TreeShape::FromParents({-1, 0, 0, 0});
  instance.nodes.push_back(MakeVarRel(IdSet{0}, {{0}, {1}, {2}, {3}}));
  instance.nodes.push_back(MakeVarRel(IdSet{0, 1}, below));
  instance.nodes.push_back(MakeVarRel(IdSet{0}, {{0}}));
  instance.nodes.push_back(MakeVarRel(IdSet{0, 2}, {{0, 5}, {0, 6}}));
  Ps13Stats stats;
  EXPECT_EQ(Ps13Count(instance, IdSet{1}, &stats), CountInt{4});
  EXPECT_EQ(stats.max_sets, 4u);
  // Parent rows walked plus rows kept, per step: child 1 walks 4 rows and
  // keeps 1+2+3+4; child 2 walks those 10 and keeps 4 (one per set);
  // child 3 walks the merged set's 1 row and keeps it. Unmerged, child 3
  // would walk and keep 4 rows.
  EXPECT_EQ(stats.rows_visited, (4u + 10u) + (10u + 4u) + (1u + 1u));
}

TEST(Ps13Test, SharpRelationsAreChargedToTheExecutionBudget) {
  const int h = 8;
  const ConjunctiveQuery q = MakeQh2(h);
  const Database db = MakeQh2Database(h);
  const JoinTreeInstance instance = AtomInstance(q, db);
  // A first count caches every index PS13 reads, so what a second count
  // charges is its #-relations: at least the r-vertex's arena of m
  // singleton sets (a row id, an offset and a coefficient each).
  ASSERT_EQ(Ps13Count(instance, q.free_vars()), CountInt{1} << h);
  const std::uint64_t arena_bytes =
      (std::uint64_t{1} << h) *
      (sizeof(std::uint32_t) + sizeof(std::size_t) + sizeof(CountInt));
  {
    MemoryBudget tracker;
    ExecPolicy policy;
    policy.query_memory = &tracker;
    ExecScope scope(policy);
    EXPECT_EQ(Ps13Count(instance, q.free_vars()), CountInt{1} << h);
    EXPECT_GE(tracker.used(), arena_bytes);
  }
  {
    MemoryBudget tight(arena_bytes / 2);
    ExecPolicy policy;
    policy.query_memory = &tight;
    ExecScope scope(policy);
    EXPECT_THROW(Ps13Count(instance, q.free_vars()), ExecResourceExhausted);
  }
}

// Ps13Count's rows_visited note on the span tree below `node`, or -1.
long long Ps13RowsVisited(const TraceNode& node) {
  for (const auto& child : node.children) {
    if (child->name == "ps13_count") {
      for (const auto& [key, value] : child->notes) {
        if (key == "rows_visited") return std::stoll(value);
      }
    }
    const long long below = Ps13RowsVisited(*child);
    if (below >= 0) return below;
  }
  return -1;
}

TEST(Ps13Test, Qh2WorkIsLinearInTheDatabase) {
  // Every child step of CountByAcyclicPs13 on Q^h_2 semijoins the m = 2^h
  // singleton sets of the r-vertex (or splits the one set of the s-vertex
  // m ways): 2m rows visited per step, h+1 steps, never m sets x m sets.
  for (int h : {4, 8}) {
    const ConjunctiveQuery q = MakeQh2(h);
    const Database db = MakeQh2Database(h);
    Trace trace;
    {
      TraceScope scope(&trace);
      EXPECT_EQ(CountByAcyclicPs13(q, db).count, CountInt{1} << h);
    }
    const long long m = 1ll << h;
    const long long visited = Ps13RowsVisited(trace.root());
    EXPECT_GE(visited, m) << "h=" << h;
    EXPECT_LE(visited, 2 * (h + 1) * m) << "h=" << h;
  }
}

// --- baselines --------------------------------------------------------------

TEST(EnumerationTest, JoinProjectOnQ1) {
  ConjunctiveQuery q = MakeQ1();
  Database db = MakeQ1Database(5, 10, 42);
  EXPECT_EQ(CountByJoinProject(q, db), CountByBacktracking(q, db));
}

TEST(EnumerationTest, BooleanQueryCountsZeroOrOne) {
  ConjunctiveQuery q = MakeQn2(2);
  Database db;
  db.AddTuple("r", {1, 2});
  EXPECT_EQ(CountByJoinProject(q, db), CountInt{1});
  EXPECT_EQ(CountByBacktracking(q, db), CountInt{1});
  Database empty;
  empty.DeclareRelation("r", 2);
  EXPECT_EQ(CountByJoinProject(q, empty), CountInt{0});
  EXPECT_EQ(CountByBacktracking(q, empty), CountInt{0});
}

TEST(EnumerationTest, Qh2DatabaseHasExactlyMAnswers) {
  // Example C.1: |answers| = m = 2^h on D_2.
  for (int h : {1, 2, 3, 4}) {
    ConjunctiveQuery q = MakeQh2(h);
    Database db = MakeQh2Database(h);
    EXPECT_EQ(CountByBacktracking(q, db), CountInt{1} << h) << "h=" << h;
  }
}

TEST(EnumerationTest, Qn1CycleDatabaseCountsD) {
  // On the d-cycle, Q^n_1 has exactly d answers.
  for (int n : {2, 3}) {
    for (int d : {3, 5, 8}) {
      ConjunctiveQuery q = MakeQn1(n);
      Database db = MakeQn1CycleDatabase(d);
      EXPECT_EQ(CountByBacktracking(q, db), static_cast<CountInt>(d))
          << "n=" << n << " d=" << d;
    }
  }
}

// --- quantified star size ----------------------------------------------------

TEST(StarSizeTest, Qn1StarSizeIsCeilHalfN) {
  // Example A.2: the quantified star size of Q^n_1 is ceil(n/2).
  EXPECT_EQ(QuantifiedStarSize(MakeQn1(2)), 1);
  EXPECT_EQ(QuantifiedStarSize(MakeQn1(3)), 2);
  EXPECT_EQ(QuantifiedStarSize(MakeQn1(4)), 2);
  EXPECT_EQ(QuantifiedStarSize(MakeQn1(5)), 3);
  EXPECT_EQ(QuantifiedStarSize(MakeQn1(6)), 3);
}

TEST(StarSizeTest, Q0StarSize) {
  // Q0's frontiers are {A,B}, {B}, {B,C}: A,B adjacent (mw) and B,C not
  // adjacent but {B,C} has independent set {C}... the max independent set
  // within any single frontier is 1 ({A,B} induces an edge; {B,C} has no
  // edge between B and C, so the independent set {B,C} has size 2).
  EXPECT_EQ(QuantifiedStarSize(MakeQ0()), 2);
}

TEST(StarSizeTest, QuantifierFreeQueryHasStarSizeZero) {
  ConjunctiveQuery q;
  q.AddAtomVars("r", {"X", "Y"});
  q.SetFreeByName({"X", "Y"});
  EXPECT_EQ(QuantifiedStarSize(q), 0);
}

TEST(StarSizeTest, FrontierMaterializationMatchesBruteForce) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    RandomQueryParams qp;
    qp.num_vars = 6;
    qp.num_atoms = 4;
    qp.max_arity = 3;
    qp.num_free = 2;
    qp.seed = seed;
    ConjunctiveQuery q = MakeRandomQuery(qp);
    RandomDatabaseParams dp;
    dp.domain = 3;
    dp.tuples_per_relation = 8;
    dp.seed = seed * 977;
    Database db = MakeRandomDatabase(q, dp);
    EXPECT_EQ(CountByFrontierMaterialization(q, db),
              CountByBacktracking(q, db))
        << "seed " << seed;
  }
}

TEST(StarSizeTest, FrontierMaterializationOnQn1) {
  ConjunctiveQuery q = MakeQn1(3);
  Database db = MakeQn1RandomDatabase(6, 14, 5);
  EXPECT_EQ(CountByFrontierMaterialization(q, db), CountByBacktracking(q, db));
}

}  // namespace
}  // namespace sharpcq
