#include <gtest/gtest.h>

#include <tuple>

#include "core/analyze.h"
#include "core/sharp_counting.h"
#include "count/enumeration.h"
#include "count/starsize.h"
#include "engine/engine.h"
#include "gen/paper_queries.h"
#include "gen/random_gen.h"
#include "hybrid/degree.h"
#include "hybrid/degree_counting.h"
#include "hybrid/hybrid_counting.h"
#include "tests/test_util.h"

namespace sharpcq {
namespace {

// Every counting engine in the library must produce the same number on the
// same instance. Parameters: (seed, force_acyclic, domain size).
using Params = std::tuple<int, bool, int>;

class CountingAgreementTest : public ::testing::TestWithParam<Params> {
 protected:
  void SetUp() override {
    auto [seed, acyclic, domain] = GetParam();
    RandomQueryParams qp;
    qp.num_vars = 6;
    qp.num_atoms = 5;
    qp.max_arity = 3;
    qp.num_free = 2;
    qp.num_relations = 3;
    qp.force_acyclic = acyclic;
    qp.seed = static_cast<std::uint64_t>(seed);
    query_ = MakeRandomQuery(qp);

    RandomDatabaseParams dp;
    dp.domain = domain;
    dp.tuples_per_relation = 10;
    dp.seed = static_cast<std::uint64_t>(seed) * 65537 + 13;
    db_ = MakeRandomDatabase(query_, dp);

    truth_ = CountByBacktracking(query_, db_);
  }

  ConjunctiveQuery query_;
  Database db_;
  CountInt truth_ = 0;
};

TEST_P(CountingAgreementTest, JoinProjectAgrees) {
  EXPECT_EQ(CountByJoinProject(query_, db_), truth_);
}

TEST_P(CountingAgreementTest, FrontierMaterializationAgrees) {
  EXPECT_EQ(CountByFrontierMaterialization(query_, db_), truth_);
}

TEST_P(CountingAgreementTest, FacadeAgrees) {
  CountResult result = CountingEngine::Shared().Count(
      query_, db_, *PlannerOptionsForStrategy("sharp"));
  EXPECT_EQ(result.count, truth_) << "method: " << result.method;
}

TEST_P(CountingAgreementTest, SharpHypertreeAgreesWhenApplicable) {
  auto result = CountBySharpHypertree(query_, db_, 3);
  if (result.has_value()) {
    EXPECT_EQ(result->count, truth_);
  }
}

TEST_P(CountingAgreementTest, Ps13OnHypertreeAgreesWhenApplicable) {
  auto ht = FindHypertreeDecomposition(query_, 3);
  if (!ht.has_value()) return;
  Ps13Stats stats;
  EXPECT_EQ(CountByPs13OnHypertree(query_, db_, *ht, &stats).count, truth_);
  // The #-relation set sizes are bounded by the decomposition's degree
  // value (the quantity Theorem 6.2's runtime depends on).
  Hypertree complete = MakeComplete(*ht, query_);
  std::size_t bound = HypertreeBound(query_, db_, complete);
  EXPECT_LE(stats.max_set_size, std::max<std::size_t>(bound, 1));
}

TEST_P(CountingAgreementTest, HybridAgreesWhenApplicable) {
  auto result = CountBySharpBDecomposition(query_, db_, 2);
  if (result.has_value()) {
    EXPECT_EQ(result->count, truth_);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomCyclic, CountingAgreementTest,
    ::testing::Combine(::testing::Range(1, 21), ::testing::Values(false),
                       ::testing::Values(3, 4)));

INSTANTIATE_TEST_SUITE_P(
    RandomAcyclic, CountingAgreementTest,
    ::testing::Combine(::testing::Range(1, 21), ::testing::Values(true),
                       ::testing::Values(3)));

// --- structural invariants on random instances -------------------------------

// The shared width search returns exactly what per-k calls return: the
// first k with a decomposition, built on the same core with the same tree.
// The planner's width budget is the profile's #-hypertree width.
void ExpectSharedWidthSearchMatchesPerK(const ConjunctiveQuery& q,
                                        int k_max) {
  std::optional<SharpDecomposition> per_k;
  int per_k_width = 0;
  for (int k = 1; k <= k_max && !per_k.has_value(); ++k) {
    per_k = FindSharpHypertreeDecomposition(q, k);
    if (per_k.has_value()) per_k_width = k;
  }
  std::optional<MinWidthSharpDecomposition> shared =
      FindMinWidthSharpDecomposition(q, k_max);
  ASSERT_EQ(shared.has_value(), per_k.has_value());
  if (per_k.has_value()) {
    EXPECT_EQ(shared->k, per_k_width);
    EXPECT_EQ(shared->decomposition.core.atoms(), per_k->core.atoms());
    EXPECT_EQ(shared->decomposition.tree.bags, per_k->tree.bags);
    EXPECT_EQ(shared->decomposition.tree.view_ids, per_k->tree.view_ids);
    EXPECT_EQ(shared->decomposition.tree.shape.parent,
              per_k->tree.shape.parent);
    EXPECT_EQ(shared->decomposition.width, per_k->width);
  }
  EXPECT_EQ(AnalyzeQuery(q, 3).sharp_hypertree_width.value_or(0),
            MakePlan(q).width_budget);
}

TEST(SharedWidthSearchTest, MatchesPerKCallsOnPaperFamilies) {
  const std::vector<std::pair<std::string, ConjunctiveQuery>> queries = {
      {"Q0", MakeQ0()},           {"Q1", MakeQ1()},
      {"Qh2(2)", MakeQh2(2)},     {"Qh2(3)", MakeQh2(3)},
      {"Qbar2(2)", MakeQbarh2(2)}, {"Qbar2(3)", MakeQbarh2(3)},
      {"Qn1(3)", MakeQn1(3)},     {"Qn1(5)", MakeQn1(5)},
      {"Qn2(3)", MakeQn2(3)},     {"Qn2(4)", MakeQn2(4)},
      {"K3", MakeCliqueQuery(3)}, {"K4", MakeCliqueQuery(4)},
  };
  for (const auto& [name, q] : queries) {
    SCOPED_TRACE(name);
    ExpectSharedWidthSearchMatchesPerK(q, 4);
  }
}

class SharpWidthPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SharpWidthPropertyTest, WidthSearchIsMonotoneInK) {
  RandomQueryParams qp;
  qp.num_vars = 6;
  qp.num_atoms = 5;
  qp.max_arity = 2;
  qp.num_free = 2;
  qp.seed = static_cast<std::uint64_t>(GetParam());
  ConjunctiveQuery q = MakeRandomQuery(qp);
  ExpectSharedWidthSearchMatchesPerK(q, 4);
  bool found = false;
  for (int k = 1; k <= 4; ++k) {
    bool now = FindSharpHypertreeDecomposition(q, k).has_value();
    // Once found at some k, every larger k must also succeed (V^k grows).
    if (found) {
      EXPECT_TRUE(now) << "k=" << k;
    }
    found = found || now;
  }
  EXPECT_TRUE(found);  // binary-arity queries of 5 atoms always fit by k=4
}

TEST_P(SharpWidthPropertyTest, DecompositionIsValidTreeProjection) {
  RandomQueryParams qp;
  qp.num_vars = 6;
  qp.num_atoms = 5;
  qp.max_arity = 3;
  qp.num_free = 2;
  qp.seed = static_cast<std::uint64_t>(GetParam()) * 7 + 3;
  ConjunctiveQuery q = MakeRandomQuery(qp);
  auto d = FindSharpHypertreeDecomposition(q, 3);
  if (!d.has_value()) return;
  std::vector<IdSet> cover = SharpCoverEdges(d->core, q.free_vars());
  EXPECT_TRUE(IsTreeProjection(d->tree, cover, d->views));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharpWidthPropertyTest,
                         ::testing::Range(1, 26));

// --- degree invariants --------------------------------------------------------

class DegreePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DegreePropertyTest, FullReduceNeverIncreasesBound) {
  RandomQueryParams qp;
  qp.num_vars = 6;
  qp.num_atoms = 5;
  qp.max_arity = 3;
  qp.num_free = 2;
  qp.force_acyclic = true;
  qp.seed = static_cast<std::uint64_t>(GetParam());
  ConjunctiveQuery q = MakeRandomQuery(qp);
  RandomDatabaseParams dp;
  dp.domain = 3;
  dp.tuples_per_relation = 10;
  dp.seed = static_cast<std::uint64_t>(GetParam()) * 37;
  Database db = MakeRandomDatabase(q, dp);
  auto ht = FindHypertreeDecomposition(q, 1);
  if (!ht.has_value()) return;
  Hypertree complete = MakeComplete(*ht, q);
  JoinTreeInstance instance = MaterializeHypertree(q, db, complete);
  std::size_t before = BoundOfInstance(instance, q.free_vars());
  if (!FullReduce(&instance)) return;
  std::size_t after = BoundOfInstance(instance, q.free_vars());
  EXPECT_LE(after, before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DegreePropertyTest, ::testing::Range(1, 16));

}  // namespace
}  // namespace sharpcq
