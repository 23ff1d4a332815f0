// End-to-end integration: text query -> parse -> decompose -> count /
// enumerate, including the query-language corners (constants, self-joins,
// repeated variables) that the unit suites cover only in isolation.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/enumerate_answers.h"
#include "core/sharp_counting.h"
#include "count/enumeration.h"
#include "engine/engine.h"
#include "gen/paper_queries.h"
#include "gen/random_gen.h"
#include "hybrid/hybrid_counting.h"
#include "query/parser.h"
#include "solver/hom_target.h"
#include "solver/homomorphism.h"
#include "tests/test_util.h"

namespace sharpcq {
namespace {

Database SocialDb() {
  Database db;
  // follows(a, b), lives(person, city), age(person, years)
  for (auto [a, b] : std::vector<std::pair<Value, Value>>{
           {1, 2}, {2, 3}, {3, 1}, {1, 3}, {4, 1}, {2, 4}}) {
    db.AddTuple("follows", {a, b});
  }
  db.AddTuple("lives", {1, 100});
  db.AddTuple("lives", {2, 100});
  db.AddTuple("lives", {3, 101});
  db.AddTuple("lives", {4, 100});
  for (Value p = 1; p <= 4; ++p) db.AddTuple("age", {p, 20 + p});
  return db;
}

CountInt CountText(const std::string& text, const Database& db) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.has_value()) << text;
  CountResult result = CountingEngine::Shared().Count(
      *q, db, *PlannerOptionsForStrategy("sharp"));
  CountInt brute = CountByBacktracking(*q, db);
  EXPECT_EQ(result.count, brute) << text << " via " << result.method;
  return result.count;
}

TEST(IntegrationTest, SimpleProjection) {
  // People who follow somebody living in city 100.
  EXPECT_EQ(CountText("Q(X) <- follows(X,Y), lives(Y,100)", SocialDb()),
            CountInt{4});
}

TEST(IntegrationTest, ConstantsInAtoms) {
  EXPECT_EQ(CountText("Q(X) <- lives(X,100)", SocialDb()), CountInt{3});
  EXPECT_EQ(CountText("Q(X) <- lives(X,999)", SocialDb()), CountInt{0});
}

TEST(IntegrationTest, SelfJoinTriangles) {
  // Directed triangles through vertex X (all three roles free).
  CountInt triangles = CountText(
      "Q(X,Y,Z) <- follows(X,Y), follows(Y,Z), follows(Z,X)", SocialDb());
  EXPECT_EQ(triangles, CountInt{6});  // 1-2-3, 1-3-? ... verified vs brute
}

TEST(IntegrationTest, RepeatedVariableInAtom) {
  Database db = SocialDb();
  db.AddTuple("follows", {5, 5});  // a self-loop
  EXPECT_EQ(CountText("Q(X) <- follows(X,X)", db), CountInt{1});
}

TEST(IntegrationTest, BooleanQueries) {
  EXPECT_EQ(CountText("Q() <- follows(X,Y), follows(Y,X)", SocialDb()),
            CountInt{1});  // (1,3)/(3,1) is a 2-cycle
  EXPECT_EQ(
      CountText("Q() <- follows(X,Y), follows(Y,Z), follows(Z,X)", SocialDb()),
      CountInt{1});
  // A relation symbol with no matching tuples at all.
  Database db = SocialDb();
  db.DeclareRelation("blocked", 2);
  EXPECT_EQ(CountText("Q() <- follows(X,Y), blocked(Y,X)", db), CountInt{0});
}

TEST(IntegrationTest, ExistentialChainWithConstants) {
  EXPECT_EQ(CountText("Q(X) <- follows(X,Y), follows(Y,Z), lives(Z,101)",
                      SocialDb()),
            CountByBacktracking(
                *ParseQuery("Q(X) <- follows(X,Y), follows(Y,Z), lives(Z,101)"),
                SocialDb()));
}

TEST(IntegrationTest, HybridFacadeAgreesEverywhere) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
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
    dp.seed = seed * 271;
    Database db = MakeRandomDatabase(q, dp);
    CountResult result = CountingEngine::Shared().Count(
        q, db, *PlannerOptionsForStrategy("hybrid"));
    EXPECT_EQ(result.count, CountByBacktracking(q, db))
        << "seed " << seed << " via " << result.method;
  }
}

TEST(IntegrationTest, HybridFacadeUsesHybridOnQbar) {
  ConjunctiveQuery q = MakeQbarh2(3);
  Database db = MakeQbarh2Database(3, 4);
  PlannerOptions options = *PlannerOptionsForStrategy("hybrid");
  options.max_width = 2;  // structural fails at 2; hybrid succeeds
  CountResult result = CountingEngine::Shared().Count(q, db, options);
  EXPECT_EQ(result.count, CountInt{1} << 3);
  EXPECT_EQ(result.method.rfind("#b-hypertree", 0), 0u) << result.method;
}

// --- enumeration (GS13 companion) ---------------------------------------------

TEST(EnumerationAnswersTest, MatchesCountOnPaperQueries) {
  ConjunctiveQuery q = MakeQ0();
  Q0DatabaseParams params;
  params.seed = 5;
  Database db = MakeQ0Database(params);
  auto answers = EnumerateAnswersToVector(q, db, 2);
  ASSERT_TRUE(answers.has_value());
  auto count = CountBySharpHypertree(q, db, 2);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(static_cast<CountInt>(answers->size()), count->count);
  // Distinctness.
  std::set<std::vector<Value>> unique(answers->begin(), answers->end());
  EXPECT_EQ(unique.size(), answers->size());
}

TEST(EnumerationAnswersTest, EveryAnswerSatisfiesTheQuery) {
  ConjunctiveQuery q = MakeQ1();
  Database db = MakeQ1Database(5, 12, 77);
  auto answers = EnumerateAnswersToVector(q, db, 2);
  ASSERT_TRUE(answers.has_value());
  DatabaseTarget target(db);
  std::vector<std::uint32_t> free(q.free_vars().begin(), q.free_vars().end());
  for (const auto& answer : *answers) {
    Homomorphism forced;
    for (std::size_t i = 0; i < free.size(); ++i) {
      forced[free[i]] = answer[i];
    }
    EXPECT_TRUE(HomomorphismExists(q, target, forced));
  }
}

TEST(EnumerationAnswersTest, LimitStopsEarly) {
  ConjunctiveQuery q = MakeQn1(3);
  Database db = MakeQn1CycleDatabase(10);  // 10 answers
  auto answers = EnumerateAnswersToVector(q, db, 1, /*limit=*/4);
  ASSERT_TRUE(answers.has_value());
  EXPECT_EQ(answers->size(), 4u);
}

TEST(EnumerationAnswersTest, WidthBudgetRespected) {
  EXPECT_FALSE(
      EnumerateAnswersToVector(MakeQ1(), MakeQ1Database(4, 8, 1), 1)
          .has_value());
}

TEST(EnumerationAnswersTest, AgreesWithBruteForceOnRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RandomQueryParams qp;
    qp.num_vars = 6;
    qp.num_atoms = 4;
    qp.max_arity = 2;
    qp.num_free = 3;
    qp.seed = seed;
    ConjunctiveQuery q = MakeRandomQuery(qp);
    RandomDatabaseParams dp;
    dp.domain = 4;
    dp.tuples_per_relation = 10;
    dp.seed = seed * 37;
    Database db = MakeRandomDatabase(q, dp);
    auto answers = EnumerateAnswersToVector(q, db, 3);
    if (!answers.has_value()) continue;
    EXPECT_EQ(static_cast<CountInt>(answers->size()),
              CountByBacktracking(q, db))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace sharpcq
