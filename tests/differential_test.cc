// The differential oracle: the paper's strategy split (acyclic PS13,
// #-hypertree decompositions, hybrid #b, backtracking) gives several
// independent code paths that must agree on every count. This suite runs
// ~200 random query/database pairs through every applicable strategy and
// asserts they all return the brute-force answer — the honesty check behind
// the concurrent batch engine, whose jobs may be served by any strategy a
// cached plan picked.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "algebra/exec_policy.h"
#include "core/enumerate_answers.h"
#include "count/enumeration.h"
#include "engine/engine.h"
#include "engine/planner.h"
#include "gen/random_gen.h"
#include "hypergraph/acyclic.h"
#include "hypergraph/hypergraph.h"
#include "tests/test_util.h"
#include "util/mem_budget.h"

namespace sharpcq {
namespace {

struct OracleCase {
  ConjunctiveQuery query;
  Database db;
  std::uint64_t seed = 0;
};

// A deterministic mixed workload: acyclic and cyclic shapes, varying
// variable/atom/arity/free budgets, small databases (brute force is the
// oracle, so instances must stay enumerable).
std::vector<OracleCase> MakeCases(std::uint64_t first_seed,
                                  std::uint64_t last_seed) {
  std::vector<OracleCase> cases;
  for (std::uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    RandomQueryParams qp;
    qp.num_vars = 4 + static_cast<int>(seed % 3);       // 4..6
    qp.num_atoms = 3 + static_cast<int>(seed % 3);      // 3..5
    qp.max_arity = 2 + static_cast<int>(seed % 2);      // 2..3
    qp.num_free = 1 + static_cast<int>(seed % 3);       // 1..3
    qp.num_relations = 2 + static_cast<int>(seed % 3);  // 2..4
    qp.force_acyclic = (seed % 2 == 0);
    qp.seed = seed;
    OracleCase c;
    c.query = MakeRandomQuery(qp);
    RandomDatabaseParams dp;
    dp.domain = 3;
    dp.tuples_per_relation = 8 + static_cast<int>(seed % 5);
    dp.seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    c.db = MakeRandomDatabase(c.query, dp);
    c.seed = seed;
    cases.push_back(std::move(c));
  }
  return cases;
}

// Which optional strategies a case exercised (the always-applicable ones
// run unconditionally).
struct Exercised {
  bool ps13 = false;
  bool enumeration = false;
};

// Runs every applicable strategy on one case against the backtracking
// oracle.
Exercised CheckAllStrategiesAgree(const OracleCase& c, CountingEngine* engine) {
  const CountInt expected = CountByBacktracking(c.query, c.db);
  Exercised exercised;

  // Second independent brute force: join-then-project.
  EXPECT_EQ(CountByJoinProject(c.query, c.db), expected) << "seed " << c.seed;

  // The engine's default policy (whatever strategy the planner picked).
  CountResult full = engine->Count(c.query, c.db);
  EXPECT_EQ(full.count, expected)
      << "seed " << c.seed << " via " << full.method;

  // Structural-only policy: #-hypertree or backtracking.
  PlannerOptions sharp_only;
  sharp_only.enable_acyclic_ps13 = false;
  sharp_only.enable_hybrid = false;
  CountResult structural = engine->Count(c.query, c.db, sharp_only);
  EXPECT_EQ(structural.count, expected)
      << "seed " << c.seed << " via " << structural.method;

  // Hybrid #b policy (execution-time decomposition search).
  PlannerOptions hybrid;
  hybrid.enable_acyclic_ps13 = false;
  hybrid.enable_hybrid = true;
  CountResult hybrid_result = engine->Count(c.query, c.db, hybrid);
  EXPECT_EQ(hybrid_result.count, expected)
      << "seed " << c.seed << " via " << hybrid_result.method;

  // Direct PS13 on the query's own join tree, when acyclic and every free
  // variable occurs in an atom (the executor's precondition).
  if (IsAcyclic(c.query.BuildHypergraph()) &&
      c.query.free_vars().IsSubsetOf(c.query.AllVars())) {
    EXPECT_EQ(CountByAcyclicPs13(c.query, c.db).count, expected)
        << "seed " << c.seed;
    exercised.ps13 = true;
  }

  // Enumeration through a #-hypertree decomposition must emit exactly
  // `expected` answers when a width-3 decomposition exists.
  std::optional<std::size_t> enumerated = EnumerateAnswers(
      c.query, c.db, /*k=*/3, [](const std::vector<Value>&) { return true; });
  if (enumerated.has_value()) {
    EXPECT_EQ(CountInt{*enumerated}, expected) << "seed " << c.seed;
    exercised.enumeration = true;
  }
  return exercised;
}

TEST(DifferentialOracleTest, TwoHundredRandomInstancesAgreeEverywhere) {
  CountingEngine engine;
  std::vector<OracleCase> cases = MakeCases(1, 200);
  ASSERT_EQ(cases.size(), 200u);
  int ps13_applicable = 0;
  int enumerable = 0;
  for (const OracleCase& c : cases) {
    Exercised exercised = CheckAllStrategiesAgree(c, &engine);
    if (exercised.ps13) ++ps13_applicable;
    if (exercised.enumeration) ++enumerable;
  }
  // The workload must actually exercise the optional strategies, not just
  // the always-applicable ones.
  EXPECT_GT(ps13_applicable, 50);
  EXPECT_GT(enumerable, 25);
}

TEST(DifferentialOracleTest, MorselParallelCountsAgreeWithSequential) {
  // Morsel parallelism forced on for every probe loop (threshold 1, tiny
  // morsels, a real pool) vs forced off: every strategy must return
  // identical counts on the same workload. This is the intra-query
  // analogue of the batch-vs-sequential check below, and the suite the
  // ASan/TSan CI jobs run against the morsel dispatch.
  EngineOptions parallel_options;
  parallel_options.batch_threads = 3;
  parallel_options.morsel_rows = 2;
  parallel_options.morsel_row_threshold = 1;
  CountingEngine parallel_engine(parallel_options);
  EngineOptions sequential_options;
  sequential_options.enable_morsel_parallelism = false;
  CountingEngine sequential_engine(sequential_options);

  std::vector<PlannerOptions> policies;
  policies.push_back(PlannerOptions{});  // planner default
  PlannerOptions sharp_only;
  sharp_only.enable_acyclic_ps13 = false;
  sharp_only.enable_hybrid = false;
  policies.push_back(sharp_only);
  PlannerOptions hybrid;
  hybrid.enable_acyclic_ps13 = false;
  hybrid.enable_hybrid = true;
  policies.push_back(hybrid);

  std::vector<OracleCase> cases = MakeCases(241, 300);
  for (const OracleCase& c : cases) {
    for (const PlannerOptions& policy : policies) {
      CountResult par = parallel_engine.Count(c.query, c.db, policy);
      CountResult seq = sequential_engine.Count(c.query, c.db, policy);
      EXPECT_EQ(par.count, seq.count)
          << "seed " << c.seed << " via " << par.method << " / "
          << seq.method;
    }
  }
}

TEST(DifferentialOracleTest, BatchAgreesWithSequentialOnMixedWorkload) {
  // The concurrent batch path must return exactly what one-at-a-time
  // counting returns, in job order.
  EngineOptions options;
  options.batch_threads = 4;
  CountingEngine engine(options);
  std::vector<OracleCase> cases = MakeCases(201, 240);

  std::vector<CountJob> jobs;
  jobs.reserve(cases.size());
  for (const OracleCase& c : cases) jobs.push_back({c.query, &c.db});
  std::vector<CountResult> results = engine.CountBatch(jobs);

  ASSERT_EQ(results.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(results[i].count, CountByBacktracking(cases[i].query, cases[i].db))
        << "seed " << cases[i].seed << " via " << results[i].method;
  }
}

// --- width-2/3 bags over thousand-row relations ------------------------------
//
// The cases above use tiny databases. Here the queries are ones whose
// #-hypertree plan needs bags of two or three guards, over relations of
// about a thousand rows, so each bag's guard joins are large enough for
// join order and early projection to matter.

// A connected random CQ with a width-k #-hypertree plan, k in [min_width,
// 3]; nullopt for other seeds. `dense` draws many atoms over few variables
// (where width 3 occurs); otherwise the shapes are ad-hoc-like (6-10
// variables, 5-9 atoms, 4 relation symbols). Disconnected queries are
// skipped: join-project, the oracle here, would multiply their components.
std::optional<ConjunctiveQuery> WideQuery(std::uint64_t seed, bool dense,
                                          int min_width, int* width) {
  std::mt19937_64 shape(seed);
  RandomQueryParams qp;
  qp.num_vars = dense ? 7 + static_cast<int>(shape() % 4)
                      : 6 + static_cast<int>(shape() % 5);
  qp.num_atoms = dense ? 10 + static_cast<int>(shape() % 4)
                       : 5 + static_cast<int>(shape() % 5);
  qp.max_arity = 3;
  qp.num_free = 1 + static_cast<int>(shape() % 2);
  qp.num_relations = dense ? 12 : 4;
  qp.seed = seed;
  ConjunctiveQuery q = MakeRandomQuery(qp);
  if (ConnectedComponents(q.BuildHypergraph()).size() != 1) {
    return std::nullopt;
  }
  const CountingPlan plan = MakePlan(q);
  if (plan.strategy != PlanStrategy::kSharpHypertree ||
      plan.width_budget < min_width) {
    return std::nullopt;
  }
  *width = plan.width_budget;
  return q;
}

// 1000 random rows per relation over values 0..499, plus the tuples of 40
// planted assignments of all variables, so that the counts are not all
// zero while the random part stays sparse enough for join-project.
Database ThousandRowDatabase(const ConjunctiveQuery& q, std::uint64_t seed) {
  constexpr Value kDomain = 500;
  std::mt19937_64 rng(seed);
  Database db;
  for (const Atom& atom : q.atoms()) {
    if (db.HasRelation(atom.relation)) continue;
    Relation& rel = db.DeclareRelation(atom.relation, atom.arity());
    std::vector<Value> row(static_cast<std::size_t>(atom.arity()));
    for (int i = 0; i < 1000; ++i) {
      for (Value& v : row) v = static_cast<Value>(rng() % kDomain);
      rel.AddRow(row);
    }
  }
  std::vector<Value> assignment(q.name_table()->names.size());
  for (int planted = 0; planted < 40; ++planted) {
    for (Value& v : assignment) v = static_cast<Value>(rng() % kDomain);
    for (const Atom& atom : q.atoms()) {
      std::vector<Value> row;
      for (const Term& t : atom.terms) row.push_back(assignment[t.var]);
      db.mutable_relation(atom.relation).AddRow(row);
    }
  }
  for (const Atom& atom : q.atoms()) db.mutable_relation(atom.relation).Dedup();
  return db;
}

TEST(DifferentialOracleTest, WideBagsOverThousandRowRelationsAgree) {
  CountingEngine engine;
  int cases = 0;
  int width3 = 0;
  int nonzero = 0;
  auto check = [&](const ConjunctiveQuery& q, std::uint64_t seed, int width) {
    const Database db = ThousandRowDatabase(q, seed);
    // The oracle's joins run under a budget, so a blow-up fails the case
    // instead of exhausting the host.
    MemoryBudget budget(std::uint64_t{256} << 20);
    ExecPolicy policy;
    policy.query_memory = &budget;
    CountInt expected = 0;
    {
      ExecScope scope(std::move(policy));
      expected = CountByJoinProject(q, db);
    }
    const CountResult result = engine.Count(q, db);
    EXPECT_EQ(result.count, expected)
        << "seed " << seed << " via " << result.method << ": "
        << q.DebugString();
    EXPECT_EQ(result.method, "#-hypertree(k=" + std::to_string(width) + ")");
    ++cases;
    if (width == 3) ++width3;
    if (expected > 0) ++nonzero;
  };
  int width = 0;
  for (std::uint64_t seed = 1; cases < 54; ++seed) {
    if (auto q = WideQuery(seed, /*dense=*/false, 2, &width)) {
      check(*q, seed, width);
    }
  }
  for (std::uint64_t seed = 1; width3 < 6; ++seed) {
    if (auto q = WideQuery(seed, /*dense=*/true, 3, &width)) {
      check(*q, seed, width);
    }
  }
  EXPECT_EQ(cases, 60);
  EXPECT_GT(nonzero, 50);
}

}  // namespace
}  // namespace sharpcq
