// Bag materialization (core/materialize.h). MaterializeBag computes
// pi_chi(guards |><| assigned) with the projections pushed into the join;
// every case here checks it against the join-then-project form it replaced:
// pi_chi(guard_1 |><| ... |><| guard_n), then one semijoin per assigned
// relation.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "algebra/rel.h"
#include "core/materialize.h"
#include "core/sharp_counting.h"
#include "core/sharp_decomposition.h"
#include "count/enumeration.h"
#include "data/var_relation.h"
#include "gen/paper_queries.h"
#include "query/atom_relation.h"
#include "query/parser.h"
#include "tests/test_util.h"

namespace sharpcq {
namespace {

Rel JoinThenProject(const IdSet& chi, const std::vector<Rel>& guards,
                    const std::vector<Rel>& assigned) {
  Rel joined = guards[0];
  for (std::size_t g = 1; g < guards.size(); ++g) {
    joined = Join(joined, guards[g]);
  }
  Rel bag = Project(joined, chi);
  for (const Rel& a : assigned) bag = Semijoin(bag, a);
  return bag;
}

void ExpectSameAsJoinThenProject(const IdSet& chi,
                                 const std::vector<Rel>& guards,
                                 const std::vector<Rel>& assigned) {
  const Rel expected = JoinThenProject(chi, guards, assigned);
  const Rel got = MaterializeBag(chi, guards, assigned);
  EXPECT_EQ(got.vars(), chi);
  EXPECT_TRUE(SameRel(got, expected))
      << "got " << got.DebugString() << "\nexpected "
      << expected.DebugString();
}

Rel MakeRel(IdSet vars, const std::vector<std::vector<Value>>& rows) {
  VarRelation r(std::move(vars));
  for (const auto& row : rows) r.rel().AddRow(std::span<const Value>(row));
  return Rel(r);
}

// A random relation over `vars`, 0..max_rows rows with values below `domain`.
Rel RandomRel(std::mt19937_64* rng, const IdSet& vars, int domain,
              int max_rows) {
  VarRelation r(vars);
  const int rows = static_cast<int>((*rng)() % (max_rows + 1));
  std::vector<Value> row(vars.size());
  for (int i = 0; i < rows; ++i) {
    for (Value& v : row) v = static_cast<Value>((*rng)() % domain);
    r.rel().AddRow(row);
  }
  return Rel(r);
}

// Q0's bag {B,D,H}: the guards rr(G,H) and wt(B,D) share no variable, and
// the assigned atom rr(D,H) connects them.
TEST(MaterializeBagTest, DisconnectedGuardsJoinThroughTheirConnector) {
  const ConjunctiveQuery q = MakeQ0();
  Q0DatabaseParams params;
  params.rr_tuples = 90;
  params.wt_tuples = 60;
  const Database db = MakeQ0Database(params);
  auto atom = [&](int i) {
    return AtomToRel(q.atoms()[static_cast<std::size_t>(i)], db);
  };
  const IdSet chi = VarsOf(q, {"B", "D", "H"});
  ExpectSameAsJoinThenProject(chi, {atom(6), atom(1)}, {atom(8)});
  EXPECT_FALSE(MaterializeBag(chi, {atom(6), atom(1)}, {atom(8)}).empty());
}

TEST(MaterializeBagTest, DisconnectedGuardsWithoutConnectorTakeTheProduct) {
  // x=0, y=1, z=2, w=3.
  const Rel r = MakeRel({0, 1}, {{1, 10}, {2, 20}, {3, 30}});
  const Rel s = MakeRel({2, 3}, {{5, 50}, {6, 60}});
  const Rel t = MakeRel({0}, {{1}, {3}});
  ExpectSameAsJoinThenProject({0, 2}, {r, s}, {t});
  EXPECT_EQ(MaterializeBag({0, 2}, {r, s}, {t}).size(), 4u);
  // An assigned relation over variables of both guards but not connecting
  // the result to one guard alone: semijoined after the product.
  const Rel xz = MakeRel({0, 2}, {{1, 5}, {2, 6}, {9, 9}});
  ExpectSameAsJoinThenProject({0, 2}, {r, s}, {xz});
}

TEST(MaterializeBagTest, JoinVariablesOutsideTheBagAreDroppedAfterUse) {
  // A chain x-y-z-w over three guards; the bag keeps only {x, w}.
  const Rel r = MakeRel({0, 1}, {{1, 1}, {1, 2}, {2, 2}, {3, 4}});
  const Rel s = MakeRel({1, 2}, {{1, 7}, {2, 7}, {2, 8}, {4, 9}});
  const Rel t = MakeRel({2, 3}, {{7, 100}, {8, 100}, {9, 200}});
  const Rel xw = MakeRel({0, 3}, {{1, 100}, {3, 200}, {2, 200}});
  ExpectSameAsJoinThenProject({0, 3}, {r, s, t}, {});
  ExpectSameAsJoinThenProject({0, 3}, {r, s, t}, {xw});
  ExpectSameAsJoinThenProject({0, 1, 3}, {t, r, s}, {xw});
}

TEST(MaterializeBagTest, EmptyInputsGiveAnEmptyBag) {
  const Rel r = MakeRel({0, 1}, {{1, 2}, {2, 3}});
  const Rel s = MakeRel({1, 2}, {{2, 5}, {3, 6}});
  const Rel empty_guard = Rel(IdSet{2, 3});
  const Rel empty_assigned = Rel(IdSet{0});
  ExpectSameAsJoinThenProject({0, 3}, {r, empty_guard}, {});
  ExpectSameAsJoinThenProject({0, 2}, {r, s}, {empty_assigned});
  ExpectSameAsJoinThenProject({0}, {Rel(IdSet{0, 1})}, {});
  EXPECT_TRUE(MaterializeBag({0, 3}, {r, empty_guard}, {}).empty());
  EXPECT_TRUE(MaterializeBag({0, 2}, {r, s}, {empty_assigned}).empty());
}

TEST(MaterializeBagTest, SingleGuardIsProjectThenSemijoin) {
  const Rel r = MakeRel({0, 1, 2}, {{1, 2, 3}, {1, 4, 3}, {2, 2, 2}});
  const Rel a = MakeRel({0, 2}, {{1, 3}});
  ExpectSameAsJoinThenProject({0, 2}, {r}, {a});
  // Nothing to project or filter: the guard's own table comes back.
  EXPECT_EQ(MaterializeBag({0, 1, 2}, {r}, {}).table(), r.table());
}

TEST(MaterializeBagTest, RandomGuardSetsMatchJoinThenProject) {
  std::mt19937_64 rng(17);
  constexpr std::uint32_t kVars = 6;
  for (int trial = 0; trial < 400; ++trial) {
    const int num_guards = 1 + static_cast<int>(rng() % 4);
    std::vector<Rel> guards;
    IdSet guarded;
    for (int g = 0; g < num_guards; ++g) {
      IdSet vars;
      while (vars.empty()) {
        for (std::uint32_t v = 0; v < kVars; ++v) {
          if (rng() % 3 == 0) vars.Insert(v);
        }
      }
      guarded = Union(guarded, vars);
      guards.push_back(RandomRel(&rng, vars, 4, 24));
    }
    IdSet chi;
    for (std::uint32_t v : guarded) {
      if (rng() % 2 == 0) chi.Insert(v);
    }
    std::vector<Rel> assigned;
    const int num_assigned = chi.empty() ? 0 : static_cast<int>(rng() % 3);
    for (int a = 0; a < num_assigned; ++a) {
      IdSet vars;
      while (vars.empty()) {
        for (std::uint32_t v : chi) {
          if (rng() % 2 == 0) vars.Insert(v);
        }
      }
      assigned.push_back(RandomRel(&rng, vars, 4, 12));
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectSameAsJoinThenProject(chi, guards, assigned);
  }
}

// MaterializeBags, bag by bag, against the join-then-project form with the
// same atom assignment (each core atom to the first bag covering it).
void ExpectBagsSameAsJoinThenProject(const ConjunctiveQuery& q,
                                     const Database& db,
                                     const SharpDecomposition& d) {
  const JoinTreeInstance instance =
      MaterializeBags(d.core, q, db, d.tree, d.views);
  ASSERT_EQ(instance.nodes.size(), d.tree.bags.size());
  std::vector<std::vector<Rel>> assigned(d.tree.bags.size());
  for (const Atom& atom : d.core.atoms()) {
    std::size_t v = 0;
    while (!atom.Vars().IsSubsetOf(d.tree.bags[v])) ++v;
    assigned[v].push_back(AtomToRel(atom, db));
  }
  for (std::size_t v = 0; v < d.tree.bags.size(); ++v) {
    const Rel view = MaterializeViewRel(
        d.views, static_cast<std::size_t>(d.tree.view_ids[v]), q, db);
    const Rel expected = JoinThenProject(d.tree.bags[v], {view}, assigned[v]);
    EXPECT_TRUE(SameRel(instance.nodes[v], expected)) << "bag " << v;
  }
}

TEST(MaterializeBagsTest, SharpHypertreeBagsOfQ0MatchJoinThenProject) {
  const ConjunctiveQuery q = MakeQ0();
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Q0DatabaseParams params;
    params.seed = seed;
    const Database db = MakeQ0Database(params);
    auto d = FindSharpHypertreeDecomposition(q, 2);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->width, 2);
    ExpectBagsSameAsJoinThenProject(q, db, *d);
  }
}

TEST(MaterializeBagsTest, NamedViewIsTheBagsSingleGuard) {
  // Q0's view set V0 (Example 3.5) as named relations: a view's stored
  // relation, not a join of atoms, guards its bags.
  const ConjunctiveQuery q = MakeQ0();
  Database db = MakeQ0Database(Q0DatabaseParams{});
  const std::vector<std::pair<std::string, std::vector<const char*>>> named =
      {{"v_abi", {"A", "B", "I"}},
       {"v_be", {"B", "E"}},
       {"v_bcd", {"B", "C", "D"}},
       {"v_dfh", {"D", "F", "H"}}};
  std::vector<std::pair<std::string, IdSet>> views;
  for (const auto& [name, var_names] : named) {
    IdSet vars;
    for (const char* n : var_names) vars.Insert(q.VarByName(n));
    // Store pi_vars of the join of the atoms touching the view.
    std::vector<Rel> touching;
    for (const Atom& atom : q.atoms()) {
      if (atom.Vars().Intersects(vars)) touching.push_back(AtomToRel(atom, db));
    }
    const Rel stored = JoinThenProject(vars, touching, {});
    Relation& rel = db.DeclareRelation(name, static_cast<int>(vars.size()));
    for (std::size_t i = 0; i < stored.size(); ++i) {
      std::vector<Value> row;
      for (std::uint32_t v : vars) row.push_back(stored.At(i, v));
      rel.AddRow(row);
    }
    views.emplace_back(name, vars);
  }
  auto d = FindSharpDecomposition(q, ViewsFromNamedRelations(views));
  ASSERT_TRUE(d.has_value());
  ExpectBagsSameAsJoinThenProject(q, db, *d);
}


ConjunctiveQuery ParseOrDie(const char* text) {
  std::optional<ConjunctiveQuery> q = ParseQuery(text);
  EXPECT_TRUE(q.has_value()) << text;
  return *q;
}

TEST(MaterializeBagsTest, WidthOneGuardAtomIsNotSemijoinedWithItself) {
  const ConjunctiveQuery q = ParseOrDie("Q(X,Y,Z) <- r(X,Y), s(Y,Z)");
  Database raw;
  for (auto [x, y] : {std::pair<Value, Value>{1, 2}, {2, 3}, {4, 9}}) {
    raw.AddTuple("r", {x, y});
  }
  for (auto [y, z] : {std::pair<Value, Value>{2, 5}, {3, 6}, {7, 7}}) {
    raw.AddTuple("s", {y, z});
  }
  const Database db = ColumnarCopy(raw);
  auto d = FindSharpHypertreeDecomposition(q, 1);
  ASSERT_TRUE(d.has_value());
  const JoinTreeInstance instance =
      MaterializeBags(d->core, q, db, d->tree, d->views);
  int shared = 0;
  for (std::size_t v = 0; v < instance.nodes.size(); ++v) {
    const std::vector<int>& guards =
        d->views.guards[static_cast<std::size_t>(d->tree.view_ids[v])];
    ASSERT_EQ(guards.size(), 1u);
    const Atom& guard = q.atoms()[static_cast<std::size_t>(guards[0])];
    if (d->tree.bags[v] != guard.Vars()) continue;
    // The bag is the stored table itself, and no semijoin built an index
    // on it.
    const std::shared_ptr<const Table> stored =
        db.ColumnarBacking(guard.relation);
    EXPECT_EQ(instance.nodes[v].table(), stored) << "bag " << v;
    EXPECT_EQ(stored->CachedIndexCount(), 0u) << "bag " << v;
    ++shared;
  }
  EXPECT_EQ(shared, 2);
  ExpectBagsSameAsJoinThenProject(q, db, *d);
  EXPECT_EQ(CountViaSharpDecomposition(q, db, *d).count,
            CountByBacktracking(q, db));
}

TEST(MaterializeBagsTest, ReversedAtomOverTheGuardRelationIsStillEnforced) {
  // r(X,Y) and r(Y,X) share a relation but not a term list: the bag that
  // r(X,Y) guards must still be semijoined with r(Y,X).
  const ConjunctiveQuery q = ParseOrDie("Q(X,Y) <- r(X,Y), r(Y,X)");
  Database raw;
  for (auto [x, y] : {std::pair<Value, Value>{1, 2}, {2, 1}, {3, 4}, {5, 5}}) {
    raw.AddTuple("r", {x, y});
  }
  const Database db = ColumnarCopy(raw);
  auto d = FindSharpHypertreeDecomposition(q, 1);
  ASSERT_TRUE(d.has_value());
  ExpectBagsSameAsJoinThenProject(q, db, *d);
  const JoinTreeInstance instance =
      MaterializeBags(d->core, q, db, d->tree, d->views);
  ASSERT_FALSE(instance.nodes.empty());
  EXPECT_EQ(instance.nodes[0].size(), 3u);  // (1,2), (2,1), (5,5)
  EXPECT_EQ(CountViaSharpDecomposition(q, db, *d).count, CountInt{3});
  EXPECT_EQ(CountByBacktracking(q, db), CountInt{3});
}

}  // namespace
}  // namespace sharpcq
