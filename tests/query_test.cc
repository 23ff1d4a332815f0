#include <gtest/gtest.h>

#include "algebra/exec_policy.h"
#include "algebra/table.h"
#include "data/database.h"
#include "gen/paper_queries.h"
#include "query/atom_relation.h"
#include "query/conjunctive_query.h"
#include "query/parser.h"
#include "tests/test_util.h"

namespace sharpcq {
namespace {

TEST(ConjunctiveQueryTest, BasicConstruction) {
  ConjunctiveQuery q;
  q.AddAtomVars("r", {"X", "Y"});
  q.AddAtomVars("s", {"Y", "Z"});
  q.SetFreeByName({"X"});
  EXPECT_EQ(q.NumAtoms(), 2u);
  EXPECT_EQ(q.AllVars().size(), 3u);
  EXPECT_EQ(q.free_vars(), VarsOf(q, {"X"}));
  EXPECT_EQ(q.ExistentialVars(), VarsOf(q, {"Y", "Z"}));
  EXPECT_TRUE(q.IsSimple());
}

TEST(ConjunctiveQueryTest, NonSimpleDetected) {
  ConjunctiveQuery q = MakeQ0();  // uses st and rr twice/thrice
  EXPECT_FALSE(q.IsSimple());
}

TEST(ConjunctiveQueryTest, ColoredAddsOneAtomPerFreeVariable) {
  ConjunctiveQuery q = MakeQ0();
  ConjunctiveQuery c = q.Colored();
  EXPECT_EQ(c.NumAtoms(), q.NumAtoms() + 3);
  int colors = 0;
  for (const Atom& a : c.atoms()) {
    colors += ConjunctiveQuery::IsColorRelation(a.relation) ? 1 : 0;
  }
  EXPECT_EQ(colors, 3);
  // Uncoloring restores the original atoms.
  EXPECT_EQ(c.Uncolored().NumAtoms(), q.NumAtoms());
}

TEST(ConjunctiveQueryTest, FullColoredCoversAllVariables) {
  ConjunctiveQuery q = MakeQ1();
  ConjunctiveQuery fc = q.FullColored();
  EXPECT_EQ(fc.NumAtoms(), q.NumAtoms() + q.AllVars().size());
}

TEST(ConjunctiveQueryTest, WithFreeChangesQuantification) {
  ConjunctiveQuery q = MakeQ0();
  IdSet s_bar = Union(q.free_vars(), VarsOf(q, {"D"}));
  ConjunctiveQuery qs = q.WithFree(s_bar);
  EXPECT_EQ(qs.free_vars(), s_bar);
  EXPECT_EQ(qs.NumAtoms(), q.NumAtoms());
  // Variable ids are shared between the two queries.
  EXPECT_EQ(qs.VarByName("D"), q.VarByName("D"));
}

TEST(ConjunctiveQueryTest, WithoutAtomAndKeepAtoms) {
  ConjunctiveQuery q = MakeQ1();
  ConjunctiveQuery smaller = q.WithoutAtom(0);
  EXPECT_EQ(smaller.NumAtoms(), 3u);
  EXPECT_EQ(smaller.atoms()[0].relation, "s2");
  ConjunctiveQuery kept = q.KeepAtoms({1, 3});
  EXPECT_EQ(kept.NumAtoms(), 2u);
  EXPECT_EQ(kept.atoms()[0].relation, "s2");
  EXPECT_EQ(kept.atoms()[1].relation, "s4");
}

TEST(ConjunctiveQueryTest, HypergraphDedupsAtomEdges) {
  // Q0 has st(D,F) and st(D,G): distinct edges; rr edges are distinct too.
  ConjunctiveQuery q = MakeQ0();
  EXPECT_EQ(q.BuildHypergraph().num_edges(), 9u);
  // A query with two atoms over the same variables produces one edge.
  ConjunctiveQuery dup;
  dup.AddAtomVars("r", {"X", "Y"});
  dup.AddAtomVars("s", {"Y", "X"});
  EXPECT_EQ(dup.BuildHypergraph().num_edges(), 1u);
}

TEST(ConjunctiveQueryTest, SizeMeasure) {
  ConjunctiveQuery q = MakeQ1();
  // 4 atoms of arity 2 plus 2 free variables: 4*(1+2) + 2 = 14.
  EXPECT_EQ(q.Size(), 14u);
}

// --- parser -----------------------------------------------------------------

TEST(ParserTest, ParsesQ0Shape) {
  auto q = ParseQuery(
      "Q(A,B,C) <- mw(A,B,I), wt(B,D), wi(B,E), pt(C,D), st(D,F), st(D,G), "
      "rr(G,H), rr(F,H), rr(D,H)");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->NumAtoms(), 9u);
  EXPECT_EQ(q->free_vars().size(), 3u);
  // Structure matches the programmatic constructor.
  ConjunctiveQuery ref = MakeQ0();
  EXPECT_EQ(SortedEdges(q->BuildHypergraph().edges()).size(),
            SortedEdges(ref.BuildHypergraph().edges()).size());
}

TEST(ParserTest, AcceptsPrologArrow) {
  EXPECT_TRUE(ParseQuery("Q(X) :- r(X,Y)").has_value());
}

TEST(ParserTest, IntegerConstants) {
  auto q = ParseQuery("Q(X) <- r(X, 42), s(-7, X)");
  ASSERT_TRUE(q.has_value());
  EXPECT_FALSE(q->atoms()[0].terms[1].is_var());
  EXPECT_EQ(q->atoms()[0].terms[1].value, 42);
  EXPECT_EQ(q->atoms()[1].terms[0].value, -7);
}

TEST(ParserTest, SymbolicConstantsNeedDict) {
  std::string error;
  EXPECT_FALSE(ParseQuery("Q(X) <- r(X, alice)", nullptr, &error).has_value());
  ValueDict dict;
  auto q = ParseQuery("Q(X) <- r(X, alice), s(X, 'bob smith')", &dict);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->atoms()[0].terms[1].value, dict.Find("alice"));
  EXPECT_EQ(q->atoms()[1].terms[1].value, dict.Find("bob smith"));
}

TEST(ParserTest, BooleanQueryAllowed) {
  auto q = ParseQuery("Q() <- r(X,Y), r(Y,X)");
  ASSERT_TRUE(q.has_value());
  EXPECT_TRUE(q->free_vars().empty());
}

TEST(ParserTest, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(ParseQuery("Q(X) r(X)", nullptr, &error).has_value());
  EXPECT_FALSE(ParseQuery("Q(X) <- ", nullptr, &error).has_value());
  EXPECT_FALSE(ParseQuery("Q(X) <- r(X", nullptr, &error).has_value());
  EXPECT_FALSE(ParseQuery("Q(x) <- r(x)", nullptr, &error).has_value());
  // Head variable missing from the body.
  EXPECT_FALSE(ParseQuery("Q(Z) <- r(X,Y)", nullptr, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ParserTest, RejectsEmptyArgumentPositions) {
  // "Q(X,,Y) <- r(X,Y)" used to parse as if the head were Q(X,Y): the split
  // dropped the empty position, silently narrowing the atom.
  std::string error;
  EXPECT_FALSE(ParseQuery("Q(X,,Y) <- r(X,Y), s(Y)", nullptr, &error)
                   .has_value());
  EXPECT_NE(error.find("empty argument position"), std::string::npos)
      << error;
  error.clear();
  EXPECT_FALSE(ParseQuery("Q(X) <- r(X,,Y)", nullptr, &error).has_value());
  EXPECT_NE(error.find("empty argument position"), std::string::npos)
      << error;
  EXPECT_FALSE(ParseQuery("Q(X) <- r(X,)", nullptr, &error).has_value());
  EXPECT_FALSE(ParseQuery("Q(X) <- r(,X)", nullptr, &error).has_value());
  EXPECT_FALSE(ParseQuery("Q(,) <- r(X)", nullptr, &error).has_value());
  // Nullary atoms remain legal; only positional blanks are errors.
  EXPECT_TRUE(ParseQuery("Q() <- r(X,Y)").has_value());
}

// --- atom -> VarRelation ----------------------------------------------------

TEST(AtomRelationTest, PlainAtom) {
  Database db;
  db.AddTuple("r", {1, 2});
  db.AddTuple("r", {3, 4});
  ConjunctiveQuery q;
  q.AddAtomVars("r", {"X", "Y"});
  VarRelation rel = AtomToVarRelation(q.atoms()[0], db);
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel.vars().size(), 2u);
}

TEST(AtomRelationTest, ConstantFiltersRows) {
  Database db;
  db.AddTuple("r", {1, 2});
  db.AddTuple("r", {3, 2});
  db.AddTuple("r", {3, 9});
  ConjunctiveQuery q;
  VarId x = q.InternVar("X");
  q.AddAtom("r", {Term::Var(x), Term::Const(2)});
  VarRelation rel = AtomToVarRelation(q.atoms()[0], db);
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_TRUE(rel.rel().ContainsRow(std::vector<Value>{1}));
  EXPECT_TRUE(rel.rel().ContainsRow(std::vector<Value>{3}));
}

TEST(AtomRelationTest, RepeatedVariableEnforcesEquality) {
  Database db;
  db.AddTuple("r", {1, 1});
  db.AddTuple("r", {1, 2});
  db.AddTuple("r", {3, 3});
  ConjunctiveQuery q;
  VarId x = q.InternVar("X");
  q.AddAtom("r", {Term::Var(x), Term::Var(x)});
  VarRelation rel = AtomToVarRelation(q.atoms()[0], db);
  EXPECT_EQ(rel.size(), 2u);  // (1) and (3)
  EXPECT_EQ(rel.vars().size(), 1u);
}

TEST(AtomRelationTest, ProjectionDedups) {
  // Two db rows that agree on the variable positions collapse.
  Database db;
  db.AddTuple("r", {1, 7});
  db.AddTuple("r", {1, 8});
  ConjunctiveQuery q;
  VarId x = q.InternVar("X");
  q.AddAtom("r", {Term::Var(x), Term::Var(q.InternVar("Y"))});
  ConjunctiveQuery q2;
  VarId x2 = q2.InternVar("X");
  q2.AddAtom("r", {Term::Var(x2), Term::Const(7)});
  EXPECT_EQ(AtomToVarRelation(q.atoms()[0], db).size(), 2u);
  EXPECT_EQ(AtomToVarRelation(q2.atoms()[0], db).size(), 1u);
}

TEST(AtomRelationTest, PermutedColumnarAtomReusesOneAlias) {
  // r has one morsel of rows: (i, i + 1).
  Database raw;
  for (Value i = 0; i < static_cast<Value>(kDefaultMorselRows); ++i) {
    raw.AddTuple("r", {i, i + 1});
  }
  // Y is interned first, so the output columns (ascending id) are (Y, X):
  // a permutation of r's stored columns.
  ConjunctiveQuery q;
  VarId y = q.InternVar("Y");
  VarId x = q.InternVar("X");
  q.AddAtom("r", {Term::Var(x), Term::Var(y)});

  const Database db = ColumnarCopy(raw);
  const std::shared_ptr<const Table> stored = db.ColumnarBacking("r");
  const Rel first = AtomToRel(q.atoms()[0], db);
  const Rel second = AtomToRel(q.atoms()[0], db);
  EXPECT_NE(first.table(), stored);
  EXPECT_EQ(first.table(), second.table());
  EXPECT_EQ(first.table()->Column(0).data(), stored->Column(1).data());
  EXPECT_TRUE(first.table()->ContainsRow(std::vector<Value>{2, 1}));
  EXPECT_FALSE(first.table()->ContainsRow(std::vector<Value>{1, 2}));
  // Its indexes are the stored table's, on the mapped columns.
  EXPECT_EQ(first.table()->IndexOn({0}), stored->IndexOn({1}));
  EXPECT_EQ(first.table()->CachedIndexCount(), stored->CachedIndexCount());

  // The alias keeps its stored table alive past the database.
  Rel kept = [&] {
    const Database local = ColumnarCopy(raw);
    return AtomToRel(q.atoms()[0], local);
  }();
  EXPECT_TRUE(kept.table()->ContainsRow(std::vector<Value>{4, 3}));

  // A smaller table gets a fresh alias with its own indexes every time.
  Database small_raw;
  small_raw.AddTuple("r", {1, 2});
  const Database small = ColumnarCopy(small_raw);
  const Rel a = AtomToRel(q.atoms()[0], small);
  const Rel b = AtomToRel(q.atoms()[0], small);
  EXPECT_NE(a.table(), b.table());
  EXPECT_TRUE(a.table()->ContainsRow(std::vector<Value>{2, 1}));
  EXPECT_EQ(small.ColumnarBacking("r")->CachedIndexCount(), 0u);
}

}  // namespace
}  // namespace sharpcq
