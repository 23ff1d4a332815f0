#include "engine/executor.h"

#include <memory>

#include "algebra/exec_policy.h"
#include "count/enumeration.h"
#include "count/join_tree_instance.h"
#include "count/ps13.h"
#include "hybrid/hybrid_counting.h"
#include "hypergraph/acyclic.h"
#include "query/atom_relation.h"
#include "util/check.h"
#include "util/trace.h"

namespace sharpcq {

namespace {

CountResult ExecuteSharpHypertree(const CountingPlan& plan,
                                  const Database& db) {
  CountResult result =
      CountViaSharpDecomposition(plan.query, db, *plan.sharp);
  result.method = "#-hypertree(k=" + std::to_string(plan.width_budget) + ")";
  return result;
}

// The #b search's data half over the plan's stored candidates, by
// increasing width: the first decomposition within hybrid_max_b, or null
// when a finite cap rejects every candidate at every width.
std::shared_ptr<const SharpBDecomposition> ChooseSharpB(
    const CountingPlan& plan, const Database& db) {
  for (const SharpBCandidates& width : plan.sharp_b) {
    CheckExecInterrupt();
    std::optional<SharpBDecomposition> d = FindSharpBDecomposition(
        plan.query, db, width, plan.options.hybrid_max_b);
    if (d.has_value()) {
      return std::make_shared<const SharpBDecomposition>(std::move(*d));
    }
  }
  return nullptr;
}

// The columnar table behind each atom of q, in atom order; empty when some
// atom reads a row-major relation, which has no identity to key a memo on.
std::vector<std::shared_ptr<const Table>> ColumnarTablesOf(
    const ConjunctiveQuery& q, const Database& db) {
  std::vector<std::shared_ptr<const Table>> tables;
  tables.reserve(q.NumAtoms());
  for (const Atom& atom : q.atoms()) {
    std::shared_ptr<const Table> table = db.ColumnarBacking(atom.relation);
    if (table == nullptr) return {};
    tables.push_back(std::move(table));
  }
  return tables;
}

// Theorem 6.6 counting over the decomposition the data step chose. The step
// runs once per data generation: over columnar data the plan's memo keeps
// its outcome, keyed on the tables it read. Over row-major data it runs on
// every count. An interrupted step throws before the store, so it leaves
// the memo as it was. Falls through to backtracking only when a finite
// hybrid_max_b rejects every candidate at every width.
CountResult ExecuteSharpB(const CountingPlan& plan, const Database& db) {
  const std::vector<std::shared_ptr<const Table>> tables =
      ColumnarTablesOf(plan.query, db);
  std::shared_ptr<const SharpBDecomposition> chosen;
  if (tables.empty() || !plan.sharp_b_memo.Find(tables, &chosen)) {
    chosen = ChooseSharpB(plan, db);
    if (!tables.empty()) plan.sharp_b_memo.Store(tables, chosen);
  }
  if (chosen != nullptr) return CountViaSharpB(plan.query, db, *chosen);
  TraceSpan span("backtracking");
  CountResult result;
  result.method = "backtracking";
  result.count = CountByBacktracking(plan.query, db);
  return result;
}

}  // namespace

CountResult CountByAcyclicPs13(const ConjunctiveQuery& q, const Database& db) {
  CountResult result;
  result.method = "acyclic-ps13";
  result.width = 1;

  std::vector<IdSet> edges;
  edges.reserve(q.NumAtoms());
  for (const Atom& atom : q.atoms()) edges.push_back(atom.Vars());
  std::optional<TreeShape> shape = BuildJoinTree(edges);
  SHARPCQ_CHECK_MSG(shape.has_value(),
                    "CountByAcyclicPs13 requires an acyclic query");

  JoinTreeInstance instance;
  instance.shape = std::move(*shape);
  instance.nodes.reserve(q.NumAtoms());
  {
    TraceSpan span("materialize_atoms");
    span.NoteCount("atoms", q.NumAtoms());
    for (const Atom& atom : q.atoms()) {
      instance.nodes.push_back(AtomToRel(atom, db));
    }
  }
  // Cost-model rewrite (no-op without a cost_model policy): root below the
  // big relations, most-selective children first. PS13 is exact for any
  // rooting of the join tree.
  OptimizeInstanceOrder(&instance);
  if (!FullReduce(&instance)) {
    result.count = 0;
    return result;
  }
  result.count = Ps13Count(instance, q.free_vars());
  return result;
}

CountResult ExecutePlan(const CountingPlan& plan, const Database& db) {
  CountResult result;
  switch (plan.strategy) {
    case PlanStrategy::kSharpHypertree:
      result = ExecuteSharpHypertree(plan, db);
      break;
    case PlanStrategy::kAcyclicPs13:
      result = CountByAcyclicPs13(plan.query, db);
      break;
    case PlanStrategy::kSharpB:
      result = ExecuteSharpB(plan, db);
      break;
    case PlanStrategy::kBacktracking: {
      TraceSpan span("backtracking");
      result.method = "backtracking";
      result.count = CountByBacktracking(plan.query, db);
      break;
    }
  }
  return result;
}

}  // namespace sharpcq
