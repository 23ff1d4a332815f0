#ifndef SHARPCQ_ENGINE_PLANNER_H_
#define SHARPCQ_ENGINE_PLANNER_H_

#include "engine/plan.h"
#include "query/conjunctive_query.h"

namespace sharpcq {

// The planner: the query-only, FPT half of counting. Computes the two
// structural facts the policy reads — the #-hypertree width up to
// max_width (one FindMinWidthSharpDecomposition search) and, when that
// fails, the acyclicity of HQ — then selects a strategy by an explicit
// policy:
//
//   1. kSharpHypertree  if some k <= max_width admits a width-k
//                       #-hypertree decomposition (Theorem 1.3);
//   2. kAcyclicPs13     if enabled and HQ is acyclic with every free
//                       variable occurring in some atom (Theorem 6.2 on the
//                       query's own join tree);
//   3. kSharpB          if enabled and some k in 2..max_width has a #b
//                       candidate (Theorems 6.6/6.7): the plan stores the
//                       search's query-only half, and each execution runs
//                       only the data half that minimizes the degree b;
//   4. kBacktracking    otherwise.
//
// The returned plan is valid for every database and is what the engine's
// PlanCache stores. MakePlan touches no shared state (concurrent calls are
// safe, even on the same query); a finished plan is immutable — published
// as shared_ptr<const CountingPlan> and safe to execute from any thread.
//
// `profile` (optional) is the current generation's data statistics
// (algebra/stats.h). It only breaks ties the structural policy leaves open
// — today: an acyclic query over a heavy-degree instance routes to kSharpB
// instead of kAcyclicPs13, since PS13's 4^h factor is exponential in the
// degree bound while #b re-decomposes around it. A plan built with a
// profile is only valid for databases in the same profile class, which is
// why the engine folds the profile fingerprint into its cache key.
struct DataProfile;
CountingPlan MakePlan(const ConjunctiveQuery& q,
                      const PlannerOptions& options = {},
                      const DataProfile* profile = nullptr);

}  // namespace sharpcq

#endif  // SHARPCQ_ENGINE_PLANNER_H_
