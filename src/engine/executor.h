#ifndef SHARPCQ_ENGINE_EXECUTOR_H_
#define SHARPCQ_ENGINE_EXECUTOR_H_

#include "core/sharp_counting.h"
#include "data/database.h"
#include "engine/plan.h"

namespace sharpcq {

// The executor: the database-dependent half of counting. Materializes a
// CountingPlan against a concrete database and returns the exact count with
// provenance (method string, width; CountingEngine::Count stamps
// execute_ms).
//
// Thread safety: ExecutePlan is a pure function of (plan, db) — every
// scratch structure (materialized bags, join-tree instances, the hybrid
// degree oracle) is call-local, and no reachable code mutates the plan's
// query, its shared variable NameTable, or the database. The one write is
// the kSharpB plan's self-locking memo slot (SharpBMemo), whose outcome is
// the same whichever count stores it. Any number of threads may execute
// one shared plan concurrently; see the "Concurrency model" section of
// DESIGN.md.
//
// Strategy semantics:
//   kSharpHypertree  Theorem 3.7 over the plan's stored decomposition.
//   kAcyclicPs13     PS13 over the join tree of the plan's query itself.
//   kSharpB          the #b search's data half over the plan's stored
//                    candidates (Theorem 6.7), once per data generation,
//                    then Theorem 6.6 counting; backtracking only when a
//                    finite hybrid_max_b rejects every candidate.
//   kBacktracking    the enumerate-with-projection baseline.
CountResult ExecutePlan(const CountingPlan& plan, const Database& db);

// The kAcyclicPs13 primitive, exposed for tests and benchmarks: builds the
// join tree of q's own atoms (q must be alpha-acyclic), materializes each
// atom relation, full-reduces, and runs the Figure 13 counter on the free
// variables. Exact for every acyclic query; cost exponential only in the
// instance's degree bound.
CountResult CountByAcyclicPs13(const ConjunctiveQuery& q, const Database& db);

}  // namespace sharpcq

#endif  // SHARPCQ_ENGINE_EXECUTOR_H_
