#ifndef SHARPCQ_SOLVER_CONSISTENCY_H_
#define SHARPCQ_SOLVER_CONSISTENCY_H_

#include <vector>

#include "algebra/rel.h"
#include "data/var_relation.h"

namespace sharpcq {

// Enforces pairwise consistency on a set of views to fixpoint (Sections 3.2
// and 4): repeatedly semijoins every view with every other view sharing
// variables until nothing changes. Returns false iff some view became empty
// (no solution can exist).
//
// This is the local-consistency engine behind Lemma 4.3 (polynomial core
// computation) and the reference implementation for the Theorem 3.7
// pipeline (which uses the cheaper join-tree full reducer in count/).
//
// The kernel overload is the primary implementation. Acyclic view schemas
// are detected up front and downgraded to the two-pass join-tree full
// reducer (Beeri–Fagin–Maier–Yannakakis: pairwise consistency equals
// global consistency there, and the reducer reaches it in O(n) semijoins).
// Cyclic schemas run a FIFO worklist propagator instead of the old
// full-rescan fixpoint: a pair (i, j) is re-enqueued only when its right
// side j shrank, so the confirming rescans over every pair disappear. The
// schedule is the same with the cost model on or off. Both paths
// reuse the right-hand views' cached hash indexes, and semijoins that
// remove nothing return the unchanged handle (no materialization).
bool EnforcePairwiseConsistency(std::vector<Rel>* views);

// Legacy shim over the kernel implementation, preserved so callers holding
// by-value VarRelations (and the tests arbitrating old vs new semantics)
// keep working. Views come back deduplicated.
bool EnforcePairwiseConsistency(std::vector<VarRelation>* views);

}  // namespace sharpcq

#endif  // SHARPCQ_SOLVER_CONSISTENCY_H_
