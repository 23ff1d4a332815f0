#ifndef SHARPCQ_CORE_MATERIALIZE_H_
#define SHARPCQ_CORE_MATERIALIZE_H_

#include <vector>

#include "algebra/rel.h"
#include "count/join_tree_instance.h"
#include "data/database.h"
#include "decomp/tree_projection.h"
#include "decomp/views.h"
#include "query/conjunctive_query.h"

namespace sharpcq {

// The relation of one view over `db`: the join of its guard atoms (from
// `guard_query`) for V^k-style views, or the stored relation for named
// views (columns in ascending-VarId order). Aborts on purely abstract views.
// The kernel form is primary; MaterializeView is the legacy by-value shim.
Rel MaterializeViewRel(const ViewSet& views, std::size_t view_id,
                       const ConjunctiveQuery& guard_query,
                       const Database& db);
VarRelation MaterializeView(const ViewSet& views, std::size_t view_id,
                            const ConjunctiveQuery& guard_query,
                            const Database& db);

// The relation of one bag: pi_chi(guards |><| assigned), computed with the
// projections pushed into the join rather than as pi_chi(|><| guards) ⋉
// assigned. The two are equal because every assigned relation's variables
// lie in chi (checked) and projection is taken under set semantics. Order:
//
//   - each guard is first projected onto chi plus the variables it shares
//     with another guard;
//   - the running result starts from the smallest guard and next joins the
//     smallest guard sharing a variable with it;
//   - when no remaining guard shares one, an assigned relation whose
//     variables lie in the result plus one guard, and which touches both,
//     is joined first so that guard joins on shared variables (a cross
//     product only when no such connector exists);
//   - every assigned relation the result covers is semijoined as soon as it
//     is covered;
//   - after each step the variables outside chi that no remaining guard
//     uses are projected away.
//
// Every intermediate thus lies within the product of the guards joined so
// far times one assigned relation: O(m^k) for k guards over relations of at
// most m rows. With a single guard this is exactly pi_chi(guard) followed by
// the semijoins, in order. `guards` must be non-empty and cover chi.
Rel MaterializeBag(const IdSet& chi, std::vector<Rel> guards,
                   std::vector<Rel> assigned);

// Materializes the bags of a decomposition into an acyclic instance whose
// solutions are exactly those of `core` on `db`:
//
//   bag relation r_v = pi_{chi(v)}( view relation of v's guard )
//                      semijoined with every core atom assigned to v,
//
// each computed by MaterializeBag (a named view's stored relation is its
// single guard).
//
// Guard atom indices refer to `guard_query` (the original query Q the views
// were built from; its joins are legal for the colored core — see
// DESIGN.md); named views read their relation from `db`, which must be
// legal w.r.t. the query (core/legality.h). Every atom of `core` must be
// covered by some bag; each is assigned to the first covering bag and
// enforced there via a semijoin, so the instance is a *complete*
// decomposition of `core`. An atom identical to one of that bag's guard
// atoms (same relation, same term list) is enforced by the guard join
// itself and is not semijoined: a width-1 bag whose chi is its guard's
// variables is then the guard's relation, sharing a stored table as is.
JoinTreeInstance MaterializeBags(const ConjunctiveQuery& core,
                                 const ConjunctiveQuery& guard_query,
                                 const Database& db, const BagTree& tree,
                                 const ViewSet& views);

}  // namespace sharpcq

#endif  // SHARPCQ_CORE_MATERIALIZE_H_
