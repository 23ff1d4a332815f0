#ifndef SHARPCQ_HYBRID_MIN_DEGREE_SEARCH_H_
#define SHARPCQ_HYBRID_MIN_DEGREE_SEARCH_H_

#include <optional>
#include <vector>

#include "data/database.h"
#include "decomp/tree_projection.h"
#include "decomp/views.h"
#include "query/conjunctive_query.h"
#include "util/id_set.h"

namespace sharpcq {

struct MinDegreeResult {
  BagTree tree;
  std::size_t bound = 0;  // the achieved bound(D, HD)
};

// Finds a tree projection of `cover` w.r.t. `views` whose *maximum bag
// degree* is minimal: the degree of a bag is
// DegreeOfRelation(pi_{bag ∩ project_to}(view relation), free), the
// quantity of Definitions 6.1/6.4. Views are materialized lazily over `db`
// by joining their guard atoms from `guard_query`; degrees are cached per
// (view, projected bag).
//
// This is the optimization core shared by the D-optimal decompositions of
// Theorem C.5 (project_to = all variables) and the #b-decomposition search
// of Theorem 6.7 (project_to = the pseudo-free set S-bar). The paper
// minimizes the weighted aggregate F_{Q,D} = sum (w+1)^deg, whose minimizer
// is exactly the min-max-degree decomposition; we compute that minimizer by
// a parametric scan (existence searches with a degree cap), avoiding the
// astronomically large weights.
//
// `existence` is a tree projection of `cover` w.r.t. `views` (what
// FindTreeProjection returns unfiltered); its achieved bound seeds the
// scan. The existence search depends on the query alone, so callers that
// search many databases with one query find it once. Returns nullopt if no
// tree projection achieves a bound <= max_b (pass SIZE_MAX for "no cap").
std::optional<MinDegreeResult> FindMinDegreeTreeProjection(
    const std::vector<IdSet>& cover, const ViewSet& views, BagTree existence,
    const ConjunctiveQuery& guard_query, const Database& db,
    const IdSet& free, const IdSet& project_to, std::size_t max_b);

}  // namespace sharpcq

#endif  // SHARPCQ_HYBRID_MIN_DEGREE_SEARCH_H_
