#ifndef SHARPCQ_HYBRID_MIN_DEGREE_SEARCH_H_
#define SHARPCQ_HYBRID_MIN_DEGREE_SEARCH_H_

#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algebra/rel.h"
#include "data/database.h"
#include "decomp/tree_projection.h"
#include "decomp/views.h"
#include "query/conjunctive_query.h"
#include "util/id_set.h"

namespace sharpcq {

// The degree of a bag of a candidate tree projection: the degree of
// pi_{bag ∩ project_to}(view relation) w.r.t. `free`, the quantity of
// Definitions 6.1/6.4. Views are materialized lazily over `db` by joining
// their guard atoms from `guard_query`, each at most once; degrees are
// cached per (view, projected bag). Neither depends on project_to beyond
// the projected bag, so one oracle serves every pseudo-free set and core
// searched against one view set: a guard view shared by several candidates
// is joined once. Single-threaded; lives for one data step.
class DegreeOracle {
 public:
  DegreeOracle(const ViewSet& views, const ConjunctiveQuery& guard_query,
               const Database& db, const IdSet& free)
      : views_(views), guard_query_(guard_query), db_(db), free_(free) {}

  std::size_t DegreeOf(const IdSet& bag, const IdSet& project_to,
                       int view_id);

  const ViewSet& views() const { return views_; }
  // Guard views joined so far (each view at most once).
  std::size_t views_joined() const { return view_cache_.size(); }

 private:
  const Rel& ViewRelation(int view_id);

  const ViewSet& views_;
  const ConjunctiveQuery& guard_query_;
  const Database& db_;
  IdSet free_;
  std::unordered_map<int, Rel> view_cache_;
  std::map<std::pair<int, IdSet>, std::size_t> degree_cache_;
};

struct MinDegreeResult {
  BagTree tree;
  std::size_t bound = 0;  // the achieved bound(D, HD)
};

// Finds a tree projection of `cover` w.r.t. the oracle's views whose
// *maximum bag degree* (DegreeOracle::DegreeOf with `project_to`) is
// minimal.
//
// This is the optimization core shared by the D-optimal decompositions of
// Theorem C.5 (project_to = all variables) and the #b-decomposition search
// of Theorem 6.7 (project_to = the pseudo-free set S-bar). The paper
// minimizes the weighted aggregate F_{Q,D} = sum (w+1)^deg, whose minimizer
// is exactly the min-max-degree decomposition; we compute that minimizer by
// a parametric scan (existence searches with a degree cap), avoiding the
// astronomically large weights.
//
// `existence` is a tree projection of `cover` w.r.t. the views (what
// FindTreeProjection returns unfiltered); its achieved bound seeds the
// scan. The existence search depends on the query alone, so callers that
// search many databases with one query find it once. Returns nullopt if no
// tree projection achieves a bound <= max_b (pass SIZE_MAX for "no cap").
std::optional<MinDegreeResult> FindMinDegreeTreeProjection(
    const std::vector<IdSet>& cover, BagTree existence,
    const IdSet& project_to, std::size_t max_b, DegreeOracle* oracle);

}  // namespace sharpcq

#endif  // SHARPCQ_HYBRID_MIN_DEGREE_SEARCH_H_
