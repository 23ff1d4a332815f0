#include "hybrid/min_degree_search.h"

#include <algorithm>
#include <limits>

#include "core/materialize.h"
#include "hybrid/degree.h"

namespace sharpcq {

std::size_t DegreeOracle::DegreeOf(const IdSet& bag, const IdSet& project_to,
                                   int view_id) {
  IdSet projected = Intersect(bag, project_to);
  auto key = std::make_pair(view_id, projected);
  auto it = degree_cache_.find(key);
  if (it != degree_cache_.end()) return it->second;
  const Rel& rel = ViewRelation(view_id);
  std::size_t degree =
      DegreeOfRelation(Project(rel, Intersect(projected, rel.vars())), free_);
  degree_cache_.emplace(std::move(key), degree);
  return degree;
}

const Rel& DegreeOracle::ViewRelation(int view_id) {
  auto it = view_cache_.find(view_id);
  if (it != view_cache_.end()) return it->second;
  Rel joined = MaterializeViewRel(views_, static_cast<std::size_t>(view_id),
                                  guard_query_, db_);
  return view_cache_.emplace(view_id, std::move(joined)).first->second;
}

namespace {

// The maximum bag degree of a concrete tree.
std::size_t AchievedBound(const BagTree& tree, const IdSet& project_to,
                          DegreeOracle* oracle) {
  std::size_t bound = 0;
  for (std::size_t v = 0; v < tree.bags.size(); ++v) {
    bound = std::max(
        bound, oracle->DegreeOf(tree.bags[v], project_to, tree.view_ids[v]));
  }
  return bound;
}

}  // namespace

std::optional<MinDegreeResult> FindMinDegreeTreeProjection(
    const std::vector<IdSet>& cover, BagTree existence,
    const IdSet& project_to, std::size_t max_b, DegreeOracle* oracle) {
  // The unfiltered existence tree's achieved bound seeds the search.
  MinDegreeResult best;
  best.tree = std::move(existence);
  best.bound = AchievedBound(best.tree, project_to, oracle);

  // Parametric search: the smallest b such that a tree projection exists
  // using only bags of degree <= b.
  auto feasible_at = [&](std::size_t b) -> std::optional<BagTree> {
    TreeProjectionOptions options;
    options.bag_cost = [oracle, &project_to, b](const IdSet& bag,
                                                int view_id) -> double {
      return oracle->DegreeOf(bag, project_to, view_id) <= b
                 ? 1.0
                 : std::numeric_limits<double>::infinity();
    };
    auto result = FindTreeProjection(cover, oracle->views(), options);
    if (!result.has_value()) return std::nullopt;
    return std::move(result->tree);
  };

  std::size_t lo = 1;
  std::size_t hi = best.bound;  // degrees of the unfiltered solution
  while (lo < hi) {
    std::size_t mid = lo + (hi - lo) / 2;
    std::optional<BagTree> tree = feasible_at(mid);
    if (tree.has_value()) {
      best.tree = std::move(*tree);
      best.bound = AchievedBound(best.tree, project_to, oracle);
      hi = std::min(mid, best.bound);
    } else {
      lo = mid + 1;
    }
  }
  if (best.bound > max_b) return std::nullopt;
  return best;
}

}  // namespace sharpcq
