#include "hybrid/optimal_decomp.h"

#include "hybrid/min_degree_search.h"

namespace sharpcq {

std::optional<DOptimalResult> FindDOptimalDecomposition(
    const ConjunctiveQuery& q, const Database& db, int k) {
  ViewSet views = BuildVk(q, k);
  std::vector<IdSet> cover = q.BuildHypergraph().edges();
  std::optional<TreeProjectionResult> existence =
      FindTreeProjection(cover, views);
  if (!existence.has_value()) return std::nullopt;
  DegreeOracle oracle(views, q, db, q.free_vars());
  std::optional<MinDegreeResult> found = FindMinDegreeTreeProjection(
      cover, std::move(existence->tree), /*project_to=*/q.AllVars(),
      /*max_b=*/static_cast<std::size_t>(-1), &oracle);
  if (!found.has_value()) return std::nullopt;
  DOptimalResult result;
  result.hypertree = HypertreeFromBagTree(found->tree, views);
  result.bound = found->bound;
  return result;
}

}  // namespace sharpcq
