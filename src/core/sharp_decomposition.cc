#include "core/sharp_decomposition.h"

#include "algebra/exec_policy.h"
#include "hypergraph/hypergraph.h"
#include "solver/core.h"

namespace sharpcq {

std::vector<IdSet> SharpCoverEdges(const ConjunctiveQuery& core,
                                   const IdSet& w) {
  Hypergraph hq = core.BuildHypergraph();
  Hypergraph fh = FrontierHypergraph(hq, w);

  Hypergraph combined = hq;
  for (const IdSet& e : fh.edges()) combined.AddEdge(e);
  // The color atoms of the colored core contribute singleton edges {X} for
  // every colored variable; they guarantee every output variable occurs in
  // some bag.
  for (std::uint32_t x : w) combined.AddEdge(IdSet{x});
  combined.DedupEdges();
  return combined.edges();
}

namespace {

struct CoreCandidate {
  ConjunctiveQuery core;
  std::vector<IdSet> cover;  // SharpCoverEdges(core, free(q))
};

// The colored cores of q in the order the search tries them: the greedy
// core, then the alternatives of EnumerateColoredCores. Both depend on q
// alone, so one CoreSearch serves every view set. The greedy core usually
// works; full core enumeration (exponential in the query) only runs when
// the greedy core first fails against some views (Example 3.5).
class CoreSearch {
 public:
  CoreSearch(const ConjunctiveQuery& q, std::size_t max_cores)
      : q_(q), max_cores_(max_cores) {
    Add(ComputeColoredCore(q));
  }

  // The decomposition from the first core that admits a tree projection
  // w.r.t. `views`, or nullopt.
  std::optional<SharpDecomposition> Find(const ViewSet& views) {
    std::optional<SharpDecomposition> d = TryCore(cores_.front(), views);
    if (d.has_value() || max_cores_ <= 1) return d;
    if (!enumerated_) {
      enumerated_ = true;
      std::vector<ConjunctiveQuery> all = EnumerateColoredCores(q_, max_cores_);
      // The first enumerated core is the greedy one, already held.
      for (std::size_t i = 1; i < all.size(); ++i) Add(std::move(all[i]));
    }
    for (std::size_t i = 1; i < cores_.size(); ++i) {
      d = TryCore(cores_[i], views);
      if (d.has_value()) return d;
    }
    return std::nullopt;
  }

 private:
  void Add(ConjunctiveQuery core) {
    std::vector<IdSet> cover = SharpCoverEdges(core, q_.free_vars());
    cores_.push_back({std::move(core), std::move(cover)});
  }

  static std::optional<SharpDecomposition> TryCore(const CoreCandidate& c,
                                                   const ViewSet& views) {
    auto projection = FindTreeProjection(c.cover, views);
    if (!projection.has_value()) return std::nullopt;
    SharpDecomposition d;
    d.core = c.core;
    d.tree = std::move(projection->tree);
    d.views = views;
    d.width = d.tree.Width(views);
    return d;
  }

  const ConjunctiveQuery& q_;
  std::size_t max_cores_;
  std::vector<CoreCandidate> cores_;
  bool enumerated_ = false;
};

}  // namespace

std::optional<SharpDecomposition> FindSharpDecomposition(
    const ConjunctiveQuery& q, const ViewSet& views, std::size_t max_cores) {
  return CoreSearch(q, max_cores).Find(views);
}

std::optional<SharpDecomposition> FindSharpHypertreeDecomposition(
    const ConjunctiveQuery& q, int k, std::size_t max_cores) {
  return FindSharpDecomposition(q, BuildVk(q, k), max_cores);
}

std::optional<MinWidthSharpDecomposition> FindMinWidthSharpDecomposition(
    const ConjunctiveQuery& q, int k_max, std::size_t max_cores) {
  if (k_max < 1) return std::nullopt;
  CoreSearch search(q, max_cores);
  for (int k = 1; k <= k_max; ++k) {
    CheckExecInterrupt();
    std::optional<SharpDecomposition> d = search.Find(BuildVk(q, k));
    if (d.has_value()) return MinWidthSharpDecomposition{k, std::move(*d)};
  }
  return std::nullopt;
}

std::optional<int> SharpHypertreeWidth(const ConjunctiveQuery& q, int k_max) {
  std::optional<MinWidthSharpDecomposition> found =
      FindMinWidthSharpDecomposition(q, k_max);
  if (!found.has_value()) return std::nullopt;
  return found->k;
}

}  // namespace sharpcq
