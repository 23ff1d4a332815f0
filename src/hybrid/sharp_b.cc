#include "hybrid/sharp_b.h"

#include <algorithm>
#include <functional>

#include "algebra/exec_policy.h"
#include "hybrid/min_degree_search.h"
#include "solver/core.h"
#include "util/check.h"
#include "util/trace.h"

namespace sharpcq {

namespace {

// Enumerates subsets of `candidates` by increasing size, invoking
// fn(subset) until it returns true (stop) or `max_subsets` are visited.
void ForEachSubsetBySize(const IdSet& candidates, std::size_t max_subsets,
                         const std::function<bool(const IdSet&)>& fn) {
  std::vector<std::uint32_t> pool(candidates.begin(), candidates.end());
  std::size_t visited = 0;
  bool stop = false;
  std::vector<std::uint32_t> chosen;
  auto rec = [&](auto&& self, std::size_t start,
                 std::size_t remaining) -> void {
    if (stop) return;
    if (remaining == 0) {
      if (visited++ >= max_subsets || fn(IdSet::FromVector(chosen))) {
        stop = true;
      }
      return;
    }
    for (std::size_t i = start; i + remaining <= pool.size() && !stop; ++i) {
      chosen.push_back(pool[i]);
      self(self, i + 1, remaining - 1);
      chosen.pop_back();
    }
  };
  for (std::size_t size = 0; size <= pool.size() && !stop; ++size) {
    rec(rec, 0, size);
  }
}

// The one enumeration of the query-only half (see CollectSharpBCandidates):
// calls `visit` on each pseudo-free set that has a feasible core, in order,
// until it returns true.
void ForEachSharpBCandidate(
    const ConjunctiveQuery& q, const ViewSet& views,
    const SharpBOptions& options,
    const std::function<bool(const SharpBCandidate&)>& visit) {
  auto try_s_bar = [&](const IdSet& extra) -> bool {
    // Up to max_subsets sets, each with a core enumeration: a plan miss
    // can spend seconds here, so the deadline is checked per set.
    CheckExecInterrupt();
    SharpBCandidate candidate;
    candidate.s_bar = Union(q.free_vars(), extra);
    ConjunctiveQuery q_s = q.WithFree(candidate.s_bar);
    auto keep_if_feasible = [&](ConjunctiveQuery core) {
      std::vector<IdSet> cover = SharpCoverEdges(core, candidate.s_bar);
      std::optional<TreeProjectionResult> found =
          FindTreeProjection(cover, views);
      if (!found.has_value()) return;
      candidate.cores.push_back(
          {std::move(core), std::move(cover), std::move(found->tree)});
    };
    // Greedy core first, then the alternatives: substructure cores are not
    // interchangeable w.r.t. a view set (Example 3.5's situation).
    keep_if_feasible(ComputeColoredCore(q_s));
    if (options.max_cores > 1) {
      std::vector<ConjunctiveQuery> cores =
          EnumerateColoredCores(q_s, options.max_cores);
      // The first enumerated core is the greedy one, already tried.
      for (std::size_t i = 1; i < cores.size(); ++i) {
        keep_if_feasible(std::move(cores[i]));
      }
    }
    return !candidate.cores.empty() && visit(candidate);
  };
  ForEachSubsetBySize(q.ExistentialVars(), options.max_subsets, try_s_bar);
}

// The data step on one candidate: its cores are tried in order and the
// first whose minimum-degree tree projection achieves a bound under the cap
// (max_b, or one below the best so far) replaces *best. Returns true once
// b <= 1, which nothing can improve on. `oracle` is the width's one oracle:
// every candidate and core reads the same guard views.
bool ImproveWith(const SharpBCandidate& candidate, std::size_t max_b,
                 DegreeOracle* oracle,
                 std::optional<SharpBDecomposition>* best) {
  std::size_t cap = best->has_value() ? (*best)->bound - 1 : max_b;
  for (const SharpBCore& c : candidate.cores) {
    std::optional<MinDegreeResult> found = FindMinDegreeTreeProjection(
        c.cover, c.existence, candidate.s_bar, cap, oracle);
    if (!found.has_value()) continue;
    SharpBDecomposition d;
    d.s_bar = candidate.s_bar;
    d.decomposition.core = c.core;
    d.decomposition.tree = std::move(found->tree);
    d.decomposition.views = oracle->views();
    d.decomposition.width = d.decomposition.tree.Width(oracle->views());
    d.bound = std::max<std::size_t>(found->bound, 1);
    if (!best->has_value() || d.bound < (*best)->bound) *best = std::move(d);
    break;
  }
  return best->has_value() && (*best)->bound <= 1;
}

void NoteOutcome(TraceSpan& span, std::size_t visited,
                 const DegreeOracle& oracle,
                 const std::optional<SharpBDecomposition>& best) {
  span.NoteCount("visited", visited);
  span.NoteCount("views_joined", oracle.views_joined());
  if (best.has_value()) {
    span.NoteCount("b", best->bound);
  } else {
    span.Note("found", "no");
  }
}

}  // namespace

SharpBCandidates CollectSharpBCandidates(const ConjunctiveQuery& q, int k,
                                         const SharpBOptions& options) {
  TraceSpan span("sharp_b_candidates");
  span.NoteCount("k", static_cast<std::uint64_t>(k));
  SharpBCandidates width;
  width.k = k;
  width.views = BuildVk(q, k);
  ForEachSharpBCandidate(q, width.views, options,
                         [&](const SharpBCandidate& candidate) {
                           width.candidates.push_back(candidate);
                           return false;
                         });
  span.NoteCount("candidates", width.candidates.size());
  return width;
}

std::optional<SharpBDecomposition> FindSharpBDecomposition(
    const ConjunctiveQuery& q, const Database& db,
    const SharpBCandidates& width, std::size_t max_b) {
  TraceSpan span("sharp_b_search");
  span.NoteCount("k", static_cast<std::uint64_t>(width.k));
  DegreeOracle oracle(width.views, q, db, q.free_vars());
  std::optional<SharpBDecomposition> best;
  std::size_t visited = 0;
  for (const SharpBCandidate& candidate : width.candidates) {
    ++visited;
    if (ImproveWith(candidate, max_b, &oracle, &best)) break;
  }
  NoteOutcome(span, visited, oracle, best);
  return best;
}

std::optional<SharpBDecomposition> FindSharpBDecomposition(
    const ConjunctiveQuery& q, const Database& db, int k,
    const SharpBOptions& options) {
  TraceSpan span("sharp_b_search");
  span.NoteCount("k", static_cast<std::uint64_t>(k));
  const ViewSet views = BuildVk(q, k);
  DegreeOracle oracle(views, q, db, q.free_vars());
  std::optional<SharpBDecomposition> best;
  std::size_t visited = 0;
  ForEachSharpBCandidate(q, views, options,
                         [&](const SharpBCandidate& candidate) {
                           ++visited;
                           return ImproveWith(candidate, options.max_b,
                                              &oracle, &best);
                         });
  NoteOutcome(span, visited, oracle, best);
  return best;
}

}  // namespace sharpcq
