#include "solver/consistency.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <utility>

#include "algebra/exec_policy.h"
#include "count/join_tree_instance.h"
#include "hypergraph/acyclic.h"
#include "util/trace.h"

namespace sharpcq {

bool EnforcePairwiseConsistency(std::vector<Rel>* views) {
  TraceSpan span("pairwise_consistency");
  const std::size_t n = views->size();
  span.NoteCount("views", n);
  for (const Rel& v : *views) {
    if (v.empty()) return false;
  }

  // Acyclic downgrade: when the view schemas form an alpha-acyclic
  // hypergraph, the greatest pairwise-consistent subinstance equals the
  // globally consistent one (Beeri–Fagin–Maier–Yannakakis), and the
  // two-pass join-tree full reducer computes it with O(n) semijoins
  // instead of a fixpoint.
  {
    std::vector<IdSet> edges;
    edges.reserve(n);
    for (const Rel& v : *views) edges.push_back(v.vars());
    if (std::optional<TreeShape> shape = BuildJoinTree(edges);
        shape.has_value()) {
      span.Note("regime", "join_tree");
      JoinTreeInstance instance;
      instance.shape = std::move(*shape);
      instance.nodes = std::move(*views);
      bool ok = FullReduce(&instance);
      *views = std::move(instance.nodes);
      return ok;
    }
  }

  // Cyclic schemas: worklist propagation to the fixpoint. A pair (i, j)
  // needs re-running only when its right side j shrank since the pair last
  // ran — a semijoin never un-removes rows, so shrinking i alone cannot
  // change any (i, j') outcome. Compared to the old full-rescan fixpoint
  // (every pair, every round, until a clean round) this skips the O(pairs)
  // confirming rescans entirely.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  std::vector<std::vector<std::size_t>> pairs_with_right(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && (*views)[i].vars().Intersects((*views)[j].vars())) {
        pairs_with_right[j].push_back(pairs.size());
        pairs.emplace_back(i, j);
      }
    }
  }
  // Relaxations run below, flushed on every exit path (including an
  // ExecInterrupted unwind) into the execution's stats sink and the span —
  // the trace's "consistency-worklist iterations" figure.
  struct RelaxTally {
    std::uint64_t count = 0;
    TraceSpan* span;
    ~RelaxTally() {
      if (ExecStats* stats = CurrentExecStats()) {
        stats->worklist_iterations.fetch_add(count,
                                             std::memory_order_relaxed);
      }
      span->NoteCount("relaxations", count);
    }
  } tally{0, &span};
  span.Note("regime", "fifo");

  // FIFO, seeded by ascending right-side size — small build sides go
  // first, so by the time the big semijoins run, their left sides have
  // already been trimmed by every cheap filter (and the stable sort keeps
  // runs deterministic). The fixpoint is confluent — semijoins only remove
  // rows and the greatest pairwise-consistent subinstance is unique — so
  // the order only moves the work, never the views.
  std::vector<std::size_t> seed(pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) seed[p] = p;
  std::stable_sort(seed.begin(), seed.end(),
                   [&](std::size_t a, std::size_t b) {
                     return (*views)[pairs[a].second].size() <
                            (*views)[pairs[b].second].size();
                   });
  std::deque<std::size_t> worklist(seed.begin(), seed.end());
  std::vector<char> queued(pairs.size(), 1);

  while (!worklist.empty()) {
    // Deadline/cancellation checkpoint: the fixpoint can run thousands of
    // semijoins whose probe sides are each too small to morselize, so the
    // per-morsel checks alone would never fire here.
    CheckExecInterrupt();
    const std::size_t p = worklist.front();
    worklist.pop_front();
    queued[p] = 0;
    ++tally.count;
    auto [i, j] = pairs[p];
    bool shrank = false;
    (*views)[i] = Semijoin((*views)[i], (*views)[j], &shrank);
    if (!shrank) continue;
    if ((*views)[i].empty()) return false;
    // Right side i shrank: every pair reading it is dirty again.
    for (std::size_t q : pairs_with_right[i]) {
      if (!queued[q]) {
        queued[q] = 1;
        worklist.push_back(q);
      }
    }
  }
  return true;
}

bool EnforcePairwiseConsistency(std::vector<VarRelation>* views) {
  std::vector<Rel> kernel(views->begin(), views->end());
  bool ok = EnforcePairwiseConsistency(&kernel);
  for (std::size_t i = 0; i < views->size(); ++i) {
    (*views)[i] = ToVarRelation(kernel[i]);
  }
  return ok;
}

}  // namespace sharpcq
