// Example 1.1 end to end: the workforce query Q0.
//
// Reproduces the paper's running example: prints the frontier hypergraph
// (Figure 1(b)), the colored core (Figure 3(a)), the #-hypertree width
// (Figure 3(c)), then counts (machine, worker, project) answers on
// synthetic workforce databases of growing size, comparing the Theorem 1.3
// counter against the enumeration baseline.

#include <chrono>
#include <cstdio>

#include "count/enumeration.h"
#include "decomp/explain.h"
#include "engine/engine.h"
#include "gen/paper_queries.h"
#include "hypergraph/hypergraph.h"
#include "solver/core.h"

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  sharpcq::ConjunctiveQuery q0 = sharpcq::MakeQ0();
  std::printf("Q0: %s\n\n", q0.DebugString().c_str());

  auto name = [&q0](std::uint32_t v) { return q0.VarName(v); };

  // Figure 1(b): the frontier hypergraph of the existential variables.
  sharpcq::Hypergraph hq0 = q0.BuildHypergraph();
  sharpcq::Hypergraph fh =
      sharpcq::FrontierHypergraph(hq0, q0.free_vars());
  std::printf("frontier hypergraph FH(Q0, {A,B,C}) [Figure 1(b)]:\n");
  for (const sharpcq::IdSet& e : fh.edges()) {
    std::printf("  %s\n", e.ToString(name).c_str());
  }

  // Figure 3(a): the colored core drops one subtask branch.
  sharpcq::ConjunctiveQuery core = sharpcq::ComputeColoredCore(q0);
  std::printf("\ncolored core (Figure 3(a)): %s\n",
              core.DebugString().c_str());

  // Figure 3(c): #-hypertree width 2. The engine's planner runs the width
  // search once; the same plan then serves every database below from its
  // cache.
  sharpcq::CountingEngine engine;
  sharpcq::CountingEngine::Planned planned = engine.Plan(q0);
  std::printf("#-hypertree width: %d  (paper: 2)\n",
              planned.plan->width_budget);
  if (planned.plan->sharp.has_value()) {
    const sharpcq::SharpDecomposition& d = *planned.plan->sharp;
    std::printf("width-2 #-hypertree decomposition (cf. Figure 3(c)):\n%s",
                sharpcq::ExplainBagTree(d.tree, d.views, planned.plan->query)
                    .c_str());
    // Plans speak canonical variables; translate them back to the paper's.
    std::printf("  (canonical vars:");
    for (std::size_t c = 0; c < planned.canonical.to_original.size(); ++c) {
      std::printf(" v%zu=%s", c,
                  q0.VarName(planned.canonical.to_original[c]).c_str());
    }
    std::printf(")\n\n");
  }

  std::printf("%-10s %-12s %-14s %-12s %-14s\n", "db scale", "answers",
              "sharp (ms)", "baseline", "baseline(ms)");
  for (int scale : {1, 2, 4, 8}) {
    sharpcq::Q0DatabaseParams params;
    params.machines *= scale;
    params.workers *= scale;
    params.tasks *= scale;
    params.projects *= scale;
    params.subtasks *= scale;
    params.resources *= scale;
    params.mw_tuples *= scale;
    params.wt_tuples *= scale;
    params.pt_tuples *= scale;
    params.st_tuples *= scale;
    params.rr_tuples *= scale;
    params.seed = 42 + static_cast<std::uint64_t>(scale);
    sharpcq::Database db = sharpcq::MakeQ0Database(params);

    auto t0 = std::chrono::steady_clock::now();
    sharpcq::CountResult sharp = engine.Count(q0, db);
    double sharp_ms = MillisSince(t0);

    auto t1 = std::chrono::steady_clock::now();
    sharpcq::CountInt baseline = sharpcq::CountByBacktracking(q0, db);
    double baseline_ms = MillisSince(t1);

    if (sharp.method.rfind("#-hypertree", 0) != 0 ||
        sharp.count != baseline) {
      std::fprintf(stderr, "MISMATCH at scale %d\n", scale);
      return 1;
    }
    std::printf("%-10d %-12s %-14.2f %-12s %-14.2f\n", scale,
                sharpcq::CountToString(sharp.count).c_str(), sharp_ms,
                sharpcq::CountToString(baseline).c_str(), baseline_ms);
  }
  return 0;
}
