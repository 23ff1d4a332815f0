// Appendix A: quantified star size vs #-hypertree width on the chain
// family Q^n_1 (Example A.2, Figure 11).
//
// The quantified star size of Q^n_1 is ceil(n/2) — unbounded — so the
// Durand–Mengel criterion does not recognize the family as tractable. Its
// #-hypertree width is 1 for every n: the colored core collapses the Y
// chain onto the X chain, leaving a single pendant existential variable.
// Counting through the core is fast; the frontier-materialization baseline
// (which works on the raw query, without cores) pays for the big frontier.

#include <chrono>
#include <cstdio>

#include "count/enumeration.h"
#include "count/starsize.h"
#include "engine/engine.h"
#include "gen/paper_queries.h"

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  sharpcq::CountingEngine engine;
  std::printf("%-4s %-6s %-8s %-10s %-14s %-18s\n", "n", "qss", "#-htw",
              "answers", "sharp (ms)", "frontier-mat (ms)");
  for (int n : {2, 3, 4, 5, 6}) {
    sharpcq::ConjunctiveQuery q = sharpcq::MakeQn1(n);
    sharpcq::Database db =
        sharpcq::MakeQn1RandomDatabase(/*d=*/12, /*edges=*/36, /*seed=*/7u * n);

    // The plan's width budget is the #-hypertree width the planner found.
    int qss = sharpcq::QuantifiedStarSize(q);
    sharpcq::CountingEngine::Planned planned = engine.Plan(q);
    int width = planned.plan->width_budget;

    auto t0 = std::chrono::steady_clock::now();
    sharpcq::CountResult sharp = engine.Count(q, db);
    double sharp_ms = MillisSince(t0);

    auto t1 = std::chrono::steady_clock::now();
    sharpcq::CountInt frontier = sharpcq::CountByFrontierMaterialization(q, db);
    double frontier_ms = MillisSince(t1);

    if (sharp.count != frontier ||
        sharp.method.rfind("#-hypertree", 0) != 0) {
      std::fprintf(stderr, "MISMATCH at n=%d\n", n);
      return 1;
    }
    std::printf("%-4d %-6d %-8d %-10s %-14.2f %-18.2f\n", n, qss, width,
                sharpcq::CountToString(sharp.count).c_str(), sharp_ms,
                frontier_ms);
  }
  std::printf(
      "\npaper claim: qss = ceil(n/2) grows, #-htw stays 1 (Example A.2)\n");
  return 0;
}
