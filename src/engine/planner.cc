#include "engine/planner.h"

#include <algorithm>

#include "algebra/stats.h"
#include "hypergraph/acyclic.h"
#include "util/clock.h"

namespace sharpcq {

namespace {

// Degree above which PS13's 4^h blowup is judged worse than the hybrid #b
// route's degree-minimizing decomposition. 256 = 4 histogram doublings
// past the "uniformly small groups" regime; well clear of the key-like
// degrees (1..8) that dominate benign instances.
constexpr std::uint64_t kDegreeSteerThreshold = 256;

// The largest per-column group size the profile reports across the query's
// relations — the profile's upper bound on the instance degree h that
// drives PS13's cost. Relations without stats (row-major, unknown) report
// 0 and never steer.
std::uint64_t MaxQueryDegree(const ConjunctiveQuery& q,
                             const DataProfile& profile) {
  std::uint64_t degree = 0;
  for (const Atom& atom : q.atoms()) {
    const RelationProfile* rel = profile.Find(atom.relation);
    if (rel == nullptr || rel->stats == nullptr) continue;
    for (const ColumnStats& col : rel->stats->columns) {
      degree = std::max(degree, col.max_group);
    }
  }
  return degree;
}

// Eligibility for counting over the query's own join tree: HQ must be
// acyclic, every atom must contribute a non-empty hyperedge and every free
// variable must occur in some atom, so the materialized instance carries
// all output columns.
bool AcyclicPs13Eligible(const ConjunctiveQuery& q) {
  if (q.NumAtoms() == 0 || !IsAcyclic(q.BuildHypergraph())) return false;
  for (const Atom& atom : q.atoms()) {
    if (atom.Vars().empty()) return false;
  }
  return q.free_vars().IsSubsetOf(q.AllVars());
}

CostEstimate EstimateCost(const CountingPlan& plan) {
  CostEstimate cost;
  cost.query_factor = static_cast<double>(plan.query.NumAtoms());
  switch (plan.strategy) {
    case PlanStrategy::kSharpHypertree:
      // Theorem 3.7: materialize V^k views (m^k), join-tree passes.
      cost.db_exponent = static_cast<double>(plan.width_budget) + 1.0;
      break;
    case PlanStrategy::kAcyclicPs13:
      cost.db_exponent = 2.0;
      cost.note = "x 4^h in the instance degree bound h (Theorem 6.2)";
      break;
    case PlanStrategy::kSharpB:
      cost.db_exponent = static_cast<double>(plan.sharp_b.front().k) + 1.0;
      cost.note = "x 4^b in the achieved degree b (Theorem 6.7)";
      break;
    case PlanStrategy::kBacktracking:
      // One witness search per candidate answer; worst case exponential in
      // the number of variables.
      cost.db_exponent = static_cast<double>(plan.query.free_vars().size());
      cost.note = "x witness search over existential variables";
      break;
  }
  return cost;
}

// The #b search's query-only half for widths 2..max_width. With no bound cap
// the first width with a candidate is the last one needed: its first
// candidate always yields a decomposition.
std::vector<SharpBCandidates> CollectSharpBWidths(
    const ConjunctiveQuery& q, const PlannerOptions& options) {
  SharpBOptions sharpb;
  sharpb.max_b = options.hybrid_max_b;
  sharpb.max_cores = options.max_cores;
  sharpb.max_subsets = options.hybrid_max_subsets;
  const bool capped = sharpb.max_b != static_cast<std::size_t>(-1);
  std::vector<SharpBCandidates> widths;
  for (int k = 2; k <= options.max_width; ++k) {
    SharpBCandidates width = CollectSharpBCandidates(q, k, sharpb);
    if (width.candidates.empty()) continue;
    widths.push_back(std::move(width));
    if (!capped) break;
  }
  return widths;
}

}  // namespace

CountingPlan MakePlan(const ConjunctiveQuery& q, const PlannerOptions& options,
                      const DataProfile* profile) {
  const MonotonicClock::time_point start = MonotonicNow();

  CountingPlan plan;
  plan.query = q;
  plan.options = options;

  std::optional<MinWidthSharpDecomposition> sharp =
      FindMinWidthSharpDecomposition(q, options.max_width, options.max_cores);
  if (sharp.has_value()) {
    plan.strategy = PlanStrategy::kSharpHypertree;
    plan.sharp = std::move(sharp->decomposition);
    plan.width_budget = sharp->k;
  } else if (options.enable_acyclic_ps13 && AcyclicPs13Eligible(q)) {
    plan.strategy = PlanStrategy::kAcyclicPs13;
    // Data-aware tie-break: when the profile shows a relation with groups
    // past the degree threshold and the hybrid gate is open, route to #b —
    // its cost grows with the achieved degree b of a fresh decomposition,
    // not with the instance's raw degree bound h. With no #b candidate at
    // any width, PS13 stays.
    if (profile != nullptr && options.enable_hybrid &&
        MaxQueryDegree(q, *profile) > kDegreeSteerThreshold) {
      plan.sharp_b = CollectSharpBWidths(q, options);
      if (!plan.sharp_b.empty()) {
        plan.strategy = PlanStrategy::kSharpB;
        plan.cost_model_steered = true;
      }
    }
  } else if (options.enable_hybrid) {
    // No #b candidate at any width makes backtracking explicit.
    plan.sharp_b = CollectSharpBWidths(q, options);
    plan.strategy = plan.sharp_b.empty() ? PlanStrategy::kBacktracking
                                         : PlanStrategy::kSharpB;
  } else {
    plan.strategy = PlanStrategy::kBacktracking;
  }
  plan.cost = EstimateCost(plan);

  plan.planning_ms = ElapsedMs(start);
  return plan;
}

}  // namespace sharpcq
