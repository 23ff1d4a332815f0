#ifndef SHARPCQ_ENGINE_PLAN_H_
#define SHARPCQ_ENGINE_PLAN_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/sharp_decomposition.h"
#include "hybrid/sharp_b.h"
#include "query/conjunctive_query.h"

namespace sharpcq {

class Table;

// The strategies of the paper's tractability landscape, in the order the
// default policy prefers them.
enum class PlanStrategy {
  // Theorem 1.3: width-k #-hypertree decomposition found; counting is
  // polynomial in the database for the fixed width.
  kSharpHypertree,
  // PS13 / Theorem 6.2 on the query's own join tree: exact for every
  // acyclic query, cost exponential only in the instance's degree bound.
  kAcyclicPs13,
  // Theorems 6.6/6.7: hybrid #b-generalized hypertree decompositions. The
  // plan stores the search's query-only half (pseudo-free sets with their
  // feasible cores and tree projections, CountingPlan::sharp_b); the data
  // half, which minimizes the degree b, runs once per data generation (see
  // SharpBMemo). Planned only when some width has a candidate; the executor
  // falls back to backtracking only when a finite hybrid_max_b rejects
  // every candidate.
  kSharpB,
  // The GS13 enumerate-with-projection baseline; always applicable.
  kBacktracking,
};

const char* PlanStrategyName(PlanStrategy strategy);

// Planner policy knobs. All query-only; part of the plan-cache key.
struct PlannerOptions {
  int max_width = 3;          // largest width attempted (#-htw and #b)
  std::size_t max_cores = 8;  // substructure cores tried per width
  // Strategy gates, set by the PlannerOptionsForStrategy presets
  // (engine/engine.h) to force one strategy.
  bool enable_acyclic_ps13 = true;
  bool enable_hybrid = true;
  // Pass-through for the hybrid search (hybrid/sharp_b.h).
  std::size_t hybrid_max_b = static_cast<std::size_t>(-1);
  std::size_t hybrid_max_subsets = 4096;

  // Deterministic rendering of every field, appended to the canonical query
  // key so plans are cached per (query shape, policy).
  std::string CacheFingerprint() const;
};

// A query-only cost sketch: the count runs in roughly
// O(query_factor * m^db_exponent * strategy-specific blowup), m the largest
// relation. Good enough to explain the planner's choice; not a database
// cardinality estimator.
struct CostEstimate {
  double db_exponent = 0.0;
  double query_factor = 0.0;
  std::string note;  // e.g. "x 4^h in the degree bound h"
};

// The outcome of a kSharpB plan's data step for one data generation: the
// decomposition the step chose, or null for "no candidate within
// hybrid_max_b", with the columnar tables it was chosen over (one per atom
// of the plan's query). A snapshot generation's tables are immutable, so
// the outcome holds while every atom still reads the same table; an ingest
// installs new tables, and the next count runs the step again and replaces
// the outcome. The tables are held as weak_ptrs, so the memo never keeps an
// old generation's data alive. One slot per plan: bounded by the plan cache
// and dropped with the plan. Thread-safe like Table's index cache: the
// mutex guards lookup and store only, never the data step, so counts that
// miss together each run the step and the last store wins.
class SharpBMemo {
 public:
  SharpBMemo() = default;
  // A copied plan starts with an empty slot.
  SharpBMemo(const SharpBMemo&) {}
  SharpBMemo& operator=(const SharpBMemo&);

  // True when the slot holds an outcome chosen over exactly `tables`; then
  // *chosen is that outcome. `tables` is never empty.
  bool Find(const std::vector<std::shared_ptr<const Table>>& tables,
            std::shared_ptr<const SharpBDecomposition>* chosen) const;
  void Store(const std::vector<std::shared_ptr<const Table>>& tables,
             std::shared_ptr<const SharpBDecomposition> chosen);
  bool empty() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::weak_ptr<const Table>> tables_;  // empty: no outcome
  std::shared_ptr<const SharpBDecomposition> chosen_;
};

// The output of planning: everything about counting that depends on the
// query alone, computed once and reusable against any database. It holds
// only what strategy selection and execution read; the full structural
// profile is AnalyzeQuery's (core/analyze.h). Immutable once built, so
// concurrent counts read it without locks; the one exception is the #b
// memo slot, which guards itself.
struct CountingPlan {
  // The (canonicalized, when produced via the engine) query the artifacts
  // below refer to. Executing the plan counts THIS query; by construction
  // its count equals the original query's on every database.
  ConjunctiveQuery query;

  PlanStrategy strategy = PlanStrategy::kBacktracking;
  PlannerOptions options;

  // kSharpHypertree: the witness decomposition and the width budget k at
  // which the search succeeded — the #-hypertree width, up to max_width (the
  // method string reports k; the tree's own width may be smaller). 0 for
  // every other strategy.
  std::optional<SharpDecomposition> sharp;
  int width_budget = 0;

  // kSharpB: the #b search's candidates per width, by increasing k. Only
  // widths with a candidate are kept, and only the first of them unless
  // hybrid_max_b is finite (with no cap, any candidate yields a
  // decomposition). At most hybrid_max_subsets x max_cores cores per width.
  std::vector<SharpBCandidates> sharp_b;
  // kSharpB: the data step's outcome for the data last counted.
  mutable SharpBMemo sharp_b_memo;

  CostEstimate cost;
  double planning_ms = 0.0;  // wall time MakePlan spent building this plan

  // True when the data profile handed to MakePlan moved the strategy away
  // from the structural default (currently: PS13 -> #b on heavy-degree
  // instances). Purely provenance — every strategy is exact.
  bool cost_model_steered = false;

  // The strategy, k and the cost sketch.
  std::string DebugString() const;
};

}  // namespace sharpcq

#endif  // SHARPCQ_ENGINE_PLAN_H_
