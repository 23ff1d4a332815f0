#ifndef SHARPCQ_CORE_SHARP_COUNTING_H_
#define SHARPCQ_CORE_SHARP_COUNTING_H_

#include <cstdint>
#include <optional>
#include <string>

#include "core/sharp_decomposition.h"
#include "data/database.h"
#include "query/conjunctive_query.h"
#include "util/count_int.h"

namespace sharpcq {

// How a counting call ended. Only the engine layer produces non-kOk
// values: a Count given a CancelToken whose deadline expired (or that was
// cancelled outright) stops at the next morsel boundary or strategy
// checkpoint, and a Count whose memory budget refused an allocation stops
// at the allocation site — either way `count` is then meaningless.
enum class CountStatus : std::uint8_t {
  kOk,
  kDeadlineExceeded,
  kCancelled,
  kResourceExhausted,
};

const char* CountStatusName(CountStatus status);

// Outcome of a counting call, with provenance for diagnostics and the
// experiment harness.
struct CountResult {
  CountInt count = 0;
  std::string method;  // e.g. "#-hypertree(k=2)", "backtracking"
  int width = 0;       // decomposition width used (0 for brute force)
  CountStatus status = CountStatus::kOk;
  bool ok() const { return status == CountStatus::kOk; }

  // Engine provenance (filled by the src/engine/ layer; zero elsewhere):
  // wall time spent choosing the strategy vs. materializing the count, and
  // whether planning was answered from the plan cache.
  double planner_ms = 0.0;
  double execute_ms = 0.0;
  bool cache_hit = false;

  // Sharded plan-cache provenance: the shard this call's lookup hashed to,
  // and that shard's cumulative hit/miss counters snapshotted under the
  // shard lock immediately after the lookup (engine/plan_cache.h).
  std::size_t cache_shard = 0;
  std::size_t cache_shard_hits = 0;
  std::size_t cache_shard_misses = 0;

  // Cost-model provenance (engine layer): whether the executed plan or any
  // runtime scheduling decision was steered by data statistics —
  // `cost_model_steered` is true when the planner's strategy tie-break
  // fired or `cost_reorders` (join-tree re-rootings and child
  // reorderings) is nonzero. Both zero/false when
  // EngineOptions::enable_cost_model is off. Counts never depend on it.
  bool cost_model_steered = false;
  std::uint64_t cost_reorders = 0;

  // Miss-filter provenance (engine layer): of the probes this execution
  // issued, how many the per-index miss filters resolved as definite misses
  // without touching a slot table (`filter_hits`) and how many went on to
  // the slot walk (`filter_passes`). Accumulated in the execution's own
  // ExecStats sink (algebra/exec_policy.h), so concurrent executions each
  // report exactly their own probes. Both zero inside a
  // MissFilterDisableScope (algebra/miss_filter.h).
  std::uint64_t filter_hits = 0;
  std::uint64_t filter_passes = 0;

  // Scheduling provenance (engine layer): morsel chunks the kernel's probe
  // loops dispatched, and semijoin relaxations the pairwise-consistency
  // worklist ran (0 on acyclic schemas, which take the two-pass reducer).
  std::uint64_t morsels = 0;
  std::uint64_t worklist_iterations = 0;

  // Memory-budget provenance (engine layer): bytes the execution charged
  // against its budget (0 when no budget was configured). On
  // kResourceExhausted, the size of the refused allocation.
  std::uint64_t mem_charged_bytes = 0;
  std::uint64_t mem_refused_bytes = 0;
};

// The Theorem 3.7 algorithm, given a #-decomposition: materializes the
// decomposition's bags over db, runs the full reducer (local consistency on
// the acyclic instance = global consistency), restricts the bags to the
// free variables, and counts the resulting full acyclic join. Polynomial in
// ||Q||, ||D||, ||Ha|| for fixed width. Correct because the tree covers the
// frontier hypergraph — see DESIGN.md for the equivalence with the paper's
// construction.
CountResult CountViaSharpDecomposition(const ConjunctiveQuery& q,
                                       const Database& db,
                                       const SharpDecomposition& d);

// Theorem 1.3 for a concrete width: computes a colored core, searches a
// width-k #-hypertree decomposition, and counts. Returns nullopt when q has
// no width-k #-hypertree decomposition (promise violated).
std::optional<CountResult> CountBySharpHypertree(const ConjunctiveQuery& q,
                                                 const Database& db, int k,
                                                 std::size_t max_cores = 8);

}  // namespace sharpcq

#endif  // SHARPCQ_CORE_SHARP_COUNTING_H_
