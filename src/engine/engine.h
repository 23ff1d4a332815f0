#ifndef SHARPCQ_ENGINE_ENGINE_H_
#define SHARPCQ_ENGINE_ENGINE_H_

#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "algebra/exec_policy.h"
#include "algebra/stats.h"
#include "core/sharp_counting.h"
#include "data/database.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "engine/plan_cache.h"
#include "engine/planner.h"
#include "query/canonical.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace sharpcq {

struct EngineOptions {
  PlannerOptions planner;
  std::size_t plan_cache_capacity = 1024;
  // Requested plan-cache shard count; clamped by capacity so every shard
  // holds at least PlanCache::kMinShardCapacity plans (small caches keep
  // one shard and exact LRU order).
  std::size_t plan_cache_shards = 8;
  // Worker threads behind CountBatch/CountAsync; 0 = hardware concurrency.
  // The pool is created lazily: on the first batch/async call, or on the
  // first probe loop big enough to morselize (below). A synchronous engine
  // on small data never starts threads; to guarantee no threads ever, also
  // set enable_morsel_parallelism = false.
  std::size_t batch_threads = 0;
  // Intra-query morsel parallelism: large probe loops inside an execution
  // (Semijoin/Join probes, the CountFullJoin weight aggregation) split
  // their probe side into row-range morsels dispatched on the same thread
  // pool, with the calling thread participating (so a batch job morselizing
  // on a saturated pool still finishes on its own). Probe sides below
  // morsel_row_threshold rows never dispatch — small queries stay
  // single-threaded and allocation-free. Set enable_morsel_parallelism =
  // false to force every operator sequential (the differential tests
  // compare both settings).
  bool enable_morsel_parallelism = true;
  std::size_t morsel_rows = kDefaultMorselRows;
  std::size_t morsel_row_threshold = kDefaultMorselRowThreshold;
  // Statistics-driven cost model (algebra/stats.h). When on, each Count
  // profiles the query's relations (lazily computed and cached per table —
  // free for tables loaded from v2 snapshots), hands the profile to the
  // planner for strategy tie-breaks, appends its coarse fingerprint to the
  // plan-cache key ("same shape + same data class => same plan"; an ingest
  // that changes a relation's class re-plans, one that does not keeps the
  // cache warm), and enables the runtime scheduling heuristics: join-tree
  // rooting/child ordering and the build-size-aware morsel threshold.
  // Scheduling only — counts are identical with it off (the differential
  // suite checks exactly that).
  bool enable_cost_model = true;
  // Slow-query ring buffer (util/trace.h): every Count whose planner +
  // execute time crosses the threshold is a candidate, every
  // `slow_query_sample_every`-th candidate is retained (deterministically),
  // and the ring keeps the most recent `slow_query_log_capacity` entries —
  // with the full span tree when the call was traced. Capacity 0 or a
  // negative threshold disables recording entirely.
  std::size_t slow_query_log_capacity = 32;
  double slow_query_threshold_ms = 100.0;
  std::size_t slow_query_sample_every = 1;
  // Memory budgets (graceful degradation, not precise accounting: charges
  // are allocation-granularity estimates of table/index memory).
  //
  // max_query_bytes caps the bytes one Count may allocate during its
  // execution; an over-budget Count unwinds at the refusing allocation and
  // returns status kResourceExhausted — the engine stays fully usable for
  // subsequent calls. 0 = unlimited.
  std::uint64_t max_query_bytes = 0;
  // A process-wide budget shared across engines (the daemon installs one
  // over every database's engine): tracks bytes held by all in-flight
  // executions; each execution's total is released when it ends. Null =
  // unlimited. Shared because several engines (one per database) must
  // drain into one daemon-wide cap.
  std::shared_ptr<MemoryBudget> total_budget;
};

// Named planner policies, for tools that take a strategy by name (the
// sharpcq CLI's --strategy flag, the storage catalog's config). Returns the
// planner gates that force the strategy, derived from `base`:
//
//   "auto"          base unchanged (the planner's preference order)
//   "sharp"         structural #-hypertree only, backtracking fallback
//   "ps13"          acyclic PS13 only, backtracking fallback
//   "hybrid"        hybrid #b gates (PS13 disabled; a width-k #-hypertree
//                   still wins if one exists — the planner's fixed order)
//   "backtracking"  brute force
//
// nullopt for an unknown name.
std::optional<PlannerOptions> PlannerOptionsForStrategy(
    std::string_view name, const PlannerOptions& base = {});

// One unit of batch work: count `query` over `*db`. The database is
// referenced, not copied — it must outlive the CountBatch/CountAsync call.
struct CountJob {
  ConjunctiveQuery query;
  const Database* db = nullptr;
};

// The unified counting engine: canonicalize -> plan (cached) -> execute.
//
// Planning (structural classification, core computation, width searches) is
// query-only and FPT, so the engine caches plans under the canonical query
// shape: a production service answering millions of repeated query shapes
// pays the Chen–Mengel-style classification once per shape, not once per
// count. Execution materializes the chosen strategy against a concrete
// database and is always exact.
//
// One engine may be shared freely across threads: the plan cache is
// sharded and internally locked, plans are immutable once built, and every
// execution path is a pure function of (plan, database) — see the
// "Concurrency model" section of DESIGN.md. CountBatch/CountAsync run jobs
// on the engine's work-stealing thread pool.
//
// Callers that want one strategy's behavior pass the planner options of
// PlannerOptionsForStrategy ("sharp", "hybrid", ...) to Count.
class CountingEngine {
 public:
  explicit CountingEngine(EngineOptions options = {});

  // Plan + execute with the engine's default planner options.
  CountResult Count(const ConjunctiveQuery& q, const Database& db);
  // Same with per-call planner options (cached separately per policy).
  CountResult Count(const ConjunctiveQuery& q, const Database& db,
                    const PlannerOptions& options);
  // Same with a cooperative stop signal: the token is threaded into the
  // planner's width and #b searches (checked once per width and per
  // pseudo-free set on a plan miss), the kernel's morsel claim loops
  // (checked once per morsel) and the strategies' checkpoint sites, so a
  // deadline expiring — or an explicit
  // Cancel(), e.g. the daemon noticing the client disconnected — stops the
  // execution within one morsel of probe work and returns a CountResult
  // whose status is kDeadlineExceeded/kCancelled (count is meaningless
  // then). `cancel` may be null (never stops) and must outlive the call.
  CountResult Count(const ConjunctiveQuery& q, const Database& db,
                    const PlannerOptions& options,
                    const CancelToken* cancel);
  // Same with a trace sink: when `trace` is non-null it is installed as the
  // calling thread's current trace for the duration of the call, the engine
  // records profile/plan/execute phase spans (strategy chosen, cache and
  // cost-model provenance, per-phase steady-clock timings, kernel tallies),
  // and the strategies add their own nested spans. trace->Finish() is
  // called before returning. Null behaves exactly like the overload above —
  // the spans' null-sink fast path keeps untraced calls free.
  CountResult Count(const ConjunctiveQuery& q, const Database& db,
                    const PlannerOptions& options, const CancelToken* cancel,
                    Trace* trace);

  // Counts every job on the batch pool and blocks until all are done;
  // results are positionally aligned with `jobs`. Jobs sharing a canonical
  // shape share one cached plan, whichever thread plans it first.
  std::vector<CountResult> CountBatch(const std::vector<CountJob>& jobs);
  std::vector<CountResult> CountBatch(const std::vector<CountJob>& jobs,
                                      const PlannerOptions& options);

  // Fire-and-collect: one job on the batch pool. The query is copied into
  // the task; `db` is referenced and must outlive the returned future.
  std::future<CountResult> CountAsync(const ConjunctiveQuery& q,
                                      const Database& db);
  std::future<CountResult> CountAsync(const ConjunctiveQuery& q,
                                      const Database& db,
                                      const PlannerOptions& options);

  // A planning outcome: the (possibly cached) plan plus this call's
  // canonicalization of q, whose variable mapping callers need to translate
  // plan artifacts back to the original variables (e.g. for enumeration).
  struct Planned {
    std::shared_ptr<const CountingPlan> plan;
    CanonicalForm canonical;
    bool cache_hit = false;
    double planner_ms = 0.0;  // time this call spent planning (≈0 on a hit)
    // Shard provenance, copied into CountResult by Count.
    std::size_t cache_shard = 0;
    std::size_t cache_shard_hits = 0;
    std::size_t cache_shard_misses = 0;
  };
  Planned Plan(const ConjunctiveQuery& q);
  Planned Plan(const ConjunctiveQuery& q, const PlannerOptions& options);
  // With a data profile: the profile joins the planner's strategy choice
  // AND the cache key (via DataProfile::Fingerprint, so a cached plan is
  // only reused for databases in the same profile class). Null behaves
  // like the two-argument overload — cached under the "off" class.
  Planned Plan(const ConjunctiveQuery& q, const PlannerOptions& options,
               const DataProfile* profile);

  const EngineOptions& options() const { return options_; }
  PlanCache::Stats cache_stats() const { return cache_.stats(); }
  void ClearCache() { cache_.Clear(); }

  // The engine's slow-query ring (internally locked); see the
  // slow_query_* options above. The daemon's `inspect slowlog=1` reads it.
  SlowQueryLog& slow_query_log() { return slow_log_; }

  // The process-wide engine used by the enumeration path and by one-shot
  // callers; all of them share one plan cache.
  static CountingEngine& Shared();

 private:
  ThreadPool& Pool();

  EngineOptions options_;
  PlanCache cache_;
  SlowQueryLog slow_log_;

  std::mutex pool_mu_;                // guards lazy pool construction
  std::unique_ptr<ThreadPool> pool_;  // created on first batch/async call
};

}  // namespace sharpcq

#endif  // SHARPCQ_ENGINE_ENGINE_H_
