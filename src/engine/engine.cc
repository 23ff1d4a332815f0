#include "engine/engine.h"

#include <utility>

#include "algebra/exec_policy.h"
#include "algebra/miss_filter.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/metrics.h"

namespace sharpcq {

namespace {

SlowQueryLog::Options SlowLogOptions(const EngineOptions& options) {
  SlowQueryLog::Options o;
  o.capacity = options.slow_query_log_capacity;
  o.threshold_ms = options.slow_query_threshold_ms;
  o.sample_every = options.slow_query_sample_every == 0
                       ? 1u
                       : static_cast<std::uint32_t>(
                             options.slow_query_sample_every);
  return o;
}

}  // namespace

std::optional<PlannerOptions> PlannerOptionsForStrategy(
    std::string_view name, const PlannerOptions& base) {
  PlannerOptions options = base;
  if (name == "auto") return options;
  if (name == "sharp") {
    options.enable_acyclic_ps13 = false;
    options.enable_hybrid = false;
    return options;
  }
  if (name == "ps13") {
    options.max_width = 0;  // no width budget: the #-hypertree search is off
    options.enable_acyclic_ps13 = true;
    options.enable_hybrid = false;
    return options;
  }
  if (name == "hybrid") {
    options.enable_acyclic_ps13 = false;
    options.enable_hybrid = true;
    return options;
  }
  if (name == "backtracking") {
    options.max_width = 0;
    options.enable_acyclic_ps13 = false;
    options.enable_hybrid = false;
    return options;
  }
  return std::nullopt;
}

CountingEngine::CountingEngine(EngineOptions options)
    : options_(options),
      cache_(options.plan_cache_capacity, options.plan_cache_shards),
      slow_log_(SlowLogOptions(options)) {}

CountingEngine::Planned CountingEngine::Plan(const ConjunctiveQuery& q) {
  return Plan(q, options_.planner);
}

CountingEngine::Planned CountingEngine::Plan(const ConjunctiveQuery& q,
                                             const PlannerOptions& options) {
  return Plan(q, options, /*profile=*/nullptr);
}

CountingEngine::Planned CountingEngine::Plan(const ConjunctiveQuery& q,
                                             const PlannerOptions& options,
                                             const DataProfile* profile) {
  const MonotonicClock::time_point start = MonotonicNow();
  Planned out;
  out.canonical = CanonicalizeQuery(q);
  // The key is (query shape, planner policy, data-profile class): a plan
  // tie-broken by statistics must not serve a database in a different
  // class, and a profile-free plan must not serve a profiled call.
  const std::string key =
      out.canonical.key + "$" + options.CacheFingerprint() + "#" +
      (profile != nullptr ? profile->Fingerprint() : std::string("off"));
  PlanCache::Lookup lookup = cache_.FindWithStats(key);
  out.cache_shard = lookup.shard;
  out.cache_shard_hits = lookup.shard_hits;
  out.cache_shard_misses = lookup.shard_misses;
  if (lookup.plan != nullptr) {
    out.plan = std::move(lookup.plan);
    out.cache_hit = true;
  } else {
    // Plan against the canonical query so the artifacts are valid for every
    // query with this shape, whatever its variable names or atom order.
    // Two threads missing on the same key both plan and both insert; the
    // duplicate work is tolerated (plans for equal keys are equivalent and
    // the second insert just replaces the first) — see DESIGN.md.
    out.plan = std::make_shared<const CountingPlan>(
        MakePlan(out.canonical.query, options, profile));
    cache_.Insert(key, out.plan);
  }
  out.planner_ms = ElapsedMs(start);
  return out;
}

CountResult CountingEngine::Count(const ConjunctiveQuery& q,
                                  const Database& db) {
  return Count(q, db, options_.planner);
}

CountResult CountingEngine::Count(const ConjunctiveQuery& q,
                                  const Database& db,
                                  const PlannerOptions& options) {
  return Count(q, db, options, /*cancel=*/nullptr);
}

CountResult CountingEngine::Count(const ConjunctiveQuery& q,
                                  const Database& db,
                                  const PlannerOptions& options,
                                  const CancelToken* cancel) {
  return Count(q, db, options, cancel, /*trace=*/nullptr);
}

CountResult CountingEngine::Count(const ConjunctiveQuery& q,
                                  const Database& db,
                                  const PlannerOptions& options,
                                  const CancelToken* cancel, Trace* trace) {
  const MonotonicClock::time_point start = MonotonicNow();
  // Install the caller's trace for the duration of the call; with no trace
  // every TraceSpan below (and in the strategies) is the null sink.
  std::optional<TraceScope> trace_scope;
  if (trace != nullptr) trace_scope.emplace(trace);

  // Profile the query's relations for the cost model. Stats are computed
  // lazily once per table and cached (or preloaded from a v2 snapshot), so
  // per-call cost is a few map lookups; the fingerprint keys the plan
  // cache per data-profile class.
  DataProfile profile;
  const DataProfile* profile_ptr = nullptr;
  if (options_.enable_cost_model) {
    TraceSpan span("profile");
    std::vector<std::string> names;
    names.reserve(q.NumAtoms());
    for (const Atom& atom : q.atoms()) names.push_back(atom.relation);
    span.NoteCount("relations", names.size());
    profile = BuildDataProfile(db, names);
    profile_ptr = &profile;
  }
  // Install this engine's execution policy for the rest of the call:
  // kernel probe loops above the row threshold morselize onto the engine
  // pool (created lazily on the first such probe), the cancel token reaches
  // the width searches, the morsel claim loops and the checkpoint sites, and
  // filter tallies land in this count's own stats sink (so concurrent counts
  // never pollute each other's provenance). Planning is query-only and runs
  // no kernel operator, so of the policy it sees only the token.
  ExecPolicy policy;
  if (options_.enable_morsel_parallelism) {
    policy.pool = [this] { return &Pool(); };
  }
  policy.morsel_rows = options_.morsel_rows;
  policy.row_threshold = options_.morsel_row_threshold;
  policy.cancel = cancel;
  policy.cost_model = options_.enable_cost_model;
  ExecStats stats;
  policy.stats = &stats;
  // Memory budgets: a fresh per-execution budget tracks the bytes this
  // Count allocates (and enforces max_query_bytes when set); the shared
  // process budget accumulates in-flight totals across engines. The tracker
  // exists whenever either budget is configured — its used() is what gets
  // released from the process budget when this execution ends.
  std::optional<MemoryBudget> query_budget;
  MemoryBudget* process_budget = options_.total_budget.get();
  if (options_.max_query_bytes > 0 || process_budget != nullptr) {
    query_budget.emplace(options_.max_query_bytes);
    policy.query_memory = &*query_budget;
    policy.process_memory = process_budget;
  }
  ExecScope scope(std::move(policy));
  // Disable probe-filter consults when the engine is configured without
  // them (results never change; only the consult is gated).
  std::optional<MissFilterDisableScope> no_filters;
  if (!options_.enable_probe_filters) no_filters.emplace();
  Planned planned;
  CountResult result;
  // One try covers planning and execution: a plan miss can take seconds
  // (the width and #b searches), and the deadline and cancel token bound
  // it too. An interrupted plan is not cached.
  const MonotonicClock::time_point plan_start = MonotonicNow();
  std::optional<TraceSpan> execute_span;
  MonotonicClock::time_point execute_start{};
  try {
    {
      TraceSpan span("plan");
      planned = Plan(q, options, profile_ptr);
      span.Note("strategy", PlanStrategyName(planned.plan->strategy));
      span.Note("cache", planned.cache_hit ? "hit" : "miss");
      span.NoteCount("cache_shard", planned.cache_shard);
      if (planned.plan->cost_model_steered) {
        span.Note("cost_model", "steered");
      }
    }
    execute_span.emplace("execute");
    execute_start = MonotonicNow();
    CheckExecInterrupt();  // expired before execution: fail without a probe
    result = ExecutePlan(*planned.plan, db);
  } catch (const ExecInterrupted& interrupted) {
    result = CountResult{};
    result.status = interrupted.reason == CancelToken::StopReason::kDeadline
                        ? CountStatus::kDeadlineExceeded
                        : CountStatus::kCancelled;
    result.method = "interrupted";
  } catch (const ExecResourceExhausted& exhausted) {
    result = CountResult{};
    result.status = CountStatus::kResourceExhausted;
    result.method = "interrupted";
    result.mem_refused_bytes = exhausted.requested_bytes;
  }
  // Plan stamps its own time; an interrupted plan is stamped here.
  result.planner_ms =
      planned.plan != nullptr ? planned.planner_ms : ElapsedMs(plan_start);
  if (execute_span.has_value()) {
    // Stamped here rather than by ExecutePlan so interrupted and refused
    // executions report the time they ran too.
    result.execute_ms = ElapsedMs(execute_start);
    // Pool workers contribute through the ExecStats atomics, never the
    // trace; their totals are annotated here, when the span closes.
    TraceSpan& span = *execute_span;
    span.Note("method", result.method);
    span.Note("status", CountStatusName(result.status));
    if (result.width > 0) {
      span.NoteCount("width", static_cast<std::uint64_t>(result.width));
    }
    span.NoteCount("morsels", stats.morsels.load(std::memory_order_relaxed));
    span.NoteCount("worklist_iterations",
                   stats.worklist_iterations.load(std::memory_order_relaxed));
    span.NoteCount("filter_hits",
                   stats.filter_hits.load(std::memory_order_relaxed));
    span.NoteCount("filter_passes",
                   stats.filter_passes.load(std::memory_order_relaxed));
    span.NoteCount("cost_reorders",
                   stats.cost_reorders.load(std::memory_order_relaxed));
    execute_span.reset();
  }
  result.filter_hits = stats.filter_hits.load(std::memory_order_relaxed);
  result.filter_passes = stats.filter_passes.load(std::memory_order_relaxed);
  result.cost_reorders = stats.cost_reorders.load(std::memory_order_relaxed);
  result.morsels = stats.morsels.load(std::memory_order_relaxed);
  result.worklist_iterations =
      stats.worklist_iterations.load(std::memory_order_relaxed);
  result.cost_model_steered =
      (planned.plan != nullptr && planned.plan->cost_model_steered) ||
      result.cost_reorders > 0;
  if (query_budget.has_value()) {
    result.mem_charged_bytes = query_budget->used();
    // The execution is over: whatever it charged into the shared process
    // budget is no longer held (tables scoped to the execution are freed as
    // the strategies unwind; index builds cached past it are a documented
    // approximation).
    if (process_budget != nullptr) {
      process_budget->Release(query_budget->used());
    }
  }
  result.cache_hit = planned.cache_hit;
  result.cache_shard = planned.cache_shard;
  result.cache_shard_hits = planned.cache_shard_hits;
  result.cache_shard_misses = planned.cache_shard_misses;
  if (trace != nullptr) trace->Finish();

  const double total_ms = ElapsedMs(start);
  {
    MetricsRegistry& registry = MetricsRegistry::Instance();
    static Counter& ok_total =
        registry.GetCounter("sharpcq_counts_total", "{status=\"ok\"}");
    static Counter& deadline_total = registry.GetCounter(
        "sharpcq_counts_total", "{status=\"deadline_exceeded\"}");
    static Counter& cancelled_total =
        registry.GetCounter("sharpcq_counts_total", "{status=\"cancelled\"}");
    static Counter& exhausted_total = registry.GetCounter(
        "sharpcq_counts_total", "{status=\"resource_exhausted\"}");
    static Histogram& latency =
        registry.GetHistogram("sharpcq_count_latency_ms");
    switch (result.status) {
      case CountStatus::kOk:
        ok_total.Add(1);
        break;
      case CountStatus::kDeadlineExceeded:
        deadline_total.Add(1);
        break;
      case CountStatus::kCancelled:
        cancelled_total.Add(1);
        break;
      case CountStatus::kResourceExhausted:
        exhausted_total.Add(1);
        break;
    }
    latency.Record(total_ms);
    // Per-strategy counter: one locked map lookup per Count — off the
    // kernel hot path, so simplicity beats caching the four refs. A count
    // interrupted while planning has no strategy.
    if (planned.plan != nullptr) {
      registry
          .GetCounter("sharpcq_counts_by_strategy_total",
                      std::string("{strategy=\"") +
                          PlanStrategyName(planned.plan->strategy) + "\"}")
          .Add(1);
    }
  }
  if (slow_log_.enabled() && slow_log_.ShouldRecord(total_ms)) {
    SlowQueryEntry entry;
    entry.wall_time = WallTimestamp();
    entry.query = planned.plan != nullptr ? planned.canonical.key
                                          : CanonicalizeQuery(q).key;
    entry.method = result.method;
    entry.planner_ms = result.planner_ms;
    entry.execute_ms = result.execute_ms;
    if (trace != nullptr) entry.trace = SerializeTraceNode(trace->root());
    slow_log_.Record(std::move(entry));
    MetricsRegistry::Instance()
        .GetCounter("sharpcq_slow_queries_total")
        .Add(1);
  }
  return result;
}

ThreadPool& CountingEngine::Pool() {
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(options_.batch_threads);
  }
  return *pool_;
}

std::vector<CountResult> CountingEngine::CountBatch(
    const std::vector<CountJob>& jobs) {
  return CountBatch(jobs, options_.planner);
}

std::vector<CountResult> CountingEngine::CountBatch(
    const std::vector<CountJob>& jobs, const PlannerOptions& options) {
  std::vector<CountResult> results(jobs.size());
  std::vector<std::future<void>> done;
  done.reserve(jobs.size());
  ThreadPool& pool = Pool();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SHARPCQ_CHECK_MSG(jobs[i].db != nullptr, "CountJob.db must be set");
    auto task = std::make_shared<std::packaged_task<void()>>(
        [this, &jobs, &results, &options, i] {
          results[i] = Count(jobs[i].query, *jobs[i].db, options);
        });
    done.push_back(task->get_future());
    pool.Submit([task] { (*task)(); });
  }
  // Wait for every job before touching any future's result: the tasks
  // capture jobs/results/options by reference, so no exception may unwind
  // this frame while a sibling task can still run.
  for (std::future<void>& f : done) f.wait();
  for (std::future<void>& f : done) f.get();
  return results;
}

std::future<CountResult> CountingEngine::CountAsync(const ConjunctiveQuery& q,
                                                    const Database& db) {
  return CountAsync(q, db, options_.planner);
}

std::future<CountResult> CountingEngine::CountAsync(
    const ConjunctiveQuery& q, const Database& db,
    const PlannerOptions& options) {
  auto task = std::make_shared<std::packaged_task<CountResult()>>(
      [this, query = q, &db, options] { return Count(query, db, options); });
  std::future<CountResult> future = task->get_future();
  Pool().Submit([task] { (*task)(); });
  return future;
}

CountingEngine& CountingEngine::Shared() {
  static CountingEngine* engine = new CountingEngine();
  return *engine;
}

}  // namespace sharpcq
