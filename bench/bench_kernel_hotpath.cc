// The ISSUE-5 packed-key probe kernel against the PR 3 kernel it replaced,
// on the hot paths every counting strategy executes. The PR 3 probe loop —
// assemble a std::vector<Value> key per row, HashRange it, walk an
// open-addressing table comparing whole value vectors — is replicated here
// verbatim (including its per-(table, key-columns) index cache, so the
// comparison isolates the packed-word probes, not PR 3's own caching wins):
//
//   - BM_SemijoinProbe_MultiCol_{Pr3,Packed}  steady-state two-column
//     semijoin probes against a cached right-hand index (the fixpoint-round
//     shape). CI gates Pr3 >= 1.5x Packed time;
//   - BM_FullReducerChain_{Pr3,Packed}        materialize + pairwise
//     consistency on an acyclic pruning chain of 4-ary views with 2-column
//     overlaps: the packed side also exercises the worklist propagator's
//     join-tree downgrade. CI gates Pr3 >= 1.5x Packed;
//   - BM_CountAggregate_{Pr3,Packed}          the CountFullJoin weight
//     aggregation sweep over a materialized chain instance.
//
// The ISSUE-6 additions measure the filter-fronted SIMD kernel against the
// ISSUE-5 (PR 5) kernel it replaced — packed words and a word-compare slot
// walk, but per-row scalar hashing, a gathered group_words compare, and no
// miss filter — replicated below as Pr5WordIndex:
//
//   - BM_SemijoinProbe_MissHeavy_{Pr5,Filtered}  semijoin probes where 95%
//     of probe keys are absent from an out-of-L2 build side (the
//     reduced-relation fixpoint shape). CI gates Pr5 >= 1.5x Filtered time;
//   - BM_IndexBuild_OutOfCache_Streaming  index construction on a build
//     side whose slot arrays dwarf L2.
//
// The ISSUE-9 observability additions rerun two of the above with
// process-wide metrics disabled, isolating the cost of the block-flushed
// counter increments on the kernel hot path:
//
//   - BM_SemijoinProbe_MissHeavy_FilteredMetricsOff  the miss-heavy probe
//     loop (per-block filter-tally flush) without metrics;
//   - BM_FullReducerChain_PackedMetricsOff           the full consistency
//     chain (filter tallies + index-build counter) without metrics.
//
// CI gates the metrics-ON siblings at <= 1.03x these OFF times — the
// "metrics cost under 3%" guarantee of DESIGN.md's Observability section.
//
// Baseline snapshot: BENCH_kernel_hotpath.json at the repository root
// (regenerate with --benchmark_format=json).

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "algebra/exec_policy.h"
#include "algebra/rel.h"
#include "algebra/table.h"
#include "count/join_tree_instance.h"
#include "solver/consistency.h"
#include "util/count_int.h"
#include "util/failpoint.h"
#include "util/hash.h"
#include "util/mem_budget.h"
#include "util/metrics.h"

namespace sharpcq {
namespace {

// --- the PR 3 kernel, replicated ---------------------------------------------

// Open-addressing index over materialized std::vector<Value> keys: the PR 3
// TableIndex build and probe paths before key packing.
class LegacyValueIndex {
 public:
  LegacyValueIndex(const Table& table, std::vector<int> key_columns)
      : key_columns_(std::move(key_columns)), width_(key_columns_.size()) {
    const std::size_t n = table.rows();
    std::size_t capacity = 16;
    while (capacity < n * 2 + 2) capacity <<= 1;
    slots_.assign(capacity, 0);
    mask_ = capacity - 1;
    std::vector<std::uint32_t> group_of(n);
    std::vector<std::uint32_t> counts;
    std::vector<Value> key(width_);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < width_; ++j) {
        key[j] = table.at(i, key_columns_[j]);
      }
      std::size_t slot = FindSlot(key);
      if (slots_[slot] == 0) {
        keys_.insert(keys_.end(), key.begin(), key.end());
        counts.push_back(0);
        slots_[slot] = static_cast<std::uint32_t>(++num_groups_);
      }
      std::uint32_t g = slots_[slot] - 1;
      group_of[i] = g;
      ++counts[g];
    }
    offsets_.assign(num_groups_ + 1, 0);
    for (std::size_t g = 0; g < num_groups_; ++g) {
      offsets_[g + 1] = offsets_[g] + counts[g];
    }
    rows_.resize(n);
    std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      rows_[cursor[group_of[i]]++] = static_cast<std::uint32_t>(i);
    }
  }

  std::span<const std::uint32_t> Lookup(std::span<const Value> key) const {
    std::size_t slot = FindSlot(key);
    if (slots_[slot] == 0) return {};
    std::uint32_t g = slots_[slot] - 1;
    return {rows_.data() + offsets_[g],
            static_cast<std::size_t>(offsets_[g + 1] - offsets_[g])};
  }

  const std::vector<int>& key_columns() const { return key_columns_; }

 private:
  std::size_t FindSlot(std::span<const Value> key) const {
    std::size_t h = HashRange(key.begin(), key.end()) & mask_;
    while (true) {
      std::uint32_t g = slots_[h];
      if (g == 0) return h;
      const Value* stored = keys_.data() + (g - 1) * width_;
      if (std::equal(key.begin(), key.end(), stored)) return h;
      h = (h + 1) & mask_;
    }
  }

  std::vector<int> key_columns_;
  std::size_t width_;
  std::size_t num_groups_ = 0;
  std::vector<Value> keys_;
  std::vector<std::uint32_t> slots_;
  std::size_t mask_ = 0;
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> rows_;
};

// The PR 3 per-table index cache: one LegacyValueIndex per
// (table, key columns), like Table's own cache but value-keyed. Entries
// hold the table alive so a dead table's address can never alias a cached
// index (the kernel's cache lives on the Table itself and is immune).
class LegacyIndexCache {
 public:
  const LegacyValueIndex& On(std::shared_ptr<const Table> table,
                             std::vector<int> cols) {
    auto key = std::make_pair(table.get(), std::move(cols));
    auto it = cache_.find(key);
    if (it != cache_.end()) return *it->second.second;
    auto index = std::make_unique<LegacyValueIndex>(*table, key.second);
    const LegacyValueIndex& ref = *index;
    cache_.emplace(std::move(key),
                   std::make_pair(std::move(table), std::move(index)));
    return ref;
  }

 private:
  std::map<std::pair<const Table*, std::vector<int>>,
           std::pair<std::shared_ptr<const Table>,
                     std::unique_ptr<LegacyValueIndex>>>
      cache_;
};

// PR 3 Semijoin: per-row key vector assembly + value-keyed lookup, with the
// copy-free "nothing removed" fast path PR 3 already had.
Rel Pr3Semijoin(const Rel& a, const Rel& b, LegacyIndexCache* cache,
                bool* changed = nullptr) {
  IdSet shared = Intersect(a.vars(), b.vars());
  const LegacyValueIndex& index = cache->On(b.table(), ColumnsOf(b, shared));
  std::vector<int> a_cols = ColumnsOf(a, shared);
  std::vector<Value> key(shared.size());
  const Table& ta = *a.table();
  const std::size_t n = ta.rows();
  std::vector<std::uint32_t> kept;
  kept.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < a_cols.size(); ++j) {
      key[j] = ta.at(i, a_cols[j]);
    }
    if (!index.Lookup(key).empty()) {
      kept.push_back(static_cast<std::uint32_t>(i));
    }
  }
  if (kept.size() == n) {
    if (changed != nullptr) *changed = false;
    return a;
  }
  if (changed != nullptr) *changed = true;
  return Rel(a.vars(), Table::Gather(ta, kept));
}

// PR 3 pairwise consistency: the full-rescan fixpoint (every interacting
// pair, every round, until a clean confirming round).
bool Pr3EnforcePairwiseConsistency(std::vector<Rel>* views,
                                   LegacyIndexCache* cache) {
  const std::size_t n = views->size();
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && (*views)[i].vars().Intersects((*views)[j].vars())) {
        pairs.emplace_back(i, j);
      }
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto [i, j] : pairs) {
      bool local = false;
      (*views)[i] = Pr3Semijoin((*views)[i], (*views)[j], cache, &local);
      if (local) {
        changed = true;
        if ((*views)[i].empty()) return false;
      }
    }
  }
  return true;
}

// --- the ISSUE-5 (PR 5) kernel, replicated ------------------------------------

// The PR 5 packing chooser, verbatim: single-column pass-through, dense
// bit-packing under 62 bits, hashed fallback (the bench workloads below all
// pack dense).
KeyPacking Pr5ChoosePacking(const Table& table,
                            const std::vector<int>& key_columns) {
  KeyPacking packing;
  if (key_columns.size() <= 1) {
    packing.mode = KeyPacking::Mode::kSingle;
    return packing;
  }
  int total_bits = 0;
  for (int c : key_columns) {
    std::span<const Value> col = table.Column(c);
    Value lo = col[0];
    Value hi = col[0];
    for (Value v : col) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    std::uint64_t range =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    packing.base.push_back(static_cast<std::uint64_t>(lo));
    packing.range.push_back(range);
    packing.shift.push_back(total_bits);
    total_bits += std::bit_width(range);
  }
  packing.mode = KeyPacking::Mode::kDense;
  return packing;
}

// The PR 5 TableIndex probe path for exact packings: per-row scalar
// HashMix, a slot array holding only group ids, and the word compare
// gathering group_words_[g - 1] — no tags, no inline slot words, no miss
// filter, no batched hashing.
class Pr5WordIndex {
 public:
  static constexpr std::uint32_t kNoGroup = 0xFFFFFFFFu;

  Pr5WordIndex(const Table& table, std::vector<int> key_columns)
      : key_columns_(std::move(key_columns)), width_(key_columns_.size()) {
    packing_ = Pr5ChoosePacking(table, key_columns_);
    const std::size_t n = table.rows();
    std::size_t capacity = 16;
    while (capacity < n * 2 + 2) capacity <<= 1;
    slots_.assign(capacity, 0);
    mask_ = capacity - 1;
    std::vector<std::uint64_t> words(n);
    PackProbeWords(packing_, table,
                   std::span<const int>(key_columns_.data(), width_), 0, n,
                   words.data());
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t h = static_cast<std::size_t>(HashMix(words[i])) & mask_;
      while (true) {
        std::uint32_t g = slots_[h];
        if (g == 0) {
          group_words_.push_back(words[i]);
          slots_[h] = static_cast<std::uint32_t>(++num_groups_);
          break;
        }
        if (group_words_[g - 1] == words[i]) break;
        h = (h + 1) & mask_;
      }
    }
  }

  const KeyPacking& packing() const { return packing_; }
  const std::vector<int>& key_columns() const { return key_columns_; }

  std::uint32_t FindGroupWord(std::uint64_t word) const {
    std::size_t h = static_cast<std::size_t>(HashMix(word)) & mask_;
    while (true) {
      std::uint32_t g = slots_[h];
      if (g == 0) return kNoGroup;
      if (group_words_[g - 1] == word) return g - 1;  // the PR 5 gather
      h = (h + 1) & mask_;
    }
  }

 private:
  std::vector<int> key_columns_;
  std::size_t width_;
  KeyPacking packing_;
  std::size_t num_groups_ = 0;
  std::vector<std::uint64_t> group_words_;
  std::vector<std::uint32_t> slots_;
  std::size_t mask_ = 0;
};

// --- workloads ----------------------------------------------------------------

constexpr int kChainViews = 6;
constexpr int kRowsPerView = 8000;
constexpr Value kDomain = 32;  // dictionary-dense: 2-col keys bit-pack

struct RawView {
  IdSet vars;
  std::vector<std::vector<Value>> rows;
};

// A chain of 4-ary views v_i(x_{2i}..x_{2i+3}) overlapping the next view on
// two columns; the tail view's key columns are restricted so consistency
// enforcement prunes backwards through the chain.
std::vector<RawView> MakeChainRows() {
  std::mt19937_64 rng(20260729);
  std::uniform_int_distribution<Value> value(0, kDomain - 1);
  std::vector<RawView> views;
  views.reserve(kChainViews);
  for (int i = 0; i < kChainViews; ++i) {
    RawView view;
    for (std::uint32_t v = 0; v < 4; ++v) {
      view.vars.Insert(static_cast<std::uint32_t>(2 * i) + v);
    }
    const bool tail = i == kChainViews - 1;
    view.rows.reserve(kRowsPerView);
    for (int t = 0; t < kRowsPerView; ++t) {
      Value a = value(rng);
      Value b = value(rng);
      if (tail) {  // restrict the overlap columns: forces pruning
        a /= 2;
        b /= 2;
      }
      view.rows.push_back({a, b, value(rng), value(rng)});
    }
    views.push_back(std::move(view));
  }
  return views;
}

std::vector<Rel> BuildViews(const std::vector<RawView>& raw) {
  std::vector<Rel> views;
  views.reserve(raw.size());
  for (const RawView& r : raw) {
    TableBuilder builder(static_cast<int>(r.rows[0].size()));
    builder.ReserveRows(r.rows.size());
    for (const auto& row : r.rows) {
      builder.AddRow(std::span<const Value>(row));
    }
    views.emplace_back(r.vars, std::move(builder).Build());
  }
  return views;
}

// Probe/build pair for the steady-state semijoin: b holds every key combo,
// so the semijoin keeps every row of a and both sides measure pure probes.
std::pair<Rel, Rel> MakeProbePair() {
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<Value> value(0, kDomain - 1);
  TableBuilder a_builder(3);
  a_builder.ReserveRows(40000);
  for (int t = 0; t < 40000; ++t) {
    std::vector<Value> row = {value(rng), value(rng), value(rng)};
    a_builder.AddRow(row);
  }
  TableBuilder b_builder(3);
  b_builder.ReserveRows(static_cast<std::size_t>(kDomain * kDomain));
  for (Value x = 0; x < kDomain; ++x) {
    for (Value y = 0; y < kDomain; ++y) {
      std::vector<Value> row = {x, y, x};
      b_builder.AddRow(row);
    }
  }
  return {Rel(IdSet{0, 1, 2}, std::move(a_builder).Build()),
          Rel(IdSet{0, 1, 3}, std::move(b_builder).Build())};
}

void BM_SemijoinProbe_MultiCol_Pr3(benchmark::State& state) {
  auto [a, b] = MakeProbePair();
  LegacyIndexCache cache;
  for (auto _ : state) {
    Rel kept = Pr3Semijoin(a, b, &cache);
    benchmark::DoNotOptimize(kept.size());
  }
  state.counters["rows"] = static_cast<double>(a.size());
}
BENCHMARK(BM_SemijoinProbe_MultiCol_Pr3);

void BM_SemijoinProbe_MultiCol_Packed(benchmark::State& state) {
  auto [a, b] = MakeProbePair();
  for (auto _ : state) {
    Rel kept = Semijoin(a, b);
    benchmark::DoNotOptimize(kept.size());
  }
  state.counters["rows"] = static_cast<double>(a.size());
}
BENCHMARK(BM_SemijoinProbe_MultiCol_Packed);

// Miss-heavy probe pair: the build side holds the ~260k distinct (x, y)
// keys over 0..999 x 0..999 with (x + y) % 3 != 0, so its slot arrays
// (1M slots x 13 bytes) dwarf L2 while the blocked bloom filter stays
// L2-resident. The probe side is 95% keys with (x + y) % 3 == 0 —
// guaranteed absent, yet inside the dense packing box, so every miss is a
// real slot-table (or filter) miss, not a poisoned word — and 5% copies of
// build rows. This is the fixpoint shape: semijoins against an
// already-reduced relation, where nearly every probe misses and the
// unfiltered kernel pays an out-of-cache slot touch to learn it.
std::pair<Rel, Rel> MakeMissHeavyPair() {
  std::mt19937_64 rng(4243);
  std::uniform_int_distribution<Value> value(0, 999);
  TableBuilder b_builder(3);
  b_builder.ReserveRows(400000);
  std::vector<std::pair<Value, Value>> build_keys;
  build_keys.reserve(400000);
  for (int t = 0; t < 400000; ++t) {
    Value x = value(rng);
    Value y = value(rng);
    if ((x + y) % 3 == 0) x = (x + 1) % 1000 == 0 ? x - 2 : x + 1;
    if ((x + y) % 3 == 0) continue;
    build_keys.emplace_back(x, y);
    std::vector<Value> row = {x, y, value(rng)};
    b_builder.AddRow(row);
  }
  TableBuilder a_builder(3);
  a_builder.ReserveRows(40000);
  std::uniform_int_distribution<std::size_t> pick(0, build_keys.size() - 1);
  for (int t = 0; t < 40000; ++t) {
    if (t % 20 == 0) {
      const auto& [x, y] = build_keys[pick(rng)];
      std::vector<Value> row = {x, y, value(rng)};
      a_builder.AddRow(row);
    } else {
      Value x = value(rng);
      Value y = value(rng);
      const Value adjust = (3 - (x + y) % 3) % 3;
      y = y + adjust < 1000 ? y + adjust : y + adjust - 3;
      std::vector<Value> row = {x, y, value(rng)};
      a_builder.AddRow(row);
    }
  }
  return {Rel(IdSet{0, 1, 2}, std::move(a_builder).Build()),
          Rel(IdSet{0, 1, 3}, std::move(b_builder).Build())};
}

// Both miss-heavy benches measure the probe loop of a semijoin — pack the
// probe rows, probe a prebuilt (cache-served) index, collect surviving row
// ids — with output materialization and per-call allocation stripped from
// BOTH sides, so the ratio isolates kernel against kernel. (The PR 5 side
// even gets the reused buffers the shipped PR 5 code never had; the gate
// holds anyway.)
void BM_SemijoinProbe_MissHeavy_Pr5(benchmark::State& state) {
  auto [a, b] = MakeMissHeavyPair();
  IdSet shared = Intersect(a.vars(), b.vars());
  Pr5WordIndex index(*b.table(), ColumnsOf(b, shared));
  std::vector<int> a_cols = ColumnsOf(a, shared);
  const Table& ta = *a.table();
  const std::size_t n = ta.rows();
  std::vector<std::uint64_t> words(n);
  std::vector<std::uint32_t> kept;
  kept.reserve(n);
  for (auto _ : state) {
    kept.clear();
    PackProbeWords(index.packing(), ta,
                   std::span<const int>(a_cols.data(), a_cols.size()), 0, n,
                   words.data());
    for (std::size_t i = 0; i < n; ++i) {
      if (index.FindGroupWord(words[i]) != Pr5WordIndex::kNoGroup) {
        kept.push_back(static_cast<std::uint32_t>(i));
      }
    }
    benchmark::DoNotOptimize(kept.size());
  }
  state.counters["rows"] = static_cast<double>(n);
  state.counters["kept"] = static_cast<double>(kept.size());
}
BENCHMARK(BM_SemijoinProbe_MissHeavy_Pr5);

void BM_SemijoinProbe_MissHeavy_Filtered(benchmark::State& state) {
  auto [a, b] = MakeMissHeavyPair();
  IdSet shared = Intersect(a.vars(), b.vars());
  std::shared_ptr<const TableIndex> index =
      b.table()->IndexOn(ColumnsOf(b, shared));
  std::vector<int> a_cols = ColumnsOf(a, shared);
  const Table& ta = *a.table();
  const std::size_t n = ta.rows();
  std::vector<std::uint32_t> kept;
  kept.reserve(n);
  for (auto _ : state) {
    kept.clear();
    ForEachProbeGroup(*index, ta,
                      std::span<const int>(a_cols.data(), a_cols.size()), 0, n,
                      [&](std::size_t i, std::uint32_t group) {
                        if (group != TableIndex::kNoGroup) {
                          kept.push_back(static_cast<std::uint32_t>(i));
                        }
                      });
    benchmark::DoNotOptimize(kept.size());
  }
  state.counters["rows"] = static_cast<double>(n);
  state.counters["kept"] = static_cast<double>(kept.size());
}
BENCHMARK(BM_SemijoinProbe_MissHeavy_Filtered);

// The same filtered probe loop with metrics disabled: every increment on
// the path (the per-block probe-filter tally flush) becomes a relaxed load
// and an untaken branch. CI gates Filtered <= 1.03x this.
void BM_SemijoinProbe_MissHeavy_FilteredMetricsOff(benchmark::State& state) {
  SetMetricsEnabled(false);
  auto [a, b] = MakeMissHeavyPair();
  IdSet shared = Intersect(a.vars(), b.vars());
  std::shared_ptr<const TableIndex> index =
      b.table()->IndexOn(ColumnsOf(b, shared));
  std::vector<int> a_cols = ColumnsOf(a, shared);
  const Table& ta = *a.table();
  const std::size_t n = ta.rows();
  std::vector<std::uint32_t> kept;
  kept.reserve(n);
  for (auto _ : state) {
    kept.clear();
    ForEachProbeGroup(*index, ta,
                      std::span<const int>(a_cols.data(), a_cols.size()), 0, n,
                      [&](std::size_t i, std::uint32_t group) {
                        if (group != TableIndex::kNoGroup) {
                          kept.push_back(static_cast<std::uint32_t>(i));
                        }
                      });
    benchmark::DoNotOptimize(kept.size());
  }
  state.counters["rows"] = static_cast<double>(n);
  state.counters["kept"] = static_cast<double>(kept.size());
  SetMetricsEnabled(true);
}
BENCHMARK(BM_SemijoinProbe_MissHeavy_FilteredMetricsOff);

// Out-of-cache build side: ~330k distinct 2-column keys put the slot
// arrays (1M slots x 13 bytes) far past L2. Each iteration constructs the
// index directly — the table itself is built once — so the measurement is
// the insert pass.
std::shared_ptr<const Table> MakeOutOfCacheBuildTable() {
  std::mt19937_64 rng(515151);
  std::uniform_int_distribution<Value> value(0, 999);
  TableBuilder builder(2);
  builder.ReserveRows(400000);
  for (int t = 0; t < 400000; ++t) {
    std::vector<Value> row = {value(rng), value(rng)};
    builder.AddRow(row);
  }
  return std::move(builder).Build();
}

void BM_IndexBuild_OutOfCache_Streaming(benchmark::State& state) {
  auto table = MakeOutOfCacheBuildTable();
  std::size_t groups = 0;
  for (auto _ : state) {
    TableIndex index(*table, {0, 1});
    groups = index.num_groups();
    benchmark::DoNotOptimize(groups);
  }
  state.counters["rows"] = static_cast<double>(table->rows());
  state.counters["groups"] = static_cast<double>(groups);
}
BENCHMARK(BM_IndexBuild_OutOfCache_Streaming);

// Both reducer benches ingest the chain once and enforce consistency on a
// fresh vector of handles per iteration (Rel copies share tables, so the
// iteration measures semijoin probing and the materialization of pruned
// views, not CSV-style ingest). Index caches — the kernel's per-table one
// and the Pr3 replica's — persist across iterations on the unpruned source
// tables, the steady state of a fixpoint-serving engine.
void BM_FullReducerChain_Pr3(benchmark::State& state) {
  const std::vector<Rel> chain = BuildViews(MakeChainRows());
  std::size_t surviving = 0;
  for (auto _ : state) {
    std::vector<Rel> views = chain;
    // Per-iteration cache: PR 3 cached indexes on the table object, so
    // indexes over the pruned intermediates died with their fixpoint run.
    LegacyIndexCache cache;
    bool ok = Pr3EnforcePairwiseConsistency(&views, &cache);
    benchmark::DoNotOptimize(ok);
    surviving = views[0].size();
  }
  state.counters["surviving_rows"] = static_cast<double>(surviving);
}
BENCHMARK(BM_FullReducerChain_Pr3);

void BM_FullReducerChain_Packed(benchmark::State& state) {
  const std::vector<Rel> chain = BuildViews(MakeChainRows());
  std::size_t surviving = 0;
  for (auto _ : state) {
    std::vector<Rel> views = chain;
    bool ok = EnforcePairwiseConsistency(&views);
    benchmark::DoNotOptimize(ok);
    surviving = views[0].size();
  }
  state.counters["surviving_rows"] = static_cast<double>(surviving);
}
BENCHMARK(BM_FullReducerChain_Packed);

// The full consistency chain with metrics disabled — filter-tally flushes
// and the index-build counter all become untaken branches. CI gates Packed
// <= 1.03x this.
void BM_FullReducerChain_PackedMetricsOff(benchmark::State& state) {
  SetMetricsEnabled(false);
  const std::vector<Rel> chain = BuildViews(MakeChainRows());
  std::size_t surviving = 0;
  for (auto _ : state) {
    std::vector<Rel> views = chain;
    bool ok = EnforcePairwiseConsistency(&views);
    benchmark::DoNotOptimize(ok);
    surviving = views[0].size();
  }
  state.counters["surviving_rows"] = static_cast<double>(surviving);
  SetMetricsEnabled(true);
}
BENCHMARK(BM_FullReducerChain_PackedMetricsOff);

// The chain under the robustness machinery at its most expensive
// never-firing configuration: a generous memory budget bound in an
// ExecScope (every allocation site calls ChargeExecMemory) and a failpoint
// armed on the index-build site at a hit count it never reaches, so
// AnyArmed() is true and every SHARPCQ_FAILPOINT takes the registry slow
// path without firing. CI gates this <= 1.03x BM_FullReducerChain_Packed:
// fault injection and budget accounting stay off the probe hot path.
void BM_FullReducerChain_Budgeted(benchmark::State& state) {
  failpoint::Trigger trigger;
  trigger.action = FailpointAction::kError;
  trigger.after_hits = std::numeric_limits<std::uint64_t>::max() / 2;
  failpoint::Arm("index.build", trigger);
  MemoryBudget query_budget(1ull << 40);
  MemoryBudget process_budget(1ull << 40);
  ExecPolicy policy;
  policy.query_memory = &query_budget;
  policy.process_memory = &process_budget;
  ExecScope scope(policy);
  const std::vector<Rel> chain = BuildViews(MakeChainRows());
  std::size_t surviving = 0;
  for (auto _ : state) {
    std::vector<Rel> views = chain;
    bool ok = EnforcePairwiseConsistency(&views);
    benchmark::DoNotOptimize(ok);
    surviving = views[0].size();
  }
  state.counters["surviving_rows"] = static_cast<double>(surviving);
  state.counters["charged_bytes"] = static_cast<double>(query_budget.used());
  failpoint::DisarmAll();
}
BENCHMARK(BM_FullReducerChain_Budgeted);

// The chain as a path-shaped join-tree instance (vertex i's parent is
// i - 1), for the weight-aggregation sweep.
JoinTreeInstance MakeChainInstance() {
  JoinTreeInstance instance;
  std::vector<int> parents(kChainViews);
  parents[0] = -1;
  for (int i = 1; i < kChainViews; ++i) parents[static_cast<std::size_t>(i)] = i - 1;
  instance.shape = TreeShape::FromParents(std::move(parents));
  instance.nodes = BuildViews(MakeChainRows());
  return instance;
}

// The PR 3 CountFullJoin aggregation loop: per parent row, assemble the
// shared-key vector and look it up in the child's value-keyed index.
CountInt Pr3CountAggregate(const JoinTreeInstance& instance,
                           LegacyIndexCache* cache) {
  std::vector<int> order = instance.shape.TopoOrder();
  std::vector<std::vector<CountInt>> weights(instance.nodes.size());
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    std::size_t v = static_cast<std::size_t>(*it);
    const Rel& rel = instance.nodes[v];
    std::vector<CountInt>& w = weights[v];
    w.assign(rel.size(), CountInt{1});
    for (int child : instance.shape.children[v]) {
      std::size_t c = static_cast<std::size_t>(child);
      const Rel& crel = instance.nodes[c];
      IdSet shared = Intersect(rel.vars(), crel.vars());
      const LegacyValueIndex& index =
          cache->On(crel.table(), ColumnsOf(crel, shared));
      std::vector<int> parent_cols = ColumnsOf(rel, shared);
      std::vector<Value> key(shared.size());
      const Table& parent_table = *rel.table();
      for (std::size_t row = 0; row < rel.size(); ++row) {
        if (w[row] == 0) continue;
        for (std::size_t j = 0; j < parent_cols.size(); ++j) {
          key[j] = parent_table.at(row, parent_cols[j]);
        }
        std::span<const std::uint32_t> matches = index.Lookup(key);
        if (matches.empty()) {
          w[row] = 0;
          continue;
        }
        CountInt sum = 0;
        for (std::uint32_t crow : matches) sum += weights[c][crow];
        w[row] *= sum;
      }
    }
  }
  CountInt total = 0;
  for (CountInt w : weights[static_cast<std::size_t>(instance.shape.root)]) {
    total += w;
  }
  return total;
}

void BM_CountAggregate_Pr3(benchmark::State& state) {
  JoinTreeInstance instance = MakeChainInstance();
  LegacyIndexCache cache;
  for (auto _ : state) {
    CountInt total = Pr3CountAggregate(instance, &cache);
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_CountAggregate_Pr3);

void BM_CountAggregate_Packed(benchmark::State& state) {
  JoinTreeInstance instance = MakeChainInstance();
  for (auto _ : state) {
    CountInt total = CountFullJoin(instance);
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_CountAggregate_Packed);

}  // namespace
}  // namespace sharpcq

SHARPCQ_BENCH_MAIN();
