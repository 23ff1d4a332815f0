#ifndef SHARPCQ_ALGEBRA_TABLE_H_
#define SHARPCQ_ALGEBRA_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "algebra/exec_policy.h"
#include "algebra/miss_filter.h"
#include "algebra/simd.h"
#include "data/value.h"
#include "util/check.h"
#include "util/cpu.h"

namespace sharpcq {

class Table;
struct TableStats;  // algebra/stats.h

// How a TableIndex packs a multi-column key into one uint64 word. Every
// probe compares one machine word per row instead of rebuilding and
// re-hashing a std::vector<Value> key; the mode decides what a word match
// means:
//
//   kSingle  width-1 keys: word = value, bijective. Word equality is key
//            equality. (Width-0 keys also use this mode: every word is 0.)
//   kDense   multi-column keys whose per-column value ranges bit-pack into
//            <= 62 bits (the dictionary-dense case: interned values are
//            small dense integers). word = sum_j (v_j - base_j) << shift_j,
//            injective over the in-range box; a probe value outside its
//            column's range sets the poison bit (bit 63), which no stored
//            word carries, so the lookup misses without special-casing.
//            Word equality is key equality.
//   kHashed  fallback for wide value ranges: word = 64-bit hash chain of
//            the key. Word equality is necessary but not sufficient — both
//            the index build and every probe re-verify the actual column
//            values on word match (collision-checked).
struct KeyPacking {
  enum class Mode : std::uint8_t { kSingle, kDense, kHashed };
  Mode mode = Mode::kSingle;
  // kDense only, one entry per key column.
  std::vector<std::uint64_t> base;   // two's-complement column minimum
  std::vector<std::uint64_t> range;  // max - min (unsigned distance)
  std::vector<int> shift;            // bit position of the column's digit

  // Word equality implies key equality (no value re-verification needed).
  bool exact() const { return mode != Mode::kHashed; }

  // The word of `key` under this packing. Dense keys outside the packed box
  // come back with the poison bit set and match nothing.
  std::uint64_t Pack(std::span<const Value> key) const;

  static constexpr std::uint64_t kPoison = std::uint64_t{1} << 63;
};

// Hash index over selected key columns of a Table: key -> row ids, plus the
// group structure (one group per distinct key) that counted projection and
// the PS13 initial partition read directly. Immutable after construction.
//
// Storage is flat and gather-free on the probe path: the open-addressing
// slot array carries, per slot, a 1-byte tag (top byte of the slot hash,
// high bit set; 0 = empty), the full packed key word, and the group id —
// so the compare loop reads the tag and the word straight out of the slot
// arrays instead of chasing the group id into a side table. Group keys
// live in one contiguous buffer and the row ids of all groups in one CSR
// array, so building the index performs no per-group allocations.
//
// Every index also carries a MissFilter over its distinct key hashes
// (algebra/miss_filter.h); the block probe driver consults it before the
// slot walk, so miss-heavy probe loops skip the slot arrays entirely.
class TableIndex {
 public:
  TableIndex(const Table& table, std::vector<int> key_columns);

  // Row ids whose key columns equal `key` (empty if none).
  std::span<const std::uint32_t> Lookup(std::span<const Value> key) const;

  // Single-column fast path: rows whose key equals `key`, without building
  // a one-element span at the call site. Requires key_columns().size() == 1.
  std::span<const std::uint32_t> Lookup(Value key) const {
    SHARPCQ_DCHECK(width_ == 1);
    return group_rows_or_empty(
        FindGroupWord(static_cast<std::uint64_t>(key)));
  }

  const std::vector<int>& key_columns() const { return key_columns_; }
  const KeyPacking& packing() const { return packing_; }

  // Group id sentinel for "no group with this key".
  static constexpr std::uint32_t kNoGroup = 0xFFFFFFFFu;

  // Group whose packed word is `word`, or kNoGroup. Exact packings only —
  // for kHashed packings a word match does not pin down the key, so callers
  // must use FindGroupVerify with the probe row's actual values. The raw
  // slot walk: no miss-filter consult (the probe drivers layer that on).
  std::uint32_t FindGroupWord(std::uint64_t word) const;

  // Group whose packed word is `word` AND whose key values equal
  // key_at(0..width-1) — the collision-checked probe for kHashed packings
  // (also correct, just redundant, for exact ones).
  template <typename KeyAt>
  std::uint32_t FindGroupVerify(std::uint64_t word, KeyAt&& key_at) const {
    return FindGroupVerifyHashed(word, HashWord(word),
                                 static_cast<KeyAt&&>(key_at));
  }

  // FindGroupVerify fronted by the miss filter (when `use_filter`):
  // definite misses return kNoGroup without touching the slots and bump
  // *filter_hits. The probe driver's kHashed path.
  template <typename KeyAt>
  std::uint32_t FindGroupVerifyFiltered(std::uint64_t word, bool use_filter,
                                        std::uint64_t* filter_hits,
                                        KeyAt&& key_at) const {
    const std::uint64_t hash = HashWord(word);
    if (use_filter && !filter_.MightContain(hash)) {
      ++*filter_hits;
      return kNoGroup;
    }
    return FindGroupVerifyHashed(word, hash, static_cast<KeyAt&&>(key_at));
  }

  // Rows of the group matching a pre-packed probe word (see
  // PackProbeWords); empty span on miss. Exact packings only.
  std::span<const std::uint32_t> LookupWord(std::uint64_t word) const {
    return group_rows_or_empty(FindGroupWord(word));
  }

  // The fused block probe driver (exact packings only): batch-hashes the
  // words (SIMD when available), consults the miss filter with an adaptive
  // bypass, prefetches surviving rows' slot lines when the slot arrays are
  // bigger than L2, walks the slots, and calls emit(i, group) inline for
  // every row i in [0, n) with skip[i] == 0 (skip may be null: no row
  // skipped). Filter use and prefetching are compile-time specialized per
  // block, so a hit-heavy probe runs the same tight loop it would without
  // a filter. The single integration point for the vectorized probe path —
  // every probe driver below lands here.
  template <typename Emit>
  void ResolveWordsFused(const std::uint64_t* words, std::size_t n,
                         const std::uint8_t* skip, Emit&& emit) const;

  // Array form of ResolveWordsFused for callers that want materialized
  // group ids: groups[i] = matching group or kNoGroup (skipped rows come
  // back kNoGroup).
  void ResolveProbeWords(const std::uint64_t* words, std::size_t n,
                         const std::uint8_t* skip,
                         std::uint32_t* groups) const;

  // Group view: one entry per distinct key, in first-occurrence row order.
  std::size_t num_groups() const { return num_groups_; }
  std::span<const Value> group_key(std::size_t g) const {
    return {keys_.data() + g * width_, width_};
  }
  std::span<const std::uint32_t> group_rows(std::size_t g) const {
    return {rows_.data() + offsets_[g],
            static_cast<std::size_t>(offsets_[g + 1] - offsets_[g])};
  }
  // Packed key word of each group, parallel to the group order.
  std::span<const std::uint64_t> group_words() const { return group_words_; }

  // Cardinality of the largest group (0 for an empty table): the degree of
  // the indexed relation w.r.t. the key columns (Definition 6.1).
  std::size_t max_group_size() const { return max_group_size_; }

  // The miss filter over this index's distinct key hashes (diagnostics).
  const MissFilter& miss_filter() const { return filter_; }
  // Filter verdict for a packed probe word (tests construct deliberate
  // false positives with this).
  bool FilterMightContainWord(std::uint64_t word) const {
    return filter_.MightContain(HashWord(word));
  }

  // Test hook: masks kHashed words to the low `bits` bits (0 restores full
  // width) so word collisions between distinct keys become constructible.
  // The mask applies to hashed-word computation everywhere — index builds
  // AND probe-time packing — so set it before building any kHashed index
  // you will probe, and keep it unchanged until those indexes are dropped
  // (probing a full-width index with narrowed words misses). Not for
  // production use.
  static void SetHashedWordBitsForTesting(int bits);

 private:
  static std::uint64_t HashWord(std::uint64_t word);

  // Slot tag of a hash: the top byte with the high bit forced, so no
  // occupied slot's tag is 0 (the empty marker). Disjoint from the bits
  // driving the slot index (low) and the miss filter (20..45).
  static std::uint8_t TagOfHash(std::uint64_t hash) {
    return static_cast<std::uint8_t>(hash >> 56) | 0x80;
  }

  // The raw slot walk for a word whose hash is already known.
  std::uint32_t FindGroupWordHashed(std::uint64_t word,
                                    std::uint64_t hash) const {
    std::size_t h = static_cast<std::size_t>(hash) & mask_;
    const std::uint8_t tag = TagOfHash(hash);
    while (true) {
      const std::uint8_t t = tags_[h];
      if (t == 0) return kNoGroup;
      if (t == tag && slot_words_[h] == word) return slots_[h] - 1;
      h = (h + 1) & mask_;
    }
  }

  template <typename KeyAt>
  std::uint32_t FindGroupVerifyHashed(std::uint64_t word, std::uint64_t hash,
                                      KeyAt&& key_at) const {
    std::size_t h = static_cast<std::size_t>(hash) & mask_;
    const std::uint8_t tag = TagOfHash(hash);
    while (true) {
      const std::uint8_t t = tags_[h];
      if (t == 0) return kNoGroup;
      if (t == tag && slot_words_[h] == word) {
        const std::uint32_t g = slots_[h] - 1;
        const Value* stored = keys_.data() + g * width_;
        bool equal = true;
        for (std::size_t j = 0; j < width_; ++j) {
          if (stored[j] != key_at(j)) {
            equal = false;
            break;
          }
        }
        if (equal) return g;
      }
      h = (h + 1) & mask_;
    }
  }

  std::span<const std::uint32_t> group_rows_or_empty(std::uint32_t g) const {
    if (g == kNoGroup) return {};
    return group_rows(g);
  }

  // One probe block of ResolveWordsFused, with the filter decision and the
  // prefetch decision baked in at compile time (defined after the class).
  template <bool kUseFilter, bool kPrefetch, typename Emit>
  void ResolveBlockFused(const std::uint64_t* words, std::size_t begin,
                         std::size_t len, const std::uint64_t* hashes,
                         const std::uint8_t* might, const std::uint8_t* skip,
                         Emit&& emit, std::uint64_t* filter_hits,
                         std::uint64_t* filter_passes) const;

  // Inserts row `i` (packed word `word`, key values via `table` when a
  // fresh group must be gathered or a kHashed collision disambiguated)
  // into the slot arrays; returns the row's group id.
  std::uint32_t InsertRow(const Table& table, std::size_t i,
                          std::uint64_t word, std::vector<Value>* key_scratch,
                          std::vector<std::uint32_t>* counts);

  // The build: one streaming pass of fused pack+insert blocks. Leaves
  // group_of/counts describing a first-occurrence group numbering and
  // first_row holding each group's first row id (ascending), from which
  // the ctor bulk-gathers the key buffer for exact packings.
  void StreamingBuild(const Table& table, std::vector<std::uint32_t>* group_of,
                      std::vector<std::uint32_t>* counts,
                      std::vector<std::uint32_t>* first_row);
  std::vector<int> key_columns_;
  std::size_t width_ = 0;        // = key_columns_.size()
  KeyPacking packing_;
  std::size_t num_groups_ = 0;
  std::vector<Value> keys_;      // group g's key at [g*width_, (g+1)*width_)
  std::vector<std::uint64_t> group_words_;  // group g's packed word
  // Slot arrays, all `capacity` long (open addressing, linear probing).
  // Only the tag vector is zero-initialized: slot_words_/slots_ entries are
  // read strictly after their slot's tag is set, so those 12 of the 13
  // bytes per slot are allocated uninitialized (a measurable share of small
  // index builds is otherwise pure memset).
  std::vector<std::uint8_t> tags_;           // 0 empty, else TagOfHash
  std::unique_ptr<std::uint64_t[]> slot_words_;  // packed word in the slot
  std::unique_ptr<std::uint32_t[]> slots_;       // group id + 1
  std::size_t mask_ = 0;
  std::vector<std::uint32_t> offsets_;  // CSR: group g rows at
  std::vector<std::uint32_t> rows_;     //   rows_[offsets_[g]..offsets_[g+1])
  std::size_t max_group_size_ = 0;
  MissFilter filter_;
};

namespace probe_internal {

inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}

}  // namespace probe_internal

template <bool kUseFilter, bool kPrefetch, typename Emit>
void TableIndex::ResolveBlockFused(const std::uint64_t* words,
                                   std::size_t begin, std::size_t len,
                                   const std::uint64_t* hashes,
                                   const std::uint8_t* might,
                                   const std::uint8_t* skip, Emit&& emit,
                                   std::uint64_t* filter_hits,
                                   std::uint64_t* filter_passes) const {
  // Slot-line prefetch distance: far enough that a line is (mostly) in
  // flight by the time its row walks, near enough not to be evicted.
  constexpr std::size_t kAhead = 8;
  for (std::size_t i = 0; i < len; ++i) {
    if constexpr (kPrefetch) {
      if (i + kAhead < len) {
        const std::size_t j = i + kAhead;
        if ((!kUseFilter || might[j]) &&
            (skip == nullptr || skip[begin + j] == 0)) {
          const std::size_t h = static_cast<std::size_t>(hashes[j]) & mask_;
          probe_internal::PrefetchRead(tags_.data() + h);
          probe_internal::PrefetchRead(slot_words_.get() + h);
        }
      }
    }
    if (skip != nullptr && skip[begin + i] != 0) continue;
    if constexpr (kUseFilter) {
      if (!might[i]) {
        emit(begin + i, kNoGroup);
        ++*filter_hits;
        continue;
      }
      ++*filter_passes;
    }
    emit(begin + i, FindGroupWordHashed(words[begin + i], hashes[i]));
  }
}

template <typename Emit>
void TableIndex::ResolveWordsFused(const std::uint64_t* words, std::size_t n,
                                   const std::uint8_t* skip,
                                   Emit&& emit) const {
  SHARPCQ_DCHECK(packing_.exact());
  bool use_filter = MissFiltersEnabled();
  // Prefetching pays only when a slot line can actually miss cache; for an
  // L2-resident index the two prefetch instructions per row are dead cost.
  const bool prefetch =
      (mask_ + 1) * (sizeof(std::uint8_t) + sizeof(std::uint64_t) +
                     sizeof(std::uint32_t)) >
      L2CacheBytes();
  std::uint64_t hashes[kProbeBlockRows];
  std::uint8_t might[kProbeBlockRows];
  std::uint64_t filter_hits = 0;
  std::uint64_t filter_passes = 0;
  for (std::size_t begin = 0; begin < n; begin += kProbeBlockRows) {
    const std::size_t len =
        begin + kProbeBlockRows < n ? kProbeBlockRows : n - begin;
    HashWordsBatch(words + begin, len, hashes);
    if (use_filter) {
      // The batched (software-prefetched) verdicts settle every row's
      // might-contain bit before the resolve loop branches on them, so the
      // random filter loads overlap instead of stalling the loop in turn.
      filter_.MightContainBatch(hashes, len, might);
      ResolveBlockFused<true, true>(words, begin, len, hashes, might, skip,
                                    emit, &filter_hits, &filter_passes);
      // Adaptive bypass: a filter absorbs ~10ns of slot walk per definite
      // miss and costs ~1-2ns per consulted row, so it stops paying below
      // a ~20% miss rate. Once the consulted rows prove this probe
      // hit-heavy, later blocks run the unfiltered loop (the first block
      // always consults, so miss-heavy probes keep full protection).
      if (filter_hits * 4 < filter_hits + filter_passes) use_filter = false;
    } else if (prefetch) {
      ResolveBlockFused<false, true>(words, begin, len, hashes, nullptr, skip,
                                     emit, &filter_hits, &filter_passes);
    } else {
      ResolveBlockFused<false, false>(words, begin, len, hashes, nullptr,
                                      skip, emit, &filter_hits,
                                      &filter_passes);
    }
  }
  if (filter_hits != 0 || filter_passes != 0) {
    AddProbeFilterTallies(filter_hits, filter_passes);
  }
}

// Packs rows [begin, end) of `probe` over `cols` into words comparable with
// `packing` (the build side's), writing to out[0..end-begin). Column-major:
// each key column is streamed once, so the probe loops touch contiguous
// memory instead of gathering a Value vector per row; the kDense digit
// accumulation runs through the dispatched SIMD primitive. Dense keys
// outside the packed box come back poisoned and match nothing.
void PackProbeWords(const KeyPacking& packing, const Table& probe,
                    std::span<const int> cols, std::size_t begin,
                    std::size_t end, std::uint64_t* out);

// Immutable columnar tuple storage: each column is one contiguous buffer.
// Tables are created through TableBuilder (or the Gather helpers) and
// published as shared_ptr<const Table>; after publication nothing mutates
// the tuple data, which is what makes the lazy index cache safe to share
// across threads (see DESIGN.md, "Concurrency model").
//
// A table either owns its column buffers (TableBuilder/Gather) or aliases
// external memory kept alive by an arena handle (FromExternal) — the
// storage layer maps snapshot files and serves their column segments as
// tables without copying (see storage/snapshot.h). Readers cannot tell the
// difference: both forms are accessed through the same column views.
//
// Invariant: every published Table is a *set* of rows (no duplicates).
// TableBuilder::Build establishes it (hash dedup) and every kernel operator
// in algebra/rel.h preserves it; Join relies on it to skip output dedup.
// FromExternal trusts the caller (the snapshot writer canonicalizes rows
// before they ever reach a file).
class Table {
 public:
  std::size_t rows() const { return rows_; }
  int arity() const { return static_cast<int>(cols_.size()); }
  bool empty() const { return rows_ == 0; }

  std::span<const Value> Column(int c) const {
    return cols_[static_cast<std::size_t>(c)];
  }
  Value at(std::size_t row, int col) const {
    return cols_[static_cast<std::size_t>(col)][row];
  }

  // The hash index over `key_columns`, built on first use and cached for
  // the lifetime of the table. Thread-safe: the cache map is guarded by a
  // per-table mutex held only for lookup/insert (never during a build),
  // and the returned index is immutable and keeps itself alive through the
  // shared_ptr even if the table is dropped concurrently.
  std::shared_ptr<const TableIndex> IndexOn(std::vector<int> key_columns) const;

  // Membership of a full-width tuple, via the all-columns cached index.
  bool ContainsRow(std::span<const Value> row) const;

  // Per-column statistics (algebra/stats.h), computed on first use —
  // streamed off the single-column cached indexes — and cached for the
  // lifetime of the table under the same mutex discipline as IndexOn: the
  // lock is held only for lookup/insert, never during the computation, so
  // concurrent first calls both compute and the first insert wins.
  std::shared_ptr<const TableStats> Stats() const;
  // The cached stats if present (computed or installed), else nullptr.
  // Never computes — cheap enough for per-decision cost-model consults.
  std::shared_ptr<const TableStats> StatsIfPresent() const;
  // Primes the stats cache without a computation pass (the snapshot loader
  // installs persisted stats; the atom bridge installs permuted ones).
  // No-op when stats are already cached — first install wins.
  void InstallStats(std::shared_ptr<const TableStats> stats) const;

  // Number of indexes currently cached (diagnostics and tests); for a
  // PermutedAlias, its base's.
  std::size_t CachedIndexCount() const;

  // The empty table of the given arity.
  static std::shared_ptr<const Table> Empty(int arity);

  // New table holding the given rows of `src`, in order. Row ids must be
  // valid; duplicates in `row_ids` would break the set invariant, so pass
  // distinct ids (the kernel's selections always do).
  static std::shared_ptr<const Table> Gather(
      const Table& src, std::span<const std::uint32_t> row_ids);

  // Adopts fully-built column buffers (all of length `rows`) without a
  // copy. The rows must already form a set — callers are kernel operators
  // whose outputs are distinct by construction (Join of two sets).
  static std::shared_ptr<const Table> FromColumns(
      std::vector<std::vector<Value>> cols, std::size_t rows);

  // External-arena construction: the table's columns alias caller-provided
  // memory that `arena` keeps alive (a mapped snapshot, or another table
  // whose columns are being re-ordered). Every span must hold exactly
  // `rows` values, and the rows must already form a set — the snapshot
  // writer guarantees both for mapped segments.
  static std::shared_ptr<const Table> FromExternal(
      std::vector<std::span<const Value>> cols, std::size_t rows,
      std::shared_ptr<const void> arena);

  // The table whose column c is base's column columns[c], zero-copy. The
  // returned pointer shares ownership of base and carries base's cached
  // stats, permuted. For a base of at least kDefaultMorselRows rows the
  // alias is made on first use and cached for base's lifetime, and its
  // indexes are base's: IndexOn maps the key columns through `columns` and
  // asks base, so they stay cached across queries like base's own and
  // every permutation shares one set. A smaller base gets a fresh alias
  // with its own indexes on every call. Thread-safe under the same mutex
  // discipline as IndexOn.
  static std::shared_ptr<const Table> PermutedAlias(
      const std::shared_ptr<const Table>& base, std::vector<int> columns);

  // True when the column buffers alias external memory (diagnostics).
  bool is_external() const { return arena_ != nullptr; }

  std::string DebugString() const;

 private:
  friend class TableBuilder;
  Table(std::vector<std::vector<Value>> cols, std::size_t rows)
      : owned_(std::move(cols)), rows_(rows) {
    cols_.reserve(owned_.size());
    for (const auto& col : owned_) cols_.emplace_back(col.data(), rows_);
  }
  Table(std::vector<std::span<const Value>> views, std::size_t rows,
        std::shared_ptr<const void> arena)
      : cols_(std::move(views)), rows_(rows), arena_(std::move(arena)) {}

  std::vector<std::vector<Value>> owned_;     // empty for external tables
  std::vector<std::span<const Value>> cols_;  // views into owned_ or arena
  std::size_t rows_;  // tracked separately so arity-0 tables can hold a row
  std::shared_ptr<const void> arena_;  // keeps external storage alive

  mutable std::mutex cache_mu_;
  mutable std::map<std::vector<int>, std::shared_ptr<const TableIndex>>
      index_cache_;
  mutable std::shared_ptr<const TableStats> stats_;  // guarded by cache_mu_
  // PermutedAlias's cache, guarded by cache_mu_. An alias holds only a raw
  // pointer back to this table, which owns it, so there is no cycle.
  mutable std::map<std::vector<int>, std::unique_ptr<const Table>>
      alias_cache_;
  // Set on a PermutedAlias: the table that owns it and holds its indexes,
  // and the base column of each of its columns.
  const Table* base_ = nullptr;
  std::vector<int> base_columns_;
};

namespace probe_internal {

// Statically-known "skip nothing" predicate: lets the unified driver elide
// the skip mask entirely for plain ForEachProbeGroup calls.
struct NeverSkip {
  bool operator()(std::size_t) const { return false; }
};

// Per-thread reusable probe buffers. Fixpoint passes call the probe driver
// thousands of times with transient word/group arrays big enough that a
// fresh vector each call means an mmap round trip and page faults from the
// allocator; reusing one high-water-mark buffer per thread removes that
// from the hot path. Acquire returns nullptr when the thread's scratch is
// already in use (a probe issued from inside a probe callback) — callers
// then fall back to plain locals.
struct ProbeScratch {
  std::vector<std::uint64_t> words;
  std::vector<std::uint8_t> skip_mask;
  bool in_use = false;
};
ProbeScratch* AcquireProbeScratch();
void ReleaseProbeScratch(ProbeScratch* scratch);

// RAII over Acquire/Release; exposes locals as the fallback store.
class ProbeScratchLease {
 public:
  ProbeScratchLease() : scratch_(AcquireProbeScratch()) {}
  ~ProbeScratchLease() {
    if (scratch_ != nullptr) ReleaseProbeScratch(scratch_);
  }
  ProbeScratchLease(const ProbeScratchLease&) = delete;
  ProbeScratchLease& operator=(const ProbeScratchLease&) = delete;

  ProbeScratch& get() { return scratch_ != nullptr ? *scratch_ : local_; }

 private:
  ProbeScratch* scratch_;
  ProbeScratch local_;
};

}  // namespace probe_internal

// The one probe driver: calls fn(row, group) for every non-skipped probe
// row in [begin, end), where group is the id of the index group matching
// the row's key columns, or TableIndex::kNoGroup. Packs the range's probe
// words once (column-major, SIMD-dispatched), then:
//
//   - exact packings resolve through TableIndex::ResolveProbeWords — the
//     batched hash + miss-filter + prefetched tag/word compare block
//     kernel;
//   - kHashed packings probe row-at-a-time through the filter-fronted
//     collision-checked walk (values must be re-verified, so there is no
//     batch form).
//
// Rows where skip(row) is true are neither filtered, probed, nor reported;
// their words are still packed (packing is bulk and branch-free). Safe to
// call concurrently from morsel workers over disjoint ranges — the index
// is immutable and scratch is per-thread (reused across calls; see
// ProbeScratch).
template <typename Skip, typename Fn>
void ForEachProbeGroupImpl(const TableIndex& index, const Table& probe,
                           std::span<const int> cols, std::size_t begin,
                           std::size_t end, Skip&& skip, Fn&& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  probe_internal::ProbeScratchLease lease;
  probe_internal::ProbeScratch& scratch = lease.get();
  std::vector<std::uint64_t>& words = scratch.words;
  if (words.size() < n) words.resize(n);
  PackProbeWords(index.packing(), probe, cols, begin, end, words.data());

  constexpr bool kNeverSkips =
      std::is_same_v<std::remove_cvref_t<Skip>, probe_internal::NeverSkip>;

  if (index.packing().exact()) {
    std::vector<std::uint8_t>& skip_mask = scratch.skip_mask;
    const std::uint8_t* skip_ptr = nullptr;
    if constexpr (!kNeverSkips) {
      if (skip_mask.size() < n) skip_mask.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        skip_mask[i] = skip(begin + i) ? 1 : 0;
      }
      skip_ptr = skip_mask.data();
    }
    index.ResolveWordsFused(words.data(), n, skip_ptr,
                            [&](std::size_t i, std::uint32_t group) {
                              fn(begin + i, group);
                            });
    return;
  }

  const bool use_filter = MissFiltersEnabled();
  std::uint64_t filter_hits = 0;
  std::uint64_t probed = 0;
  for (std::size_t i = begin; i < end; ++i) {
    if constexpr (!kNeverSkips) {
      if (skip(i)) continue;
    }
    ++probed;
    fn(i, index.FindGroupVerifyFiltered(
              words[i - begin], use_filter, &filter_hits,
              [&](std::size_t j) { return probe.at(i, cols[j]); }));
  }
  if (use_filter) AddProbeFilterTallies(filter_hits, probed - filter_hits);
}

template <typename Fn>
void ForEachProbeGroup(const TableIndex& index, const Table& probe,
                       std::span<const int> cols, std::size_t begin,
                       std::size_t end, Fn&& fn) {
  ForEachProbeGroupImpl(index, probe, cols, begin, end,
                        probe_internal::NeverSkip{}, static_cast<Fn&&>(fn));
}

// Variant with a skip predicate: rows where skip(row) is true are neither
// probed nor reported, saving the filter consult and slot walk (the
// cache-missing part of a probe) when a caller can rule rows out cheaply
// (e.g. CountFullJoin's zero-weight rows).
template <typename Skip, typename Fn>
void ForEachProbeGroupUnless(const TableIndex& index, const Table& probe,
                             std::span<const int> cols, std::size_t begin,
                             std::size_t end, Skip&& skip, Fn&& fn) {
  ForEachProbeGroupImpl(index, probe, cols, begin, end,
                        static_cast<Skip&&>(skip), static_cast<Fn&&>(fn));
}

// Mutable row accumulator; Build() dedups and publishes the immutable Table.
class TableBuilder {
 public:
  explicit TableBuilder(int arity) : cols_(static_cast<std::size_t>(arity)) {
    SHARPCQ_CHECK(arity >= 0);
  }

  int arity() const { return static_cast<int>(cols_.size()); }
  std::size_t rows() const { return rows_; }

  // Capacity hint from a known input row count: reserves every column
  // buffer, and Build sizes its dedup hash — the slot vector AND its
  // 1-byte tag vector — from the hint up front instead of from however
  // many rows actually arrived. One allocation each, no regrow/rehash
  // churn on ingest.
  void ReserveRows(std::size_t n) {
    if (n > reserved_rows_) {
      // Budget charge at reservation granularity: the column buffers this
      // hint commits to, net of any earlier reservation.
      ChargeExecMemory(static_cast<std::uint64_t>(n - reserved_rows_) *
                       cols_.size() * sizeof(Value));
      reserved_rows_ = n;
    }
    for (auto& col : cols_) col.reserve(n);
  }

  void AddRow(std::span<const Value> row) {
    SHARPCQ_DCHECK(row.size() == cols_.size());
    for (std::size_t c = 0; c < cols_.size(); ++c) cols_[c].push_back(row[c]);
    ++rows_;
  }

  // Publishes the accumulated rows as an immutable, deduplicated table.
  // `known_distinct` skips the dedup pass when the caller can prove the
  // rows are already a set (e.g. a join of two sets).
  std::shared_ptr<const Table> Build(bool known_distinct = false) &&;

 private:
  std::vector<std::vector<Value>> cols_;
  std::size_t rows_ = 0;
  std::size_t reserved_rows_ = 0;
};

}  // namespace sharpcq

#endif  // SHARPCQ_ALGEBRA_TABLE_H_
