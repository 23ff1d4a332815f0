#include "algebra/table.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <numeric>

#include "algebra/stats.h"
#include "util/failpoint.h"
#include "util/hash.h"
#include "util/metrics.h"

namespace sharpcq {

namespace {

std::size_t SlotCapacityFor(std::size_t rows) {
  std::size_t capacity = 16;
  while (capacity < rows * 2 + 2) capacity <<= 1;
  return capacity;
}

// Test-only narrowing of kHashed words (see SetHashedWordBitsForTesting).
std::atomic<int> hashed_word_bits{0};

std::uint64_t HashedWordOf(std::span<const Value> key) {
  std::uint64_t word = 0x9e3779b97f4a7c15ULL;
  for (Value v : key) {
    word = HashMix(word ^ static_cast<std::uint64_t>(v));
  }
  int bits = hashed_word_bits.load(std::memory_order_relaxed);
  if (bits > 0 && bits < 64) word &= (std::uint64_t{1} << bits) - 1;
  return word;
}

// Chooses the packing for `key_columns` of `table`: single-column keys pass
// the value through; multi-column keys bit-pack when the per-column ranges
// fit 62 bits (leaving the poison bit and one headroom bit untouched), and
// fall back to the collision-checked hash word otherwise.
KeyPacking ChoosePacking(const Table& table,
                         const std::vector<int>& key_columns) {
  KeyPacking packing;
  if (key_columns.size() <= 1) {
    packing.mode = KeyPacking::Mode::kSingle;
    return packing;
  }
  if (table.rows() == 0) {
    // No rows: every probe misses; the trivial dense packing (all ranges 0)
    // is exact and never matches anything in-range but absent.
    packing.mode = KeyPacking::Mode::kDense;
    packing.base.assign(key_columns.size(), 0);
    packing.range.assign(key_columns.size(), 0);
    packing.shift.assign(key_columns.size(), 0);
    return packing;
  }
  packing.base.reserve(key_columns.size());
  packing.range.reserve(key_columns.size());
  packing.shift.reserve(key_columns.size());
  int total_bits = 0;
  for (int c : key_columns) {
    std::span<const Value> col = table.Column(c);
    Value lo = col[0];
    Value hi = col[0];
    for (Value v : col) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    // Unsigned distance: correct for any int64 pair (two's complement).
    std::uint64_t range =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    packing.base.push_back(static_cast<std::uint64_t>(lo));
    packing.range.push_back(range);
    packing.shift.push_back(total_bits);
    total_bits += std::bit_width(range);
    if (total_bits > 62) {
      packing.mode = KeyPacking::Mode::kHashed;
      packing.base.clear();
      packing.range.clear();
      packing.shift.clear();
      return packing;
    }
  }
  packing.mode = KeyPacking::Mode::kDense;
  return packing;
}

}  // namespace

namespace probe_internal {

namespace {
// One scratch set per thread; the in_use flag hands nested probes (a probe
// issued from inside a probe callback) a nullptr so they fall back to
// plain locals instead of clobbering the outer call's buffers.
thread_local ProbeScratch tls_probe_scratch;
}  // namespace

ProbeScratch* AcquireProbeScratch() {
  ProbeScratch& scratch = tls_probe_scratch;
  if (scratch.in_use) return nullptr;
  scratch.in_use = true;
  return &scratch;
}

void ReleaseProbeScratch(ProbeScratch* scratch) { scratch->in_use = false; }

}  // namespace probe_internal

std::uint64_t KeyPacking::Pack(std::span<const Value> key) const {
  switch (mode) {
    case Mode::kSingle:
      return key.empty() ? 0 : static_cast<std::uint64_t>(key[0]);
    case Mode::kDense: {
      std::uint64_t word = 0;
      for (std::size_t j = 0; j < key.size(); ++j) {
        std::uint64_t diff =
            static_cast<std::uint64_t>(key[j]) - base[j];
        if (diff > range[j]) return kPoison;  // outside the packed box
        word |= diff << shift[j];
      }
      return word;
    }
    case Mode::kHashed:
      return HashedWordOf(key);
  }
  return 0;
}

void TableIndex::SetHashedWordBitsForTesting(int bits) {
  hashed_word_bits.store(bits, std::memory_order_relaxed);
}

std::uint64_t TableIndex::HashWord(std::uint64_t word) {
  return HashMix(word);
}

TableIndex::TableIndex(const Table& table, std::vector<int> key_columns)
    : key_columns_(std::move(key_columns)), width_(key_columns_.size()) {
  for (int c : key_columns_) SHARPCQ_CHECK(c >= 0 && c < table.arity());
  packing_ = ChoosePacking(table, key_columns_);
  const std::size_t n = table.rows();
  const std::size_t capacity = SlotCapacityFor(n);
  // One budget charge covering the slot arrays (13 bytes/slot), the CSR,
  // and the group buffers, made before anything is allocated so an
  // over-budget build fails empty-handed. The failpoint doubles as the
  // allocation-failure path for tests.
  const std::uint64_t index_bytes =
      static_cast<std::uint64_t>(capacity) * 13 +
      static_cast<std::uint64_t>(n) * (8 * width_ + 24);
  if (SHARPCQ_FAILPOINT("index.build") != FailpointAction::kNone) {
    throw ExecResourceExhausted{index_bytes};
  }
  ChargeExecMemory(index_bytes);
  tags_.assign(capacity, 0);
  slot_words_ = std::make_unique_for_overwrite<std::uint64_t[]>(capacity);
  slots_ = std::make_unique_for_overwrite<std::uint32_t[]>(capacity);
  mask_ = capacity - 1;

  // Pre-size every growable buffer from the row count (the distinct-key
  // upper bound) so the build performs no regrow churn: one pass over the
  // rows, each appending into already-reserved storage.
  keys_.reserve(n * width_);
  group_words_.reserve(n);
  std::vector<std::uint32_t> group_of(n);
  std::vector<std::uint32_t> counts;
  counts.reserve(n);
  std::vector<std::uint32_t> first_row;
  first_row.reserve(n);

  if (n > 0) StreamingBuild(table, &group_of, &counts, &first_row);

  // Exact packings never compare key values during the build, so the flat
  // key buffer is gathered here in one pass, after the group numbering is
  // final: first_row is ascending in group order, so the row accesses
  // stream forward through the columns instead of jumping per insert.
  // (kHashed builds gathered keys inline — collision checks need them.)
  if (packing_.exact()) {
    keys_.resize(num_groups_ * width_);
    for (std::size_t g = 0; g < num_groups_; ++g) {
      for (std::size_t j = 0; j < width_; ++j) {
        keys_[g * width_ + j] = table.at(first_row[g], key_columns_[j]);
      }
    }
  }

  // CSR layout: prefix-sum the counts, then scatter row ids.
  offsets_.assign(num_groups_ + 1, 0);
  for (std::size_t g = 0; g < num_groups_; ++g) {
    offsets_[g + 1] = offsets_[g] + counts[g];
  }
  rows_.resize(n);
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    rows_[cursor[group_of[i]]++] = static_cast<std::uint32_t>(i);
  }

  filter_ = MissFilter::Build(group_words_);
}

std::uint32_t TableIndex::InsertRow(const Table& table, std::size_t i,
                                    std::uint64_t word,
                                    std::vector<Value>* key_scratch,
                                    std::vector<std::uint32_t>* counts) {
  const bool exact = packing_.exact();
  Value* key = key_scratch->data();
  if (!exact) {
    // kHashed: a word collision between distinct keys must be resolved by
    // value, so the row's key is gathered up front.
    for (std::size_t j = 0; j < width_; ++j) {
      key[j] = table.at(i, key_columns_[j]);
    }
  }
  const std::uint64_t hash = HashWord(word);
  std::size_t h = static_cast<std::size_t>(hash) & mask_;
  const std::uint8_t tag = TagOfHash(hash);
  while (true) {
    const std::uint8_t t = tags_[h];
    if (t == 0) {
      // Fresh group. Exact packings defer the key gather to the ctor's
      // bulk fill — the build loop never touches the table's columns, so
      // repeated keys (the dictionary-dense common case) cost one tag+word
      // compare and nothing else.
      if (!exact) keys_.insert(keys_.end(), key, key + width_);
      group_words_.push_back(word);
      counts->push_back(0);
      tags_[h] = tag;
      slot_words_[h] = word;
      slots_[h] = static_cast<std::uint32_t>(++num_groups_);
      return static_cast<std::uint32_t>(num_groups_) - 1;
    }
    if (t == tag && slot_words_[h] == word) {
      const std::uint32_t g = slots_[h] - 1;
      if (exact) return g;
      const Value* stored = keys_.data() + g * width_;
      if (std::equal(key, key + width_, stored)) return g;
    }
    h = (h + 1) & mask_;
  }
}

void TableIndex::StreamingBuild(const Table& table,
                                std::vector<std::uint32_t>* group_of,
                                std::vector<std::uint32_t>* counts,
                                std::vector<std::uint32_t>* first_row) {
  // Fused single pass in probe-block units: pack a block of key words
  // (column-major, SIMD-dispatched), then insert its rows, so the words
  // never round-trip through an n-sized buffer.
  const std::size_t n = table.rows();
  const std::span<const int> cols(key_columns_.data(), width_);
  std::vector<Value> key(width_);
  std::uint64_t words[kProbeBlockRows];
  for (std::size_t begin = 0; begin < n; begin += kProbeBlockRows) {
    const std::size_t end =
        begin + kProbeBlockRows < n ? begin + kProbeBlockRows : n;
    PackProbeWords(packing_, table, cols, begin, end, words);
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t groups_before = num_groups_;
      const std::uint32_t g =
          InsertRow(table, i, words[i - begin], &key, counts);
      if (num_groups_ > groups_before) {
        first_row->push_back(static_cast<std::uint32_t>(i));
      }
      (*group_of)[i] = g;
      max_group_size_ = std::max(max_group_size_,
                                 static_cast<std::size_t>(++(*counts)[g]));
    }
  }
}

std::uint32_t TableIndex::FindGroupWord(std::uint64_t word) const {
  return FindGroupWordHashed(word, HashWord(word));
}

void TableIndex::ResolveProbeWords(const std::uint64_t* words, std::size_t n,
                                   const std::uint8_t* skip,
                                   std::uint32_t* groups) const {
  if (skip != nullptr) {
    // Skipped rows are never emitted; give them their kNoGroup up front.
    for (std::size_t i = 0; i < n; ++i) {
      if (skip[i] != 0) groups[i] = kNoGroup;
    }
  }
  ResolveWordsFused(words, n, skip,
                    [groups](std::size_t i, std::uint32_t g) {
                      groups[i] = g;
                    });
}

std::span<const std::uint32_t> TableIndex::Lookup(
    std::span<const Value> key) const {
  SHARPCQ_DCHECK(key.size() == width_);
  const std::uint64_t word = packing_.Pack(key);
  if (packing_.exact()) return group_rows_or_empty(FindGroupWord(word));
  return group_rows_or_empty(
      FindGroupVerify(word, [&key](std::size_t j) { return key[j]; }));
}

void PackProbeWords(const KeyPacking& packing, const Table& probe,
                    std::span<const int> cols, std::size_t begin,
                    std::size_t end, std::uint64_t* out) {
  const std::size_t n = end - begin;
  switch (packing.mode) {
    case KeyPacking::Mode::kSingle: {
      if (cols.empty()) {
        std::fill(out, out + n, std::uint64_t{0});
        return;
      }
      std::span<const Value> col = probe.Column(cols[0]);
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = static_cast<std::uint64_t>(col[begin + i]);
      }
      return;
    }
    case KeyPacking::Mode::kDense: {
      // Each column contributes its digit through the dispatched SIMD
      // primitive: out-of-range probes poison the word (bit 63); in-range
      // digits only ever touch bits < 62, so a poisoned word stays >= 2^63
      // and can never equal a stored word.
      std::fill(out, out + n, std::uint64_t{0});
      for (std::size_t j = 0; j < cols.size(); ++j) {
        std::span<const Value> col = probe.Column(cols[j]);
        PackDenseDigits(col.data() + begin, n, packing.base[j],
                        packing.range[j], packing.shift[j], out);
      }
      return;
    }
    case KeyPacking::Mode::kHashed: {
      std::fill(out, out + n, 0x9e3779b97f4a7c15ULL);
      for (std::size_t j = 0; j < cols.size(); ++j) {
        std::span<const Value> col = probe.Column(cols[j]);
        for (std::size_t i = 0; i < n; ++i) {
          out[i] = HashMix(out[i] ^ static_cast<std::uint64_t>(col[begin + i]));
        }
      }
      int bits = hashed_word_bits.load(std::memory_order_relaxed);
      if (bits > 0 && bits < 64) {
        const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
        for (std::size_t i = 0; i < n; ++i) out[i] &= mask;
      }
      return;
    }
  }
}

std::shared_ptr<const TableIndex> Table::IndexOn(
    std::vector<int> key_columns) const {
  if (base_ != nullptr) {
    // Same rows in the same order, so base's index on the mapped columns
    // is this table's index on key_columns.
    for (int& c : key_columns) {
      SHARPCQ_CHECK(c >= 0 && c < arity());
      c = base_columns_[static_cast<std::size_t>(c)];
    }
    return base_->IndexOn(std::move(key_columns));
  }
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = index_cache_.find(key_columns);
    if (it != index_cache_.end()) return it->second;
  }
  // Build outside the lock so an O(n) build never blocks cache hits on
  // other key sets. Two threads missing on the same key both build; the
  // double-checked insert keeps the first and the loser adopts it.
  static Counter& builds_metric =
      MetricsRegistry::Instance().GetCounter("sharpcq_index_builds_total");
  builds_metric.Add(1);
  auto index = std::make_shared<const TableIndex>(*this, key_columns);
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto [it, inserted] =
      index_cache_.emplace(std::move(key_columns), std::move(index));
  return it->second;
}

bool Table::ContainsRow(std::span<const Value> row) const {
  SHARPCQ_CHECK(static_cast<int>(row.size()) == arity());
  if (arity() == 0) return rows_ > 0;
  std::vector<int> all(cols_.size());
  for (std::size_t c = 0; c < all.size(); ++c) all[c] = static_cast<int>(c);
  return !IndexOn(std::move(all))->Lookup(row).empty();
}

std::size_t Table::CachedIndexCount() const {
  if (base_ != nullptr) return base_->CachedIndexCount();
  std::lock_guard<std::mutex> lock(cache_mu_);
  return index_cache_.size();
}

std::shared_ptr<const TableStats> Table::Stats() const {
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (stats_ != nullptr) return stats_;
  }
  // Compute outside the lock (the streaming pass goes through IndexOn,
  // which takes cache_mu_ itself). Concurrent first calls both compute
  // equal stats; the first insert wins and the loser adopts it.
  auto computed = std::make_shared<const TableStats>(ComputeTableStats(*this));
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (stats_ == nullptr) stats_ = std::move(computed);
  return stats_;
}

std::shared_ptr<const TableStats> Table::StatsIfPresent() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return stats_;
}

void Table::InstallStats(std::shared_ptr<const TableStats> stats) const {
  if (stats == nullptr) return;
  SHARPCQ_CHECK(stats->rows == rows_ &&
                stats->columns.size() == cols_.size());
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (stats_ == nullptr) stats_ = std::move(stats);
}

std::shared_ptr<const Table> Table::Empty(int arity) {
  SHARPCQ_CHECK(arity >= 0);
  return std::shared_ptr<const Table>(new Table(
      std::vector<std::vector<Value>>(static_cast<std::size_t>(arity)), 0));
}

std::shared_ptr<const Table> Table::FromExternal(
    std::vector<std::span<const Value>> cols, std::size_t rows,
    std::shared_ptr<const void> arena) {
  for (const auto& col : cols) SHARPCQ_CHECK(col.size() == rows);
  return std::shared_ptr<const Table>(
      new Table(std::move(cols), rows, std::move(arena)));
}

std::shared_ptr<const Table> Table::PermutedAlias(
    const std::shared_ptr<const Table>& base, std::vector<int> columns) {
  SHARPCQ_CHECK(base != nullptr);
  std::vector<std::span<const Value>> cols;
  cols.reserve(columns.size());
  for (int c : columns) cols.push_back(base->Column(c));
  // A table under one morsel of rows rebuilds an index in microseconds,
  // while keeping every permutation's indexes for its lifetime costs
  // memory (~10% of peak RSS over small relations queried in random
  // column orders). So a small base gets a fresh alias per call, which
  // keeps base alive through its arena and frees its indexes with it.
  std::shared_ptr<const Table> fresh;
  const Table* alias = nullptr;
  if (base->rows_ < kDefaultMorselRows) {
    fresh.reset(new Table(std::move(cols), base->rows_, base));
    alias = fresh.get();
  } else {
    {
      std::lock_guard<std::mutex> lock(base->cache_mu_);
      auto it = base->alias_cache_.find(columns);
      if (it != base->alias_cache_.end()) alias = it->second.get();
    }
    if (alias == nullptr) {
      // Same arena as base: is_external() reports where the bytes live.
      std::unique_ptr<Table> made(
          new Table(std::move(cols), base->rows_, base->arena_));
      made->base_ = base.get();
      made->base_columns_ = columns;
      std::lock_guard<std::mutex> lock(base->cache_mu_);
      auto [it, inserted] =
          base->alias_cache_.emplace(columns, std::move(made));
      alias = it->second.get();
    }
  }
  // Stats computed on base after the alias was made still carry over.
  if (alias->StatsIfPresent() == nullptr) {
    if (std::shared_ptr<const TableStats> stats = base->StatsIfPresent()) {
      alias->InstallStats(PermuteStats(*stats, columns));
    }
  }
  if (fresh != nullptr) return fresh;
  return std::shared_ptr<const Table>(base, alias);
}

std::shared_ptr<const Table> Table::FromColumns(
    std::vector<std::vector<Value>> cols, std::size_t rows) {
  for (const auto& col : cols) SHARPCQ_CHECK(col.size() == rows);
  return std::shared_ptr<const Table>(new Table(std::move(cols), rows));
}

std::shared_ptr<const Table> Table::Gather(
    const Table& src, std::span<const std::uint32_t> row_ids) {
  ChargeExecMemory(static_cast<std::uint64_t>(row_ids.size()) *
                   static_cast<std::uint64_t>(src.arity()) * sizeof(Value));
  std::vector<std::vector<Value>> cols(
      static_cast<std::size_t>(src.arity()));
  for (std::size_t c = 0; c < cols.size(); ++c) {
    std::span<const Value> in = src.Column(static_cast<int>(c));
    std::vector<Value>& out = cols[c];
    out.reserve(row_ids.size());
    for (std::uint32_t id : row_ids) out.push_back(in[id]);
  }
  return std::shared_ptr<const Table>(
      new Table(std::move(cols), row_ids.size()));
}

std::string Table::DebugString() const {
  std::string out = "{";
  for (std::size_t i = 0; i < rows_; ++i) {
    if (i > 0) out += ", ";
    out += "(";
    for (std::size_t c = 0; c < cols_.size(); ++c) {
      if (c > 0) out += ",";
      out += std::to_string(cols_[c][i]);
    }
    out += ")";
  }
  out += "}";
  return out;
}

std::shared_ptr<const Table> TableBuilder::Build(bool known_distinct) && {
  if (cols_.empty()) {
    // Arity 0: a set holds at most the empty row.
    std::size_t n = known_distinct ? rows_ : (rows_ > 0 ? 1 : 0);
    return std::shared_ptr<const Table>(new Table({}, n));
  }
  if (known_distinct || rows_ <= 1) {
    return std::shared_ptr<const Table>(
        new Table(std::move(cols_), rows_));
  }
  // Hash dedup keeping first occurrences in order, comparing rows in place
  // (no keys are materialized): open addressing over row ids, fronted by a
  // 1-byte tag vector so only tag-matching slots pay the column-wise row
  // compare. Both arrays are sized from the reservation hint when one was
  // given, so a builder that reserved its input size up front allocates
  // the hash exactly once.
  const std::size_t capacity =
      SlotCapacityFor(std::max(rows_, reserved_rows_));
  const std::size_t mask = capacity - 1;
  ChargeExecMemory(static_cast<std::uint64_t>(capacity) * 5 +
                   static_cast<std::uint64_t>(rows_) * 4);
  std::vector<std::uint8_t> tags(capacity, 0);
  std::vector<std::uint32_t> slots(capacity, 0);
  std::vector<std::uint32_t> keep;
  keep.reserve(rows_);
  const std::size_t width = cols_.size();
  for (std::size_t i = 0; i < rows_; ++i) {
    std::uint64_t full = 0x9e3779b97f4a7c15ULL;
    for (std::size_t c = 0; c < width; ++c) {
      full = HashMix(full ^ static_cast<std::uint64_t>(cols_[c][i]));
    }
    std::size_t h = static_cast<std::size_t>(full) & mask;
    const std::uint8_t tag = static_cast<std::uint8_t>(full >> 56) | 0x80;
    bool duplicate = false;
    while (true) {
      const std::uint8_t t = tags[h];
      if (t == 0) {
        tags[h] = tag;
        slots[h] = static_cast<std::uint32_t>(i + 1);
        keep.push_back(static_cast<std::uint32_t>(i));
        break;
      }
      if (t == tag) {
        const std::size_t o = slots[h] - 1;
        duplicate = true;
        for (std::size_t c = 0; c < width; ++c) {
          if (cols_[c][i] != cols_[c][o]) {
            duplicate = false;
            break;
          }
        }
        if (duplicate) break;
      }
      h = (h + 1) & mask;
    }
  }
  if (keep.size() == rows_) {
    return std::shared_ptr<const Table>(
        new Table(std::move(cols_), rows_));
  }
  Table staged(std::move(cols_), rows_);
  return Table::Gather(staged, keep);  // keep is ascending: order preserved
}

}  // namespace sharpcq
