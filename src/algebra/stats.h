#ifndef SHARPCQ_ALGEBRA_STATS_H_
#define SHARPCQ_ALGEBRA_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sharpcq {

class Table;
class Database;

// ---------------------------------------------------------------------------
// Lightweight per-table data statistics — the raw material of the cost
// model. Everything here is derivable from the index group structure the
// kernel already builds (ProjectCounted / TableIndex), streamed once per
// table and then cached on the Table like its indexes, or loaded for free
// from a v2 snapshot's stats section (storage/snapshot.h).
//
// The consumers are scheduling decisions only: strategy tie-breaks in the
// planner, join-tree rooting and child ordering, and morsel thresholds. Every strategy stays exact, so a wrong
// estimate can cost time, never correctness — the differential suite runs
// cost-model-on against cost-model-off to prove it.
// ---------------------------------------------------------------------------

// Log-bucketed degree histogram width: bucket b counts the groups whose
// size lies in [2^b, 2^(b+1)), the last bucket absorbing everything larger.
inline constexpr std::size_t kDegreeHistogramBuckets = 16;

// Bucket of a group of `group_size` rows (group_size >= 1).
std::size_t DegreeBucket(std::uint64_t group_size);

// Coarse log2 size class for fingerprints: 0 for 0, else bit_width(n) — two
// cardinalities land in the same class iff they share a leading-bit
// position, so re-ingesting "about the same data" keeps the class stable
// while an order-of-magnitude change moves it.
std::uint32_t SizeClass(std::uint64_t n);

struct ColumnStats {
  std::uint64_t distinct = 0;   // |pi_c(table)|
  std::uint64_t max_group = 0;  // degree w.r.t. column c (Definition 6.1)
  std::array<std::uint32_t, kDegreeHistogramBuckets> histogram{};

  // Average rows per distinct value (0 for an empty column).
  double AvgGroup(std::uint64_t rows) const {
    return distinct == 0 ? 0.0
                         : static_cast<double>(rows) /
                               static_cast<double>(distinct);
  }

  bool operator==(const ColumnStats&) const = default;
};

struct TableStats {
  std::uint64_t rows = 0;
  std::vector<ColumnStats> columns;  // one per column

  bool operator==(const TableStats&) const = default;
};

// Streams the per-column statistics off the table's cached single-column
// index groups (building and caching those indexes if absent — they are
// the most commonly probed ones anyway).
TableStats ComputeTableStats(const Table& table);

// Column-permuted view: out.columns[c] = in.columns[perm[c]]. The atom
// bridge uses this to carry a stored relation's persisted stats onto the
// column-permuted alias it hands the executor.
std::shared_ptr<const TableStats> PermuteStats(const TableStats& in,
                                               std::span<const int> perm);

// Per-relation slice of a DataProfile. `stats` is null when only the row
// count is known (row-major relations, or columnar tables whose stats were
// not requested).
struct RelationProfile {
  std::string name;
  std::uint64_t rows = 0;
  std::shared_ptr<const TableStats> stats;
};

// A generation's data profile: per-relation stats plus a compact
// fingerprint of their coarse size classes. The engine appends the
// fingerprint (restricted to the query's relations) to the plan-cache key,
// turning "same shape => same plan" into "same shape + same data profile
// class => same plan" — a cached plan survives an ingest exactly when the
// profile class it was costed for still holds.
struct DataProfile {
  std::vector<RelationProfile> relations;  // ascending name

  bool empty() const { return relations.empty(); }
  const RelationProfile* Find(std::string_view name) const;

  // Deterministic, coarse: per relation the log2 class of its row count and
  // of each column's distinct count and max group size. Insensitive to row
  // order and to cardinality jitter within a class.
  std::string Fingerprint() const;
};

// Profiles the named relations of `db` (absent names are skipped). Columnar
// relations contribute full TableStats, computed lazily and cached on their
// Table — free when the table came from a v2 snapshot with persisted stats.
// Row-major relations contribute their row count only.
DataProfile BuildDataProfile(const Database& db,
                             std::span<const std::string> names);

// Profiles every relation of `db`.
DataProfile BuildDataProfile(const Database& db);

}  // namespace sharpcq

#endif  // SHARPCQ_ALGEBRA_STATS_H_
