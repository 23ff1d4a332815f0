#ifndef SHARPCQ_ALGEBRA_MISS_FILTER_H_
#define SHARPCQ_ALGEBRA_MISS_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace sharpcq {

// A tiny per-(table, key-columns) membership filter attached to every
// TableIndex, consulted before the slot walk so probes whose key is absent
// from the build side — the dominant shape in full-reducer semijoin passes
// over already-reduced relations — never touch the open-addressing table or
// the CSR group structure. One-sided: MightContain never returns false for
// a stored key (no false negatives); a false positive just falls through to
// the slot walk, which resolves it exactly.
//
// The layout is chosen by build cardinality, ursadb's builder-by-scale
// idiom (BitmapIndexBuilder vs FlatIndexBuilder):
//
//   kTagVector     <= 2048 groups: a byte-per-bucket tag vector, each
//                  bucket accumulating (by OR) a 1-of-8 bit tag for every
//                  key hashing into it. One byte load per probe; the whole
//                  filter is at most 8 KiB — L1-resident next to any index.
//   kBlockedBloom  larger builds: a register-blocked bloom filter of
//                  64-bit blocks, two probe bits per key confined to one
//                  block. One 8-byte load per probe; ~2 bytes per key, so
//                  it stays cache-resident long after the slot table has
//                  spilled to L3 — which is exactly when it pays.
//
// All probe bits come from the same 64-bit splitmix hash of the packed key
// word that drives the slot table, but from disjoint bit ranges (slots use
// the low bits, the slot tag the top byte, the filter bits 20..45), so a
// filter pass and a slot-tag match stay nearly independent.
//
// Immutable after Build; safe to probe from any number of threads.
class MissFilter {
 public:
  enum class Kind : std::uint8_t { kAlwaysMiss, kTagVector, kBlockedBloom };

  // The empty filter: no keys, every probe is a definite miss.
  MissFilter() = default;

  // Filter over the hashes of `group_words` (one packed word per distinct
  // key of the index; duplicates are harmless).
  static MissFilter Build(std::span<const std::uint64_t> group_words);

  // False => no stored key has this hash (definite miss, skip the index).
  // True => a key might be present; walk the slots. `hash` must be the
  // full 64-bit splitmix hash of the packed probe word.
  bool MightContain(std::uint64_t hash) const {
    switch (kind_) {
      case Kind::kAlwaysMiss:
        return false;
      case Kind::kTagVector:
        return (bytes_[(hash >> 32) & mask_] >> ((hash >> 29) & 7)) & 1;
      case Kind::kBlockedBloom: {
        const std::uint64_t block = blocks_[(hash >> 32) & mask_];
        const std::uint64_t probe = (std::uint64_t{1} << ((hash >> 26) & 63)) |
                                    (std::uint64_t{1} << ((hash >> 20) & 63));
        return (block & probe) == probe;
      }
    }
    return true;
  }

  // Batch form for the probe driver's verdict pass: out[i] =
  // MightContain(hashes[i]) for a whole block. The bloom layout runs
  // BloomMightContainBatch, which prefetches ahead, so the random filter
  // loads overlap instead of stalling a per-row loop.
  void MightContainBatch(const std::uint64_t* hashes, std::size_t n,
                         std::uint8_t* out) const;

  Kind kind() const { return kind_; }
  std::size_t bytes() const {
    return bytes_.size() + blocks_.size() * sizeof(std::uint64_t);
  }

 private:
  Kind kind_ = Kind::kAlwaysMiss;
  std::uint64_t mask_ = 0;
  std::vector<std::uint8_t> bytes_;    // kTagVector buckets
  std::vector<std::uint64_t> blocks_;  // kBlockedBloom blocks
};

// --- process-wide filter controls and provenance counters --------------------

// Whether probe drivers consult miss filters right now. Filters are always
// built (they are a few bytes per key); only the probe-time consult is
// gated, so toggling never invalidates an index.
bool MissFiltersEnabled();

// Disables filter consults for the scope's lifetime (scopes nest and may
// overlap across threads — a process-wide disable count, so a scope turns
// filters off for every concurrent count in the process). Benchmarks and
// tests use it to measure raw probe cost.
class MissFilterDisableScope {
 public:
  MissFilterDisableScope();
  ~MissFilterDisableScope();

  MissFilterDisableScope(const MissFilterDisableScope&) = delete;
  MissFilterDisableScope& operator=(const MissFilterDisableScope&) = delete;
};

// Cumulative process-wide filter outcomes: `hits` are probes the filter
// resolved as definite misses without touching the slot table (the saved
// work), `passes` are probes that went on to the slot walk (including the
// rare false positives). Probe drivers tally locally and add once per
// block, so the counters cost nothing on the per-row path.
//
// Attribution: when the current thread (or the morsel worker's enclosing
// RunMorsels) carries a per-execution ExecStats sink (algebra/
// exec_policy.h), tallies are ALSO added there — that is what the engine
// reads into CountResult::filter_hits/filter_passes, so each query reports
// exactly its own probes even under concurrent executions. The global
// counters below remain the process-wide total for kernel-level tests and
// diagnostics that run without a scope.
struct ProbeFilterStats {
  std::uint64_t hits = 0;
  std::uint64_t passes = 0;
};
ProbeFilterStats GlobalProbeFilterStats();
void AddProbeFilterTallies(std::uint64_t hits, std::uint64_t passes);

}  // namespace sharpcq

#endif  // SHARPCQ_ALGEBRA_MISS_FILTER_H_
