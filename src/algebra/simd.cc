#include "algebra/simd.h"

#include "util/hash.h"

namespace sharpcq {

void PackDenseDigits(const std::int64_t* col, std::size_t n,
                     std::uint64_t base, std::uint64_t range, int shift,
                     std::uint64_t* out) {
  constexpr std::uint64_t kPoison = std::uint64_t{1} << 63;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t diff = static_cast<std::uint64_t>(col[i]) - base;
    out[i] |= diff <= range ? diff << shift : kPoison;
  }
}

void HashWordsBatch(const std::uint64_t* words, std::size_t n,
                    std::uint64_t* hashes) {
  for (std::size_t i = 0; i < n; ++i) hashes[i] = HashMix(words[i]);
}

void BloomMightContainBatch(const std::uint64_t* blocks, std::uint64_t mask,
                            const std::uint64_t* hashes, std::size_t n,
                            std::uint8_t* out) {
  // Run the block loads a fixed distance ahead of the verdicts so the
  // random filter-line accesses overlap instead of serializing the loop.
  // (A vpgatherqq variant measured slower than this: gather hardware offers
  // no more memory parallelism than the prefetch pipeline.)
  constexpr std::size_t kAhead = 16;
#if defined(__GNUC__) || defined(__clang__)
  const std::size_t prime = n < kAhead ? n : kAhead;
  for (std::size_t i = 0; i < prime; ++i) {
    __builtin_prefetch(blocks + ((hashes[i] >> 32) & mask));
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
#if defined(__GNUC__) || defined(__clang__)
    if (i + kAhead < n) {
      __builtin_prefetch(blocks + ((hashes[i + kAhead] >> 32) & mask));
    }
#endif
    const std::uint64_t h = hashes[i];
    const std::uint64_t block = blocks[(h >> 32) & mask];
    const std::uint64_t probe = (std::uint64_t{1} << ((h >> 26) & 63)) |
                                (std::uint64_t{1} << ((h >> 20) & 63));
    out[i] = (block & probe) == probe ? 1 : 0;
  }
}

}  // namespace sharpcq
