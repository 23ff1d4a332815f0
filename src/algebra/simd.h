#ifndef SHARPCQ_ALGEBRA_SIMD_H_
#define SHARPCQ_ALGEBRA_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace sharpcq {

// Rows per probe block: the unit in which the probe driver packs, hashes,
// filters and resolves words, and the granule morsel sizes are aligned to
// (exec_policy.h) so a morsel boundary never splits a block. Sized so one
// block's scratch (words + hashes + verdicts) stays inside L1.
inline constexpr std::size_t kProbeBlockRows = 512;

// --- batch primitives --------------------------------------------------------
//
// The probe kernel's block loops, one portable implementation each. Every
// call streams a whole block through one tight loop the compiler is free
// to auto-vectorize; the arithmetic is the same wraparound uint64 math as
// the per-row code they batch (KeyPacking::Pack, HashMix).

// One dense-packing digit column over a row block:
//   out[i] |= (col[i] - base) <= range ? (col[i] - base) << shift
//                                      : kPoison (bit 63)
// with the subtraction and comparison in uint64 arithmetic (two's
// complement, matching KeyPacking::Pack).
void PackDenseDigits(const std::int64_t* col, std::size_t n,
                     std::uint64_t base, std::uint64_t range, int shift,
                     std::uint64_t* out);

// hashes[i] = HashMix(words[i]) — the splitmix64 finalizer over a block,
// feeding slot indexes, slot tags, and the miss-filter probe bits.
void HashWordsBatch(const std::uint64_t* words, std::size_t n,
                    std::uint64_t* hashes);

// Blocked-bloom verdicts over a hash block (MissFilter's kBlockedBloom
// layout): out[i] = 1 iff block (hash>>32)&mask holds both probe bits
// (hash>>26)&63 and (hash>>20)&63. Runs the block loads a fixed prefetch
// distance ahead of the verdicts so the (random) filter loads overlap.
void BloomMightContainBatch(const std::uint64_t* blocks, std::uint64_t mask,
                            const std::uint64_t* hashes, std::size_t n,
                            std::uint8_t* out);

}  // namespace sharpcq

#endif  // SHARPCQ_ALGEBRA_SIMD_H_
