#ifndef SHARPCQ_UTIL_CPU_H_
#define SHARPCQ_UTIL_CPU_H_

#include <cstddef>

namespace sharpcq {

// Size of the (unified) L2 data cache in bytes, queried once from the OS.
// Falls back to 2 MiB when the platform does not report one — the common
// size on the x86 server parts this targets. The morsel planner reads it
// to tell L2-resident probe indexes from spilling ones
// (algebra/exec_policy.cc).
std::size_t L2CacheBytes();

// Whether this process can execute the AVX2 probe kernel: compiled in
// (x86-64 gcc/clang without SHARPCQ_NO_SIMD) and supported by the CPU.
// Resolved once; the answer never changes over a process lifetime.
bool CpuSupportsAvx2();

}  // namespace sharpcq

#endif  // SHARPCQ_UTIL_CPU_H_
