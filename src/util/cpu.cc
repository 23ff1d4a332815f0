#include "util/cpu.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace sharpcq {

namespace {

std::size_t QueryL2CacheBytes() {
#if defined(_SC_LEVEL2_CACHE_SIZE)
  long bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (bytes > 0) return static_cast<std::size_t>(bytes);
#endif
  return std::size_t{2} << 20;
}

bool QueryAvx2() {
#if !defined(SHARPCQ_NO_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace

std::size_t L2CacheBytes() {
  static const std::size_t bytes = QueryL2CacheBytes();
  return bytes;
}

bool CpuSupportsAvx2() {
  static const bool supported = QueryAvx2();
  return supported;
}

}  // namespace sharpcq
