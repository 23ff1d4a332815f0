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

}  // namespace

std::size_t L2CacheBytes() {
  static const std::size_t bytes = QueryL2CacheBytes();
  return bytes;
}

}  // namespace sharpcq
