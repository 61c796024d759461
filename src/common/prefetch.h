// Software prefetch for loads whose addresses are known ahead of their use.
//
// The access recorder's epoch-close fold visits the dirty directories in
// touch order and, for each, loads its fragment block and bounds entry,
// scattered over a 100k-directory namespace where the hardware
// prefetchers cannot follow; the client loads the file state of the op it
// is about to serve.  Those misses are independent of the work in
// between, so both issue them early and the memory system overlaps them
// with that work.  A prefetch is only a hint: it never faults and changes no
// value, so the code computes the same bits with or without it.
#pragma once

#include <cstddef>

namespace lunule {

/// Entries ahead of the current one that the fold over the dirty list
/// prefetches.  On the tenant-100k epoch close, distances 4, 8 and 16 read
/// the same (docs/PERFORMANCE.md §10).
inline constexpr std::size_t kPrefetchDistance = 8;

inline constexpr std::size_t kCacheLineBytes = 64;

/// Hints that the `lines` cache lines starting at `p` will be read soon.
inline void prefetch_lines(const void* p, std::size_t lines = 1) {
#if defined(__GNUC__) || defined(__clang__)
  const char* bytes = static_cast<const char*>(p);
  for (std::size_t i = 0; i < lines; ++i) {
    __builtin_prefetch(bytes + i * kCacheLineBytes, /*rw=*/0, /*locality=*/3);
  }
#else
  (void)p;
  (void)lines;
#endif
}

}  // namespace lunule
