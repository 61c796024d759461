#include "workloads/location_cache.h"

#include <utility>

namespace lunule::workloads {

void LocationCache::remember(DirId d, MdsId auth, Tick until, Tick now) {
  std::size_t i = home(d);
  for (; slots_[i].dir != kNoDir; i = (i + 1) & mask()) {
    if (slots_[i].dir == d) {
      slots_[i].auth = auth;
      slots_[i].lease_until = until;
      return;
    }
  }
  // A new key.  Keep occupancy at most 1/2: the longer probe runs of a
  // fuller table cost more per lookup than its smaller footprint saves
  // (docs/PERFORMANCE.md §8).
  if (2 * (used_ + 1) > slots_.size()) {
    rebuild(now);
    i = home(d);
    while (slots_[i].dir != kNoDir) i = (i + 1) & mask();
  }
  slots_[i] = {d, auth, until};
  ++used_;
}

std::size_t LocationCache::live(Tick now) const {
  std::size_t n = 0;
  for (const Slot& s : slots_) {
    if (s.dir != kNoDir && now < s.lease_until) ++n;
  }
  return n;
}

void LocationCache::rebuild(Tick now) {
  // Grow only while the live leases plus the key being added would fill
  // more than a quarter of the table: a rebuild then leaves at least a
  // quarter of it for new keys before the next, so rebuilds cost O(1) per
  // insert.
  const std::size_t keep = live(now);
  std::size_t cap = slots_.size();
  while (4 * (keep + 1) > cap) cap *= 2;
  const std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(cap));
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
  used_ = 0;
  for (const Slot& s : old) {
    if (s.dir == kNoDir || now >= s.lease_until) continue;
    std::size_t i = home(s.dir);
    while (slots_[i].dir != kNoDir) i = (i + 1) & mask();
    slots_[i] = s;
    ++used_;
  }
}

}  // namespace lunule::workloads
