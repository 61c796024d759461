// A client's location cache: the directories whose authority it learned
// within its current dentry-lease window.
//
// An open-addressing table (linear probing, power-of-two capacity) of
// {dir, auth, lease_until} slots.  A slot answers a lookup only while its
// lease is live (now < lease_until) and its stored authority still equals
// the directory's current one; an expired slot answers like a missing one,
// and the miss that follows overwrites it.  Expired slots are therefore
// never removed one by one: when an insert would take occupancy past 1/2,
// the table is rebuilt without them, and it doubles only while the leases
// still live at that moment would fill more than a quarter of it.  Its
// capacity thus stays below max(kMinCapacity, 8 × most leases live at
// once), which a client bounds by the ops it issues per lease window —
// never by the size of the namespace.
//
// Callers pass a non-decreasing `now`: a slot dropped as expired must stay
// expired.  Nothing iterates the slots in order, so the layout is never
// observable.  One client owns one cache and touches it from one thread at
// a time.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace lunule::workloads {

class LocationCache {
 public:
  /// Slots in an empty cache (a power of two).
  static constexpr std::size_t kMinCapacity = 16;

  /// True when `d` was remembered with authority `auth` under a lease that
  /// is still live at `now`.
  [[nodiscard]] bool fresh(DirId d, MdsId auth, Tick now) const {
    for (std::size_t i = home(d);; i = (i + 1) & mask()) {
      const Slot& s = slots_[i];
      if (s.dir == d) return s.auth == auth && now < s.lease_until;
      if (s.dir == kNoDir) return false;
    }
  }

  /// Records that `d` resolves to `auth` until `until` (exclusive),
  /// replacing whatever `d`'s slot held.  `now` decides which slots a
  /// rebuild may drop.
  void remember(DirId d, MdsId auth, Tick until, Tick now);

  /// Slots allocated.
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  /// Occupied slots, live or expired.
  [[nodiscard]] std::size_t size() const { return used_; }
  /// Occupied slots whose lease is live at `now` (a scan; for tests and
  /// tooling).
  [[nodiscard]] std::size_t live(Tick now) const;

 private:
  struct Slot {
    DirId dir = kNoDir;
    MdsId auth = kNoMds;
    Tick lease_until = 0;
  };

  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }
  /// Fibonacci hashing: the top log2(capacity) bits of d × 2^64/φ.
  [[nodiscard]] std::size_t home(DirId d) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(d) * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  /// Rehashes the slots live at `now` into a table with room for them and
  /// one more key.
  void rebuild(Tick now);

  std::vector<Slot> slots_ = std::vector<Slot>(kMinCapacity);
  std::size_t used_ = 0;
  /// 64 − log2(capacity).
  unsigned shift_ = 64 - std::countr_zero(kMinCapacity);
};

}  // namespace lunule::workloads
