// A growable array of 64-bit atomics.
//
// std::vector cannot hold std::atomic (not movable), so concurrent-read
// caches roll their own storage.  The contract here matches the simulator's
// phase structure: loads and stores may race freely (relaxed atomics — the
// packed authority cache only ever publishes values that every racing
// writer computes identically), but resize() is only legal during serial
// phases (namespace construction, epoch boundaries) when no reader is
// concurrent.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace lunule {

class AtomicU64Array {
 public:
  AtomicU64Array() = default;

  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] std::uint64_t load(std::size_t i) const {
    return data_[i].load(std::memory_order_relaxed);
  }

  void store(std::size_t i, std::uint64_t v) const {
    data_[i].store(v, std::memory_order_relaxed);
  }

  /// Grows to `n` entries, zero-filling the tail (no-op when already that
  /// large).  Serial phases only: reallocation is not guarded against
  /// concurrent readers.
  void resize(std::size_t n) {
    if (n > capacity_) {
      std::size_t cap = capacity_ == 0 ? 16 : capacity_;
      while (cap < n) cap *= 2;
      reallocate(cap);
    }
    for (std::size_t i = size_; i < n; ++i) {
      data_[i].store(0, std::memory_order_relaxed);
    }
    size_ = n;
  }

  /// Makes room for `n` entries without changing size(); the capacity at
  /// least doubles when it grows.  Serial phases only, like resize().
  void reserve(std::size_t n) {
    if (n > capacity_) reallocate(std::max(n, 2 * capacity_));
  }

 private:
  void reallocate(std::size_t cap) {
    auto next = std::make_unique<std::atomic<std::uint64_t>[]>(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i].store(data_[i].load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    }
    data_ = std::move(next);
    capacity_ = cap;
  }

  // mutable-through-const is deliberate: the array backs caches that fill
  // from const lookup paths.
  mutable std::unique_ptr<std::atomic<std::uint64_t>[]> data_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace lunule
