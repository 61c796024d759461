// Fixed-capacity ring buffer of numeric samples.
//
// Used for the per-subtree "cutting windows" of the Pattern Analyzer
// (Section 3.3): each directory keeps the visit counts of its last N epochs,
// and l_t / l_s are sums over that window.  The cursors are one byte each
// (N < 256): FragStats carries six rings per dirfrag, so every byte here
// is paid once per fragment in the arena.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace lunule {

template <typename T, std::size_t N>
class RingBuffer {
  static_assert(N > 0 && N < 256, "cursors are one byte");

 public:
  /// Appends a sample, evicting the oldest once full.
  void push(T value) {
    items_[head_] = value;
    head_ = static_cast<std::uint8_t>(head_ + 1 == N ? 0 : head_ + 1);
    if (size_ < N) ++size_;
  }

  /// Number of samples currently held (<= N).
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] static constexpr std::size_t capacity() { return N; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Sum over the retained window.  Slots outside it always hold T{}
  /// (zero-initialised, and clear() re-zeroes them), so an unsigned ring
  /// sums all N slots in one branch-free pass: unsigned addition wraps the
  /// same in any order.  Any other T adds newest to oldest (the order of
  /// at(0), at(1), ...), so a floating-point sum is the same bits as
  /// summing at(i) in that order, in two straight runs instead of a modulo
  /// per sample: [head-1 .. 0], then the wrapped [N-1 .. ].
  [[nodiscard]] T window_sum() const {
    T acc{};
    if constexpr (std::is_unsigned_v<T>) {
      for (const T v : items_) acc += v;
    } else {
      std::size_t left = size_;
      for (std::size_t k = head_; k > 0 && left > 0; --k, --left) {
        acc += items_[k - 1];
      }
      for (std::size_t k = N; left > 0; --k, --left) acc += items_[k - 1];
    }
    return acc;
  }

  /// i-th most recent sample; at(0) is the newest.
  [[nodiscard]] T at(std::size_t i) const {
    return items_[(head_ + N - 1 - i) % N];
  }

  void clear() {
    items_ = {};
    head_ = 0;
    size_ = 0;
  }

 private:
  std::array<T, N> items_{};
  std::uint8_t head_ = 0;
  std::uint8_t size_ = 0;
};

}  // namespace lunule
