// Power-of-two ring buffer: the FIFO storage of the per-packet path.
//
// Router queues, a link's propagation pipe and the sender's scoreboard
// window all push at the back and pop at the front, millions of times per
// run, with an occupancy that rises to a peak and then oscillates below
// it. std::deque serves that pattern by allocating and freeing a block
// every few hundred elements for as long as the run lasts; this ring
// allocates only when the occupancy reaches a new high-water mark
// (doubling), so a run in steady state allocates nothing. Storage is
// taken lazily on the first push: constructing an empty ring costs no
// allocation, which matters to the many short-lived queues and
// scoreboards a per-flow ensemble builds.
//
// lint: hot-path — per-packet code; no per-packet allocation or type erasure.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "sim/annotations.h"

namespace halfback::sim {

/// FIFO of `T` over a power-of-two circular array. Indexing is relative to
/// the front (`ring[0]` is the oldest element). `T` must be default
/// constructible and move assignable; popped slots keep their moved-from
/// value until overwritten.
template <typename T>
class Ring {
 public:
  Ring() = default;
  Ring(const Ring&) = default;
  Ring& operator=(const Ring&) = default;
  // Moves leave the source empty and usable; a memberwise move would keep
  // its size and head over storage it no longer has.
  Ring(Ring&& other) noexcept { *this = std::move(other); }
  Ring& operator=(Ring&& other) noexcept {
    slots_ = std::move(other.slots_);
    other.slots_.clear();
    mask_ = std::exchange(other.mask_, 0);
    head_ = std::exchange(other.head_, 0);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  T& operator[](std::size_t i) { return slots_[(head_ + i) & mask_]; }
  const T& operator[](std::size_t i) const { return slots_[(head_ + i) & mask_]; }
  T& front() { return slots_[head_]; }
  const T& front() const { return slots_[head_]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  /// Append `value`; doubles the storage when full.
  void push_back(T&& value) HB_EFFECTS(alloc) {
    if (size_ == capacity()) grow();
    slots_[(head_ + size_) & mask_] = std::move(value);
    ++size_;
  }

  /// Open a slot at `pos` (0 <= pos <= size()), moving the elements after
  /// it one slot back, and return it for the caller to fill.
  T& insert(std::size_t pos) HB_EFFECTS(alloc) {
    if (size_ == capacity()) grow();
    for (std::size_t i = size_; i > pos; --i) (*this)[i] = std::move((*this)[i - 1]);
    ++size_;
    return (*this)[pos];
  }

  /// Drop the front element. Requires !empty().
  void pop_front() HB_EFFECTS() {
    head_ = (head_ + 1) & mask_;
    --size_;
  }

 private:
  static constexpr std::size_t kInitialCapacity = 8;

  void grow() {
    const std::size_t new_capacity = slots_.empty() ? kInitialCapacity : 2 * slots_.size();
    std::vector<T> bigger;
    // lint: hot-ok(high-water-mark growth, doubling; a steady state reuses the storage)
    bigger.resize(new_capacity);
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = std::move((*this)[i]);
    slots_.swap(bigger);
    mask_ = new_capacity - 1;
    head_ = 0;
  }

  std::vector<T> slots_;  ///< power-of-two size once storage exists
  std::size_t mask_ = 0;  ///< slots_.size() - 1 once storage exists
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace halfback::sim
