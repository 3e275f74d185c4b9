#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "expert/util/assert.hpp"

namespace expert::sim {

/// Simulation time, in seconds since the start of the run.
using SimTime = double;

/// The future-event queue of both simulators, sim::Engine and the
/// Estimator's run: a binary min-heap of (time, seq, slot) entries held by
/// value. `seq` breaks time ties; `slot` names the event's payload in its
/// owner's slab, so the heap moves 24-byte entries and never touches a
/// payload. Entries pop in (time, seq) order; two with the same time and
/// seq pop in an unspecified but deterministic order.
///
/// Times compare as raw bits, which order like the values for the
/// non-negative, non-NaN times a simulation schedules; push() stores -0.0
/// as +0.0. Removing the top walks the hole down to a leaf along the
/// smaller child, picked without a branch, then sifts the last entry up
/// from there (Floyd's bottom-up heapsort step).
class EventHeap {
 public:
  struct Entry {
    SimTime time = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };

  bool empty() const noexcept { return entries_.empty(); }
  std::size_t size() const noexcept { return entries_.size(); }
  /// The earliest entry; the heap must not be empty.
  const Entry& top() const noexcept { return entries_.front(); }
  /// Every pending entry, in heap order.
  const std::vector<Entry>& entries() const noexcept { return entries_; }

  /// Add an entry; `time` must be >= 0.
  void push(SimTime time, std::uint64_t seq, std::uint32_t slot) {
    // IEEE 754 round-to-nearest gives -0.0 + 0.0 == +0.0; every other
    // value is unchanged.
    const Entry e{time + 0.0, seq, slot};
    std::size_t hole = entries_.size();
    entries_.push_back(e);
    sift_up(hole, e);
  }

  /// Remove the top entry; the heap must not be empty.
  void pop() noexcept {
    const Entry last = entries_.back();
    entries_.pop_back();
    const std::size_t n = entries_.size();
    if (n == 0) return;
    Entry* h = entries_.data();
    std::size_t hole = 0;
    std::size_t child = 1;
    while (child + 1 < n) {
      child += static_cast<std::size_t>(less(h[child + 1], h[child]));
      h[hole] = h[child];
      hole = child;
      child = 2 * hole + 1;
    }
    if (child < n) {
      h[hole] = h[child];
      hole = child;
    }
    sift_up(hole, last);
  }

 private:
  /// Whether `a` pops before `b`.
  static bool less(const Entry& a, const Entry& b) noexcept {
    const auto ta = std::bit_cast<std::uint64_t>(a.time);
    const auto tb = std::bit_cast<std::uint64_t>(b.time);
    // Bitwise on ints, not ||/&& on bools: no branch to mispredict.
    return static_cast<bool>(static_cast<int>(ta < tb) |
                             (static_cast<int>(ta == tb) &
                              static_cast<int>(a.seq < b.seq)));
  }

  /// Move `e` from the hole at `hole` towards the root to its place.
  void sift_up(std::size_t hole, const Entry& e) noexcept {
    Entry* h = entries_.data();
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!less(e, h[parent])) break;
      h[hole] = h[parent];
      hole = parent;
    }
    h[hole] = e;
  }

  std::vector<Entry> entries_;
};

/// What an EventHeap's slots name: values addressed by slot, with a free
/// list, so a freed slot is taken by the next event instead of growing the
/// slab. acquire() hands out a slot whose value is as its last user left
/// it; the caller assigns what it needs.
template <typename T>
class SlotSlab {
 public:
  std::uint32_t acquire() {
    if (free_.empty()) {
      EXPERT_CHECK(values_.size() < std::numeric_limits<std::uint32_t>::max(),
                   "too many pending events");
      values_.emplace_back();
      return static_cast<std::uint32_t>(values_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  void release(std::uint32_t slot) { free_.push_back(slot); }

  T& operator[](std::uint32_t slot) noexcept { return values_[slot]; }
  const T& operator[](std::uint32_t slot) const noexcept {
    return values_[slot];
  }

 private:
  std::vector<T> values_;
  std::vector<std::uint32_t> free_;
};

}  // namespace expert::sim
