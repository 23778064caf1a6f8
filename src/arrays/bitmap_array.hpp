// BitmapActivityArray — layout ablation for collect_cost: one bit per
// slot (64 slots per 8-byte word) instead of the LevelArray's one byte
// per slot. Collect scans 8x fewer cache lines; Get pays a CAS-loop on a
// shared word. Random uniform probing, no batch structure — this isolates
// the layout variable, not the algorithm. The Collect kernel is shared
// too: the slot_scan engine reads each word as its block's held mask
// (slot_scan::HeldBits) and runs the same body as the byte layout, so
// collect_cost's bitmap_speedup_x measures the layout alone.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/slot_scan.hpp"
#include "core/types.hpp"
#include "rng/rng.hpp"

namespace la::arrays {

class BitmapActivityArray {
 public:
  BitmapActivityArray(std::uint64_t total_slots, std::uint64_t capacity)
      : total_slots_(total_slots < 2 ? 2 : total_slots),
        capacity_(capacity),
        words_((total_slots_ + 63) / 64) {}

  BitmapActivityArray(const BitmapActivityArray&) = delete;
  BitmapActivityArray& operator=(const BitmapActivityArray&) = delete;

  template <typename Rng>
  GetResult get(Rng& rng) {
    GetResult result;
    for (;;) {
      const std::uint64_t slot = rng::bounded(rng, total_slots_);
      const std::uint64_t mask = std::uint64_t{1} << (slot & 63);
      auto& word = words_[slot >> 6];
      ++result.probes;
      if (word.load(std::memory_order_relaxed) & mask) continue;
      if ((word.fetch_or(mask, std::memory_order_acquire) & mask) == 0) {
        result.name = slot;
        return result;
      }
    }
  }

  void free(std::uint64_t name) {
    if (name >= total_slots_) {
      throw std::out_of_range("BitmapActivityArray::free: name out of range");
    }
    const std::uint64_t mask = std::uint64_t{1} << (name & 63);
    const std::uint64_t prev =
        words_[name >> 6].fetch_and(~mask, std::memory_order_release);
    if ((prev & mask) == 0) {
      throw std::logic_error(
          "BitmapActivityArray::free: slot not held (double free?)");
    }
  }

  std::size_t collect(std::vector<std::uint64_t>& out) const {
    return core::slot_scan::append(
        core::slot_scan::HeldBits{words_.data(), words_.size()}, out);
  }

  std::uint64_t total_slots() const { return total_slots_; }
  std::uint64_t capacity() const { return capacity_; }

  // Checkpoint adoption (src/api/snapshot.hpp): set one bit on restore,
  // keeping the name's numeric identity. Same acquire edge as get()'s
  // winning fetch_or; a bit already set means a duplicate name in the
  // image.
  void adopt_held(std::uint64_t name) {
    if (name >= total_slots_) {
      throw std::out_of_range(
          "BitmapActivityArray::adopt_held: name out of range");
    }
    const std::uint64_t mask = std::uint64_t{1} << (name & 63);
    if (words_[name >> 6].fetch_or(mask, std::memory_order_acquire) & mask) {
      throw std::logic_error(
          "BitmapActivityArray::adopt_held: slot already held "
          "(duplicate name)");
    }
  }

 private:
  std::uint64_t total_slots_;
  std::uint64_t capacity_;
  std::vector<std::atomic<std::uint64_t>> words_;
};

}  // namespace la::arrays
