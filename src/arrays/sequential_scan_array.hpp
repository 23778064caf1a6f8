// SequentialScan — deterministic first-fit from slot 0, the strawman the
// paper leaves off its charts: at load factor f the scan inspects ~fL
// slots per Get, roughly two orders of magnitude above the randomized
// algorithms. The Rng parameter is accepted (and ignored) so the drivers
// can template over array types.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/slot_scan.hpp"
#include "core/types.hpp"
#include "sync/tas_cell.hpp"

namespace la::arrays {

class SequentialScanArray {
 public:
  SequentialScanArray(std::uint64_t total_slots, std::uint64_t capacity)
      : capacity_(capacity), slots_(total_slots < 2 ? 2 : total_slots) {}

  SequentialScanArray(const SequentialScanArray&) = delete;
  SequentialScanArray& operator=(const SequentialScanArray&) = delete;

  template <typename Rng>
  GetResult get(Rng& rng) {
    (void)rng;
    GetResult result;
    for (;;) {
      for (std::uint64_t slot = 0; slot < slots_.size(); ++slot) {
        ++result.probes;
        if (slots_[slot].held()) continue;
        if (slots_[slot].try_acquire()) {
          result.name = slot;
          return result;
        }
      }
    }
  }

  void free(std::uint64_t name) {
    if (name >= slots_.size()) {
      throw std::out_of_range("SequentialScanArray::free: name out of range");
    }
    if (!slots_[name].held()) {
      throw std::logic_error(
          "SequentialScanArray::free: slot not held (double free?)");
    }
    slots_[name].release();
  }

  std::size_t collect(std::vector<std::uint64_t>& out) const {
    return core::slot_scan::append_held(slots_.data(), slots_.size(), out);
  }

  std::uint64_t total_slots() const { return slots_.size(); }
  std::uint64_t capacity() const { return capacity_; }

  // Checkpoint adoption (src/api/snapshot.hpp): re-seed one held slot on
  // restore, keeping the name's numeric identity.
  void adopt_held(std::uint64_t name) {
    if (name >= slots_.size()) {
      throw std::out_of_range(
          "SequentialScanArray::adopt_held: name out of range");
    }
    if (!slots_[name].try_acquire()) {
      throw std::logic_error(
          "SequentialScanArray::adopt_held: slot already held "
          "(duplicate name)");
    }
  }

 private:
  std::uint64_t capacity_;
  std::vector<sync::TasCell> slots_;
};

}  // namespace la::arrays
