// SlotTable — the activity array every byte-slot renamer shares: L
// one-byte TAS slots, name = slot index, Free = one release, Collect =
// one word-engine scan. The paper's §6 comparison fixes this array and
// varies only the Get, so LevelArray and the four comparison arrays
// derive from it and add only their Get; SplitterRenamer holds one
// privately (it has no restore path, so it must not inherit adopt_held).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/slot_scan.hpp"
#include "sync/tas_cell.hpp"

namespace la::core {

class SlotTable {
 public:
  SlotTable(std::uint64_t total_slots, std::uint64_t capacity)
      : slots_(total_slots), capacity_(capacity) {}

  SlotTable(const SlotTable&) = delete;
  SlotTable& operator=(const SlotTable&) = delete;

  // One TAS (precondition: name < total_slots()); true if this call took
  // the slot from clear to held.
  bool claim(std::uint64_t name) { return slots_[name].try_acquire(); }

  void free(std::uint64_t name) {
    if (name >= slots_.size()) {
      throw std::out_of_range("SlotTable::free: name out of range");
    }
    // Only the holder may free, so this read is race-free; a clear slot
    // means a double free (or a name never granted) and releasing it
    // would silently corrupt occupancy.
    if (!slots_[name].held()) {
      throw std::logic_error("SlotTable::free: slot not held (double free?)");
    }
    slots_[name].release();
  }

  // Appends the held names to out and returns how many. Theta(L) by
  // design: a sequential scan of the dense bytes, 64 or 8 slots per load
  // (racy-snapshot semantics, see core/slot_scan.hpp).
  std::size_t collect(std::vector<std::uint64_t>& out) const {
    return slot_scan::append_held(slots_.data(), slots_.size(), out);
  }

  // Checkpoint adoption (src/api/snapshot.hpp): mark a restored name held
  // on a fresh instance, keeping its numeric identity. A TAS rather than
  // mark_held, so a duplicate name in a corrupt image fails loudly.
  void adopt_held(std::uint64_t name) {
    if (name >= slots_.size()) {
      throw std::out_of_range("SlotTable::adopt_held: name out of range");
    }
    if (!claim(name)) {
      throw std::logic_error(
          "SlotTable::adopt_held: slot already held (duplicate name)");
    }
  }

  std::uint64_t total_slots() const { return slots_.size(); }
  std::uint64_t capacity() const { return capacity_; }  // bound n

 protected:
  std::vector<sync::TasCell> slots_;

 private:
  std::uint64_t capacity_;
};

}  // namespace la::core
