// IdIndexedArray — the strawman of the paper's footnote 1: index the
// activity array directly by thread id. Get is a single TAS (trivially
// optimal), but the array — and therefore every Collect — scales with the
// size of the id space N rather than the contention bound n. idspace_cost
// measures exactly that gap.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/slot_scan.hpp"
#include "core/types.hpp"
#include "rng/rng.hpp"
#include "sync/tas_cell.hpp"

namespace la::arrays {

class IdIndexedArray {
 public:
  // `capacity` is the contention bound the harnesses drive against; it is
  // advisory (the id space is the real limit) and defaults to the id
  // space itself.
  explicit IdIndexedArray(std::uint64_t id_space, std::uint64_t capacity = 0)
      : cells_(id_space < 1 ? 1 : id_space),
        capacity_(capacity == 0 ? cells_.size() : capacity) {}

  IdIndexedArray(const IdIndexedArray&) = delete;
  IdIndexedArray& operator=(const IdIndexedArray&) = delete;

  GetResult get_by_id(std::uint64_t id) {
    if (id >= cells_.size()) {
      throw std::out_of_range("IdIndexedArray::get_by_id: id out of range");
    }
    GetResult result;
    result.probes = 1;
    if (!cells_[id].try_acquire()) {
      throw std::logic_error("IdIndexedArray: id already registered");
    }
    result.name = id;
    return result;
  }

  // Renamer-shaped Get for the generic harnesses: an anonymous arrival
  // draws random ids until one is unclaimed. With the id space sized well
  // above the contention bound (footnote 1's regime) this is ~1 probe —
  // the trade the structure embodies is cheap Get against Theta(N)
  // Collect and memory.
  template <typename Rng>
  GetResult get(Rng& rng) {
    GetResult result;
    for (;;) {
      const std::uint64_t id = rng::bounded(rng, cells_.size());
      ++result.probes;
      if (cells_[id].try_acquire()) {
        result.name = id;
        return result;
      }
    }
  }

  void free(std::uint64_t name) {
    if (name >= cells_.size()) {
      throw std::out_of_range("IdIndexedArray::free: name out of range");
    }
    if (!cells_[name].held()) {
      throw std::logic_error(
          "IdIndexedArray::free: id not registered (double free?)");
    }
    cells_[name].release();
  }

  // Theta(N): must scan the entire id space — which is exactly why the
  // 8-slots-per-load engine matters most here.
  std::size_t collect(std::vector<std::uint64_t>& out) const {
    return core::slot_scan::append_held(cells_.data(), cells_.size(), out);
  }

  std::uint64_t total_slots() const { return cells_.size(); }
  std::uint64_t capacity() const { return capacity_; }

  // Checkpoint adoption (src/api/snapshot.hpp): re-register one id on
  // restore, keeping the name's numeric identity.
  void adopt_held(std::uint64_t name) {
    if (name >= cells_.size()) {
      throw std::out_of_range("IdIndexedArray::adopt_held: name out of range");
    }
    if (!cells_[name].try_acquire()) {
      throw std::logic_error(
          "IdIndexedArray::adopt_held: id already registered "
          "(duplicate name)");
    }
  }

 private:
  std::vector<sync::TasCell> cells_;
  std::uint64_t capacity_;
};

}  // namespace la::arrays
