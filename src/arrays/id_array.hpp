// IdIndexedArray — the strawman of the paper's footnote 1: index the
// activity array directly by thread id. Get is a single TAS (trivially
// optimal), but the array — and therefore every Collect — scales with the
// size of the id space N rather than the contention bound n. idspace_cost
// measures exactly that gap. Only the Gets are IdIndexed's own; Free,
// Collect and restore are the shared core::SlotTable's (a slot is an id,
// so a held slot is a registered id).
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "core/slot_table.hpp"
#include "core/types.hpp"
#include "rng/rng.hpp"

namespace la::arrays {

class IdIndexedArray : public core::SlotTable {
 public:
  // `capacity` is the contention bound the harnesses drive against; it is
  // advisory (the id space is the real limit) and defaults to the id
  // space itself.
  explicit IdIndexedArray(std::uint64_t id_space, std::uint64_t capacity = 0)
      : SlotTable(std::max<std::uint64_t>(id_space, 1),
                  capacity != 0 ? capacity
                                : std::max<std::uint64_t>(id_space, 1)) {}

  GetResult get_by_id(std::uint64_t id) {
    if (id >= slots_.size()) {
      throw std::out_of_range("IdIndexedArray::get_by_id: id out of range");
    }
    GetResult result;
    result.probes = 1;
    if (!claim(id)) {
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
      const std::uint64_t id = rng::bounded(rng, slots_.size());
      ++result.probes;
      if (claim(id)) {
        result.name = id;
        return result;
      }
    }
  }
};

}  // namespace la::arrays
