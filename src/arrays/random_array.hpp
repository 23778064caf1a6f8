// Random — the paper's first comparison algorithm: uniformly random
// probes over the whole array until a TAS wins. Expected O(1) probes at
// constant load factor, but the worst case has a long tail under
// contention (no batch structure to cap the retries). Only the Get is
// Random's own; Free, Collect and restore are the shared
// core::SlotTable's, as in the paper's §6 comparison.
#pragma once

#include <cstdint>

#include "core/slot_table.hpp"
#include "core/types.hpp"
#include "rng/rng.hpp"

namespace la::arrays {

class RandomArray : public core::SlotTable {
 public:
  RandomArray(std::uint64_t total_slots, std::uint64_t capacity)
      : SlotTable(total_slots < 2 ? 2 : total_slots, capacity) {}

  template <typename Rng>
  GetResult get(Rng& rng) {
    GetResult result;
    for (;;) {
      const std::uint64_t slot = rng::bounded(rng, slots_.size());
      ++result.probes;
      if (claim(slot)) {
        result.name = slot;
        return result;
      }
    }
  }
};

}  // namespace la::arrays
