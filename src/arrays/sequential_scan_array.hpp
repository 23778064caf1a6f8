// SequentialScan — deterministic first-fit from slot 0, the strawman the
// paper leaves off its charts: at load factor f the scan inspects ~fL
// slots per Get, roughly two orders of magnitude above the randomized
// algorithms. The Rng parameter is accepted (and ignored) so the drivers
// can template over array types. Only the Get is SequentialScan's own;
// Free, Collect and restore are the shared core::SlotTable's.
#pragma once

#include <cstdint>

#include "core/slot_table.hpp"
#include "core/types.hpp"

namespace la::arrays {

class SequentialScanArray : public core::SlotTable {
 public:
  SequentialScanArray(std::uint64_t total_slots, std::uint64_t capacity)
      : SlotTable(total_slots < 2 ? 2 : total_slots, capacity) {}

  template <typename Rng>
  GetResult get(Rng& rng) {
    (void)rng;
    GetResult result;
    for (;;) {
      for (std::uint64_t slot = 0; slot < slots_.size(); ++slot) {
        ++result.probes;
        if (slots_[slot].held()) continue;
        if (claim(slot)) {
          result.name = slot;
          return result;
        }
      }
    }
  }
};

}  // namespace la::arrays
