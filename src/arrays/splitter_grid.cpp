#include "arrays/splitter_grid.hpp"

#include <stdexcept>

namespace la::arrays {

SplitterGrid::SplitterGrid(std::uint32_t n) : n_(n < 1 ? 1 : n) {
  // Triangle r + d <= n - 1: row d holds n - d splitters.
  const std::size_t cells =
      static_cast<std::size_t>(n_) * (static_cast<std::size_t>(n_) + 1) / 2;
  grid_ = std::vector<Splitter>(cells);
  overflow_ = std::vector<sync::TasCell>(n_);
}

std::size_t SplitterGrid::index(std::uint32_t right, std::uint32_t down) const {
  // Row d starts after rows 0..d-1, which hold n + (n-1) + ... + (n-d+1)
  // = d*n - d(d-1)/2 splitters.
  const auto d = static_cast<std::size_t>(down);
  return d * n_ - d * (d - 1) / 2 + right;
}

GetResult SplitterGrid::get(std::uint64_t process_id) {
  GetResult result;
  const auto id = static_cast<std::uint32_t>(process_id);
  std::uint32_t right = 0;
  std::uint32_t down = 0;
  while (right + down < n_) {
    Splitter& s = grid_[index(right, down)];
    ++result.probes;
    // Both store->load pairs are Dekker handshakes: each walker stores
    // its own variable and then reads the competitor's. Release/acquire
    // does not order a store before a later load (the x86 store buffer
    // lets two walkers both read y == 0 and both read back their own x),
    // so all four accesses are seq_cst.
    s.x.store(id, std::memory_order_seq_cst);
    if (s.y.load(std::memory_order_seq_cst) != 0) {
      ++right;
      continue;
    }
    s.y.store(1, std::memory_order_seq_cst);
    if (s.x.load(std::memory_order_seq_cst) == id) {
      // Captured: name the splitter by its diagonal, so names across the
      // triangle are distinct and bounded by n(n+1)/2.
      const std::uint64_t diag = right + down;
      result.name = diag * (diag + 1) / 2 + down + 1;
      return result;
    }
    ++down;
  }
  // Unreachable with <= n one-shot processes (the MA depth argument), but
  // stay total: fall back to a reserved TAS row.
  result.used_backup = true;
  for (std::uint32_t i = 0; i < n_; ++i) {
    ++result.probes;
    if (overflow_[i].try_acquire()) {
      result.name = namespace_size() + i + 1;
      return result;
    }
  }
  throw std::runtime_error("SplitterGrid: more than n concurrent processes");
}

std::uint64_t SplitterGrid::namespace_size() const {
  return static_cast<std::uint64_t>(n_) * (n_ + 1) / 2;
}

}  // namespace la::arrays
