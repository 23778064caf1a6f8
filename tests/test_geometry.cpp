// Pins the batch geometry: slots sum to exactly L = 2n, batch 0 holds
// 3L/4, and the tail after each batch obeys the doubly-exponential law
// tail_{k+1} = tail_k^2 / L (exact on power-of-two L).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "api/renamer.hpp"
#include "core/geometry.hpp"
#include "core/level_array.hpp"
#include "rng/rng.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__,      \
                   #cond);                                              \
      ++failures;                                                       \
    }                                                                   \
  } while (0)

void check_geometry(std::uint64_t n) {
  const std::uint64_t total = 2 * n;
  const la::core::Geometry geometry(total);

  CHECK(geometry.total_slots() == total);
  CHECK(geometry.num_batches() >= 1);
  CHECK(geometry.num_batches() <= 6);

  // Slots partition [0, L) exactly.
  std::uint64_t sum = 0;
  std::uint64_t expected_offset = 0;
  for (std::uint32_t k = 0; k < geometry.num_batches(); ++k) {
    const auto& batch = geometry.batch(k);
    CHECK(batch.offset() == expected_offset);
    CHECK(batch.size() >= 1);
    expected_offset = batch.end();
    sum += batch.size();
  }
  CHECK(sum == total);

  // Batch 0 holds 3L/4 (= 3n/2 slots for L = 2n).
  CHECK(geometry.batch(0).size() == total - total / 4);

  // Sizes strictly shrink across batches.
  for (std::uint32_t k = 0; k + 1 < geometry.num_batches(); ++k) {
    CHECK(geometry.batch(k + 1).size() < geometry.batch(k).size());
  }

  // Doubly-exponential decay: the tail after batch k squares away. For
  // power-of-two L the law tail_{k+1} = tail_k^2 / L is exact.
  if ((total & (total - 1)) == 0) {
    std::uint64_t tail = total / 4;
    for (std::uint32_t k = 0; k + 1 < geometry.num_batches(); ++k) {
      CHECK(total - geometry.batch(k).end() == tail);
      tail = tail * tail / total;
    }
  }

  // batch_of_slot agrees with the partition.
  for (std::uint32_t k = 0; k < geometry.num_batches(); ++k) {
    const auto& batch = geometry.batch(k);
    CHECK(geometry.batch_of_slot(batch.offset()) == k);
    CHECK(geometry.batch_of_slot(batch.end() - 1) == k);
  }
}

}  // namespace

int main() {
  for (const std::uint64_t n :
       {std::uint64_t{8}, std::uint64_t{32}, std::uint64_t{512},
        std::uint64_t{1024}, std::uint64_t{50000}, std::uint64_t{65536}}) {
    check_geometry(n);
  }

  // Known exact values for n = 1024 (L = 2048): 1536 + 384 + 120 + 8.
  {
    const la::core::Geometry geometry(2048);
    CHECK(geometry.num_batches() == 4);
    CHECK(geometry.batch(0).size() == 1536);
    CHECK(geometry.batch(1).size() == 384);
    CHECK(geometry.batch(2).size() == 120);
    CHECK(geometry.batch(3).size() == 8);
  }

  // LevelArray wires capacity through: L = 2n by default.
  {
    la::core::LevelArrayConfig config;
    config.capacity = 1000;
    const la::core::LevelArray array(config);
    CHECK(array.total_slots() == 2000);
    CHECK(array.geometry().num_batches() >= 2);
  }

  // Degenerate sizes must not crash.
  {
    const la::core::Geometry tiny(2);
    CHECK(tiny.num_batches() == 1);
    CHECK(tiny.batch(0).size() == 2);
  }

  // capacity = 1: the floor of two slots kicks in and the structure still
  // renames (Get/Free round-trips at the contention bound of one).
  {
    la::core::LevelArrayConfig config;
    config.capacity = 1;
    la::core::LevelArray array(config);
    CHECK(array.total_slots() == 2);
    CHECK(array.geometry().num_batches() == 1);
    la::rng::MarsagliaXorshift rng(7);
    const auto r = array.get(rng);
    CHECK(r.name < 2);
    array.free(r.name);
    const auto again = array.get(rng);
    CHECK(again.name < 2);
    array.free(again.name);
  }

  // size_multiplier just above 1.0: L rounds down to barely more than n,
  // yet all n names must still be grantable (the backup sweep guarantees
  // totality once the random probes run out of empty slots).
  {
    la::core::LevelArrayConfig config;
    config.capacity = 64;
    config.size_multiplier = 1.05;
    la::core::LevelArray array(config);
    CHECK(array.total_slots() == 67);
    la::rng::MarsagliaXorshift rng(11);
    std::vector<std::uint64_t> names;
    for (int i = 0; i < 64; ++i) names.push_back(array.get(rng).name);
    std::vector<std::uint64_t> collected;
    CHECK(array.collect(collected) == 64);
    for (const auto name : names) array.free(name);
    collected.clear();
    CHECK(array.collect(collected) == 0);
  }

  // probes_per_batch tails: probes_for(k) reads pv[min(k, pv.size()-1)],
  // so a vector longer than the batch count serves its raw tail entries
  // to out-of-range batch indices, a short vector repeats its last entry
  // for deeper batches, and zero entries are sanitized to one probe.
  {
    la::core::LevelArrayConfig config;
    config.capacity = 1024;  // L = 2048, 4 batches
    config.probes_per_batch = {4, 3, 2, 1, 9, 9, 9, 9, 9, 9, 9, 9};
    la::core::LevelArray long_tail(config);
    CHECK(long_tail.geometry().num_batches() == 4);
    CHECK(long_tail.probes_for(0) == 4);
    CHECK(long_tail.probes_for(3) == 1);
    CHECK(long_tail.probes_for(100) == 9);  // clamped to the last entry

    config.probes_per_batch = {2};
    la::core::LevelArray repeat_tail(config);
    CHECK(repeat_tail.probes_for(0) == 2);
    CHECK(repeat_tail.probes_for(3) == 2);

    config.probes_per_batch = {0, 0};
    la::core::LevelArray zero_tail(config);
    CHECK(zero_tail.probes_for(0) == 1);
    CHECK(zero_tail.probes_for(5) == 1);
  }

  // total_slots overflow guard: multiplier * capacity products beyond
  // 2^53 must throw before any cast or allocation happens, for both the
  // core config and the api config (which share core::scaled_slots).
  {
    bool threw = false;
    try {
      la::core::LevelArrayConfig config;
      config.capacity = std::uint64_t{1} << 40;
      config.size_multiplier = 1e9;
      la::core::LevelArray array(config);
    } catch (const std::overflow_error&) {
      threw = true;
    }
    CHECK(threw);

    threw = false;
    try {
      la::api::RenamerConfig config;
      config.capacity = std::uint64_t{1} << 40;
      config.size_factor = 1e9;
      (void)config.total_slots();
    } catch (const std::overflow_error&) {
      threw = true;
    }
    CHECK(threw);

    threw = false;
    try {
      // Negative products are rejected too (the guard id_space() calls).
      (void)la::core::scaled_slots(-4.0, 1024);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);

    // Just inside the guard still works.
    CHECK(la::core::scaled_slots(2.0, 1024) == 2048);
    CHECK(la::core::scaled_slots(0.0, 1024) == 2);
  }

  if (failures != 0) {
    std::fprintf(stderr, "%d geometry check(s) failed\n", failures);
    return 1;
  }
  std::puts("test_geometry: OK");
  return 0;
}
