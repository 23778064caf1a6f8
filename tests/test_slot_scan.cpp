// Scan-engine parity: the word engine (8 slots per load, SWAR masks,
// 64-slot held-bitmap fold) and every append_held body this host can run
// (the word body always, the AVX-512 body where the CPU has it) must
// agree with the per-byte reference on every occupancy pattern — in
// particular around word, block and 64-block chunk boundaries and tail
// remainders, where SWAR and compress-store bugs live (the
// borrow-propagating zero-byte mask this suite was written against
// misclassified bytes above the first clear slot).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "api/splitter_renamer.hpp"
#include "arrays/bitmap_array.hpp"
#include "core/level_array.hpp"
#include "core/slot_scan.hpp"
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

using la::core::slot_scan::append_held;
using la::core::slot_scan::append_held_words;
using la::core::slot_scan::count_held;
using la::core::slot_scan::count_held_bytewise;
using la::core::slot_scan::find_first_clear;
using la::core::slot_scan::find_first_clear_bytewise;
using la::core::slot_scan::for_each_held;
using la::core::slot_scan::for_each_held_bytewise;

std::vector<std::uint64_t> collect_word(const la::sync::TasCell* cells,
                                        std::uint64_t n) {
  std::vector<std::uint64_t> out;
  for_each_held(cells, n, [&](std::uint64_t i) { out.push_back(i); });
  return out;
}

std::vector<std::uint64_t> collect_byte(const la::sync::TasCell* cells,
                                        std::uint64_t n) {
  std::vector<std::uint64_t> out;
  for_each_held_bytewise(cells, n, [&](std::uint64_t i) { out.push_back(i); });
  return out;
}

using AppendBody = std::size_t (*)(const la::sync::TasCell*, std::uint64_t,
                                   std::vector<std::uint64_t>&,
                                   std::uint64_t);

struct Body {
  const char* name;
  AppendBody fn;
};

// Every append_held body this build can run on this CPU, plus the
// dispatching entry point itself.
std::vector<Body> append_bodies() {
  std::vector<Body> bodies = {{"words", &append_held_words}};
#if defined(LA_SLOT_SCAN_AVX512)
  if (la::core::slot_scan::avx512_supported()) {
    bodies.push_back({"avx512", &la::core::slot_scan::append_held_avx512});
  }
#endif
  bodies.push_back({"dispatch", &append_held});
  return bodies;
}

const std::vector<Body> kBodies = append_bodies();

// Each body against the byte oracle: into an empty vector from index 0,
// and behind a non-empty prefix with a base offset (the sharded
// per-shard form), which must keep the prefix and return only what it
// appended.
void check_append(const la::sync::TasCell* cells, std::uint64_t n) {
  const std::vector<std::uint64_t> expected = collect_byte(cells, n);
  for (const Body& body : kBodies) {
    std::vector<std::uint64_t> out;
    CHECK(body.fn(cells, n, out, 0) == expected.size());
    CHECK(out == expected);

    const std::uint64_t base = 1000003;
    std::vector<std::uint64_t> prefixed = {9, 8, 7};
    std::vector<std::uint64_t> want = prefixed;
    for (const auto i : expected) want.push_back(base + i);
    CHECK(body.fn(cells, n, prefixed, base) == expected.size());
    CHECK(prefixed == want);
  }
}

// Word vs byte on one concrete occupancy pattern.
void check_parity(const std::vector<la::sync::TasCell>& cells) {
  const auto n = static_cast<std::uint64_t>(cells.size());
  CHECK(count_held(cells.data(), n) == count_held_bytewise(cells.data(), n));
  CHECK(collect_word(cells.data(), n) == collect_byte(cells.data(), n));
  check_append(cells.data(), n);
  CHECK(find_first_clear(cells.data(), n) ==
        find_first_clear_bytewise(cells.data(), n));
  // Suffix scans exercise every word- and block-phase of the same
  // pattern (the engine takes unaligned base pointers).
  for (std::uint64_t start = 1; start < n && start <= 65; ++start) {
    CHECK(count_held(cells.data() + start, n - start) ==
          count_held_bytewise(cells.data() + start, n - start));
    CHECK(collect_word(cells.data() + start, n - start) ==
          collect_byte(cells.data() + start, n - start));
    CHECK(find_first_clear(cells.data() + start, n - start) ==
          find_first_clear_bytewise(cells.data() + start, n - start));
    check_append(cells.data() + start, n - start);
  }
}

}  // namespace

int main() {
  using namespace la;

  std::printf("test_slot_scan: append_held bodies:");
  for (const Body& body : kBodies) std::printf(" %s", body.name);
  std::printf(" (dispatch runs %s)\n",
              la::core::slot_scan::append_held_kernel());

  // Word- and block-boundary and tail-remainder sizes, the vector body's
  // 64-block chunk boundary (4096 slots) from both sides, and two chunks
  // plus a tail.
  const std::uint64_t sizes[] = {1,    7,    8,    9,    63,   64,
                                 65,   127,  128,  129,  200,  520,
                                 1037, 4095, 4096, 4097, 4099, 64 * 64 * 2 + 7};

  // --- deterministic edge patterns -----------------------------------
  for (const auto n : sizes) {
    {
      std::vector<sync::TasCell> all_clear(n);
      CHECK(count_held(all_clear.data(), n) == 0);
      CHECK(collect_word(all_clear.data(), n).empty());
      CHECK(find_first_clear(all_clear.data(), n) == 0);
      check_parity(all_clear);
    }
    {
      std::vector<sync::TasCell> all_held(n);
      for (auto& cell : all_held) CHECK(cell.try_acquire());
      CHECK(count_held(all_held.data(), n) == n);
      CHECK(find_first_clear(all_held.data(), n) == n);  // none clear
      const auto names = collect_word(all_held.data(), n);
      CHECK(names.size() == n);
      for (std::uint64_t i = 0; i < names.size(); ++i) {
        CHECK(names[i] == i);  // ascending order
      }
      check_parity(all_held);
    }
    // One held slot at every boundary-interesting index.
    for (const std::uint64_t at : {std::uint64_t{0}, std::uint64_t{7},
                                   std::uint64_t{8}, std::uint64_t{63},
                                   std::uint64_t{64}, n - 1}) {
      if (at >= n) continue;
      std::vector<sync::TasCell> one(n);
      CHECK(one[at].try_acquire());
      CHECK(count_held(one.data(), n) == 1);
      CHECK(collect_word(one.data(), n) ==
            std::vector<std::uint64_t>{at});
      // With slot 0 held the first clear is 1 (== n when n is 1).
      CHECK(find_first_clear(one.data(), n) == (at == 0 ? 1 : 0));
      check_parity(one);
    }
    // All held except one clear slot — the backup sweep's target shape.
    for (const std::uint64_t clear_at :
         {std::uint64_t{0}, n / 2, n - 1}) {
      std::vector<sync::TasCell> dense(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        if (i != clear_at) CHECK(dense[i].try_acquire());
      }
      CHECK(find_first_clear(dense.data(), n) == clear_at);
      CHECK(count_held(dense.data(), n) == n - 1);
      check_parity(dense);
    }
  }

  // --- one held slot at every offset: a misordered byte lane in the
  // 64-slot gather shows up as a wrong index or a wrong count ----------
  {
    const std::uint64_t n = 130;  // two full blocks plus a tail
    for (std::uint64_t at = 0; at < n; ++at) {
      std::vector<sync::TasCell> one(n);
      CHECK(one[at].try_acquire());
      CHECK(count_held(one.data(), n) == 1);
      CHECK(collect_word(one.data(), n) == std::vector<std::uint64_t>{at});
      // ...and its complement: every slot held but `at`.
      std::vector<sync::TasCell> hole(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        if (i != at) CHECK(hole[i].try_acquire());
      }
      CHECK(count_held(hole.data(), n) == n - 1);
      CHECK(collect_word(hole.data(), n) == collect_byte(hole.data(), n));
    }
  }

  // --- append_held keeps out's prefix and returns only what it added --
  {
    std::vector<sync::TasCell> cells(100);
    for (const std::uint64_t at : {3, 64, 99}) CHECK(cells[at].try_acquire());
    std::vector<std::uint64_t> out = {7, 7};
    CHECK(append_held(cells.data(), cells.size(), out) == 3);
    CHECK((out == std::vector<std::uint64_t>{7, 7, 3, 64, 99}));
    CHECK(append_held(cells.data(), 0, out) == 0);
    CHECK(out.size() == 5);
  }

  // --- random occupancy patterns -------------------------------------
  rng::MarsagliaXorshift rng(20260727);
  for (const auto n : sizes) {
    for (int round = 0; round < 32; ++round) {
      std::vector<sync::TasCell> cells(n);
      // Densities from near-empty to near-full.
      const std::uint64_t density_pct = rng::bounded(rng, 101);
      for (auto& cell : cells) {
        if (rng::bounded(rng, 100) < density_pct) {
          CHECK(cell.try_acquire());
        }
      }
      check_parity(cells);
    }
  }

  // --- LevelArray collect vs its byte-wise reference -----------------
  {
    core::LevelArrayConfig config;
    config.capacity = 3000;  // odd-sized batches, non-multiple-of-8 tail
    core::LevelArray array(config);
    std::vector<std::uint64_t> held;
    for (int i = 0; i < 1500; ++i) held.push_back(array.get(rng).name);
    // Free a random third so the pattern has interior holes.
    for (std::size_t i = 0; i < held.size();) {
      if (rng::bounded(rng, 3) == 0) {
        array.free(held[i]);
        held[i] = held.back();
        held.pop_back();
      } else {
        ++i;
      }
    }
    std::vector<std::uint64_t> word_names, byte_names;
    CHECK(array.collect(word_names) == array.collect_bytewise(byte_names));
    CHECK(word_names == byte_names);
    CHECK(word_names.size() == held.size());

    // batch_occupancy (word-counted per batch range) sums to the total.
    std::uint64_t sum = 0;
    for (const auto count : array.batch_occupancy()) sum += count;
    CHECK(sum == held.size());
  }

  // --- bitmap bit-domain engine agrees with its own byte-domain twin --
  {
    arrays::BitmapActivityArray bits(1037, 500);
    std::vector<std::uint64_t> names;
    for (int i = 0; i < 400; ++i) names.push_back(bits.get(rng).name);
    std::vector<std::uint64_t> collected;
    CHECK(bits.collect(collected) == names.size());
    std::vector<std::uint64_t> sorted = names;
    std::sort(sorted.begin(), sorted.end());
    CHECK(collected == sorted);
  }

  // --- SplitterRenamer collects from slot 0: the grid never issues
  // name 0, so the unoffset scan yields exactly the held names ---------
  {
    api::SplitterRenamer splitter(64);
    std::vector<std::uint64_t> names;
    for (int i = 0; i < 64; ++i) names.push_back(splitter.get(rng).name);
    for (const auto name : names) CHECK(name != 0);
    for (std::size_t i = 0; i < names.size(); i += 3) splitter.free(names[i]);
    std::vector<std::uint64_t> expected;
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i % 3 != 0) expected.push_back(names[i]);
    }
    std::sort(expected.begin(), expected.end());
    std::vector<std::uint64_t> collected;
    CHECK(splitter.collect(collected) == expected.size());
    CHECK(collected == expected);
  }

  if (failures == 0) std::printf("test_slot_scan: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
