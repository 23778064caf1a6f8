// Registry-driven conformance test: every registered structure must honor
// the shared api::Renamer contract — distinct names while held (up to the
// contention bound), freed names reusable, collect() agreeing with the
// held set, out-of-range free throwing, and double-free failing loudly.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/snapshot.hpp"
#include "core/level_array.hpp"
#include "rng/rng.hpp"
#include "scale/sharded.hpp"

namespace {

int failures = 0;
std::string current;

#define CHECK(cond)                                                       \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "FAIL [%s] %s:%d: %s\n", current.c_str(),      \
                   __FILE__, __LINE__, #cond);                            \
      ++failures;                                                         \
    }                                                                     \
  } while (0)

template <typename Array>
void check_contract(Array& array, std::uint64_t capacity) {
  la::rng::MarsagliaXorshift rng(20260727);

  CHECK(array.capacity() >= capacity);
  CHECK(array.total_slots() >= capacity);

  // Distinct names while held, up to the contention bound.
  std::set<std::uint64_t> held;
  for (std::uint64_t i = 0; i < capacity; ++i) {
    const auto r = array.get(rng);
    CHECK(r.probes >= 1);
    CHECK(r.name < array.total_slots());
    CHECK(held.insert(r.name).second);
  }
  CHECK(held.size() == capacity);

  // collect() sees exactly the held set.
  std::vector<std::uint64_t> collected;
  CHECK(array.collect(collected) == capacity);
  CHECK(std::set<std::uint64_t>(collected.begin(), collected.end()) == held);

  // Free half; the freed names must become reusable (the next Gets
  // succeed and stay distinct from everything still held).
  std::vector<std::uint64_t> freed;
  for (auto it = held.begin();
       it != held.end() && freed.size() < capacity / 2;) {
    freed.push_back(*it);
    array.free(*it);
    it = held.erase(it);
  }
  for (std::size_t i = 0; i < freed.size(); ++i) {
    const auto r = array.get(rng);
    CHECK(held.insert(r.name).second);
  }
  CHECK(held.size() == capacity);
  collected.clear();
  CHECK(array.collect(collected) == capacity);

  // Out-of-range free throws std::out_of_range.
  bool threw_range = false;
  try {
    array.free(array.total_slots() + 17);
  } catch (const std::out_of_range&) {
    threw_range = true;
  }
  CHECK(threw_range);

  // Double-free fails loudly instead of corrupting occupancy.
  const std::uint64_t victim = *held.begin();
  held.erase(victim);
  array.free(victim);
  bool threw_double = false;
  try {
    array.free(victim);
  } catch (const std::logic_error&) {
    threw_double = true;
  }
  CHECK(threw_double);
  collected.clear();
  CHECK(array.collect(collected) == held.size());

  // The restore path rejects a name past the end and a name that is
  // already held (a duplicate in an image), the latter without touching
  // the held set.
  if constexpr (la::api::has_adopt_held_v<Array>) {
    bool threw_adopt_range = false;
    try {
      array.adopt_held(array.total_slots());
    } catch (const std::out_of_range&) {
      threw_adopt_range = true;
    }
    CHECK(threw_adopt_range);

    bool threw_adopt_held = false;
    try {
      array.adopt_held(*held.begin());
    } catch (const std::out_of_range&) {
      // a held name is in range; only the duplicate check may fire
    } catch (const std::logic_error&) {
      threw_adopt_held = true;
    }
    CHECK(threw_adopt_held);
    std::vector<std::uint64_t> after;
    array.collect(after);
    CHECK(std::set<std::uint64_t>(after.begin(), after.end()) == held);
  }

  // Drain; the structure ends empty.
  for (const auto name : held) array.free(name);
  collected.clear();
  CHECK(array.collect(collected) == 0);
}

}  // namespace

int main() {
  using namespace la;

  const auto& infos = api::registered_structures();
  // The seven flat structures, sharded:{level,linear,splitter} (one per
  // way the sharded layer treats its inner) and svc:sharded:level.
  CHECK(infos.size() == 11);

  for (const auto& info : infos) {
    current = std::string(info.name);
    api::RenamerConfig config;
    config.capacity = 48;  // keeps the splitter triangle small
    api::visit(current, config, [&](auto& array) {
      check_contract(array, config.capacity);
    });
    // Aliases resolve to the same canonical entry.
    for (const auto alias : info.aliases) {
      CHECK(api::resolve_structure(std::string(alias)) ==
            std::string(info.name));
    }
  }

  // SplitterRenamer edge cases: the Theta(n^2)-memory capacity cap must
  // refuse loudly through the registry path, and the recycling facade's
  // double-free / reserved-name-0 guards must fail before corrupting the
  // free list.
  {
    current = "splitter/capacity-refusal";
    api::RenamerConfig big;
    big.capacity = api::SplitterRenamer::kMaxCapacity + 1;
    bool refused = false;
    try {
      api::visit("splitter", big, [](auto& array) { (void)array; });
    } catch (const std::invalid_argument& e) {
      refused = true;
      CHECK(std::string(e.what()).find("capacity") != std::string::npos);
    }
    CHECK(refused);
  }
  {
    current = "splitter/double-free-edges";
    api::SplitterRenamer splitter(16);
    la::rng::MarsagliaXorshift rng(3);

    // Name 0 is reserved by the facade and can never be freed.
    bool threw_zero = false;
    try {
      splitter.free(0);
    } catch (const std::logic_error&) {
      threw_zero = true;
    }
    CHECK(threw_zero);

    // Double-freeing a recycled name fails both times it is not held —
    // including after the name has been through the Treiber free list.
    const auto first = splitter.get(rng);
    splitter.free(first.name);
    bool threw_double = false;
    try {
      splitter.free(first.name);
    } catch (const std::logic_error&) {
      threw_double = true;
    }
    CHECK(threw_double);

    // The recycled name comes back in O(1) and is then freeable again.
    const auto second = splitter.get(rng);
    CHECK(second.name == first.name);
    CHECK(second.probes == 1);
    splitter.free(second.name);
    bool threw_again = false;
    try {
      splitter.free(second.name);
    } catch (const std::logic_error&) {
      threw_again = true;
    }
    CHECK(threw_again);
  }

  // ShardedRenamer edge cases beyond the generic contract walk: the
  // shard math must route names back to the right shard, parked names
  // must stay double-free-safe, and collect() must drain the caches.
  {
    current = "sharded/name-routing";
    scale::ShardedConfig config;
    config.shards = 4;
    config.cache_capacity = 0;  // direct path: every name routes to inner
    scale::ShardedRenamer<core::LevelArray> array(
        config, [](std::uint32_t) {
          core::LevelArrayConfig inner;
          inner.capacity = 8;
          return std::make_unique<core::LevelArray>(inner);
        });
    CHECK(array.num_shards() == 4);
    CHECK(array.capacity() == 32);
    CHECK(array.total_slots() == 4 * array.shard_stride());
    la::rng::MarsagliaXorshift rng(11);
    std::vector<std::uint64_t> names;
    for (int i = 0; i < 32; ++i) names.push_back(array.get(rng).name);
    // Per-shard occupancy gates: exactly 8 names land in each stride
    // range, and every name frees back through the right shard.
    std::vector<std::uint64_t> per_shard(4, 0);
    for (const auto name : names) {
      CHECK(name < array.total_slots());
      ++per_shard[name / array.shard_stride()];
    }
    for (const auto count : per_shard) CHECK(count == 8);
    for (const auto name : names) array.free(name);
    std::vector<std::uint64_t> collected;
    CHECK(array.collect(collected) == 0);
  }
  {
    current = "sharded/parked-double-free";
    scale::ShardedConfig config;
    config.shards = 2;
    config.cache_capacity = 8;
    scale::ShardedRenamer<core::LevelArray> array(
        config, [](std::uint32_t) {
          core::LevelArrayConfig inner;
          inner.capacity = 8;
          return std::make_unique<core::LevelArray>(inner);
        });
    la::rng::MarsagliaXorshift rng(5);
    const auto r = array.get(rng);
    array.free(r.name);  // parks in this thread's cache
    bool threw_double = false;
    try {
      array.free(r.name);  // parked, not held — must still fail loudly
    } catch (const std::logic_error&) {
      threw_double = true;
    }
    CHECK(threw_double);
    // The parked name comes back as a cache hit...
    const auto again = array.get(rng);
    CHECK(again.name == r.name);
    CHECK(again.probes == 1);
    array.free(again.name);
    // ...and collect() drains the cache: the parked name is logically
    // free, so nothing is held and the shards get their slot back.
    std::vector<std::uint64_t> collected;
    CHECK(array.collect(collected) == 0);
    std::vector<std::uint64_t> inner_names;
    CHECK(array.shard(0).collect(inner_names) == 0);
    CHECK(array.shard(1).collect(inner_names) == 0);
    // Aliases: the '-' spelling resolves to the ':' canonical key.
    CHECK(api::resolve_structure("sharded-level") == "sharded:level");
  }

  // Unknown names throw and the message lists the registry.
  current = "(unknown)";
  bool threw = false;
  try {
    api::resolve_structure("no-such-structure");
  } catch (const std::invalid_argument& e) {
    threw = true;
    const std::string what = e.what();
    CHECK(what.find("level") != std::string::npos);
    CHECK(what.find("splitter") != std::string::npos);
  }
  CHECK(threw);

  // Layered combinations nothing uses have no registry name; asking for
  // one fails like any unknown name, listing what is accepted.
  for (const char* removed : {"sharded:random", "svc:sharded:splitter"}) {
    current = removed;
    bool refused = false;
    try {
      api::resolve_structure(removed);
    } catch (const std::invalid_argument& e) {
      refused = true;
      CHECK(std::string(e.what()).find("sharded:linear") != std::string::npos);
    }
    CHECK(refused);
  }

  if (failures != 0) {
    std::fprintf(stderr, "%d renamer contract check(s) failed\n", failures);
    return 1;
  }
  std::puts("test_renamer_contract: OK");
  return 0;
}
