// Unit tests for the scale layer's own machinery — the pieces the
// generic harnesses (contract walk, stress matrix, model fuzz) exercise
// but never observe directly: cache hit accounting, full-cache overflow
// straight to the shards, drain-on-collect, the global-miss drain that
// reclaims parked capacity, thread-exit flushing with cache-slot
// recycling across thread generations, the uncached overflow mode past
// max_threads, the name-routing edges (stride gaps, per-shard gates), a
// hold-set scan that skips the stride padding, and re-homing: a thread
// whose home shard refuses moves its home, so a fill pays one refusal per
// full home rather than one per Get, and does not pile its overflow onto
// the ring neighbours.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/renamer.hpp"
#include "arrays/random_array.hpp"
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

using Sharded = la::scale::ShardedRenamer<la::core::LevelArray>;

Sharded make_sharded(la::scale::ShardedConfig config,
                     std::uint64_t shard_capacity) {
  return Sharded(config, [shard_capacity](std::uint32_t) {
    la::core::LevelArrayConfig inner;
    inner.capacity = shard_capacity;
    return std::make_unique<la::core::LevelArray>(inner);
  });
}

void check_cache_hits_and_flush() {
  current = "cache-hits-and-flush";
  la::scale::ShardedConfig config;
  config.shards = 2;
  config.cache_capacity = 4;
  Sharded array = make_sharded(config, 16);
  la::rng::MarsagliaXorshift rng(1);

  // Free more than the cache holds: the first 4 park, and each Free
  // that finds the cache full goes straight to its shard.
  std::vector<std::uint64_t> names;
  for (int i = 0; i < 10; ++i) names.push_back(array.get(rng).name);
  for (const auto name : names) array.free(name);
  auto stats = array.stats();
  CHECK(stats.parked_frees == 4);
  CHECK(stats.direct_frees == 6);
  CHECK(stats.shared_gets == 10);
  CHECK(stats.cache_hits == 0);

  // The next Gets pop the parked names (most recent first), then fall
  // back to the shards for what went direct.
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10; ++i) CHECK(seen.insert(array.get(rng).name).second);
  stats = array.stats();
  CHECK(stats.cache_hits == 4);  // exactly what the cache held

  // LIFO: an immediate free + get round-trips the same name as a hit.
  const std::uint64_t name = *seen.begin();
  array.free(name);
  const auto r = array.get(rng);
  CHECK(r.name == name);
  CHECK(r.probes == 1);

  for (const auto held : seen) array.free(held);
  std::vector<std::uint64_t> collected;
  CHECK(array.collect(collected) == 0);
}

void check_drain_restores_shards() {
  current = "drain-restores-shards";
  la::scale::ShardedConfig config;
  config.shards = 2;
  config.cache_capacity = 8;
  Sharded array = make_sharded(config, 8);
  la::rng::MarsagliaXorshift rng(2);

  std::vector<std::uint64_t> names;
  for (int i = 0; i < 6; ++i) names.push_back(array.get(rng).name);
  for (const auto name : names) array.free(name);

  // Parked: the shards still see the slots as occupied.
  std::vector<std::uint64_t> inner_names;
  std::size_t inner_held = array.shard(0).collect(inner_names) +
                           array.shard(1).collect(inner_names);
  CHECK(inner_held == 6);

  array.drain_caches();
  inner_names.clear();
  inner_held = array.shard(0).collect(inner_names) +
               array.shard(1).collect(inner_names);
  CHECK(inner_held == 0);
  CHECK(array.stats().cache_drains >= 1);
}

void check_global_miss_reclaims_parked() {
  current = "global-miss-reclaim";
  la::scale::ShardedConfig config;
  config.shards = 2;
  config.cache_capacity = 8;
  Sharded array = make_sharded(config, 4);  // total capacity 8
  la::rng::MarsagliaXorshift rng(3);

  // Main holds shard 0's whole gate; a live worker saturates shard 1 and
  // parks everything in its own cache — the worker must stay alive, or
  // its exit hook would flush the cache and defuse the scenario.
  std::vector<std::uint64_t> held;
  for (int i = 0; i < 4; ++i) held.push_back(array.get(rng).name);
  std::atomic<int> phase{0};
  std::thread worker([&array, &phase] {
    la::rng::MarsagliaXorshift worker_rng(4);
    std::vector<std::uint64_t> names;
    for (int i = 0; i < 4; ++i) names.push_back(array.get(worker_rng).name);
    for (const auto name : names) array.free(name);  // all parked
    phase.store(1, std::memory_order_release);
    while (phase.load(std::memory_order_acquire) < 2) {
      std::this_thread::yield();
    }
  });
  while (phase.load(std::memory_order_acquire) < 1) {
    std::this_thread::yield();
  }

  // Main's cache is empty and both gates are saturated (holds + the
  // worker's parked slots). This Get must steal-drain the worker's bins
  // and then succeed — termination, not livelock.
  const auto r = array.get(rng);
  CHECK(r.name < array.total_slots());
  held.push_back(r.name);
  CHECK(array.stats().cache_drains >= 1);
  phase.store(2, std::memory_order_release);
  worker.join();
  for (const auto name : held) array.free(name);
  std::vector<std::uint64_t> collected;
  CHECK(array.collect(collected) == 0);
}

void check_thread_exit_flush_and_slot_reuse() {
  current = "thread-exit-flush";
  la::scale::ShardedConfig config;
  config.shards = 2;
  config.cache_capacity = 8;
  config.max_threads = 2;  // force slot recycling across generations
  Sharded array = make_sharded(config, 16);

  // Generations of short-lived threads: each parks names and exits; the
  // exit hook must flush them back (else later generations starve) and
  // recycle the cache slot (else generation 3+ runs uncached).
  for (int generation = 0; generation < 6; ++generation) {
    std::thread worker([&array] {
      la::rng::MarsagliaXorshift rng(7);
      std::vector<std::uint64_t> names;
      for (int i = 0; i < 6; ++i) names.push_back(array.get(rng).name);
      for (const auto name : names) array.free(name);
      // Exits with 6 names parked in its cache.
    });
    worker.join();
    // After the join, the exited thread's cache must be empty: the
    // shards hold nothing and a collect (which drains) finds nothing.
    std::vector<std::uint64_t> collected;
    CHECK(array.collect(collected) == 0);
    std::vector<std::uint64_t> inner_names;
    CHECK(array.shard(0).collect(inner_names) +
              array.shard(1).collect(inner_names) ==
          0);
  }
  // Every generation after the first must have re-used a recycled slot
  // and still parked (i.e. it did not fall into the uncached mode).
  CHECK(array.stats().parked_frees == 6 * 6);
}

void check_uncached_overflow_mode() {
  current = "uncached-overflow";
  la::scale::ShardedConfig config;
  config.shards = 2;
  config.cache_capacity = 4;
  config.max_threads = 1;  // the main thread claims the only slot
  Sharded array = make_sharded(config, 16);
  la::rng::MarsagliaXorshift rng(9);

  // Main thread claims the slot...
  const auto first = array.get(rng);
  // ...so a second thread runs uncached: its frees go straight to the
  // shards and its gets all come from the shards, yet stay correct.
  std::thread worker([&array] {
    la::rng::MarsagliaXorshift worker_rng(10);
    std::set<std::uint64_t> names;
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 8; ++i) {
        const auto r = array.get(worker_rng);
        if (!names.insert(r.name).second) {
          throw std::logic_error("uncached worker got a duplicate");
        }
      }
      for (const auto name : names) array.free(name);
      names.clear();
    }
  });
  worker.join();
  const auto stats = array.stats();
  CHECK(stats.direct_frees == 3 * 8);
  array.free(first.name);
  std::vector<std::uint64_t> collected;
  CHECK(array.collect(collected) == 0);
}

void check_routing_edges() {
  current = "routing-edges";
  la::scale::ShardedConfig config;
  config.shards = 3;
  config.cache_capacity = 0;  // exercise the cache-disabled mode too
  Sharded array = make_sharded(config, 5);
  la::rng::MarsagliaXorshift rng(11);

  CHECK(array.num_shards() == 3);
  CHECK(array.capacity() == 15);
  // Stride is the inner slot count (10) rounded up to a power of two.
  CHECK(array.shard_stride() == 16);
  CHECK(array.total_slots() == 48);

  // A name inside the stride gap (local 10..15 of shard 0) is out of
  // range even though it is below total_slots().
  bool threw = false;
  try {
    array.free(12);
  } catch (const std::out_of_range&) {
    threw = true;
  }
  CHECK(threw);

  // With caching off, a free+get pair round-trips through the shard.
  const auto r = array.get(rng);
  array.free(r.name);
  const auto stats = array.stats();
  CHECK(stats.parked_frees == 0);
  CHECK(stats.cache_hits == 0);
  CHECK(stats.direct_frees == 1);
  CHECK(stats.shared_gets == 1);

  // Zero shards is promoted to one, and the capacity survives.
  la::scale::ShardedConfig degenerate;
  degenerate.shards = 0;
  Sharded one = make_sharded(degenerate, 4);
  CHECK(one.num_shards() == 1);
  CHECK(one.capacity() == 4);
}

// peek_held scans each shard's real slots only, not the stride padding.
// With a non-power-of-two shard size the padding is a real gap, so a scan
// bounded or offset wrongly per shard drops or renames names. At
// quiescence the held bitmap holds exactly the granted names, so the scan
// must equal them, sorted — what a byte-by-byte scan of the whole bitmap
// reads.
void check_peek_held_skips_padding() {
  current = "peek-held-padding";
  la::scale::ShardedConfig config;
  config.shards = 3;
  config.cache_capacity = 0;  // every Free reaches its shard
  Sharded array = make_sharded(config, 1000);
  la::rng::MarsagliaXorshift rng(31);
  CHECK(array.total_slots() > array.capacity() * 2);  // padded stride

  std::vector<std::uint64_t> held;
  for (std::uint64_t i = 0; i < array.capacity(); ++i) {
    held.push_back(array.get(rng).name);
  }
  for (std::size_t i = 0; i < held.size();) {
    if (rng() % 3 == 0) {
      array.free(held[i]);
      held[i] = held.back();
      held.pop_back();
    } else {
      ++i;
    }
  }
  std::sort(held.begin(), held.end());

  std::vector<std::uint64_t> peeked = {42};  // a prefix survives
  CHECK(array.peek_held(peeked) == held.size());
  CHECK(peeked.front() == 42);
  peeked.erase(peeked.begin());
  CHECK(peeked == held);
  std::vector<std::uint64_t> collected;
  CHECK(array.collect(collected) == held.size());
  CHECK(collected == held);
}

std::uint64_t gate_sum(const Sharded& array) {
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < array.num_shards(); ++s) {
    total += array.gate_occupancy(s);
  }
  return total;
}

void check_batch_partial_refusal_and_refund() {
  current = "batch-partial-refusal";
  la::scale::ShardedConfig config;
  config.shards = 4;
  config.cache_capacity = 0;  // every exchange hits the gates directly
  Sharded array = make_sharded(config, 16);  // capacity 64
  la::rng::MarsagliaXorshift rng(21);

  // Ask for more than the whole structure holds: the grant must stop at
  // capacity exactly, and the refused remainder must be refunded at the
  // gates (not leak as phantom occupancy).
  std::vector<la::GetResult> got(80);
  const std::size_t granted = array.get_batch(rng, got.data(), 80);
  CHECK(granted == 64);
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < granted; ++i) {
    CHECK(seen.insert(got[i].name).second);
    CHECK(got[i].probes >= 1);
  }
  CHECK(gate_sum(array) == 64);

  // Saturated: a further batch must refuse outright (grant zero), again
  // without disturbing the gates.
  CHECK(array.get_batch(rng, got.data(), 8) == 0);
  CHECK(gate_sum(array) == 64);

  // Free everything in one batch; with the cache off the gates must
  // read exactly empty, and the full capacity must be re-claimable.
  std::vector<std::uint64_t> names(seen.begin(), seen.end());
  array.free_batch(names.data(), names.size());
  CHECK(gate_sum(array) == 0);
  CHECK(array.get_batch(rng, got.data(), 64) == 64);
  for (std::size_t i = 0; i < 64; ++i) names[i] = got[i].name;
  array.free_batch(names.data(), 64);
  std::vector<std::uint64_t> collected;
  CHECK(array.collect(collected) == 0);
}

void check_batch_gate_accounting_with_cache() {
  current = "batch-gate-accounting";
  la::scale::ShardedConfig config;
  config.shards = 2;
  config.cache_capacity = 8;
  Sharded array = make_sharded(config, 8);  // capacity 16
  la::rng::MarsagliaXorshift rng(22);

  std::vector<la::GetResult> got(16);
  CHECK(array.get_batch(rng, got.data(), 16) == 16);
  std::vector<std::uint64_t> names;
  for (const auto& r : got) names.push_back(r.name);

  // Free 10: the first 8 park in this thread's cache (still counted at
  // the gate — parked slots are occupied), the overflow 2 release
  // directly. Gate total must be holds (6) + parked (8).
  array.free_batch(names.data(), 10);
  CHECK(gate_sum(array) == 14);
  CHECK(array.stats().parked_frees == 8);
  CHECK(array.stats().direct_frees == 2);

  // Draining the parked names must hand their gate slots back exactly.
  array.drain_caches();
  CHECK(gate_sum(array) == 6);
  array.free_batch(names.data() + 10, 6);
  array.drain_caches();
  CHECK(gate_sum(array) == 0);
  std::vector<std::uint64_t> collected;
  CHECK(array.collect(collected) == 0);
}

void check_batch_error_contract() {
  current = "batch-error-contract";
  la::scale::ShardedConfig config;
  config.shards = 2;
  config.cache_capacity = 4;
  Sharded array = make_sharded(config, 8);
  la::rng::MarsagliaXorshift rng(23);

  std::vector<la::GetResult> got(3);
  CHECK(array.get_batch(rng, got.data(), 3) == 3);

  // A bad name mid-batch: names before it are freed, the throw surfaces,
  // names after it stay held.
  std::uint64_t bad_batch[3] = {got[0].name, array.total_slots() + 7,
                                got[1].name};
  bool threw = false;
  try {
    array.free_batch(bad_batch, 3);
  } catch (const std::out_of_range&) {
    threw = true;
  }
  CHECK(threw);
  std::vector<std::uint64_t> collected;
  CHECK(array.collect(collected) == 2);
  std::set<std::uint64_t> left(collected.begin(), collected.end());
  CHECK(left.count(got[1].name) == 1);
  CHECK(left.count(got[2].name) == 1);

  // A duplicate within one batch is a double free: the first occurrence
  // frees, the second throws.
  std::uint64_t dup_batch[2] = {got[1].name, got[1].name};
  threw = false;
  try {
    array.free_batch(dup_batch, 2);
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);
  collected.clear();
  CHECK(array.collect(collected) == 1);
  CHECK(collected[0] == got[2].name);
  array.free(got[2].name);
  collected.clear();
  CHECK(array.collect(collected) == 0);
}

void check_rehome_refusals_per_fill() {
  current = "rehome-refusals-per-fill";
  la::scale::ShardedConfig config;
  config.shards = 4;
  config.cache_capacity = 16;
  constexpr std::uint64_t kShard = 64;
  Sharded array = make_sharded(config, kShard);  // capacity 256
  la::rng::MarsagliaXorshift rng(31);

  // One thread fills three shards and half of a fourth. Each time its
  // home reaches its bound, the next Get is refused there once and the
  // thread moves on. A fixed home would be refused by every later Get:
  // 64 + 2*64 + 3*32 = 288 refusals.
  std::vector<std::uint64_t> held;
  std::uint64_t fills = 0;
  for (std::uint64_t i = 0; i < 3 * kShard + kShard / 2; ++i) {
    held.push_back(array.get(rng).name);
    if ((i + 1) % kShard == 0) ++fills;
  }
  const std::uint64_t refusals = array.stats().shard_refusals;
  // A re-home may draw a shard that is already full, which refuses once
  // more; a handful per fill, never one per Get.
  CHECK(refusals >= fills);
  CHECK(refusals <= 4 * fills);
  for (std::uint32_t s = 0; s < array.num_shards(); ++s) {
    CHECK(array.gate_occupancy(s) <= kShard);
  }
  array.free_batch(held.data(), held.size());
  std::vector<std::uint64_t> collected;
  CHECK(array.collect(collected) == 0);
}

// Three threads prefill half the capacity of eight shards, each taking
// 4/3 of a shard, so each home reaches its bound. `sequential` hands the
// turn from thread to thread (all three stay alive, so each keeps its
// cache slot and home); otherwise they race.
void prefill_three_threads(Sharded& array, bool sequential,
                           std::vector<std::uint64_t>& held) {
  const std::uint64_t share = array.capacity() / 2 / 3;
  std::vector<std::vector<std::uint64_t>> names(3);
  std::atomic<int> turn{0};
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      la::rng::MarsagliaXorshift rng(40 + static_cast<std::uint64_t>(t));
      // Attach in thread order, so thread t owns cache slot t (home t).
      while (turn.load(std::memory_order_acquire) != t) {
        std::this_thread::yield();
      }
      names[t].push_back(array.get(rng).name);
      if (!sequential) turn.store(t + 1, std::memory_order_release);
      for (std::uint64_t i = 1; i < share; ++i) {
        names[t].push_back(array.get(rng).name);
      }
      if (sequential) turn.store(t + 1, std::memory_order_release);
      done.fetch_add(1, std::memory_order_acq_rel);
      // Stay alive until every share is in: an exit would flush this
      // thread's cache and hand its slot (and home) to the next thread.
      while (done.load(std::memory_order_acquire) < 3) {
        std::this_thread::yield();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& mine : names) held.insert(held.end(), mine.begin(), mine.end());
}

void check_rehome_spreads_prefill() {
  current = "rehome-spreads-prefill";
  la::scale::ShardedConfig config;
  config.shards = 8;
  config.cache_capacity = 16;
  constexpr std::uint64_t kShard = 96;  // divisible by 3: shares are exact
  for (const bool sequential : {true, false}) {
    Sharded array = make_sharded(config, kShard);
    std::vector<std::uint64_t> held;
    prefill_three_threads(array, sequential, held);
    CHECK(held.size() == 4 * kShard);
    std::set<std::uint64_t> unique(held.begin(), held.end());
    CHECK(unique.size() == held.size());
    CHECK(gate_sum(array) == 4 * kShard);
    // Each thread pays about one refusal per home fill; a fixed home
    // pays one for every Get past it (3 * 32 here, more on full rings).
    CHECK(array.stats().shard_refusals <= 3 * config.shards);
    if (sequential) {
      // The homes (shards 0..2) must fill before any refusal; with a
      // fixed home the overflow then piles onto the ring neighbour and
      // shard 3 ends at its bound too: 96 96 96 96 0 0 0 0. Re-homed,
      // the overflow spreads, so no shard other than a home reaches its
      // bound while another shard is still empty.
      std::uint64_t empty = 0;
      for (std::uint32_t s = 0; s < array.num_shards(); ++s) {
        if (array.gate_occupancy(s) == 0) ++empty;
      }
      for (std::uint32_t s = 3; s < array.num_shards(); ++s) {
        CHECK(empty == 0 || array.gate_occupancy(s) < kShard);
      }
    }
    array.free_batch(held.data(), held.size());
    std::vector<std::uint64_t> collected;
    CHECK(array.collect(collected) == 0);
    CHECK(gate_sum(array) == 0);
  }
}

void check_batch_fallback_surface() {
  current = "batch-fallback";
  // A structure with no native batch ops rides the api loop: full grant,
  // unique names, frees restore emptiness.
  la::arrays::RandomArray array(32, 16);
  la::rng::MarsagliaXorshift rng(24);
  std::vector<la::GetResult> got(10);
  CHECK(la::api::get_batch(array, rng, got.data(), 10) == 10);
  std::set<std::uint64_t> seen;
  std::vector<std::uint64_t> names;
  for (const auto& r : got) {
    CHECK(seen.insert(r.name).second);
    names.push_back(r.name);
  }
  la::api::free_batch(array, names.data(), names.size());
  std::vector<std::uint64_t> collected;
  CHECK(array.collect(collected) == 0);
}

}  // namespace

int main() {
  check_cache_hits_and_flush();
  check_drain_restores_shards();
  check_global_miss_reclaims_parked();
  check_thread_exit_flush_and_slot_reuse();
  check_uncached_overflow_mode();
  check_routing_edges();
  check_peek_held_skips_padding();
  check_batch_partial_refusal_and_refund();
  check_batch_gate_accounting_with_cache();
  check_batch_error_contract();
  check_batch_fallback_surface();
  check_rehome_refusals_per_fill();
  check_rehome_spreads_prefill();

  if (failures != 0) {
    std::fprintf(stderr, "%d sharded scale-layer check(s) failed\n",
                 failures);
    return 1;
  }
  std::puts("test_sharded: OK");
  return 0;
}
