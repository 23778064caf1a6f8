// The third backoff tier and the blocked-Get park/wake path it enables:
// tier transitions of sync::Backoff itself, a ShardedRenamer Get that
// provably parks on the structure's wait queue and is woken by a Free
// (not by a timeout — we wait for the parks counter before releasing, so
// a lost wakeup would hang the test into its ctest timeout), and an
// oversubscribed batched churn (demand far above the contention bound)
// that must run to completion through the structure's park tier, and
// ops-mode churn whose per-exchange deadlines must expire.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/renamer.hpp"
#include "bench_util/algos.hpp"
#include "core/level_array.hpp"
#include "rng/rng.hpp"
#include "scale/sharded.hpp"
#include "sync/spin_barrier.hpp"

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

Sharded make_sharded(std::uint32_t shards, std::uint64_t shard_capacity) {
  la::scale::ShardedConfig config;
  config.shards = shards;
  return Sharded(config, [shard_capacity](std::uint32_t) {
    la::core::LevelArrayConfig inner;
    inner.capacity = shard_capacity;
    return std::make_unique<la::core::LevelArray>(inner);
  });
}

void check_backoff_tiers() {
  current = "backoff-tiers";
  la::sync::Backoff backoff;
  CHECK(!backoff.should_park());
  // Spin tier (256) + yield tier (64): parking is advised only after
  // both are spent, and one pause short of the boundary is still "spin".
  for (int i = 0; i < 319; ++i) backoff.pause();
  CHECK(!backoff.should_park());
  backoff.pause();
  CHECK(backoff.should_park());
  // Once over the boundary it stays advised until reset.
  backoff.pause();
  CHECK(backoff.should_park());
  backoff.reset();
  CHECK(!backoff.should_park());
}

// A Get against a fully-held array must park on the structure's wait
// queue and be woken by the Free. The releasing thread waits until the
// getter has provably parked (wait_stats().parks advances) before
// freeing, so the wake cannot be explained by the spin or yield tiers:
// if the wakeup were lost, the getter would sleep and the test would
// hang.
void check_parked_get_woken_by_free() {
  current = "parked-get-woken-by-free";
  Sharded array = make_sharded(2, 4);  // contention bound 8
  la::rng::MarsagliaXorshift rng(3);

  std::vector<std::uint64_t> held;
  for (int i = 0; i < 8; ++i) held.push_back(array.get(rng).name);

  const std::uint64_t before_parks = array.wait_stats().parks;
  std::atomic<bool> got{false};
  std::atomic<std::uint64_t> got_name{0};
  std::thread getter([&] {
    la::rng::MarsagliaXorshift rng2(5);
    const la::GetResult r = array.get(rng2);  // blocks until capacity
    got_name.store(r.name, std::memory_order_relaxed);
    got.store(true, std::memory_order_release);
  });

  // Wait for a real park, then assert the getter is still blocked.
  la::sync::Backoff backoff;
  while (array.wait_stats().parks == before_parks) backoff.pause();
  CHECK(!got.load(std::memory_order_acquire));

  array.free(held.back());
  getter.join();
  CHECK(got.load(std::memory_order_acquire));
  held.pop_back();
  // The woken Get may land on any free slot (L = 2n leaves slack), but
  // never on one still held.
  for (const auto name : held) {
    CHECK(got_name.load(std::memory_order_relaxed) != name);
  }

  const la::api::WaitStats waits = array.wait_stats();
  CHECK(waits.parks > before_parks);
  CHECK(waits.wait_rounds >= waits.parks);  // rounds precede every park

  for (const auto name : held) array.free(name);
  std::vector<std::uint64_t> leftovers;
  CHECK(array.collect(leftovers) == 1);  // the getter's name
  array.free(got_name.load(std::memory_order_relaxed));
}

// Oversubscription through the real drive loop: 4 threads churning
// batches of 8 against a contention bound of 24 — steady-state demand
// (32) structurally exceeds the bound, so refusals are constant and
// threads cycle through the park tier. Timed mode, because that is the
// drive loop's oversubscription contract: each exchange waits at most
// until the run's end, which guarantees exit even when a full batch
// never fits.
//
// Then the drive loop's per-exchange deadlines in ops mode, single and
// batched: every name starts pinned by a holder thread, so each Get
// must time out on its 2 ms budget until the structure has reported a
// timed-out refusal and the holder lets go; the run then churns
// (batch 8 oversubscribed again) to its op budget and drains.
void check_oversubscribed_churn_completes() {
  current = "oversubscribed-churn";
  {
    Sharded array = make_sharded(4, 6);  // contention bound 24
    la::bench::DriverConfig driver;
    driver.threads = 4;
    driver.emulation_multiplier = 8;  // demand N = 32 > the bound
    driver.prefill = 0.5;             // 16 held up front, within the bound
    driver.ops_per_thread = 0;
    driver.seconds = 0.25;
    driver.batch = 8;
    const la::bench::RunResult result = la::bench::run_churn(array, driver);
    CHECK(result.total_ops > 0);
    // The refusal traffic must be visible in the wait accounting (the
    // structure's own gate rounds fold in via api::WaitStats), and the
    // waits must reach the park tier of the structure's FIFO queue —
    // the only wait mechanism the drive loop uses for a gate-bounded
    // array.
    CHECK(result.gate_wait_rounds > 0);
    CHECK(result.gate_parks > 0);
    std::vector<std::uint64_t> leftovers;
    CHECK(array.collect(leftovers) == 0);
  }
  for (const std::uint64_t batch : {1u, 8u}) {
    current = "deadline-churn/batch=" + std::to_string(batch);
    Sharded array = make_sharded(4, 6);
    la::rng::MarsagliaXorshift rng(11);
    std::vector<std::uint64_t> pinned;
    for (int i = 0; i < 24; ++i) pinned.push_back(array.get(rng).name);
    std::thread holder([&] {
      la::sync::Backoff backoff;
      while (array.wait_stats().timeouts == 0) backoff.pause();
      for (const auto name : pinned) array.free(name);
    });
    la::bench::DriverConfig driver;
    driver.threads = 4;
    driver.emulation_multiplier = 8;
    driver.prefill = 0.0;  // the untimed prefill would block on the pins
    driver.ops_per_thread = 4000;
    driver.batch = batch;
    driver.deadline_ns = 2'000'000;
    const la::bench::RunResult result = la::bench::run_churn(array, driver);
    holder.join();
    CHECK(result.timeouts > 0);
    CHECK(result.total_ops >= 4 * driver.ops_per_thread);
    std::vector<std::uint64_t> leftovers;
    CHECK(array.collect(leftovers) == 0);
  }
}

}  // namespace

int main() {
  check_backoff_tiers();
  check_parked_get_woken_by_free();
  check_oversubscribed_churn_completes();
  if (failures == 0) {
    std::printf("test_backoff_park: all checks passed\n");
    return 0;
  }
  std::printf("test_backoff_park: %d check(s) FAILED\n", failures);
  return 1;
}
