// Bounded-wait Gets across the stack: api::get_for / get_batch_for must
// return a *timed-out refusal* — false / 0, counted in
// WaitStats::timeouts — when the structure sits at capacity past the
// absolute deadline, and must grant promptly once capacity exists.
// Checked at three layers:
//
//   * api dispatch: structures without the native surface fall back to
//     the untimed ops (and has_deadline_ops_v says so at compile time);
//   * scale::ShardedRenamer: a full structure refuses get_for and
//     get_batch_for at (not before) the deadline via the FIFO WaitQueue
//     park, and one Free is enough to turn the next timed Get around;
//   * svc::ServiceRenamer: the deadline travels the wire and the
//     *server's* pending-list expiry produces the refusal
//     (Status::kTimedOut -> false), visible in pending_expired.
//
// Plus a multi-thread oversubscribed churn whose termination proves
// liveness: every timed Get either grants or expires; nothing wedges.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/renamer.hpp"
#include "core/level_array.hpp"
#include "rng/rng.hpp"
#include "scale/sharded.hpp"
#include "svc/service.hpp"
#include "sync/futex.hpp"

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

std::uint64_t now_ns() { return la::sync::FutexWord::monotonic_now_ns(); }

Sharded make_sharded(std::uint64_t capacity, std::uint32_t shards) {
  la::scale::ShardedConfig cfg;
  cfg.shards = shards;
  la::core::LevelArrayConfig level;
  level.capacity = capacity / shards;
  return Sharded(cfg, [&level](std::uint32_t) {
    return std::make_unique<la::core::LevelArray>(level);
  });
}

// The deadline surface is native where it must be, absent where the
// untimed fallback is the only sound option.
static_assert(la::api::has_deadline_ops_v<Sharded>,
              "ShardedRenamer must expose native get_for/get_batch_for");
static_assert(!la::api::has_deadline_ops_v<la::core::LevelArray>,
              "LevelArray has no native deadline surface (fallback only)");
static_assert(la::api::has_deadline_ops_v<la::svc::ServiceRenamer<Sharded>>,
              "ServiceRenamer must forward the deadline surface");

// --- api fallback dispatch ----------------------------------------------

void test_api_fallback() {
  current = "api_fallback";
  la::core::LevelArrayConfig cfg;
  cfg.capacity = 32;
  la::core::LevelArray array(cfg);
  la::rng::MarsagliaXorshift rng(3);
  // Below capacity the fallback (plain get) must grant; the deadline is
  // advisory there by design.
  la::GetResult r;
  CHECK(la::api::get_for(array, rng, r, now_ns() + 1'000'000));
  CHECK(r.name < array.total_slots());
  la::GetResult batch[4];
  const std::size_t got =
      la::api::get_batch_for(array, rng, batch, 4, now_ns() + 1'000'000);
  CHECK(got >= 1);
  array.free(r.name);
  for (std::size_t i = 0; i < got; ++i) array.free(batch[i].name);
}

// --- ShardedRenamer: expiry at the deadline, grant after a Free ----------

void test_sharded_expiry() {
  current = "sharded_expiry";
  constexpr std::uint64_t kCapacity = 64;
  constexpr std::uint64_t kDeadlineNs = 40'000'000;  // 40ms
  Sharded structure = make_sharded(kCapacity, 4);
  la::rng::MarsagliaXorshift rng(7);

  // Exhaust the contention bound.
  std::vector<la::GetResult> held(kCapacity);
  std::size_t have = 0;
  while (have < kCapacity) {
    have += structure.get_batch(rng, held.data() + have, kCapacity - have);
  }
  CHECK(have == kCapacity);

  // Full structure: the timed Get must refuse at (not before) the
  // deadline, and count the timeout.
  {
    la::GetResult r;
    const std::uint64_t t0 = now_ns();
    CHECK(!structure.get_for(rng, r, t0 + kDeadlineNs));
    const std::uint64_t elapsed = now_ns() - t0;
    CHECK(elapsed >= kDeadlineNs - 2'000'000);
    CHECK(elapsed < 5'000'000'000ull);
    CHECK(structure.wait_stats().timeouts >= 1);
  }
  {
    la::GetResult batch[8];
    const std::uint64_t t0 = now_ns();
    CHECK(structure.get_batch_for(rng, batch, 8, t0 + kDeadlineNs) == 0);
    CHECK(now_ns() - t0 >= kDeadlineNs - 2'000'000);
    CHECK(structure.wait_stats().timeouts >= 2);
  }

  // One Free is enough: the next timed Get grants well within a generous
  // deadline instead of expiring.
  structure.free(held.back().name);
  held.pop_back();
  la::GetResult r;
  CHECK(structure.get_for(rng, r, now_ns() + 2'000'000'000ull));
  held.push_back(r);

  for (const auto& h : held) structure.free(h.name);
  std::vector<std::uint64_t> leftovers;
  CHECK(structure.collect(leftovers) == 0);
}

// --- oversubscribed churn liveness ---------------------------------------

void test_oversub_liveness() {
  current = "oversub_liveness";
  constexpr std::uint64_t kCapacity = 64;
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kTarget = 24;  // 4 * 24 = 96 > 64: oversubscribed
  constexpr std::uint64_t kIters = 1500;
  Sharded structure = make_sharded(kCapacity, 4);
  std::atomic<std::uint64_t> timeouts{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      la::rng::MarsagliaXorshift rng(100 + t);
      std::vector<std::uint64_t> held;
      held.reserve(kTarget);
      std::uint64_t local_timeouts = 0;
      for (std::uint64_t i = 0; i < kIters; ++i) {
        if (!held.empty() &&
            (held.size() >= kTarget || la::rng::bounded(rng, 4) == 0)) {
          const std::uint64_t victim = la::rng::bounded(rng, held.size());
          structure.free(held[victim]);
          held[victim] = held.back();
          held.pop_back();
          continue;
        }
        la::GetResult r;
        if (structure.get_for(rng, r, now_ns() + 2'000'000)) {
          held.push_back(r.name);
        } else {
          ++local_timeouts;
        }
      }
      for (const auto name : held) structure.free(name);
      timeouts.fetch_add(local_timeouts, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  // Termination is the liveness assertion; quiescence closes the books.
  std::vector<std::uint64_t> leftovers;
  CHECK(structure.collect(leftovers) == 0);
  // The structure's own count covers at least what the callers saw.
  CHECK(structure.wait_stats().timeouts >=
        timeouts.load(std::memory_order_relaxed));
}

// --- svc: the deadline travels the wire, the server enforces it ----------

void test_svc_expiry() {
  current = "svc_expiry";
  constexpr std::uint64_t kCapacity = 64;
  constexpr std::uint64_t kDeadlineNs = 80'000'000;  // 80ms
  la::svc::SegmentConfig cfg;
  cfg.max_clients = 4;
  la::svc::ServiceRenamer<Sharded> svc(cfg, [] {
    la::scale::ShardedConfig scfg;
    scfg.shards = 4;
    la::core::LevelArrayConfig level;
    level.capacity = kCapacity / scfg.shards;
    return std::make_unique<Sharded>(scfg, [&level](std::uint32_t) {
      return std::make_unique<la::core::LevelArray>(level);
    });
  });
  la::rng::MarsagliaXorshift rng(11);
  CHECK(svc.capacity() == kCapacity);

  std::vector<la::GetResult> held(kCapacity);
  std::size_t have = 0;
  while (have < kCapacity) {
    have += svc.get_batch(rng, held.data() + have, kCapacity - have);
  }
  CHECK(have == kCapacity);

  // Exhausted: the request parks on the *server's* pending list and is
  // answered kTimedOut at the deadline — not at the next 50ms heartbeat
  // only, and never granted.
  {
    la::GetResult r;
    const std::uint64_t t0 = now_ns();
    CHECK(!svc.get_for(rng, r, t0 + kDeadlineNs));
    const std::uint64_t elapsed = now_ns() - t0;
    CHECK(elapsed >= kDeadlineNs - 2'000'000);
    CHECK(elapsed < 5'000'000'000ull);
  }
  {
    la::GetResult batch[8];
    CHECK(svc.get_batch_for(rng, batch, 8, now_ns() + 30'000'000) == 0);
  }
  CHECK(svc.wait_stats().timeouts >= 2);
  CHECK(svc.server_stats().pending_expired >= 2);

  // Capacity back: the timed path grants again.
  svc.free(held.back().name);
  held.pop_back();
  la::GetResult r;
  CHECK(svc.get_for(rng, r, now_ns() + 2'000'000'000ull));
  held.push_back(r);

  for (const auto& h : held) svc.free(h.name);
  std::vector<std::uint64_t> leftovers;
  CHECK(svc.collect(leftovers) == 0);
}

}  // namespace

int main() {
  test_api_fallback();
  test_sharded_expiry();
  test_oversub_liveness();
  test_svc_expiry();
  if (failures == 0) {
    std::printf("test_deadlines: all checks passed\n");
    return 0;
  }
  std::printf("test_deadlines: %d check(s) FAILED\n", failures);
  return 1;
}
