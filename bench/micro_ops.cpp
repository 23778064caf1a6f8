// micro_ops — google-benchmark micro-latency suite for the individual
// operations: Get/Free pairs and batched Get-k/Free-k exchanges for every
// registered structure (registry-dispatched, so new entries are covered
// automatically), the sharded hot paths (cache park/pop, steal-drain,
// the svc worker's two-client batch cycle), Collect at varying sizes up
// to perfbench's shape, each append_held body on that shape, and the raw
// substrate costs (TAS, RNG draw) that bound them.
// Complements the figure benches with per-operation nanosecond numbers.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "core/level_array.hpp"
#include "core/slot_scan.hpp"
#include "rng/rng.hpp"
#include "scale/sharded.hpp"
#include "sync/spin_barrier.hpp"
#include "sync/tas_cell.hpp"

namespace {

using namespace la;

// ------------------------------------------------------------- substrates

void BM_TasCellAcquireRelease(benchmark::State& state) {
  sync::TasCell cell;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cell.try_acquire());
    cell.release();
  }
}
BENCHMARK(BM_TasCellAcquireRelease);

void BM_MarsagliaDraw(benchmark::State& state) {
  rng::MarsagliaXorshift rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_MarsagliaDraw);

void BM_LehmerDraw(benchmark::State& state) {
  rng::Lehmer rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_LehmerDraw);

void BM_BoundedDraw(benchmark::State& state) {
  rng::MarsagliaXorshift rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng::bounded(rng, 1536));
  }
}
BENCHMARK(BM_BoundedDraw);

// --------------------------------------- registry-wide Get/Free latency

// One registry-standard sweep point for the latency benches: capacity n
// preloaded to 50%, the regime the figure benches churn in.
api::RenamerConfig micro_config(std::uint64_t capacity) {
  api::RenamerConfig cfg;
  cfg.capacity = capacity;
  return cfg;
}

// Each iteration is one Get+Free pair on an array pre-loaded to half
// capacity — the single-op baseline the batch benches amortize against.
template <typename Structure>
void run_get_free(benchmark::State& state, Structure& array) {
  rng::MarsagliaXorshift rng(7);
  std::vector<std::uint64_t> held;
  for (std::uint64_t i = 0; i < array.capacity() / 2; ++i) {
    held.push_back(array.get(rng).name);
  }
  std::uint64_t probes = 0;
  for (auto _ : state) {
    const auto result = array.get(rng);
    probes += result.probes;
    array.free(result.name);
  }
  state.counters["probes/op"] = benchmark::Counter(
      static_cast<double>(probes), benchmark::Counter::kAvgIterations);
  for (const auto name : held) array.free(name);
}

// Each iteration is one Get-k/Free-k exchange (native batch surface where
// the structure has one, the api fallback loop elsewhere). A gate-bounded
// structure may grant partially; retry the remainder under Backoff like
// the churn driver does. items_processed counts individual ops, so
// items/s is directly comparable with 2x the BM_GetFree rate.
template <typename Structure>
void run_batch_get_free(benchmark::State& state, Structure& array,
                        std::size_t k) {
  rng::MarsagliaXorshift rng(7);
  std::vector<std::uint64_t> held;
  for (std::uint64_t i = 0; i < array.capacity() / 2; ++i) {
    held.push_back(array.get(rng).name);
  }
  std::vector<GetResult> got(k);
  std::vector<std::uint64_t> names(k);
  for (auto _ : state) {
    std::size_t have = 0;
    sync::Backoff backoff;
    while (have < k) {
      const std::size_t granted =
          api::get_batch(array, rng, got.data() + have, k - have);
      have += granted;
      if (have < k) backoff.pause();
    }
    for (std::size_t i = 0; i < k; ++i) names[i] = got[i].name;
    api::free_batch(array, names.data(), k);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * k));
  for (const auto name : held) array.free(name);
}

// Registered at static-init via RegisterBenchmark (the BENCHMARK macro
// can't enumerate a runtime registry); benchmark_main picks these up
// exactly like the macro-registered ones above.
int register_registry_benches() {
  for (const auto& info : api::registered_structures()) {
    const std::string name(info.name);
    benchmark::RegisterBenchmark(
        ("BM_GetFree/" + name).c_str(), [name](benchmark::State& state) {
          api::visit(name, micro_config(1024),
                     [&state](auto& array) { run_get_free(state, array); });
        });
    benchmark::RegisterBenchmark(
        ("BM_BatchGetFree/" + name).c_str(),
        [name](benchmark::State& state) {
          api::visit(name, micro_config(1024), [&state](auto& array) {
            run_batch_get_free(state, array,
                               static_cast<std::size_t>(state.range(0)));
          });
        })
        ->Arg(4)
        ->Arg(16)
        ->Arg(64);
  }
  return 0;
}
const int kRegistryBenches = register_registry_benches();

// ------------------------------------------------- sharded hot paths

scale::ShardedRenamer<core::LevelArray> make_sharded(
    std::uint32_t cache_capacity) {
  scale::ShardedConfig config;
  config.shards = 8;
  config.cache_capacity = cache_capacity;
  return scale::ShardedRenamer<core::LevelArray>(
      config, [](std::uint32_t) {
        core::LevelArrayConfig inner;
        inner.capacity = 128;
        return std::make_unique<core::LevelArray>(inner);
      });
}

// The cached churn pair: Free parks the name in the thread's bin, the
// next Get pops it back — the hot path that makes the scale layer fast.
void BM_ShardedCacheParkPop(benchmark::State& state) {
  auto array = make_sharded(/*cache_capacity=*/16);
  rng::MarsagliaXorshift rng(7);
  std::uint64_t name = array.get(rng).name;
  for (auto _ : state) {
    array.free(name);
    name = array.get(rng).name;
  }
  array.free(name);
}
BENCHMARK(BM_ShardedCacheParkPop);

// The reclaim cycle: Free-k parks a whole batch, drain_caches() steals
// every bin back to its shard (the collect()/global-miss path), Get-k
// re-claims from the shards. Bounds the cost a collect pays per parked
// name.
void BM_ShardedStealDrain(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  auto array = make_sharded(/*cache_capacity=*/64);
  rng::MarsagliaXorshift rng(7);
  std::vector<GetResult> got(k);
  std::vector<std::uint64_t> names(k);
  std::size_t have = 0;
  sync::Backoff warmup;
  while (have < k) {
    have += api::get_batch(array, rng, got.data() + have, k - have);
    if (have < k) warmup.pause();
  }
  for (std::size_t i = 0; i < k; ++i) names[i] = got[i].name;
  for (auto _ : state) {
    array.free_batch(names.data(), k);   // park into the thread bin
    array.drain_caches();                // steal the bin back to shards
    std::size_t refill = 0;
    sync::Backoff backoff;
    while (refill < k) {
      refill += array.get_batch(rng, got.data() + refill, k - refill);
      if (refill < k) backoff.pause();
    }
    for (std::size_t i = 0; i < k; ++i) names[i] = got[i].name;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k));
  array.free_batch(names.data(), k);
}
BENCHMARK(BM_ShardedStealDrain)->Arg(16)->Arg(64);

// The svc worker's pattern with two clients on one thread: Free-16,
// Free-16, Get-16, Get-16, half of the capacity held. The first Free
// fills the 16-bin cache and the second overflows to the shards; the
// first Get pops the cache and the second claims from the home shard,
// which the prefill left at its bound unless the thread re-homes.
// refusals/iter counts the gate refusals each cycle pays.
void BM_ShardedTwoClientBatch(benchmark::State& state) {
  constexpr std::size_t kBatch = 16;
  auto array = make_sharded(/*cache_capacity=*/16);
  rng::MarsagliaXorshift rng(7);
  std::vector<std::uint64_t> held;
  for (std::uint64_t i = 0; i < array.capacity() / 2; ++i) {
    held.push_back(array.get(rng).name);
  }
  std::vector<GetResult> got(2 * kBatch);
  std::vector<std::uint64_t> names(2 * kBatch);
  auto get_batch = [&](GetResult* out) {
    std::size_t have = 0;
    sync::Backoff backoff;
    while (have < kBatch) {
      have += array.get_batch(rng, out + have, kBatch - have);
      if (have < kBatch) backoff.pause();
    }
  };
  get_batch(got.data());
  get_batch(got.data() + kBatch);
  const std::uint64_t refusals_before = array.stats().shard_refusals;
  for (auto _ : state) {
    for (std::size_t i = 0; i < 2 * kBatch; ++i) names[i] = got[i].name;
    array.free_batch(names.data(), kBatch);
    array.free_batch(names.data() + kBatch, kBatch);
    get_batch(got.data());
    get_batch(got.data() + kBatch);
    benchmark::DoNotOptimize(got.data());
  }
  state.counters["refusals/iter"] = benchmark::Counter(
      static_cast<double>(array.stats().shard_refusals - refusals_before),
      benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(4 * kBatch));
  for (std::size_t i = 0; i < 2 * kBatch; ++i) names[i] = got[i].name;
  array.free_batch(names.data(), 2 * kBatch);
  array.free_batch(held.data(), held.size());
}
BENCHMARK(BM_ShardedTwoClientBatch);

// ---------------------------------------------------------------- Collect

void BM_Collect(benchmark::State& state) {
  core::LevelArrayConfig config;
  config.capacity = static_cast<std::uint64_t>(state.range(0));
  core::LevelArray array(config);
  rng::MarsagliaXorshift rng(3);
  std::vector<std::uint64_t> held;
  for (std::uint64_t i = 0; i < config.capacity / 2; ++i) {
    held.push_back(array.get(rng).name);
  }
  std::vector<std::uint64_t> out;
  out.reserve(array.total_slots());
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(array.collect(out));
  }
  state.counters["slots"] =
      benchmark::Counter(static_cast<double>(array.total_slots()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(array.total_slots()));
  for (const auto name : held) array.free(name);
}
// The last size is perfbench's flat-churn-collect shape: N = 3 * 2^20,
// 6 Mi slots, 25% of them held.
BENCHMARK(BM_Collect)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(3 << 20)
    ->Unit(benchmark::kMicrosecond);

// One row per append_held body on the same shape: 2 * 3 * 2^20 slots, a
// random 25% of them held. `bytes` is the per-byte reference loop.
using AppendBody = std::size_t (*)(const sync::TasCell*, std::uint64_t,
                                   std::vector<std::uint64_t>&,
                                   std::uint64_t);

std::size_t append_held_bytes(const sync::TasCell* cells, std::uint64_t n,
                              std::vector<std::uint64_t>& out,
                              std::uint64_t base) {
  const std::size_t before = out.size();
  core::slot_scan::for_each_held_bytewise(
      cells, n, [&](std::uint64_t i) { out.push_back(base + i); });
  return out.size() - before;
}

AppendBody avx512_body() {
#if defined(LA_SLOT_SCAN_AVX512)
  if (core::slot_scan::avx512_supported()) {
    return &core::slot_scan::append_held_avx512;
  }
#endif
  return nullptr;
}

void BM_AppendHeld(benchmark::State& state, AppendBody body) {
  if (body == nullptr) {
    state.SkipWithError("body not available in this build or on this CPU");
    return;
  }
  const std::uint64_t slots = 2 * (std::uint64_t{3} << 20);
  std::vector<sync::TasCell> cells(slots);
  rng::MarsagliaXorshift rng(5);
  for (auto& cell : cells) {
    if (rng::bounded(rng, 4) == 0) cell.try_acquire();
  }
  std::vector<std::uint64_t> out;
  out.reserve(slots);
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(body(cells.data(), slots, out, 0));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(slots));
}
BENCHMARK_CAPTURE(BM_AppendHeld, bytes, &append_held_bytes)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_AppendHeld, words,
                  &core::slot_scan::append_held_words)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_AppendHeld, avx512, avx512_body())
    ->Unit(benchmark::kMicrosecond);

}  // namespace
