// migrate_churn — live re-sharding migration under churn: N in-process
// client threads drive batched Get-k/Free-k through the shared-memory
// wire protocol against one Server<ckpt::AnyRenamer>, and mid-run the
// main thread calls Server::migrate to swap the structure underneath
// them — sharded:level with S shards becomes sharded:linear with 2S
// shards (same per-shard inner capacity, so every held name still
// routes) via api::save → rebuild → api::restore → AnyRenamer::replace.
//
// Clients never learn a migration happened: names acquired before the
// swap are freed after it through the new structure (name identity is
// the api::restore contract), every request in flight during the
// quiesce parks and retries against the new shape, and the merged
// per-thread event trace — which spans the migration boundary — must
// replay cleanly through stress::check_trace.
//
//   migrate_churn --threads=4 --ops=60000 --batch=8
//   migrate_churn --threads=4 --json=BENCH_migrate.json
//
// Reported next to each other: pre-migration and post-migration
// throughput (each thread splits its op count when it first observes
// the migrated flag), the coordinator's migrate() pause, and the number
// of names carried across. Exit status is the number of failed checks,
// so scripts/check.sh and CI gate on it directly; the JSON feeds
// validate_bench_json.py --migrate-gate.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arrays/linear_probing_array.hpp"
#include "bench_util/churn_exchange.hpp"
#include "bench_util/options.hpp"
#include "bench_util/report.hpp"
#include "bench_util/timing.hpp"
#include "ckpt/any_renamer.hpp"
#include "ckpt/image.hpp"
#include "api/snapshot.hpp"
#include "core/level_array.hpp"
#include "rng/rng.hpp"
#include "scale/sharded.hpp"
#include "stress/invariants.hpp"
#include "svc/client.hpp"
#include "svc/segment.hpp"
#include "svc/server.hpp"
#include "sync/spin_barrier.hpp"

namespace {

using namespace la;

constexpr std::uint64_t kNsPerSec = 1'000'000'000ull;

struct ThreadResult {
  stress::EventLog log;
  std::uint64_t ops_pre = 0;
  std::uint64_t ops_post = 0;
  double secs_pre = 0.0;
  double secs_post = 0.0;
};

// One client thread's churn loop: churn_exchange Free-k then Get-k
// bounded by its share, every op ticketed into the local event log
// (Free before the release, Get after the grant — see
// stress/event_log.hpp). Every op, prefill included, is published to
// `global_ops`, the coordinator's progress signal. The thread splits its
// op/elapsed counters the first time it observes the migrated flag, and
// holds its names across the boundary: the drain at the end waits for
// the migration, so every thread's trace spans it.
void churn(svc::SegmentView seg, stress::EpochClock& clock,
           std::uint32_t idx, std::uint64_t ops_target, std::uint64_t share,
           std::uint64_t batch, std::uint64_t seed,
           std::atomic<std::uint64_t>& global_ops,
           const std::atomic<std::uint32_t>& migrated, ThreadResult& r) {
  svc::Client client(seg);
  rng::MarsagliaXorshift rng(rng::mix_seed(seed, idx + 1));
  r.log.reserve(ops_target + 2 * share);
  bench::ChurnStash stash;
  std::uint64_t ops = 0;
  bool saw_migrate = false;
  const auto on_free = [&](std::uint64_t name) {
    r.log.record(clock, idx, stress::Op::kFree, name);
  };
  const auto on_get = [&](const GetResult& g) {
    r.log.record(clock, idx, stress::Op::kGet, g.name);
  };
  // Free up to `free_k`, then refill by a batch without passing `share`.
  const auto exchange = [&](std::size_t free_k) {
    const std::size_t held = stash.names.size();
    const std::size_t kept = held - std::min<std::size_t>(held, free_k);
    const std::size_t want = std::min<std::size_t>(batch, share - kept);
    const bench::ExchangeResult x = bench::churn_exchange(
        client, rng, stash, free_k, want, api::kNoDeadline, on_free, on_get);
    ops += x.freed + x.granted;
    global_ops.fetch_add(x.freed + x.granted, std::memory_order_relaxed);
  };

  bench::Stopwatch watch;
  // Prefill to the full share so the hold set stays near `share` for the
  // whole run — the migration always finds a substantial set of names to
  // carry across (capacity is exactly share * threads, so every thread
  // can reach its share).
  while (stash.names.size() < share) exchange(0);
  while (ops < ops_target) {
    exchange(batch);
    if (!saw_migrate && migrated.load(std::memory_order_acquire) != 0) {
      saw_migrate = true;
      r.ops_pre = ops;
      r.secs_pre = watch.elapsed_seconds();
    }
  }
  // Hold the boundary: do not drain until the migration has happened, so
  // every name this thread still holds is freed through the NEW
  // structure. (If the flag is already up, this falls straight through.)
  {
    sync::Backoff backoff;
    while (migrated.load(std::memory_order_acquire) == 0) backoff.pause();
  }
  for (const auto name : stash.names) {
    on_free(name);
    client.free(name);
    ++ops;
  }
  stash.names.clear();
  const double total = watch.elapsed_seconds();
  if (!saw_migrate) {  // migration raced past the loop's last check
    r.ops_pre = ops;
    r.secs_pre = total;
  }
  r.ops_post = ops - r.ops_pre;
  r.secs_post = total - r.secs_pre;
}

void print_usage() {
  std::printf(
      "migrate_churn: live re-sharding migration under client churn\n"
      "  --threads=4      in-process client threads\n"
      "  --ops=60000      individual Get+Free ops per thread\n"
      "  --batch=8        names per Get-k/Free-k exchange\n"
      "  --mult=64        share of the contention bound per thread\n"
      "  --shards=4       source shard count (target uses 2x)\n"
      "  --seed=42        base RNG seed\n"
      "  --json=<path>    write the levelarray-bench-v1 report\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opts(argc, argv);
  if (opts.has("help")) {
    print_usage();
    return 0;
  }

  const auto threads = static_cast<std::uint32_t>(opts.get_uint("threads", 4));
  const std::uint64_t ops_target = opts.get_uint("ops", 60000);
  std::uint64_t batch = opts.get_uint("batch", 8);
  if (batch == 0) batch = 1;
  const std::uint64_t mult = opts.get_uint("mult", 64);
  auto shards = static_cast<std::uint32_t>(opts.get_uint("shards", 4));
  if (shards == 0) shards = 1;
  const std::uint64_t seed = opts.get_uint("seed", 42);
  const std::string json_path = opts.get_string("json", "");
  opts.reject_unused();

  if (threads == 0 || threads > 16) {
    std::fprintf(stderr, "migrate_churn: --threads must be 1..16\n");
    return 1;
  }
  const std::uint64_t share = mult == 0 ? 1 : mult;
  const std::uint64_t capacity = share * threads;
  const std::uint64_t inner_capacity = (capacity + shards - 1) / shards;

  svc::SegmentConfig seg_config;
  seg_config.max_clients = 2 * threads + 2;
  svc::Segment segment(seg_config);
  svc::SegmentView seg = segment.view();

  // Source: sharded:level, S shards of ceil(capacity / S) each.
  core::LevelArrayConfig level;
  level.capacity = inner_capacity;
  scale::ShardedConfig source_config;
  source_config.shards = shards;
  auto source = std::make_unique<scale::ShardedRenamer<core::LevelArray>>(
      source_config, [&level](std::uint32_t) {
        return std::make_unique<core::LevelArray>(level);
      });
  // The target inner arrays are sized to the source's shard stride so the
  // stride (and thus every name's shard/local decomposition) is
  // preserved across the migration — the fit condition api::restore
  // checks name by name.
  const std::uint64_t stride = source->shard_stride();

  ckpt::AnyRenamer structure(std::move(source), "sharded:level");
  svc::Server<ckpt::AnyRenamer> server(seg, structure);
  server.start();

  stress::EpochClock clock;
  std::atomic<std::uint64_t> global_ops{0};
  std::atomic<std::uint32_t> migrated{0};
  std::vector<ThreadResult> results(threads);
  std::vector<std::thread> churners;
  churners.reserve(threads);
  for (std::uint32_t i = 0; i < threads; ++i) {
    churners.emplace_back([&, i] {
      churn(seg, clock, i, ops_target, share, batch, seed, global_ops,
            migrated, results[i]);
    });
  }

  // Migrate mid-run: wait until 40% of every thread's op budget is
  // spent, then swap the structure while the clients are still
  // churning. Each thread counts its prefill toward the same ops it
  // publishes, and leaves its loop only past its full budget, so the
  // threshold is always reached.
  {
    const std::uint64_t threshold =
        static_cast<std::uint64_t>(threads) * ops_target * 2 / 5;
    sync::Backoff backoff;
    while (global_ops.load(std::memory_order_relaxed) < threshold) {
      backoff.pause();
    }
  }

  int failures = 0;
  std::uint64_t names_migrated = 0;
  std::string migrate_error;
  bench::Stopwatch pause_watch;
  server.migrate([&](ckpt::AnyRenamer& s) {
    try {
      ckpt::Image image = api::save(s, s.tag());
      names_migrated = image.held.size();
      scale::ShardedConfig target_config;
      target_config.shards = 2 * shards;
      auto target = std::make_unique<
          scale::ShardedRenamer<arrays::LinearProbingArray>>(
          target_config, [&](std::uint32_t) {
            return std::make_unique<arrays::LinearProbingArray>(
                stride, inner_capacity);
          });
      api::restore(*target, image);
      s.replace(std::move(target), "sharded:linear");
    } catch (const std::exception& e) {
      migrate_error = e.what();
    }
  });
  const double pause_seconds = pause_watch.elapsed_seconds();
  migrated.store(1, std::memory_order_release);
  if (!migrate_error.empty()) {
    std::fprintf(stderr, "migrate_churn: migration failed: %s\n",
                 migrate_error.c_str());
    ++failures;
  }

  for (auto& worker : churners) worker.join();

  // The merged trace spans the boundary: pre-migration grants freed
  // post-migration must replay as one clean hold interval each.
  std::vector<const stress::EventLog*> logs;
  for (const auto& r : results) logs.push_back(&r.log);
  std::vector<stress::Event> trace = stress::merge_logs(logs);
  stress::CheckConfig check;
  check.total_slots = structure.total_slots();
  check.max_concurrent = capacity;
  check.expect_empty_at_end = true;
  const stress::InvariantReport report = stress::check_trace(trace, check);
  for (const auto& violation : report.violations) {
    std::fprintf(stderr, "violation %s\n", violation.c_str());
  }
  failures += static_cast<int>(report.violations.size());

  // Quiescence: nothing held, nothing leaked through the swap.
  server.request_sweep();
  {
    std::vector<std::uint64_t> leftovers;
    if (structure.collect(leftovers) != 0) {
      std::fprintf(stderr, "migrate_churn: %zu name(s) leaked at quiescence\n",
                   leftovers.size());
      ++failures;
    }
  }
  if (!server.error().empty()) {
    std::fprintf(stderr, "migrate_churn: server worker died: %s\n",
                 server.error().c_str());
    ++failures;
  }
  const svc::ServerStats stats = server.stats();
  if (stats.migrations != 1) {
    std::fprintf(stderr, "migrate_churn: expected 1 migration, server saw %llu\n",
                 static_cast<unsigned long long>(stats.migrations));
    ++failures;
  }
  if (names_migrated == 0) {
    std::fprintf(stderr,
                 "migrate_churn: no names were held across the migration\n");
    ++failures;
  }

  // Throughput on each side of the boundary: slowest-thread elapsed, as
  // in the other multi-worker benches.
  std::uint64_t ops_pre = 0;
  std::uint64_t ops_post = 0;
  double secs_pre = 0.0;
  double secs_post = 0.0;
  for (const auto& r : results) {
    ops_pre += r.ops_pre;
    ops_post += r.ops_post;
    if (r.secs_pre > secs_pre) secs_pre = r.secs_pre;
    if (r.secs_post > secs_post) secs_post = r.secs_post;
  }
  const double pre_ops_per_sec =
      secs_pre > 0.0 ? static_cast<double>(ops_pre) / secs_pre : 0.0;
  const double post_ops_per_sec =
      secs_post > 0.0 ? static_cast<double>(ops_post) / secs_post : 0.0;
  const auto pause_ns =
      static_cast<std::uint64_t>(pause_seconds * static_cast<double>(kNsPerSec));

  std::printf(
      "# migrate_churn: %u client thread(s), batch=%llu, N=%llu, "
      "%u->%u shards\n",
      threads, static_cast<unsigned long long>(batch),
      static_cast<unsigned long long>(capacity), shards, 2 * shards);
  std::printf("pre  svc:sharded:level   ops=%llu  ops/s=%.0f\n",
              static_cast<unsigned long long>(ops_pre), pre_ops_per_sec);
  std::printf("post svc:sharded:linear  ops=%llu  ops/s=%.0f\n",
              static_cast<unsigned long long>(ops_post), post_ops_per_sec);
  std::printf(
      "migration: %llu name(s) carried, pause=%.3fms, pending parked=%llu\n",
      static_cast<unsigned long long>(names_migrated),
      static_cast<double>(pause_ns) / 1e6,
      static_cast<unsigned long long>(stats.pending_parked));

  if (!json_path.empty()) {
    bench::BenchReport bench_report("migrate_churn");
    bench_report.add_run()
        .set("structure", "svc:sharded:level")
        .set("mode", "pre-migration")
        .set("threads", threads)
        .set("batch", static_cast<std::uint64_t>(batch))
        .set_object("config", bench::JsonObject()
                                  .set("ops_per_thread", ops_target)
                                  .set("capacity", capacity)
                                  .set("shards", shards)
                                  .set("ring_depth", seg_config.ring_depth)
                                  .set("seed", seed))
        .set("ops_per_sec", pre_ops_per_sec)
        .set("total_ops", ops_pre)
        .set("elapsed_seconds", secs_pre);
    bench_report.add_run()
        .set("structure", "svc:sharded:linear")
        .set("mode", "post-migration")
        .set("threads", threads)
        .set("batch", static_cast<std::uint64_t>(batch))
        .set_object("config", bench::JsonObject()
                                  .set("ops_per_thread", ops_target)
                                  .set("capacity", 2 * capacity)
                                  .set("shards", 2 * shards)
                                  .set("ring_depth", seg_config.ring_depth)
                                  .set("seed", seed))
        .set("ops_per_sec", post_ops_per_sec)
        .set("total_ops", ops_post)
        .set("elapsed_seconds", secs_post)
        .set("names_migrated", names_migrated)
        .set("migrate_pause_ns", pause_ns)
        .set("migrations", stats.migrations)
        .set("server_pending_parked", stats.pending_parked)
        .set("invariant_failures", static_cast<std::uint64_t>(failures));
    if (!bench_report.write_file(json_path, std::cerr)) return 126;
  }
  if (failures == 0) {
    std::printf("migrate_churn: OK\n");
  } else {
    std::printf("migrate_churn: %d check(s) FAILED\n", failures);
  }
  return failures > 125 ? 125 : failures;
}
