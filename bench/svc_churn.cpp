// svc_churn — the rename-service daemon's multi-process harness and
// bench: forks N real client processes that churn batched Get-k/Free-k
// traffic through the shared-memory segment against one server process
// (this one), checks every client's event trace with the stress
// invariant checker, exercises the dead-client reclaim path by
// kill -9'ing a client that holds names, and reports aggregate
// throughput next to an in-process sharded:level baseline driven by the
// same loop shape (bench_util's churn driver).
//
//   svc_churn --clients=4 --ops=100000 --batch=16 --kill-one
//   svc_churn --clients=4 --json=BENCH_svc.json
//
// Process choreography (fork-before-threads, so ASan-instrumented
// children never fork a multithreaded parent):
//   1. the parent creates the anonymous MAP_SHARED segment;
//   2. every child (N churners + optionally one holder victim) is forked
//      — each constructs a svc::Client and spins on header.ready;
//   3. the parent builds the sharded structure, starts the Server, and
//      waits; children churn, verify their traces, and report ops +
//      elapsed through the segment's scratch words;
//   4. with --kill-one, the holder child parks holding names, the parent
//      SIGKILLs it, waitpid()s (kill(pid,0) sees zombies as alive), and
//      asks the server to sweep — every held name must come back.
//
// Exit status is the number of failed checks, so scripts/check.sh and CI
// gate on it directly.
#include <sys/types.h>
#include <sys/wait.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_util/algos.hpp"
#include "bench_util/churn_exchange.hpp"
#include "bench_util/options.hpp"
#include "bench_util/report.hpp"
#include "bench_util/timing.hpp"
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

// Scratch-word layout (svc::Header::scratch, kScratchWords = 16):
//   [0]       holder -> parent: number of names held (nonzero = parked)
//   [1]       reserved
//   [2 + 2i]  churn child i -> parent: individual ops completed
//   [3 + 2i]  churn child i -> parent: elapsed nanoseconds
constexpr std::uint32_t kMaxClients = 7;
constexpr std::uint64_t kNsPerSec = 1'000'000'000ull;

std::uint64_t ops_word(std::uint32_t i) { return 2 + 2 * std::uint64_t{i}; }
std::uint64_t ns_word(std::uint32_t i) { return 3 + 2 * std::uint64_t{i}; }

// The churn loop one client process runs: batched Free-k/Get-k against
// its svc::Client, every op recorded in a local event log that is
// replayed through the invariant checker before exit. The log is local
// to the process (cross-process uniqueness is enforced by the server's
// per-pid bitmaps and the parent's final collect()==0 check), so what
// this verifies end-to-end is the client library and wire protocol:
// names in range, no duplicate grants to this process, frees accepted
// exactly once, clean drain.
int churn(svc::SegmentView seg, std::uint32_t idx, std::uint64_t ops_target,
          std::uint64_t share, std::uint64_t batch, std::uint64_t seed) {
  svc::Client client(seg);
  rng::MarsagliaXorshift rng(rng::mix_seed(seed, idx + 1));
  stress::EpochClock clock;
  stress::EventLog log;
  log.reserve(ops_target + 2 * share);
  bench::ChurnStash stash;
  std::uint64_t ops = 0;
  const auto on_free = [&](std::uint64_t name) {
    log.record(clock, idx, stress::Op::kFree, name);
  };
  const auto on_get = [&](const GetResult& r) {
    log.record(clock, idx, stress::Op::kGet, r.name);
  };

  bench::Stopwatch watch;
  while (ops < ops_target) {
    // Free up to a batch, then refill by a batch without passing the
    // client's share of the contention bound.
    const std::size_t held = stash.names.size();
    const std::size_t kept = held - std::min<std::size_t>(held, batch);
    const std::size_t want = std::min<std::size_t>(batch, share - kept);
    const bench::ExchangeResult x = bench::churn_exchange(
        client, rng, stash, batch, want, api::kNoDeadline, on_free, on_get);
    ops += x.freed + x.granted;
  }
  for (const auto name : stash.names) {
    on_free(name);
    client.free(name);
  }
  stash.names.clear();
  const double elapsed = watch.elapsed_seconds();

  seg.header().scratch[ops_word(idx)].store(ops, std::memory_order_relaxed);
  seg.header().scratch[ns_word(idx)].store(
      static_cast<std::uint64_t>(elapsed * static_cast<double>(kNsPerSec)),
      std::memory_order_relaxed);

  std::vector<stress::Event> trace = log.events();
  stress::CheckConfig check;
  check.total_slots = client.total_slots();
  check.max_concurrent = share;
  check.expect_empty_at_end = true;
  const stress::InvariantReport report = stress::check_trace(trace, check);
  for (const auto& violation : report.violations) {
    std::fprintf(stderr, "violation [client %u] %s\n", idx,
                 violation.c_str());
  }
  return report.ok() ? 0 : 2;
}

// The --kill-one victim: grab `hold` names, announce them through
// scratch[0], then park until SIGKILL. Never exits on its own.
[[noreturn]] void hold_forever(svc::SegmentView seg, std::uint64_t hold,
                               std::uint64_t seed) {
  svc::Client client(seg);
  rng::MarsagliaXorshift rng(rng::mix_seed(seed, 0xDEADu));
  bench::ChurnStash stash;
  bench::churn_exchange(client, rng, stash, 0, hold, api::kNoDeadline,
                        [](std::uint64_t) {}, [](const GetResult&) {});
  seg.header().scratch[0].store(stash.names.size(),
                                std::memory_order_release);
  for (;;) std::this_thread::yield();  // parked mid-hold until SIGKILL
}

// Run `fn` on a joined thread, so its ring attachment is released by the
// thread-exit hook before the child leaves via _exit (which skips TLS
// destructors on the main thread).
int on_worker_thread(int (*fn)(svc::SegmentView, std::uint32_t,
                               std::uint64_t, std::uint64_t, std::uint64_t,
                               std::uint64_t),
                     svc::SegmentView seg, std::uint32_t idx,
                     std::uint64_t ops, std::uint64_t share,
                     std::uint64_t batch, std::uint64_t seed) {
  int rc = 4;
  std::thread worker([&] { rc = fn(seg, idx, ops, share, batch, seed); });
  worker.join();
  return rc;
}

void print_usage() {
  std::printf(
      "svc_churn: multi-process rename-service churn + reclaim harness\n"
      "  --clients=4      forked client processes (1..%u)\n"
      "  --ops=100000     individual Get+Free ops per client\n"
      "  --batch=16       names per Get-k/Free-k exchange\n"
      "  --mult=64        share of the contention bound per client\n"
      "  --kill-one       fork one extra holder and SIGKILL it mid-hold\n"
      "  --hold=32        names the --kill-one victim holds\n"
      "  --seed=42        base RNG seed\n"
      "  --json=<path>    write the levelarray-bench-v1 report (includes\n"
      "                   an in-process sharded:level baseline)\n",
      kMaxClients);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opts(argc, argv);
  if (opts.has("help")) {
    print_usage();
    return 0;
  }

  const auto clients =
      static_cast<std::uint32_t>(opts.get_uint("clients", 4));
  const std::uint64_t ops_target = opts.get_uint("ops", 100000);
  std::uint64_t batch = opts.get_uint("batch", 16);
  if (batch == 0) batch = 1;
  const std::uint64_t mult = opts.get_uint("mult", 64);
  const bool kill_one = opts.has("kill-one");
  const std::uint64_t hold = opts.get_uint("hold", 32);
  const std::uint64_t seed = opts.get_uint("seed", 42);
  const std::string json_path = opts.get_string("json", "");
  opts.reject_unused();

  if (clients == 0 || clients > kMaxClients) {
    std::fprintf(stderr, "svc_churn: --clients must be 1..%u\n", kMaxClients);
    return 1;
  }
  const std::uint64_t share = mult == 0 ? 1 : mult;
  const std::uint64_t capacity =
      share * clients + (kill_one ? hold : 0);

  // Two rings per client process (the Client's shared ring + its worker
  // thread's dedicated ring), plus slack for the holder.
  svc::SegmentConfig seg_config;
  seg_config.max_clients = 2 * (clients + (kill_one ? 1 : 0)) + 2;
  svc::Segment segment(seg_config);
  svc::SegmentView seg = segment.view();

  // Fork every child BEFORE any thread exists in this process.
  std::vector<pid_t> children;
  for (std::uint32_t i = 0; i < clients; ++i) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("svc_churn: fork");
      return 1;
    }
    if (pid == 0) {
      ::_exit(on_worker_thread(churn, seg, i, ops_target, share, batch,
                               seed));
    }
    children.push_back(pid);
  }
  pid_t holder = -1;
  if (kill_one) {
    holder = ::fork();
    if (holder < 0) {
      std::perror("svc_churn: fork");
      return 1;
    }
    if (holder == 0) {
      std::thread worker([&] { hold_forever(seg, hold, seed); });
      worker.join();  // unreachable
      ::_exit(4);
    }
  }

  // Now threads: the sharded structure and the server workers.
  scale::ShardedConfig sharded;
  sharded.shards = 8;
  core::LevelArrayConfig level;
  level.capacity = (capacity + sharded.shards - 1) / sharded.shards;
  scale::ShardedRenamer<core::LevelArray> structure(
      sharded,
      [&level](std::uint32_t) {
        return std::make_unique<core::LevelArray>(level);
      });
  svc::Server<scale::ShardedRenamer<core::LevelArray>> server(seg, structure);
  server.start();

  int failures = 0;

  // Reap the churners (holder stays parked).
  for (std::uint32_t i = 0; i < clients; ++i) {
    int status = 0;
    if (::waitpid(children[i], &status, 0) != children[i] ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "svc_churn: client %u failed (status %d)\n", i,
                   status);
      ++failures;
    }
  }

  std::uint64_t reclaimed = 0;
  if (kill_one) {
    // Wait until the victim provably holds names, kill it mid-hold, and
    // reap it BEFORE sweeping — a zombie still "exists" to kill(pid, 0).
    sync::Backoff backoff;
    while (seg.header().scratch[0].load(std::memory_order_acquire) == 0) {
      backoff.pause();
    }
    const std::uint64_t victim_holds =
        seg.header().scratch[0].load(std::memory_order_acquire);
    ::kill(holder, SIGKILL);
    int status = 0;
    ::waitpid(holder, &status, 0);
    server.request_sweep();
    const svc::ServerStats stats = server.stats();
    reclaimed = stats.reclaimed_names;
    if (stats.reclaimed_names != victim_holds || stats.reclaims == 0) {
      std::fprintf(stderr,
                   "svc_churn: reclaim mismatch: victim held %llu, server "
                   "recovered %llu across %llu sweep(s)\n",
                   static_cast<unsigned long long>(victim_holds),
                   static_cast<unsigned long long>(stats.reclaimed_names),
                   static_cast<unsigned long long>(stats.reclaims));
      ++failures;
    }
  }

  // Quiescence: every churner drained, every victim name reclaimed — the
  // structure must agree that nothing is held.
  server.request_sweep();
  {
    std::vector<std::uint64_t> leftovers;
    if (structure.collect(leftovers) != 0) {
      std::fprintf(stderr, "svc_churn: %zu name(s) leaked at quiescence\n",
                   leftovers.size());
      ++failures;
    }
  }
  if (!server.error().empty()) {
    std::fprintf(stderr, "svc_churn: server worker died: %s\n",
                 server.error().c_str());
    ++failures;
  }

  // Aggregate client telemetry.
  std::uint64_t total_ops = 0;
  std::uint64_t slowest_ns = 0;
  for (std::uint32_t i = 0; i < clients; ++i) {
    total_ops +=
        seg.header().scratch[ops_word(i)].load(std::memory_order_relaxed);
    const std::uint64_t ns =
        seg.header().scratch[ns_word(i)].load(std::memory_order_relaxed);
    if (ns > slowest_ns) slowest_ns = ns;
  }
  const double elapsed =
      static_cast<double>(slowest_ns) / static_cast<double>(kNsPerSec);
  const double ops_per_sec =
      elapsed > 0.0 ? static_cast<double>(total_ops) / elapsed : 0.0;
  const svc::ServerStats stats = server.stats();

  std::printf(
      "# svc_churn: %u client process(es), batch=%llu, N=%llu, depth=%u\n",
      clients, static_cast<unsigned long long>(batch),
      static_cast<unsigned long long>(capacity), seg_config.ring_depth);
  std::printf(
      "svc:sharded:level  ops=%llu  elapsed=%.3fs  ops/s=%.0f  "
      "requests=%llu  pending=%llu  reclaimed=%llu\n",
      static_cast<unsigned long long>(total_ops), elapsed, ops_per_sec,
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.pending_parked),
      static_cast<unsigned long long>(reclaimed));

  // In-process baseline: the same churn shape (threads, batch, ops,
  // contention bound) against sharded:level without the wire protocol —
  // what the --svc-gate ratio in validate_bench_json.py is taken against.
  bench::SweepPoint point;
  point.driver.threads = clients;
  point.driver.emulation_multiplier = share;
  point.driver.ops_per_thread = ops_target;
  point.driver.batch = batch;
  point.driver.seed = seed;
  point.driver.prefill = 0.5;
  const bench::RunResult baseline = bench::run_algo("sharded:level", point);
  std::printf("sharded:level      ops=%llu  elapsed=%.3fs  ops/s=%.0f  "
              "(in-process baseline)\n",
              static_cast<unsigned long long>(baseline.total_ops),
              baseline.elapsed_seconds, baseline.throughput_ops_per_sec);

  if (!json_path.empty()) {
    bench::BenchReport report("svc_churn");
    report.add_run()
        .set("structure", "svc:sharded:level")
        .set("mode", "multiprocess")
        .set("threads", clients)  // client processes
        .set("batch", static_cast<std::uint64_t>(batch))
        .set_object("config", bench::JsonObject()
                                  .set("clients", clients)
                                  .set("ops_per_client", ops_target)
                                  .set("capacity", capacity)
                                  .set("ring_depth", seg_config.ring_depth)
                                  .set("kill_one", kill_one)
                                  .set("seed", seed))
        .set("ops_per_sec", ops_per_sec)
        .set("total_ops", total_ops)
        .set("elapsed_seconds", elapsed)
        .set("server_requests", stats.requests)
        .set("server_pending_parked", stats.pending_parked)
        .set("server_idle_parks", stats.idle_parks)
        .set("reclaims", stats.reclaims)
        .set("reclaimed_names", stats.reclaimed_names)
        .set("ok", failures == 0);
    report.add_run()
        .set("structure", "sharded:level")
        .set("mode", "inprocess")
        .set("threads", clients)
        .set("batch", static_cast<std::uint64_t>(batch))
        .set_object("config", bench::JsonObject()
                                  .set("ops_per_thread", ops_target)
                                  .set("capacity", capacity)
                                  .set("seed", seed))
        .set("ops_per_sec", baseline.throughput_ops_per_sec)
        .set("total_ops", baseline.total_ops)
        .set("elapsed_seconds", baseline.elapsed_seconds)
        .set("gate_wait_rounds", baseline.gate_wait_rounds)
        .set("gate_parks", baseline.gate_parks)
        .set_object("probes", bench::probe_stats_json(baseline.trials));
    if (!report.write_file(json_path, std::cerr)) return 126;
  }
  if (failures == 0) {
    std::printf("svc_churn: OK\n");
  } else {
    std::printf("svc_churn: %d check(s) FAILED\n", failures);
  }
  return failures > 125 ? 125 : failures;
}
