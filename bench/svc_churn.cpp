// svc_churn — the rename-service daemon's end-to-end harness and bench.
// Every run, across real processes:
//   * forks N churn clients and one holder before this process starts
//     any thread, then serves them from Server<ckpt::AnyRenamer> over
//     sharded:level with 4 shards;
//   * at 40% of the clients' op budget, live-migrates to sharded:linear
//     with 8 shards (save → rebuild → restore → AnyRenamer::replace; the
//     target keeps the source's shard stride, so every name still routes);
//   * after the churners exit, SIGKILLs the holder, whose names crossed
//     the migration, and checks that the sweep reclaims exactly those;
//   * replays one merged trace: every process tickets its Gets and Frees
//     from one EpochClock in a harness-owned shared mapping.
// It reports pre- and post-migration throughput and an in-process
// sharded:level baseline. Exit status is the number of failed checks;
// the JSON feeds validate_bench_json.py --svc-gate and --migrate-gate.
//
//   svc_churn --clients=4 --ops=100000 --batch=16 --json=BENCH_svc.json
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "api/snapshot.hpp"
#include "arrays/linear_probing_array.hpp"
#include "bench_util/algos.hpp"
#include "bench_util/churn_exchange.hpp"
#include "bench_util/options.hpp"
#include "bench_util/report.hpp"
#include "bench_util/timing.hpp"
#include "ckpt/any_renamer.hpp"
#include "ckpt/image.hpp"
#include "core/level_array.hpp"
#include "rng/rng.hpp"
#include "scale/sharded.hpp"
#include "stress/invariants.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "sync/spin_barrier.hpp"

namespace {

using namespace la;

constexpr std::uint32_t kMaxClients = 16;
constexpr std::uint64_t kMaxCount = std::uint64_t{1} << 32;  // --ops etc.
constexpr std::uint64_t kHold = 32;   // names the holder keeps until killed
constexpr std::uint32_t kShards = 4;  // source shards; the target has 2x

struct Shared {
  stress::EpochClock clock;                // one ticket order, every process
  std::atomic<std::uint64_t> progress{0};  // churn ops done, every client
  std::atomic<std::uint32_t> migrated{0};  // parent -> clients: drain now
  std::atomic<std::uint32_t> held{0};      // holder -> parent: names taken
  // Used Event entries per process (churners, then the holder).
  std::uint64_t events[kMaxClients + 1] = {};
};

// The harness's own MAP_SHARED | MAP_ANONYMOUS mapping: a Shared block
// followed by one fixed-size Event array per forked process. It is
// mapped before any fork, so the children write the pages the parent
// reads. The svc segment stays the protocol's alone.
class SharedRegion {
 public:
  SharedRegion(std::uint32_t procs, std::uint64_t events_per_proc)
      : events_per_proc_(events_per_proc),
        bytes_(sizeof(Shared) +
               sizeof(stress::Event) * procs * events_per_proc) {
    void* base = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) {
      throw std::runtime_error("svc_churn: mmap of the harness region failed");
    }
    shared_ = new (base) Shared;
    events_ = reinterpret_cast<stress::Event*>(shared_ + 1);
    std::uninitialized_default_construct_n(events_, procs * events_per_proc);
  }
  ~SharedRegion() { ::munmap(shared_, bytes_); }
  SharedRegion(const SharedRegion&) = delete;
  SharedRegion& operator=(const SharedRegion&) = delete;

  Shared& shared() const { return *shared_; }

  const stress::Event* events(std::uint32_t proc) const {
    return events_ + proc * events_per_proc_;
  }

  // Append one event to `proc`'s array. Callers ticket a Get after the
  // grant and a Free before the release (see stress/event_log.hpp).
  void record(std::uint32_t proc, stress::Op op, std::uint64_t name) {
    std::uint64_t& used = shared_->events[proc];
    if (used == events_per_proc_) {
      throw std::length_error("svc_churn: event array full");
    }
    events_[proc * events_per_proc_ + used++] =
        stress::Event{shared_->clock.tick(), name, proc, op};
  }

 private:
  std::uint64_t events_per_proc_;
  std::size_t bytes_;
  Shared* shared_ = nullptr;
  stress::Event* events_ = nullptr;
};

// What every forked process runs against.
struct Run {
  svc::SegmentView seg;
  SharedRegion* region;
  std::uint64_t ops;
  std::uint64_t share;
  std::uint64_t batch;
  std::uint64_t seed;
};

// One churn client: Free-k/Get-k bounded by its share, every op
// recorded and added to the progress count the parent migrates and
// times on. It drains only after the migration, so its trace spans the
// boundary and its last names are freed through the new structure.
int churn(const Run& run, std::uint32_t idx) {
  Shared& shared = run.region->shared();
  svc::Client client(run.seg);
  rng::MarsagliaXorshift rng(rng::mix_seed(run.seed, idx + 1));
  bench::ChurnStash stash;
  std::uint64_t ops = 0;
  const auto on_free = [&](std::uint64_t name) {
    run.region->record(idx, stress::Op::kFree, name);
  };
  const auto on_get = [&](const GetResult& g) {
    run.region->record(idx, stress::Op::kGet, g.name);
  };
  // Free up to `free_k`, then refill by a batch without passing `share`.
  const auto exchange = [&](std::size_t free_k) {
    const std::size_t held = stash.names.size();
    const std::size_t kept = held - std::min<std::size_t>(held, free_k);
    const std::size_t want =
        std::min<std::size_t>(run.batch, run.share - kept);
    const bench::ExchangeResult x = bench::churn_exchange(
        client, rng, stash, free_k, want, api::kNoDeadline, on_free, on_get);
    ops += x.freed + x.granted;
    shared.progress.fetch_add(x.freed + x.granted, std::memory_order_relaxed);
  };

  // Prefill to the full share, so the migration always finds a large
  // hold set to carry across. The prefill counts toward the progress
  // the parent waits for, and the loop runs past the full budget, so
  // the 40% threshold is always reached.
  while (stash.names.size() < run.share) exchange(0);
  while (ops < run.ops) exchange(run.batch);
  sync::Backoff backoff;
  while (shared.migrated.load(std::memory_order_acquire) == 0) {
    backoff.pause();
  }
  for (const auto name : stash.names) {
    on_free(name);
    client.free(name);
  }
  shared.progress.fetch_add(stash.names.size(), std::memory_order_relaxed);
  return 0;
}

// The holder: take kHold names, announce them, and sleep until the
// parent's SIGKILL. The parent migrates only after the announcement, so
// these names are carried across the migration and reclaimed after it.
int hold_until_killed(const Run& run, std::uint32_t idx) {
  svc::Client client(run.seg);
  rng::MarsagliaXorshift rng(rng::mix_seed(run.seed, 0xDEADu));
  bench::ChurnStash stash;
  bench::churn_exchange(
      client, rng, stash, 0, kHold, api::kNoDeadline, [](std::uint64_t) {},
      [&](const GetResult& g) {
        run.region->record(idx, stress::Op::kGet, g.name);
      });
  run.region->shared().held.store(1, std::memory_order_release);
  for (;;) ::pause();
}

// The forked child's body. `fn` runs on a joined thread, so its ring
// attachment is released by the thread-exit hook before the child
// leaves via _exit (which skips TLS destructors on the main thread).
// The child dies with the parent instead of spinning on its flags.
[[noreturn]] void child_main(int (*fn)(const Run&, std::uint32_t),
                             const Run& run, std::uint32_t idx,
                             pid_t parent) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) ::_exit(5);
  int rc = 4;
  std::thread worker([&] {
    try {
      rc = fn(run, idx);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "svc_churn: process %u: %s\n", idx, e.what());
      rc = 3;
    }
  });
  worker.join();
  ::_exit(rc);
}

void print_usage() {
  std::printf(
      "svc_churn: rename-service churn, migration and reclaim harness\n"
      "  --clients=4      forked churn client processes (1..%u)\n"
      "  --ops=100000     individual Get+Free ops per client\n"
      "  --batch=16       names per Get-k/Free-k exchange\n"
      "  --mult=64        share of the contention bound per client\n"
      "  --seed=42        base RNG seed\n"
      "  --json=<path>    write the levelarray-bench-v1 report (pre- and\n"
      "                   post-migration runs, in-process baseline)\n",
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
  const std::uint64_t batch =
      std::max<std::uint64_t>(1, opts.get_uint("batch", 16));
  const std::uint64_t share =
      std::max<std::uint64_t>(1, opts.get_uint("mult", 64));
  const std::uint64_t seed = opts.get_uint("seed", 42);
  const std::string json_path = opts.get_string("json", "");
  opts.reject_unused();

  if (clients == 0 || clients > kMaxClients || ops_target > kMaxCount ||
      share > kMaxCount || batch > kMaxCount) {
    std::fprintf(stderr,
                 "svc_churn: --clients must be 1..%u, and --ops, --mult and "
                 "--batch at most 2^32\n",
                 kMaxClients);
    return 1;
  }
  const std::uint32_t holder = clients;      // process index
  const std::uint32_t reaper = clients + 1;  // the parent's trace id
  const std::uint32_t procs = clients + 1;
  const std::uint64_t capacity = share * clients + kHold;
  const std::uint64_t inner_capacity = (capacity + kShards - 1) / kShards;

  // Event array bound: a churner's ops stop below max(ops, share) +
  // 2 * batch and its drain adds at most `share` Frees; the holder
  // records kHold Gets.
  SharedRegion region(procs, ops_target + 2 * share + 2 * batch + kHold);
  Shared& shared = region.shared();

  // Two rings per client process (the Client's shared ring + its worker
  // thread's dedicated ring), plus slack.
  svc::SegmentConfig seg_config;
  seg_config.max_clients = 2 * procs + 2;
  svc::Segment segment(seg_config);
  const Run run{segment.view(), &region, ops_target, share, batch, seed};

  // Fork every child BEFORE any thread exists in this process.
  const pid_t parent = ::getpid();
  std::vector<pid_t> pids;
  for (std::uint32_t p = 0; p < procs; ++p) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("svc_churn: fork");
      return 1;
    }
    if (pid == 0) {
      child_main(p == holder ? hold_until_killed : churn, run, p, parent);
    }
    pids.push_back(pid);
  }

  // Now threads: the source structure and the server worker.
  core::LevelArrayConfig level;
  level.capacity = inner_capacity;
  scale::ShardedConfig source_config;
  source_config.shards = kShards;
  auto source = std::make_unique<scale::ShardedRenamer<core::LevelArray>>(
      source_config, [&level](std::uint32_t) {
        return std::make_unique<core::LevelArray>(level);
      });
  // The target's inner arrays are sized to the source's shard stride,
  // so every name's shard/local split survives the migration (the fit
  // condition api::restore checks name by name).
  const std::uint64_t stride = source->shard_stride();
  ckpt::AnyRenamer structure(std::move(source), "sharded:level");
  svc::Server<ckpt::AnyRenamer> server(run.seg, structure);
  server.start();
  bench::Stopwatch watch;

  // Migrate once the holder holds its names and 40% of the clients' op
  // budget is spent. The wait also polls the children and the worker: a
  // child that exits early, or a worker error (which fails every
  // client's next exchange), means that point never comes, so the run
  // stops there.
  const std::uint64_t threshold = std::uint64_t{clients} * ops_target * 2 / 5;
  for (sync::Backoff backoff;
       !shared.held.load(std::memory_order_acquire) ||
       shared.progress.load(std::memory_order_relaxed) < threshold;
       backoff.pause()) {
    const pid_t gone = ::waitpid(-1, nullptr, WNOHANG);
    if (gone > 0 || !server.error().empty()) {
      std::fprintf(stderr, "svc_churn: %s before the migration\n",
                   gone > 0 ? "a child exited" : "the server worker died");
      for (const pid_t pid : pids) ::kill(pid, SIGKILL);
      while (::wait(nullptr) > 0) continue;
      std::printf("svc_churn: 1 check(s) FAILED\n");
      return 1;
    }
  }
  // Pre-migration throughput is taken from the server start to here,
  // post-migration from the end of the pause to the last churner's exit.
  const std::uint64_t ops_pre =
      shared.progress.load(std::memory_order_relaxed);
  const double secs_pre = watch.elapsed_seconds();

  int failures = 0;
  std::uint64_t names_migrated = 0;
  std::string migrate_error;
  server.migrate([&](ckpt::AnyRenamer& s) {
    try {
      ckpt::Image image = api::save(s, s.tag());
      names_migrated = image.held.size();
      scale::ShardedConfig target_config;
      target_config.shards = 2 * kShards;
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
  const double secs_migrated = watch.elapsed_seconds();
  if (!migrate_error.empty()) {
    std::fprintf(stderr, "svc_churn: migration failed: %s\n",
                 migrate_error.c_str());
    ++failures;
  }
  shared.migrated.store(1, std::memory_order_release);

  for (std::uint32_t p = 0; p < clients; ++p) {
    int status = 0;
    if (::waitpid(pids[p], &status, 0) != pids[p] || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "svc_churn: client %u failed (status %d)\n", p,
                   status);
      ++failures;
    }
  }
  const std::uint64_t ops_post =
      shared.progress.load(std::memory_order_relaxed) - ops_pre;
  const double secs_post = watch.elapsed_seconds() - secs_migrated;

  // Kill the holder mid-hold and reap it BEFORE sweeping: a zombie still
  // "exists" to kill(pid, 0). Its names enter the trace as the parent's
  // Frees, ticketed before the sweep releases them.
  ::kill(pids[holder], SIGKILL);
  ::waitpid(pids[holder], nullptr, 0);
  const std::uint64_t held = shared.events[holder];
  std::vector<stress::Event> trace;
  for (std::uint64_t i = 0; i < held; ++i) {
    trace.push_back(stress::Event{shared.clock.tick(),
                                  region.events(holder)[i].name, reaper,
                                  stress::Op::kFree});
  }
  server.request_sweep();
  const svc::ServerStats stats = server.stats();
  if (stats.reclaimed_names != held || stats.reclaims == 0) {
    std::fprintf(stderr,
                 "svc_churn: the holder held %" PRIu64 " name(s), the server "
                 "reclaimed %" PRIu64 " in %" PRIu64 " sweep(s)\n",
                 held, stats.reclaimed_names, stats.reclaims);
    ++failures;
  }
  if (stats.migrations != 1 || names_migrated == 0) {
    std::fprintf(stderr,
                 "svc_churn: expected 1 migration carrying names, server saw "
                 "%" PRIu64 " carrying %" PRIu64 "\n",
                 stats.migrations, names_migrated);
    ++failures;
  }
  std::vector<std::uint64_t> leftovers;
  if (structure.collect(leftovers) != 0) {
    std::fprintf(stderr, "svc_churn: %zu name(s) leaked at quiescence\n",
                 leftovers.size());
    ++failures;
  }
  if (!server.error().empty()) {
    std::fprintf(stderr, "svc_churn: server worker died: %s\n",
                 server.error().c_str());
    ++failures;
  }

  // The merged trace: names granted before the migration and freed after
  // it, and the holder's names freed by the parent after the kill, must
  // each replay as one clean hold interval.
  for (std::uint32_t p = 0; p < procs; ++p) {
    trace.insert(trace.end(), region.events(p),
                 region.events(p) + shared.events[p]);
  }
  stress::CheckConfig check;
  check.total_slots = structure.total_slots();
  check.max_concurrent = capacity;
  check.reaper_thread = reaper;
  const stress::InvariantReport report = stress::check_trace(trace, check);
  for (const auto& violation : report.violations) {
    std::fprintf(stderr, "violation %s\n", violation.c_str());
  }
  failures += static_cast<int>(report.violations.size());

  const auto rate = [](std::uint64_t ops, double secs) {
    return secs > 0.0 ? static_cast<double>(ops) / secs : 0.0;
  };
  const double pre_rate = rate(ops_pre, secs_pre);
  const double post_rate = rate(ops_post, secs_post);
  const double pause_seconds = secs_migrated - secs_pre;
  std::printf("# svc_churn: %u client(s) + 1 holder, batch=%" PRIu64
              ", N=%" PRIu64 ", %u->%u shards\n",
              clients, batch, capacity, kShards, 2 * kShards);
  std::printf("pre  svc:sharded:level   ops=%" PRIu64 "  ops/s=%.0f\n",
              ops_pre, pre_rate);
  std::printf("post svc:sharded:linear  ops=%" PRIu64 "  ops/s=%.0f\n",
              ops_post, post_rate);
  std::printf("migration: %" PRIu64 " name(s) carried, pause=%.3fms; "
              "reclaimed %" PRIu64 " of the holder's %" PRIu64 "\n",
              names_migrated, pause_seconds * 1e3, stats.reclaimed_names,
              held);

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
  std::printf("sharded:level           ops=%" PRIu64
              "  ops/s=%.0f  (in-process baseline)\n",
              baseline.total_ops, baseline.throughput_ops_per_sec);

  if (!json_path.empty()) {
    const auto config = [&](std::uint64_t structure_capacity,
                            std::uint32_t shards) {
      return bench::JsonObject()
          .set("clients", clients)
          .set("ops_per_client", ops_target)
          .set("capacity", structure_capacity)
          .set("shards", shards)
          .set("hold", kHold)
          .set("ring_depth", seg_config.ring_depth)
          .set("seed", seed);
    };
    bench::BenchReport bench_report("svc_churn");
    bench_report.add_run()
        .set("structure", "svc:sharded:level")
        .set("mode", "pre-migration")
        .set("threads", clients)  // client processes
        .set("batch", batch)
        .set_object("config", config(inner_capacity * kShards, kShards))
        .set("ops_per_sec", pre_rate)
        .set("total_ops", ops_pre)
        .set("elapsed_seconds", secs_pre);
    bench_report.add_run()
        .set("structure", "svc:sharded:linear")
        .set("mode", "post-migration")
        .set("threads", clients)
        .set("batch", batch)
        .set_object("config", config(structure.capacity(), 2 * kShards))
        .set("ops_per_sec", post_rate)
        .set("total_ops", ops_post)
        .set("elapsed_seconds", secs_post)
        .set("names_migrated", names_migrated)
        .set("migrate_pause_ns",
             static_cast<std::uint64_t>(pause_seconds * 1e9))
        .set("migrations", stats.migrations)
        .set("reclaims", stats.reclaims)
        .set("reclaimed_names", stats.reclaimed_names)
        .set("server_requests", stats.requests)
        .set("server_pending_parked", stats.pending_parked)
        .set("server_idle_parks", stats.idle_parks)
        .set("invariant_failures", static_cast<std::uint64_t>(failures));
    bench_report.add_run()
        .set("structure", "sharded:level")
        .set("mode", "inprocess")
        .set("threads", clients)
        .set("batch", batch)
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
    if (!bench_report.write_file(json_path, std::cerr)) return 126;
  }
  if (failures == 0) {
    std::printf("svc_churn: OK\n");
  } else {
    std::printf("svc_churn: %d check(s) FAILED\n", failures);
  }
  return std::min(failures, 125);
}
