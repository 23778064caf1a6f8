// The three benchmark workloads. Each run builds its stack, prefills,
// measures closed-loop churn plus open-loop collect (and, on the service,
// migrate) traffic for a fixed window, then audits the quiescent hold
// set. Stacks are parameterised by a Stack policy whose member templates
// wrap each layer: Plain for the timed runs, the span decorators for the
// traced run, a delay decorator for the sensitivity check.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <pthread.h>
#include <sched.h>

#include "api/registry.hpp"
#include "api/snapshot.hpp"
#include "ckpt/any_renamer.hpp"
#include "ckpt/image.hpp"
#include "core/level_array.hpp"
#include "rng/rng.hpp"
#include "scale/sharded.hpp"
#include "stats.hpp"
#include "stress/event_log.hpp"
#include "stress/invariants.hpp"
#include "svc/client.hpp"
#include "svc/segment.hpp"
#include "svc/server.hpp"
#include "sync/cache.hpp"
#include "sync/spin_barrier.hpp"
#include "trace.hpp"

namespace perfbench {

// ---- workload shapes -----------------------------------------------------

// flat-churn-collect / sharded-churn-collect: N = 3 * 2^20 registrants
// over L = 2N one-byte slots (6 MiB, three times one core's 2 MiB L2),
// half of N held, three churn threads and one open-loop collector.
inline constexpr std::uint64_t kInprocN = 3ull << 20;
inline constexpr std::uint32_t kChurnThreads = 3;
inline constexpr std::uint64_t kCollectPeriodNs = 50'000'000;  // 20/s
// Both sharded stacks (sharded-churn-collect and the svc structure) use
// the `sharded:level` shape: 8 shards, the registry's default 16-bin
// name cache.
inline constexpr std::uint32_t kShards = 8;
inline constexpr std::uint32_t kNameCache = 16;

// svc-batch-migrate: N = 2 * 4096 behind one server worker, two client
// threads exchanging 16 names at a time, one control thread issuing wire
// collects at 50/s and a live migration every 250 ms.
inline constexpr std::uint64_t kSvcN = 2 * 4096;
inline constexpr std::uint32_t kSvcClients = 2;
inline constexpr std::size_t kSvcBatch = 16;
inline constexpr std::uint64_t kSvcCollectPeriodNs = 20'000'000;  // 50/s
inline constexpr std::uint64_t kMigratePeriodNs = 250'000'000;

// One latency sample per this many exchanges keeps clock reads out of
// the throughput figure.
inline constexpr std::uint64_t kLatencyStride = 16;
// The window is read in slices of about this length.
inline constexpr double kSliceNs = 250e6;
// Churn events the traced run's event log keeps after the prefill.
inline constexpr std::uint64_t kChurnEventBudget = 1'000'000;

// ---- stack policies ------------------------------------------------------

struct PlainStack {
  template <typename T> using Core = Plain<T>;
  template <typename T> using Scale = Plain<T>;
  template <typename T> using Dispatch = Plain<T>;
  template <typename T> using Client = Plain<T>;
};
struct TracedStack {
  template <typename T> using Core = TimedCore<T>;
  template <typename T> using Scale = TimedScale<T>;
  template <typename T> using Dispatch = TimedDispatch<T>;
  template <typename T> using Client = TimedClient<T>;
};
struct CoreDelayStack : PlainStack {
  template <typename T> using Core = CoreDelayed<T>;
};
struct ClientDelayStack : PlainStack {
  template <typename T> using Client = ClientDelayed<T>;
};

// ---- run specification and results ---------------------------------------

struct RunSpec {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool setup_only = false;  // build and prefill, then tear down
  bool record_events = false;  // stress::EventLog + check_trace
  bool traced = false;  // enable the span registry for the window
};

struct Result {
  double setup_s = 0.0;
  double window_s = 0.0;
  std::uint64_t ops = 0;  // individual Gets + Frees by churn threads
  std::uint64_t get_exchanges = 0;
  std::uint64_t free_exchanges = 0;
  std::unique_ptr<LogHistogram> get_ns = std::make_unique<LogHistogram>();
  std::unique_ptr<LogHistogram> free_ns = std::make_unique<LogHistogram>();
  std::vector<double> collect_us;  // from due time
  std::vector<double> collect_lag_us;
  std::vector<double> pause_us, save_us, rebuild_us, restore_us, quiesce_us;
  std::vector<double> names_carried, image_bytes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  // Public stats of the layers, deltas over the churn window.
  la::scale::ShardedStats sharded{};
  la::api::WaitStats gate{};
  la::svc::ServerStats server{};
  la::api::WaitStats client_wait{};
  std::uint64_t trace_events = 0;
  std::vector<double> slice_rates;  // ops/s in each slice of the window

  void fail(const std::string& what, std::uint64_t count = 1) {
    failed += count;
    if (problems.size() < 8) problems.push_back(what);
  }
};

// ---- small helpers ---------------------------------------------------------

template <typename T, typename = void>
struct has_sharded_stats : std::false_type {};
template <typename T>
struct has_sharded_stats<T, std::void_t<decltype(std::declval<const T&>().stats())>>
    : std::is_same<decltype(std::declval<const T&>().stats()),
                   la::scale::ShardedStats> {};
template <typename T>
inline constexpr bool has_sharded_stats_v = has_sharded_stats<T>::value;

inline la::scale::ShardedStats minus(const la::scale::ShardedStats& a,
                                     const la::scale::ShardedStats& b) {
  la::scale::ShardedStats d;
  d.cache_hits = a.cache_hits - b.cache_hits;
  d.shared_gets = a.shared_gets - b.shared_gets;
  d.parked_frees = a.parked_frees - b.parked_frees;
  d.direct_frees = a.direct_frees - b.direct_frees;
  d.shard_refusals = a.shard_refusals - b.shard_refusals;
  d.cache_drains = a.cache_drains - b.cache_drains;
  d.collect_drains = a.collect_drains - b.collect_drains;
  return d;
}

inline la::scale::ShardedStats plus(const la::scale::ShardedStats& a,
                                    const la::scale::ShardedStats& b) {
  la::scale::ShardedStats d;
  d.cache_hits = a.cache_hits + b.cache_hits;
  d.shared_gets = a.shared_gets + b.shared_gets;
  d.parked_frees = a.parked_frees + b.parked_frees;
  d.direct_frees = a.direct_frees + b.direct_frees;
  d.shard_refusals = a.shard_refusals + b.shard_refusals;
  d.cache_drains = a.cache_drains + b.cache_drains;
  d.collect_drains = a.collect_drains + b.collect_drains;
  return d;
}

inline la::api::WaitStats minus(const la::api::WaitStats& a,
                                const la::api::WaitStats& b) {
  la::api::WaitStats d;
  d.wait_rounds = a.wait_rounds - b.wait_rounds;
  d.parks = a.parks - b.parks;
  d.timeouts = a.timeouts - b.timeouts;
  return d;
}

inline la::api::WaitStats plus(const la::api::WaitStats& a,
                               const la::api::WaitStats& b) {
  la::api::WaitStats d;
  d.wait_rounds = a.wait_rounds + b.wait_rounds;
  d.parks = a.parks + b.parks;
  d.timeouts = a.timeouts + b.timeouts;
  return d;
}

inline la::svc::ServerStats minus(const la::svc::ServerStats& a,
                                  const la::svc::ServerStats& b) {
  la::svc::ServerStats d;
  d.requests = a.requests - b.requests;
  d.names_granted = a.names_granted - b.names_granted;
  d.names_freed = a.names_freed - b.names_freed;
  d.pending_parked = a.pending_parked - b.pending_parked;
  d.idle_parks = a.idle_parks - b.idle_parks;
  d.migrations = a.migrations - b.migrations;
  return d;
}

inline void wait_for(const std::atomic<std::uint32_t>& flag,
                     std::uint32_t at_least) {
  while (flag.load(std::memory_order_acquire) < at_least) {
    std::this_thread::yield();
  }
}

// Pin the calling thread to one CPU (modulo the CPUs there are), or with
// `cpu` < 0 let it run anywhere. Each of a workload's four threads gets a
// CPU of its own, so scheduler placement is the same on every run.
inline void pin_to_cpu(int cpu) {
  const unsigned n = std::thread::hardware_concurrency();
  if (n == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned c = 0; c < n; ++c) {
    if (cpu < 0 || c == static_cast<unsigned>(cpu) % n) CPU_SET(c, &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// Wait until the absolute steady-clock instant `due_ns` or until `stop`
// is raised; true when the instant was reached. The issuer sleeps, and
// spins only for the last `spin_ns` before the instant. The in-process
// collectors spin for 5 ms: their vCPU halts between collects and the
// host can take milliseconds to wake it (issuer lag up to 15 ms was
// measured, which blew up collect_p90_us). The svc control thread does
// not spin: a spinning fourth thread slowed the server worker, which
// parks when its rings are empty.
inline bool wait_until_due(std::uint64_t due_ns,
                           const std::atomic<std::uint32_t>& stop,
                           std::uint64_t spin_ns) {
  while (stop.load(std::memory_order_acquire) == 0) {
    const std::uint64_t now = now_ns();
    if (now >= due_ns) return true;
    if (due_ns - now <= spin_ns) {
      la::sync::spin_pause();
    } else {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<std::uint64_t>(due_ns - now - spin_ns, 5'000'000)));
    }
  }
  return false;
}

// Phases the churn threads step through, published by the main thread.
enum Phase : std::uint32_t { kPrefill = 0, kGo = 1, kStop = 2, kDrain = 3 };

// The traced run's event log: stress::EventLog with a global cutoff. An
// event is recorded only while fewer than `cutoff` tickets have been
// issued, so the recorded trace is a prefix of the full one in ticket
// order: a Get of a name can only be recorded if the Free that made it
// available was, which keeps the prefix sound for check_trace.
struct EventRecorder {
  la::stress::EpochClock clock;
  std::uint64_t cutoff = 0;
  bool on = false;

  void record(la::stress::EventLog& log, std::uint32_t thread,
              la::stress::Op op, std::uint64_t name) {
    if (on && clock.issued() < cutoff) log.record(clock, thread, op, name);
  }

  // Merge, drop events past the cutoff, replay; violations go to `out`.
  void check(const std::vector<const la::stress::EventLog*>& logs,
             std::uint64_t total_slots, std::uint64_t capacity,
             Result& out) const {
    std::vector<la::stress::Event> trace = la::stress::merge_logs(logs);
    trace.erase(std::remove_if(trace.begin(), trace.end(),
                               [&](const la::stress::Event& e) {
                                 return e.epoch >= cutoff;
                               }),
                trace.end());
    la::stress::CheckConfig config;
    config.total_slots = total_slots;
    config.max_concurrent = capacity;
    config.expect_empty_at_end = false;
    const la::stress::InvariantReport report =
        la::stress::check_trace(trace, config);
    out.trace_events = report.events;
    for (const auto& v : report.violations) out.fail("check_trace: " + v);
  }
};

// Per-thread harness state, padded so neighbours never share a line.
struct alignas(la::sync::kCacheLineSize) Worker {
  // Ops completed so far, published for the main thread's slice sampler.
  std::atomic<std::uint64_t> progress{0};
  std::vector<std::uint64_t> stash;
  la::stress::EventLog log;
  std::unique_ptr<LogHistogram> get_ns = std::make_unique<LogHistogram>();
  std::unique_ptr<LogHistogram> free_ns = std::make_unique<LogHistogram>();
  std::uint64_t ops = 0;
  std::uint64_t get_exchanges = 0;
  std::uint64_t free_exchanges = 0;
  std::uint64_t granted = 0;  // names received, prefill and drain included
  std::uint64_t freed = 0;
  std::uint64_t failed = 0;
  std::string problem;

  void fail(const std::string& what) {
    ++failed;
    if (problem.empty()) problem = what;
  }
};

// Sleep through the measurement window, reading the workers' progress
// at the end of every slice; out.slice_rates gets each slice's ops/s.
inline void sample_slices(const std::vector<std::unique_ptr<Worker>>& workers,
                          std::uint64_t w0, double seconds, Result& out) {
  const auto slices = static_cast<std::uint64_t>(
      std::max(1.0, std::round(seconds * 1e9 / kSliceNs)));
  const auto window = static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t last_ops = 0;
  std::uint64_t last_t = w0;
  for (std::uint64_t k = 1; k <= slices; ++k) {
    const std::uint64_t due = w0 + window * k / slices;
    const std::uint64_t now = now_ns();
    if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    std::uint64_t ops = 0;
    for (const auto& w : workers) {
      ops += w->progress.load(std::memory_order_relaxed);
    }
    const std::uint64_t t = now_ns();
    out.slice_rates.push_back(static_cast<double>(ops - last_ops) * 1e9 /
                              static_cast<double>(t - last_t));
    last_ops = ops;
    last_t = t;
  }
}

// Compare the union of the workers' stashes with a quiescent collect:
// no duplicates, every name in range, and the two sets equal.
inline void audit_hold_set(const std::vector<std::unique_ptr<Worker>>& workers,
                           std::vector<std::uint64_t> collected,
                           std::uint64_t total_slots, Result& out) {
  std::vector<std::uint64_t> held;
  for (const auto& w : workers) {
    held.insert(held.end(), w->stash.begin(), w->stash.end());
  }
  std::sort(held.begin(), held.end());
  std::sort(collected.begin(), collected.end());
  std::uint64_t dup = 0;
  for (std::size_t i = 1; i < held.size(); ++i) dup += held[i] == held[i - 1];
  if (dup != 0) out.fail("audit: names held twice", dup);
  if (!held.empty() && held.back() >= total_slots) {
    out.fail("audit: held name out of range");
  }
  std::vector<std::uint64_t> diff;
  std::set_symmetric_difference(held.begin(), held.end(), collected.begin(),
                                collected.end(), std::back_inserter(diff));
  if (!diff.empty()) {
    out.fail("audit: collect() differs from the stashes", diff.size());
  }
  out.attempted += 1;
}

template <typename S>
void check_collect(const std::vector<std::uint64_t>& names, const S& s,
                   Result& out) {
  if (names.size() > s.capacity()) out.fail("collect: more names than N");
  const std::uint64_t bound = s.total_slots();
  for (const std::uint64_t n : names) {
    if (n >= bound) {
      out.fail("collect: name out of range");
      break;
    }
  }
}

// ---- flat-churn-collect and sharded-churn-collect --------------------------

template <typename S>
Result run_inprocess(std::unique_ptr<S> (*build)(), const RunSpec& spec) {
  using la::stress::Op;
  Result out;
  EventRecorder events;
  const std::uint64_t start = now_ns();
  std::unique_ptr<S> s = build();
  const std::uint64_t total_slots = s->total_slots();
  const std::uint64_t share = kInprocN / 2 / kChurnThreads;
  events.on = spec.record_events;
  events.cutoff = share * kChurnThreads + kChurnEventBudget;

  std::atomic<std::uint32_t> phase{kPrefill};
  std::atomic<std::uint32_t> ready{0};
  std::atomic<std::uint32_t> stopped{0};
  std::vector<std::unique_ptr<Worker>> workers;
  for (std::uint32_t t = 0; t < kChurnThreads; ++t) {
    workers.push_back(std::make_unique<Worker>());
  }

  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kChurnThreads; ++t) {
    threads.emplace_back([&, t] {
      pin_to_cpu(static_cast<int>(t));
      Worker& w = *workers[t];
      la::rng::MarsagliaXorshift rng(la::rng::mix_seed(spec.seed, t + 1));
      try {
        w.stash.reserve(share);
        if (events.on) w.log.reserve(share + kChurnEventBudget);
        for (std::uint64_t i = 0; i < share; ++i) {
          const la::GetResult r = s->get(rng);
          events.record(w.log, t, Op::kGet, r.name);
          w.stash.push_back(r.name);
        }
        w.granted += share;
      } catch (const std::exception& e) {
        w.fail(std::string("prefill: ") + e.what());
      }
      ready.fetch_add(1, std::memory_order_acq_rel);
      wait_for(phase, kGo);
      std::uint64_t it = 0;
      try {
        const std::uint64_t size = w.stash.size();
        // The next victim's stash slot is drawn one iteration early and
        // prefetched, so the harness's own cache miss overlaps the
        // structure's work instead of adding to it.
        std::uint64_t next = la::rng::bounded(rng, size);
        if (size != 0) {
          for (;;) {
            if ((it & 63) == 0) {
              w.progress.store(2 * it, std::memory_order_relaxed);
              if (phase.load(std::memory_order_relaxed) != kGo) break;
            }
            ++it;
            const std::uint64_t idx = next;
            next = la::rng::bounded(rng, size);
            __builtin_prefetch(&w.stash[next], 1);
            const std::uint64_t name = w.stash[idx];
            events.record(w.log, t, Op::kFree, name);
            la::GetResult r;
            if (it % kLatencyStride == 0) {
              const std::uint64_t t0 = now_ns();
              s->free(name);
              const std::uint64_t t1 = now_ns();
              r = s->get(rng);
              const std::uint64_t t2 = now_ns();
              w.free_ns->add(t1 - t0);
              w.get_ns->add(t2 - t1);
            } else {
              s->free(name);
              r = s->get(rng);
            }
            events.record(w.log, t, Op::kGet, r.name);
            if (r.name >= total_slots) w.fail("get: name out of range");
            w.stash[idx] = r.name;
          }
        }
      } catch (const std::exception& e) {
        w.fail(std::string("churn: ") + e.what());
      }
      w.ops = 2 * it;
      w.get_exchanges = it;
      w.free_exchanges = it;
      stopped.fetch_add(1, std::memory_order_acq_rel);
      wait_for(phase, kDrain);
      if (spec.setup_only) return;
      try {
        for (const std::uint64_t name : w.stash) s->free(name);
        w.freed += w.stash.size();
      } catch (const std::exception& e) {
        w.fail(std::string("drain: ") + e.what());
      }
    });
  }
  wait_for(ready, kChurnThreads);
  out.setup_s = static_cast<double>(now_ns() - start) * 1e-9;

  auto sharded_stats = [&] {
    if constexpr (has_sharded_stats_v<S>) {
      return s->stats();
    } else {
      return la::scale::ShardedStats{};
    }
  };
  auto gate_stats = [&] {
    if constexpr (la::api::has_wait_stats_v<S>) {
      return s->wait_stats();
    } else {
      return la::api::WaitStats{};
    }
  };

  std::thread collector;
  if (!spec.setup_only) {
    collector = std::thread([&] {
      pin_to_cpu(kChurnThreads);
      std::vector<std::uint64_t> names;
      names.reserve(kInprocN);
      wait_for(phase, kGo);
      const std::uint64_t t0 = now_ns();
      for (std::uint64_t k = 0;; ++k) {
        const std::uint64_t due = t0 + k * kCollectPeriodNs;
        if (!wait_until_due(due, stopped, 5'000'000)) break;
        const std::uint64_t issued = now_ns();
        names.clear();
        try {
          s->collect(names);
          check_collect(names, *s, out);
        } catch (const std::exception& e) {
          out.fail(std::string("collect: ") + e.what());
        }
        const std::uint64_t done = now_ns();
        out.collect_us.push_back(static_cast<double>(done - due) * 1e-3);
        out.collect_lag_us.push_back(static_cast<double>(issued - due) * 1e-3);
      }
    });
    const la::scale::ShardedStats sharded0 = sharded_stats();
    const la::api::WaitStats gate0 = gate_stats();
    if (spec.traced) TraceRegistry::instance().set_enabled(true);
    const std::uint64_t w0 = now_ns();
    phase.store(kGo, std::memory_order_release);
    sample_slices(workers, w0, spec.seconds, out);
    phase.store(kStop, std::memory_order_release);
    wait_for(stopped, kChurnThreads);
    out.window_s = static_cast<double>(now_ns() - w0) * 1e-9;
    TraceRegistry::instance().set_enabled(false);
    // The collector sleeps on `stopped`, which is now nonzero.
    collector.join();
    out.sharded = minus(sharded_stats(), sharded0);
    out.gate = minus(gate_stats(), gate0);

    std::vector<std::uint64_t> collected;
    try {
      s->collect(collected);
    } catch (const std::exception& e) {
      out.fail(std::string("audit collect: ") + e.what());
    }
    audit_hold_set(workers, std::move(collected), total_slots, out);
  } else {
    phase.store(kStop, std::memory_order_release);
  }
  phase.store(kDrain, std::memory_order_release);
  for (auto& t : threads) t.join();
  if (spec.setup_only) return out;

  std::vector<std::uint64_t> leftover;
  s->collect(leftover);
  if (!leftover.empty()) out.fail("audit: names held after the drain",
                                  leftover.size());
  out.attempted += 1 + out.collect_us.size();
  std::vector<const la::stress::EventLog*> logs;
  for (const auto& w : workers) {
    out.ops += w->ops;
    out.get_exchanges += w->get_exchanges;
    out.free_exchanges += w->free_exchanges;
    out.get_ns->merge(*w->get_ns);
    out.free_ns->merge(*w->free_ns);
    if (w->failed != 0) out.fail(w->problem, w->failed);
    logs.push_back(&w->log);
  }
  out.attempted += out.ops;
  if (events.on) {
    events.check(logs, total_slots, s->capacity(), out);
    out.attempted += 1;
  }
  return out;
}

// ---- stack builders ----------------------------------------------------------

inline la::api::RenamerConfig inproc_config() {
  la::api::RenamerConfig c;
  c.capacity = kInprocN;
  c.size_factor = 2.0;
  c.shards = kShards;
  c.name_cache_capacity = kNameCache;
  return c;
}

template <typename Stack>
using FlatOf = typename Stack::template Core<la::core::LevelArray>;

template <typename Stack>
std::unique_ptr<FlatOf<Stack>> build_flat() {
  return wrap<Stack::template Core>(
      la::api::detail::LevelEntry::make(inproc_config()));
}

template <typename Stack>
using ShardedCoreOf =
    la::scale::ShardedRenamer<typename Stack::template Core<la::core::LevelArray>>;

// The `sharded:level` registry entry when the core is bare; otherwise
// the same shape composed by hand with each shard wrapped, built through
// the same shard factory signature.
template <typename Stack>
std::unique_ptr<ShardedCoreOf<Stack>> build_sharded_core(
    const la::api::RenamerConfig& c) {
  using Core = typename Stack::template Core<la::core::LevelArray>;
  if constexpr (std::is_same_v<Core, la::core::LevelArray>) {
    return la::api::detail::ShardedEntry<la::api::detail::LevelEntry>::make(c);
  } else {
    la::scale::ShardedConfig sharded;
    sharded.shards = c.shards;
    sharded.cache_capacity = c.name_cache_capacity;
    la::api::RenamerConfig inner = c;
    inner.capacity = (c.capacity + c.shards - 1) / c.shards;
    return std::make_unique<ShardedCoreOf<Stack>>(
        sharded, [&inner](std::uint32_t) {
          return wrap<Stack::template Core>(
              la::api::detail::LevelEntry::make(inner));
        });
  }
}

template <typename Stack>
using ShardedOf = typename Stack::template Scale<ShardedCoreOf<Stack>>;

template <typename Stack>
std::unique_ptr<ShardedOf<Stack>> build_sharded() {
  return wrap<Stack::template Scale>(
      build_sharded_core<Stack>(inproc_config()));
}

// ---- svc-batch-migrate -----------------------------------------------------

inline la::api::RenamerConfig svc_config() {
  la::api::RenamerConfig c;
  c.capacity = kSvcN;
  c.size_factor = 2.0;
  c.shards = kShards;
  c.name_cache_capacity = kNameCache;
  return c;
}

template <typename Stack>
Result run_svc(const RunSpec& spec) {
  using la::stress::Op;
  using ShardedT = ShardedCoreOf<Stack>;
  using StructureT = typename Stack::template Dispatch<la::ckpt::AnyRenamer>;
  using ClientT = typename Stack::template Client<la::svc::Client>;
  Result out;
  EventRecorder events;
  const std::uint64_t start = now_ns();

  la::svc::SegmentConfig seg_config;
  seg_config.max_clients = 8;
  seg_config.ring_depth = 8;
  la::svc::Segment segment(seg_config);
  std::unique_ptr<ShardedT> first = build_sharded_core<Stack>(svc_config());
  ShardedT* current = first.get();
  const std::uint64_t stride = first->shard_stride();
  std::unique_ptr<StructureT> structure = wrap<Stack::template Dispatch>(
      std::make_unique<la::ckpt::AnyRenamer>(std::move(first),
                                             "sharded:level"));
  la::svc::Server<StructureT> server(segment.view(), *structure, 1);
  // The worker thread inherits the starting thread's CPU.
  pin_to_cpu(kSvcClients + 1);
  server.start();
  pin_to_cpu(-1);
  std::unique_ptr<ClientT> client =
      wrap<Stack::template Client>(std::make_unique<la::svc::Client>(
          segment.view()));
  const std::uint64_t total_slots = client->total_slots();
  const std::uint64_t share = kSvcN / 2 / kSvcClients;
  events.on = spec.record_events;
  events.cutoff = share * kSvcClients + kChurnEventBudget;

  std::atomic<std::uint32_t> phase{kPrefill};
  std::atomic<std::uint32_t> ready{0};
  std::atomic<std::uint32_t> stopped{0};
  std::vector<std::unique_ptr<Worker>> workers;
  for (std::uint32_t t = 0; t < kSvcClients; ++t) {
    workers.push_back(std::make_unique<Worker>());
  }

  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kSvcClients; ++t) {
    threads.emplace_back([&, t] {
      pin_to_cpu(static_cast<int>(t));
      Worker& w = *workers[t];
      la::rng::MarsagliaXorshift rng(la::rng::mix_seed(spec.seed, t + 1));
      la::GetResult got[kSvcBatch];
      std::uint64_t victims[kSvcBatch];
      // Top the stash up by `want` names, one Get exchange at a time.
      auto top_up = [&](std::size_t want, bool timed) {
        while (want != 0) {
          const std::size_t ask = want < kSvcBatch ? want : kSvcBatch;
          std::size_t n;
          if (timed && ++w.get_exchanges % kLatencyStride == 0) {
            const std::uint64_t t0 = now_ns();
            n = client->get_batch(rng, got, ask);
            w.get_ns->add(now_ns() - t0);
          } else {
            n = client->get_batch(rng, got, ask);
          }
          if (n == 0) throw std::runtime_error("get_batch granted nothing");
          for (std::size_t j = 0; j < n; ++j) {
            events.record(w.log, t, Op::kGet, got[j].name);
            if (got[j].name >= total_slots) w.fail("get: name out of range");
            w.stash.push_back(got[j].name);
          }
          w.granted += n;
          want -= n;
        }
      };
      try {
        w.stash.reserve(share + kSvcBatch);
        if (events.on) w.log.reserve(share + kChurnEventBudget);
        top_up(share, false);
      } catch (const std::exception& e) {
        w.fail(std::string("prefill: ") + e.what());
      }
      ready.fetch_add(1, std::memory_order_acq_rel);
      wait_for(phase, kGo);
      std::uint64_t ops = 0;
      try {
        while (w.stash.size() >= kSvcBatch &&
               phase.load(std::memory_order_relaxed) == kGo) {
          for (std::size_t j = 0; j < kSvcBatch; ++j) {
            const std::uint64_t idx = la::rng::bounded(rng, w.stash.size());
            victims[j] = w.stash[idx];
            w.stash[idx] = w.stash.back();
            w.stash.pop_back();
            events.record(w.log, t, Op::kFree, victims[j]);
          }
          if (++w.free_exchanges % kLatencyStride == 0) {
            const std::uint64_t t0 = now_ns();
            client->free_batch(victims, kSvcBatch);
            w.free_ns->add(now_ns() - t0);
          } else {
            client->free_batch(victims, kSvcBatch);
          }
          w.freed += kSvcBatch;
          top_up(kSvcBatch, true);
          ops += 2 * kSvcBatch;
          w.progress.store(ops, std::memory_order_relaxed);
        }
      } catch (const std::exception& e) {
        w.fail(std::string("churn: ") + e.what());
      }
      w.ops = ops;
      stopped.fetch_add(1, std::memory_order_acq_rel);
      wait_for(phase, kDrain);
      if (spec.setup_only) return;
      try {
        for (std::size_t i = 0; i < w.stash.size(); i += kSvcBatch) {
          const std::size_t n = std::min(kSvcBatch, w.stash.size() - i);
          client->free_batch(w.stash.data() + i, n);
          w.freed += n;
        }
      } catch (const std::exception& e) {
        w.fail(std::string("drain: ") + e.what());
      }
    });
  }
  wait_for(ready, kSvcClients);
  out.setup_s = static_cast<double>(now_ns() - start) * 1e-9;

  auto any_of = [](StructureT& s) -> la::ckpt::AnyRenamer& {
    if constexpr (std::is_same_v<StructureT, la::ckpt::AnyRenamer>) {
      return s;
    } else {
      return s.inner();
    }
  };

  // Live migration to the same shape: save, rebuild with the same stride,
  // restore, swap. Stats of the retired instance are folded into the
  // running totals first, so the scale counters span every instance.
  la::scale::ShardedStats retired_stats{};
  la::api::WaitStats retired_wait{};
  auto migrate = [&] {
    la::ckpt::Image image;
    double save_us = 0, rebuild_us = 0, restore_us = 0;
    bool ok = false;
    const std::uint64_t p0 = now_ns();
    server.migrate([&](StructureT& s) {
      la::ckpt::AnyRenamer& any = any_of(s);
      try {
        const std::uint64_t t0 = now_ns();
        image = la::api::save(any, any.tag());
        const std::uint64_t t1 = now_ns();
        std::unique_ptr<ShardedT> fresh =
            build_sharded_core<Stack>(svc_config());
        const std::uint64_t t2 = now_ns();
        if (fresh->shard_stride() != stride) {
          throw std::logic_error("rebuilt shape changed its stride");
        }
        la::api::restore(*fresh, image);
        const std::uint64_t t3 = now_ns();
        retired_stats = plus(retired_stats, current->stats());
        retired_wait = plus(retired_wait, current->wait_stats());
        current = fresh.get();
        any.replace(std::move(fresh), "sharded:level");
        save_us = static_cast<double>(t1 - t0) * 1e-3;
        rebuild_us = static_cast<double>(t2 - t1) * 1e-3;
        restore_us = static_cast<double>(t3 - t2) * 1e-3;
        ok = true;
      } catch (const std::exception& e) {
        out.fail(std::string("migrate: ") + e.what());
      }
    });
    const double pause = static_cast<double>(now_ns() - p0) * 1e-3;
    if (!ok) return;
    out.pause_us.push_back(pause);
    out.save_us.push_back(save_us);
    out.rebuild_us.push_back(rebuild_us);
    out.restore_us.push_back(restore_us);
    out.quiesce_us.push_back(pause - save_us - rebuild_us - restore_us);
    out.names_carried.push_back(static_cast<double>(image.held.size()));
    out.image_bytes.push_back(static_cast<double>(image.encode().size()));
  };
  auto scale_totals = [&] { return plus(retired_stats, current->stats()); };
  auto gate_totals = [&] { return plus(retired_wait, current->wait_stats()); };

  if (!spec.setup_only) {
    std::thread control([&] {
      pin_to_cpu(kSvcClients);
      std::vector<std::uint64_t> names;
      wait_for(phase, kGo);
      const la::scale::ShardedStats sharded0 = scale_totals();
      const la::api::WaitStats gate0 = gate_totals();
      const std::uint64_t t0 = now_ns();
      std::uint64_t collects = 0;
      std::uint64_t migrations = 1;
      for (;;) {
        const std::uint64_t collect_due = t0 + collects * kSvcCollectPeriodNs;
        const std::uint64_t migrate_due = t0 + migrations * kMigratePeriodNs;
        const bool is_collect = collect_due <= migrate_due;
        const std::uint64_t due = is_collect ? collect_due : migrate_due;
        if (!wait_until_due(due, stopped, 0)) break;
        if (!is_collect) {
          migrate();
          ++migrations;
          continue;
        }
        const std::uint64_t issued = now_ns();
        try {
          client->collect(names);
          std::sort(names.begin(), names.end());
          if (std::adjacent_find(names.begin(), names.end()) != names.end()) {
            out.fail("collect: duplicate name");
          }
          check_collect(names, *client, out);
        } catch (const std::exception& e) {
          out.fail(std::string("collect: ") + e.what());
        }
        const std::uint64_t done = now_ns();
        out.collect_us.push_back(static_cast<double>(done - due) * 1e-3);
        out.collect_lag_us.push_back(static_cast<double>(issued - due) * 1e-3);
        ++collects;
      }
      out.sharded = minus(scale_totals(), sharded0);
      out.gate = minus(gate_totals(), gate0);
    });
    const la::svc::ServerStats server0 = server.stats();
    const la::api::WaitStats client0 = client->wait_stats();
    if (spec.traced) TraceRegistry::instance().set_enabled(true);
    const std::uint64_t w0 = now_ns();
    phase.store(kGo, std::memory_order_release);
    sample_slices(workers, w0, spec.seconds, out);
    phase.store(kStop, std::memory_order_release);
    wait_for(stopped, kSvcClients);
    out.window_s = static_cast<double>(now_ns() - w0) * 1e-9;
    TraceRegistry::instance().set_enabled(false);
    control.join();
    out.server = minus(server.stats(), server0);
    out.client_wait = minus(client->wait_stats(), client0);

    std::vector<std::uint64_t> collected;
    try {
      client->collect(collected);
    } catch (const std::exception& e) {
      out.fail(std::string("audit collect: ") + e.what());
    }
    audit_hold_set(workers, std::move(collected), total_slots, out);
  } else {
    phase.store(kStop, std::memory_order_release);
  }
  phase.store(kDrain, std::memory_order_release);
  for (auto& t : threads) t.join();
  if (spec.setup_only) {
    client.reset();
    server.stop();
    return out;
  }

  std::vector<std::uint64_t> leftover;
  try {
    client->collect(leftover);
  } catch (const std::exception& e) {
    out.fail(std::string("audit collect: ") + e.what());
  }
  if (!leftover.empty()) {
    out.fail("audit: names held after the drain", leftover.size());
  }
  std::uint64_t granted = 0;
  std::uint64_t freed = 0;
  std::vector<const la::stress::EventLog*> logs;
  for (const auto& w : workers) {
    out.ops += w->ops;
    out.get_exchanges += w->get_exchanges;
    out.free_exchanges += w->free_exchanges;
    out.get_ns->merge(*w->get_ns);
    out.free_ns->merge(*w->free_ns);
    granted += w->granted;
    freed += w->freed;
    if (w->failed != 0) out.fail(w->problem, w->failed);
    logs.push_back(&w->log);
  }
  client.reset();
  server.stop();
  if (!server.error().empty()) out.fail("server: " + server.error());
  const la::svc::ServerStats totals = server.stats();
  if (totals.names_granted != granted || totals.names_freed != freed) {
    out.fail("audit: server grant/free counts differ from the clients'");
  }
  out.attempted += 4 + out.ops + out.collect_us.size() + out.pause_us.size();
  if (events.on) {
    events.check(logs, total_slots, kSvcN, out);
    out.attempted += 1;
  }
  return out;
}

}  // namespace perfbench
