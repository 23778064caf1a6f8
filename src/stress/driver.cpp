#include "stress/driver.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/renamer.hpp"
#include "bench_util/timing.hpp"
#include "bench_util/workload.hpp"
#include "rng/rng.hpp"
#include "sim/metrics.hpp"
#include "sync/cache.hpp"
#include "sync/futex.hpp"
#include "sync/spin_barrier.hpp"
#include "sync/thread_utils.hpp"

namespace la::stress {
namespace {

// The one probe generator (the §6 RNG ablation is churn_sweep --rng).
using Rng = rng::MarsagliaXorshift;

// Deep batches smaller than this are noise-dominated (mirrors the
// Definition 2 calibration in sim/metrics).
constexpr std::uint64_t kMinCheckedBatchSlots = 16;
// The healing verdict: after the window, no deep batch may be fuller than
// this. The steady state with the implementation's c_i = 1 sits near the
// Definition 2 threshold (half full — see fig3_healing's note), so the
// strict Proposition 3 bound would flake; 0.85 is comfortably above the
// steady state and comfortably below "jammed".
constexpr double kMaxDeepBatchFill = 0.85;

// One name held by the zipf scenario, due back at `expires` (in the
// owning thread's iteration count).
struct TimedHold {
  std::uint64_t name = 0;
  std::uint64_t expires = 0;
};

struct ThreadState {
  EventLog log;
  stats::TrialStats trials;
  std::uint64_t ops = 0;
  std::uint64_t backup_gets = 0;
  std::uint64_t timed_gets = 0;
  std::uint64_t timeouts = 0;
  double seconds_active = 0.0;
  std::string error;  // non-empty = the thread died on an exception
  std::vector<std::uint64_t> held;
  std::vector<TimedHold> timed_held;
};

// Per-scenario sizing: how many names one thread keeps in flight.
std::uint64_t per_thread_target(const StressConfig& cfg) {
  const std::uint64_t n = cfg.effective_capacity();
  const auto threads =
      static_cast<std::uint64_t>(cfg.threads == 0 ? 1 : cfg.threads);
  switch (cfg.scenario) {
    case Scenario::kOversub: {
      // Push aggregate holds to just under the contention bound, leaving
      // a couple of free slots per thread so every Get can terminate.
      const std::uint64_t headroom = 2 * threads;
      const std::uint64_t usable = n > headroom ? n - headroom : threads;
      const std::uint64_t target = usable / threads;
      return target < 1 ? 1 : target;
    }
    case Scenario::kSteady:
    case Scenario::kBurst:
    case Scenario::kZipf:
    case Scenario::kJoinLeave: {
      const std::uint64_t target = n / (2 * threads);
      return target < 1 ? 1 : target;
    }
  }
  return 1;
}

// What logged_get returns for a timed-out refusal; never a name (names
// are < total_slots).
constexpr std::uint64_t kRefused = ~std::uint64_t{0};

// Shared bookkeeping for one worker's Get / Free, with logging in the
// sound ticket order (see event_log.hpp). `deadline_ns` is a per-Get
// budget (0 = untimed, which cannot refuse). A timed-out refusal
// acquired nothing, so nothing is logged and kRefused comes back, but it
// still spends budget — ops mode must terminate even if every remaining
// Get times out.
template <typename Array>
std::uint64_t logged_get(Array& array, Rng& rng, EpochClock& clock,
                         ThreadState& st, std::uint32_t tid,
                         std::uint64_t deadline_ns = 0) {
  ++st.ops;
  std::uint64_t until = api::kNoDeadline;
  if (deadline_ns != 0) {
    ++st.timed_gets;
    until = sync::FutexWord::monotonic_now_ns() + deadline_ns;
  }
  GetResult r;
  if (!api::get_for(array, rng, r, until)) {
    ++st.timeouts;
    return kRefused;
  }
  st.log.record(clock, tid, Op::kGet, r.name);  // ticket after the acquire
  st.trials.record(r.probes);
  if (r.used_backup) ++st.backup_gets;
  return r.name;
}

template <typename Array>
void logged_free(Array& array, std::uint64_t name, EpochClock& clock,
                 ThreadState& st, std::uint32_t tid) {
  st.log.record(clock, tid, Op::kFree, name);  // ticket before the release
  array.free(name);
  ++st.ops;
}

// Budget for one worker: ops mode counts individual Gets+Frees, timed
// mode polls the thread's stopwatch every 32 checks. The shared stop
// flag (a sibling worker died) ends every scenario early — without it,
// the survivors would churn their full budget against a structure
// already known to be broken.
class Budget {
 public:
  Budget(const StressConfig& cfg, const bench::Stopwatch& watch,
         const std::atomic<bool>& stop)
      : ops_limit_(cfg.ops_per_thread),
        seconds_(cfg.seconds),
        watch_(watch),
        stop_(stop) {}

  bool exhausted(const ThreadState& st) {
    if (stop_.load(std::memory_order_acquire)) return true;
    if (ops_limit_ != 0) return st.ops >= ops_limit_;
    if ((++polls_ & 31u) != 0) return false;
    return watch_.elapsed_seconds() >= seconds_;
  }

 private:
  std::uint64_t ops_limit_;
  double seconds_;
  const bench::Stopwatch& watch_;
  const std::atomic<bool>& stop_;
  std::uint32_t polls_ = 0;
};

// --- worker loops, one per scenario -------------------------------------

// steady / oversub: back-to-back churn holding ~target names; oversub
// only differs in how high target sits (just under the contention bound,
// or above it when a deadline makes refusals survivable). `deadline_ns`
// is the per-Get budget (0 = untimed).
template <typename Array>
void run_churn_worker(Array& array, Rng& rng, EpochClock& clock,
                      ThreadState& st, std::uint32_t tid,
                      std::uint64_t target, Budget& budget,
                      std::uint64_t deadline_ns) {
  while (!budget.exhausted(st)) {
    if (!st.held.empty() &&
        (st.held.size() >= target || rng::bounded(rng, 4) == 0)) {
      const std::uint64_t victim = rng::bounded(rng, st.held.size());
      logged_free(array, st.held[victim], clock, st, tid);
      st.held[victim] = st.held.back();
      st.held.pop_back();
      continue;
    }
    const std::uint64_t name =
        logged_get(array, rng, clock, st, tid, deadline_ns);
    if (name != kRefused) st.held.push_back(name);
  }
}

// burst: every round all threads cross the barrier together, storm the
// structure with `holds` back-to-back Gets, meet again, release
// everything, repeat. Rounds are budget-derived in ops mode (identical on
// every thread, so barrier participation matches) and flagged off by
// thread 0 in timed mode. A poisoned barrier (a worker died) falls
// through immediately; the stop check after the rendezvous then ends the
// round loop, and each thread frees whatever it acquired this round.
template <typename Array>
void run_burst_worker(Array& array, Rng& rng, EpochClock& clock,
                      ThreadState& st, std::uint32_t tid, std::uint64_t holds,
                      std::uint64_t rounds, sync::SpinBarrier& barrier,
                      std::atomic<bool>& stop, const StressConfig& cfg,
                      const bench::Stopwatch& watch) {
  const bool timed = cfg.ops_per_thread == 0;
  for (std::uint64_t round = 0; timed || round < rounds; ++round) {
    if (timed && tid == 0 && watch.elapsed_seconds() >= cfg.seconds) {
      stop.store(true, std::memory_order_release);
    }
    barrier.wait();
    if (stop.load(std::memory_order_acquire)) break;
    for (std::uint64_t h = 0; h < holds; ++h) {
      st.held.push_back(logged_get(array, rng, clock, st, tid));
    }
    barrier.wait();
    for (const auto name : st.held) logged_free(array, name, clock, st, tid);
    st.held.clear();
  }
}

// zipf: names age out on Zipf-skewed hold times — most are freed almost
// immediately, a heavy tail pins slots ~10x the mean, so old and fresh
// names stay interleaved across the slots.
template <typename Array>
void run_zipf_worker(Array& array, Rng& rng, EpochClock& clock,
                     ThreadState& st, std::uint32_t tid, std::uint64_t target,
                     Budget& budget) {
  constexpr double kMeanHoldIters = 16.0;
  st.timed_held.reserve(static_cast<std::size_t>(target + 1));
  std::uint64_t iter = 0;
  while (!budget.exhausted(st)) {
    for (std::size_t i = 0; i < st.timed_held.size();) {
      if (st.timed_held[i].expires <= iter) {
        logged_free(array, st.timed_held[i].name, clock, st, tid);
        st.timed_held[i] = st.timed_held.back();
        st.timed_held.pop_back();
      } else {
        ++i;
      }
    }
    if (st.timed_held.size() < target) {
      const std::uint64_t name = logged_get(array, rng, clock, st, tid);
      const std::uint64_t hold = bench::draw_hold_time(
          rng, bench::HoldDistribution::kZipf, kMeanHoldIters);
      st.timed_held.push_back(TimedHold{name, iter + hold});
    }
    ++iter;
  }
  // Hand whatever is still pinned to the post-join reaper via the stash.
  for (const auto& h : st.timed_held) st.held.push_back(h.name);
  st.timed_held.clear();
}

// joinleave: thread tid idles until the run has globally progressed
// tid * stagger events (the epoch clock doubles as the progress signal),
// churns its budget, then drains and leaves — membership ramps up and
// down around a live structure. Thread 0 starts immediately, and each
// threshold is below what the predecessors' completed budgets alone
// produce, so the wait terminates; `stop` (a worker died) bails it out
// of a wait that can no longer be satisfied.
template <typename Array>
void run_joinleave_worker(Array& array, Rng& rng, EpochClock& clock,
                          ThreadState& st, std::uint32_t tid,
                          std::uint64_t target, Budget& budget,
                          std::atomic<bool>& stop, const StressConfig& cfg,
                          const bench::Stopwatch& watch,
                          std::uint64_t deadline_ns) {
  sync::Backoff backoff;
  if (cfg.ops_per_thread != 0) {
    const std::uint64_t stagger =
        cfg.ops_per_thread / 2 < 1 ? 1 : cfg.ops_per_thread / 2;
    const std::uint64_t threshold = stagger * tid;
    while (clock.issued() < threshold &&
           !stop.load(std::memory_order_acquire)) {
      backoff.pause();
    }
  } else {
    const double join_at =
        cfg.seconds * static_cast<double>(tid) /
        (2.0 * static_cast<double>(cfg.threads == 0 ? 1 : cfg.threads));
    while (watch.elapsed_seconds() < join_at &&
           !stop.load(std::memory_order_acquire)) {
      backoff.pause();
    }
  }
  run_churn_worker(array, rng, clock, st, tid, target, budget, deadline_ns);
  for (const auto name : st.held) logged_free(array, name, clock, st, tid);
  st.held.clear();
}

// --- healing window -----------------------------------------------------

// For structures with the batch surface: rebuild Fig. 3's bad state
// (deep batch 1 forced to its overcrowding threshold) on top of whatever
// the run left, churn at half the contention bound, and require every
// deep batch to end below kMaxDeepBatchFill. Runs single-threaded
// on the reaper id; everything is logged, so the checker covers this
// phase too. Returns the phase's peak concurrent holds.
template <typename Array>
std::uint64_t run_healing_window(Array& array, Rng& rng, EpochClock& clock,
                                 ThreadState& reaper, std::uint32_t reaper_tid,
                                 std::vector<std::uint64_t>& pool,
                                 const StressConfig& cfg,
                                 StressReport& report) {
  const std::uint64_t n = cfg.effective_capacity();
  const std::uint64_t heal_load = n / 2 < 1 ? 1 : n / 2;
  const std::uint64_t heal_ops = cfg.heal_ops != 0 ? cfg.heal_ops : 4 * n;

  // Adjust the leftover pool down/up to the healing load.
  while (pool.size() > heal_load) {
    logged_free(array, pool.back(), clock, reaper, reaper_tid);
    pool.pop_back();
  }
  while (pool.size() < heal_load) {
    pool.push_back(logged_get(array, rng, clock, reaper, reaper_tid));
  }

  // Fig. 3's bad state: batch 1 forced up to its Definition 2 threshold.
  std::uint64_t seeded = 0;
  if (array.geometry().num_batches() > 1) {
    const auto names = array.seed_batch_occupancy(
        1, sim::overcrowding_threshold(1, array.capacity()));
    for (const auto name : names) {
      // seed_batch_occupancy acquires directly; mirror it in the log.
      reaper.log.record(clock, reaper_tid, Op::kGet, name);
      pool.push_back(name);
    }
    seeded = names.size();
  }

  // Churn back down to the healing load, then keep churning — the
  // paper's recovery schedule.
  for (std::uint64_t op = 0; op < heal_ops; ++op) {
    const std::uint64_t victim = rng::bounded(rng, pool.size());
    logged_free(array, pool[victim], clock, reaper, reaper_tid);
    pool[victim] = pool.back();
    pool.pop_back();
    if (pool.size() < heal_load) {
      pool.push_back(logged_get(array, rng, clock, reaper, reaper_tid));
    }
  }

  // Verdict: every deep batch with enough slots to matter must end
  // bounded away from full.
  const auto occupancy = array.batch_occupancy();
  double max_fill = 0.0;
  for (std::size_t k = 1; k < occupancy.size(); ++k) {
    const auto size =
        array.geometry().batch(static_cast<std::uint32_t>(k)).size();
    if (size < kMinCheckedBatchSlots) continue;
    const double fill =
        static_cast<double>(occupancy[k]) / static_cast<double>(size);
    if (fill > max_fill) max_fill = fill;
  }
  report.balance_checked = true;
  report.heal_max_deep_fill = max_fill;
  report.balanced = max_fill <= kMaxDeepBatchFill;
  return heal_load + seeded;
}

// --- the driver ---------------------------------------------------------

template <typename Array>
StressReport drive(Array& array, const StressConfig& cfg) {
  const std::uint32_t threads = cfg.threads == 0 ? 1 : cfg.threads;
  const std::uint64_t n = cfg.effective_capacity();
  if (n < 4 * static_cast<std::uint64_t>(threads)) {
    throw std::invalid_argument(
        "run_stress: capacity " + std::to_string(n) + " is too small for " +
        std::to_string(threads) + " threads (need >= 4 * threads)");
  }
  std::uint64_t target = per_thread_target(cfg);
  // Deadline knob: only honored where the structure can actually bound a
  // Get (api deadline surface). Under a deadline, oversub flips from
  // "just under the bound" to *over* it — aggregate demand exceeds n, so
  // a nonzero timeout rate is the expected (and asserted, by harnesses)
  // outcome rather than a hang.
  std::uint64_t deadline_ns = 0;
  if constexpr (api::has_deadline_ops_v<Array>) {
    deadline_ns = cfg.deadline_ns;
    if (deadline_ns != 0 && cfg.scenario == Scenario::kOversub) {
      target = n / threads + 2;
    }
  }
  const std::uint64_t worker_bound = target * threads;

  StressReport report;
  EpochClock clock;
  std::vector<sync::CachePadded<ThreadState>> states(threads);
  for (auto& st : states) {
    st->log.reserve(
        static_cast<std::size_t>(2 * cfg.ops_per_thread + 2 * target + 64));
    st->held.reserve(static_cast<std::size_t>(target + 1));
  }

  sync::SpinBarrier barrier(threads);
  std::atomic<bool> stop{false};
  const std::uint64_t burst_rounds =
      cfg.ops_per_thread == 0
          ? 0
          : std::max<std::uint64_t>(cfg.ops_per_thread / (2 * target), 1);

  {
    sync::ThreadGroup group;
    group.spawn(threads, [&](std::uint32_t tid) {
      ThreadState& st = *states[tid];
      try {
        Rng rng(rng::mix_seed(cfg.seed, tid + 1));
        barrier.wait();
        bench::Stopwatch watch;
        Budget budget(cfg, watch, stop);
        switch (cfg.scenario) {
          case Scenario::kSteady:
          case Scenario::kOversub:
            run_churn_worker(array, rng, clock, st, tid, target, budget,
                             deadline_ns);
            break;
          case Scenario::kBurst:
            run_burst_worker(array, rng, clock, st, tid, target, burst_rounds,
                             barrier, stop, cfg, watch);
            break;
          case Scenario::kZipf:
            run_zipf_worker(array, rng, clock, st, tid, target, budget);
            break;
          case Scenario::kJoinLeave:
            run_joinleave_worker(array, rng, clock, st, tid, target, budget,
                                 stop, cfg, watch, deadline_ns);
            break;
        }
        st.seconds_active = watch.elapsed_seconds();
      } catch (const std::exception& e) {
        st.error = e.what();
        stop.store(true, std::memory_order_release);
        barrier.abort();  // wake anyone parked on a rendezvous with us
      }
    });
  }

  // Workers have joined; aggregate their outputs.
  std::vector<std::uint64_t> pool;
  for (std::uint32_t tid = 0; tid < threads; ++tid) {
    const ThreadState& st = *states[tid];
    report.trials.merge(st.trials);
    report.total_ops += st.ops;
    report.backup_gets += st.backup_gets;
    report.timed_gets += st.timed_gets;
    report.timeouts += st.timeouts;
    if (st.seconds_active > report.elapsed_seconds) {
      report.elapsed_seconds = st.seconds_active;
    }
    pool.insert(pool.end(), st.held.begin(), st.held.end());
    // A thread that died mid-scenario may still have zipf timed holds.
    for (const auto& h : st.timed_held) pool.push_back(h.name);
  }

  std::vector<std::string> driver_errors;
  for (std::uint32_t tid = 0; tid < threads; ++tid) {
    if (!states[tid]->error.empty()) {
      driver_errors.push_back("thread " + std::to_string(tid) +
                              " died: " + states[tid]->error);
    }
  }

  // Cross-check the structure's own view against the log before touching
  // anything: collect() at quiescence must see exactly the leftovers.
  {
    std::vector<std::uint64_t> collected;
    array.collect(collected);
    std::vector<std::uint64_t> expected = pool;
    std::sort(collected.begin(), collected.end());
    std::sort(expected.begin(), expected.end());
    if (collected != expected) {
      driver_errors.push_back(
          "collect() at quiescence disagrees with the log (" +
          std::to_string(collected.size()) + " collected vs " +
          std::to_string(expected.size()) + " logged holds)");
    }
  }

  // Post-join phases run on a virtual "reaper" thread id (= threads):
  // the fork/join transferred ownership of the leftovers to the driver.
  const std::uint32_t reaper_tid = threads;
  ThreadState reaper;
  std::uint64_t heal_peak = 0;
  Rng reaper_rng(rng::mix_seed(cfg.seed, 0x4EA9E4ull));
  if constexpr (api::has_batch_surface_v<Array>) {
    if (driver_errors.empty()) {
      heal_peak = run_healing_window(
          array, reaper_rng, clock, reaper, reaper_tid, pool, cfg, report);
    }
  }

  // Drain to empty and verify the structure agrees.
  for (const auto name : pool) {
    logged_free(array, name, clock, reaper, reaper_tid);
  }
  pool.clear();
  report.trials.merge(reaper.trials);
  report.total_ops += reaper.ops;
  report.backup_gets += reaper.backup_gets;
  {
    std::vector<std::uint64_t> collected;
    if (array.collect(collected) != 0) {
      driver_errors.push_back("collect() after the drain still sees " +
                              std::to_string(collected.size()) + " name(s)");
    }
  }

  // Replay the merged trace through the checker.
  std::vector<const EventLog*> logs;
  logs.reserve(threads + 1);
  for (std::uint32_t tid = 0; tid < threads; ++tid) {
    logs.push_back(&states[tid]->log);
  }
  logs.push_back(&reaper.log);
  std::vector<Event> trace = merge_logs(logs);

  CheckConfig check;
  check.total_slots = array.total_slots();
  check.max_concurrent = std::max(heal_peak, worker_bound);
  check.expect_empty_at_end = true;
  check.reaper_thread = reaper_tid;
  report.invariants = check_trace(trace, check);

  for (auto& error : driver_errors) {
    report.invariants.violations.push_back(std::move(error));
  }

  // Gate-wait accounting must be read here, while the structure is still
  // alive — api::visit destroys it when drive() returns.
  if constexpr (api::has_wait_stats_v<Array>) {
    const api::WaitStats waits = array.wait_stats();
    report.wait_rounds = waits.wait_rounds;
    report.parks = waits.parks;
  }
  return report;
}

}  // namespace

StressReport run_stress(const StressConfig& cfg) {
  api::RenamerConfig rc;
  rc.capacity = cfg.effective_capacity();
  return api::visit(cfg.structure, rc, [&](auto& array) {
    return drive(array, cfg);
  });
}

}  // namespace la::stress
