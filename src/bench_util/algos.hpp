// The real-thread churn driver behind the Figure 2 family of benches.
// The workload follows the paper's §6 methodology: each of n threads
// emulates `mult` registrants (N = n*mult total), the array holds
// L = size_factor * N slots, a prefill fraction is registered up front,
// and the main loop is back-to-back Free+Get churn — either for a fixed
// op count (reproducible trial metrics) or a fixed wall-clock window
// (throughput).
//
// Structures are addressed by their api::registry name (or alias), so
// every registered Renamer — not a hard-coded enum — can be driven, under
// any of the registered probe RNGs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/renamer.hpp"
#include "bench_util/churn_exchange.hpp"
#include "bench_util/timing.hpp"
#include "rng/rng.hpp"
#include "stats/summary.hpp"
#include "stats/welford.hpp"
#include "sync/cache.hpp"
#include "sync/futex.hpp"
#include "sync/spin_barrier.hpp"
#include "sync/thread_utils.hpp"

namespace la::bench {

struct DriverConfig {
  std::uint32_t threads = 1;
  std::uint64_t emulation_multiplier = 1000;  // registrants per thread
  double prefill = 0.5;                       // fraction of N held up front
  // Individual Get and Free operations per thread (a churn iteration
  // performs two), matching the paper's register/unregister accounting.
  // 0 = timed mode.
  std::uint64_t ops_per_thread = 0;
  double seconds = 0.0;                       // window for timed mode
  std::uint64_t seed = 42;
  // Probe RNG for the prefill and churn loops (paper §6 ablates this).
  rng::RngKind rng_kind = rng::RngKind::kMarsaglia;
  // Names per Free-k/Get-k churn_exchange in the churn loop. 1 = the
  // classic single-op loop (api::get_for, the per-Get probe path); >1
  // claims through api::get_batch_for (native amortized paths where the
  // structure has them, the single-op fallback elsewhere). ops still
  // counts individual Gets and Frees.
  std::uint64_t batch = 1;
  // Per-exchange Get budget in nanoseconds (0 = wait forever), passed to
  // churn_exchange as an absolute deadline; an expired exchange is
  // abandoned and counted in RunResult::timeouts. Structures without
  // deadline ops (api::has_deadline_ops_v) ignore it: their untimed
  // fallback cannot refuse.
  std::uint64_t deadline_ns = 0;

  std::uint64_t emulated_registrants() const {
    return static_cast<std::uint64_t>(threads) * emulation_multiplier;
  }
};

struct SweepPoint {
  DriverConfig driver;
  double size_factor = 2.0;                    // L = size_factor * N
  std::vector<std::uint8_t> probes_per_batch;  // empty = LevelArray default
  // sharded:* variants only (see api::RenamerConfig).
  std::uint32_t shards = 8;
  std::uint32_t name_cache_capacity = 16;
};

struct RunResult {
  stats::TrialStats trials;          // probes per main-loop Get, all threads
  std::uint64_t total_ops = 0;       // Gets + Frees completed in the loop
  double elapsed_seconds = 0.0;
  double throughput_ops_per_sec = 0.0;
  double mean_per_thread_worst = 0.0;  // worst case averaged over threads
  std::uint64_t backup_gets = 0;
  // Gate-refusal waiting, as the structure reports it (api::WaitStats):
  // its own retry rounds and the futex parks taken once its waits
  // outlived the spin and yield tiers. Structures that cannot refuse
  // report none.
  std::uint64_t gate_wait_rounds = 0;
  std::uint64_t gate_parks = 0;
  // Caller-observed timed-out refusals (deadline_ns exchanges that
  // expired). Deliberately NOT folded with the structure's own
  // WaitStats::timeouts — those count the same expiry events from the
  // other side of the api::get_for call.
  std::uint64_t timeouts = 0;
};

// Canonical registry key for a structure name or alias; throws
// std::invalid_argument listing every accepted spelling (registry-derived).
std::string parse_algo(const std::string& name);

// Display label for a canonical registry key.
std::string_view algo_name(const std::string& canonical);

// Resolve a --algo list: expands "all" to every registered structure and
// canonicalizes names/aliases.
std::vector<std::string> expand_algos(const std::vector<std::string>& names);

// The api::RenamerConfig describing this sweep point (shared by benches
// that call api::visit directly).
api::RenamerConfig renamer_config(const SweepPoint& point);

// Build the structure registered under `name_or_alias` from `point` and
// run the churn workload under point.driver.rng_kind.
RunResult run_algo(const std::string& name_or_alias, const SweepPoint& point);

namespace detail {

struct ThreadOutput {
  stats::TrialStats trials;
  std::uint64_t ops = 0;
  std::uint64_t backup_gets = 0;
  std::uint64_t timeouts = 0;     // deadline_ns exchanges that expired
  // The thread's stash of held names lives here so its header shares the
  // padded cache line with the thread's own counters, not a neighbor's.
  ChurnStash stash;
  // Barrier-to-loop-end time, so throughput excludes spawn/join/drain.
  double seconds_active = 0.0;
};

// The churn loop proper. Each thread owns a stash of held names (its
// share of the prefill, plus whatever it registers); every iteration is
// one churn_exchange: free `batch` random stashed names and register as
// many new ones — the paper's back-to-back register/deregister pattern
// at constant load.
template <typename Array, typename Rng>
RunResult drive(Array& array, const DriverConfig& d) {
  const std::uint32_t threads = d.threads == 0 ? 1 : d.threads;
  const std::uint64_t n = d.emulated_registrants();
  const bool timed = d.ops_per_thread == 0;

  RunResult result;
  if (timed && d.seconds <= 0.0) return result;

  std::vector<sync::CachePadded<ThreadOutput>> outputs(threads);

  // Prefill, dealt round-robin into per-thread stashes.
  double prefill = d.prefill;
  if (prefill < 0.0) prefill = 0.0;
  if (prefill > 1.0) prefill = 1.0;
  const auto target =
      static_cast<std::uint64_t>(prefill * static_cast<double>(n));
  {
    Rng prefill_rng(rng::mix_seed(d.seed, 0xF111u));
    for (std::uint64_t i = 0; i < target; ++i) {
      outputs[i % threads]->stash.names.push_back(
          array.get(prefill_rng).name);
    }
  }

  const std::size_t batch =
      d.batch == 0 ? 1 : static_cast<std::size_t>(d.batch);
  // Timed mode reads the clock every 64 single-op exchanges, or every 8
  // batched ones (at most one read per 16 ops even at batch = 2).
  const std::uint64_t poll_mask = batch == 1 ? 63u : 7u;

  sync::SpinBarrier barrier(threads);
  {
    sync::ThreadGroup group;
    group.spawn(threads, [&](std::uint32_t tid) {
      Rng rng(rng::mix_seed(d.seed, tid + 1));
      ThreadOutput& out = *outputs[tid];
      const auto on_get = [&out](const GetResult& r) {
        out.trials.record(r.probes);
        if (r.used_backup) ++out.backup_gets;
      };
      barrier.wait();
      Stopwatch local;
      // Each exchange waits until its own budget, else the end of a
      // timed run, else forever. Only an expired budget is a timed-out
      // refusal — the run ending is not.
      const std::uint64_t run_end_ns =
          timed ? sync::FutexWord::monotonic_now_ns() +
                      static_cast<std::uint64_t>(d.seconds * 1e9)
                : api::kNoDeadline;
      for (std::uint64_t iter = 0;; ++iter) {
        if (timed) {
          if ((iter & poll_mask) == 0 && local.elapsed_seconds() >= d.seconds) {
            break;
          }
        } else if (out.ops >= d.ops_per_thread) {
          // ops counts Gets and Frees individually, matching the
          // paper's "register and unregister operations" accounting.
          break;
        }
        const std::uint64_t until =
            d.deadline_ns != 0
                ? sync::FutexWord::monotonic_now_ns() + d.deadline_ns
                : run_end_ns;
        const ExchangeResult x = churn_exchange(
            array, rng, out.stash, batch, batch, until,
            [](std::uint64_t) {}, on_get);
        out.ops += x.freed + x.granted;
        if (x.refused && d.deadline_ns != 0) {
          // The refused remainder still spends loop budget (otherwise an
          // ops-mode run on a saturated structure would never end).
          ++out.timeouts;
          ++out.ops;
        }
      }
      out.seconds_active = local.elapsed_seconds();
      // Drain the stash so the array is empty for the next run/chunk.
      for (const auto name : out.stash.names) array.free(name);
      out.stash.names.clear();
    });
  }

  stats::Welford per_thread_worst;
  for (std::uint32_t tid = 0; tid < threads; ++tid) {
    const ThreadOutput& out = *outputs[tid];
    result.trials.merge(out.trials);
    result.total_ops += out.ops;
    result.backup_gets += out.backup_gets;
    result.timeouts += out.timeouts;
    per_thread_worst.add(static_cast<double>(out.trials.worst_case()));
    // Slowest thread's barrier-to-loop-end time: excludes spawn, join,
    // and the untimed stash drain.
    if (out.seconds_active > result.elapsed_seconds) {
      result.elapsed_seconds = out.seconds_active;
    }
  }
  // Structures that track their own gate waiting (the scale layer's
  // blocking get, the svc client's response waits) fold into the same
  // counters — read here, while the structure is still alive.
  if constexpr (api::has_wait_stats_v<Array>) {
    const api::WaitStats waits = array.wait_stats();
    result.gate_wait_rounds += waits.wait_rounds;
    result.gate_parks += waits.parks;
  }
  result.mean_per_thread_worst = per_thread_worst.mean();
  result.throughput_ops_per_sec =
      result.elapsed_seconds > 0.0
          ? static_cast<double>(result.total_ops) / result.elapsed_seconds
          : 0.0;
  return result;
}

template <typename Array>
RunResult drive_with_rng(Array& array, const DriverConfig& d) {
  return api::with_rng(d.rng_kind, [&](auto tag) {
    using Rng = typename decltype(tag)::type;
    return drive<Array, Rng>(array, d);
  });
}

}  // namespace detail

// Same workload against a caller-owned persistent structure (longrun
// accumulates worst-case stats across chunks this way), honoring
// driver.rng_kind. Generic over the Renamer contract — any registered
// structure (not just the LevelArray) churns under the same driver.
template <typename Structure>
RunResult run_churn(Structure& array, const DriverConfig& driver) {
  static_assert(api::is_renamer_v<Structure>,
                "run_churn drives the api::Renamer contract");
  return detail::drive_with_rng(array, driver);
}

}  // namespace la::bench
