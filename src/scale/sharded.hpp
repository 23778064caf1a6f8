// ShardedRenamer<Inner> — the scaling layer: partitions the name space
// into S shards, each backed by an independent instance of any structure
// satisfying the api::Renamer contract, and puts a per-thread free-name
// cache in front of the shards so steady churn runs uncontended.
//
//   * Affinity: each thread gets a home shard (round-robin over cache
//     slots, so threads spread evenly). Get tries the home shard first
//     and overflow-probes the neighbors in ring order when a shard
//     refuses. A refusal by the home also re-homes the thread for its
//     next Get: of two candidate shards drawn from a per-slot stream,
//     the one with more free room (power of two choices). A fixed home
//     would make every later Get pay a refusal at the full home and
//     pile its overflow onto the ring neighbour, which is some other
//     thread's home. Threads without a cache slot keep their hashed
//     home.
//   * Refusal: the wrapper gates each shard with an occupancy counter at
//     the shard's own contention bound. The gate is what makes a shard
//     able to "refuse" at all — every inner structure's Get is total and
//     would otherwise spin on a full shard — and it preserves the inner
//     structure's contention precondition (holds <= capacity), so the
//     inner Get always terminates.
//   * Caching: Free parks the name in the calling thread's cache (the
//     underlying slot stays acquired, the name is logically free); Get
//     pops a recently parked name in O(cache) with no shared-state
//     traffic. The cache is bounded: a Free that finds it full releases
//     the name straight to its shard. Caches drain on thread exit (see
//     thread_cache.hpp), on collect(), and when every shard refuses a
//     Get (parked names are reclaimable capacity — draining restores
//     the global progress guarantee).
//   * One path per direction: a single Get or Free is a batch of one.
//     Every Get runs claim() — one walk down the cache stack, then one
//     gate fetch_add(k) per shard sweep (with an exact refund on partial
//     refusal; a single Get still claims through the inner get) — and
//     every Free runs distribute_freed() — one cache walk, then
//     shard-grouped direct releases taking one gate fetch_sub per run.
//     A batch may be granted partially when every shard refuses (see
//     the api batch contract); free_batch validates the whole batch
//     against the held-bitmap before touching any shared state.
//   * Waiting: a refused get/get_for/get_batch_for climbs one
//     spin/yield/park ladder and sleeps on the FIFO sync::WaitQueue,
//     which every capacity-releasing path signals.
//
// The cache is deliberately not a locked container: each entry ("bin")
// is a single std::atomic<uint64_t> holding name+1, 0 when empty. The
// owning thread is the only writer of nonzero values (single producer),
// so parking is one release store; popping and cross-thread stealing
// (collect()/global-miss drains) race each other with exchange(0) —
// whoever reads the nonzero token owns the name. The owner's approximate
// stack discipline (push above, pop below a private top hint) keeps
// reuse hot without any cross-bin invariant that steals could break.
// The hot Free+Get pair therefore costs one atomic RMW (the pop), where
// a mutex-protected cache costs four (lock+unlock twice) — measured 2.5x
// on the sharded-vs-flat churn workload (churn_sweep).
//
// Names are globally unique: global = shard * stride + local, where
// stride is the max inner slot count rounded up to a power of two (shard
// and local are one shift/mask on the Free path). The wrapper keeps a
// dense held-bitmap of *logically* held names — marked on Get, cleared
// on Free, both non-RMW (the name's exclusivity already rides on the bin
// exchange or the inner TAS) — which gives exact double-free detection
// even for parked names and makes collect() one word-scan over a dense
// TasCell array, identical in shape to the LevelArray's own Collect.
//
// Happens-before ledger (what makes the above sound):
//   distribute_freed(release store of the bin) -> steal/pop(acquire
//     exchange): covers the freer's held-bitmap clear and everything
//     before it;
//   drain's inner free(release)     ->  any later inner get(acquire RMW):
//     covers re-issue of a drained name to another thread;
//   release path's wake (light_fence: a compiler barrier) <-> waiter's
//     prepare_wait (heavy_fence: a membarrier) and capacity re-probe: a
//     Free either sees the waiter queued or the waiter's re-probe sees
//     the freed capacity. The waiter pays the barrier, once per park; the
//     Free pays none (asymmetric_fence.hpp, wait_queue.hpp);
//   fork/join in the harnesses      ->  reaper frees and final collect.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/renamer.hpp"
#include "core/slot_scan.hpp"
#include "core/types.hpp"
#include "rng/rng.hpp"
#include "scale/thread_cache.hpp"
#include "sync/atomic_select.hpp"
#include "sync/cache.hpp"
#include "sync/futex.hpp"
#include "sync/spin_lock.hpp"
#include "sync/tas_cell.hpp"
#include "sync/wait_queue.hpp"

namespace la::scale {

struct ShardedConfig {
  // Number of shards S; 0 is promoted to 1.
  std::uint32_t shards = 8;
  // Per-thread free-name cache bins; 0 disables caching (shard affinity
  // and overflow probing still apply). A Free into a full cache goes
  // straight to its shard.
  std::uint32_t cache_capacity = 16;
  // Cache slots available; threads beyond this run uncached (correct,
  // just slower). Slots freed by exited threads are reused.
  std::uint32_t max_threads = 128;
};

// Running totals. Per-thread counters are owner-written (plain
// load+store on owner-only atomics) and summed racily; treat as a
// monotonic snapshot.
struct ShardedStats {
  std::uint64_t cache_hits = 0;      // Gets served from the local cache
  std::uint64_t shared_gets = 0;     // Gets that went to a shard
  std::uint64_t parked_frees = 0;    // Frees parked locally
  std::uint64_t direct_frees = 0;    // Frees released straight to a shard
  std::uint64_t shard_refusals = 0;  // overflow probes past a full shard
  std::uint64_t cache_drains = 0;    // drains for capacity (global miss,
                                     // exit flush, explicit drain_caches)
  std::uint64_t collect_drains = 0;  // drains forced by collect()'s
                                     // exactness requirement — separated
                                     // so drain-*pressure* metrics are
                                     // not inflated by observers
};

namespace detail {

// One thread's cache header: its `cache_capacity` bins start at `first`
// in the shared bin array. `top` is the owner's private stack hint;
// `home_shard` and `rehomes` (the position in the slot's re-home
// candidate stream) are owner-only too; `hits`/`parked` are
// owner-written stats (single writer, so a non-RMW load+store increment
// is race-free; readers take racy snapshots).
struct CacheSlot {
  std::uint32_t home_shard = 0;
  std::uint32_t first = 0;
  std::uint32_t top = 0;
  std::uint32_t rehomes = 0;
  la::detail::atomic<std::uint64_t> hits{0};
  la::detail::atomic<std::uint64_t> parked{0};
};

// One shard's gate + statistics, padded together: the gate RMW already
// owns this line on every shard-path op, so the stat increments ride on
// it for free instead of bouncing a separate global line (which would
// bias the very cross-thread traffic churn_sweep measures).
struct ShardCounters {
  la::detail::atomic<std::uint64_t> occupancy{0};  // the refusal gate
  la::detail::atomic<std::uint64_t> shared_gets{0};
  la::detail::atomic<std::uint64_t> direct_frees{0};
  la::detail::atomic<std::uint64_t> refusals{0};
};

inline std::uint64_t next_instance_id() {
  static la::detail::atomic<std::uint64_t> source{1};
  return source.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

template <typename Inner>
class ShardedRenamer {
 public:
  // make_shard(index) -> std::unique_ptr<Inner>, called S times. The
  // caller decides how the global contention bound splits across shards
  // (the registry gives every shard ceil(capacity / S)).
  template <typename Factory>
  ShardedRenamer(const ShardedConfig& config, Factory&& make_shard)
      : config_(sanitized(config)), id_(detail::next_instance_id()) {
    shards_.reserve(config_.shards);
    for (std::uint32_t s = 0; s < config_.shards; ++s) {
      shards_.push_back(make_shard(s));
      if (shards_.back() == nullptr) {
        throw std::invalid_argument("ShardedRenamer: null shard factory");
      }
    }
    std::uint64_t max_slots = 1;
    for (const auto& shard : shards_) {
      gates_.push_back(shard->capacity());
      local_bounds_.push_back(shard->total_slots());
      capacity_ += shard->capacity();
      if (shard->total_slots() > max_slots) max_slots = shard->total_slots();
    }
    while ((std::uint64_t{1} << stride_shift_) < max_slots) ++stride_shift_;
    if (stride_shift_ >= 53) {
      throw std::invalid_argument("ShardedRenamer: shard stride overflows");
    }
    stride_ = std::uint64_t{1} << stride_shift_;
    total_slots_ = static_cast<std::uint64_t>(config_.shards) * stride_;
    held_ = std::vector<sync::TasCell>(total_slots_);
    counts_ = std::vector<sync::CachePadded<detail::ShardCounters>>(
        config_.shards);
    caches_ = std::vector<sync::CachePadded<detail::CacheSlot>>(
        config_.max_threads);
    bins_ = std::vector<la::detail::atomic<std::uint64_t>>(
        static_cast<std::size_t>(config_.max_threads) *
        config_.cache_capacity);
    for (auto& bin : bins_) bin.store(0, std::memory_order_relaxed);
    for (std::uint32_t slot = 0; slot < config_.max_threads; ++slot) {
      caches_[slot]->home_shard = slot % config_.shards;
      caches_[slot]->first = slot * config_.cache_capacity;
    }
    control_ = std::make_shared<CacheControl>();
    control_->flush = &ShardedRenamer::flush_thunk;
    control_->owner.store(this, std::memory_order_release);
  }

  ShardedRenamer(const ShardedRenamer&) = delete;
  ShardedRenamer& operator=(const ShardedRenamer&) = delete;

  ~ShardedRenamer() {
    // Threads that already exited have flushed; the current thread's (and
    // any future) exit hook sees the null owner and skips. Destroying the
    // structure while other threads still operate on it is UB, as for
    // every structure in this library.
    control_->owner.store(nullptr, std::memory_order_release);
  }

  template <typename Rng>
  GetResult get(Rng& rng) {
    GetResult out;
    // With no deadline the ladder cannot refuse, only block.
    (void)claim_until(rng, &out, 1, /*single=*/true, api::kNoDeadline);
    return out;
  }

  // Bounded-wait Get: park at most until the absolute CLOCK_MONOTONIC
  // deadline (api::kNoDeadline = forever), then refuse with false — the
  // timed-out refusal the api::get_for contract defines. Counted in
  // wait_stats().timeouts.
  template <typename Rng>
  bool get_for(Rng& rng, GetResult& out, std::uint64_t deadline_ns) {
    return claim_until(rng, &out, 1, /*single=*/true, deadline_ns) != 0;
  }

  // Batch claim: one claim() attempt (see there). May grant fewer than k
  // (even zero) when every shard refuses after a cache drain: partial
  // batches hand the retry decision to the caller instead of spinning
  // here, which is the api batch contract.
  template <typename Rng>
  std::size_t get_batch(Rng& rng, GetResult* out, std::size_t k) {
    return k == 0 ? 0 : claim(rng, out, k, /*single=*/false);
  }

  // Bounded-wait batch claim: the get_for ladder around claim(). Returns
  // the granted count — a partial grant returns immediately (the api
  // batch contract hands the top-up retry to the caller); 0 means the
  // deadline expired with every shard at its bound (counted in
  // wait_stats().timeouts).
  template <typename Rng>
  std::size_t get_batch_for(Rng& rng, GetResult* out, std::size_t k,
                            std::uint64_t deadline_ns) {
    return k == 0 ? 0 : claim_until(rng, out, k, /*single=*/false,
                                    deadline_ns);
  }

  void free(std::uint64_t name) { free_batch(&name, 1); }

  // Batch free: validate and clear every held bit first — catching
  // out-of-range names, double frees, and duplicates inside the batch —
  // then distribute the whole batch at once. On a bad name the
  // already-cleared prefix is distributed before the throw, so a
  // throwing batch has freed exactly the names before the one it
  // reports (the api batch contract, matching the single-op fallback
  // loop).
  void free_batch(const std::uint64_t* names, std::size_t k) {
    std::size_t cleared = 0;
    try {
      for (; cleared < k; ++cleared) {
        const std::uint64_t name = names[cleared];
        if (!routes(name)) {
          throw std::out_of_range("ShardedRenamer::free: name out of range");
        }
        // Only the holder may free, so the read is race-free (same
        // argument as LevelArray::free); parked names have this bit
        // clear, so a double free of a parked name fails here, loudly.
        // Clearing as we validate is also the duplicate detector: the
        // second occurrence of a name inside the batch reads clear here.
        if (!held_[name].held()) {
          throw std::logic_error(
              "ShardedRenamer::free: name not held (double free?)");
        }
        held_[name].release();
      }
    } catch (...) {
      distribute_freed(names, cleared);
      throw;
    }
    distribute_freed(names, k);
  }

  // Logically held names: drains every cache first (so the shards' own
  // state agrees with the logical state at the audit point), then
  // scans the dense held-bitmap. The drain is deliberate — it is
  // what makes the scan *exact* against the shards at quiescence — but
  // it perturbs the structure (destroys cache locality for every
  // thread), so observability paths that only need the logical hold set
  // must use peek_held() instead. Collect-forced drains are counted in
  // ShardedStats::collect_drains, not cache_drains, so the
  // drain-pressure metric still measures capacity pressure alone.
  std::size_t collect(std::vector<std::uint64_t>& out) const {
    drain_all(collect_drains_);
    return peek_held(out);
  }

  // Non-perturbing hold-set scan: the dense held-bitmap alone, no cache
  // drain. This is still *exact* for logical holds — free() clears the
  // held bit before parking the name, so a parked (logically free) name
  // never appears here — but unlike collect() it leaves the shards' own
  // occupancy out of sync with the logical state (parked names stay
  // acquired inside their shard). Monitoring, stats, and snapshot
  // paths that tolerate racy-snapshot semantics use this. Each shard
  // scans only its real slots, never the stride padding past its local
  // bound, which no name can address.
  std::size_t peek_held(std::vector<std::uint64_t>& out) const {
    std::size_t found = 0;
    for (std::size_t s = 0; s < local_bounds_.size(); ++s) {
      const std::uint64_t first = static_cast<std::uint64_t>(s) * stride_;
      found += core::slot_scan::append_held(held_.data() + first,
                                            local_bounds_[s], out, first);
    }
    return found;
  }

  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t total_slots() const { return total_slots_; }

  std::uint32_t num_shards() const { return config_.shards; }
  std::uint64_t shard_stride() const { return stride_; }
  // Shard `index`'s current gate reservation (racy snapshot). At
  // quiescence with drained caches it must equal the shard's true holds
  // — the batch tests pin the no-drift acceptance criterion on it.
  std::uint64_t gate_occupancy(std::uint32_t index) const {
    return counts_[index]->occupancy.load(std::memory_order_relaxed);
  }
  const Inner& shard(std::uint32_t index) const { return *shards_[index]; }
  const ShardedConfig& config() const { return config_; }

  // Flush every thread's parked names back to their shards. Safe against
  // concurrent owners (bins hand off by exchange); called by collect(),
  // the global-miss path, thread exit, and tests.
  void drain_caches() const { drain_all(drains_); }

  api::WaitStats wait_stats() const {
    api::WaitStats stats;
    stats.wait_rounds = gate_wait_rounds_.load(std::memory_order_relaxed);
    stats.parks = gate_parks_.load(std::memory_order_relaxed);
    stats.timeouts = gate_timeouts_.load(std::memory_order_relaxed);
    return stats;
  }

  ShardedStats stats() const {
    ShardedStats totals;
    for (auto& padded : caches_) {
      totals.cache_hits += padded->hits.load(std::memory_order_relaxed);
      totals.parked_frees += padded->parked.load(std::memory_order_relaxed);
    }
    for (auto& padded : counts_) {
      totals.shared_gets +=
          padded->shared_gets.load(std::memory_order_relaxed);
      totals.direct_frees +=
          padded->direct_frees.load(std::memory_order_relaxed);
      totals.shard_refusals +=
          padded->refusals.load(std::memory_order_relaxed);
    }
    totals.cache_drains = drains_.load(std::memory_order_relaxed);
    totals.collect_drains = collect_drains_.load(std::memory_order_relaxed);
    return totals;
  }

  // Checkpoint adoption (src/api/snapshot.hpp): re-seed one held name on
  // restore, decomposing the *global* name by this instance's stride —
  // which is how a restored image re-routes names into a different shard
  // count: the same numeric name lands in its new home shard. Reserves
  // the shard's gate (length_error past the bound — the image does not
  // fit this configuration), marks the logical held bit (logic_error on
  // a duplicate), and adopts the local slot inside the inner structure,
  // unwinding both on an inner throw. Available only when the Inner can
  // adopt (SFINAE on Inner::adopt_held — SplitterRenamer cannot, so
  // sharded:splitter is non-restorable by construction).
  template <typename I = Inner>
  auto adopt_held(std::uint64_t name) -> std::void_t<
      decltype(std::declval<I&>().adopt_held(std::uint64_t{}))> {
    if (!routes(name)) {
      throw std::out_of_range(
          "ShardedRenamer::adopt_held: name does not route to any shard "
          "slot in this configuration");
    }
    if (!held_[name].try_acquire()) {
      throw std::logic_error(
          "ShardedRenamer::adopt_held: name already held (duplicate name)");
    }
    const auto s = static_cast<std::size_t>(name >> stride_shift_);
    detail::ShardCounters& count = *counts_[s];
    if (count.occupancy.fetch_add(1, std::memory_order_relaxed) >=
        gates_[s]) {
      count.occupancy.fetch_sub(1, std::memory_order_relaxed);
      held_[name].release();
      throw std::length_error(
          "ShardedRenamer::adopt_held: shard gate at capacity (image does "
          "not fit this configuration)");
    }
    try {
      shards_[s]->adopt_held(name & (stride_ - 1));
    } catch (...) {
      count.occupancy.fetch_sub(1, std::memory_order_relaxed);
      held_[name].release();
      throw;
    }
  }

 private:
  static ShardedConfig sanitized(ShardedConfig config) {
    if (config.shards == 0) config.shards = 1;
    if (config.max_threads == 0) config.max_threads = 1;
    return config;
  }

  // Does `name` address a real slot: inside the name space and below its
  // shard's local bound (the stride pads every shard to a power of two).
  bool routes(std::uint64_t name) const {
    return name < total_slots_ &&
           (name & (stride_ - 1)) <
               local_bounds_[static_cast<std::size_t>(name >> stride_shift_)];
  }

  std::uint32_t ring(std::uint32_t home, std::uint32_t step) const {
    const std::uint32_t s = home + step;
    return s < config_.shards ? s : s - config_.shards;
  }

  std::uint32_t hashed_home() const {
#if defined(LEVELARRAY_VERIFY)
    // Every fiber shares the one real thread's id; the runtime's logical
    // thread id keeps homes distinct per model-checked thread.
    return ::la::verify::current_thread_id() % config_.shards;
#else
    return static_cast<std::uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) %
        config_.shards);
#endif
  }

  // Mark `name` logically held and return `result` renamed to it.
  GetResult grant(std::uint64_t name, GetResult result) {
    if (held_[name].held()) {
      // Either an inner structure issued a name it already issued, or a
      // cache bin handed out a name twice — both corrupt occupancy.
      throw std::logic_error("ShardedRenamer: duplicate grant of name " +
                             std::to_string(name));
    }
    held_[name].mark_held();
    result.name = name;
    return result;
  }

  // The one wait ladder (get, get_for and get_batch_for all run it):
  // retry claim() — which already drains the caches when every shard
  // refuses — until it grants something or the deadline passes. Back
  // off between rounds: a refusal storm can also be transient gate
  // reservations by peers who need the timeslice to finish. Once the
  // spin/yield tiers are exhausted (genuine oversubscription at the
  // contention bound), park on the FIFO wait queue instead of burning
  // CPU: register as a waiter first, re-probe, and only then sleep —
  // the eventcount protocol, so a Free between the probe and the sleep
  // wakes us immediately (zero lost wakeups; see wait_queue.hpp). Single
  // Frees wake exactly the oldest waiter (wake-one + handoff: a woken
  // waiter that loses the sweep race re-enqueues at the *front*), so
  // starvation is bounded by queue position instead of scheduler luck.
  // Returns 0 only on a timed-out refusal (impossible with kNoDeadline).
  template <typename Rng>
  std::size_t claim_until(Rng& rng, GetResult* out, std::size_t k,
                          bool single, std::uint64_t deadline_ns) {
    sync::Backoff backoff;
    bool handoff = false;
    for (;;) {
      const std::size_t granted = claim(rng, out, k, single);
      if (granted != 0) return granted;
      gate_wait_rounds_.fetch_add(1, std::memory_order_relaxed);
      if (deadline_ns != api::kNoDeadline &&
          sync::FutexWord::monotonic_now_ns() >= deadline_ns) {
        gate_timeouts_.fetch_add(1, std::memory_order_relaxed);
        return 0;
      }
      if (!backoff.should_park()) {
        backoff.pause();
        continue;
      }
      sync::WaitQueue::Waiter waiter;
      wait_queue_.prepare_wait(waiter, handoff);
      if (probe_capacity()) {
        wait_queue_.cancel_wait(waiter);
        continue;
      }
      gate_parks_.fetch_add(1, std::memory_order_relaxed);
      if (wait_queue_.commit_wait(waiter, deadline_ns) ==
          sync::WaitResult::kTimedOut) {
        gate_timeouts_.fetch_add(1, std::memory_order_relaxed);
        return 0;
      }
      handoff = true;  // granted a wake: keep queue position on re-park
    }
  }

  // One claim attempt for 1 <= k names: pop parked names in one walk
  // down the cache stack, then sweep the shards from the home shard. If
  // that grants nothing, every shard refused and the cache was empty:
  // parked names are the reclaimable capacity, so drain every cache once
  // and sweep again — with true holds below the contention bound, some
  // shard must then accept. If the home refused, the next claim starts
  // from a new home (rehome).
  template <typename Rng>
  std::size_t claim(Rng& rng, GetResult* out, std::size_t k, bool single) {
    detail::CacheSlot* cache =
        config_.cache_capacity != 0 ? cache_slot() : nullptr;
    std::size_t granted = 0;
    if (cache != nullptr) {
      granted = pop_parked_batch(*cache, out, k);
      if (granted == k) return granted;
    }
    const std::uint32_t home =
        cache != nullptr ? cache->home_shard : hashed_home();
    bool home_refused = false;
    granted = sweep(rng, home, out, granted, k, single, home_refused);
    if (granted == 0) {
      drain_caches();
      granted = sweep(rng, home, out, 0, k, single, home_refused);
    }
    if (home_refused && cache != nullptr) rehome(*cache);
    return granted;
  }

  // Owner-only: move the home of a thread whose home just refused to the
  // roomier (gate minus occupancy) of two candidates among the other
  // shards — the power-of-two-choices rule, so concurrent fills spread
  // instead of all chasing one frontier shard. The candidates come from
  // a splitmix stream keyed by the slot, not from the caller's Rng, so
  // the probe streams that Rng feeds stay exactly as they were. The
  // occupancy loads are advisory: the gate fetch_add in sweep is the
  // claim, and a stale read costs at most one more refusal. Cold and out
  // of line: it runs about once per home fill, so claim's hot body (the
  // cache pop) keeps its code as it was.
  [[gnu::cold, gnu::noinline]] void rehome(detail::CacheSlot& cache) {
    if (config_.shards < 2) return;
    const std::uint64_t draw = rng::mix_seed(cache.first, cache.rehomes++);
    const std::uint32_t others = config_.shards - 1;
    const std::uint32_t a = ring(
        cache.home_shard, 1 + static_cast<std::uint32_t>(draw % others));
    const std::uint32_t b = ring(
        cache.home_shard,
        1 + static_cast<std::uint32_t>((draw >> 32) % others));
    const std::uint64_t used_a =
        counts_[a]->occupancy.load(std::memory_order_relaxed);
    const std::uint64_t used_b =
        counts_[b]->occupancy.load(std::memory_order_relaxed);
    const std::uint64_t room_a = used_a < gates_[a] ? gates_[a] - used_a : 0;
    const std::uint64_t room_b = used_b < gates_[b] ? gates_[b] - used_b : 0;
    cache.home_shard = room_b > room_a ? b : a;
  }

  // Claim names [granted, k) from the shards in ring order from `home`.
  // Each shard's gate takes one fetch_add of the whole remainder and
  // refunds exactly what it cannot accept, so it never drifts past what
  // the sweep takes; the gate reservation is what lets the inner total
  // claim run to completion. `single` claims through the inner get, not
  // the inner batch surface: LevelArray's batch claim probes 8-slot
  // windows, which would change the paper's per-Get probe counts.
  // Overflow probes past full shards ride on the sweep's first
  // shard-claimed result. Sets `home_refused` when `home` refused part
  // of the request. Returns the new granted count.
  template <typename Rng>
  std::size_t sweep(Rng& rng, std::uint32_t home, GetResult* out,
                    std::size_t granted, std::size_t k, bool single,
                    bool& home_refused) {
    const std::size_t first_shared = granted;
    std::uint32_t refusals = 0;
    for (std::uint32_t i = 0; i < config_.shards && granted < k; ++i) {
      const std::uint32_t s = ring(home, i);
      detail::ShardCounters& count = *counts_[s];
      const std::uint64_t want = k - granted;
      const std::uint64_t prev =
          count.occupancy.fetch_add(want, std::memory_order_relaxed);
      const std::uint64_t room = prev < gates_[s] ? gates_[s] - prev : 0;
      const std::uint64_t accepted = room < want ? room : want;
      if (accepted < want) {
        count.occupancy.fetch_sub(want - accepted, std::memory_order_relaxed);
        count.refusals.fetch_add(1, std::memory_order_relaxed);
        ++refusals;
        if (i == 0) home_refused = true;
      }
      if (accepted == 0) continue;
      std::size_t got = 1;
      try {
        if (single) {
          out[granted] = shards_[s]->get(rng);
        } else {
          got = api::get_batch(*shards_[s], rng, out + granted,
                               static_cast<std::size_t>(accepted));
        }
      } catch (...) {
        count.occupancy.fetch_sub(accepted, std::memory_order_relaxed);
        throw;
      }
      if (got < accepted) {
        count.occupancy.fetch_sub(accepted - got, std::memory_order_relaxed);
      }
      count.shared_gets.fetch_add(got, std::memory_order_relaxed);
      const std::uint64_t base = static_cast<std::uint64_t>(s)
                                 << stride_shift_;
      for (std::size_t g = granted; g < granted + got; ++g) {
        out[g] = grant(base | out[g].name, out[g]);
      }
      granted += got;
    }
    if (granted > first_shared && refusals != 0) {
      out[first_shared].probes += refusals;
    }
    return granted;
  }

  // Release `name`'s underlying slot back to its shard. Gate decrement
  // strictly after the inner free: the gate must always upper-bound the
  // shard's true holds, or the inner Get termination argument breaks.
  void release_to_shard(std::uint64_t name) const {
    const std::uint32_t s = static_cast<std::uint32_t>(name >> stride_shift_);
    shards_[s]->free(name & (stride_ - 1));
    counts_[s]->occupancy.fetch_sub(1, std::memory_order_relaxed);
  }

  // Steal every thread's bins back to the shards, count the drain in
  // `counter`, and wake every waiter: the drain may free many slots.
  void drain_all(la::detail::atomic<std::uint64_t>& counter) const {
    drain_bins(bins_.data(), bins_.size());
    counter.fetch_add(1, std::memory_order_relaxed);
    wait_queue_.wake_all();
  }

  // The one copy of the steal protocol: exchange each bin out and
  // release whatever was parked there. Used by the full drain and by the
  // thread-exit flush (a one-slot restriction of the same loop).
  void drain_bins(la::detail::atomic<std::uint64_t>* bins, std::size_t count) const {
    for (std::size_t i = 0; i < count; ++i) {
      if (bins[i].load(std::memory_order_relaxed) == 0) continue;
      const std::uint64_t token =
          bins[i].exchange(0, std::memory_order_acquire);
      if (token != 0) release_to_shard(token - 1);
    }
  }

  // Owner-only: pop up to k parked names in one walk down the stack,
  // most recently parked first, skipping bins stealers have emptied. The
  // exchange races concurrent steals; whoever reads nonzero owns the
  // name. The stack hint and the hits stat are written once per walk.
  // After the walk every bin at or above the new top is zero, so the
  // stack invariant (see distribute_freed) is preserved.
  std::size_t pop_parked_batch(detail::CacheSlot& cache, GetResult* out,
                               std::size_t k) {
    la::detail::atomic<std::uint64_t>* bins = bins_.data() + cache.first;
    std::size_t popped = 0;
    std::uint32_t i = cache.top;
    while (i > 0 && popped < k) {
      --i;
      if (bins[i].load(std::memory_order_relaxed) == 0) continue;
      const std::uint64_t token =
          bins[i].exchange(0, std::memory_order_acquire);
      if (token != 0) {
        GetResult hit;
        hit.probes = 1;
        out[popped++] = grant(token - 1, hit);
      }
    }
    cache.top = i;
    if (popped != 0) {
      cache.hits.store(cache.hits.load(std::memory_order_relaxed) + popped,
                       std::memory_order_relaxed);
    }
    return popped;
  }

  // The one release path (free is a batch of one): push the
  // already-cleared names onto the cache stack up to capacity in one
  // walk, then release the overflow straight to the shards in
  // shard-grouped runs — inner frees first, then one gate fetch_sub for
  // the whole run, so the gate keeps upper-bounding the shard's true
  // holds throughout. Stack invariant: every nonzero bin sits below the
  // owner's `top` (pushes store at top, pops lower top to the bin they
  // took, steals only zero bins), so bins[top] is known empty and each
  // push is a single release store. Precondition: the held bits for
  // names[0..count) are cleared and the caller owns the names
  // exclusively; nothing here throws short of real corruption.
  void distribute_freed(const std::uint64_t* names, std::size_t count) {
    std::size_t i = 0;
    if (config_.cache_capacity != 0) {
      if (detail::CacheSlot* cache = cache_slot()) {
        la::detail::atomic<std::uint64_t>* bins = bins_.data() + cache->first;
        std::uint32_t top = cache->top;
        while (i < count && top < config_.cache_capacity) {
          bins[top++].store(names[i++] + 1, std::memory_order_release);
        }
        cache->top = top;
        if (i != 0) {
          cache->parked.store(
              cache->parked.load(std::memory_order_relaxed) + i,
              std::memory_order_relaxed);
        }
      }
    }
    while (i < count) {
      const auto s =
          static_cast<std::uint32_t>(names[i] >> stride_shift_);
      std::size_t run = 0;
      while (i < count &&
             static_cast<std::uint32_t>(names[i] >> stride_shift_) == s) {
        shards_[s]->free(names[i] & (stride_ - 1));
        ++i;
        ++run;
      }
      counts_[s]->occupancy.fetch_sub(run, std::memory_order_relaxed);
      counts_[s]->direct_frees.fetch_add(run, std::memory_order_relaxed);
    }
    // Bulk Free-k releases many slots at once — the one case where
    // waking the whole queue is the point, not a herd.
    if (count == 1) {
      wait_queue_.wake_one();
    } else if (count != 0) {
      wait_queue_.wake_all();
    }
  }

  // Park-path re-check: is there any capacity a retry could claim? Gates
  // below their bound cover true free slots; nonzero bins cover parked
  // names (gate-counted but reclaimable via a drain). Relaxed loads are
  // sound inside the eventcount window: a release that this probe misses
  // happened after prepare_wait registered us, so its wake sees us
  // queued and commit_wait returns at once.
  bool probe_capacity() const {
    for (std::uint32_t s = 0; s < config_.shards; ++s) {
      if (counts_[s]->occupancy.load(std::memory_order_relaxed) < gates_[s]) {
        return true;
      }
    }
    for (const auto& bin : bins_) {
      if (bin.load(std::memory_order_relaxed) != 0) return true;
    }
    return false;
  }

  // This thread's cache slot (claiming one on first touch), or nullptr
  // when all slots are taken. One thread_local (id, slot) pair makes the
  // steady-state lookup a single compare; instance ids are never reused,
  // so a stale pair can only miss, never alias.
  detail::CacheSlot* cache_slot() {
#if defined(LEVELARRAY_VERIFY)
    // No memo under the checker: the thread_local pair would alias
    // across fibers. The registry walk is the path being verified.
    auto& attachments = ThreadAttachments::current();
#else
    static thread_local std::uint64_t last_id = 0;
    static thread_local detail::CacheSlot* last_slot = nullptr;
    if (last_id == id_) return last_slot;
    auto& attachments = ThreadAttachments::current();
#endif
    std::uint32_t slot = attachments.find(control_.get());
    if (slot == ThreadAttachments::kNotAttached) {
      slot = claim_slot();
      attachments.attach(control_, slot);
    }
    detail::CacheSlot* resolved =
        slot == ThreadAttachments::kNoCache ? nullptr : &*caches_[slot];
#if !defined(LEVELARRAY_VERIFY)
    last_id = id_;
    last_slot = resolved;
#endif
    return resolved;
  }

  std::uint32_t claim_slot() {
    sync::SpinLockGuard guard(claim_lock_);
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    if (claimed_ < caches_.size()) {
      return static_cast<std::uint32_t>(claimed_++);
    }
    return ThreadAttachments::kNoCache;
  }

  // Thread-exit hook: flush the exiting thread's bins and recycle its
  // slot for the next thread (long-lived structures see generations of
  // short-lived threads — see run_churn's chunked callers).
  static void flush_thunk(void* owner, std::uint32_t slot) {
    auto* self = static_cast<ShardedRenamer*>(owner);
    detail::CacheSlot& cache = *self->caches_[slot];
    self->drain_bins(self->bins_.data() + cache.first,
                     self->config_.cache_capacity);
    self->wait_queue_.wake_all();  // the flush may have released capacity
    cache.top = 0;  // published to the next claimer via claim_lock_
    sync::SpinLockGuard guard(self->claim_lock_);
    self->free_slots_.push_back(slot);
  }

  ShardedConfig config_;
  std::uint64_t id_;
  std::vector<std::unique_ptr<Inner>> shards_;
  std::vector<std::uint64_t> gates_;
  std::vector<std::uint64_t> local_bounds_;
  std::uint64_t capacity_ = 0;
  std::uint32_t stride_shift_ = 0;
  std::uint64_t stride_ = 1;
  std::uint64_t total_slots_ = 0;
  std::vector<sync::TasCell> held_;
  mutable std::vector<sync::CachePadded<detail::ShardCounters>> counts_;
  mutable std::vector<sync::CachePadded<detail::CacheSlot>> caches_;
  mutable std::vector<la::detail::atomic<std::uint64_t>> bins_;
  sync::SpinLock claim_lock_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t claimed_ = 0;
  std::shared_ptr<CacheControl> control_;
  mutable la::detail::atomic<std::uint64_t> drains_{0};
  mutable la::detail::atomic<std::uint64_t> collect_drains_{0};
  // The blocking tier (see claim_until): every release path wakes the
  // ticketed FIFO queue, refused getters park on it (wake-one + handoff
  // bounds starvation by queue position). Mutable because collect()'s
  // drain releases capacity.
  mutable sync::WaitQueue wait_queue_;
  mutable la::detail::atomic<std::uint64_t> gate_wait_rounds_{0};
  mutable la::detail::atomic<std::uint64_t> gate_parks_{0};
  mutable la::detail::atomic<std::uint64_t> gate_timeouts_{0};
};

}  // namespace la::scale
