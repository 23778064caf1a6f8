// The unified Renamer API: the static-interface contract every renaming
// structure in this library conforms to, the RenamerConfig all factories
// construct from, and the RNG-kind dispatcher.
//
// A Renamer is any type providing
//
//   GetResult    get(Rng&)                       (templated over Rng)
//   void         free(std::uint64_t name)        (throws std::out_of_range
//                                                 on bad names and
//                                                 std::logic_error on
//                                                 double-free)
//   std::size_t  collect(std::vector<std::uint64_t>&) const
//   std::uint64_t capacity() const               (contention bound n)
//   std::uint64_t total_slots() const            (names are < total_slots)
//
// The contract is *static* — checked with the detection idiom below and
// enforced by the registry — so the bench drivers' inner loops stay fully
// templated with zero virtual calls. Byte-slot structures inherit Free,
// Collect and restore from core::SlotTable and differ only in Get. The
// optional batch surface (the LevelArray's alone) is detected by
// has_batch_surface_v and gates the paper's balance metrics and Fig. 3
// healing checks.
//
// Batch operations (optional overrides, generic fallback below):
//
//   std::size_t get_batch(Rng&, GetResult* out, std::size_t k)
//   void        free_batch(const std::uint64_t* names, std::size_t k)
//
// get_batch claims *up to* k names and returns how many it granted.
// Structures whose Get is total (every flat array) always grant k; a
// gate-bounded structure (the sharded scale layer) may grant fewer —
// even zero — when its shards refuse, after refunding any reserved gate
// capacity exactly. Callers own the retry loop and must back off between
// rounds (sync::Backoff) instead of busy-looping the refusal path, or
// let get_batch_for (below) wait for them.
// free_batch frees all k names; it throws on the first bad name, at
// which point the earlier names in the batch are already freed (callers
// treating a throw as fatal — every harness here — need no rollback).
// Structures without native overrides are served by the single-op
// fallback loops in api::get_batch / api::free_batch, so every
// registered structure accepts batched traffic; has_batch_ops_v reports
// whether the amortized native path is underneath.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/geometry.hpp"
#include "core/types.hpp"
#include "rng/rng.hpp"

namespace la::api {

// One configuration for every registered structure. Factories pick the
// knobs that apply to them and ignore the rest.
struct RenamerConfig {
  // Contention bound n: maximum number of concurrently held names.
  std::uint64_t capacity = 1024;
  // L = size_factor * capacity for the array-shaped structures
  // (paper: 2.0; §6 sweeps 2N..4N).
  double size_factor = 2.0;
  // LevelArray only: c_i probes per batch. Empty = structure default.
  std::vector<std::uint8_t> probes_per_batch;
  // sharded:* variants only: shard count S (each shard gets
  // ceil(capacity / S) of the contention bound) and the per-thread
  // free-name cache capacity (0 disables the cache; affinity remains).
  std::uint32_t shards = 8;
  std::uint32_t name_cache_capacity = 16;

  // Both sizes go through core::scaled_slots, which rejects NaN/negative
  // factors and products past 2^53 instead of hitting the UB of an
  // out-of-range double -> integer cast.
  std::uint64_t total_slots() const {
    return core::scaled_slots(size_factor, capacity);
  }

  // The `id` entry only: the id space is kIdSpaceFactor * capacity —
  // deliberately larger than L, which is footnote 1's trade (trivial Get,
  // Theta(N) Collect and memory).
  static constexpr double kIdSpaceFactor = 16.0;

  std::uint64_t id_space() const {
    const auto space = core::scaled_slots(kIdSpaceFactor, capacity);
    return space < total_slots() ? total_slots() : space;
  }
};

// --- contract detection -------------------------------------------------

template <typename T, typename = void>
struct is_renamer : std::false_type {};

template <typename T>
struct is_renamer<
    T, std::void_t<
           decltype(std::declval<T&>().get(
               std::declval<rng::MarsagliaXorshift&>())),
           decltype(std::declval<T&>().free(std::uint64_t{})),
           decltype(std::declval<const T&>().collect(
               std::declval<std::vector<std::uint64_t>&>())),
           decltype(std::declval<const T&>().capacity()),
           decltype(std::declval<const T&>().total_slots())>>
    : std::is_same<decltype(std::declval<T&>().get(
                       std::declval<rng::MarsagliaXorshift&>())),
                   GetResult> {};

template <typename T>
inline constexpr bool is_renamer_v = is_renamer<T>::value;

// --- batch operations ---------------------------------------------------

// Native batch-claim surface: get_batch(Rng&, GetResult*, size_t).
template <typename T, typename = void>
struct has_native_get_batch : std::false_type {};

template <typename T>
struct has_native_get_batch<
    T, std::void_t<decltype(std::declval<T&>().get_batch(
           std::declval<rng::MarsagliaXorshift&>(),
           std::declval<GetResult*>(), std::size_t{}))>>
    : std::is_same<decltype(std::declval<T&>().get_batch(
                       std::declval<rng::MarsagliaXorshift&>(),
                       std::declval<GetResult*>(), std::size_t{})),
                   std::size_t> {};

template <typename T>
inline constexpr bool has_native_get_batch_v = has_native_get_batch<T>::value;

// Native batch-release surface: free_batch(const uint64_t*, size_t).
template <typename T, typename = void>
struct has_native_free_batch : std::false_type {};

template <typename T>
struct has_native_free_batch<
    T, std::void_t<decltype(std::declval<T&>().free_batch(
           std::declval<const std::uint64_t*>(), std::size_t{}))>>
    : std::true_type {};

template <typename T>
inline constexpr bool has_native_free_batch_v =
    has_native_free_batch<T>::value;

// True when the structure amortizes batches natively (both directions);
// false means api::get_batch / api::free_batch fall back to k single ops.
template <typename T>
inline constexpr bool has_batch_ops_v =
    has_native_get_batch_v<T> && has_native_free_batch_v<T>;

// Claim up to k names into out[0..k). Returns the number granted — k for
// total structures, possibly fewer for gate-bounded ones (see the batch
// contract in the header comment). The generic path is the per-op loop,
// so every Renamer takes batched traffic.
template <typename Structure, typename Rng>
std::size_t get_batch(Structure& structure, Rng& rng, GetResult* out,
                      std::size_t k) {
  if constexpr (has_native_get_batch_v<Structure>) {
    return structure.get_batch(rng, out, k);
  } else {
    for (std::size_t i = 0; i < k; ++i) out[i] = structure.get(rng);
    return k;
  }
}

// Free names[0..k). Throws on the first bad name (earlier names in the
// batch are already freed by then).
template <typename Structure>
void free_batch(Structure& structure, const std::uint64_t* names,
                std::size_t k) {
  if constexpr (has_native_free_batch_v<Structure>) {
    structure.free_batch(names, k);
  } else {
    for (std::size_t i = 0; i < k; ++i) structure.free(names[i]);
  }
}

// --- bounded-wait (deadline) operations ---------------------------------
//
// Deadlines are *absolute* CLOCK_MONOTONIC instants in nanoseconds, per
// sync::FutexWord::monotonic_now_ns() — comparable across threads and
// (on one host) across processes, which is what lets a svc client stamp
// a deadline into a request slot that the server enforces. kNoDeadline
// means wait forever (get_for degenerates to get).

inline constexpr std::uint64_t kNoDeadline = ~std::uint64_t{0};

// Native bounded-wait surface: bool get_for(Rng&, GetResult&, deadline).
// true = granted (result written); false = the deadline passed while the
// structure was at capacity — a *timed-out refusal*, distinct from the
// gate-bounded batch refusal (which says "retry now"), and counted in
// WaitStats::timeouts by structures that track waiting.
template <typename T, typename = void>
struct has_native_get_for : std::false_type {};

template <typename T>
struct has_native_get_for<
    T, std::void_t<decltype(std::declval<T&>().get_for(
           std::declval<rng::MarsagliaXorshift&>(),
           std::declval<GetResult&>(), std::uint64_t{}))>>
    : std::is_same<decltype(std::declval<T&>().get_for(
                       std::declval<rng::MarsagliaXorshift&>(),
                       std::declval<GetResult&>(), std::uint64_t{})),
                   bool> {};

template <typename T>
inline constexpr bool has_native_get_for_v = has_native_get_for<T>::value;

// Native bounded-wait batch surface:
// size_t get_batch_for(Rng&, GetResult*, k, deadline) — claims up to k,
// returns how many were granted before the deadline (possibly 0).
template <typename T, typename = void>
struct has_native_get_batch_for : std::false_type {};

template <typename T>
struct has_native_get_batch_for<
    T, std::void_t<decltype(std::declval<T&>().get_batch_for(
           std::declval<rng::MarsagliaXorshift&>(),
           std::declval<GetResult*>(), std::size_t{}, std::uint64_t{}))>>
    : std::is_same<decltype(std::declval<T&>().get_batch_for(
                       std::declval<rng::MarsagliaXorshift&>(),
                       std::declval<GetResult*>(), std::size_t{},
                       std::uint64_t{})),
                   std::size_t> {};

template <typename T>
inline constexpr bool has_native_get_batch_for_v =
    has_native_get_batch_for<T>::value;

// True when the structure can refuse by deadline natively; its
// get_batch_for is then also where refused callers wait (the drive
// loop's batched retry parks there, not on a spin). For structures
// without it the free functions below fall back to the
// untimed ops — correct only where those cannot block (the flat arrays'
// Get is total below capacity); harnesses that *oversubscribe* demand to
// force timeouts must gate that on has_deadline_ops_v, because a flat
// array's Get spins forever once aggregate demand exceeds capacity.
template <typename T>
inline constexpr bool has_deadline_ops_v =
    has_native_get_for_v<T> && has_native_get_batch_for_v<T>;

// Claim one name, waiting at most until deadline_ns. Returns false only
// on a timed-out refusal (native path); the fallback is the untimed get.
template <typename Structure, typename Rng>
bool get_for(Structure& structure, Rng& rng, GetResult& out,
             std::uint64_t deadline_ns) {
  if constexpr (has_native_get_for_v<Structure>) {
    return structure.get_for(rng, out, deadline_ns);
  } else {
    out = structure.get(rng);
    return true;
  }
}

// Claim up to k names, waiting at most until deadline_ns. Returns how
// many were granted (0 on a pure timeout); the fallback is the untimed
// batch path.
template <typename Structure, typename Rng>
std::size_t get_batch_for(Structure& structure, Rng& rng, GetResult* out,
                          std::size_t k, std::uint64_t deadline_ns) {
  if constexpr (has_native_get_batch_for_v<Structure>) {
    return structure.get_batch_for(rng, out, k, deadline_ns);
  } else {
    (void)deadline_ns;
    return get_batch(structure, rng, out, k);
  }
}

// Optional batch surface: geometry(), batch_occupancy() and
// seed_batch_occupancy(batch, count) — the batch partition, per-batch
// held counts and Fig. 3's bad-state seeding. They only make sense
// together, so harnesses detect them as one.
template <typename T, typename = void>
struct has_batch_surface : std::false_type {};

template <typename T>
struct has_batch_surface<
    T, std::void_t<decltype(std::declval<const T&>().geometry()),
                   decltype(std::declval<const T&>().batch_occupancy()),
                   decltype(std::declval<T&>().seed_batch_occupancy(
                       std::uint32_t{}, std::uint64_t{}))>>
    : std::true_type {};

template <typename T>
inline constexpr bool has_batch_surface_v = has_batch_surface<T>::value;

// --- waiting surfaces ---------------------------------------------------

// Cumulative waiting totals for structures with a blocking tier: how
// many retry rounds outlived the spin/yield tiers (wait_rounds), how
// many ended in a futex park (parks), and how many deadline-bounded
// acquisitions (get_for / get_batch_for) expired into a timed-out
// refusal (timeouts). Harness reports surface all three so the
// parked-vs-spinning-vs-refused tradeoff is visible, not inferred. A
// structure that can refuse does its own waiting: callers park through
// get_for / get_batch_for (has_deadline_ops_v), never on a signal of
// the structure's.
struct WaitStats {
  std::uint64_t wait_rounds = 0;
  std::uint64_t parks = 0;
  std::uint64_t timeouts = 0;
};

// Optional: T::wait_stats() -> WaitStats (racy monotonic snapshot).
template <typename T, typename = void>
struct has_wait_stats : std::false_type {};

template <typename T>
struct has_wait_stats<
    T, std::void_t<decltype(std::declval<const T&>().wait_stats())>>
    : std::is_same<decltype(std::declval<const T&>().wait_stats()),
                   WaitStats> {};

template <typename T>
inline constexpr bool has_wait_stats_v = has_wait_stats<T>::value;

// --- RNG dispatch -------------------------------------------------------

// Type tag handed to the callable so it can name the generator type
// without constructing one (seeding stays with the caller).
template <typename T>
struct RngTag {
  using type = T;
};

// The one place an RngKind becomes a concrete generator type. fn receives
// RngTag<Generator> and is instantiated per generator — the inner loops
// stay monomorphic.
template <typename Fn>
decltype(auto) with_rng(rng::RngKind kind, Fn&& fn) {
  switch (kind) {
    case rng::RngKind::kMarsaglia: return fn(RngTag<rng::MarsagliaXorshift>{});
    case rng::RngKind::kLehmer: return fn(RngTag<rng::Lehmer>{});
    case rng::RngKind::kPcg32: return fn(RngTag<rng::Pcg32>{});
  }
  throw std::logic_error("unhandled RngKind");
}

}  // namespace la::api
