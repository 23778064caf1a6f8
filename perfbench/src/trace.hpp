// Benchmark-owned decorators for the layer boundaries of the renaming
// stack. Decorated<Inner, Hook> satisfies the api::Renamer contract by
// forwarding to Inner, and forwards every optional surface the layer
// above detects (batch ops, wait stats, free signal, adoption, shard
// geometry, sharded stats) so a decorated stack takes the same code
// paths as the bare one. The Hook runs around each public call:
//
//   SpanHook<L>  records a Span for layer L into the calling thread's
//                buffer (sampled per top-level call) and counts every
//                call, name and probe;
//   DelayHook    spins for a fixed number of nanoseconds before the
//                call — the sensitivity check's injected cost.
//
// Spans live in per-thread, cache-padded buffers owned by a registry, so
// the server's worker thread (which the benchmark does not start) gets a
// buffer on its first traced call and the buffer outlives the thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "stats.hpp"
#include "sync/cache.hpp"

namespace perfbench {

enum class Layer : std::uint8_t { kClient, kDispatch, kScale, kCore };
enum class Op : std::uint8_t { kGet, kFree, kCollect };
inline constexpr std::size_t kLayers = 4;
inline constexpr std::size_t kOps = 3;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct CallCount {
  std::uint64_t calls = 0;
  std::uint64_t names = 0;   // names granted (Get) or released (Free)
  std::uint64_t probes = 0;  // sum of GetResult::probes
  std::uint64_t probes_max = 0;
  std::uint64_t backups = 0;  // names granted by the backup sweep
};

// One thread's trace state. Only its owner writes it; the registry reads
// it after every traced thread has been joined.
struct alignas(la::sync::kCacheLineSize) ThreadTrace {
  // Top-level calls of one kind between two sampled ones. Prime, so the
  // sample does not lock onto a fixed position in a periodic call
  // pattern (the server frees 16 names per request). Collects are always
  // sampled: there are only a few per second.
  static constexpr std::uint64_t kSamplePeriod = 61;
  static constexpr std::size_t kSpanCapacity = 1u << 18;

  ThreadTrace() { spans.reserve(kSpanCapacity); }

  std::vector<Span> spans;
  std::vector<std::int32_t> open;
  std::uint32_t depth = 0;
  bool sampling = false;
  std::uint64_t top_calls[kOps] = {};
  CallCount counts[kLayers][kOps] = {};
};

class TraceRegistry {
 public:
  static TraceRegistry& instance() {
    static TraceRegistry registry;
    return registry;
  }

  // Tracing is on only inside the traced measurement window.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Drop every buffer (all traced threads must have been joined). Bumps
  // the generation so a surviving thread allocates a fresh buffer.
  void reset() {
    std::lock_guard<std::mutex> guard(mu_);
    traces_.clear();
    generation_.fetch_add(1, std::memory_order_release);
  }

  ThreadTrace& current() {
    thread_local ThreadTrace* mine = nullptr;
    thread_local std::uint64_t mine_generation = ~std::uint64_t{0};
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (mine == nullptr || mine_generation != gen) {
      std::lock_guard<std::mutex> guard(mu_);
      traces_.push_back(std::make_unique<ThreadTrace>());
      mine = traces_.back().get();
      mine_generation = gen;
    }
    return *mine;
  }

  const std::vector<std::unique_ptr<ThreadTrace>>& traces() const {
    return traces_;
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> generation_{0};
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTrace>> traces_;
};

template <Layer L>
class SpanHook {
 public:
  explicit SpanHook(Op op) : op_(op) {
    TraceRegistry& registry = TraceRegistry::instance();
    if (!registry.enabled()) return;
    t_ = &registry.current();
    if (t_->depth == 0) {
      t_->sampling =
          (op == Op::kCollect ||
           t_->top_calls[static_cast<std::size_t>(op)]++ %
                   ThreadTrace::kSamplePeriod ==
               0) &&
          t_->spans.size() + 16 < ThreadTrace::kSpanCapacity;
    }
    ++t_->depth;
    ++count().calls;
    if (t_->sampling) {
      Span s;
      s.parent = t_->open.empty() ? -1 : t_->open.back();
      s.layer = static_cast<std::uint8_t>(L);
      s.op = static_cast<std::uint8_t>(op);
      t_->open.push_back(static_cast<std::int32_t>(t_->spans.size()));
      t_->spans.push_back(s);
      t_->spans.back().start = now_ns();
    }
  }

  ~SpanHook() {
    if (t_ == nullptr) return;
    if (t_->sampling) {
      t_->spans[static_cast<std::size_t>(t_->open.back())].end = now_ns();
      t_->open.pop_back();
    }
    --t_->depth;
  }

  SpanHook(const SpanHook&) = delete;
  SpanHook& operator=(const SpanHook&) = delete;

  void names(std::size_t n) {
    if (t_ != nullptr) count().names += n;
  }

  void granted(const la::GetResult* got, std::size_t n) {
    if (t_ == nullptr) return;
    CallCount& c = count();
    c.names += n;
    for (std::size_t i = 0; i < n; ++i) {
      c.probes += got[i].probes;
      if (got[i].probes > c.probes_max) c.probes_max = got[i].probes;
      if (got[i].used_backup) ++c.backups;
    }
  }

 private:
  CallCount& count() {
    return t_->counts[static_cast<std::size_t>(L)][static_cast<std::size_t>(op_)];
  }

  Op op_;
  ThreadTrace* t_ = nullptr;
};

// The sensitivity check's fixed cost per call: a few hundred ns on every
// core call, a few microseconds on every client exchange.
inline constexpr std::uint64_t kCoreDelayNs = 300;
inline constexpr std::uint64_t kClientDelayNs = 3000;

template <std::uint64_t kDelayNs>
class DelayHook {
 public:
  explicit DelayHook(Op) {
    const std::uint64_t start = now_ns();
    while (now_ns() - start < kDelayNs) {
    }
  }
  void names(std::size_t) {}
  void granted(const la::GetResult*, std::size_t) {}
};

template <typename Inner, typename Hook>
class Decorated {
 public:
  explicit Decorated(std::unique_ptr<Inner> inner) : inner_(std::move(inner)) {}
  Decorated(const Decorated&) = delete;
  Decorated& operator=(const Decorated&) = delete;

  Inner& inner() { return *inner_; }
  const Inner& inner() const { return *inner_; }

  template <typename Rng>
  la::GetResult get(Rng& rng) {
    Hook hook(Op::kGet);
    const la::GetResult r = inner_->get(rng);
    hook.granted(&r, 1);
    return r;
  }

  template <typename Rng, typename I = Inner>
  auto get_batch(Rng& rng, la::GetResult* out, std::size_t k)
      -> decltype(std::declval<I&>().get_batch(rng, out, k)) {
    Hook hook(Op::kGet);
    const std::size_t n = inner_->get_batch(rng, out, k);
    hook.granted(out, n);
    return n;
  }

  void free(std::uint64_t name) {
    Hook hook(Op::kFree);
    inner_->free(name);
    hook.names(1);
  }

  template <typename I = Inner>
  auto free_batch(const std::uint64_t* names, std::size_t k)
      -> decltype(std::declval<I&>().free_batch(names, k)) {
    Hook hook(Op::kFree);
    inner_->free_batch(names, k);
    hook.names(k);
  }

  std::size_t collect(std::vector<std::uint64_t>& out) const {
    Hook hook(Op::kCollect);
    return inner_->collect(out);
  }

  std::uint64_t capacity() const { return inner_->capacity(); }
  std::uint64_t total_slots() const { return inner_->total_slots(); }

  template <typename I = Inner>
  auto wait_stats() const -> decltype(std::declval<const I&>().wait_stats()) {
    return inner_->wait_stats();
  }
  template <typename I = Inner>
  auto free_signal() const
      -> decltype(std::declval<const I&>().free_signal()) {
    return inner_->free_signal();
  }
  template <typename I = Inner>
  auto adopt_held(std::uint64_t name)
      -> decltype(std::declval<I&>().adopt_held(name)) {
    inner_->adopt_held(name);
  }
  template <typename I = Inner>
  auto num_shards() const -> decltype(std::declval<const I&>().num_shards()) {
    return inner_->num_shards();
  }
  template <typename I = Inner>
  auto shard_stride() const
      -> decltype(std::declval<const I&>().shard_stride()) {
    return inner_->shard_stride();
  }
  template <typename I = Inner>
  auto stats() const -> decltype(std::declval<const I&>().stats()) {
    return inner_->stats();
  }

 private:
  std::unique_ptr<Inner> inner_;
};

// Layer wrappers, as template-template arguments for the workload
// stacks. Plain<T> is T itself: the timed runs measure the bare stack.
template <typename T>
using Plain = T;
template <typename T>
using TimedClient = Decorated<T, SpanHook<Layer::kClient>>;
template <typename T>
using TimedDispatch = Decorated<T, SpanHook<Layer::kDispatch>>;
template <typename T>
using TimedScale = Decorated<T, SpanHook<Layer::kScale>>;
template <typename T>
using TimedCore = Decorated<T, SpanHook<Layer::kCore>>;
template <typename T>
using CoreDelayed = Decorated<T, DelayHook<kCoreDelayNs>>;
template <typename T>
using ClientDelayed = Decorated<T, DelayHook<kClientDelayNs>>;

// unique_ptr<T> -> unique_ptr<W<T>>, a no-op when W is Plain.
template <template <typename> class W, typename T>
std::unique_ptr<W<T>> wrap(std::unique_ptr<T> inner) {
  if constexpr (std::is_same_v<W<T>, T>) {
    return inner;
  } else {
    return std::make_unique<W<T>>(std::move(inner));
  }
}

}  // namespace perfbench
