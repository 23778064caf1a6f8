// FutexWord — an eventcount over one futex word, the blocking primitive
// behind every park in this library (the Backoff final tier, the svc
// doorbells, the WaitQueue's sleep word). The discipline is the classic
// two-phase wait that makes lost wakeups impossible by construction:
//
//   waiter:  seen = prepare_wait();        // register, snapshot the word
//            if (condition_now_true()) { cancel_wait(); proceed; }
//            commit_wait(seen);            // sleep iff word still == seen
//
//   waker:   make_condition_true();        // e.g. the Free's release
//            signal();                     // bump + wake if anyone waits
//
// prepare_wait's waiter registration is seq_cst-ordered before the
// waiter's re-check, and signal's fence is seq_cst-ordered after the
// waker's state change — so either the waiter's re-check sees the new
// state, or the waker's waiter-count load sees the registration and
// bumps the word, which makes commit_wait's FUTEX_WAIT return
// immediately (value != seen). Sleeping through a wake is therefore
// impossible; spurious returns are allowed and callers must loop.
//
// signal() is engineered for the hot path with no waiters: one seq_cst
// fence plus one load, no RMW, no syscall. Both sides pay a CPU fence
// here, unlike the WaitQueue, whose wakers pay only a compiler barrier
// and whose waiters a membarrier (asymmetric_fence.hpp): a FutexWord may
// sit in a segment shared across processes (the svc doorbells), and
// membarrier(PRIVATE_EXPEDITED) only reaches this process's threads, so
// a waker in another process would get no barrier.
//
// Timed waits use FUTEX_WAIT_BITSET, whose timeout is an *absolute*
// CLOCK_MONOTONIC instant, and loop on EINTR and spurious returns until
// the deadline or a value change. The older FUTEX_WAIT relative form had
// two bugs this kills: a signal (any EINTR) ended the park early and was
// counted as a full park, and re-arming restarted the full relative
// timeout, so a park under signal bombardment could drift unboundedly
// past its nominal budget. With an absolute deadline, re-arming after
// EINTR converges on the same instant no matter how often it happens.
//
// The bitset doubles as a selective-wake channel: waiters can park on a
// subset mask and signal(bits) wakes only matching waiters — the
// WaitQueue uses this to wake exactly the oldest ticket without a
// thundering herd (see wait_queue.hpp).
//
// The word lives wherever it is placed — including a shared-memory
// segment mapped by several processes (the svc layer). `shared` selects
// the futex flavor: process-private ops let the kernel skip the mapping
// lookup; cross-process words must use the shared flavor. Non-Linux
// builds degrade commit_wait to a yield loop against a steady_clock
// deadline (the eventcount protocol makes that merely slower, never
// incorrect).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "sync/atomic_select.hpp"

#if defined(__linux__)
#include <errno.h>
#include <linux/futex.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>
#endif

namespace la::sync {

// How a timed park ended: the word moved (or a wake was delivered), or
// the absolute deadline passed with the word unchanged. Callers re-check
// their own condition either way; kTimedOut is what the deadline
// surfaces (api::get_for, the svc pending list) count as a timeout.
enum class WaitResult : std::uint8_t { kWoken, kTimedOut };

class FutexWord {
 public:
  // Sentinel deadline: wait forever. Matches FUTEX_BITSET_MATCH_ANY's
  // "no timeout" NULL timespec.
  static constexpr std::uint64_t kNoDeadline = ~std::uint64_t{0};
  // Wake-mask matching every waiter (FUTEX_BITSET_MATCH_ANY).
  static constexpr std::uint32_t kAllWakeBits = 0xFFFFFFFFu;

  FutexWord() = default;
  explicit FutexWord(bool shared) : shared_(shared ? 1 : 0) {}
  FutexWord(const FutexWord&) = delete;
  FutexWord& operator=(const FutexWord&) = delete;

  // The deadline clock for every timed wait in this library: absolute
  // CLOCK_MONOTONIC nanoseconds, comparable across threads and (on one
  // host) across processes — which is what lets a svc client stamp a
  // deadline into a request slot the server enforces.
  static std::uint64_t monotonic_now_ns() {
#if defined(LEVELARRAY_VERIFY)
    // The model checker owns time: the virtual clock advances only when
    // every thread is blocked on a deadline, so timeout paths are
    // explored deterministically instead of raced against a wall clock.
    return ::la::verify::virtual_now_ns();
#elif defined(__linux__)
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
  }

  // Register as a waiter and snapshot the word. Every prepare_wait MUST
  // be paired with exactly one cancel_wait or commit_wait*.
  std::uint32_t prepare_wait() {
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    return value_.load(std::memory_order_seq_cst);
  }

  void cancel_wait() { waiters_.fetch_sub(1, std::memory_order_release); }

  // Sleep until the word moves past `seen` (or spuriously). Callers loop
  // on their own condition.
  void commit_wait(std::uint32_t seen) {
    wait_until(seen, kNoDeadline, kAllWakeBits);
    waiters_.fetch_sub(1, std::memory_order_release);
  }

  // Timed variant against an *absolute* CLOCK_MONOTONIC deadline (in
  // nanoseconds, per monotonic_now_ns). Loops on EINTR and spurious
  // wakes: only a value change (kWoken) or the deadline itself
  // (kTimedOut) ends the park. `bits` restricts which signal() masks
  // can wake this waiter (default: any).
  WaitResult commit_wait_until(std::uint32_t seen, std::uint64_t deadline_ns,
                               std::uint32_t bits = kAllWakeBits) {
    const WaitResult r = wait_until(seen, deadline_ns, bits);
    waiters_.fetch_sub(1, std::memory_order_release);
    return r;
  }

  // Relative-duration convenience over commit_wait_until: the deadline
  // is fixed once, up front, so EINTR re-arming cannot stretch the park
  // past now + nanos. Used where the waker may have died (a svc client
  // waiting on a possibly-dead server) or where the sleeper doubles as a
  // periodic sweeper (the server idle loop).
  WaitResult commit_wait_for(std::uint32_t seen, std::uint64_t nanos) {
    return commit_wait_until(seen, monotonic_now_ns() + nanos);
  }

  // Wake every committed waiter matching `bits` iff any waiters are
  // registered. Safe (and cheap) to call on every release path.
  void signal(std::uint32_t bits = kAllWakeBits) {
    la::detail::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_seq_cst) == 0) return;
    value_.fetch_add(1, std::memory_order_seq_cst);
    wake(bits);
  }

  // Racy instrumentation snapshot (the stress reports).
  std::uint32_t waiters() const {
    return waiters_.load(std::memory_order_relaxed);
  }

 private:
  WaitResult wait_until(std::uint32_t seen, std::uint64_t deadline_ns,
                        std::uint32_t bits) {
#if defined(LEVELARRAY_VERIFY)
    // Cooperative park: block until some thread commits a store (every
    // signal() bumps value_) or the virtual clock reaches the deadline.
    // The eventcount re-check loop is identical to the real one, so the
    // two-phase protocol itself is what gets model-checked.
    (void)bits;
    for (;;) {
      if (value_.load(std::memory_order_seq_cst) != seen) {
        return WaitResult::kWoken;
      }
      if (deadline_ns != kNoDeadline &&
          ::la::verify::virtual_now_ns() >= deadline_ns) {
        return WaitResult::kTimedOut;
      }
      ::la::verify::spin_yield(deadline_ns == kNoDeadline
                                   ? ::la::verify::kNoDeadlineNs
                                   : deadline_ns);
    }
#elif defined(__linux__)
    const int op =
        (shared_ != 0 ? FUTEX_WAIT_BITSET : FUTEX_WAIT_BITSET_PRIVATE);
    for (;;) {
      if (value_.load(std::memory_order_seq_cst) != seen) {
        return WaitResult::kWoken;
      }
      struct timespec ts;
      struct timespec* tsp = nullptr;
      if (deadline_ns != kNoDeadline) {
        if (monotonic_now_ns() >= deadline_ns) return WaitResult::kTimedOut;
        ts.tv_sec = static_cast<time_t>(deadline_ns / 1000000000ull);
        ts.tv_nsec = static_cast<long>(deadline_ns % 1000000000ull);
        tsp = &ts;
      }
      // FUTEX_WAIT_BITSET without FUTEX_CLOCK_REALTIME measures the
      // timespec against CLOCK_MONOTONIC as an absolute instant.
      const long rc =
          syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&value_), op,
                  seen, tsp, nullptr, bits);
      if (rc == 0) {
        // A wake was delivered. Every signal() bumps the word before
        // waking, so value != seen here; report kWoken either way (a
        // truly spurious 0 re-enters the loop via the top check).
        if (value_.load(std::memory_order_seq_cst) != seen) {
          return WaitResult::kWoken;
        }
        continue;
      }
      switch (errno) {
        case EAGAIN:  // value != seen already
          return WaitResult::kWoken;
        case ETIMEDOUT:
          return WaitResult::kTimedOut;
        case EINTR:  // a signal; re-arm against the same absolute deadline
        default:
          continue;
      }
    }
#else
    while (value_.load(std::memory_order_seq_cst) == seen) {
      if (deadline_ns != kNoDeadline && monotonic_now_ns() >= deadline_ns) {
        return WaitResult::kTimedOut;
      }
      std::this_thread::yield();
    }
    (void)bits;
    return WaitResult::kWoken;
#endif
  }

  void wake(std::uint32_t bits) {
#if defined(LEVELARRAY_VERIFY)
    // No kernel waiters exist under the checker; the value_ bump in
    // signal() already unblocked every cooperative waiter.
    (void)bits;
#elif defined(__linux__)
    const int op =
        (shared_ != 0 ? FUTEX_WAKE_BITSET : FUTEX_WAKE_BITSET_PRIVATE);
    syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&value_), op,
            0x7FFFFFFF, nullptr, nullptr, bits);
#else
    (void)bits;
#endif
  }

  // Layout is fork/shared-memory friendly: three lock-free words, no
  // pointers, placement-constructed once by the segment creator.
  la::detail::atomic<std::uint32_t> value_{0};
  la::detail::atomic<std::uint32_t> waiters_{0};
  std::uint32_t shared_ = 0;
};

#if !defined(LEVELARRAY_VERIFY)
static_assert(sizeof(FutexWord) <= 16, "FutexWord must stay a small POD-ish word");
#endif

}  // namespace la::sync
