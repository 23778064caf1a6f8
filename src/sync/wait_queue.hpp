// WaitQueue — a ticketed, FIFO-fair eventcount: the fairness layer the
// plain FutexWord deliberately lacks. FutexWord::signal() wakes *every*
// parked waiter (a thundering herd racing for one freed slot, with no
// starvation bound — scheduler luck decides who wins); WaitQueue waiters
// take monotone tickets on entry and wake_one() grants exactly the
// oldest queued ticket, so starvation is bounded by queue position: a
// waiter is overtaken at most by the waiters already ahead of it (plus
// any it re-queues behind by choice). wake_all() remains for bulk
// releases (Free-k returning many slots at once), where waking the whole
// queue is the point, not a herd.
//
// Protocol — the same two-phase shape as FutexWord, so the no-lost-wakeup
// argument carries over:
//
//   waiter:  WaitQueue::Waiter w;            // stack-allocated node
//            q.prepare_wait(w);              // enqueue, take a ticket
//            if (condition_now_true()) { q.cancel_wait(w); proceed; }
//            r = q.commit_wait(w, deadline); // sleep until granted/expired
//            // kWoken: we held the oldest ticket when a grant arrived —
//            // re-check the condition (the capacity is *eligible*, not
//            // reserved); kTimedOut: we unlinked ourselves, nothing owed.
//
//   waker:   release_capacity();
//            q.wake_one();                   // grant the oldest ticket
//
// The barrier between "publish" and "check the other side" is the
// asymmetric pair of asymmetric_fence.hpp, not FutexWord's symmetric
// seq_cst fence: the waiter pays heavy_fence() (one membarrier) once per
// park, right after its registration, and the waker pays light_fence()
// (a compiler barrier) on every release. The queue is process-private,
// so membarrier's reach (this process's threads) covers every waker; the
// cross-process svc doorbells keep FutexWord's fence.
//
// Handoff: a woken waiter that loses the re-check race can re-enter with
// prepare_wait(w, /*front=*/true), which re-queues it at the *head* —
// its effective position never degrades, so "overtaken at most
// queue-depth times" holds across retries, not just within one park.
//
// Mechanics: the queue is an intrusive doubly-linked list of stack nodes
// under a SpinLock (park/wake are already slow paths; the lock is never
// on an acquire fast path). Sleeping happens on ONE process-private
// FutexWord owned by the queue — never on node memory — with the
// FUTEX_BITSET channel keyed by ticket%32 so a wake targets (mostly)
// just the granted waiter; bit collisions cost a spurious re-check, not
// a missed or misdelivered grant, because the grant itself is the
// node's state word, written under the lock. A waker never touches a
// node after granting it (the release store of kGranted is its last
// access), so a woken waiter can return — and pop its stack frame —
// immediately; there is no use-after-free window.
//
// Grant conservation: a grant consumed by a waiter that no longer needs
// it (cancel_wait after the condition came true, or a timeout losing the
// race to a grant) is re-donated via wake_one(), so a capacity release
// never evaporates while an eligible waiter sleeps.
#pragma once

#include <atomic>
#include <cstdint>

#include "sync/annotations.hpp"
#include "sync/asymmetric_fence.hpp"
#include "sync/atomic_select.hpp"
#include "sync/futex.hpp"
#include "sync/spin_lock.hpp"

namespace la::sync {

class WaitQueue {
 public:
  static constexpr std::uint64_t kNoDeadline = FutexWord::kNoDeadline;

  // One waiter's queue node; lives on the waiting thread's stack across
  // one prepare/cancel-or-commit cycle.
  class Waiter {
   public:
    Waiter() = default;
    Waiter(const Waiter&) = delete;
    Waiter& operator=(const Waiter&) = delete;
    // The monotone ticket taken at prepare_wait (1-based; 0 = not yet
    // queued). Exposed for fairness accounting and the FIFO-order tests.
    std::uint64_t ticket() const { return ticket_; }

   private:
    friend class WaitQueue;
    static constexpr std::uint32_t kQueued = 0;
    static constexpr std::uint32_t kGranted = 1;

    std::uint64_t ticket_ = 0;
    Waiter* prev_ = nullptr;
    Waiter* next_ = nullptr;
    la::detail::atomic<std::uint32_t> state_{kQueued};
  };

  WaitQueue() { register_asymmetric_fence(); }
  // Start the ticket counter at an arbitrary value. Tickets are 64-bit
  // and never wrap in practice; what *does* wrap is the 32-bit futex
  // bitset channel keyed by ticket % 32. The verify harness constructs
  // queues at UINT32_MAX - 2 to exhaustively check FIFO grant order
  // straight through that boundary.
  explicit WaitQueue(std::uint64_t first_ticket)
      : next_ticket_(first_ticket == 0 ? 1 : first_ticket),
        first_ticket_(first_ticket == 0 ? 1 : first_ticket) {
    register_asymmetric_fence();
  }
  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  // Enqueue and take a ticket. front=true re-enters at the head (the
  // handoff path for a woken waiter that lost the re-check race); the
  // original ticket order is preserved by position, and the waiter keeps
  // a fresh ticket only for accounting.
  void prepare_wait(Waiter& w, bool front = false) {
    w.ticket_ = next_ticket_.fetch_add(1, std::memory_order_relaxed);
    w.state_.store(Waiter::kQueued, std::memory_order_relaxed);
    w.prev_ = w.next_ = nullptr;
    {
      SpinLockGuard guard(lock_);
      if (front) {
        link_front(w);
      } else {
        link_back(w);
      }
    }
    // seq_cst + heavy_fence: the registration must be visible to a
    // waker's waiters()==0 fast-path check before the caller re-checks
    // its condition. The heavy side of the asymmetric pair is what lets
    // wake_one/wake_all skip their CPU fence.
    count_.fetch_add(1, std::memory_order_seq_cst);
    heavy_fence();
  }

  // Abandon a prepared wait (the condition came true before sleeping).
  // If a grant raced in, re-donate it so the release it represents still
  // wakes somebody.
  void cancel_wait(Waiter& w) {
    bool granted;
    {
      SpinLockGuard guard(lock_);
      granted = w.state_.load(std::memory_order_relaxed) == Waiter::kGranted;
      if (!granted) unlink(w);
    }
    count_.fetch_sub(1, std::memory_order_release);
    if (granted) wake_one();
  }

  // Sleep until granted (kWoken) or the absolute CLOCK_MONOTONIC
  // deadline passes (kTimedOut). A timeout that loses the race to a
  // grant reports kWoken — the grant was spent on us, and the caller's
  // re-check decides what it was worth.
  WaitResult commit_wait(Waiter& w, std::uint64_t deadline_ns = kNoDeadline) {
    const std::uint32_t bits = 1u << (w.ticket_ % 32u);
    for (;;) {
      if (w.state_.load(std::memory_order_acquire) == Waiter::kGranted) {
        count_.fetch_sub(1, std::memory_order_release);
        return WaitResult::kWoken;
      }
      const std::uint32_t seen = word_.prepare_wait();
      if (w.state_.load(std::memory_order_acquire) == Waiter::kGranted) {
        word_.cancel_wait();
        count_.fetch_sub(1, std::memory_order_release);
        return WaitResult::kWoken;
      }
      const WaitResult r = word_.commit_wait_until(seen, deadline_ns, bits);
      if (r == WaitResult::kTimedOut) {
        bool granted;
        {
          SpinLockGuard guard(lock_);
          granted =
              w.state_.load(std::memory_order_relaxed) == Waiter::kGranted;
          if (!granted) unlink(w);
        }
        count_.fetch_sub(1, std::memory_order_release);
        return granted ? WaitResult::kWoken : WaitResult::kTimedOut;
      }
    }
  }

  // Grant the oldest queued ticket. Returns the granted ticket, or 0 if
  // the queue was empty. The no-waiter fast path costs one compiler
  // barrier + two loads (the fence mode and the count; the waiter's
  // heavy_fence pays for the CPU barrier), so release paths call it
  // unconditionally.
  std::uint64_t wake_one() {
    light_fence();
    if (count_.load(std::memory_order_seq_cst) == 0) return 0;
    std::uint64_t ticket = 0;
    std::uint32_t bits = 0;
    {
      SpinLockGuard guard(lock_);
      Waiter* w = head_;
      if (w == nullptr) return 0;
      unlink(*w);
      ticket = w->ticket_;
      bits = 1u << (ticket % 32u);
      // Last access to *w: after this release store the waiter may wake
      // (even spuriously), observe kGranted, and pop its frame.
      w->state_.store(Waiter::kGranted, std::memory_order_release);
    }
    word_.signal(bits);
    return ticket;
  }

  // Grant every queued ticket (bulk Free-k: many slots released at
  // once). Returns how many waiters were granted.
  std::size_t wake_all() {
    light_fence();
    if (count_.load(std::memory_order_seq_cst) == 0) return 0;
    std::size_t woken = 0;
    {
      SpinLockGuard guard(lock_);
      while (head_ != nullptr) {
        Waiter* w = head_;
        unlink(*w);
        w->state_.store(Waiter::kGranted, std::memory_order_release);
        ++woken;
      }
    }
    if (woken != 0) word_.signal();
    return woken;
  }

  // Racy snapshots (stress/fairness instrumentation).
  std::uint32_t waiters() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t tickets_issued() const {
    return next_ticket_.load(std::memory_order_relaxed) - first_ticket_;
  }

 private:
  void link_back(Waiter& w) LA_REQUIRES(lock_) {
    w.prev_ = tail_;
    w.next_ = nullptr;
    if (tail_ != nullptr) {
      tail_->next_ = &w;
    } else {
      head_ = &w;
    }
    tail_ = &w;
  }

  void link_front(Waiter& w) LA_REQUIRES(lock_) {
    w.prev_ = nullptr;
    w.next_ = head_;
    if (head_ != nullptr) {
      head_->prev_ = &w;
    } else {
      tail_ = &w;
    }
    head_ = &w;
  }

  void unlink(Waiter& w) LA_REQUIRES(lock_) {
    if (w.prev_ != nullptr) {
      w.prev_->next_ = w.next_;
    } else {
      head_ = w.next_;
    }
    if (w.next_ != nullptr) {
      w.next_->prev_ = w.prev_;
    } else {
      tail_ = w.prev_;
    }
    w.prev_ = w.next_ = nullptr;
  }

  SpinLock lock_;
  Waiter* head_ LA_GUARDED_BY(lock_) = nullptr;  // oldest (next to grant)
  Waiter* tail_ LA_GUARDED_BY(lock_) = nullptr;  // newest
  la::detail::atomic<std::uint64_t> next_ticket_{1};
  const std::uint64_t first_ticket_ = 1;
  la::detail::atomic<std::uint32_t> count_{0};
  FutexWord word_;  // process-private sleep word; nodes never sleep on
                    // their own memory (see the use-after-free note above)
};

}  // namespace la::sync
