// WaitQueue fairness + timed-park robustness:
//
//   * FIFO grant order — waiters enqueued in a known order (each thread
//     holds the baton until its prepare_wait is in the queue) must be
//     granted strictly oldest-first by wake_one(); the returned tickets
//     prove it, since sequential enqueue makes ticket order == queue
//     order. This is the bounded-starvation claim in miniature: the
//     oldest waiter is never overtaken.
//   * Handoff re-entry — prepare_wait(w, front=true) puts a woken-but-
//     refused waiter back at the *head*, so wake_one() grants it before
//     older-looking tickets behind it.
//   * Grant conservation — a grant consumed by cancel_wait is re-donated
//     to the next queued waiter instead of evaporating.
//   * Timed expiry — commit_wait with an absolute deadline returns
//     kTimedOut close to the deadline and fully unlinks the waiter.
//   * Signal bombardment — a timed FutexWord park under a SIGUSR1 storm
//     (handler installed *without* SA_RESTART, so every delivery EINTRs
//     the futex syscall) must still expire at its absolute deadline:
//     neither early (EINTR surfacing as a timeout) nor late (a relative
//     timeout restarting from scratch per delivery never expires under a
//     10ms-interval storm). This is the regression test for the
//     commit_wait_for deadline-drift fix.
//   * Oversubscribed churn — threads park/re-park past 32 tickets so the
//     ticket%32 wake-bit channel wraps and collides; collisions may cost
//     spurious wakes but never a lost grant, proven by termination.
//   * Dekker edge — one release (flag store + one wake_one) races one
//     park (prepare_wait, flag re-check, commit_wait) for 100k rounds:
//     the no-lost-wakeup edge that the asymmetric fence pair carries. A
//     lost wakeup hangs into the ctest TIMEOUT. It runs once more in a
//     fork()ed child, where a membarrier registration that did not
//     survive fork would abort.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <pthread.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "sync/asymmetric_fence.hpp"
#include "sync/futex.hpp"
#include "sync/spin_barrier.hpp"
#include "sync/wait_queue.hpp"

namespace {

int failures = 0;
std::string current;

#define CHECK(cond)                                                       \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "FAIL [%s] %s:%d: %s\n", current.c_str(),      \
                   __FILE__, __LINE__, #cond);                            \
      ++failures;                                                         \
    }                                                                     \
  } while (0)

std::uint64_t now_ns() { return la::sync::FutexWord::monotonic_now_ns(); }

// --- FIFO grant order ----------------------------------------------------

void test_fifo_order() {
  current = "fifo_order";
  constexpr std::uint32_t kThreads = 8;
  la::sync::WaitQueue q;

  // The baton serializes the *enqueues* (thread i's prepare_wait is in
  // the queue before thread i+1 starts), so queue position order equals
  // ticket order and wake_one()'s returned tickets must come back
  // strictly ascending.
  std::atomic<std::uint32_t> baton{0};
  std::atomic<std::uint32_t> done{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::uint32_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      while (baton.load(std::memory_order_acquire) != i) {
        std::this_thread::yield();
      }
      la::sync::WaitQueue::Waiter w;
      q.prepare_wait(w);
      baton.store(i + 1, std::memory_order_release);
      CHECK(q.commit_wait(w) == la::sync::WaitResult::kWoken);
      done.fetch_add(1, std::memory_order_release);
    });
  }
  while (baton.load(std::memory_order_acquire) != kThreads) {
    std::this_thread::yield();
  }
  CHECK(q.waiters() == kThreads);

  std::uint64_t last = 0;
  for (std::uint32_t i = 0; i < kThreads; ++i) {
    const std::uint64_t granted = q.wake_one();
    CHECK(granted != 0);
    CHECK(granted > last);  // strictly ascending = oldest-first
    last = granted;
  }
  for (auto& t : threads) t.join();
  CHECK(done.load(std::memory_order_acquire) == kThreads);
  CHECK(q.waiters() == 0);
  CHECK(q.wake_one() == 0);  // empty queue: the no-waiter fast path
}

// --- handoff (front re-entry) and grant conservation ---------------------

void test_handoff_and_cancel() {
  current = "handoff_cancel";
  la::sync::WaitQueue q;

  // front=true jumps the queue: b is granted before a despite b's later
  // (larger) ticket.
  {
    la::sync::WaitQueue::Waiter a;
    la::sync::WaitQueue::Waiter b;
    q.prepare_wait(a);
    q.prepare_wait(b, /*front=*/true);
    CHECK(b.ticket() > a.ticket());
    CHECK(q.wake_one() == b.ticket());
    CHECK(q.wake_one() == a.ticket());
    // Already granted: commit_wait returns immediately, no park.
    CHECK(q.commit_wait(a) == la::sync::WaitResult::kWoken);
    CHECK(q.commit_wait(b) == la::sync::WaitResult::kWoken);
    CHECK(q.waiters() == 0);
  }

  // cancel_wait before any grant: the queue forgets the waiter entirely.
  {
    la::sync::WaitQueue::Waiter w;
    q.prepare_wait(w);
    q.cancel_wait(w);
    CHECK(q.waiters() == 0);
    CHECK(q.wake_one() == 0);
  }

  // cancel_wait *after* a grant re-donates it: b still gets woken even
  // though the wake_one() grant landed on a first.
  {
    la::sync::WaitQueue::Waiter a;
    la::sync::WaitQueue::Waiter b;
    q.prepare_wait(a);
    q.prepare_wait(b);
    CHECK(q.wake_one() == a.ticket());
    q.cancel_wait(a);  // a no longer wants it -> re-donated to b
    CHECK(q.commit_wait(b) == la::sync::WaitResult::kWoken);
    CHECK(q.waiters() == 0);
  }
}

// --- timed expiry --------------------------------------------------------

void test_timed_expiry() {
  current = "timed_expiry";
  la::sync::WaitQueue q;
  la::sync::WaitQueue::Waiter w;
  constexpr std::uint64_t kDeadlineNs = 50'000'000;  // 50ms
  q.prepare_wait(w);
  const std::uint64_t t0 = now_ns();
  const auto r = q.commit_wait(w, t0 + kDeadlineNs);
  const std::uint64_t elapsed = now_ns() - t0;
  CHECK(r == la::sync::WaitResult::kTimedOut);
  // Not early (the absolute deadline is a floor) and not wildly late
  // (generous ceiling for loaded CI machines).
  CHECK(elapsed >= kDeadlineNs - 2'000'000);
  CHECK(elapsed < 5'000'000'000ull);
  // The timeout unlinked the waiter: nothing left to grant.
  CHECK(q.waiters() == 0);
  CHECK(q.wake_one() == 0);
}

// --- SIGUSR1 bombardment of a timed futex park ---------------------------

std::atomic<std::uint64_t> g_signals{0};
extern "C" void on_sigusr1(int) {
  g_signals.fetch_add(1, std::memory_order_relaxed);
}

void test_signal_bombardment() {
  current = "signal_bombardment";
#if defined(__unix__) || defined(__APPLE__)
  struct sigaction sa = {};
  sa.sa_handler = on_sigusr1;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART: every delivery EINTRs
  struct sigaction old = {};
  CHECK(::sigaction(SIGUSR1, &sa, &old) == 0);

  constexpr std::uint64_t kParkNs = 250'000'000;  // 250ms
  la::sync::FutexWord word;
  std::atomic<bool> parked{false};
  std::atomic<bool> finished{false};
  la::sync::WaitResult result = la::sync::WaitResult::kWoken;
  std::uint64_t elapsed = 0;

  std::thread waiter([&] {
    const std::uint32_t seen = word.prepare_wait();
    const std::uint64_t t0 = now_ns();
    parked.store(true, std::memory_order_release);
    result = word.commit_wait_for(seen, kParkNs);
    elapsed = now_ns() - t0;
    finished.store(true, std::memory_order_release);
  });

  while (!parked.load(std::memory_order_acquire)) std::this_thread::yield();
  // Storm the parked thread for up to ~1s; stop as soon as it returns.
  const std::uint64_t storm_until = now_ns() + 1'000'000'000ull;
  while (!finished.load(std::memory_order_acquire) &&
         now_ns() < storm_until) {
#if defined(__unix__) || defined(__APPLE__)
    ::pthread_kill(waiter.native_handle(), SIGUSR1);
#endif
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  waiter.join();
  CHECK(::sigaction(SIGUSR1, &old, nullptr) == 0);

  // Nobody signalled the word: the park must end in a timeout...
  CHECK(result == la::sync::WaitResult::kTimedOut);
  // ...at the absolute deadline: not cut short by an EINTR (early), and
  // not restarted per delivery (a relative-timeout loop under a 5ms
  // storm would ride well past the storm window).
  CHECK(elapsed >= kParkNs - 2'000'000);
  CHECK(elapsed < 800'000'000ull);
  // The storm actually interrupted the wait (sanity: the scenario ran).
  CHECK(g_signals.load(std::memory_order_relaxed) >= 3);
#endif
}

// --- oversubscribed churn past the 32-bit wake-bit wrap ------------------

void test_oversub_churn() {
  current = "oversub_churn";
  constexpr std::uint32_t kThreads = 6;
  constexpr std::uint32_t kParksPerThread = 12;  // 72 tickets: bits wrap
  la::sync::WaitQueue q;
  std::atomic<std::uint32_t> remaining{kThreads * kParksPerThread};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::uint32_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (std::uint32_t round = 0; round < kParksPerThread; ++round) {
        la::sync::WaitQueue::Waiter w;
        q.prepare_wait(w, /*front=*/(round & 1) != 0);  // mix both paths
        CHECK(q.commit_wait(w) == la::sync::WaitResult::kWoken);
        remaining.fetch_sub(1, std::memory_order_acq_rel);
      }
    });
  }
  // Grant one at a time until everyone has been through the queue the
  // full count. Liveness here *is* the assertion: a lost grant (bit
  // collision, handoff bug) would hang the loop, and the test's ctest
  // timeout turns that into a failure.
  while (remaining.load(std::memory_order_acquire) != 0) {
    if (q.wake_one() == 0) std::this_thread::yield();
  }
  for (auto& t : threads) t.join();
  CHECK(q.waiters() == 0);
  CHECK(q.tickets_issued() >= kThreads * kParksPerThread);
}

// --- the Dekker edge: one release racing one park ------------------------

constexpr std::uint32_t kDekkerRounds = 100'000;

// Spin 0..mask pauses, so the release and the park overlap differently
// from round to round (the waker's wider span lets either side arrive
// first).
void jitter(std::uint32_t& x, std::uint32_t mask) {
  x ^= x << 13;
  x ^= x >> 17;
  x ^= x << 5;
  for (std::uint32_t i = x & mask; i != 0; --i) la::sync::spin_pause();
}

// Round r: the waker publishes r (a release store, as a Free publishes
// capacity) and calls wake_one() once; the waiter prepare_waits,
// re-checks the flag, and commit_waits with no deadline only if it does
// not see r yet. Either wake_one sees the waiter counted and grants it,
// or the re-check sees the flag; a round that does neither sleeps
// forever. test_oversub_churn wakes until everyone is through, so it
// never tests this single-wake edge.
void test_dekker_edge() {
  current = "dekker_edge";
  la::sync::WaitQueue q;
  std::atomic<std::uint32_t> flag{0};
  std::atomic<std::uint32_t> start{0};  // round r may begin
  std::atomic<std::uint32_t> done{0};   // the waiter finished round r
  std::uint32_t slept = 0;              // waiter-owned until join

  std::thread waiter([&] {
    std::uint32_t x = 0x9e3779b9u;
    for (std::uint32_t r = 1; r <= kDekkerRounds; ++r) {
      la::sync::Backoff backoff;
      while (start.load(std::memory_order_acquire) != r) backoff.pause();
      jitter(x, 63);
      la::sync::WaitQueue::Waiter w;
      q.prepare_wait(w);
      if (flag.load(std::memory_order_acquire) >= r) {
        q.cancel_wait(w);
      } else {
        ++slept;
        CHECK(q.commit_wait(w) == la::sync::WaitResult::kWoken);
      }
      done.store(r, std::memory_order_release);
    }
  });

  std::uint32_t x = 0x85ebca6bu;
  std::uint32_t grants = 0;
  for (std::uint32_t r = 1; r <= kDekkerRounds; ++r) {
    la::sync::Backoff backoff;
    while (done.load(std::memory_order_acquire) != r - 1) backoff.pause();
    start.store(r, std::memory_order_release);
    jitter(x, 255);
    flag.store(r, std::memory_order_release);
    if (q.wake_one() != 0) ++grants;
  }
  waiter.join();
  // Every round that slept was woken by that round's one grant.
  CHECK(slept <= grants);
  CHECK(q.waiters() == 0);
  std::printf("dekker_edge: %u rounds, %u slept and were granted, %u saw "
              "the release on re-check (barrier: %s)\n",
              kDekkerRounds, slept, kDekkerRounds - slept,
              la::sync::asymmetric_fence_active() ? "membarrier" : "fence");
}

// The same stress in a fork()ed child of a process whose registration
// is already done. Runs before any thread starts, so the child is a
// single-threaded copy (ThreadSanitizer refuses threads after a
// multi-threaded fork).
void test_dekker_edge_after_fork() {
#if defined(__unix__) || defined(__APPLE__)
  la::sync::WaitQueue registered;  // registers the barrier before fork
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid == 0) {
    test_dekker_edge();
    std::fflush(stdout);
    std::fflush(stderr);
    ::_exit(failures == 0 ? 0 : 1);
  }
  current = "dekker_edge_fork";
  CHECK(pid > 0);
  int status = 0;
  CHECK(::waitpid(pid, &status, 0) == pid);
  CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0);
#endif
}

}  // namespace

int main() {
  test_dekker_edge_after_fork();
  test_fifo_order();
  test_handoff_and_cancel();
  test_timed_expiry();
  test_signal_bombardment();
  test_oversub_churn();
  test_dekker_edge();
  if (failures == 0) {
    std::printf("test_wait_queue: all checks passed\n");
    return 0;
  }
  std::printf("test_wait_queue: %d check(s) FAILED\n", failures);
  return 1;
}
