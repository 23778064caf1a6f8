// Asymmetric fence pair: the no-lost-wakeup barrier of the WaitQueue
// eventcount, split so the side that runs on every release pays almost
// nothing and the side that runs once per park pays the whole cost.
//
//   light_fence()  waker side (WaitQueue::wake_one / wake_all, i.e. the
//                  end of every sharded Free): a compiler-only barrier.
//                  No mfence, no store-buffer drain.
//   heavy_fence()  waiter side (WaitQueue::prepare_wait, once per park):
//                  membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED), which
//                  makes every CPU currently running a thread of this
//                  process execute a full barrier before the call
//                  returns.
//
// Why the pair keeps the eventcount's guarantee (the pairing argument of
// membarrier(2): the call upgrades the other threads' compiler barriers
// to full barriers). The waker runs
//
//   W1: publish capacity (release);  light_fence();  W2: load count_
//
// and the waiter runs
//
//   R1: count_.fetch_add (seq_cst);  heavy_fence();  R2: re-check capacity.
//
// The compiler barrier keeps W1 before W2 in the waker's instruction
// stream; the CPU may still let W2 pass W1 out of its store buffer. The
// membarrier interrupts the waker at some instruction boundary while
// heavy_fence runs (after R1 is globally visible, before R2 issues) and
// executes a full barrier there:
//
//   * boundary before W1: W2 runs after the barrier, hence after R1, and
//     sees the waiter counted, so the waker wakes it;
//   * boundary between W1 and W2, or after W2: the barrier drains W1
//     before heavy_fence returns, so R2 sees the capacity.
//
// A waker thread that is not on a CPU at that moment went through the
// scheduler since its last instruction, which is a full barrier too. So
// a release either sees the waiter's registration or is seen by the
// waiter's re-check, as with the waker's seq_cst fence it replaces.
//
// Which side pays: the waker pays one relaxed load of the mode word and
// a predicted branch; the waiter pays one syscall that interrupts the
// CPUs running this process (a few microseconds), on a path that is
// about to sleep anyway.
//
// Fallbacks. register_asymmetric_fence() asks the kernel once per
// process (MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED) and records the
// answer in the mode word; nothing else selects the barrier. If the
// kernel refuses, light_fence() is the seq_cst fence and heavy_fence()
// does nothing: exactly the protocol before this split, in which the
// waiter's side of the pair is its seq_cst count increment (as in
// FutexWord::prepare_wait). Model-checker (LEVELARRAY_VERIFY),
// ThreadSanitizer and non-Linux builds take that fallback at compile
// time, so the verify cells check the fence protocol as written and the
// TSan build compiles no fence beyond the waker's. A membarrier that
// fails after a successful registration aborts: the waker side is
// already running without a fence, so carrying on would lose wakeups.
//
// Soundness of the relaxed mode reads: the mode moves once, away from
// kUnknown, inside register_asymmetric_fence(), which the WaitQueue
// constructor calls. Every thread that touches a queue is ordered after
// its construction, so the waker and the waiter of one queue read the
// same final mode.
//
// Fork keeps both halves in step: the kernel copies the registration
// with the address space and the child inherits the mode word; exec
// drops both. test_wait_queue runs its Dekker stress in a forked child
// to show the registration survives (a lost one would abort).
//
// Shared words keep their fence: PRIVATE_EXPEDITED reaches only this
// process's threads, so a waker in another process (the svc doorbells,
// FutexWord with shared=true) would get no barrier. FutexWord::signal
// therefore stays on the symmetric seq_cst fence.
#pragma once

#include <atomic>

#include "sync/atomic_select.hpp"

#if defined(LEVELARRAY_VERIFY) || defined(__SANITIZE_THREAD__) || \
    !defined(__linux__)
#define LA_ASYMMETRIC_FENCE 0
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LA_ASYMMETRIC_FENCE 0
#endif
#endif
#if !defined(LA_ASYMMETRIC_FENCE)
#define LA_ASYMMETRIC_FENCE 1
#endif

#if LA_ASYMMETRIC_FENCE
#include <linux/membarrier.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#endif

namespace la::sync {

enum class FenceMode : int { kUnknown, kMembarrier, kSeqCst };

// Read on every release, written once per process: its own cache line,
// so no written word shares it.
alignas(64) inline std::atomic<FenceMode> fence_mode{FenceMode::kUnknown};

// Ask the kernel once per process whether the waiter side may use
// membarrier. Cold: called from WaitQueue's constructor, never from a
// release or park path.
[[gnu::cold, gnu::noinline]] inline void register_asymmetric_fence() {
#if LA_ASYMMETRIC_FENCE
  if (fence_mode.load(std::memory_order_acquire) != FenceMode::kUnknown) {
    return;
  }
  const bool ok = syscall(SYS_membarrier,
                          MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED, 0, 0) == 0;
  FenceMode expected = FenceMode::kUnknown;
  // The first answer wins; a racing caller that lost reads it back.
  fence_mode.compare_exchange_strong(
      expected, ok ? FenceMode::kMembarrier : FenceMode::kSeqCst,
      std::memory_order_acq_rel, std::memory_order_acquire);
#endif
}

// True when the waker side runs without a CPU fence (instrumentation
// and tests; the mode is decided by the kernel, not by a caller).
inline bool asymmetric_fence_active() {
  return fence_mode.load(std::memory_order_relaxed) == FenceMode::kMembarrier;
}

// Waker side: place between publishing capacity and reading the waiter
// count.
inline void light_fence() {
#if LA_ASYMMETRIC_FENCE
  if (fence_mode.load(std::memory_order_relaxed) == FenceMode::kMembarrier) {
    std::atomic_signal_fence(std::memory_order_seq_cst);
    return;
  }
#endif
  la::detail::atomic_thread_fence(std::memory_order_seq_cst);
}

// Waiter side: place between a seq_cst registration RMW and re-checking
// the condition. Without membarrier that RMW is the waiter's whole side.
[[gnu::cold, gnu::noinline]] inline void heavy_fence() {
#if LA_ASYMMETRIC_FENCE
  if (fence_mode.load(std::memory_order_relaxed) == FenceMode::kMembarrier &&
      syscall(SYS_membarrier, MEMBARRIER_CMD_PRIVATE_EXPEDITED, 0, 0) != 0) {
    std::fprintf(stderr,
                 "la::sync::heavy_fence: membarrier(PRIVATE_EXPEDITED) "
                 "failed after registration: %s\n",
                 std::strerror(errno));
    std::abort();
  }
#endif
}

}  // namespace la::sync
