// The rename-service daemon's server side: one worker thread drains
// every per-client request ring of a svc::Segment and applies the
// opcodes to one structure satisfying the api::Renamer contract (the
// registry fronts a scale::ShardedRenamer — its per-thread cache bins
// make the worker's Free->Get recycling a single RMW in steady state).
//
//   * A GetK that can grant nothing parks *server-side* on the worker's
//     pending list and is retried after every capacity release — the
//     client blocks on its response bell instead of spin-retrying
//     across the segment. (Sound because every harness keeps aggregate
//     demand within the contention bound; a request that could never be
//     satisfied would be a caller bug, answered at shutdown with
//     kShutdown.)
//   * Held names are accounted per client *process* in dense bitmaps
//     (pid-keyed): Frees validate against them, which is what turns a
//     foreign or double free into a protocol error instead of silent
//     corruption, and what makes crash reclaim exact. Only the worker
//     touches them, plus migrate() while the worker is parked at its
//     checkpoint, so they take no lock; an exchange costs one bitmap
//     pass and one structure call (Free-k: one free_batch).
//   * Crash reclaim: a claimed client slot whose owner is provably gone
//     is swept: every bitmap-held name is freed back to the structure,
//     its rings are reset empty, its pending entries dropped, and the
//     slot returns to the free pool. "Provably gone" is token-based, not
//     bare-pid-based: clients stamp (pid, kernel start time) at claim
//     (segment.hpp claim_token), and the sweep reclaims when the pid is
//     dead (kill(pid, 0) == ESRCH — the harness must waitpid first,
//     zombies still "exist") OR the pid's current start time no longer
//     matches the stamped token — a recycled pid keeps kill() happy but
//     cannot fake the original claimant's start time. Sweeps run on the
//     idle heartbeat (the doorbell park has a timeout) and on demand via
//     request_sweep().
//
// Idle waiting escalates like a client's response wait: spin, then
// yield (sync::Backoff), then the eventcount protocol on the segment's
// global doorbell: register, rescan every ring, only then sleep — a
// request pushed between the scan and the sleep bumps the word and the
// sleep returns immediately (see sync/futex.hpp). The spin tiers run only
// after a served request: they cover the gap between a client's
// consecutive exchanges, so a busy worker does not pay a futex wake per
// exchange whenever it outruns its clients, while an idle worker (at
// start-up, after its heartbeat) parks at once and leaves its CPU free.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/renamer.hpp"
#include "rng/rng.hpp"
#include "svc/segment.hpp"
#include "sync/spin_barrier.hpp"
#include "sync/spin_lock.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <errno.h>
#include <signal.h>
#include <unistd.h>
#endif

namespace la::svc {

struct ServerStats {
  std::uint64_t requests = 0;        // ring slots consumed
  std::uint64_t names_granted = 0;   // names handed out by GetK
  std::uint64_t names_freed = 0;     // names released by FreeK
  std::uint64_t pending_parked = 0;  // GetKs that went to the pending list
  std::uint64_t pending_expired = 0; // pending GetKs answered kTimedOut
  std::uint64_t idle_parks = 0;      // worker doorbell parks
  std::uint64_t reclaims = 0;        // dead clients swept
  std::uint64_t reclaimed_names = 0; // names recovered from dead clients
  std::uint64_t detaches = 0;
  std::uint64_t migrations = 0;      // drain-and-migrate cycles completed
};

template <typename Structure>
class Server {
  static_assert(api::is_renamer_v<Structure>,
                "svc::Server fronts the api::Renamer contract");

 public:
  // The server runs exactly one worker thread; `workers` must be 1.
  Server(SegmentView segment, Structure& structure,
         std::uint32_t workers = 1)
      : seg_(segment), structure_(structure) {
    if (workers != 1) {
      throw std::invalid_argument(
          "svc::Server: runs one worker thread, got workers=" +
          std::to_string(workers));
    }
  }

  ~Server() { stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Publish the structure's geometry, mark the segment ready, and launch
  // the worker. Call after fork()ing any client processes — the worker
  // thread must not exist across a fork.
  void start() {
    if (worker_.joinable()) return;
    Header& h = seg_.header();
    h.capacity.store(structure_.capacity(), std::memory_order_relaxed);
    h.total_slots.store(structure_.total_slots(), std::memory_order_relaxed);
    h.server_pid.store(this_pid(), std::memory_order_relaxed);
    hold_words_ = (structure_.total_slots() + 63) / 64;
    h.ready.store(1, std::memory_order_release);
    worker_ = std::thread([this] { worker_loop(); });
  }

  // Stop the worker (answering any parked GetKs with kShutdown) and mark
  // the segment shut down. Idempotent.
  void stop() {
    if (!worker_.joinable()) return;
    seg_.header().shutdown.store(1, std::memory_order_release);
    seg_.header().doorbell.signal();
    worker_.join();
  }

  // Ask the worker to run a dead-client sweep now and wait until it has
  // (the deterministic reclaim hook for same-process harnesses; the idle
  // heartbeat sweeps on its own every ~50ms otherwise). Returns without
  // a sweep once the segment is shut down: a worker that died on an
  // error sets shutdown and never sweeps again (see error()).
  void request_sweep() {
    const std::uint64_t target =
        sweeps_done_.load(std::memory_order_acquire) + 1;
    sweep_epoch_.fetch_add(1, std::memory_order_release);
    seg_.header().doorbell.signal();
    sync::Backoff backoff;
    while (sweeps_done_.load(std::memory_order_acquire) < target &&
           worker_.joinable() &&
           !seg_.header().shutdown.load(std::memory_order_acquire)) {
      backoff.pause();
    }
  }

  // Drain-and-migrate: quiesce the worker at its loop top (rings and
  // the pending list are *parked*, not dropped — a request pushed during
  // the pause is drained right after it), run fn(structure_) with
  // exclusive access to the structure, republish the possibly changed
  // geometry, and resume. fn is where the caller swaps shape — e.g.
  // save() the current impl, rebuild a differently configured one,
  // restore(), and ckpt::AnyRenamer::replace() — and the api::restore
  // name-identity contract is what keeps the per-pid held bitmaps and
  // every client's outstanding names valid across the swap. Clients
  // observe only latency: a worker already blocked in respond() to a
  // live client finishes that push before it reaches the checkpoint.
  // Call from one coordinating thread; not concurrent with stop().
  template <typename Fn>
  void migrate(Fn&& fn) {
    if (!worker_.joinable()) {
      // Not started: the caller owns the structure outright.
      fn(structure_);
      return;
    }
    const std::uint64_t target =
        migrate_checkins_.load(std::memory_order_acquire) + 1;
    migrating_.store(1, std::memory_order_release);
    seg_.header().doorbell.signal();
    sync::Backoff backoff;
    while (migrate_checkins_.load(std::memory_order_acquire) < target &&
           !seg_.header().shutdown.load(std::memory_order_acquire)) {
      backoff.pause();
    }
    fn(structure_);
    Header& h = seg_.header();
    h.capacity.store(structure_.capacity(), std::memory_order_relaxed);
    h.total_slots.store(structure_.total_slots(), std::memory_order_relaxed);
    // The held bitmaps are indexed by name; a grown name space needs
    // wider words. Never shrunk — adopted names already fit by the
    // restore contract, and stale high words are simply zero.
    const std::uint64_t words = (structure_.total_slots() + 63) / 64;
    if (words > hold_words_) hold_words_ = words;
    for (auto& held : holds_) {
      if (held.words.size() < hold_words_) {
        held.words.resize(static_cast<std::size_t>(hold_words_));
      }
    }
    migrations_.fetch_add(1, std::memory_order_relaxed);
    migrating_.store(0, std::memory_order_release);
  }

  ServerStats stats() const {
    ServerStats s;
    s.requests = requests_.load(std::memory_order_relaxed);
    s.names_granted = granted_.load(std::memory_order_relaxed);
    s.names_freed = freed_.load(std::memory_order_relaxed);
    s.pending_parked = pending_parked_.load(std::memory_order_relaxed);
    s.pending_expired = pending_expired_.load(std::memory_order_relaxed);
    s.idle_parks = idle_parks_.load(std::memory_order_relaxed);
    s.reclaims = reclaims_.load(std::memory_order_relaxed);
    s.reclaimed_names = reclaimed_names_.load(std::memory_order_relaxed);
    s.detaches = detaches_.load(std::memory_order_relaxed);
    s.migrations = migrations_.load(std::memory_order_relaxed);
    return s;
  }

  // The worker's error, empty if none (a throwing structure poisons the
  // run; harnesses assert on this).
  std::string error() const {
    sync::SpinLockGuard guard(error_lock_);
    return error_;
  }

 private:
  struct Pending {
    std::uint32_t ring = 0;
    std::uint32_t pid = 0;
    std::uint32_t want = 0;
    std::uint64_t deadline_ns = 0;  // 0 = park until capacity/shutdown
  };

  // --- per-pid held bitmaps (few pids, O(1) bit ops) -----------------
  //
  // No lock: the worker is their only user, except migrate(), which
  // widens them while the worker is parked at its checkpoint. The
  // worker's releasing check-in and the coordinator's releasing
  // migrating_ clear (each read with acquire on the other side) order
  // that hand-off in both directions.

  struct PidHolds {
    std::uint32_t pid = 0;
    std::vector<std::uint64_t> words;
  };

  PidHolds& holds_for(std::uint32_t pid) {
    for (auto& h : holds_) {
      if (h.pid == pid) return h;
    }
    holds_.push_back(PidHolds{pid, std::vector<std::uint64_t>(
                                       static_cast<std::size_t>(hold_words_))});
    return holds_.back();
  }

  // Clears pid's bits for names[0..count) up to the first name pid does
  // not hold; returns how many it cleared. `stop` classes that name:
  // kOutOfRange, kForeign (another pid holds it) or kNotHeld (no bitmap
  // does; the structure has the last word). kOk when none is left.
  std::uint32_t clear_holds(std::uint32_t pid, const std::uint64_t* names,
                            std::uint32_t count, std::uint64_t total_slots,
                            Status& stop) {
    PidHolds& h = holds_for(pid);
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint64_t name = names[i];
      if (name >= total_slots) {
        stop = Status::kOutOfRange;
        return i;
      }
      const std::uint64_t bit = std::uint64_t{1} << (name & 63);
      if ((h.words[name >> 6] & bit) != 0) {
        h.words[name >> 6] &= ~bit;
        continue;
      }
      stop = Status::kNotHeld;
      for (const auto& other : holds_) {
        if (other.pid != pid && (other.words[name >> 6] & bit) != 0) {
          stop = Status::kForeign;
          break;
        }
      }
      return i;
    }
    stop = Status::kOk;
    return count;
  }

  std::vector<std::uint64_t> drain_holds(std::uint32_t pid) {
    std::vector<std::uint64_t> names;
    for (auto& h : holds_) {
      if (h.pid != pid) continue;
      for (std::size_t w = 0; w < h.words.size(); ++w) {
        std::uint64_t word = h.words[w];
        while (word != 0) {
          const int bit = __builtin_ctzll(word);
          word &= word - 1;
          names.push_back((static_cast<std::uint64_t>(w) << 6) |
                          static_cast<std::uint64_t>(bit));
        }
        h.words[w] = 0;
      }
    }
    return names;
  }

  // --- response push --------------------------------------------------

  template <typename Fill>
  bool respond(std::uint32_t r, Fill&& fill) {
    ClientSlot& cs = seg_.client_slot(r);
    auto ring = seg_.response_ring(r);
    const std::uint32_t pos = cs.resp_tail.load(std::memory_order_relaxed);
    sync::Backoff backoff;
    ResponseSlot* slot;
    while ((slot = ring.try_begin_push(pos)) == nullptr) {
      // Ring full: the client is not consuming. Either it is slow
      // (yield and retry) or it died mid-exchange (drop the response;
      // the sweep will reclaim the slot).
      if (backoff.should_park()) {
        if (!pid_alive(cs.pid.load(std::memory_order_relaxed))) return false;
        backoff.reset();
      }
      backoff.pause();
    }
    fill(*slot);
    ring.commit_push(*slot, pos);
    cs.resp_tail.store(pos + 1, std::memory_order_relaxed);
    cs.resp_bell.signal();
    return true;
  }

  // A reply that carries no names: a status, plus the released count of
  // a Free and the index of the name it stopped at.
  bool respond_status(std::uint32_t r, Status status,
                      std::uint32_t count = 0,
                      std::uint32_t error_index = 0) {
    return respond(r, [&](ResponseSlot& out) {
      out.status = status;
      out.count = count;
      out.error_index = error_index;
      out.more = 0;
    });
  }

  // --- opcode handlers ------------------------------------------------

  template <typename Rng>
  bool try_grant(std::uint32_t r, std::uint32_t pid, std::uint32_t want,
                 Rng& rng) {
    GetResult got[kMaxBatch];
    const std::size_t granted = api::get_batch(
        structure_, rng, got, static_cast<std::size_t>(want));
    if (granted == 0) return false;
    PidHolds& h = holds_for(pid);
    for (std::size_t i = 0; i < granted; ++i) {
      h.words[got[i].name >> 6] |= std::uint64_t{1} << (got[i].name & 63);
    }
    granted_.fetch_add(granted, std::memory_order_relaxed);
    respond(r, [&](ResponseSlot& out) {
      out.status = Status::kOk;
      out.count = static_cast<std::uint32_t>(granted);
      out.error_index = 0;
      out.more = 0;
      for (std::size_t i = 0; i < granted; ++i) {
        out.names[i] = got[i].name;
        out.probes[i] = got[i].probes;
      }
    });
    return true;
  }

  // Frees names[0..count) in order, stopping at the first bad name with
  // its index and class. Returns how many were actually released.
  std::uint64_t handle_free(std::uint32_t r, std::uint32_t pid,
                            const std::uint64_t* names,
                            std::uint32_t count) {
    const std::uint64_t total_slots = structure_.total_slots();
    Status status = Status::kOk;
    std::uint32_t i = 0;
    while (i < count) {
      const std::uint32_t held =
          clear_holds(pid, names + i, count - i, total_slots, status);
      if (held != 0) api::free_batch(structure_, names + i, held);
      i += held;
      if (status != Status::kNotHeld) break;
      // Nobody's bitmap holds it: let the structure classify (its free
      // is guaranteed to throw — every grant marks a bitmap first).
      try {
        structure_.free(names[i]);
        ++i;  // untracked-but-held: corruption upstream, but freed
        status = Status::kOk;
      } catch (const std::out_of_range&) {
        status = Status::kOutOfRange;
        break;
      } catch (const std::logic_error&) {
        break;
      }
    }
    const std::uint32_t released = i;  // every name before the stop
    freed_.fetch_add(released, std::memory_order_relaxed);
    respond_status(r, status, released, status == Status::kOk ? 0 : i);
    return released;
  }

  void handle_collect(std::uint32_t r) {
    std::vector<std::uint64_t> held;
    structure_.collect(held);
    std::size_t sent = 0;
    do {
      const std::size_t chunk =
          held.size() - sent < kMaxBatch ? held.size() - sent : kMaxBatch;
      const bool last = sent + chunk == held.size();
      if (!respond(r, [&](ResponseSlot& out) {
            out.status = Status::kOk;
            out.count = static_cast<std::uint32_t>(chunk);
            out.error_index = 0;
            out.more = last ? 0 : 1;
            for (std::size_t i = 0; i < chunk; ++i) {
              out.names[i] = held[sent + i];
            }
          })) {
        return;  // client died mid-stream; sweep reclaims
      }
      sent += chunk;
    } while (sent < held.size());
  }

  // --- the worker loop ------------------------------------------------

  template <typename Rng>
  std::size_t drain_ring(std::uint32_t r, Rng& rng,
                         std::vector<Pending>& pending, bool& released) {
    ClientSlot& cs = seg_.client_slot(r);
    auto ring = seg_.request_ring(r);
    std::size_t processed = 0;
    for (;;) {
      const std::uint32_t pos = cs.req_head.load(std::memory_order_relaxed);
      RequestSlot* req = ring.try_begin_pop(pos);
      if (req == nullptr) break;
      // Copy the payload out before recycling the slot back.
      const std::uint32_t pid = req->pid;
      const Op op = req->op;
      std::uint32_t count = req->count;
      const std::uint64_t deadline_ns = req->deadline_ns;
      if (count > kMaxBatch) count = kMaxBatch;
      std::uint64_t names[kMaxBatch];
      if (op == Op::kFreeK) {
        std::memcpy(names, req->names, sizeof(std::uint64_t) * count);
      }
      ring.commit_pop(*req, pos);
      cs.req_head.store(pos + 1, std::memory_order_relaxed);
      ++processed;
      requests_.fetch_add(1, std::memory_order_relaxed);
      switch (op) {
        case Op::kGetK:
          if (!try_grant(r, pid, count, rng)) {
            if (deadline_ns != 0 &&
                sync::FutexWord::monotonic_now_ns() >= deadline_ns) {
              // Already expired on arrival (e.g. queued behind a slow
              // drain): refuse immediately rather than park for nothing.
              expire(r);
            } else {
              pending.push_back(Pending{r, pid, count, deadline_ns});
              pending_parked_.fetch_add(1, std::memory_order_relaxed);
            }
          }
          break;
        case Op::kFreeK:
          if (handle_free(r, pid, names, count) != 0) released = true;
          break;
        case Op::kCollect:
          // collect() drains the per-thread caches, which can release
          // gate capacity the pending list is waiting on.
          handle_collect(r);
          released = true;
          break;
        case Op::kDetach:
          detaches_.fetch_add(1, std::memory_order_relaxed);
          break;
        case Op::kNop:
          break;
      }
    }
    return processed;
  }

  template <typename Rng>
  void retry_pending(std::vector<Pending>& pending, Rng& rng) {
    for (std::size_t i = 0; i < pending.size();) {
      if (try_grant(pending[i].ring, pending[i].pid, pending[i].want, rng)) {
        pending[i] = pending.back();
        pending.pop_back();
      } else {
        ++i;
      }
    }
  }

  // The timed-out refusal for one parked GetK.
  void expire(std::uint32_t r) {
    pending_expired_.fetch_add(1, std::memory_order_relaxed);
    respond_status(r, Status::kTimedOut);
  }

  // Answer every pending GetK whose deadline has passed with kTimedOut,
  // and every GetK for zero names (no retry grants it more) with kOk.
  // Runs after retry_pending so a request whose capacity arrived in the
  // same iteration is granted, not expired.
  void expire_pending(std::vector<Pending>& pending) {
    if (pending.empty()) return;
    const std::uint64_t now = sync::FutexWord::monotonic_now_ns();
    for (std::size_t i = 0; i < pending.size();) {
      if (pending[i].want == 0) {
        respond_status(pending[i].ring, Status::kOk);
        pending[i] = pending.back();
        pending.pop_back();
      } else if (pending[i].deadline_ns != 0 &&
                 now >= pending[i].deadline_ns) {
        expire(pending[i].ring);
        pending[i] = pending.back();
        pending.pop_back();
      } else {
        ++i;
      }
    }
  }

  // Nanoseconds until the earliest pending deadline, clamped to the idle
  // heartbeat — so an expiry parked server-side is answered on time, not
  // at the next 50ms tick.
  std::uint64_t idle_park_ns(const std::vector<Pending>& pending) const {
    std::uint64_t park = 50'000'000ull;  // the liveness-sweep heartbeat
    if (pending.empty()) return park;
    const std::uint64_t now = sync::FutexWord::monotonic_now_ns();
    for (const auto& p : pending) {
      if (p.deadline_ns == 0) continue;
      const std::uint64_t left =
          p.deadline_ns > now ? p.deadline_ns - now : 1;
      if (left < park) park = left;
    }
    return park;
  }

  // Sweep the dead clients among the claimed rings.
  void sweep(std::vector<Pending>& pending, bool& released) {
    const std::uint32_t self = this_pid();
    for (std::uint32_t r = 0; r < seg_.config().max_clients; ++r) {
      ClientSlot& cs = seg_.client_slot(r);
      if (cs.state.load(std::memory_order_acquire) != ClientSlot::kClaimed) {
        continue;
      }
      const std::uint32_t pid = cs.pid.load(std::memory_order_acquire);
      if (pid == 0 || pid == self) continue;
      // Liveness is (pid, claim token), not bare pid: kill(pid, 0)
      // cannot tell the claimant from an unrelated process that was
      // assigned the recycled pid later, but the recycled process's
      // kernel start time differs from the one the claimant stamped at
      // claim. Token 0 (stamp unavailable) degrades to pid-only.
      if (pid_alive(pid)) {
        const std::uint64_t token =
            cs.claim_token.load(std::memory_order_acquire);
        if (token == 0 || token == pid_start_time(pid)) continue;
      }
      // Dead mid-hold: recover every name its bitmap still holds, then
      // reset the rings (the producer is provably gone, so half-written
      // requests are discarded wholesale) and free the slot.
      const auto names = drain_holds(pid);
      if (!names.empty()) {
        api::free_batch(structure_, names.data(), names.size());
        released = true;
      }
      for (std::size_t i = 0; i < pending.size();) {
        if (pending[i].ring == r) {
          pending[i] = pending.back();
          pending.pop_back();
        } else {
          ++i;
        }
      }
      const std::uint32_t req_head =
          cs.req_head.load(std::memory_order_relaxed);
      seg_.request_ring(r).reset_empty_at(req_head);
      cs.req_tail.store(req_head, std::memory_order_relaxed);
      const std::uint32_t resp_tail =
          cs.resp_tail.load(std::memory_order_relaxed);
      seg_.response_ring(r).reset_empty_at(resp_tail);
      cs.resp_head.store(resp_tail, std::memory_order_relaxed);
      cs.pid.store(0, std::memory_order_relaxed);
      cs.claim_token.store(0, std::memory_order_relaxed);
      cs.state.store(ClientSlot::kFree, std::memory_order_release);
      reclaims_.fetch_add(1, std::memory_order_relaxed);
      reclaimed_names_.fetch_add(names.size(), std::memory_order_relaxed);
    }
  }

  void worker_loop() {
    rng::MarsagliaXorshift rng(rng::mix_seed(0x53564300ull, 1));
    std::vector<Pending> pending;
    std::uint64_t seen_sweep_epoch = 0;
    // Spin tiers before a park, armed only by a served request: a worker
    // that has seen no request since its last park parks at once.
    sync::Backoff idle_backoff;
    bool serving = false;
    Header& h = seg_.header();
    try {
      for (;;) {
        bool released = false;
        if (migrating_.load(std::memory_order_acquire)) {
          // Migration checkpoint: check in once, then hold at the loop
          // top — no ring is mid-drain, no response is mid-push — until
          // the coordinator swaps the structure and releases us. The
          // pending list is parked untouched; `released` below retries
          // it against the new shape (a migration usually grows
          // capacity, so parked GetKs may now be grantable).
          migrate_checkins_.fetch_add(1, std::memory_order_release);
          sync::Backoff migrate_backoff;
          while (migrating_.load(std::memory_order_acquire) &&
                 !h.shutdown.load(std::memory_order_acquire)) {
            migrate_backoff.pause();
          }
          released = true;
        }
        std::size_t processed = 0;
        for (std::uint32_t r = 0; r < seg_.config().max_clients; ++r) {
          processed += drain_ring(r, rng, pending, released);
        }
        const std::uint64_t epoch =
            sweep_epoch_.load(std::memory_order_acquire);
        if (epoch != seen_sweep_epoch) {
          seen_sweep_epoch = epoch;
          sweep(pending, released);
          sweeps_done_.fetch_add(1, std::memory_order_release);
        }
        if (released) retry_pending(pending, rng);
        expire_pending(pending);
        if (h.shutdown.load(std::memory_order_acquire)) break;
        if (processed != 0) {
          serving = true;
          idle_backoff.reset();
          continue;
        }
        if (serving && !idle_backoff.should_park()) {
          idle_backoff.pause();
          continue;
        }
        serving = false;
        // Idle: eventcount on the doorbell. The re-check between
        // prepare and commit is a full rescan of the rings; the timed
        // sleep doubles as the liveness-sweep heartbeat.
        const std::uint32_t seen = h.doorbell.prepare_wait();
        bool nonempty = false;
        for (std::uint32_t r = 0; r < seg_.config().max_clients; ++r) {
          ClientSlot& cs = seg_.client_slot(r);
          if (seg_.request_ring(r).try_begin_pop(
                  cs.req_head.load(std::memory_order_relaxed)) != nullptr) {
            nonempty = true;
            break;
          }
        }
        if (nonempty || h.shutdown.load(std::memory_order_acquire) ||
            migrating_.load(std::memory_order_acquire)) {
          // (migrating_ here keeps a worker that raced past the
          // coordinator's doorbell signal from sleeping out the whole
          // heartbeat while the migration waits on its checkin.)
          h.doorbell.cancel_wait();
          continue;
        }
        bool swept_released = false;
        sweep(pending, swept_released);
        if (swept_released) {
          h.doorbell.cancel_wait();
          retry_pending(pending, rng);
          continue;
        }
        idle_parks_.fetch_add(1, std::memory_order_relaxed);
        // The 50ms sweep heartbeat, shortened to the nearest pending
        // deadline so expiries are answered on time.
        h.doorbell.commit_wait_for(seen, idle_park_ns(pending));
      }
    } catch (const std::exception& e) {
      {
        sync::SpinLockGuard guard(error_lock_);
        if (error_.empty()) error_ = e.what();
      }
      h.shutdown.store(1, std::memory_order_release);
      h.doorbell.signal();
    }
    // Anyone still parked server-side gets a definitive no.
    for (const auto& p : pending) respond_status(p.ring, Status::kShutdown);
  }

  SegmentView seg_;
  Structure& structure_;
  std::uint64_t hold_words_ = 0;

  std::vector<PidHolds> holds_;  // no lock: see the held-bitmaps note

  mutable sync::SpinLock error_lock_;
  std::string error_;

  std::atomic<std::uint64_t> sweep_epoch_{0};
  std::atomic<std::uint64_t> sweeps_done_{0};
  std::atomic<std::uint32_t> migrating_{0};
  std::atomic<std::uint64_t> migrate_checkins_{0};
  std::atomic<std::uint64_t> migrations_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> granted_{0};
  std::atomic<std::uint64_t> freed_{0};
  std::atomic<std::uint64_t> pending_parked_{0};
  std::atomic<std::uint64_t> pending_expired_{0};
  std::atomic<std::uint64_t> idle_parks_{0};
  std::atomic<std::uint64_t> reclaims_{0};
  std::atomic<std::uint64_t> reclaimed_names_{0};
  std::atomic<std::uint64_t> detaches_{0};
  std::thread worker_;  // last: it uses every member above
};

}  // namespace la::svc
