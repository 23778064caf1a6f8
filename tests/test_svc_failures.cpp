// Failure modes of the rename-service daemon, with real processes:
//
//   * Server death mid-request — a client whose server was SIGKILLed
//     (shutdown flag never set) must NOT re-park forever: the timed
//     response park expires, the probe of the published server pid
//     fails, and the exchange surfaces a distinct "server process died"
//     runtime_error. Before the probe existed the client wedged
//     indefinitely here.
//   * pid-reuse reclaim — the dead-client sweep compares the claim
//     generation token (the claimant's kernel start time) against the
//     pid's *current* owner, so a slot whose pid is alive but whose
//     token no longer matches is provably a recycled pid and is
//     reclaimed. Forging the token of a live holder simulates exactly
//     that; before token comparison a recycled pid kept the slot (and
//     its names) leaked forever. Negative controls: a matching token
//     and a zero token (stamp unavailable) must both keep the slot.
//
//   * Wire error contract of Free-k — a batch with a bad name in the
//     middle answers with the bad name's class and index, and releases
//     exactly the prefix before it: out of range -> kOutOfRange, a
//     duplicate inside the batch -> kNotHeld, a name another pid holds
//     -> kForeign. A name the structure holds but no pid's bitmap does
//     (upstream corruption) is released and the walk goes on past it.
//     Driven over a raw ring so every request can carry any pid and the
//     whole response (status, error_index, released count) is visible;
//     svc::Client folds it into an exception. On the same ring, a GetK
//     for zero names is answered at once (kOk, none) instead of waiting
//     on the pending list until shutdown.
//
//   * Worker death and request_sweep — a structure that throws inside
//     the worker kills it (error() set, segment shut down); a later
//     request_sweep() must return rather than wait for a sweep the dead
//     worker will never run. A hang here is caught by the ctest TIMEOUT.
//   * One worker — a Server's worker count must be 1; any other value
//     throws std::invalid_argument instead of starting that many.
//   * Segment version check — a Client refuses (runtime_error) to attach
//     to a segment whose magic or layout version is not its own, rather
//     than misread a differently laid out ClientSlot table.
//   * Wait counters — the client tallies spin rounds locally and
//     publishes them once per wait. A fake server built from raw slot
//     accesses holds responses back to prove no round is dropped: short
//     holds that end in the spin tier, and a hold through the park tier
//     whose rounds must be visible *while* the client is parked.
//
// Fork choreography (same rules as test_svc_reclaim): every child is
// forked before any thread exists in the parent; the holder child blocks
// in the Client ctor until its segment's server publishes ready.
#include <sys/types.h>
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/level_array.hpp"
#include "rng/rng.hpp"
#include "scale/sharded.hpp"
#include "svc/client.hpp"
#include "svc/segment.hpp"
#include "svc/server.hpp"
#include "sync/spin_barrier.hpp"

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

constexpr std::uint64_t kCapacity = 64;
constexpr std::uint64_t kHolderHolds = 6;
constexpr std::uint64_t kCollectCapacity = 512;

// The death-test server child: serve segment A until SIGKILLed.
[[noreturn]] void server_child(la::svc::SegmentView seg) {
  la::core::LevelArrayConfig cfg;
  cfg.capacity = kCapacity;
  la::core::LevelArray structure(cfg);
  la::svc::Server<la::core::LevelArray> server(seg, structure);
  server.start();
  for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

// The collect-test server child: seed most of the array before serving,
// so every kCollect response streams many chunks; then serve segment C
// until SIGKILLed.
[[noreturn]] void collect_server_child(la::svc::SegmentView seg) {
  la::core::LevelArrayConfig cfg;
  cfg.capacity = kCollectCapacity;
  la::core::LevelArray structure(cfg);
  const std::uint32_t batches = structure.geometry().num_batches();
  for (std::uint32_t k = 0; k < batches; ++k) {
    (void)structure.seed_batch_occupancy(
        k, structure.geometry().batch(k).size() * 7 / 8);
  }
  la::svc::Server<la::core::LevelArray> server(seg, structure);
  server.start();
  for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

// The token-test holder child: claim a ring on segment B, hold names,
// announce via scratch[0], and park until SIGKILLed. It stays *alive*
// through the sweeps — only the forged token may condemn it.
[[noreturn]] void holder_child(la::svc::SegmentView seg) {
  la::svc::Client client(seg);
  la::rng::MarsagliaXorshift rng(17);
  std::vector<la::GetResult> got(kHolderHolds);
  std::size_t have = 0;
  la::sync::Backoff backoff;
  while (have < kHolderHolds) {
    have += client.get_batch(rng, got.data() + have, kHolderHolds - have);
    if (have < kHolderHolds) backoff.pause();
  }
  seg.header().scratch[0].store(have, std::memory_order_release);
  for (;;) std::this_thread::yield();
}

void test_server_death(la::svc::SegmentView seg, pid_t server_pid) {
  current = "server_death";
  la::svc::Client client(seg);  // blocks until the child publishes ready
  la::rng::MarsagliaXorshift rng(5);

  // Round trip while the server lives: the wire works.
  la::GetResult r = client.get(rng);
  CHECK(r.name < client.total_slots());
  client.free(r.name);

  // SIGKILL sets no shutdown flag; reap so the pid probe sees ESRCH
  // (a zombie still "exists" to kill(pid, 0)).
  CHECK(::kill(server_pid, SIGKILL) == 0);
  int status = 0;
  CHECK(::waitpid(server_pid, &status, 0) == server_pid);
  CHECK(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  bool threw = false;
  try {
    (void)client.get(rng);
  } catch (const std::runtime_error& e) {
    threw = true;
    CHECK(std::string(e.what()).find("server process died") !=
          std::string::npos);
  }
  CHECK(threw);
}

// The streaming-collect regression: a server SIGKILLed between the
// chunks of a multi-chunk kCollect stream must surface as the same
// "server process died" error, not a wedge — every response wait in the
// stream (and the request push behind it) arms the liveness probe. The
// server child pre-seeds most of its array so each collect streams many
// kMaxBatch-sized chunks, widening the between-chunks window the kill
// lands in.
void test_server_death_mid_collect(la::svc::SegmentView seg,
                                   pid_t server_pid) {
  current = "server_death_mid_collect";

  std::atomic<std::uint64_t> first_collect{0};
  std::string error;
  std::thread collector([&] {
    try {
      la::svc::Client client(seg);  // blocks until the child is ready
      std::vector<std::uint64_t> names;
      const std::size_t found = client.collect(names);
      first_collect.store(found, std::memory_order_release);
      for (;;) {
        names.clear();
        (void)client.collect(names);
      }
    } catch (const std::runtime_error& e) {
      error = e.what();
      if (first_collect.load(std::memory_order_acquire) == 0) {
        first_collect.store(1, std::memory_order_release);  // unblock main
      }
    }
  });

  // Wait for one whole streamed collect, let the loop run into another
  // stream, then kill the server with no shutdown flag and reap it.
  {
    la::sync::Backoff backoff;
    while (first_collect.load(std::memory_order_acquire) == 0) {
      backoff.pause();
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  CHECK(::kill(server_pid, SIGKILL) == 0);
  int status = 0;
  CHECK(::waitpid(server_pid, &status, 0) == server_pid);
  CHECK(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  collector.join();
  // The first collect proves the stream spanned several chunks; the
  // error proves the mid-stream death surfaced instead of wedging (the
  // ctest timeout is what would catch the wedge).
  CHECK(first_collect.load(std::memory_order_acquire) >
        2 * la::svc::kMaxBatch);
  CHECK(!error.empty());
  CHECK(error.find("server process died") != std::string::npos ||
        error.find("server shut down") != std::string::npos);
}

void test_forged_token(la::svc::SegmentView seg, pid_t holder_pid) {
  current = "forged_token";

  la::scale::ShardedConfig sharded;
  sharded.shards = 4;
  la::core::LevelArrayConfig level;
  level.capacity = kCapacity / sharded.shards;
  la::scale::ShardedRenamer<la::core::LevelArray> structure(
      sharded, [&level](std::uint32_t) {
        return std::make_unique<la::core::LevelArray>(level);
      });
  la::svc::Server<la::scale::ShardedRenamer<la::core::LevelArray>> server(
      seg, structure);
  server.start();

  // Wait until the holder provably holds names.
  {
    la::sync::Backoff backoff;
    while (seg.header().scratch[0].load(std::memory_order_acquire) == 0) {
      backoff.pause();
    }
  }
  CHECK(seg.header().scratch[0].load(std::memory_order_acquire) ==
        kHolderHolds);

  // Find the holder's claimed slot.
  la::svc::ClientSlot* slot = nullptr;
  for (std::uint32_t i = 0; i < seg.config().max_clients; ++i) {
    la::svc::ClientSlot& cs = seg.client_slot(i);
    if (cs.state.load(std::memory_order_acquire) ==
            la::svc::ClientSlot::kClaimed &&
        cs.pid.load(std::memory_order_acquire) ==
            static_cast<std::uint32_t>(holder_pid)) {
      slot = &cs;
      break;
    }
  }
  CHECK(slot != nullptr);
  if (slot == nullptr) {
    server.stop();
    return;
  }
  const std::uint64_t token =
      slot->claim_token.load(std::memory_order_acquire);
  CHECK(token != 0);  // Linux: the start-time stamp must be in place

  // Negative control 1: live pid + matching token -> kept.
  server.request_sweep();
  CHECK(server.stats().reclaims == 0);

  // Negative control 2: a zero token (stamp unavailable) degrades to
  // pid-only liveness -> a live pid is still kept.
  slot->claim_token.store(0, std::memory_order_release);
  server.request_sweep();
  CHECK(server.stats().reclaims == 0);

  // The forgery: a live pid whose current start time cannot match the
  // stamped token is exactly what a recycled pid looks like. The sweep
  // must reclaim the slot and recover every held name.
  slot->claim_token.store(token + 0x5EED, std::memory_order_release);
  server.request_sweep();
  const la::svc::ServerStats stats = server.stats();
  CHECK(stats.reclaims == 1);
  CHECK(stats.reclaimed_names == kHolderHolds);

  // Quiescence: nothing is held, and the full contention bound is
  // re-acquirable (a leaked name would cap this short).
  {
    std::vector<std::uint64_t> leftovers;
    CHECK(structure.collect(leftovers) == 0);
  }
  {
    la::svc::Client client(seg);
    la::rng::MarsagliaXorshift rng(23);
    std::vector<la::GetResult> got(kCapacity);
    std::size_t have = 0;
    la::sync::Backoff backoff;
    for (int attempts = 0; have < kCapacity && attempts < 200000;
         ++attempts) {
      have += client.get_batch(rng, got.data() + have, kCapacity - have);
      if (have < kCapacity) backoff.pause();
    }
    CHECK(have == kCapacity);
    for (std::size_t i = 0; i < have; ++i) client.free(got[i].name);
  }

  // The holder is parked on names that no longer exist for it; end it.
  CHECK(::kill(holder_pid, SIGKILL) == 0);
  int status = 0;
  CHECK(::waitpid(holder_pid, &status, 0) == holder_pid);
  CHECK(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  CHECK(server.error().empty());
  server.stop();
}

// One claimed ring driven slot by slot: every request carries the pid
// the caller names, and exchange() returns the whole response.
class RawPort {
 public:
  struct Reply {
    la::svc::Status status = la::svc::Status::kOk;
    std::uint32_t count = 0;
    std::uint32_t error_index = 0;
    std::vector<std::uint64_t> names;
  };

  explicit RawPort(la::svc::SegmentView seg) : seg_(seg) {
    for (ring_ = 0; ring_ < seg_.config().max_clients; ++ring_) {
      la::svc::ClientSlot& cs = seg_.client_slot(ring_);
      std::uint32_t expected = la::svc::ClientSlot::kFree;
      if (cs.state.compare_exchange_strong(expected,
                                           la::svc::ClientSlot::kClaimed)) {
        // Owned by this (live) process, so no sweep reclaims it.
        cs.pid.store(la::svc::this_pid(), std::memory_order_release);
        return;
      }
    }
    throw std::runtime_error("RawPort: no free client slot");
  }

  // One request, one response (kCollect: every chunk, names appended).
  Reply exchange(std::uint32_t pid, la::svc::Op op,
                 const std::uint64_t* names, std::uint32_t count) {
    la::svc::ClientSlot& cs = seg_.client_slot(ring_);
    auto requests = seg_.request_ring(ring_);
    const std::uint32_t tail = cs.req_tail.load(std::memory_order_relaxed);
    la::svc::RequestSlot* req;
    la::sync::Backoff backoff;
    while ((req = requests.try_begin_push(tail)) == nullptr) backoff.pause();
    req->pid = pid;
    req->op = op;
    req->count = count;
    req->deadline_ns = 0;
    for (std::uint32_t i = 0; i < count && names != nullptr; ++i) {
      req->names[i] = names[i];
    }
    requests.commit_push(*req, tail);
    cs.req_tail.store(tail + 1, std::memory_order_relaxed);
    seg_.header().doorbell.signal();

    Reply reply;
    auto responses = seg_.response_ring(ring_);
    for (bool more = true; more;) {
      const std::uint32_t head = cs.resp_head.load(std::memory_order_relaxed);
      la::svc::ResponseSlot* resp;
      backoff.reset();
      while ((resp = responses.try_begin_pop(head)) == nullptr) {
        backoff.pause();
      }
      reply.status = resp->status;
      reply.count = resp->count;
      reply.error_index = resp->error_index;
      if (op != la::svc::Op::kFreeK) {
        reply.names.insert(reply.names.end(), resp->names,
                           resp->names + resp->count);
      }
      more = resp->more != 0;
      responses.commit_pop(*resp, head);
      cs.resp_head.store(head + 1, std::memory_order_relaxed);
    }
    return reply;
  }

  // Grant exactly k names to `pid` (the gate may grant fewer per GetK).
  std::vector<std::uint64_t> get(std::uint32_t pid, std::uint32_t k) {
    std::vector<std::uint64_t> got;
    la::sync::Backoff backoff;
    while (got.size() < k) {
      const Reply reply =
          exchange(pid, la::svc::Op::kGetK, nullptr,
                   k - static_cast<std::uint32_t>(got.size()));
      got.insert(got.end(), reply.names.begin(), reply.names.end());
      if (got.size() < k) backoff.pause();
    }
    return got;
  }

  std::vector<std::uint64_t> collect() {
    std::vector<std::uint64_t> held =
        exchange(0, la::svc::Op::kCollect, nullptr, 0).names;
    std::sort(held.begin(), held.end());
    return held;
  }

 private:
  la::svc::SegmentView seg_;
  std::uint32_t ring_ = 0;
};

void test_free_wire_errors(la::svc::SegmentView seg) {
  current = "free_wire_errors";
  // Request-only pids, above any pid_max: the bitmaps key on them, the
  // sweep never sees them (it reads the ring owner's pid).
  constexpr std::uint32_t kPidA = 0x7000001;
  constexpr std::uint32_t kPidB = 0x7000002;
  constexpr std::uint32_t kBatch = 16;

  la::scale::ShardedConfig sharded;
  sharded.shards = 4;
  la::core::LevelArrayConfig level;
  level.capacity = kCapacity / sharded.shards;
  la::scale::ShardedRenamer<la::core::LevelArray> structure(
      sharded, [&level](std::uint32_t) {
        return std::make_unique<la::core::LevelArray>(level);
      });
  la::svc::Server<la::scale::ShardedRenamer<la::core::LevelArray>> server(
      seg, structure);
  server.start();

  RawPort port(seg);
  std::vector<std::uint64_t> a = port.get(kPidA, 3 * kBatch);
  const std::vector<std::uint64_t> b = port.get(kPidB, 1);
  std::vector<std::uint64_t> untracked;  // held by the structure alone
  std::uint64_t freed = 0;

  // Free-16 of A's oldest names with `bad` at `at`; expects `status` at
  // `at` when `stops`, else a clean kOk with the whole batch released.
  auto run = [&](const char* name, std::uint64_t bad, std::uint32_t at,
                 la::svc::Status status, bool stops) {
    current = std::string("free_wire_errors/") + name;
    std::vector<std::uint64_t> batch(a.begin(), a.begin() + kBatch);
    batch[at] = bad;
    const RawPort::Reply reply =
        port.exchange(kPidA, la::svc::Op::kFreeK, batch.data(), kBatch);
    const std::uint32_t released = stops ? at : kBatch;
    CHECK(reply.status == status);
    CHECK(reply.error_index == (stops ? at : 0));
    CHECK(reply.count == released);
    // Exactly the released names left A's holds (the bad one, when it
    // was A's own earlier name, went with the prefix).
    for (std::uint32_t i = 0; i < released; ++i) {
      const auto it = std::find(a.begin(), a.end(), batch[i]);
      if (it != a.end()) a.erase(it);
      const auto u = std::find(untracked.begin(), untracked.end(), batch[i]);
      if (u != untracked.end()) untracked.erase(u);
    }
    freed += released;
    CHECK(server.stats().names_freed == freed);
    std::vector<std::uint64_t> expect = a;
    expect.insert(expect.end(), b.begin(), b.end());
    expect.insert(expect.end(), untracked.begin(), untracked.end());
    std::sort(expect.begin(), expect.end());
    CHECK(port.collect() == expect);
  };

  const std::uint64_t total = seg.header().total_slots.load();
  run("out_of_range", total + 3, 7, la::svc::Status::kOutOfRange, true);
  run("duplicate", a[2], 9, la::svc::Status::kNotHeld, true);
  run("foreign", b[0], 5, la::svc::Status::kForeign, true);
  la::rng::MarsagliaXorshift rng(29);
  untracked.push_back(structure.get(rng).name);
  run("untracked_held", untracked[0], 4, la::svc::Status::kOk, false);

  // A GetK for zero names is answered at once, kOk and empty; it must
  // not wait on the pending list, where every retry grants 0 again.
  current = "zero_count_get";
  const RawPort::Reply zero =
      port.exchange(kPidA, la::svc::Op::kGetK, nullptr, 0);
  CHECK(zero.status == la::svc::Status::kOk);
  CHECK(zero.count == 0);
  CHECK(zero.names.empty());

  current = "free_wire_errors";
  CHECK(server.error().empty());
  server.stop();
}

// A LevelArray whose Get throws: the first GetK served kills the worker.
class ThrowingGet {
 public:
  template <typename Rng>
  la::GetResult get(Rng& /*rng*/) {
    throw std::runtime_error("ThrowingGet: injected get failure");
  }
  void free(std::uint64_t name) { inner_.free(name); }
  std::size_t collect(std::vector<std::uint64_t>& out) const {
    return inner_.collect(out);
  }
  std::uint64_t capacity() const { return inner_.capacity(); }
  std::uint64_t total_slots() const { return inner_.total_slots(); }

 private:
  la::core::LevelArray inner_{la::core::LevelArrayConfig{}};
};

void test_sweep_after_worker_error() {
  current = "sweep_after_worker_error";
  la::svc::SegmentConfig config;
  config.max_clients = 2;
  la::svc::Segment segment(config);
  ThrowingGet structure;
  la::svc::Server<ThrowingGet> server(segment.view(), structure);
  server.start();
  {
    la::svc::Client client(segment.view());
    la::rng::MarsagliaXorshift rng(31);
    bool threw = false;
    try {
      (void)client.get(rng);
    } catch (const std::runtime_error&) {
      threw = true;  // the server shut down mid-request
    }
    CHECK(threw);
  }
  CHECK(server.error().find("injected get failure") != std::string::npos);
  server.request_sweep();  // must return: the worker is gone
  CHECK(server.stats().reclaims == 0);
  server.stop();
}

// A segment with `ready` raised by hand and this (live) process as its
// server: enough for a Client to attach with no Server running.
void mark_ready(la::svc::SegmentView seg) {
  seg.header().server_pid.store(la::svc::this_pid(),
                                std::memory_order_release);
  seg.header().ready.store(1, std::memory_order_release);
}

void test_one_worker() {
  current = "one_worker";
  la::svc::SegmentConfig config;
  config.max_clients = 2;
  la::svc::Segment segment(config);
  la::core::LevelArrayConfig level;
  level.capacity = kCapacity;
  la::core::LevelArray structure(level);
  for (const std::uint32_t workers : {0u, 1u, 2u}) {
    bool threw = false;
    try {
      la::svc::Server<la::core::LevelArray> server(segment.view(), structure,
                                                   workers);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw == (workers != 1));
  }
}

void test_segment_version() {
  current = "segment_version";
  la::svc::SegmentConfig config;
  config.max_clients = 2;
  // The Client ctor's error for a segment altered by `corrupt`, or ""
  // when it attached.
  auto attach = [&](auto corrupt) -> std::string {
    la::svc::Segment segment(config);
    corrupt(segment.view().header());
    mark_ready(segment.view());
    try {
      la::svc::Client client(segment.view());
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  const std::string kMismatch = "magic/version mismatch";
  // Negative control: an untouched segment attaches.
  CHECK(attach([](la::svc::Header&) {}).empty());
  CHECK(attach([](la::svc::Header& h) { h.magic ^= 1; }).find(kMismatch) !=
        std::string::npos);
  CHECK(attach([](la::svc::Header& h) {
          h.version = la::svc::kSegmentVersion - 1;
        }).find(kMismatch) != std::string::npos);
}

void test_wait_counters() {
  current = "wait_counters";
  la::svc::SegmentConfig config;
  config.max_clients = 4;
  la::svc::Segment segment(config);
  const la::svc::SegmentView seg = segment.view();
  mark_ready(seg);  // a live server pid: expired parks re-park
  la::svc::Client client(seg);

  constexpr int kShortHolds = 16;
  // Set by the client before its held-to-park exchange; read by the fake
  // server once it has popped that request (the ring orders the two).
  std::atomic<std::uint64_t> rounds_before{0};
  std::atomic<std::uint64_t> parks_before{0};
  std::atomic<bool> rounds_seen_parked{false};

  // Pop the next request off whichever ring carries one.
  auto take = [&]() -> std::uint32_t {
    la::sync::Backoff backoff;
    for (;;) {
      for (std::uint32_t r = 0; r < config.max_clients; ++r) {
        la::svc::ClientSlot& cs = seg.client_slot(r);
        auto ring = seg.request_ring(r);
        const std::uint32_t pos = cs.req_head.load(std::memory_order_relaxed);
        if (la::svc::RequestSlot* req = ring.try_begin_pop(pos)) {
          ring.commit_pop(*req, pos);
          cs.req_head.store(pos + 1, std::memory_order_relaxed);
          return r;
        }
      }
      backoff.pause();
    }
  };
  // Answer ring r's oldest request kOk and ring its bell.
  auto answer = [&](std::uint32_t r) {
    la::svc::ClientSlot& cs = seg.client_slot(r);
    auto ring = seg.response_ring(r);
    const std::uint32_t pos = cs.resp_tail.load(std::memory_order_relaxed);
    la::svc::ResponseSlot* resp = ring.try_begin_push(pos);
    if (resp == nullptr) return;  // cannot happen: one exchange in flight
    resp->status = la::svc::Status::kOk;
    resp->count = 0;
    resp->error_index = 0;
    resp->more = 0;
    ring.commit_push(*resp, pos);
    cs.resp_tail.store(pos + 1, std::memory_order_relaxed);
    cs.resp_bell.signal();
  };
  // True once pred() holds, false after 10 s.
  auto await = [](auto pred) {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!pred()) {
      if (std::chrono::steady_clock::now() > until) return false;
      std::this_thread::yield();
    }
    return true;
  };

  std::thread fake_server([&] {
    // Short holds: a few microseconds, well inside the spin tier.
    for (int i = 0; i < kShortHolds; ++i) {
      const std::uint32_t r = take();
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::microseconds(5);
      while (std::chrono::steady_clock::now() < until) {
      }
      answer(r);
    }
    // Held until the client parks. The rounds it spun first must be
    // published before the park, so they show while it sleeps.
    const std::uint32_t r = take();
    const std::uint64_t parks = parks_before.load(std::memory_order_relaxed);
    const std::uint64_t rounds =
        rounds_before.load(std::memory_order_relaxed);
    if (await([&] { return client.wait_stats().parks > parks; })) {
      rounds_seen_parked.store(
          await([&] { return client.wait_stats().wait_rounds > rounds; }),
          std::memory_order_relaxed);
    }
    // Past two 100 ms park timeouts: the expired park re-parks (the
    // server pid is alive) and counts again.
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    answer(r);
  });

  // A wait that ends in the spin tier publishes its rounds on return. A
  // client descheduled past the whole hold finds its answer at once and
  // spins none, so only "some short exchange advanced" is asserted.
  bool short_advanced = false;
  for (int i = 0; i < kShortHolds; ++i) {
    const la::api::WaitStats before = client.wait_stats();
    client.free(1);
    const la::api::WaitStats after = client.wait_stats();
    if (after.parks == before.parks && after.wait_rounds > before.wait_rounds) {
      short_advanced = true;
    }
  }
  CHECK(short_advanced);

  const la::api::WaitStats before = client.wait_stats();
  rounds_before.store(before.wait_rounds, std::memory_order_relaxed);
  parks_before.store(before.parks, std::memory_order_relaxed);
  client.free(1);
  fake_server.join();
  const la::api::WaitStats after = client.wait_stats();
  CHECK(rounds_seen_parked.load(std::memory_order_relaxed));
  CHECK(after.parks >= before.parks + 2);
  CHECK(after.wait_rounds > before.wait_rounds);
  CHECK(after.wait_rounds >= after.parks);
}

}  // namespace

int main() {
  using namespace la;

  svc::SegmentConfig seg_config;
  seg_config.max_clients = 8;
  svc::Segment segment_a(seg_config);  // server-death test
  svc::Segment segment_b(seg_config);  // forged-token test
  svc::Segment segment_c(seg_config);  // death-mid-collect test
  svc::Segment segment_d(seg_config);  // Free-k wire-error test

  // Fork every child before any thread exists in this process.
  const pid_t server_pid = ::fork();
  if (server_pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (server_pid == 0) server_child(segment_a.view());

  const pid_t collect_server_pid = ::fork();
  if (collect_server_pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (collect_server_pid == 0) collect_server_child(segment_c.view());

  const pid_t holder_pid = ::fork();
  if (holder_pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (holder_pid == 0) {
    // Blocks in the Client ctor until test_forged_token starts its
    // server on segment B.
    std::thread worker([&] { holder_child(segment_b.view()); });
    worker.join();  // unreachable
    ::_exit(4);
  }

  test_server_death(segment_a.view(), server_pid);
  test_server_death_mid_collect(segment_c.view(), collect_server_pid);
  test_forged_token(segment_b.view(), holder_pid);
  test_free_wire_errors(segment_d.view());
  test_sweep_after_worker_error();
  test_one_worker();
  test_segment_version();
  test_wait_counters();

  if (failures == 0) {
    std::printf("test_svc_failures: all checks passed\n");
    return 0;
  }
  std::printf("test_svc_failures: %d check(s) FAILED\n", failures);
  return 1;
}
