// The shared-memory segment behind the rename-service daemon: one
// anonymous MAP_SHARED mapping holding a header, a claim table of client
// slots, and per-client SPSC request/response ring storage. The segment
// is created by the server process *before* it forks clients, so every
// child inherits the mapping at the same address and simply constructs a
// svc::Client view over it — no name registration or path handshake.
//
// Layout (all offsets cache-line aligned, computed from SegmentConfig):
//
//   [Header              ]  magic/version/geometry, ready + shutdown
//                           flags, the global server doorbell, and a
//                           small scratch array harnesses use to
//                           coordinate across fork()
//   [ClientSlot x max    ]  three lines each: the client-written claim
//                           state and cursors, the server-written
//                           cursors, and the per-ring response bell
//   [RequestSlot  x max * depth]   client -> server ring storage
//   [ResponseSlot x max * depth]   server -> client ring storage
//
// Claiming: a thread CASes a slot's state kFree -> kClaimed, stores its
// pid, and adopts the persisted cursors — rings survive claimant
// turnover (thread exit, slot reuse by a later thread or process)
// without slot resets, because cursors are continuous across claimants.
// Only the dead-client reclaim path (server-side, producer provably
// gone) ever rewrites ring slots wholesale.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "svc/protocol.hpp"
#include "svc/ring.hpp"
#include "sync/cache.hpp"
#include "sync/futex.hpp"

namespace la::svc {

inline constexpr std::uint64_t kSegmentMagic = 0x4C41'5356'4331ull;  // LASVC1
// Bumped whenever the layout below changes; svc::Client refuses to attach
// to a segment whose magic or version differs from its own.
inline constexpr std::uint32_t kSegmentVersion = 2;
inline constexpr std::uint32_t kScratchWords = 16;

struct SegmentConfig {
  std::uint32_t max_clients = 16;   // client rings in the segment
  std::uint32_t ring_depth = 8;     // slots per ring (power of two)
};

struct alignas(sync::kCacheLineSize) Header {
  std::uint64_t magic = 0;
  std::uint32_t version = kSegmentVersion;
  std::uint32_t max_clients = 0;
  std::uint32_t ring_depth = 0;
  // Structure geometry, published by the server before `ready` so a
  // forked client can answer capacity()/total_slots() locally.
  std::atomic<std::uint64_t> capacity{0};
  std::atomic<std::uint64_t> total_slots{0};
  std::atomic<std::uint32_t> ready{0};
  std::atomic<std::uint32_t> shutdown{0};
  // The server process, published at start(): clients whose timed
  // response park expires probe it to distinguish "slow server" from
  // "server died without setting shutdown" (SIGKILL, crash).
  std::atomic<std::uint32_t> server_pid{0};
  // The server's eventcount: clients signal after every request push;
  // the idle server worker parks here (with a timeout, doubling as the
  // liveness-sweep heartbeat).
  sync::FutexWord doorbell{true};
  // Free-form cross-process coordination for the svc tests ("child is
  // holding" flags, op totals). Not used by the protocol.
  std::atomic<std::uint64_t> scratch[kScratchWords] = {};
};

// One client ring's control block, laid out so every hot line has
// exactly one writer (two endpoints writing one line bounce it between
// cores on every exchange):
//
//   line | fields                                      | written by
//   -----+---------------------------------------------+-----------------
//     0  | state, pid, claim_token, req_tail, resp_head | client
//     1  | req_head, resp_tail                          | server
//     2  | resp_bell                                    | server signals,
//        |                                              | client parks
//
// The dead-client sweep is the only path that writes both line 0 and
// line 1: the claimant is provably gone, so the server resets the
// client-side cursors to its own and frees the slot.
struct alignas(sync::kCacheLineSize) ClientSlot {
  static constexpr std::uint32_t kFree = 0;
  static constexpr std::uint32_t kClaimed = 1;

  // ---- line 0: client-written ----
  std::atomic<std::uint32_t> state{kFree};
  std::atomic<std::uint32_t> pid{0};
  // Claim generation token: the claimant's kernel start time
  // (svc::pid_start_time), stamped with the pid at claim. The dead-client
  // sweep treats a mismatch between this and the *current* owner of the
  // pid as proof of death — a recycled pid fools kill(pid, 0) but gets a
  // fresh start time. 0 = token unavailable (non-Linux); pid-only
  // liveness then applies.
  std::atomic<std::uint64_t> claim_token{0};
  // Persisted ring cursors (see ring.hpp): each is written only by its
  // endpoint; the claim CAS publishes them to the next claimant.
  std::atomic<std::uint32_t> req_tail{0};   // producer: client
  std::atomic<std::uint32_t> resp_head{0};  // consumer: client

  // ---- line 1: server-written ----
  alignas(sync::kCacheLineSize)
      std::atomic<std::uint32_t> req_head{0};  // consumer: server
  std::atomic<std::uint32_t> resp_tail{0};  // producer: server

  // ---- line 2: the client's eventcount ----
  // The server signals after every response push; a client out of
  // spin/yield budget parks here.
  alignas(sync::kCacheLineSize) sync::FutexWord resp_bell{true};
};

static_assert(std::is_standard_layout_v<ClientSlot>);
static_assert(sizeof(ClientSlot) == 3 * sync::kCacheLineSize);
static_assert(offsetof(ClientSlot, resp_head) < sync::kCacheLineSize,
              "client-written fields share line 0");
static_assert(offsetof(ClientSlot, req_head) == sync::kCacheLineSize &&
                  offsetof(ClientSlot, resp_tail) < 2 * sync::kCacheLineSize,
              "server-written cursors share line 1");
static_assert(offsetof(ClientSlot, resp_bell) == 2 * sync::kCacheLineSize,
              "the response bell sits alone on line 2");

// A non-owning, trivially copyable window onto a mapped segment. Both
// sides of a fork hold the same view (same base address).
class SegmentView {
 public:
  SegmentView() = default;
  SegmentView(void* base, const SegmentConfig& config)
      : base_(static_cast<char*>(base)), config_(config) {}

  Header& header() const { return *reinterpret_cast<Header*>(base_); }
  const SegmentConfig& config() const { return config_; }

  ClientSlot& client_slot(std::uint32_t i) const {
    return reinterpret_cast<ClientSlot*>(base_ + client_slots_offset())[i];
  }

  RingView<RequestSlot> request_ring(std::uint32_t i) const {
    auto* slots = reinterpret_cast<RequestSlot*>(base_ + request_offset());
    return RingView<RequestSlot>(slots + std::size_t{i} * config_.ring_depth,
                                 config_.ring_depth);
  }

  RingView<ResponseSlot> response_ring(std::uint32_t i) const {
    auto* slots = reinterpret_cast<ResponseSlot*>(base_ + response_offset());
    return RingView<ResponseSlot>(slots + std::size_t{i} * config_.ring_depth,
                                  config_.ring_depth);
  }

  static std::size_t bytes_required(const SegmentConfig& config);

 private:
  std::size_t client_slots_offset() const { return sizeof(Header); }
  std::size_t request_offset() const {
    return client_slots_offset() + sizeof(ClientSlot) * config_.max_clients;
  }
  std::size_t response_offset() const {
    return request_offset() +
           sizeof(RequestSlot) * std::size_t{config_.max_clients} *
               config_.ring_depth;
  }

  char* base_ = nullptr;
  SegmentConfig config_{};
};

// The owning side: creates (and on destruction unmaps) the anonymous
// shared mapping and placement-initializes every structure in it.
// Create the Segment, fork clients, then start the Server — children
// spin on header().ready before touching the rings.
class Segment {
 public:
  explicit Segment(const SegmentConfig& config);
  ~Segment();
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  SegmentView view() const { return SegmentView(base_, config_); }

 private:
  SegmentConfig config_;
  void* base_ = nullptr;
  std::size_t bytes_ = 0;
};

}  // namespace la::svc
