// In-process packaging of the whole rename-service stack: one object
// that owns the shared-memory segment, the backing structure, the
// server workers, and a client — and exposes the client's
// api::Renamer surface. This is what the registry instantiates for the
// `svc:sharded:level` entry, so every existing harness (benches, stress
// matrix, model fuzzer, contract tests) drives the daemon through the
// real wire protocol without knowing it: the "structure" they call
// get()/free() on is a svc::Client round-tripping cache-padded slots
// through the segment to a worker thread.
//
// Multi-process deployments skip this wrapper and compose the pieces
// directly (create Segment, fork, Server::start() in the parent,
// svc::Client in the children) — see bench/svc_churn.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "api/renamer.hpp"
#include "svc/client.hpp"
#include "svc/segment.hpp"
#include "svc/server.hpp"

namespace la::svc {

struct ServiceConfig {
  SegmentConfig segment{};
  std::uint32_t server_threads = 1;
};

template <typename Inner>
class ServiceRenamer {
  static_assert(api::is_renamer_v<Inner>,
                "ServiceRenamer fronts the api::Renamer contract");

 public:
  template <typename Factory>
  ServiceRenamer(const ServiceConfig& config, Factory&& make_inner)
      : segment_(config.segment),
        inner_(std::forward<Factory>(make_inner)()),
        server_(segment_.view(), *inner_, config.server_threads) {
    server_.start();
    client_ = std::make_unique<Client>(segment_.view());
  }

  ~ServiceRenamer() {
    client_.reset();  // detaches while the server still drains rings
    server_.stop();
  }

  ServiceRenamer(const ServiceRenamer&) = delete;
  ServiceRenamer& operator=(const ServiceRenamer&) = delete;

  // ---- api::Renamer contract, delegated over the wire ----------------

  template <typename Rng>
  GetResult get(Rng& rng) {
    return client_->get(rng);
  }

  template <typename Rng>
  std::size_t get_batch(Rng& rng, GetResult* out, std::size_t k) {
    return client_->get_batch(rng, out, k);
  }

  template <typename Rng>
  bool get_for(Rng& rng, GetResult& out, std::uint64_t deadline_ns) {
    return client_->get_for(rng, out, deadline_ns);
  }

  template <typename Rng>
  std::size_t get_batch_for(Rng& rng, GetResult* out, std::size_t k,
                            std::uint64_t deadline_ns) {
    return client_->get_batch_for(rng, out, k, deadline_ns);
  }

  void free(std::uint64_t name) { client_->free(name); }

  void free_batch(const std::uint64_t* names, std::size_t k) {
    client_->free_batch(names, k);
  }

  std::size_t collect(std::vector<std::uint64_t>& out) const {
    return client_->collect(out);
  }

  std::uint64_t capacity() const { return client_->capacity(); }
  std::uint64_t total_slots() const { return client_->total_slots(); }

  // Client-side response waiting plus the inner structure's gate waits
  // (the latter accumulate on the server workers).
  api::WaitStats wait_stats() const {
    api::WaitStats w = client_->wait_stats();
    if constexpr (api::has_wait_stats_v<Inner>) {
      const api::WaitStats inner = inner_->wait_stats();
      w.wait_rounds += inner.wait_rounds;
      w.parks += inner.parks;
      // Not inner.timeouts: the server's GetKs carry no deadline (the
      // pending list enforces expiry), so inner timeouts can't occur;
      // the client's count is the caller-facing one either way.
    }
    return w;
  }

  ServerStats server_stats() const { return server_.stats(); }
  Server<Inner>& server() { return server_; }
  Client& client() { return *client_; }

 private:
  Segment segment_;
  std::unique_ptr<Inner> inner_;
  Server<Inner> server_;
  std::unique_ptr<Client> client_;
};

}  // namespace la::svc
