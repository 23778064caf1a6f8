// In-process packaging of the whole rename-service stack: one object
// that owns the shared-memory segment, the backing structure and the
// server, and *is* a client of them — its api::Renamer surface is
// svc::Client's. This is what the registry instantiates for the
// `svc:sharded:level` entry, so every existing harness (benches, stress
// matrix, model fuzzer, contract tests) drives the daemon through the
// real wire protocol without knowing it: the "structure" they call
// get()/free() on is a svc::Client round-tripping cache-padded slots
// through the segment to the server's worker thread.
//
// Multi-process deployments compose the pieces directly (Segment, fork,
// Server::start() and Server::migrate() in the parent, svc::Client in
// the children) — see bench/svc_churn.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "api/renamer.hpp"
#include "svc/client.hpp"
#include "svc/segment.hpp"
#include "svc/server.hpp"

namespace la::svc {

// What a ServiceRenamer owns besides its Client: the segment, the inner
// structure and the started server. A base class listed before Client
// (base-from-member), so the server is running before the Client
// attaches and still draining rings when the Client detaches.
template <typename Inner>
class ServiceParts {
 protected:
  template <typename Factory>
  ServiceParts(const SegmentConfig& config, Factory&& make_inner)
      : segment_(config),
        inner_(std::forward<Factory>(make_inner)()),
        server_(segment_.view(), *inner_) {
    server_.start();
  }

  Segment segment_;
  std::unique_ptr<Inner> inner_;
  Server<Inner> server_;  // destroyed first: its destructor stops it
};

template <typename Inner>
class ServiceRenamer : private ServiceParts<Inner>, public Client {
  static_assert(api::is_renamer_v<Inner>,
                "ServiceRenamer fronts the api::Renamer contract");
  using Parts = ServiceParts<Inner>;

 public:
  template <typename Factory>
  ServiceRenamer(const SegmentConfig& config, Factory&& make_inner)
      : Parts(config, std::forward<Factory>(make_inner)),
        Client(Parts::segment_.view()) {}

  // Client-side response waiting plus the inner structure's gate waits
  // (the latter accumulate on the server worker).
  api::WaitStats wait_stats() const {
    api::WaitStats w = Client::wait_stats();
    if constexpr (api::has_wait_stats_v<Inner>) {
      const api::WaitStats inner = Parts::inner_->wait_stats();
      w.wait_rounds += inner.wait_rounds;
      w.parks += inner.parks;
      // Not inner.timeouts: the server's GetKs carry no deadline (the
      // pending list enforces expiry), so inner timeouts can't occur;
      // the client's count is the caller-facing one either way.
    }
    return w;
  }

  ServerStats server_stats() const { return Parts::server_.stats(); }
};

}  // namespace la::svc
