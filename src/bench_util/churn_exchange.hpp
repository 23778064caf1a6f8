// The one Free-k/Get-k churn exchange behind every harness loop: the
// paper's §6 register/deregister step, batched. churn_sweep's drive
// loop and svc_churn's client processes both run it; they differ only
// in what they count and log (the hooks).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "api/renamer.hpp"
#include "core/types.hpp"
#include "rng/rng.hpp"

namespace la::bench {

// One churning thread's held names, plus the grant buffer its exchanges
// reuse (grown on demand, never shrunk).
struct ChurnStash {
  std::vector<std::uint64_t> names;
  std::vector<GetResult> grants;
};

struct ExchangeResult {
  std::size_t freed = 0;
  std::size_t granted = 0;
  // A claim came back empty: the deadline passed before `get_k` names
  // were granted (a timed-out refusal; impossible with kNoDeadline).
  bool refused = false;
};

// Free up to `free_k` names drawn uniformly from the stash, then claim
// until `get_k` names were granted or `deadline_ns` (absolute,
// api::kNoDeadline = forever) passes. A partial grant is topped up at
// once: structures that can refuse wait inside their own get_for /
// get_batch_for, and the rest are total, so there is no retry backoff
// here. Several names go through api::free_batch / api::get_batch_for;
// a single name through free / api::get_for, which keeps the paper's
// per-Get probe path. on_free(name) runs before each release and
// on_get(const GetResult&) after each grant — the ticket order
// stress/event_log.hpp requires.
template <typename Structure, typename Rng, typename OnFree, typename OnGet>
ExchangeResult churn_exchange(Structure& structure, Rng& rng,
                              ChurnStash& stash, std::size_t free_k,
                              std::size_t get_k, std::uint64_t deadline_ns,
                              OnFree&& on_free, OnGet&& on_get) {
  ExchangeResult result;
  std::vector<std::uint64_t>& names = stash.names;
  // Swap each victim to the tail of the live prefix (a uniform draw over
  // the names still held), then free the tail in draw order.
  const std::size_t held = names.size();
  result.freed = free_k < held ? free_k : held;
  for (std::size_t j = 0; j < result.freed; ++j) {
    const std::size_t live = held - j;
    std::swap(names[rng::bounded(rng, live)], names[live - 1]);
  }
  std::uint64_t* victims = names.data() + (held - result.freed);
  std::reverse(victims, victims + result.freed);
  for (std::size_t j = 0; j < result.freed; ++j) on_free(victims[j]);
  if (result.freed == 1) {
    structure.free(victims[0]);
  } else if (result.freed > 1) {
    api::free_batch(structure, victims, result.freed);
  }
  names.resize(held - result.freed);

  if (get_k == 1) {
    GetResult r;
    result.refused = !api::get_for(structure, rng, r, deadline_ns);
    if (result.refused) return result;
    on_get(r);
    names.push_back(r.name);
    result.granted = 1;
    return result;
  }
  if (stash.grants.size() < get_k) stash.grants.resize(get_k);
  GetResult* got = stash.grants.data();
  while (result.granted < get_k) {
    const std::size_t granted = api::get_batch_for(
        structure, rng, got, get_k - result.granted, deadline_ns);
    if (granted == 0) {
      result.refused = true;
      break;
    }
    for (std::size_t j = 0; j < granted; ++j) {
      on_get(got[j]);
      names.push_back(got[j].name);
    }
    result.granted += granted;
  }
  return result;
}

}  // namespace la::bench
