// The real-thread stress driver: runs any api::registry structure through
// one scenario of the matrix (see scenario.hpp) with every Get/Free
// recorded in per-thread event logs, then replays the merged trace
// through the invariant checker. For structures exposing the
// batch-occupancy surface it additionally runs a logged healing window —
// seed a deep batch into the paper's Fig. 3 bad state, churn, and assert
// the deep batches end bounded — so the self-healing claim is checked,
// not just benchmarked.
//
// A report with report.ok() == true certifies, for that run: unique names
// while held, all names in range, Free-before-Get ordering per name,
// concurrent holds within the scenario bound, zero leaked slots at
// quiescence, collect() agreeing with the log, and (where applicable)
// bounded deep-batch occupancy after healing.
#pragma once

#include <cstdint>
#include <string>

#include "stats/summary.hpp"
#include "stress/invariants.hpp"
#include "stress/scenario.hpp"

namespace la::stress {

struct StressConfig {
  std::string structure = "level";  // api::registry name or alias
  Scenario scenario = Scenario::kSteady;
  std::uint32_t threads = 8;
  // Individual Get and Free operations per thread; 0 = timed mode.
  std::uint64_t ops_per_thread = 20000;
  double seconds = 0.0;  // window for timed mode
  // Contention bound n for the structure; 0 derives max(256, 32*threads).
  std::uint64_t capacity = 0;
  std::uint64_t seed = 42;  // seeds every thread's MarsagliaXorshift
  // Healing-window churn iterations (batch-occupancy structures only);
  // 0 derives 4 * capacity. Negative scenarios aside, the window always
  // churns at half the contention bound, mirroring fig3_healing.
  std::uint64_t heal_ops = 0;
  // Per-Get deadline budget in ns for the churn-based scenarios (steady /
  // oversub / joinleave); 0 = Gets block until they succeed. Only applied
  // to structures with the api deadline surface — driving an untimed
  // fallback past capacity would livelock, so for every other structure
  // the knob is ignored. With a deadline set, oversub raises per-thread
  // demand *above* the contention bound: refusals become expected and
  // the run certifies bounded waiting instead of avoiding it.
  std::uint64_t deadline_ns = 0;

  std::uint64_t effective_capacity() const {
    if (capacity != 0) return capacity;
    const std::uint64_t derived = 32 * static_cast<std::uint64_t>(threads);
    return derived < 256 ? 256 : derived;
  }
};

struct StressReport {
  InvariantReport invariants;
  stats::TrialStats trials;  // probes per Get, workers + healing window
  std::uint64_t total_ops = 0;
  std::uint64_t backup_gets = 0;
  // Gate waiting as reported by the structure (api::WaitStats): retry
  // rounds spent refused at the gate and futex parks once the spin and
  // yield tiers were exhausted. Zero for structures without the surface.
  std::uint64_t wait_rounds = 0;
  std::uint64_t parks = 0;
  // Deadline accounting (cfg.deadline_ns != 0 on a structure with the
  // deadline surface): Gets attempted under a bound, and the subset
  // refused kTimedOut. A refused Get acquired nothing, so it never
  // appears in the event log — only here.
  std::uint64_t timed_gets = 0;
  std::uint64_t timeouts = 0;
  double elapsed_seconds = 0.0;  // slowest worker, barrier to loop end
  // Healing window (batch-occupancy structures only).
  bool balance_checked = false;
  bool balanced = true;  // deep batches bounded after the healing window
  double heal_max_deep_fill = 0.0;  // final-snapshot max fill of deep batches

  bool ok() const { return invariants.ok() && (!balance_checked || balanced); }
};

// Build cfg.structure from the registry and run the scenario. Throws
// std::invalid_argument for unknown structures, capacities a structure
// refuses, or thread/capacity combinations whose scenario bound cannot
// fit the contention bound (capacity < 4 * threads).
StressReport run_stress(const StressConfig& cfg);

}  // namespace la::stress
