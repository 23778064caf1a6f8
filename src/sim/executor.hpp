// Simulated executions against an oblivious adversary: n emulated
// processes, each with a tape of Get/Free work, advanced one atomic
// operation at a time in an order fixed by a Schedule *before* the random
// probe choices are drawn — exactly the adversary model of the paper's
// analysis. This is the theory-side harness (balance_check,
// oneshot_renaming); the wall-clock benches use real threads via
// bench_util instead.
//
// BasicExecutor is templated over any structure satisfying the
// api::Renamer contract, so every registered comparison structure can be
// studied under the same adversarial Schedule. The caller owns the
// structure (construct it directly or through api::visit) and the
// executor steps it; the paper's balance metrics are available whenever
// the structure exposes the batch-occupancy introspection surface.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/renamer.hpp"
#include "core/level_array.hpp"
#include "rng/rng.hpp"
#include "sim/metrics.hpp"
#include "stats/summary.hpp"

namespace la::sim {

// What one emulated process does over its lifetime.
class ProcessInput {
 public:
  // Exactly one Get, never freed — the Broder-Karlin one-shot setting.
  static ProcessInput one_shot() { return ProcessInput(1, 1, false); }

  // `rounds` rounds of (acquire `holds` names, then free them all).
  static ProcessInput churn(std::uint64_t rounds, std::uint64_t holds) {
    return ProcessInput(rounds == 0 ? 1 : rounds, holds == 0 ? 1 : holds,
                        true);
  }

  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t holds() const { return holds_; }
  bool frees() const { return frees_; }

 private:
  ProcessInput(std::uint64_t rounds, std::uint64_t holds, bool frees)
      : rounds_(rounds), holds_(holds), frees_(frees) {}

  std::uint64_t rounds_;
  std::uint64_t holds_;
  bool frees_;
};

// A fixed order of process activations — the oblivious adversary's move,
// committed before any coin flips. Copyable, so the identical order can
// be replayed against several structures.
class Schedule {
 public:
  static Schedule uniform_random(std::uint32_t n, std::size_t steps,
                                 std::uint64_t seed);
  static Schedule round_robin(std::uint32_t n, std::size_t steps);
  // One random process runs `burst` consecutive steps, then the adversary
  // picks again.
  static Schedule bursty(std::uint32_t n, std::size_t steps,
                         std::uint32_t burst, std::uint64_t seed);
  // Zipf(exponent) over process ids: a few processes hog the schedule.
  static Schedule skewed(std::uint32_t n, std::size_t steps, double exponent,
                         std::uint64_t seed);

  const std::vector<std::uint32_t>& order() const { return order_; }

 private:
  explicit Schedule(std::vector<std::uint32_t> order)
      : order_(std::move(order)) {}

  std::vector<std::uint32_t> order_;
};

// One executed operation of a simulated run: which process moved and what
// it did. The sequence of StepRecords is a function of the Schedule and
// the ProcessInput tapes alone — every Get returns exactly one name, so
// the process state machine advances identically no matter which names a
// structure hands out. Replaying one committed Schedule against two
// different structures therefore yields the same record sequence
// (test_schedule_replay pins this down).
struct StepRecord {
  std::uint32_t pid = 0;
  bool get = false;  // false = Free
};

inline bool operator==(const StepRecord& a, const StepRecord& b) {
  return a.pid == b.pid && a.get == b.get;
}
inline bool operator!=(const StepRecord& a, const StepRecord& b) {
  return !(a == b);
}

template <typename Structure>
class BasicExecutor {
  static_assert(api::is_renamer_v<Structure>,
                "BasicExecutor requires the api::Renamer contract");

 public:
  BasicExecutor(Structure& array, std::uint64_t seed,
                std::vector<ProcessInput> inputs, Schedule schedule)
      : array_(&array), schedule_(std::move(schedule)) {
    // A Get on a full array spins forever in this single-threaded
    // simulation (nobody else can free), so reject inputs whose
    // worst-case concurrent demand exceeds the slot count up front.
    std::uint64_t peak_demand = 0;
    for (const auto& input : inputs) peak_demand += input.holds();
    if (peak_demand > array_->total_slots()) {
      throw std::invalid_argument(
          "Executor: aggregate holds (" + std::to_string(peak_demand) +
          ") exceed the array's " + std::to_string(array_->total_slots()) +
          " slots");
    }
    if constexpr (api::has_batch_surface_v<Structure>) {
      reach_counts_.assign(array_->batch_occupancy().size(), 0);
    } else {
      reach_counts_.assign(1, 0);  // [0] still counts every Get
    }
    processes_.reserve(inputs.size());
    for (std::size_t pid = 0; pid < inputs.size(); ++pid) {
      processes_.emplace_back(inputs[pid], rng::mix_seed(seed, pid));
    }
  }

  void run() {
    std::uint64_t steps_done = 0;
    for (const auto pid : schedule_.order()) {
      if (done_count_ == processes_.size()) break;
      step(pid);
      ++steps_done;
      if (observer_ && steps_done % observe_every_ == 0) {
        observer_(*this);
      }
    }
  }

  std::uint64_t completed_gets() const { return completed_gets_; }
  std::uint64_t backup_gets() const { return backup_gets_; }
  const stats::TrialStats& get_stats() const { return get_stats_; }
  const Structure& array() const { return *array_; }

  // reach_counts()[k] = number of completed Gets whose probe sequence
  // reached batch k (so [0] counts every Get). Structures without a batch
  // partition only populate [0].
  const std::vector<std::uint64_t>& reach_counts() const {
    return reach_counts_;
  }

  // Definition 2 balance of the current occupancy snapshot. Only callable
  // for structures exposing the batch surface.
  BalanceReport balance() const {
    static_assert(api::has_batch_surface_v<Structure>,
                  "balance() needs the batch surface");
    return evaluate_balance(array_->batch_occupancy(), array_->capacity());
  }

  // Invoke fn(*this) every `every` schedule steps while running.
  void set_step_observer(std::function<void(const BasicExecutor&)> fn,
                         std::uint64_t every) {
    observer_ = std::move(fn);
    observe_every_ = every == 0 ? 1 : every;
  }

  // Append one StepRecord per *executed* operation to `out` (activations
  // of finished processes execute nothing and are not recorded). The
  // caller owns the vector; pass nullptr to stop recording.
  void set_step_recorder(std::vector<StepRecord>* out) { recorder_ = out; }

 private:
  struct Process {
    explicit Process(const ProcessInput& in, std::uint64_t seed)
        : input(in), rng(seed), rounds_left(in.rounds()) {}

    ProcessInput input;
    rng::MarsagliaXorshift rng;
    std::uint64_t rounds_left;
    std::vector<std::uint64_t> held;
    bool acquiring = true;
    bool done = false;
  };

  void step(std::uint32_t pid) {
    if (pid >= processes_.size()) return;
    Process& p = processes_[pid];
    if (p.done) return;

    if (recorder_) recorder_->push_back({pid, p.acquiring});
    if (p.acquiring) {
      const GetResult r = array_->get(p.rng);
      get_stats_.record(r.probes);
      ++completed_gets_;
      if (r.used_backup) ++backup_gets_;
      for (std::uint32_t k = 0;
           k <= r.deepest_batch && k < reach_counts_.size(); ++k) {
        ++reach_counts_[k];
      }
      p.held.push_back(r.name);
      if (p.held.size() >= p.input.holds()) {
        if (p.input.frees()) {
          p.acquiring = false;
        } else {
          // One-shot style: names stay held; the round (and tape) ends.
          --p.rounds_left;
          if (p.rounds_left == 0) {
            p.done = true;
            ++done_count_;
          }
        }
      }
    } else {
      array_->free(p.held.back());
      p.held.pop_back();
      if (p.held.empty()) {
        p.acquiring = true;
        --p.rounds_left;
        if (p.rounds_left == 0) {
          p.done = true;
          ++done_count_;
        }
      }
    }
  }

  Structure* array_;
  Schedule schedule_;
  std::vector<Process> processes_;
  std::uint64_t done_count_ = 0;

  stats::TrialStats get_stats_;
  std::uint64_t completed_gets_ = 0;
  std::uint64_t backup_gets_ = 0;
  std::vector<std::uint64_t> reach_counts_;

  std::function<void(const BasicExecutor&)> observer_;
  std::uint64_t observe_every_ = 1;
  std::vector<StepRecord>* recorder_ = nullptr;
};

// The historical name: the executor specialized to the paper's structure.
using Executor = BasicExecutor<core::LevelArray>;

}  // namespace la::sim
