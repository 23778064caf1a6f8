// burst_contention — thundering-herd arrival bursts: all threads release
// from a barrier simultaneously, register, deregister, and wait for the
// next round. This isolates the *contention transient* that steady-state
// churn averages away — the regime where randomized probing either
// shines (LevelArray: losers re-randomize over a 3n/2-slot batch) or
// collapses (LinearProbing: losers pile onto the same cluster).
//
// Reports per-round worst-case probes aggregated over many rounds, for
// any registered structure (--algo=all runs the full registry).
#include <iostream>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "bench_util/algos.hpp"
#include "bench_util/options.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "stats/welford.hpp"
#include "sync/cache.hpp"
#include "sync/spin_barrier.hpp"
#include "sync/thread_utils.hpp"

namespace {

void print_usage() {
  std::cout <<
      "burst_contention: synchronized arrival bursts (thundering herd)\n"
      "  --threads=8          threads per burst\n"
      "  --rounds=2000        bursts\n"
      "  --holds=8            names each thread grabs per burst\n"
      "  --size-factor=2.0    L = size-factor * (threads * holds)\n"
      "  --algo=level,random,linear ('all' = every registered structure)\n"
      "  --seed=42\n"
      "  --csv\n";
}

template <typename Array>
void run_burst(const std::string& label, Array& array, std::uint32_t threads,
               std::uint32_t rounds, std::uint32_t holds,
               la::stats::Table& table, std::uint64_t seed) {
  using namespace la;
  sync::SpinBarrier barrier(threads);
  std::vector<sync::CachePadded<stats::TrialStats>> per_thread(threads);
  // Worst case within each round, merged across rounds.
  stats::Welford round_worst;
  std::vector<sync::CachePadded<std::uint64_t>> this_round_worst(threads);

  for (std::uint32_t round = 0; round < rounds; ++round) {
    {
      sync::ThreadGroup group;
      group.spawn(threads, [&](std::uint32_t tid) {
        rng::MarsagliaXorshift rng(
            rng::mix_seed(seed + round, tid));
        barrier.wait();  // the herd thunders
        std::uint64_t worst = 0;
        std::vector<std::uint64_t> names;
        names.reserve(holds);
        for (std::uint32_t i = 0; i < holds; ++i) {
          const auto r = array.get(rng);
          names.push_back(r.name);
          per_thread[tid]->record(r.probes);
          worst = std::max<std::uint64_t>(worst, r.probes);
        }
        for (const auto name : names) array.free(name);
        *this_round_worst[tid] = worst;
      });
    }
    std::uint64_t round_max = 0;
    for (std::uint32_t tid = 0; tid < threads; ++tid) {
      round_max = std::max(round_max, *this_round_worst[tid]);
    }
    round_worst.add(static_cast<double>(round_max));
  }

  stats::TrialStats merged;
  for (auto& stats : per_thread) merged.merge(*stats);
  table.add_row({label, merged.operations(), merged.average(),
                 merged.stddev(), round_worst.mean(),
                 static_cast<std::uint64_t>(round_worst.max()), merged.p99()});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace la;
  bench::Options opts(argc, argv);
  if (opts.has("help")) {
    print_usage();
    return 0;
  }

  const auto threads = static_cast<std::uint32_t>(opts.get_uint("threads", 8));
  const auto rounds = static_cast<std::uint32_t>(opts.get_uint("rounds", 2000));
  const auto holds = static_cast<std::uint32_t>(opts.get_uint("holds", 8));
  const double size_factor = opts.get_double("size-factor", 2.0);
  const auto algos = bench::expand_algos(
      opts.get_string_list("algo", {"level", "random", "linear"}));
  const auto seed = opts.get_uint("seed", 42);
  const bool csv = opts.has("csv");
  opts.reject_unused();

  api::RenamerConfig config;
  config.capacity = static_cast<std::uint64_t>(threads) * holds;
  config.size_factor = size_factor;

  std::cout << "# Burst contention: " << threads << " threads x " << holds
            << " names per burst, " << rounds << " bursts, L = "
            << config.total_slots() << "\n";

  stats::Table table({"algo", "gets", "avg_trials", "stddev",
                      "mean_round_worst", "max_round_worst", "p99"});
  for (const auto& algo : algos) {
    try {
      api::visit(algo, config, [&](auto& array) {
        run_burst(std::string(bench::algo_name(algo)), array, threads, rounds,
                  holds, table, seed);
      });
    } catch (const std::invalid_argument& e) {
      // A structure may refuse a sweep point (e.g. the splitter's
      // quadratic-memory cap); keep the rest of the sweep's results.
      std::cerr << "warning: skipping " << algo << ": " << e.what() << "\n";
    }
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
}
