// workload_trace — probe statistics under realistic hold-time
// distributions (extension beyond the paper's back-to-back churn).
//
// Each worker thread runs an open-loop trace: every iteration it releases
// the names whose hold time expired, then registers one new name whose
// hold duration is drawn from the selected distribution. By Little's law
// the steady-state names held per thread equals the mean hold time, so
// every distribution is compared at identical average load — what varies
// is the *shape* of the occupancy fluctuation (memoryless, heavy-tailed,
// bimodal). The paper's oblivious-adversary analysis promises the probe
// distribution does not care; this bench checks that.
#include <deque>
#include <iostream>

#include "bench_util/options.hpp"
#include "bench_util/workload.hpp"
#include "core/level_array.hpp"
#include "rng/rng.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "sync/cache.hpp"
#include "sync/spin_barrier.hpp"
#include "sync/thread_utils.hpp"

namespace {

void print_usage() {
  std::cout <<
      "workload_trace: probe stats under hold-time distributions\n"
      "  --threads=4          worker threads\n"
      "  --ops=40000          registrations per thread\n"
      "  --mean-hold=500      mean hold time (iterations) => names/thread\n"
      "  --dists=fixed,uniform,exponential,pareto,bimodal,zipf\n"
      "  --seed=42            base seed\n"
      "  --csv                emit CSV\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace la;
  bench::Options opts(argc, argv);
  if (opts.has("help")) {
    print_usage();
    return 0;
  }

  const auto threads = static_cast<std::uint32_t>(opts.get_uint("threads", 4));
  const auto ops = opts.get_uint("ops", 40000);
  const auto mean_hold = opts.get_uint("mean-hold", 500);
  const auto dists = opts.get_string_list(
      "dists", {"fixed", "uniform", "exponential", "pareto", "bimodal", "zipf"});
  const auto seed = opts.get_uint("seed", 42);
  const bool csv = opts.has("csv");
  opts.reject_unused();

  // Capacity: steady state holds ~mean_hold names per thread; Pareto's cap
  // can push excursions a few multiples above, so leave generous headroom.
  const std::uint64_t capacity = 8 * mean_hold * threads;

  std::cout << "# Workload-shape sweep: " << threads << " threads, "
            << ops << " registrations each, mean hold " << mean_hold
            << " (names/thread at steady state), capacity " << capacity
            << "\n# paper's analysis: probe stats should be insensitive to "
               "the fluctuation shape\n";

  stats::Table table({"distribution", "gets", "avg_trials", "stddev",
                      "worst_global", "p99", "backup_gets"});

  for (const auto& dist_name : dists) {
    const auto dist = bench::parse_hold_distribution(dist_name);
    core::LevelArrayConfig config;
    config.capacity = capacity;
    core::LevelArray array(config);

    std::vector<sync::CachePadded<stats::TrialStats>> outputs(threads);
    std::vector<sync::CachePadded<std::uint64_t>> backup_counts(threads);
    sync::SpinBarrier barrier(threads);
    {
      sync::ThreadGroup group;
      group.spawn(threads, [&](std::uint32_t tid) {
        rng::MarsagliaXorshift rng(rng::mix_seed(seed, tid));
        struct Held {
          std::uint64_t name;
          std::uint64_t expires_at;
        };
        std::deque<Held> held;
        barrier.wait();
        for (std::uint64_t t = 0; t < ops; ++t) {
          while (!held.empty() && held.front().expires_at <= t) {
            array.free(held.front().name);
            held.pop_front();
          }
          const auto result = array.get(rng);
          outputs[tid]->record(result.probes);
          if (result.used_backup) ++*backup_counts[tid];
          const std::uint64_t hold = bench::draw_hold_time(
              rng, dist, static_cast<double>(mean_hold));
          // deque stays expiry-sorted only for fixed holds; for the rest
          // a small insertion pass keeps it ordered (holds are short).
          Held entry{result.name, t + hold};
          auto it = held.end();
          while (it != held.begin() && (it - 1)->expires_at > entry.expires_at) {
            --it;
          }
          held.insert(it, entry);
        }
        for (const auto& h : held) array.free(h.name);
      });
    }

    stats::TrialStats merged;
    std::uint64_t backup_total = 0;
    for (std::uint32_t tid = 0; tid < threads; ++tid) {
      merged.merge(*outputs[tid]);
      backup_total += *backup_counts[tid];
    }
    table.add_row({std::string(bench::hold_distribution_name(dist)),
                   merged.operations(), merged.average(), merged.stddev(),
                   merged.worst_case(), merged.p99(), backup_total});
  }

  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
}
