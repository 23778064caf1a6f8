// oneshot_renaming — the one-shot setting of Broder-Karlin [13] and
// Alistarh et al. [6], which the paper's analysis subsumes: every process
// performs exactly one Get (no Free), against an oblivious adversary.
// Expected probes O(1), worst case O(log log n) w.h.p.
//
// Sweeps n and reports average and worst-case probes next to log log n,
// so the sub-logarithmic growth is visible; also reports the final
// occupancy split across batches (the doubly-exponential decay).
#include <iostream>
#include <vector>

#include "arrays/splitter_grid.hpp"
#include "bench_util/options.hpp"
#include "sim/executor.hpp"
#include "sim/metrics.hpp"
#include "stats/table.hpp"
#include "stats/welford.hpp"
#include "sync/spin_barrier.hpp"
#include "sync/thread_utils.hpp"

namespace {

void print_usage() {
  std::cout <<
      "oneshot_renaming: one-shot executions (the [6,13] setting)\n"
      "  --n=1024,4096,16384,65536   process counts to sweep\n"
      "  --ci=1               probes per batch (1 = implementation,\n"
      "                       16 = analysis constants)\n"
      "  --trials=5           independent repetitions per n (fresh seeds)\n"
      "  --with-splitter      also run the Moir-Anderson splitter grid\n"
      "                       (deterministic comparator, O(n) worst case,\n"
      "                       real threads, smaller n recommended)\n"
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

  const auto ns = opts.get_uint_list("n", {1024, 4096, 16384, 65536});
  const auto ci = opts.get_uint("ci", 1);
  const auto trials = std::max<std::uint64_t>(opts.get_uint("trials", 5), 1);
  const auto seed = opts.get_uint("seed", 42);
  const bool csv = opts.has("csv");
  const bool with_splitter = opts.has("with-splitter");
  opts.reject_unused();

  std::cout << "# One-shot renaming: every process performs exactly one Get "
               "(c_i = " << ci << ", " << trials << " repetitions)\n";

  stats::Table table({"n", "loglog_n", "avg_trials", "worst_trials",
                      "worst_over_loglog", "backup_gets"});
  stats::Table occupancy_table({"n", "batch", "occupied", "batch_size",
                                "fill_%"}, 2);

  for (const auto n : ns) {
    double avg_sum = 0.0;
    std::uint64_t worst = 0;
    std::uint64_t backup = 0;
    for (std::uint64_t trial = 0; trial < trials; ++trial) {
      core::LevelArrayConfig config;
      config.capacity = n;
      config.probes_per_batch = {static_cast<std::uint8_t>(ci)};
      core::LevelArray array(config);
      std::vector<sim::ProcessInput> inputs(n, sim::ProcessInput::one_shot());
      sim::Executor exec(
          array, seed + trial * 1000003 + n, std::move(inputs),
          sim::Schedule::uniform_random(static_cast<std::uint32_t>(n),
                                        static_cast<std::size_t>(n) * 64 *
                                            std::max<std::size_t>(ci, 1),
                                        seed + trial));
      exec.run();
      if (exec.completed_gets() != n) {
        std::cerr << "one-shot run did not complete: " << exec.completed_gets()
                  << "/" << n << " gets\n";
        return 1;
      }
      avg_sum += exec.get_stats().average();
      worst = std::max<std::uint64_t>(worst, exec.get_stats().worst_case());
      backup += exec.backup_gets();

      if (trial == 0) {
        const auto occupancy = exec.array().batch_occupancy();
        for (std::uint32_t b = 0;
             b < std::min<std::uint32_t>(6, exec.array().geometry().num_batches());
             ++b) {
          const auto size = exec.array().geometry().batch(b).size();
          occupancy_table.add_row(
              {std::uint64_t{n}, std::uint64_t{b}, occupancy[b],
               std::uint64_t{size},
               100.0 * static_cast<double>(occupancy[b]) /
                   static_cast<double>(size)});
        }
      }
    }
    const double loglog = static_cast<double>(sim::loglog_batches(n));
    table.add_row({std::uint64_t{n},
                   std::uint64_t{sim::loglog_batches(n)},
                   avg_sum / static_cast<double>(trials), worst,
                   static_cast<double>(worst) / loglog, backup});
  }

  if (csv) {
    table.print_csv(std::cout);
    std::cout << "\n";
    occupancy_table.print_csv(std::cout);
  } else {
    table.print(std::cout);
    std::cout << "\n# final batch occupancy (first repetition): the "
                 "doubly-exponential decay across batches\n";
    occupancy_table.print(std::cout);
  }

  if (with_splitter) {
    // The deterministic comparator (Moir-Anderson splitter grid) with real
    // threads: worst-case steps grow linearly in n, versus the
    // LevelArray's log log n above.
    std::cout << "\n# Moir-Anderson splitter grid (deterministic one-shot "
                 "renaming comparator)\n";
    stats::Table splitter_table(
        {"n", "avg_steps", "worst_steps", "namespace", "max_name_used"});
    for (const auto n : ns) {
      if (n > 4096) {
        std::cerr << "skipping splitter n=" << n
                  << " (quadratic memory; cap 4096)\n";
        continue;
      }
      arrays::SplitterGrid grid(static_cast<std::uint32_t>(n));
      std::vector<std::uint32_t> probes(n);
      std::vector<std::uint64_t> names(n);
      sync::SpinBarrier barrier(static_cast<std::uint32_t>(n) < 64
                                    ? static_cast<std::uint32_t>(n)
                                    : 64);
      // Thread count capped at 64; each thread performs n/threads gets
      // (one-shot per emulated process, ids distinct).
      const std::uint32_t threads = barrier.participants();
      {
        sync::ThreadGroup group;
        group.spawn(threads, [&](std::uint32_t tid) {
          barrier.wait();
          for (std::uint64_t p = tid; p < n; p += threads) {
            const auto result = grid.get(p + 1);
            probes[p] = result.probes;
            names[p] = result.name;
          }
        });
      }
      stats::Welford steps;
      std::uint64_t max_name = 0;
      for (std::uint64_t p = 0; p < n; ++p) {
        steps.add(static_cast<double>(probes[p]));
        max_name = std::max(max_name, names[p]);
      }
      splitter_table.add_row({std::uint64_t{n}, steps.mean(),
                              static_cast<std::uint64_t>(steps.max()),
                              grid.namespace_size(), max_name});
    }
    if (csv) {
      splitter_table.print_csv(std::cout);
    } else {
      splitter_table.print(std::cout);
    }
  }
  return 0;
}
