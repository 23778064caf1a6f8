// longrun_stability — reproduces the paper's in-text long-execution claim
// (§6): "in a benchmark with approximately one billion register and
// unregister operations with 80 concurrent threads, the maximum number of
// probes performed by any operation was six, while the average number of
// probes for registering was around 1.75", and "these bounds are also
// maintained in executions with more than 10 billion operations".
//
// The default op budget is laptop-scale (2e7); pass --ops to go to the
// paper's 1e9 (minutes to hours depending on the host). The bench reports
// the probe-count histogram and running worst case at checkpoints, so the
// stability over time — not just the final number — is visible.
#include <iostream>

#include "api/registry.hpp"
#include "bench_util/algos.hpp"
#include "bench_util/options.hpp"
#include "stats/table.hpp"

namespace {

void print_usage() {
  std::cout <<
      "longrun_stability: long-execution probe-count stability (paper §6)\n"
      "  --structure=level   structure to churn (any registered name/alias)\n"
      "  --threads=8         worker threads (paper: 80)\n"
      "  --ops=20000000      total Get+Free budget across the run\n"
      "  --checkpoints=10    progress rows to print\n"
      "  --mult=1000         emulated registrants per thread\n"
      "  --prefill=0.5       pre-fill fraction\n"
      "  --rng=marsaglia     probe RNG (marsaglia | lehmer | pcg32)\n"
      "  --seed=42           base RNG seed\n"
      "  --csv               emit CSV\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace la;
  bench::Options opts(argc, argv);
  if (opts.has("help")) {
    print_usage();
    return 0;
  }

  const auto structure =
      bench::parse_algo(opts.get_string("structure", "level"));
  const auto threads = static_cast<std::uint32_t>(opts.get_uint("threads", 8));
  const auto total_ops = opts.get_uint("ops", 20'000'000);
  const auto checkpoints = std::max<std::uint64_t>(opts.get_uint("checkpoints", 10), 1);
  const auto mult = opts.get_uint("mult", 1000);
  const double prefill = opts.get_double("prefill", 0.5);
  const auto rng_kind =
      rng::parse_rng_kind(opts.get_string("rng", "marsaglia"));
  const auto seed = opts.get_uint("seed", 42);
  const bool csv = opts.has("csv");
  opts.reject_unused();

  std::cout << "# Long-run stability: " << bench::algo_name(structure) << ", "
            << threads << " threads, " << total_ops
            << " total ops (paper: 1e9+ ops, max 6 probes, avg ~1.75)\n";

  stats::Table table({"ops_so_far", "avg_trials", "stddev", "worst_so_far",
                      "p999", "backup_gets"});

  // Run in checkpoint-sized chunks against one persistent structure, so
  // the "worst so far" column genuinely accumulates over the whole
  // execution — run_churn is generic over the Renamer contract, so the
  // persistent structure can be anything in the registry.
  api::RenamerConfig rc;
  rc.capacity = mult * threads;

  stats::TrialStats cumulative;
  std::uint64_t ops_done = 0;
  std::uint64_t backup_total = 0;
  const std::uint64_t ops_per_checkpoint =
      std::max<std::uint64_t>(total_ops / checkpoints, 2);

  try {
    api::visit(structure, rc, [&](auto& array) {
      for (std::uint64_t cp = 0; cp < checkpoints; ++cp) {
        bench::DriverConfig driver;
        driver.threads = threads;
        driver.emulation_multiplier = mult;
        driver.prefill = prefill;
        driver.ops_per_thread =
            std::max<std::uint64_t>(ops_per_checkpoint / threads, 2);
        driver.seconds = 0;
        driver.seed = seed + cp;  // fresh probe streams each chunk
        driver.rng_kind = rng_kind;
        const auto result = bench::run_churn(array, driver);
        cumulative.merge(result.trials);
        ops_done += result.total_ops;
        backup_total += result.backup_gets;
        table.add_row({ops_done, cumulative.average(), cumulative.stddev(),
                       cumulative.worst_case(), cumulative.p999(),
                       backup_total});
      }
      return 0;
    });
  } catch (const std::invalid_argument& e) {
    // A structure may refuse the configuration (e.g. the splitter's
    // quadratic-memory cap); fail with the reason, not a std::terminate.
    std::cerr << "longrun_stability: " << e.what() << "\n";
    return 1;
  }

  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  // Probe-count histogram — the paper's claim is that this has no tail.
  std::cout << "\n# probe-count histogram (trials -> count)\n";
  stats::Table histogram({"trials", "count"});
  const auto& h = cumulative.histogram();
  for (std::uint64_t v = 1; v <= cumulative.worst_case(); ++v) {
    if (h.at(v) != 0) histogram.add_row({v, h.at(v)});
  }
  histogram.print(std::cout);
  return 0;
}
