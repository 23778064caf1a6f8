// balance_check — validates the paper's analysis quantities on simulated
// oblivious-adversary executions (the theory side of the evaluation):
//
//   * Definition 1 (regularity): the empirical fraction of Gets reaching
//     batch k, against the analytical bound pi_k.
//   * Definition 2 / Proposition 3 (balance): the fraction of sampled
//     instants at which any tracked batch was overcrowded.
//   * Theorem 1: worst-case probes vs the O(log log n) budget.
//
// Run with --ci=16 (default) for the analysis constants, or --ci=1 to see
// how the implementation configuration behaves against the same yardstick.
// --structure= sweeps any registered Renamer under the *identical*
// Schedule (the oblivious adversary commits one activation order per n,
// replayed against every structure); batch-level metrics appear only for
// structures that expose batch introspection.
#include <iostream>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "bench_util/algos.hpp"
#include "bench_util/options.hpp"
#include "sim/executor.hpp"
#include "sim/metrics.hpp"
#include "stats/table.hpp"

namespace {

void print_usage() {
  std::cout <<
      "balance_check: regularity + balance of simulated executions\n"
      "  --n=256,512,1024     contention bounds to sweep\n"
      "  --rounds=64          Get/Free rounds per process\n"
      "  --ci=16              probes per batch (16 = analysis constants)\n"
      "  --structure=level    structures to run under the same schedule\n"
      "                       (any registered name/alias; 'all' = every)\n"
      "  --schedule=uniform   uniform | roundrobin | bursty | skewed\n"
      "  --sample-every=500   steps between balance samples\n"
      "  --seed=42            seed\n"
      "  --csv                emit CSV\n";
}

la::sim::Schedule make_schedule(const std::string& kind, std::uint32_t n,
                                std::size_t steps, std::uint64_t seed) {
  using la::sim::Schedule;
  if (kind == "uniform") return Schedule::uniform_random(n, steps, seed);
  if (kind == "roundrobin") return Schedule::round_robin(n, steps);
  if (kind == "bursty") return Schedule::bursty(n, steps, 200, seed);
  if (kind == "skewed") return Schedule::skewed(n, steps, 1.2, seed);
  throw std::invalid_argument("unknown schedule kind: " + kind);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace la;
  bench::Options opts(argc, argv);
  if (opts.has("help")) {
    print_usage();
    return 0;
  }

  const auto ns = opts.get_uint_list("n", {256, 512, 1024});
  const auto rounds = opts.get_uint("rounds", 64);
  const auto ci = opts.get_uint("ci", 16);
  const auto structures =
      bench::expand_algos(opts.get_string_list("structure", {"level"}));
  const auto schedule_kind = opts.get_string("schedule", "uniform");
  const auto sample_every = opts.get_uint("sample-every", 500);
  const auto seed = opts.get_uint("seed", 42);
  const bool csv = opts.has("csv");
  opts.reject_unused();

  std::cout << "# Balance & regularity check: c_i = " << ci << ", schedule = "
            << schedule_kind << ", " << rounds << " rounds/process\n";

  stats::Table summary({"structure", "n", "gets", "avg_trials", "worst",
                        "loglog_budget", "balance_samples",
                        "unbalanced_samples", "backup_gets"});
  stats::Table reach_table(
      {"structure", "n", "batch", "reach_fraction", "pi_bound",
       "within_bound"}, 6);

  for (const auto n : ns) {
    // Budget: enough steps to drain all tapes even with c_i = 16. The
    // adversary commits this one activation order, then every structure
    // replays it.
    const std::size_t steps = static_cast<std::size_t>(n) * rounds * (4 + ci);
    const sim::Schedule schedule = make_schedule(
        schedule_kind, static_cast<std::uint32_t>(n), steps, seed);
    const std::uint64_t budget = ci * (sim::loglog_batches(n) + 2);

    for (const auto& structure : structures) {
      api::RenamerConfig config;
      config.capacity = n;
      config.probes_per_batch = {static_cast<std::uint8_t>(ci)};
      const auto run_structure = [&](auto& array) {
        using Array = std::decay_t<decltype(array)>;
        std::vector<sim::ProcessInput> inputs(
            n, sim::ProcessInput::churn(rounds, 1));
        sim::BasicExecutor<Array> exec(array, seed + n, std::move(inputs),
                                       schedule);

        std::uint64_t samples = 0, unbalanced = 0;
        if constexpr (api::has_batch_surface_v<Array>) {
          exec.set_step_observer(
              [&](const sim::BasicExecutor<Array>& e) {
                ++samples;
                if (!e.balance().fully_balanced()) ++unbalanced;
              },
              sample_every);
        }
        exec.run();

        const std::string label(bench::algo_name(structure));
        summary.add_row({label, std::uint64_t{n}, exec.completed_gets(),
                         exec.get_stats().average(),
                         exec.get_stats().worst_case(), budget, samples,
                         unbalanced, exec.backup_gets()});

        if constexpr (api::has_batch_surface_v<Array>) {
          const auto& reach = exec.reach_counts();
          const double gets = static_cast<double>(exec.completed_gets());
          const std::uint32_t tracked = sim::loglog_batches(n);
          for (std::uint32_t k = 1; k <= tracked && k < reach.size(); ++k) {
            const double fraction = static_cast<double>(reach[k]) / gets;
            const double bound = sim::reach_probability_bound(k);
            reach_table.add_row({label, std::uint64_t{n}, std::uint64_t{k},
                                 fraction, bound,
                                 std::string(fraction <= bound ? "yes"
                                                               : "NO")});
          }
        }
      };
      try {
        api::visit(structure, config, run_structure);
      } catch (const std::invalid_argument& e) {
        // A structure may refuse this n (e.g. the splitter's
        // quadratic-memory cap); keep the rest of the sweep's results.
        std::cerr << "warning: skipping " << structure << ": " << e.what()
                  << "\n";
      }
    }
  }

  if (csv) {
    summary.print_csv(std::cout);
    std::cout << "\n";
    reach_table.print_csv(std::cout);
  } else {
    summary.print(std::cout);
    std::cout << "\n# reach fractions vs Definition 1 bounds (c_i >= 16 "
                 "required for the bound to apply; batch-structured "
                 "renamers only)\n";
    reach_table.print(std::cout);
  }
  return 0;
}
