// stress_runner — the concurrency stress & invariant CLI: drives any (or
// every) registered structure through the scenario matrix with real
// threads, then replays the merged per-thread event logs through the
// invariant checker. One row per (structure, scenario) cell; exit status
// is the number of failing cells, so CI and scripts can gate on it.
//
// Typical uses:
//   stress_runner                                   # full matrix, ops mode
//   stress_runner --structure=level --scenario=burst --threads=16
//   stress_runner --structure=all --threads=8 --seconds=1   # timed soak
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_util/algos.hpp"
#include "bench_util/options.hpp"
#include "bench_util/report.hpp"
#include "stats/table.hpp"
#include "stress/driver.hpp"

namespace {

void print_usage() {
  std::cout <<
      "stress_runner: scenario-matrix stress + invariant checking\n"
      "  --structure=all     structures (any registered name/alias;\n"
      "                      'all' = every registered structure)\n"
      "  --scenario=all      steady | burst | zipf | oversub | joinleave |"
      " all\n"
      "  --threads=8         real worker threads\n"
      "  --ops=20000         Get+Free ops per thread (0 = timed mode)\n"
      "  --seconds=0         timed-mode window per cell\n"
      "  --capacity=0        contention bound n (0 = max(256, 32*threads))\n"
      "  --heal-ops=0        healing-window churn ops (0 = 4*capacity)\n"
      "  --deadline=0        per-Get deadline (ns/us/ms/s suffix; 0 = block\n"
      "                      forever). Structures with the deadline surface\n"
      "                      bound each Get; oversub then over-drives demand\n"
      "                      so a nonzero timeout rate is expected\n"
      "  --rng=marsaglia     probe RNG (marsaglia | lehmer | pcg32)\n"
      "  --seed=42           base RNG seed\n"
      "  --json=<path>       also write the machine-readable report\n"
      "  --csv               emit CSV\n"
      "\n"
      "Checked invariants per cell: unique names while held, names in\n"
      "[0, total_slots), Free-before-Get per name, concurrent holds within\n"
      "the scenario bound, zero leaked slots at quiescence, collect()\n"
      "agreement, and (LevelArray) bounded deep batches after a Fig. 3\n"
      "healing window.\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace la;
  bench::Options opts(argc, argv);
  if (opts.has("help")) {
    print_usage();
    return 0;
  }

  const auto structures =
      bench::expand_algos(opts.get_string_list("structure", {"all"}));
  const auto scenarios =
      stress::expand_scenarios(opts.get_string_list("scenario", {"all"}));

  stress::StressConfig base;
  base.threads = static_cast<std::uint32_t>(opts.get_uint("threads", 8));
  base.seconds = opts.get_double("seconds", 0.0);
  // --seconds alone switches to timed mode; an explicit --ops wins over
  // --seconds (say so instead of dropping the flag silently).
  base.ops_per_thread = opts.get_uint("ops", base.seconds > 0.0 ? 0 : 20000);
  if (base.seconds > 0.0 && base.ops_per_thread != 0) {
    std::cerr << "warning: --ops and --seconds both given; running in "
                 "op-count mode and ignoring --seconds\n";
  }
  base.capacity = opts.get_uint("capacity", 0);
  base.heal_ops = opts.get_uint("heal-ops", 0);
  base.deadline_ns = opts.get_duration_ns("deadline", 0);
  base.rng_kind = rng::parse_rng_kind(opts.get_string("rng", "marsaglia"));
  base.seed = opts.get_uint("seed", 42);
  const std::string json_path = opts.get_string("json", "");
  const bool csv = opts.has("csv");
  opts.reject_unused();

  std::cout << "# Stress matrix: " << structures.size() << " structure(s) x "
            << scenarios.size() << " scenario(s), " << base.threads
            << " threads, n = " << base.effective_capacity() << ", "
            << (base.ops_per_thread != 0
                    ? std::to_string(base.ops_per_thread) + " ops/thread"
                    : std::to_string(base.seconds) + " s/cell")
            << "\n";

  bench::BenchReport report_json("stress_runner");
  stats::Table table({"structure", "scenario", "events", "gets", "peak_held",
                      "avg_trials", "worst", "backup_gets", "waits", "parks",
                      "timeouts", "to_rate", "deep_fill", "verdict"});
  int failures = 0;
  int skipped = 0;
  int executed = 0;
  for (const auto& structure : structures) {
    for (const auto scenario : scenarios) {
      stress::StressConfig cfg = base;
      cfg.structure = structure;
      cfg.scenario = scenario;
      stress::StressReport report;
      try {
        report = stress::run_stress(cfg);
      } catch (const std::invalid_argument& e) {
        // A structure may refuse a cell (e.g. the splitter's quadratic-
        // memory cap); report and keep sweeping.
        std::cerr << "warning: skipping " << structure << "/"
                  << stress::scenario_name(scenario) << ": " << e.what()
                  << "\n";
        ++skipped;
        continue;
      }
      ++executed;
      if (!report.ok()) ++failures;
      const double timeout_rate =
          report.timed_gets != 0
              ? static_cast<double>(report.timeouts) /
                    static_cast<double>(report.timed_gets)
              : 0.0;
      table.add_row(
          {std::string(bench::algo_name(structure)),
           std::string(stress::scenario_name(scenario)),
           report.invariants.events, report.invariants.gets,
           report.invariants.peak_concurrent, report.trials.average(),
           report.trials.worst_case(), report.backup_gets,
           report.wait_rounds, report.parks,
           report.timeouts, timeout_rate,
           report.balance_checked ? report.heal_max_deep_fill : 0.0,
           std::string(report.ok()           ? "OK"
                       : report.invariants.ok() ? "UNBALANCED"
                                                : "VIOLATED")});
      report_json.add_run()
          .set("structure", structure)
          .set("scenario", stress::scenario_name(scenario))
          .set("rng", rng::rng_kind_name(base.rng_kind))
          .set("threads", base.threads)
          .set_object("config",
                      bench::JsonObject()
                          .set("capacity", cfg.effective_capacity())
                          .set("ops_per_thread", base.ops_per_thread)
                          .set("seconds", base.seconds)
                          .set("seed", base.seed))
          .set("ops_per_sec",
               report.elapsed_seconds > 0.0
                   ? static_cast<double>(report.total_ops) /
                         report.elapsed_seconds
                   : 0.0)
          .set("total_ops", report.total_ops)
          .set("elapsed_seconds", report.elapsed_seconds)
          .set("events", report.invariants.events)
          .set("peak_held", report.invariants.peak_concurrent)
          .set("backup_gets", report.backup_gets)
          // Gate-refusal waiting (api::WaitStats): spin/yield retry
          // rounds and futex parks taken once both tiers were spent.
          .set("wait_rounds", report.wait_rounds)
          .set("parks", report.parks)
          // Deadline accounting: timed Gets attempted and the subset
          // refused kTimedOut. All zero when --deadline=0 or the
          // structure lacks the deadline surface.
          .set("deadline_ns", base.deadline_ns)
          .set("timed_gets", report.timed_gets)
          .set("timeouts", report.timeouts)
          .set("timeout_rate", timeout_rate)
          // Not-measured must stay distinguishable from a measured 0.0;
          // the double setter renders NaN as JSON null.
          .set("deep_fill",
               report.balance_checked
                   ? report.heal_max_deep_fill
                   : std::numeric_limits<double>::quiet_NaN())
          .set("ok", report.ok())
          .set_object("probes", bench::probe_stats_json(report.trials));
      for (const auto& violation : report.invariants.violations) {
        std::cerr << "violation [" << structure << "/"
                  << stress::scenario_name(scenario) << "] " << violation
                  << "\n";
      }
      if (report.balance_checked && !report.balanced) {
        std::cerr << "unbalanced [" << structure << "/"
                  << stress::scenario_name(scenario)
                  << "] deep-batch fill " << report.heal_max_deep_fill
                  << " after the healing window\n";
      }
    }
  }

  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  // A run that verified nothing must not look green: every cell refused
  // (e.g. capacity too small for the thread count) is a configuration
  // error, not a pass.
  if (executed == 0) {
    std::cerr << "stress_runner: every cell was skipped (" << skipped
              << "); nothing was verified\n";
    return 1;
  }
  std::cout << (failures == 0
                    ? "stress_runner: all " + std::to_string(executed) +
                          " cell(s) passed" +
                          (skipped != 0
                               ? " (" + std::to_string(skipped) + " skipped)"
                               : "") +
                          "\n"
                    : "stress_runner: " + std::to_string(failures) +
                          " cell(s) FAILED\n");

  if (!json_path.empty() && !report_json.write_file(json_path, std::cerr)) {
    return 126;
  }
  return failures > 125 ? 125 : failures;
}
