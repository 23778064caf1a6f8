// churn_sweep — the paper's §6 churn workload over the cross product of
// its axes. Each of n threads emulates `mult` registrants (N = n*mult),
// the structure holds L = size_factor * N slots, a prefill fraction of N
// is held up front, and the threads churn Free+Get back to back. Fig. 2
// and every §6 in-text claim change exactly one axis of this workload:
//
//   Fig. 2 top-left (throughput)   --seconds=0.5 over --threads
//   Fig. 2 trial panels            op-count mode over --threads
//                                  (add ,seq to --algo for first-fit)
//   §6 pre-fill 0–90%              --prefill=0,0.25,0.5,0.75,0.9
//   §6 L between 2N and 4N         --size-factor=2,2.5,3,4
//   §6 Marsaglia vs Park–Miller    --rng=marsaglia,lehmer,pcg32
//   §6 c_i > 1 similar, slower     --algo=level --ci=1,2,3,4, op-count
//                                  for trials, timed for throughput
//   scale layer, sharded vs flat   --algo=level,sharded:level
//                                  --mult=200000 --seconds=0.5
//
// Op-count mode (the default) makes the trial metrics reproducible; a
// 1-thread op-count point is bit-for-bit deterministic. The README's
// "Benches → paper figures" table gives the exact command per figure.
//
// Throughput needs real hardware parallelism to grow with threads; on
// a 1-core host the sweep still runs the contended paths, but total
// ops/s stays roughly flat.
#include <iostream>
#include <map>
#include <stdexcept>

#include "bench_util/algos.hpp"
#include "bench_util/options.hpp"
#include "bench_util/report.hpp"
#include "stats/table.hpp"

namespace {

void print_usage() {
  std::cout <<
      "churn_sweep: the §6 churn workload over the cross product of the\n"
      "list-valued axes (Fig. 2 and the §6 robustness claims)\n"
      "  --algo=level,random,linear  structures (any registered name or\n"
      "                      alias; 'all' = every registered structure;\n"
      "                      'seq' = the deterministic first-fit scan)\n"
      "  --threads=1,2,4,8   thread counts\n"
      "  --batch=1           names per Free-k/Get-k exchange (>1 routes\n"
      "                      through the batch surface)\n"
      "  --prefill=0.5       pre-fill fractions of N held up front\n"
      "  --size-factor=2     L = size-factor * N\n"
      "  --rng=marsaglia     probe RNGs (marsaglia | lehmer | pcg32)\n"
      "  --ci=1              LevelArray probes per batch c_i (uniform\n"
      "                      across batches; structures without a\n"
      "                      LevelArray inside ignore it)\n"
      "  --mult=1000         emulated registrants per thread (N = mult*n)\n"
      "  --shards=8          shard count S for the sharded variants\n"
      "  --cache=16          per-thread free-name cache capacity (0 = off)\n"
      "  --deadline=0        per-exchange Get budget (10ms, 250us, 1s;\n"
      "                      bare number = ns; 0 = wait forever); expired\n"
      "                      exchanges count in the timeouts column\n"
      "  --ops=40000         op-count mode: Get+Free ops per thread\n"
      "  --seconds=S         timed mode: S-second window per point\n"
      "                      (excludes --ops)\n"
      "  --seed=42           base RNG seed\n"
      "  --json=<path>       also write the levelarray-bench-v1 report\n"
      "  --csv               emit CSV instead of a table\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace la;
  bench::Options opts(argc, argv);
  if (opts.has("help")) {
    print_usage();
    return 0;
  }

  const auto algos = bench::expand_algos(
      opts.get_string_list("algo", {"level", "random", "linear"}));
  const auto threads = opts.get_uint_list("threads", {1, 2, 4, 8});
  const auto batches = opts.get_uint_list("batch", {1});
  const auto prefills = opts.get_double_list("prefill", {0.5});
  const auto size_factors = opts.get_double_list("size-factor", {2.0});
  std::vector<rng::RngKind> rng_kinds;
  for (const auto& name : opts.get_string_list("rng", {"marsaglia"})) {
    rng_kinds.push_back(rng::parse_rng_kind(name));
  }
  const auto cis = opts.get_uint_list("ci", {1});
  for (const auto ci : cis) {
    if (ci == 0 || ci > 255) {
      throw std::invalid_argument("--ci: expected 1..255, got " +
                                  std::to_string(ci));
    }
  }
  const auto mult = opts.get_uint("mult", 1000);
  const auto shards = static_cast<std::uint32_t>(opts.get_uint("shards", 8));
  const auto cache = static_cast<std::uint32_t>(opts.get_uint("cache", 16));
  const auto deadline_ns = opts.get_duration_ns("deadline", 0);
  const auto seed = opts.get_uint("seed", 42);
  const std::string json_path = opts.get_string("json", "");
  const bool csv = opts.has("csv");
  const bool timed = opts.has("seconds");
  if (timed && opts.has("ops")) {
    std::cerr << "error: --ops (op-count mode) and --seconds (timed mode) "
                 "exclude each other\n";
    return 2;
  }
  const double seconds = opts.get_double("seconds", 0.0);
  if (timed && !(seconds > 0.0)) {
    std::cerr << "error: --seconds must be positive\n";
    return 2;
  }
  const auto ops = timed ? 0 : opts.get_uint("ops", 40000);
  opts.reject_unused();

  std::cout << "# churn_sweep: N = " << mult << " * threads, ";
  if (timed) {
    std::cout << seconds << " s windows";
  } else {
    std::cout << ops << " ops/thread";
  }
  std::cout << ", shards = " << shards << ", cache = " << cache << "\n";

  // ops/s of the first point swept at each thread count: the vs_first
  // column's baseline (with --algo=level,sharded:level, sharded vs flat;
  // with --batch=1,..., the batch amortization factor).
  std::map<std::uint64_t, double> baseline;

  bench::BenchReport report("churn_sweep");
  stats::Table table({"algo", "threads", "batch", "prefill", "size_factor",
                      "rng", "ci", "ops_per_sec", "avg_trials", "stddev",
                      "worst_mean_over_threads", "worst_global", "p99",
                      "backup_gets", "timeouts", "vs_first"});
  // The cross product, threads innermost so a structure's rows group.
  for (const auto& algo : algos)
  for (const auto batch : batches)
  for (const double prefill : prefills)
  for (const double size_factor : size_factors)
  for (const auto rng_kind : rng_kinds)
  for (const auto ci : cis)
  for (const auto n : threads) {
    bench::SweepPoint point;
    point.driver.threads = static_cast<std::uint32_t>(n);
    point.driver.emulation_multiplier = mult;
    point.driver.prefill = prefill;
    point.driver.ops_per_thread = ops;
    point.driver.seconds = seconds;
    point.driver.seed = seed;
    point.driver.rng_kind = rng_kind;
    point.driver.batch = batch;
    point.driver.deadline_ns = deadline_ns;
    point.size_factor = size_factor;
    point.probes_per_batch = {static_cast<std::uint8_t>(ci)};
    point.shards = shards;
    point.name_cache_capacity = cache;
    bench::RunResult result;
    try {
      result = bench::run_algo(algo, point);
    } catch (const std::invalid_argument& e) {
      // A structure may refuse a sweep point (e.g. the splitter's
      // quadratic-memory cap); keep the rest of the sweep's results.
      std::cerr << "warning: skipping " << algo << ": " << e.what() << "\n";
      continue;
    }
    const double ops_per_sec = result.throughput_ops_per_sec;
    const double first = baseline.emplace(n, ops_per_sec).first->second;
    const double vs_first = first > 0.0 ? ops_per_sec / first : 0.0;
    // Expired exchanges per completed op: the latency-SLO number a
    // deadline run exists to measure.
    const double timeout_rate =
        result.total_ops != 0 ? static_cast<double>(result.timeouts) /
                                    static_cast<double>(result.total_ops)
                              : 0.0;
    const std::string rng_name = rng::rng_kind_name(rng_kind);
    table.add_row({std::string(bench::algo_name(algo)), n, batch, prefill,
                   size_factor, rng_name, ci, ops_per_sec,
                   result.trials.average(), result.trials.stddev(),
                   result.mean_per_thread_worst, result.trials.worst_case(),
                   result.trials.p99(), result.backup_gets, result.timeouts,
                   vs_first});
    report.add_run()
        .set("structure", algo)
        .set("rng", rng_name)
        .set("threads", n)
        .set("batch", batch)
        .set("deadline_ns", deadline_ns)
        .set("timeouts", result.timeouts)
        .set("timeout_rate", timeout_rate)
        .set_object("config",
                    bench::JsonObject()
                        .set("mult", mult)
                        .set("registrants",
                             point.driver.emulated_registrants())
                        .set("size_factor", size_factor)
                        .set("prefill", prefill)
                        .set("ci", ci)
                        .set("ops_per_thread", ops)
                        .set("seconds", seconds)
                        .set("seed", seed)
                        .set("shards", shards)
                        .set("cache", cache))
        .set("ops_per_sec", ops_per_sec)
        .set("total_ops", result.total_ops)
        .set("elapsed_seconds", result.elapsed_seconds)
        .set("backup_gets", result.backup_gets)
        .set("speedup_vs_first", vs_first)
        .set_object("probes", bench::probe_stats_json(result.trials));
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  if (!json_path.empty() && !report.write_file(json_path, std::cerr)) {
    return 1;
  }
  return 0;
}
