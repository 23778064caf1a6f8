// collect_cost — measures the Collect() operation: the paper's analysis
// gives Theta(L) step complexity (it reads every slot), and the paper's §1
// argues the dense array layout is what makes collects fast in practice
// (sequential scans are cache-friendly). This bench reports collect
// latency as a function of L and of the number of registered names, plus
// the per-slot scan cost, confirming the linear shape.
//
// --scan ablates the scan engine itself: `word` is the production
// engine (core/slot_scan.hpp; its append_held runs the AVX-512 body where
// the CPU has it, the 8-slots-per-load word body elsewhere), `byte` the
// one-atomic-load-per-slot reference it replaced — so the engine's win is
// measured here, not asserted in a comment. Each run's config records the
// body that ran as "kernel": avx512, words or bytes.
#include <iostream>
#include <string>
#include <vector>

#include "arrays/bitmap_array.hpp"
#include "bench_util/options.hpp"
#include "bench_util/report.hpp"
#include "bench_util/timing.hpp"
#include "core/level_array.hpp"
#include "core/slot_scan.hpp"
#include "rng/rng.hpp"
#include "stats/table.hpp"
#include "stats/welford.hpp"

namespace {

void print_usage() {
  std::cout <<
      "collect_cost: Collect() latency vs array size (Theta(L) check)\n"
      "  --capacities=1000,2000,4000,8000,16000  contention bounds to sweep\n"
      "  --load=0.5          fraction of capacity registered during collects\n"
      "  --reps=2000         collects per point\n"
      "  --scan=word         scan engine: word (8 slots/load) | byte\n"
      "                      (per-slot reference)\n"
      "  --seed=42           RNG seed\n"
      "  --json=<path>       also write the machine-readable report\n"
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

  const auto capacities =
      opts.get_uint_list("capacities", {1000, 2000, 4000, 8000, 16000});
  const double load = opts.get_double("load", 0.5);
  const auto reps = opts.get_uint("reps", 2000);
  const std::string scan = opts.get_string("scan", "word");
  const auto seed = opts.get_uint("seed", 42);
  const std::string json_path = opts.get_string("json", "");
  const bool csv = opts.has("csv");
  opts.reject_unused();
  if (scan != "word" && scan != "byte") {
    std::cerr << "collect_cost: --scan=" << scan
              << " (expected word or byte)\n";
    return 1;
  }
  const bool word_scan = scan == "word";
  const std::string kernel =
      word_scan ? core::slot_scan::append_held_kernel() : "bytes";
  const auto run_collect = [word_scan](const core::LevelArray& array,
                                       std::vector<std::uint64_t>& out) {
    return word_scan ? array.collect(out) : array.collect_bytewise(out);
  };

  bench::BenchReport report("collect_cost");

  std::cout << "# Collect cost: latency vs L (expect linear; per-slot cost "
               "roughly constant)\n"
            << "# load = " << load << " of capacity registered, " << reps
            << " collects per point, scan engine = " << scan
            << " (kernel " << kernel << ")\n";

  stats::Table table({"capacity", "L_total_slots", "registered",
                      "collect_us_mean", "collect_us_stddev", "ns_per_slot"});
  for (const auto capacity : capacities) {
    core::LevelArrayConfig config;
    config.capacity = capacity;
    core::LevelArray array(config);
    rng::MarsagliaXorshift rng(seed + capacity);

    std::vector<std::uint64_t> held;
    const auto target =
        static_cast<std::uint64_t>(load * static_cast<double>(capacity));
    for (std::uint64_t i = 0; i < target; ++i) {
      held.push_back(array.get(rng).name);
    }

    stats::Welford latency_us;
    std::vector<std::uint64_t> out;
    out.reserve(array.total_slots());
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
      out.clear();
      bench::Stopwatch watch;
      const std::size_t found = run_collect(array, out);
      latency_us.add(static_cast<double>(watch.elapsed_nanos()) / 1000.0);
      if (found != held.size()) {
        std::cerr << "collect found " << found << ", expected " << held.size()
                  << "\n";
        return 1;
      }
    }

    const double mean_us = latency_us.mean();
    table.add_row({std::uint64_t{capacity}, array.total_slots(),
                   static_cast<std::uint64_t>(held.size()), mean_us,
                   latency_us.stddev(),
                   mean_us * 1000.0 /
                       static_cast<double>(array.total_slots())});
    report.add_run()
        .set("structure", "level")
        .set("rng", "marsaglia")
        .set("threads", 1)
        .set_object("config", bench::JsonObject()
                                  .set("capacity", std::uint64_t{capacity})
                                  .set("total_slots", array.total_slots())
                                  .set("registered",
                                       static_cast<std::uint64_t>(held.size()))
                                  .set("load", load)
                                  .set("reps", reps)
                                  .set("scan", scan)
                                  .set("kernel", kernel)
                                  .set("seed", seed))
        // One "op" is one full Collect of the array.
        .set("ops_per_sec", mean_us > 0.0 ? 1e6 / mean_us : 0.0)
        .set("collect_us_mean", mean_us)
        .set("collect_us_stddev", latency_us.stddev())
        .set("ns_per_slot", mean_us * 1000.0 /
                                static_cast<double>(array.total_slots()));
    for (const auto name : held) array.free(name);
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  // Layout ablation: byte-per-slot (the paper's structure, dense for TAS,
  // scanned with the engine picked by --scan) versus bit-per-slot (64
  // slots per load, densest possible collect).
  std::cout << "\n# layout ablation: 1-byte slots vs bitmap (64 slots/word)\n";
  stats::Table layout({"capacity", "byte_collect_us", "bitmap_collect_us",
                       "bitmap_speedup_x"});
  for (const auto capacity : capacities) {
    const std::uint64_t slots = 2 * capacity;
    const auto target =
        static_cast<std::uint64_t>(load * static_cast<double>(capacity));

    core::LevelArrayConfig config;
    config.capacity = capacity;
    core::LevelArray bytes(config);
    arrays::BitmapActivityArray bits(slots, capacity);
    rng::MarsagliaXorshift rng(seed ^ capacity);
    std::vector<std::uint64_t> byte_names, bit_names;
    for (std::uint64_t i = 0; i < target; ++i) {
      byte_names.push_back(bytes.get(rng).name);
      bit_names.push_back(bits.get(rng).name);
    }

    stats::Welford byte_us, bit_us;
    std::vector<std::uint64_t> out;
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
      out.clear();
      bench::Stopwatch w1;
      (void)run_collect(bytes, out);
      byte_us.add(static_cast<double>(w1.elapsed_nanos()) / 1000.0);
      out.clear();
      bench::Stopwatch w2;
      (void)bits.collect(out);
      bit_us.add(static_cast<double>(w2.elapsed_nanos()) / 1000.0);
    }
    layout.add_row({std::uint64_t{capacity}, byte_us.mean(), bit_us.mean(),
                    bit_us.mean() > 0 ? byte_us.mean() / bit_us.mean() : 0.0});
    report.add_run()
        .set("structure", "bitmap")
        .set("rng", "marsaglia")
        .set("threads", 1)
        .set_object("config", bench::JsonObject()
                                  .set("capacity", std::uint64_t{capacity})
                                  .set("total_slots", slots)
                                  .set("registered", target)
                                  .set("load", load)
                                  .set("reps", reps)
                                  .set("seed", seed))
        .set("ops_per_sec",
             bit_us.mean() > 0.0 ? 1e6 / bit_us.mean() : 0.0)
        .set("collect_us_mean", bit_us.mean())
        .set("byte_collect_us_mean", byte_us.mean());
    for (const auto name : byte_names) bytes.free(name);
    for (const auto name : bit_names) bits.free(name);
  }
  if (csv) {
    layout.print_csv(std::cout);
  } else {
    layout.print(std::cout);
  }

  if (!json_path.empty() && !report.write_file(json_path, std::cerr)) {
    return 1;
  }
  return 0;
}
