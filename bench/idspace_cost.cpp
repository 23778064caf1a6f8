// idspace_cost — measures the paper's footnote 1: indexing the activity
// array by thread id makes Get trivial but makes Collect (and memory)
// scale with the size of the id space N instead of the contention bound
// n. The LevelArray keeps Collect at Theta(n) for the same workload.
//
// Output: collect latency for both structures as the id space grows while
// the number of *registered* threads stays fixed.
#include <iostream>
#include <vector>

#include "arrays/id_array.hpp"
#include "bench_util/options.hpp"
#include "bench_util/timing.hpp"
#include "core/level_array.hpp"
#include "rng/rng.hpp"
#include "stats/table.hpp"
#include "stats/welford.hpp"

namespace {

void print_usage() {
  std::cout <<
      "idspace_cost: footnote-1 strawman — collect cost vs id-space size\n"
      "  --contention=64      threads actually registered (n)\n"
      "  --idspaces=1024,16384,262144,1048576  id-space sizes (N)\n"
      "  --reps=300           collects per point\n"
      "  --seed=42            RNG seed\n"
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

  const auto contention = opts.get_uint("contention", 64);
  const auto idspaces =
      opts.get_uint_list("idspaces", {1024, 16384, 262144, 1048576});
  const auto reps = opts.get_uint("reps", 300);
  const auto seed = opts.get_uint("seed", 42);
  const bool csv = opts.has("csv");
  opts.reject_unused();

  // The LevelArray reference point: sized by contention, not id space.
  core::LevelArrayConfig config;
  config.capacity = contention;
  core::LevelArray level(config);
  rng::MarsagliaXorshift rng(seed);
  std::vector<std::uint64_t> level_names;
  for (std::uint64_t i = 0; i < contention; ++i) {
    level_names.push_back(level.get(rng).name);
  }
  stats::Welford level_us;
  std::vector<std::uint64_t> out;
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    out.clear();
    bench::Stopwatch watch;
    (void)level.collect(out);
    level_us.add(static_cast<double>(watch.elapsed_nanos()) / 1000.0);
  }

  std::cout << "# Footnote 1: id-indexed array vs LevelArray, " << contention
            << " registered threads\n"
            << "# LevelArray collect (" << level.total_slots()
            << " slots, independent of id space): " << level_us.mean()
            << " us\n";

  stats::Table table({"id_space_N", "slots_scanned", "collect_us",
                      "vs_levelarray_x"});
  for (const auto id_space : idspaces) {
    if (id_space < contention) {
      std::cerr << "skipping id space " << id_space << " < contention\n";
      continue;
    }
    arrays::IdIndexedArray ids(id_space);
    // Register `contention` threads at ids spread across the space (the
    // worst realistic case: ids are sparse).
    std::vector<std::uint64_t> names;
    const std::uint64_t stride = id_space / contention;
    for (std::uint64_t i = 0; i < contention; ++i) {
      names.push_back(ids.get_by_id(i * stride).name);
    }
    stats::Welford id_us;
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
      out.clear();
      bench::Stopwatch watch;
      const std::size_t found = ids.collect(out);
      id_us.add(static_cast<double>(watch.elapsed_nanos()) / 1000.0);
      if (found != contention) {
        std::cerr << "collect lost registrations\n";
        return 1;
      }
    }
    table.add_row({std::uint64_t{id_space}, std::uint64_t{id_space},
                   id_us.mean(),
                   level_us.mean() > 0 ? id_us.mean() / level_us.mean() : 0.0});
    for (const auto name : names) ids.free(name);
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  for (const auto name : level_names) level.free(name);
  return 0;
}
