#include "bench_util/algos.hpp"

#include "api/registry.hpp"

namespace la::bench {

std::string parse_algo(const std::string& name) {
  return api::resolve_structure(name);
}

std::string_view algo_name(const std::string& canonical) {
  return api::structure_label(canonical);
}

std::vector<std::string> expand_algos(const std::vector<std::string>& names) {
  std::vector<std::string> out;
  const auto add = [&out](std::string canonical) {
    // First mention wins: "all,level" or "level,levelarray" runs (and
    // prints) each structure once.
    for (const auto& existing : out) {
      if (existing == canonical) return;
    }
    out.push_back(std::move(canonical));
  };
  for (const auto& name : names) {
    if (name == "all") {
      for (auto& registered : api::registered_names()) {
        add(std::move(registered));
      }
    } else {
      add(api::resolve_structure(name));
    }
  }
  return out;
}

api::RenamerConfig renamer_config(const SweepPoint& point) {
  api::RenamerConfig config;
  config.capacity = point.driver.emulated_registrants();
  config.size_factor = point.size_factor;
  config.probes_per_batch = point.probes_per_batch;
  config.shards = point.shards;
  config.name_cache_capacity = point.name_cache_capacity;
  return config;
}

std::vector<RunResult> run_algo_chunks(const std::string& name_or_alias,
                                       const SweepPoint& point,
                                       std::uint64_t chunks) {
  return api::visit(name_or_alias, renamer_config(point), [&](auto& array) {
    std::vector<RunResult> results;
    DriverConfig driver = point.driver;
    for (std::uint64_t c = 0; c < chunks; ++c) {
      driver.seed = point.driver.seed + c;
      results.push_back(detail::drive_with_rng(array, driver));
    }
    return results;
  });
}

RunResult run_algo(const std::string& name_or_alias, const SweepPoint& point) {
  return run_algo_chunks(name_or_alias, point, 1).front();
}

}  // namespace la::bench
