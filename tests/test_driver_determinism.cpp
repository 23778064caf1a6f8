// Determinism of the bench driver's seed plumbing: the same DriverConfig
// seed in single-thread op-count mode must yield bit-identical RunResult
// trial stats, for every registered structure, every registered probe
// RNG and both the single-op and a batched (k = 16) exchange — and a
// different seed must actually change the probe stream for the
// randomized structures (i.e. the seed is plumbed, not ignored).
// Timing fields (elapsed/throughput) are wall-clock and excluded.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "bench_util/algos.hpp"
#include "core/level_array.hpp"
#include "rng/rng.hpp"

namespace {

int failures = 0;
std::string current;

#define CHECK(cond)                                                       \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "FAIL [%s] %s:%d: %s\n", current.c_str(),      \
                   __FILE__, __LINE__, #cond);                            \
      ++failures;                                                         \
    }                                                                     \
  } while (0)

bool same_trials(const la::bench::RunResult& a, const la::bench::RunResult& b) {
  return a.trials.operations() == b.trials.operations() &&
         a.trials.worst_case() == b.trials.worst_case() &&
         a.trials.histogram() == b.trials.histogram() &&
         a.total_ops == b.total_ops && a.backup_gets == b.backup_gets &&
         a.mean_per_thread_worst == b.mean_per_thread_worst;
}

la::bench::SweepPoint point_for(std::uint64_t seed, la::rng::RngKind kind,
                                std::uint64_t batch = 1) {
  la::bench::SweepPoint point;
  point.driver.threads = 1;
  point.driver.emulation_multiplier = 256;
  point.driver.prefill = 0.5;
  point.driver.ops_per_thread = 4096;
  point.driver.seed = seed;
  point.driver.rng_kind = kind;
  point.driver.batch = batch;
  return point;
}

}  // namespace

int main() {
  using namespace la;

  const std::vector<std::string> randomized = {"level", "random", "linear",
                                               "bitmap", "id"};
  // Exempt from the reseed check below: seq/splitter are deterministic
  // by design, and the sharded variants' churn histograms are almost
  // all cache hits (probes == 1), so two seeds can legitimately
  // coincide. Same-seed bit-identity must still hold for all of them —
  // including the scale layer's claim-order and park/pop plumbing over
  // each registered inner kind (level, linear).
  std::vector<std::string> deterministic = {"seq", "splitter"};
  for (const auto& name : api::registered_names()) {
    if (name.rfind("sharded:", 0) == 0) deterministic.push_back(name);
  }
  const std::vector<rng::RngKind> kinds = {
      rng::RngKind::kMarsaglia, rng::RngKind::kLehmer, rng::RngKind::kPcg32};

  for (const auto kind : kinds) {
    auto all = randomized;
    all.insert(all.end(), deterministic.begin(), deterministic.end());
    // batch = 16 pins the batched exchange too: native get_batch on
    // level and the sharded variants, the api fallback loop elsewhere.
    for (const std::uint64_t batch : {1u, 16u}) {
      for (const auto& algo : all) {
        current = algo + "/batch=" + std::to_string(batch);
        const auto a = bench::run_algo(algo, point_for(42, kind, batch));
        const auto b = bench::run_algo(algo, point_for(42, kind, batch));
        CHECK(a.trials.operations() > 0);
        CHECK(same_trials(a, b));
      }
    }
    // Seed actually reaches the probe streams: a different seed must move
    // the exact trial histogram. Only the structures whose histograms
    // carry real entropy at this load participate — `id` runs at 1/16
    // load where nearly every Get is one probe, so two seeds can
    // plausibly produce identical histograms; it shares drive()'s seed
    // path with `random` anyway. The deterministic structures are exempt
    // by design.
    for (const std::string algo : {"level", "random", "linear", "bitmap"}) {
      current = algo + "/reseed";
      const auto a = bench::run_algo(algo, point_for(42, kind));
      const auto c = bench::run_algo(algo, point_for(43, kind));
      CHECK(!same_trials(a, c));
    }
  }

  // run_churn against a caller-owned persistent array: deterministic for
  // a fresh array + same seed, and chunk seeds must not replay (the
  // longrun bench varies seed per chunk for exactly this reason).
  {
    current = "run_churn";
    const auto run_once = [](std::uint64_t seed) {
      core::LevelArrayConfig config;
      config.capacity = 256;
      core::LevelArray array(config);
      bench::DriverConfig driver;
      driver.threads = 1;
      driver.emulation_multiplier = 256;
      driver.ops_per_thread = 4096;
      driver.seed = seed;
      return bench::run_churn(array, driver);
    };
    const auto a = run_once(7);
    const auto b = run_once(7);
    const auto c = run_once(8);
    CHECK(same_trials(a, b));
    CHECK(!same_trials(a, c));
  }

  // run_algo_chunks (longrun_stability's entry): its chunks are
  // run_churn calls on one persistent structure seeded s, s + 1, s + 2,
  // trial for trial.
  {
    current = "run_algo_chunks";
    const bench::SweepPoint point = point_for(11, rng::RngKind::kMarsaglia);
    const auto chunks = bench::run_algo_chunks("level", point, 3);
    CHECK(chunks.size() == 3);
    core::LevelArrayConfig config;
    config.capacity = point.driver.emulated_registrants();
    config.size_multiplier = point.size_factor;
    core::LevelArray array(config);
    for (std::uint64_t c = 0; c < chunks.size(); ++c) {
      bench::DriverConfig driver = point.driver;
      driver.seed = point.driver.seed + c;
      CHECK(same_trials(chunks[c], bench::run_churn(array, driver)));
    }
    if (chunks.size() == 3) CHECK(!same_trials(chunks[0], chunks[1]));
  }

  if (failures != 0) {
    std::fprintf(stderr, "%d determinism check(s) failed\n", failures);
    return 1;
  }
  std::puts("test_driver_determinism: OK");
  return 0;
}
