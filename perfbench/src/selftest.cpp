// Tests of the benchmark's own statistics: histogram percentiles against
// an exact sort of seeded inputs, and self-time subtraction on a
// synthetic span tree. Exit status is the number of failed checks.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

// Every quantile of every seeded distribution lies within the stated
// bucket error of the exact nearest-rank value.
void histogram_matches_exact_sort() {
  const double qs[] = {0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    std::lognormal_distribution<double> spread(5.0 + 0.2 * seed, 1.5);
    perfbench::LogHistogram h;
    std::vector<std::uint64_t> values;
    const std::size_t n = 1000 + 997 * seed;
    for (std::size_t i = 0; i < n; ++i) {
      const auto v = static_cast<std::uint64_t>(spread(rng));
      values.push_back(v);
      h.add(v);
    }
    double sum = 0;
    for (const std::uint64_t v : values) sum += static_cast<double>(v);
    expect(std::fabs(h.mean() - sum / static_cast<double>(n)) < 1e-9 * sum,
           "histogram mean is the exact mean");
    std::sort(values.begin(), values.end());
    for (const double q : qs) {
      const std::uint64_t rank = perfbench::LogHistogram::rank_of(q, n);
      const double exact = static_cast<double>(values[rank - 1]);
      const double got = h.quantile(q);
      const double bound =
          std::max(1.0, exact * perfbench::LogHistogram::kRelativeError);
      if (std::fabs(got - exact) > bound) {
        std::fprintf(stderr, "seed %llu q=%g: exact %.1f, histogram %.3f\n",
                     static_cast<unsigned long long>(seed), q, exact, got);
        expect(false, "histogram quantile outside its bucket error");
      }
    }
  }
  perfbench::LogHistogram empty;
  expect(empty.quantile(0.5) == 0.0 && empty.mean() == 0.0,
         "empty histogram quantile and mean are 0");
  // Bucket edges: every value maps to the bucket whose range holds it.
  for (std::uint64_t v : {0ull, 1ull, 63ull, 64ull, 65ull, 127ull, 128ull,
                          1000ull, 123456789ull, 1ull << 40}) {
    const std::size_t i = perfbench::LogHistogram::index(v);
    expect(perfbench::LogHistogram::lower(i) <= v &&
               v < perfbench::LogHistogram::lower(i + 1),
           "value lies inside its bucket");
  }
}

// exact_quantile is the nearest-rank definition.
void exact_quantile_is_nearest_rank() {
  std::vector<double> v = {5, 1, 4, 2, 3};
  expect(perfbench::exact_quantile(v, 0.5) == 3, "median of 1..5");
  expect(perfbench::exact_quantile(v, 0.9) == 5, "p90 of 1..5");
  expect(perfbench::exact_quantile(v, 0.2) == 1, "p20 of 1..5");
  std::vector<double> none;
  expect(perfbench::exact_quantile(none, 0.5) == 0, "empty quantile is 0");
}

// A synthetic tree on one thread:
//   0 client  [0, 1000)
//   1   dispatch [100, 700)
//   2     core  [200, 300)
//   3     core  [250, 400)   overlaps span 2: union counts once
//   4     core  [650, 800)   runs past its parent: clipped at 700
//   5   dispatch [800, 900)
//   6 client  [2000, 2050)   a second root with no children
void self_time_subtraction() {
  using perfbench::Span;
  std::vector<Span> spans = {
      {0, 1000, -1, 0, 0},  {100, 700, 0, 1, 0}, {200, 300, 1, 3, 0},
      {250, 400, 1, 3, 0},  {650, 800, 1, 3, 0}, {800, 900, 0, 1, 0},
      {2000, 2050, -1, 0, 0},
  };
  const std::vector<std::uint64_t> self = perfbench::self_times(spans);
  expect(self.size() == spans.size(), "one self time per span");
  expect(self[0] == 1000 - 600 - 100, "root minus both children");
  expect(self[1] == 600 - 200 - 50, "overlapping and clipped children");
  expect(self[2] == 100 && self[3] == 150 && self[4] == 150,
         "leaves keep their whole duration");
  expect(self[5] == 100, "childless inner span");
  expect(self[6] == 50, "second root");
  // A properly nested tree: the self times add back to the root span.
  const std::vector<Span> nested = {
      {0, 100, -1, 0, 0}, {10, 60, 0, 1, 0}, {20, 30, 1, 3, 0},
      {70, 90, 0, 1, 0},
  };
  std::uint64_t sum = 0;
  for (const std::uint64_t s : perfbench::self_times(nested)) sum += s;
  expect(sum == 100, "nested self times sum to the root span");
}

}  // namespace

int main() {
  histogram_matches_exact_sort();
  exact_quantile_is_nearest_rank();
  self_time_subtraction();
  if (failures == 0) std::printf("perfbench selftest: OK\n");
  return failures;
}
