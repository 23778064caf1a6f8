// The benchmark's own statistics: a log-bucketed latency histogram, exact
// quantiles over small sample sets, and span self-time subtraction.
// Tested by selftest.cpp against an exact sort and a synthetic span tree.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

namespace perfbench {

// Latency histogram in nanoseconds. Values below 64 get one bucket each;
// above, every power of two splits into 64 equal buckets, so a bucket is
// at most 1/64 of its lower edge wide. quantile() interpolates by rank
// inside the bucket that holds the nearest-rank sample, which keeps the
// estimate inside that bucket: |estimate - exact| <= exact / 64.
class LogHistogram {
 public:
  static constexpr unsigned kSubBits = 6;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr unsigned kMaxExp = 44;  // ~4.9 hours in ns
  static constexpr std::size_t kBuckets = kSub + (kMaxExp - kSubBits) * kSub;
  static constexpr double kRelativeError = 1.0 / kSub;

  void add(std::uint64_t v) {
    ++counts_[index(v)];
    ++n_;
    sum_ += v;
  }

  void merge(const LogHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    n_ += other.n_;
    sum_ += other.sum_;
  }

  std::uint64_t count() const { return n_; }

  // Exact mean of the added values; 0 for an empty histogram.
  double mean() const {
    return n_ ? static_cast<double>(sum_) / static_cast<double>(n_) : 0.0;
  }

  // Nearest-rank quantile (rank = ceil(q * n)), interpolated inside its
  // bucket. 0 for an empty histogram.
  double quantile(double q) const {
    if (n_ == 0) return 0.0;
    std::uint64_t rank = rank_of(q, n_);
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      if (below + counts_[i] >= rank) {
        const double lo = static_cast<double>(lower(i));
        const double width = static_cast<double>(lower(i + 1) - lower(i));
        const double within =
            (static_cast<double>(rank - below) - 0.5) /
            static_cast<double>(counts_[i]);
        return lo + width * within;
      }
      below += counts_[i];
    }
    return static_cast<double>(lower(kBuckets - 1));
  }

  static std::uint64_t rank_of(double q, std::uint64_t n) {
    auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n));
    if (static_cast<double>(rank) < q * static_cast<double>(n)) ++rank;
    if (rank < 1) rank = 1;
    if (rank > n) rank = n;
    return rank;
  }

  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned exp = 63u - static_cast<unsigned>(__builtin_clzll(v));
    if (exp >= kMaxExp) return kBuckets - 1;
    const unsigned shift = exp - kSubBits;
    const std::uint64_t sub = (v >> shift) & (kSub - 1);
    return static_cast<std::size_t>(kSub + shift * kSub + sub);
  }

  // Smallest value that lands in bucket i.
  static std::uint64_t lower(std::size_t i) {
    if (i < kSub) return i;
    const std::uint64_t shift = (i - kSub) / kSub;
    const std::uint64_t sub = (i - kSub) % kSub;
    return (kSub + sub) << shift;
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t n_ = 0;
  std::uint64_t sum_ = 0;
};

// Nearest-rank quantile of a small sample set (collect and migrate
// latencies: hundreds of samples, kept exactly). Sorts in place.
inline double exact_quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::uint64_t rank = LogHistogram::rank_of(q, values.size());
  return values[static_cast<std::size_t>(rank - 1)];
}

inline double median(std::vector<double> values) {
  return exact_quantile(values, 0.5);
}

// One timed call into a layer, recorded by the benchmark's decorators.
// `parent` indexes the enclosing span in the same thread's buffer, or is
// -1 for a top-level call.
struct Span {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::int32_t parent = -1;
  std::uint8_t layer = 0;
  std::uint8_t op = 0;
};

// Self time of every span: its duration minus the part of its interval
// covered by its children (the union of the child intervals, clipped to
// the parent, so overlapping or out-of-range children are not counted
// twice). Parents must precede their children, as recording on entry
// guarantees.
inline std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::int32_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < i) {
      children[static_cast<std::size_t>(p)].push_back(
          static_cast<std::int32_t>(i));
    }
  }
  std::vector<std::uint64_t> self(spans.size(), 0);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end <= s.start) continue;
    cover.clear();
    for (const std::int32_t c : children[i]) {
      const Span& k = spans[static_cast<std::size_t>(c)];
      const std::uint64_t lo = std::max(k.start, s.start);
      const std::uint64_t hi = std::min(k.end, s.end);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::uint64_t covered = 0;
    std::uint64_t run_lo = 0;
    std::uint64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : cover) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (s.end - s.start) - covered;
  }
  return self;
}

}  // namespace perfbench
