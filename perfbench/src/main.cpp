// perfbench — the repository benchmark. One workload per invocation:
//
//   perfbench --workload flat-churn-collect --seed 7 --seconds 10 --trace 0
//
// --trace 0 measures the bare stack and prints the end-to-end metrics;
// --trace 1 measures the bare stack for half the window (the reference
// for gen.trace_overhead) and the span-decorated stack for the other
// half, replays the event log through stress::check_trace, and prints
// the per-layer metrics. --inject core or client adds a fixed delay to
// every call into that layer (the sensitivity check).
//
// The last line of stdout is one JSON object: correct, attempted,
// failed and metrics. Exit status 0 means the run completed; `correct`
// says whether every check passed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {


struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Span totals per (layer, op), summed over every thread buffer.
struct LayerOp {
  CallCount count;
  std::uint64_t sampled = 0;
  double dur_ns = 0;
  double self_ns = 0;

  double dur_mean() const { return sampled ? dur_ns / sampled : 0.0; }
  double self_mean() const { return sampled ? self_ns / sampled : 0.0; }
  // Self time of every call, estimated from the sampled spans.
  double self_total() const { return self_mean() * count.calls; }
  double dur_total() const { return dur_mean() * count.calls; }
};

struct LayerTotals {
  LayerOp at[kLayers][kOps];
  const LayerOp& operator()(Layer l, Op o) const {
    return at[static_cast<int>(l)][static_cast<int>(o)];
  }
};

// A renamer that does nothing, for measuring what a span itself costs.
struct NopRenamer {
  template <typename Rng>
  la::GetResult get(Rng&) {
    return {};
  }
  void free(std::uint64_t) {}
  std::size_t collect(std::vector<std::uint64_t>&) const { return 0; }
  std::uint64_t capacity() const { return 1; }
  std::uint64_t total_slots() const { return 2; }
};

// Timer cost a span adds: `in_ns` shows up inside its own duration, and
// `child_ns` is what one child span adds to its parent's duration.
// `clock_ns` is what two back-to-back clock reads measure, the cost the
// harness's own latency samples carry.
struct SpanOverhead {
  double in_ns = 0;
  double child_ns = 0;
  double clock_ns = 0;
};

SpanOverhead calibrate_spans() {
  using Leaf = Decorated<NopRenamer, SpanHook<Layer::kCore>>;
  using Nested = Decorated<Leaf, SpanHook<Layer::kScale>>;
  TraceRegistry& registry = TraceRegistry::instance();
  registry.reset();
  Leaf leaf(std::make_unique<NopRenamer>());
  Nested nested(std::make_unique<Leaf>(std::make_unique<NopRenamer>()));
  registry.set_enabled(true);
  for (int i = 0; i < 1 << 18; ++i) leaf.free(0);
  for (int i = 0; i < 1 << 18; ++i) nested.free(0);
  registry.set_enabled(false);
  std::vector<double> leaf_ns, nested_ns;
  for (const auto& t : registry.traces()) {
    for (const Span& s : t->spans) {
      if (s.parent >= 0) continue;
      const auto d = static_cast<double>(s.end - s.start);
      (s.layer == static_cast<std::uint8_t>(Layer::kCore) ? leaf_ns : nested_ns)
          .push_back(d);
    }
  }
  registry.reset();
  std::vector<double> clock;
  for (int i = 0; i < 1 << 16; ++i) {
    const std::uint64_t t0 = now_ns();
    clock.push_back(static_cast<double>(now_ns() - t0));
  }
  SpanOverhead o;
  o.in_ns = median(leaf_ns);
  o.child_ns = std::max(0.0, median(nested_ns) - o.in_ns);
  o.clock_ns = median(clock);
  return o;
}

// Sums every thread buffer. Durations and self times are corrected for
// the timer cost measured by calibrate_spans().
LayerTotals summarize_traces(const SpanOverhead& o) {
  LayerTotals totals;
  for (const auto& t : TraceRegistry::instance().traces()) {
    const std::vector<Span>& spans = t->spans;
    const std::vector<std::uint64_t> self = self_times(spans);
    std::vector<std::uint32_t> kids(spans.size(), 0), desc(spans.size(), 0);
    for (std::size_t i = spans.size(); i-- > 0;) {
      const std::int32_t p = spans[i].parent;
      if (p < 0) continue;
      ++kids[static_cast<std::size_t>(p)];
      desc[static_cast<std::size_t>(p)] += 1 + desc[i];
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.end <= s.start) continue;
      LayerOp& lo = totals.at[s.layer][s.op];
      ++lo.sampled;
      lo.dur_ns += std::max(0.0, static_cast<double>(s.end - s.start) -
                                     o.in_ns - desc[i] * o.child_ns);
      lo.self_ns += std::max(0.0, static_cast<double>(self[i]) - o.in_ns -
                                      kids[i] * (o.child_ns - o.in_ns));
    }
    for (std::size_t l = 0; l < kLayers; ++l) {
      for (std::size_t o_ = 0; o_ < kOps; ++o_) {
        const CallCount& c = t->counts[l][o_];
        CallCount& into = totals.at[l][o_].count;
        into.calls += c.calls;
        into.names += c.names;
        into.probes += c.probes;
        into.backups += c.backups;
        if (c.probes_max > into.probes_max) into.probes_max = c.probes_max;
      }
    }
  }
  return totals;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

enum class Workload { kFlat, kSharded, kSvc };

// Set-ups per timed run; setup_s is their median. The service sets up in
// about half a millisecond, mostly thread start-up, so it needs many more
// of them to give a steady median (with 25 the ten-seed spread was 0.4).
int setup_repeats(Workload w) { return w == Workload::kSvc ? 101 : 15; }

template <typename Stack>
Result run(Workload w, const RunSpec& spec) {
  switch (w) {
    case Workload::kFlat:
      return run_inprocess<FlatOf<Stack>>(&build_flat<Stack>, spec);
    case Workload::kSharded:
      return run_inprocess<ShardedOf<Stack>>(&build_sharded<Stack>, spec);
    case Workload::kSvc:
      return run_svc<Stack>(spec);
  }
  throw std::logic_error("unknown workload");
}

template <typename Stack>
Result run_with_setup_repeats(Workload w, RunSpec spec,
                              std::vector<double>& setups) {
  RunSpec setup_only = spec;
  setup_only.setup_only = true;
  for (int i = 1; i < setup_repeats(w); ++i) {
    setups.push_back(run<Stack>(w, setup_only).setup_s);
  }
  Result r = run<Stack>(w, spec);
  setups.push_back(r.setup_s);
  return r;
}

std::vector<Metric> end_to_end(const Result& r,
                               const std::vector<double>& setups) {
  std::vector<double> collects = r.collect_us;
  return {
      {"setup_s", median(setups), "s"},
      {"ops_per_s", ratio(static_cast<double>(r.ops), r.window_s), "1/s"},
      {"get_p50_ns", r.get_ns->quantile(0.50), "ns"},
      {"free_p50_ns", r.free_ns->quantile(0.50), "ns"},
      {"free_p99_ns", r.free_ns->quantile(0.99), "ns"},
      {"collect_p50_us", exact_quantile(collects, 0.50), "us"},
  };
}

// Per-layer metrics. `plain` is the bare-stack half of the traced run
// (public layer stats, generator and checkpoint timings); `traced` is the
// decorated half, whose spans are in the registry.
std::vector<Metric> per_layer(Workload w, const Result& plain,
                              const Result& traced, const LayerTotals& t,
                              const SpanOverhead& overhead,
                              bool& path_within) {
  const LayerOp& core_get = t(Layer::kCore, Op::kGet);
  const LayerOp& core_free = t(Layer::kCore, Op::kFree);
  const Layer scale_layer =
      w == Workload::kSvc ? Layer::kDispatch : Layer::kScale;
  const LayerOp& scale_get = t(scale_layer, Op::kGet);
  const LayerOp& scale_free = t(scale_layer, Op::kFree);
  const LayerOp& scale_collect = t(scale_layer, Op::kCollect);
  const bool has_scale = w != Workload::kFlat;

  const la::scale::ShardedStats& ss = plain.sharded;
  const double scale_gets = static_cast<double>(ss.cache_hits + ss.shared_gets);
  const double scale_frees =
      static_cast<double>(ss.parked_frees + ss.direct_frees);

  // svc: client-side exchange time, and worker dispatch time attributed
  // to each exchange in aggregate per opcode.
  const LayerOp& ex_get = t(Layer::kClient, Op::kGet);
  const LayerOp& ex_free = t(Layer::kClient, Op::kFree);
  const LayerOp& ds_get = t(Layer::kDispatch, Op::kGet);
  const LayerOp& ds_free = t(Layer::kDispatch, Op::kFree);
  const double dispatch_get =
      ratio(ds_get.dur_total(), static_cast<double>(ex_get.count.calls));
  const double dispatch_free =
      ratio(ds_free.dur_total(), static_cast<double>(ex_free.count.calls));
  double busy_ns = 0;
  for (std::size_t o = 0; o < kOps; ++o) {
    busy_ns += t.at[static_cast<int>(Layer::kDispatch)][o].dur_total();
  }

  // The Get path: the layer self times per Get exchange, summed from the
  // spans, against the mean Get exchange the harness timed on the bare
  // half with its own clock reads (less their cost). The two are
  // measured independently, so the ratio leaves 1 when the decorators
  // distort the stack or leave time on the path unaccounted for. It is
  // reported, not gated: the decorated stack runs 15-40% slower than the
  // bare one and its self times carry part of that, so the ratio strays
  // past 10% on every workload.
  double path = 0;
  if (w == Workload::kFlat) {
    path = core_get.self_mean();
  } else if (w == Workload::kSharded) {
    path = ratio(scale_get.self_total() + core_get.self_total(),
                 static_cast<double>(scale_get.count.calls));
  } else {
    path = (ex_get.dur_mean() - dispatch_get) +
           ratio(ds_get.self_total() + core_get.self_total(),
                 static_cast<double>(ex_get.count.calls));
  }
  const double path_ratio =
      ratio(path, plain.get_ns->mean() - overhead.clock_ns);
  path_within = std::fabs(path_ratio - 1.0) <= 0.10;

  const bool svc = w == Workload::kSvc;
  const double exchanges =
      static_cast<double>(plain.get_exchanges + plain.free_exchanges);
  std::vector<double> lag = plain.collect_lag_us;
  std::vector<double> collects = plain.collect_us;
  return {
      {"core.get_ns", core_get.self_mean(), "ns"},
      {"core.free_ns", core_free.self_mean(), "ns"},
      {"core.collect_us", t(Layer::kCore, Op::kCollect).self_mean() * 1e-3,
       "us"},
      {"core.probes_per_get",
       ratio(static_cast<double>(core_get.count.probes),
             static_cast<double>(core_get.count.names)),
       "count"},
      {"core.probes_max", static_cast<double>(core_get.count.probes_max),
       "count"},
      {"core.backup_frac",
       ratio(static_cast<double>(core_get.count.backups),
             static_cast<double>(core_get.count.names)),
       "ratio"},
      {"core.calls_per_op",
       ratio(static_cast<double>(core_get.count.calls + core_free.count.calls),
             static_cast<double>(traced.ops)),
       "ratio"},
      {"scale.get_ns", has_scale ? scale_get.self_mean() : 0.0, "ns"},
      {"scale.free_ns", has_scale ? scale_free.self_mean() : 0.0, "ns"},
      {"scale.collect_us", has_scale ? scale_collect.self_mean() * 1e-3 : 0.0,
       "us"},
      {"scale.cache_hit_ratio",
       ratio(static_cast<double>(ss.cache_hits), scale_gets), "ratio"},
      {"scale.parked_free_ratio",
       ratio(static_cast<double>(ss.parked_frees), scale_frees), "ratio"},
      {"scale.refusals_per_kop",
       ratio(1000.0 * static_cast<double>(ss.shard_refusals),
             scale_gets + scale_frees),
       "1/kop"},
      {"scale.cache_drains", static_cast<double>(ss.cache_drains), "count"},
      {"scale.collect_drains", static_cast<double>(ss.collect_drains),
       "count"},
      {"scale.gate_wait_rounds", static_cast<double>(plain.gate.wait_rounds),
       "count"},
      {"scale.gate_parks", static_cast<double>(plain.gate.parks), "count"},
      {"svc.exchange_ns", ex_get.dur_mean(), "ns"},
      {"svc.dispatch_ns", dispatch_get, "ns"},
      {"svc.self_ns", svc ? ex_get.dur_mean() - dispatch_get : 0.0, "ns"},
      {"svc.free_exchange_ns", ex_free.dur_mean(), "ns"},
      {"svc.free_dispatch_ns", dispatch_free, "ns"},
      {"svc.free_self_ns", svc ? ex_free.dur_mean() - dispatch_free : 0.0,
       "ns"},
      {"svc.worker_busy_frac", svc ? ratio(busy_ns, traced.window_s * 1e9) : 0.0,
       "ratio"},
      {"svc.names_per_request",
       ratio(static_cast<double>(plain.server.names_granted +
                                 plain.server.names_freed),
             static_cast<double>(plain.server.requests)),
       "count"},
      {"svc.idle_parks_per_request",
       ratio(static_cast<double>(plain.server.idle_parks),
             static_cast<double>(plain.server.requests)),
       "ratio"},
      {"svc.pending_parked_frac",
       ratio(static_cast<double>(plain.server.pending_parked),
             static_cast<double>(plain.get_exchanges)),
       "ratio"},
      {"svc.client_parks",
       svc ? ratio(static_cast<double>(plain.client_wait.parks), exchanges)
           : 0.0,
       "1/exchange"},
      {"svc.client_wait_rounds",
       svc ? ratio(static_cast<double>(plain.client_wait.wait_rounds),
                   exchanges)
           : 0.0,
       "1/exchange"},
      {"svc.collect_us", t(Layer::kClient, Op::kCollect).dur_mean() * 1e-3,
       "us"},
      {"ckpt.save_us", median(plain.save_us), "us"},
      {"ckpt.rebuild_us", median(plain.rebuild_us), "us"},
      {"ckpt.restore_us", median(plain.restore_us), "us"},
      {"ckpt.quiesce_us", median(plain.quiesce_us), "us"},
      {"ckpt.names_carried", mean(plain.names_carried), "count"},
      {"ckpt.image_bytes", mean(plain.image_bytes), "bytes"},
      {"ckpt.pause_us", median(plain.pause_us), "us"},
      {"get_p99_ns", plain.get_ns->quantile(0.99), "ns"},
      {"collect_p90_us", exact_quantile(collects, 0.90), "us"},
      {"gen.collect_lag_p99_us", exact_quantile(lag, 0.99), "us"},
      {"gen.trace_overhead",
       ratio(ratio(static_cast<double>(traced.ops), traced.window_s),
             ratio(static_cast<double>(plain.ops), plain.window_s)),
       "ratio"},
      {"gen.latency_samples",
       static_cast<double>(plain.get_ns->count() + plain.free_ns->count()),
       "count"},
      {"gen.get_path_sum_ratio", path_ratio, "ratio"},
      {"failed_frac",
       ratio(static_cast<double>(plain.failed + traced.failed),
             static_cast<double>(plain.attempted + traced.attempted)),
       "ratio"},
  };
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

void report_problems(const char* label, const Result& r) {
  for (const auto& p : r.problems) {
    std::fprintf(stderr, "perfbench: %s: %s\n", label, p.c_str());
  }
}

void print_summary(const char* label, const Result& r) {
  std::vector<double> slices = r.slice_rates;
  std::printf(
      "# %s: window %.3fs, %llu ops, %llu get + %llu free latency samples, "
      "%zu collects, %zu migrations, %llu/%llu failed; ops/s per %.0f ms "
      "slice: min %.4g median %.4g max %.4g\n",
      label, r.window_s, static_cast<unsigned long long>(r.ops),
      static_cast<unsigned long long>(r.get_ns->count()),
      static_cast<unsigned long long>(r.free_ns->count()),
      r.collect_us.size(), r.pause_us.size(),
      static_cast<unsigned long long>(r.failed),
      static_cast<unsigned long long>(r.attempted), kSliceNs / 1e6,
      exact_quantile(slices, 0.0), exact_quantile(slices, 0.5),
      exact_quantile(slices, 1.0));
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload "
               "flat-churn-collect|sharded-churn-collect|svc-batch-migrate\n"
               "                 --seed N --seconds S --trace 0|1\n"
               "                 [--inject core|client]\n",
               why.c_str());
  std::exit(2);
}

int main_impl(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      usage("bad argument " + key);
    }
    args[key.substr(2)] = argv[i + 1];
  }
  for (const auto& [key, value] : args) {
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace" && key != "inject") {
      usage("unknown flag --" + key);
    }
  }
  if (!args.count("workload")) usage("--workload is required");
  const std::string name = args["workload"];
  Workload w;
  if (name == "flat-churn-collect") {
    w = Workload::kFlat;
  } else if (name == "sharded-churn-collect") {
    w = Workload::kSharded;
  } else if (name == "svc-batch-migrate") {
    w = Workload::kSvc;
  } else {
    usage("unknown workload " + name);
  }
  RunSpec spec;
  try {
    spec.seed = args.count("seed") ? std::stoull(args["seed"]) : 1;
    spec.seconds = args.count("seconds") ? std::stod(args["seconds"]) : 10.0;
  } catch (const std::exception&) {
    usage("--seed and --seconds take numbers");
  }
  if (!(spec.seconds > 0.0 && spec.seconds <= 120.0)) {
    usage("--seconds must be in (0, 120]");
  }
  const std::string trace_arg = args.count("trace") ? args["trace"] : "0";
  if (trace_arg != "0" && trace_arg != "1") usage("--trace takes 0 or 1");
  const bool trace = trace_arg == "1";

  std::string inject_layer;
  if (args.count("inject")) {
    inject_layer = args["inject"];
    if (inject_layer != "core" && inject_layer != "client") {
      usage("--inject takes core or client");
    }
    if (trace) usage("--inject applies to --trace 0 runs only");
  }

  if (!trace) {
    std::vector<double> setups;
    Result r;
    if (inject_layer == "core") {
      r = run_with_setup_repeats<CoreDelayStack>(w, spec, setups);
    } else if (inject_layer == "client") {
      r = run_with_setup_repeats<ClientDelayStack>(w, spec, setups);
    } else {
      r = run_with_setup_repeats<PlainStack>(w, spec, setups);
    }
    print_summary(name.c_str(), r);
    report_problems(name.c_str(), r);
    print_result(r.failed == 0, r.attempted, r.failed, end_to_end(r, setups));
    return 0;
  }

  RunSpec half = spec;
  half.seconds = spec.seconds / 2;
  const Result plain = run<PlainStack>(w, half);
  half.record_events = true;
  half.traced = true;
  const SpanOverhead overhead = calibrate_spans();
  const Result traced = run<TracedStack>(w, half);
  const LayerTotals totals = summarize_traces(overhead);
  TraceRegistry::instance().reset();
  bool path_within = false;
  const std::vector<Metric> metrics =
      per_layer(w, plain, traced, totals, overhead, path_within);
  print_summary((name + " (bare)").c_str(), plain);
  print_summary((name + " (traced)").c_str(), traced);
  std::printf("# check_trace replayed %llu events; span timer cost %.1f ns "
              "inside, %.1f ns per child\n",
              static_cast<unsigned long long>(traced.trace_events),
              overhead.in_ns, overhead.child_ns);
  report_problems(name.c_str(), plain);
  report_problems(name.c_str(), traced);
  if (!path_within) {
    std::fprintf(stderr,
                 "perfbench: note: Get-path self times do not sum to within "
                 "10%% of the measured Get exchange\n");
  }
  const std::uint64_t failed = plain.failed + traced.failed;
  print_result(failed == 0 && traced.trace_events > 0,
               plain.attempted + traced.attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
