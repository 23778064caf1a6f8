#!/usr/bin/env python3
"""Sensitivity check: prove which workload each layer's cost reaches.

Run from the root of a source checkout:

    python3 perfbench/sensitivity.py [--seeds 1,2,3] [--seconds 10]

For every seed it runs flat-churn-collect and svc-batch-migrate three
ways: bare, with a fixed delay added to every call into the core
(LevelArray, 300 ns), and with a fixed delay added to every client
exchange (svc::Client, 3 us; both constants are in src/trace.hpp). It
then compares medians against the bounds in BENCHMARK.json:

  * the core delay must worsen flat-churn-collect ops_per_s by more than
    its bound, and leave svc-batch-migrate within every gated bound;
  * the client delay must worsen svc-batch-migrate ops_per_s by more than
    its bound, and leave flat-churn-collect within every gated bound.

Gated metrics are ops_per_s and the median latencies; tail percentiles
are printed but need more runs than this check makes to resolve. Exit
status 0 when every claim holds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GATED = ("ops_per_s", "get_p50_ns", "free_p50_ns", "collect_p50_us")
FLAT = "flat-churn-collect"
SVC = "svc-batch-migrate"


def run(workload, seed, seconds, inject):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if inject:
        cmd += ["--inject", inject]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"sensitivity: {workload} {inject or 'bare'} seed {seed} "
                 "reported incorrect results")
    return {k: v["value"] for k, v in result["metrics"].items()}


def worsening(metric, base, other):
    """How much worse `other` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0
    better = metric["better"]
    return (other - base) / base if better == "lower" else (base - other) / base


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = {m["name"]: m for m in json.load(f)["end_to_end"]}

    configs = {"bare": None, "core": "core", "client": "client"}
    values = {}  # (workload, config) -> metric -> [values]
    for seed in seeds:
        for workload in (FLAT, SVC):
            for config, inject in configs.items():
                got = run(workload, seed, args.seconds, inject)
                for name, value in got.items():
                    values.setdefault((workload, config), {}) \
                          .setdefault(name, []).append(value)

    def change(workload, config, name):
        base = statistics.median(values[(workload, "bare")][name])
        other = statistics.median(values[(workload, config)][name])
        return worsening(metrics[name], base, other)

    ok = True
    print(f"{'workload':22s} {'delay':7s} {'metric':16s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    for workload in (FLAT, SVC):
        for config in ("core", "client"):
            moves = (workload, config) in ((FLAT, "core"), (SVC, "client"))
            for name in metrics:
                if name == "setup_s":
                    continue
                worse = change(workload, config, name)
                bound = metrics[name]["bound"]
                if name not in GATED:
                    verdict = "(not gated)"
                elif moves and name == "ops_per_s":
                    verdict = "moved" if worse > bound else "NOT MOVED"
                    ok &= worse > bound
                elif moves:
                    verdict = "(target)"
                else:
                    verdict = "within" if worse <= bound else "OUT OF BOUND"
                    ok &= worse <= bound
                print(f"{workload:22s} {config:7s} {name:16s} "
                      f"{worse:+9.3f} {bound:6.2f}  {verdict}")
    print("sensitivity check:", "PASS" if ok else "FAIL")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
