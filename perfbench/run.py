#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload flat-churn-collect --seed 7 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is compiled from ../src with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Each run
prints a host block, the binary's summary lines, and as its last line the
result object {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170
WORKLOADS = ("flat-churn-collect", "sharded-churn-collect", "svc-batch-migrate")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "level_array.hpp")):
        fail(f"library sources not found under {os.path.join(ROOT, 'src')}; "
             "run from the root of a source checkout")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", out, "-j", "2"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return out


def read_file(path, default="unknown"):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        return default


def git_revision():
    git = os.path.join(ROOT, ".git")
    head = read_file(os.path.join(git, "HEAD"), "")
    if not head:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    value = read_file(os.path.join(git, ref), "")
    if value:
        return value
    for line in read_file(os.path.join(git, "packed-refs"), "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def cpu_steal_s():
    """CPU seconds the hypervisor ran something else on this guest's CPUs,
    summed over CPUs, since boot (the `steal` column of /proc/stat)."""
    fields = read_file("/proc/stat", "").split("\n", 1)[0].split()
    if len(fields) > 8 and fields[0] == "cpu":
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    return 0.0


def host_block(steal_s):
    model = "unknown"
    for line in read_file("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2_per_core": read_file("/sys/devices/system/cpu/cpu0/cache/index2/size"),
        "kernel": platform.release(),
        "clocksource": read_file(
            "/sys/devices/system/clocksource/clocksource0/current_clocksource"),
        "build_type": BUILD_TYPE,
        "git_revision": git_revision(),
        # A run on a busy shared host reads slower; this shows it.
        "cpu_steal_s_during_run": round(steal_s, 2),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--inject", choices=("core", "client"),
                        help="add a fixed delay to every call into this layer")
    parser.add_argument("--selftest", action="store_true",
                        help="run the statistics tests and exit")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out = build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(out, "perfbench_selftest")],
                                timeout=RUN_TIMEOUT_S).returncode)

    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace]
    if args.inject:
        cmd += ["--inject", args.inject]
    steal0 = cpu_steal_s()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S}s", 3)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"benchmark exited with status {done.returncode}", 1)
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        fail("benchmark did not print a result line", 1)
    print(json.dumps({"host": host_block(cpu_steal_s() - steal0)}))
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
