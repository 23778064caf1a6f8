#!/usr/bin/env python3
"""Validate levelarray-bench-v1 reports: the one checker both the
bench-smoke tier (scripts/check.sh) and the CI bench-artifacts job run,
so the schema contract cannot drift between the two copies.

Usage: validate_bench_json.py [--scaling-gate=T] [--batch-gate=B]
                              [--svc-gate=B] [--migrate-gate]
                              REPORT.json [...]
Exits nonzero if any report fails to parse, misses the schema tag, has
no runs, has a run without positive ops_per_sec, or carries a malformed
optional batch field (must be an integer >= 1 when present).

--scaling-gate=T additionally asserts the scale-layer acceptance bar on
the given reports: at thread count T, the sharded:level run must be at
least as fast as the flat level run (the claim BENCH_scaling.json
commits to). Only batch=1 (or batch-less) runs participate.

--batch-gate=B asserts the batch-amortization acceptance bar (the claim
BENCH_batch.json commits to): at the highest thread count where
sharded:level has both a batch=1 and a batch=B run, the batch=B run
must deliver at least 1.5x the batch=1 ops/s.

--svc-gate=B asserts the rename-service daemon's acceptance bar (the
claim BENCH_svc.json commits to): the multi-process svc:sharded:level
run at batch=B must deliver at least SVC_RATIO_FLOOR of the in-process
sharded:level baseline in the same report. The wire protocol costs two
ring hops and a server-side execution per exchange, so the floor is a
sanity bound against pathological regressions (a deadlocking ring or a
park storm shows up as orders of magnitude, not percent).

--migrate-gate asserts the live re-sharding migration acceptance bar
(the claim the migration runs in BENCH_svc.json commit to): the report
must carry a pre-migration run and a post-migration run, the migration
must have carried a nonzero hold set across a measured nonzero pause
with exactly zero invariant failures, and post-migration throughput
must hold at least MIGRATE_RATIO_FLOOR of the pre-migration rate (the
structure changed shape underneath the clients, so parity is not
demanded — but a migration that wedges the service shows up as orders
of magnitude).
"""
import json
import sys

BATCH_SPEEDUP_FLOOR = 1.5
# Measured ~0.02-0.05x on the 1-core reference container at batch=16,
# clients=4; the floor leaves ~4-10x headroom for load noise.
SVC_RATIO_FLOOR = 0.005
# Post-migration vs pre-migration throughput: measured ~0.7-1.1x on the
# reference container (sharded:linear behind the same wire); the floor
# only rules out a wedged or thrashing post-migration service.
MIGRATE_RATIO_FLOOR = 0.05


def run_batch(run: dict) -> int:
    """The run's batch size; pre-batch reports carry no field (= 1)."""
    return run.get("batch", 1)


def validate(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["schema"] == "levelarray-bench-v1", (
        f"{path}: schema is {doc.get('schema')!r}")
    assert doc["runs"], f"{path}: no runs"
    for run in doc["runs"]:
        assert isinstance(run.get("structure"), str), f"{path}: {run}"
        ops = run["ops_per_sec"]
        assert ops is not None and ops > 0, f"{path}: ops_per_sec {ops}: {run}"
        batch = run_batch(run)
        assert isinstance(batch, int) and batch >= 1, (
            f"{path}: batch {batch!r}: {run}")
        # Bounded-wait accounting (optional; emitted by --deadline runs):
        # timeouts is a count, timeout_rate a fraction, and a run that
        # reports timeouts without a deadline in force is malformed.
        if "timeouts" in run:
            timeouts = run["timeouts"]
            assert isinstance(timeouts, int) and timeouts >= 0, (
                f"{path}: timeouts {timeouts!r}: {run}")
            if timeouts > 0:
                assert run.get("deadline_ns", 0) > 0, (
                    f"{path}: {timeouts} timeout(s) without a deadline: "
                    f"{run}")
        if "timeout_rate" in run:
            rate = run["timeout_rate"]
            assert (isinstance(rate, (int, float))
                    and 0.0 <= rate <= 1.0), (
                f"{path}: timeout_rate {rate!r}: {run}")
    print(f"{path}: ok ({len(doc['runs'])} run(s), ops/s nonzero)")
    return doc


def check_scaling_gate(path: str, doc: dict, threads: int) -> None:
    ops = {}
    for run in doc["runs"]:
        if run.get("threads") == threads and run_batch(run) == 1:
            ops[run["structure"]] = run["ops_per_sec"]
    assert "level" in ops and "sharded:level" in ops, (
        f"{path}: --scaling-gate={threads} needs level and sharded:level "
        f"runs at {threads} threads (have {sorted(ops)})")
    assert ops["sharded:level"] >= ops["level"], (
        f"{path}: sharded:level ({ops['sharded:level']:.0f} ops/s) is "
        f"slower than level ({ops['level']:.0f} ops/s) at {threads} threads")
    print(f"{path}: scaling gate ok (sharded:level "
          f"{ops['sharded:level'] / ops['level']:.2f}x level "
          f"at {threads} threads)")


def check_batch_gate(path: str, doc: dict, batch: int) -> None:
    assert batch > 1, f"--batch-gate={batch}: gate batch must exceed 1"
    # ops[(threads, batch)] for the gated structure.
    ops = {}
    for run in doc["runs"]:
        if run.get("structure") == "sharded:level":
            ops[(run.get("threads"), run_batch(run))] = run["ops_per_sec"]
    paired = sorted(t for (t, b) in ops
                    if b == 1 and (t, batch) in ops and t is not None)
    assert paired, (
        f"{path}: --batch-gate={batch} needs sharded:level runs at both "
        f"batch=1 and batch={batch} for a common thread count "
        f"(have {sorted(ops)})")
    threads = paired[-1]
    single, batched = ops[(threads, 1)], ops[(threads, batch)]
    speedup = batched / single
    assert speedup >= BATCH_SPEEDUP_FLOOR, (
        f"{path}: sharded:level batch={batch} is only {speedup:.2f}x "
        f"batch=1 at {threads} threads ({batched:.0f} vs {single:.0f} "
        f"ops/s; floor {BATCH_SPEEDUP_FLOOR}x)")
    print(f"{path}: batch gate ok (sharded:level batch={batch} "
          f"{speedup:.2f}x batch=1 at {threads} threads)")


def check_svc_gate(path: str, doc: dict, batch: int) -> None:
    svc = baseline = None
    for run in doc["runs"]:
        if run_batch(run) != batch:
            continue
        if run.get("structure") == "svc:sharded:level":
            svc = run["ops_per_sec"]
        elif run.get("structure") == "sharded:level":
            baseline = run["ops_per_sec"]
    assert svc is not None and baseline is not None, (
        f"{path}: --svc-gate={batch} needs a svc:sharded:level run and a "
        f"sharded:level baseline at batch={batch} "
        f"(have {sorted(r.get('structure') for r in doc['runs'])})")
    ratio = svc / baseline
    assert ratio >= SVC_RATIO_FLOOR, (
        f"{path}: svc:sharded:level is only {ratio:.4f}x the in-process "
        f"baseline at batch={batch} ({svc:.0f} vs {baseline:.0f} ops/s; "
        f"floor {SVC_RATIO_FLOOR}x)")
    print(f"{path}: svc gate ok (svc:sharded:level {ratio:.3f}x the "
          f"in-process baseline at batch={batch})")


def check_migrate_gate(path: str, doc: dict) -> None:
    pre = post = None
    for run in doc["runs"]:
        if run.get("mode") == "pre-migration":
            pre = run
        elif run.get("mode") == "post-migration":
            post = run
    assert pre is not None and post is not None, (
        f"{path}: --migrate-gate needs a pre-migration and a "
        f"post-migration run "
        f"(have {sorted(r.get('mode') for r in doc['runs'])})")
    carried = post.get("names_migrated", 0)
    assert isinstance(carried, int) and carried > 0, (
        f"{path}: migration carried no names (names_migrated "
        f"{carried!r}) — the run never held state across the boundary")
    pause = post.get("migrate_pause_ns", 0)
    assert isinstance(pause, int) and pause > 0, (
        f"{path}: migrate_pause_ns {pause!r} — the pause was not measured")
    migrations = post.get("migrations", 0)
    assert migrations == 1, (
        f"{path}: expected exactly 1 migration, report carries "
        f"{migrations!r}")
    bad = post.get("invariant_failures", None)
    assert bad == 0, (
        f"{path}: invariant_failures {bad!r} — the migration-spanning "
        f"trace must replay with zero violations")
    ratio = post["ops_per_sec"] / pre["ops_per_sec"]
    assert ratio >= MIGRATE_RATIO_FLOOR, (
        f"{path}: post-migration throughput is only {ratio:.4f}x "
        f"pre-migration ({post['ops_per_sec']:.0f} vs "
        f"{pre['ops_per_sec']:.0f} ops/s; floor {MIGRATE_RATIO_FLOOR}x)")
    print(f"{path}: migrate gate ok ({carried} name(s) carried, "
          f"{pause / 1e6:.3f}ms pause, post {ratio:.2f}x pre)")


if __name__ == "__main__":
    gate = None
    batch_gate = None
    svc_gate = None
    migrate_gate = False
    reports = []
    for arg in sys.argv[1:]:
        if arg.startswith("--scaling-gate="):
            gate = int(arg.split("=", 1)[1])
        elif arg.startswith("--batch-gate="):
            batch_gate = int(arg.split("=", 1)[1])
        elif arg.startswith("--svc-gate="):
            svc_gate = int(arg.split("=", 1)[1])
        elif arg == "--migrate-gate":
            migrate_gate = True
        elif arg.startswith("--"):
            sys.exit(f"unknown flag {arg}\n\n{__doc__}")
        else:
            reports.append(arg)
    if not reports:
        sys.exit(__doc__)
    for report in reports:
        parsed = validate(report)
        if gate is not None:
            check_scaling_gate(report, parsed, gate)
        if batch_gate is not None:
            check_batch_gate(report, parsed, batch_gate)
        if svc_gate is not None:
            check_svc_gate(report, parsed, svc_gate)
        if migrate_gate:
            check_migrate_gate(report, parsed)
