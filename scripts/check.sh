#!/usr/bin/env bash
# Tiered verification (see README "Testing tiers"). With no argument,
# every tier runs in order:
#   1. tier-1 build + full ctest (unit + stress + smoke labels)
#   2. svc: the rename-service daemon with real forked client processes
#   3. ckpt: checkpoint/restore and the live re-sharding migration
#   4. bench-smoke: the --json pipeline emits parseable, nonzero reports,
#      and the committed scaling/batch/svc/migrate gates hold
#   5. verify: the exhaustive interleaving model checker over the
#      lock-free core (src/verify/), every cell within its schedule
#      budget, plus the mutant teeth checks
#   6. lint: the static memory-order audit (scripts/atomics_lint.py
#      against scripts/atomics_manifest.tsv) and, when clang-tidy is
#      installed, the zero-warning .clang-tidy gate
#   7. AddressSanitizer/UBSan preset, same suite
#   8. ThreadSanitizer preset, the concurrency-bearing targets
#
# A single argument runs one tier against the tier-1 build:
#   scripts/check.sh unit     # fast single-process tests only (ctest -L)
#   scripts/check.sh stress   # real-thread suites
#   scripts/check.sh smoke    # second-scale bench driver sweeps
#   scripts/check.sh svc      # rename-service daemon, real processes
#   scripts/check.sh ckpt     # checkpoint/restore + live migration
#   scripts/check.sh verify   # model-check the lock-free core
#   scripts/check.sh lint     # atomics manifest audit + clang-tidy
#   scripts/check.sh bench-smoke | asan | tsan
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
TIER="${1:-all}"

build_tier1() {
  cmake -B build -S .
  cmake --build build -j "${JOBS}"
}

run_bench_smoke() {
  echo "== bench-smoke: machine-readable bench pipeline =="
  ./build/collect_cost --scan=word --capacities=20000 --reps=200 \
    --json=build/BENCH_collect.json > /dev/null
  ./build/churn_sweep --threads=1,2 --mult=100 --seconds=0.05 \
    --json=build/BENCH_fig2.json > /dev/null
  ./build/churn_sweep --algo=level,sharded:level --threads=1,2 --mult=2000 \
    --seconds=0.05 --json=build/BENCH_scaling.json > /dev/null
  ./build/churn_sweep --algo=sharded:level --threads=2 --batch=1,16 \
    --mult=2000 --seconds=0.05 --cache=0 \
    --json=build/BENCH_batch.json > /dev/null
  python3 scripts/validate_bench_json.py \
    build/BENCH_collect.json build/BENCH_fig2.json build/BENCH_scaling.json \
    build/BENCH_batch.json
  # The scale-layer acceptance bar on the *committed* snapshot (the
  # sharded win is a production-scale locality property — regenerate
  # with `churn_sweep --algo=level,sharded:level --mult=200000
  # --seconds=0.5 --json=BENCH_scaling.json`, the production-scale
  # config): sharded:level >= flat level at 8 threads.
  python3 scripts/validate_bench_json.py --scaling-gate=8 BENCH_scaling.json
  # The batch-amortization acceptance bar on the *committed* snapshot:
  # sharded:level at batch=16 must be >= 1.5x batch=1 at 8 threads.
  # Regenerate with
  #   churn_sweep --algo=sharded:level --threads=8 --batch=1,4,16,64 \
  #     --mult=200000 --seconds=0.5 --cache=0 --json=BENCH_batch.json
  # (cache=0 so every exchange pays the gate + probe path the batch
  # surface amortizes — the uncached regime is what the gate measures).
  python3 scripts/validate_bench_json.py --batch-gate=16 BENCH_batch.json
  # The rename-service daemon: one server process + forked clients over
  # the shared-memory rings, a live migration and a killed holder's
  # reclaim included, plus the svc-vs-in-process and migration
  # acceptance bars on the fresh run AND the *committed* snapshot.
  # Regenerate with
  #   svc_churn --clients=4 --ops=100000 --batch=16 --json=BENCH_svc.json
  ./build/svc_churn --clients=4 --ops=100000 --batch=16 \
    --json=build/BENCH_svc.json > /dev/null
  python3 scripts/validate_bench_json.py --svc-gate=16 --migrate-gate \
    build/BENCH_svc.json
  python3 scripts/validate_bench_json.py --svc-gate=16 --migrate-gate \
    BENCH_svc.json
}

run_svc() {
  echo "== svc: multi-process daemon smoke (1 server + 4 forked clients) =="
  ./build/svc_churn --clients=4 --ops=100000 --batch=16
  ./build/test_svc_reclaim
  ./build/test_svc_failures
}

run_ckpt() {
  echo "== ckpt: checkpoint/restore + live re-sharding migration =="
  ./build/test_ckpt
  # Live migration under churn: sharded:level (4 shards) swapped for
  # sharded:linear (8 shards) mid-run, trace checked across the boundary.
  ./build/svc_churn --clients=4 --ops=20000 --batch=8
}

run_verify() {
  echo "== verify: exhaustive interleaving model checker =="
  cmake -B build -S .
  cmake --build build -j "${JOBS}" --target verify_runner verify_runner_mutant
  # Every cell under its committed schedule budget (full DFS for the
  # small trees, preemption-bounded for the big ones), plus the teeth
  # checks: the seeded TasCell ordering mutant and the in-cell relaxed
  # publish MUST be caught with a printed counterexample.
  (cd build && ctest --output-on-failure -j "${JOBS}" -L verify)
}

run_lint() {
  echo "== lint: static memory-order audit =="
  python3 scripts/atomics_lint.py --self-test
  python3 scripts/atomics_lint.py
  if command -v clang-tidy > /dev/null 2>&1; then
    echo "== lint: clang-tidy (.clang-tidy, zero-warning gate) =="
    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
    # Library + verify sources; headers ride along via HeaderFilterRegex.
    clang-tidy -p build --quiet --warnings-as-errors='*' \
      src/*/*.cpp
  else
    echo "clang-tidy not installed; skipping the tidy half (CI runs it)"
  fi
}

run_asan() {
  echo "== ASan/UBSan preset =="
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  cmake --build build-asan -j "${JOBS}"
  (cd build-asan && ctest --output-on-failure)
  # test_slot_scan calls the AVX-512 collect body directly, slack stores
  # and the byte source's masked tail load included, for both mask
  # sources wherever the CPU has AVX-512F/BW. On such a host the body
  # must have run under ASan for bytes and for bits, not been skipped.
  if grep -qw avx512bw /proc/cpuinfo 2>/dev/null; then
    local bodies
    bodies="$(./build-asan/test_slot_scan)"
    echo "${bodies}"
    local domain
    for domain in 'append_held' 'bit-domain'; do
      grep -q "${domain} bodies: words avx512" <<< "${bodies}" || {
        echo "check.sh asan: AVX-512 host, but the ${domain} avx512 body" \
          "did not run" >&2
        exit 1
      }
    done
  fi
}

run_tsan() {
  echo "== TSan preset: stress + collect-race under real-thread races =="
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build build-tsan -j "${JOBS}" \
    --target test_stress_matrix test_renamer_contract test_collect_race \
             test_model_fuzz test_svc_ring test_backoff_park \
             test_wait_queue test_deadlines test_ckpt test_slot_scan \
             test_sharded svc_churn stress_runner
  # The svc ring + eventcount under TSan: the SPSC handshake and the
  # park/wake protocol are where a lost fence shows up. (The fork-based
  # svc tests stay out of TSan; svc_churn runs below because it forks
  # every child before the parent starts a thread.)
  ./build-tsan/test_svc_ring
  ./build-tsan/test_backoff_park
  # The FIFO wait queue and the deadline paths: ticket grants, timed
  # parks, and the park/wake handoff under real races.
  ./build-tsan/test_wait_queue
  ./build-tsan/test_deadlines
  ./build-tsan/test_renamer_contract
  # Scan-engine parity through load_word's per-byte TSan fallback; the
  # TSan build compiles the vector collect body out.
  local bodies
  bodies="$(./build-tsan/test_slot_scan)"
  echo "${bodies}"
  grep -q 'dispatch runs bytes' <<< "${bodies}" || {
    echo "check.sh tsan: append_held did not run the bytewise path" >&2
    exit 1
  }
  ./build-tsan/test_collect_race
  ./build-tsan/test_model_fuzz --structure=sharded:level --seed=20260727
  # The scale layer's own cases: thread-exit flush, steal-drain and the
  # racing 3-thread prefill that re-homes threads off full shards.
  ./build-tsan/test_sharded
  # Checkpoint/restore (sequential paths) and the live migration under
  # forked clients: worker quiesce, save/rebuild/restore, resume. TSan
  # sees the server-side handshake, the only run of Server::migrate with
  # live clients in this tier.
  ./build-tsan/test_ckpt
  ./build-tsan/svc_churn --clients=4 --ops=10000 --batch=8
  ./build-tsan/test_stress_matrix
  ./build-tsan/stress_runner --structure=all --scenario=all --threads=8 \
    --ops=2000
  ./build-tsan/stress_runner --structure=sharded:level --scenario=oversub \
    --threads=8 --ops=2000 --deadline=1ms
}

case "${TIER}" in
  unit|stress|smoke)
    build_tier1
    echo "== tier: ctest -L ${TIER} =="
    (cd build && ctest --output-on-failure -j "${JOBS}" -L "${TIER}")
    ;;
  svc)
    build_tier1
    run_svc
    ;;
  ckpt)
    build_tier1
    run_ckpt
    ;;
  bench-smoke)
    build_tier1
    run_bench_smoke
    ;;
  verify)
    run_verify
    ;;
  lint)
    run_lint
    ;;
  asan)
    run_asan
    ;;
  tsan)
    run_tsan
    ;;
  all)
    echo "== tier-1: configure + build + ctest =="
    build_tier1
    (cd build && ctest --output-on-failure -j "${JOBS}")
    run_svc
    run_ckpt
    run_bench_smoke
    run_verify
    run_lint
    run_asan
    run_tsan
    ;;
  *)
    echo "usage: $0 [unit|stress|smoke|svc|ckpt|bench-smoke|verify|lint|asan|tsan]" >&2
    exit 2
    ;;
esac

echo "check.sh: ${TIER} green"
