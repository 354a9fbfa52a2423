#!/usr/bin/env bash
# Local CI for the Fluid DyDNN workspace. Mirrors what the hosted pipeline
# (.github/workflows/ci.yml) runs; everything works offline.
#
# Usage:
#   ./ci.sh                     run every stage
#   ./ci.sh --fast              inner-loop mode: fmt + clippy + tests
#                               (skips the slow doc and bench stages)
#   ./ci.sh fmt clippy          run just the named stages
#   ./ci.sh --update-bench      re-measure and commit a new bench baseline
#                               (for *intentional* performance changes)
#
# Stages: fmt, clippy, doc, tests, drill, fairness, bench.
#
# The fairness stage runs the adversarial multi-tenant suite
# (tests/tests/fairness.rs): a flooding batch tenant vs an interactive
# SLO, explicit per-tenant quota verdicts, DRR weight proportionality
# under saturation, and sim-vs-live policy-ranking agreement — pinned to
# one kernel thread and a wall-clock budget like the drill, and run five
# times so a schedule-dependent failure shows.
#
# The drill stage runs both schedules of the cluster drill
# (tests/tests/cluster.rs) against announced nodes behind fluid-router
# under open-loop Poisson traffic: the chaos schedule (a node killed and
# restarted mid-stream, then a rolling hot swap) and the fault schedule
# (gossip-replicated routers, a router killed mid-stream, a node joining
# mid-stream, and a deterministic fault-injection plan — drops,
# duplicates, a partition window). Every admitted request must complete
# bit-identically against the single-process oracle. Pinned to one
# kernel thread (the 1-core CI host's honest configuration) and to a
# wall-clock budget so a routing, gossip or shard-rebuild hang fails
# loudly instead of stalling the pipeline.
#
# The bench stage is a perf regression gate: it re-runs
# `bench_kernels --quick` and fails if any committed timing metric in
# BENCH_kernels.json regressed by more than BENCH_TOLERANCE (default
# 0.25 = 25% — wide enough to ride out scheduler noise on a shared CI
# host, tight enough to catch a real kernel regression). The gate writes
# its fresh measurements to target/BENCH_kernels.current.json, never over
# the committed baseline. It then runs the zero-allocation gates: with
# the bench-only `alloc-count` feature, serve_throughput and
# training_step swap in a counting global allocator and fail on a single
# heap allocation in the steady-state serving batch / training step.
set -euo pipefail
cd "$(dirname "$0")"

BENCH_TOLERANCE="${BENCH_TOLERANCE:-0.25}"
UPDATE_BENCH=0
FAST=0
STAGES=()
for arg in "$@"; do
    case "$arg" in
        --fast) FAST=1 ;;
        --update-bench) UPDATE_BENCH=1 ;;
        fmt|clippy|doc|tests|drill|fairness|bench) STAGES+=("$arg") ;;
        *) echo "unknown argument: $arg (stages: fmt clippy doc tests drill fairness bench; flags: --fast --update-bench)"; exit 2 ;;
    esac
done
if [ "${#STAGES[@]}" -eq 0 ]; then
    if [ "$FAST" -eq 1 ]; then
        STAGES=(fmt clippy tests)
    elif [ "$UPDATE_BENCH" -eq 1 ]; then
        STAGES=(bench)
    else
        STAGES=(fmt clippy doc tests drill fairness bench)
    fi
fi
# --update-bench means the bench stage, whatever else was asked for — it
# must never be dropped silently (a maintainer would believe the baseline
# was refreshed when it wasn't).
if [ "$UPDATE_BENCH" -eq 1 ] && [[ ! " ${STAGES[*]} " == *" bench "* ]]; then
    STAGES+=(bench)
fi

stage_fmt() {
    cargo fmt --all -- --check
}

stage_clippy() {
    cargo clippy --all-targets -- -D warnings
}

stage_doc() {
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps
    # Compiled doc-examples are part of the API surface (TensorView's
    # transpose/slice/broadcast examples, the serve metrics example, ...):
    # run them here so a stale snippet fails the doc stage, not just the
    # full test sweep.
    echo "==> doc-tests (compiled API examples)"
    cargo test -q --doc
    echo "==> docs link + bench orphan check (every docs/*.md and bench is cited)"
    local missing=0
    for doc in $(grep -hoE 'docs/[A-Za-z0-9_.-]+\.md' README.md docs/*.md | sort -u); do
        if [ ! -f "$doc" ]; then
            echo "BROKEN LINK: $doc is referenced but does not exist"
            missing=1
        fi
    done
    # ...and the guides that exist are actually referenced from README.
    for doc in docs/*.md; do
        if ! grep -q "$doc" README.md; then
            echo "ORPHAN DOC: $doc is not referenced from README.md"
            missing=1
        fi
    done
    # Same rule for benches: a file cargo does not build, or that neither
    # this script nor README.md names, is an unrun, uncited bench.
    for bench in crates/bench/benches/*.rs; do
        local name
        name=$(basename "$bench" .rs)
        if ! grep -q "^name = \"$name\"" crates/bench/Cargo.toml; then
            echo "ORPHAN BENCH: $bench has no [[bench]] entry in crates/bench/Cargo.toml"
            missing=1
        fi
        if ! grep -q -- "--bench $name\b" ci.sh README.md; then
            echo "ORPHAN BENCH: $bench is named by neither ci.sh nor README.md"
            missing=1
        fi
    done
    [ "$missing" -eq 0 ]
}

stage_tests() {
    cargo build --release
    # The compute-kernel layer guarantees bit-identical results at any
    # thread count (docs/PERFORMANCE.md); run the whole suite serial and
    # fanned-out.
    FLUID_THREADS=1 cargo test -q
    FLUID_THREADS=4 cargo test -q
    # The scalar leg: FLUID_FORCE_SCALAR=1 pins the scalar microkernels,
    # so the fallback every dispatch decision must match stays green on
    # hosts where AVX2/NEON would otherwise mask a scalar regression.
    # fluid-tensor owns every dispatched kernel and its bit-identity
    # proptests; the rest of the workspace only sees the dispatch result.
    FLUID_FORCE_SCALAR=1 cargo test -q -p fluid-tensor
    # fluidbench (benchmark/) is a package of its own that the workspace
    # build never touches: build it, run its unit tests, and smoke two
    # workloads for 2 s each, so an API change that breaks
    # benchmark/src/sut.rs fails here rather than in the benchmark run.
    cargo build --release --manifest-path benchmark/Cargo.toml
    cargo test -q --release --manifest-path benchmark/Cargo.toml
    local workload result
    for workload in pair_ha cluster_closed_b1; do
        result=$(cargo run --release -q --manifest-path benchmark/Cargo.toml -- \
            --workload "$workload" --seed 7 --seconds 2 --trace 0 | tail -n 1)
        if [[ "$result" != '{"correct": true'* ]]; then
            echo "fluidbench smoke $workload: no correct result line: $result"
            return 1
        fi
    done
}

stage_drill() {
    # 600 s covers both drill schedules plus the replay test many times
    # over (healthy wall clock is ~10 s; compile excluded: the tests
    # stage has already built the workspace when the full pipeline
    # runs); hitting the budget means a hang, which is exactly the class
    # of bug the drill exists to catch.
    FLUID_THREADS=1 timeout 600 \
        cargo test -q -p fluid-integration-tests --test cluster
}

stage_fairness() {
    # The fairness suite is timing-sensitive by nature (it asserts SLOs
    # and service ratios), so it gets the drill treatment: one kernel
    # thread, generous wall-clock budget, loud failure on a hang. Five
    # runs (~2 s each): which batch a request boards depends on the
    # schedule, so a rule that fails one schedule in five shows here.
    for _ in 1 2 3 4 5; do
        FLUID_THREADS=1 timeout 300 \
            cargo test -q -p fluid-integration-tests --test fairness
    done
}

stage_bench() {
    if [ "$UPDATE_BENCH" -eq 1 ]; then
        echo "==> re-measuring the committed bench baseline (BENCH_kernels.json)"
        cargo run --release -p fluid-bench --bin bench_kernels -- --quick
    else
        cargo run --release -p fluid-bench --bin bench_kernels -- --quick \
            --check BENCH_kernels.json --tolerance "$BENCH_TOLERANCE"
    fi
    echo "==> zero-allocation gates (counting allocator, steady-state hot paths)"
    cargo bench -p fluid-bench --features alloc-count --bench serve_throughput
    cargo bench -p fluid-bench --features alloc-count --bench training_step
}

TIMING_SUMMARY=""
for stage in "${STAGES[@]}"; do
    echo "==> stage: $stage"
    stage_start=$(date +%s)
    "stage_$stage"
    stage_secs=$(( $(date +%s) - stage_start ))
    TIMING_SUMMARY+=$(printf '\n  %-8s %4ss' "$stage" "$stage_secs")
    echo "==> stage $stage done in ${stage_secs}s"
done

echo "CI OK — stage timing:$TIMING_SUMMARY"
