#!/usr/bin/env bash
# Local CI for the Fluid DyDNN workspace. Mirrors what the hosted pipeline
# (.github/workflows/ci.yml) runs; everything works offline.
#
# Usage:
#   ./ci.sh                     run every stage
#   ./ci.sh --fast              inner-loop mode: runs fmt, clippy and tests
#                               only (not doc, drill or fairness)
#   ./ci.sh fmt clippy          run just the named stages
#
# Stages: fmt, clippy, doc, tests, drill, fairness.
#
# The tests stage is tier-1 on two kernel-thread legs plus a scalar leg.
# Tier-1 includes the exact hot-path gates: tests/tests/zero_alloc.rs
# fails on a single heap allocation in a steady-state serving batch or
# training step, and tests/tests/quantized_serving.rs fails when int8
# calibration keeps fewer than 99% of the f32 top-1 decisions. No stage
# compares a timing with a committed number: performance is judged by
# `fluidbench compare` over parent/change pairs built in one session
# (benchmark/README.md).
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
# The doc stage also runs a ratchet on unused public surface: it lists
# every `pub fn` in fluid-tensor and fluid-nn whose name no *.rs file
# outside the defining crate's src/ mentions (other crates, the crate's
# own tests/, benchmark/, examples/, tests/) and compares the list with
# unused-pub.allow. A new unused name fails, and so does an allow-listed
# name that is now used or gone, so the list can only shrink.
#
# The doc stage runs a second ratchet, on timer waits: it counts, per
# file under crates/*/src, the `thread::sleep` calls that come before the
# file's first `#[cfg(test)]` and compares the counts with
# sleep-sites.allow. A new sleep fails, and so does a removed one until
# its line is lowered or dropped, so the list can only shrink: a thread
# that must notice something waits on a channel, a socket or a condvar.
set -euo pipefail
cd "$(dirname "$0")"

FAST=0
STAGES=()
for arg in "$@"; do
    case "$arg" in
        --fast) FAST=1 ;;
        fmt|clippy|doc|tests|drill|fairness) STAGES+=("$arg") ;;
        *) echo "unknown argument: $arg (stages: fmt clippy doc tests drill fairness; flag: --fast)"; exit 2 ;;
    esac
done
if [ "${#STAGES[@]}" -eq 0 ]; then
    if [ "$FAST" -eq 1 ]; then
        STAGES=(fmt clippy tests)
    else
        STAGES=(fmt clippy doc tests drill fairness)
    fi
fi

stage_fmt() {
    cargo fmt --all -- --check
}

stage_clippy() {
    cargo clippy --all-targets -- -D warnings
}

# Prints "crate name" for each `pub fn` of fluid-tensor and fluid-nn that
# no *.rs file outside the defining crate's src/ names.
unused_pub_fns() {
    local crate name files
    for crate in tensor nn; do
        files=$(find . -name '*.rs' -not -path './target/*' -not -path './benchmark/target/*' \
            -not -path './.bench_build/*' -not -path "./crates/$crate/src/*")
        for name in $(grep -rhoE '\bpub fn [A-Za-z0-9_]+' "crates/$crate/src" | awk '{print $3}' | sort -u); do
            # shellcheck disable=SC2086 # one argument per file
            grep -qw -- "$name" $files || echo "$crate $name"
        done
    done
}

# Prints "file count" for each crates/*/src file whose code before its
# first `#[cfg(test)]` calls `thread::sleep`.
sleep_sites() {
    local file
    for file in $(find crates/*/src -name '*.rs'); do
        awk '/#\[cfg\(test\)\]/ { exit } /thread::sleep/ { n++ } END { if (n) print FILENAME, n }' "$file"
    done
}

stage_doc() {
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps
    # Compiled doc-examples are part of the API surface (TensorView's
    # transpose and matmul examples, the serve metrics example, ...):
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
    echo "==> unused pub fn ratchet (fluid-tensor, fluid-nn vs unused-pub.allow)"
    local drift
    drift=$(diff <(unused_pub_fns | LC_ALL=C sort) \
        <(grep -v '^#' unused-pub.allow | LC_ALL=C sort) || true)
    if [ -n "$drift" ]; then
        echo "UNUSED PUB FN drift. '<': a new unused pub fn (use it, make it"
        echo "pub(crate) or delete it); '>': an allow-listed name that is now used"
        echo "or gone (drop its line from unused-pub.allow):"
        echo "$drift"
        missing=1
    fi
    echo "==> sleep-site ratchet (thread::sleep in crates/*/src vs sleep-sites.allow)"
    drift=$(diff <(sleep_sites | LC_ALL=C sort) \
        <(grep -v '^#' sleep-sites.allow | LC_ALL=C sort) || true)
    if [ -n "$drift" ]; then
        echo "SLEEP SITE drift. '<': a file sleeps more than allowed (wait on an"
        echo "event instead); '>': an allowed sleep is gone (lower or drop its"
        echo "line in sleep-sites.allow):"
        echo "$drift"
        missing=1
    fi
    [ "$missing" -eq 0 ]
}

stage_tests() {
    cargo build --release
    # The compute-kernel layer guarantees bit-identical results at any
    # thread count (docs/PERFORMANCE.md); run the whole suite serial and
    # fanned-out. Both legs include the zero-allocation gates
    # (tests/tests/zero_alloc.rs) and the int8 top-1 gate
    # (tests/tests/quantized_serving.rs).
    FLUID_THREADS=1 cargo test -q
    FLUID_THREADS=4 cargo test -q
    # The scalar leg: FLUID_FORCE_SCALAR=1 pins the scalar microkernels,
    # so the fallback every dispatch decision must match stays green on
    # hosts where AVX2/NEON would otherwise mask a scalar regression.
    # fluid-tensor owns every dispatched kernel and its bit-identity
    # proptests; the rest of the workspace only sees the dispatch result,
    # which the golden digests (seeded logits and trained weights) pin to
    # the same bits on both legs.
    FLUID_FORCE_SCALAR=1 cargo test -q -p fluid-tensor
    FLUID_FORCE_SCALAR=1 cargo test -q -p fluid-integration-tests --test golden
    # fluidbench (benchmark/) is a package of its own that the workspace
    # build never touches: build it, run its unit tests, and smoke every
    # workload BENCHMARK.json lists, so an API change that breaks
    # benchmark/src/sut.rs, or a server-side count that disagrees with
    # the verified replies, fails here rather than in the benchmark run.
    # Each smoke runs 2 s, except tcp_reconnect: a closed loop with fewer
    # than 200 samples exits non-zero by design, and one connection per
    # request runs at ≈ 20 req/s (the server's accept poll), so 10 s
    # collects exactly 200 and 12 s leaves a margin.
    cargo build --release --manifest-path benchmark/Cargo.toml
    cargo test -q --release --manifest-path benchmark/Cargo.toml
    local workload seconds result
    for workload in inproc_burst_f32 inproc_burst_int8 tcp_open_batched tcp_closed_b1 \
        tcp_reconnect cluster_closed_b1 pair_ha; do
        seconds=2
        [ "$workload" = tcp_reconnect ] && seconds=12
        result=$(cargo run --release -q --manifest-path benchmark/Cargo.toml -- \
            --workload "$workload" --seed 7 --seconds "$seconds" --trace 0 | tail -n 1)
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
