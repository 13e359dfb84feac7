#!/usr/bin/env bash
# Local CI gate: formatting, lints, full test suite.
#
#   ./ci.sh            # everything
#   ./ci.sh fmt        # one stage (fmt | clippy | hardlint | test | faults |
#                      #            shard | chaos | metrics | wave | fastpath |
#                      #            kdtree | threads | bench-smoke | bench-compare)
set -euo pipefail
cd "$(dirname "$0")"

stage="${1:-all}"

run_fmt()    { cargo fmt --all -- --check; }
run_clippy() { cargo clippy --workspace --all-targets -- -D warnings; }
# The geometry, kernel, tree, serving, and metrics crates must stay panic-free
# outside tests: a corrupt tree or a faulted device has to surface as a typed
# error (or a demoted replica), never an unwrap — and the observability layer
# must never be the thing that crashes the process it observes. psb-geom is on
# the wall because the SIMD/scalar distance evaluators sit on every kernel's
# innermost loop, and the rayon shim because every one of those loops now runs
# on its workers: a panic there takes a whole batch down.
# (clippy.toml re-allows unwrap/expect inside #[cfg(test)].)
run_hardlint() {
    cargo clippy -p psb-geom -p psb-core -p psb-sstree -p psb-kdtree -p psb-serve -p psb-metrics \
        -p rayon --all-targets -- \
        -D warnings -D clippy::unwrap_used -D clippy::expect_used
}
run_test()   { cargo test --workspace -q; }
# The legacy wall-clock bench at seconds scale: it validates its own schema
# and direction gates and exits nonzero on any violation. Four stages rest on
# it; one `all` invocation runs it once and the later stages reuse
# target/BENCH_smoke.json, a stage invoked by itself runs it.
smoke_done=""
run_smoke() {
    [ -n "$smoke_done" ] && return 0
    cargo run --release -p psb-bench --bin bench -- --smoke --out target/BENCH_smoke.json
    smoke_done=1
}
run_faults() { cargo test -p psb --test fault_injection -q; }
# Sharded serving layer: the router's own unit tests plus the bit-identity /
# failover acceptance suite.
run_shard()  { cargo test -p psb-serve -q && cargo test -p psb --test shard_parity -q; }
# Resilience layer: the chaos soak (fault injection + deadline pressure +
# quota shedding + breaker trips at once; zero panics, every query resolving
# to exactly one typed outcome, bit-deterministic replay), the admission
# property tests, and the golden-parity suite pinning that the transparent
# front-end is bit-identical to the bare router. The admission/deadline
# modules themselves sit inside psb-serve, so hardlint's no-unwrap wall
# already covers them.
run_chaos() {
    cargo test -p psb --test chaos -q
    cargo test -p psb --test admission -q
    cargo test -p psb --test resilience_parity -q
}
# Telemetry layer: the registry/histogram/span unit+property tests, plus the
# no-op-parity golden suite pinning that an attached registry never changes
# neighbors, counters, or reports (DESIGN.md §14).
run_metrics() {
    cargo test -p psb-metrics -q
    cargo test -p psb --test metrics_parity -q
}
# Buffer-wave engine (DESIGN.md §16): the exactness/parity suite plus the
# dedicated TPSS-divergence pin, then the bench --smoke run, whose wave gate
# asserts the wave engine is at least as fast as the scheduled engine on the
# 16-dim uniform 240-query batch and that its buffers actually amortize
# fetches (mean fill > 1). The smoke binary exits nonzero on either.
run_wave() {
    cargo test -p psb --test wave_parity -q
    cargo test -p psb --test tpss_divergence -q
    run_smoke
}
# Fast path (DESIGN.md §17): the bit-identity/parity suite pinning that the
# SIMD lanes and Metering::Off change nothing observable, the geom crate's own
# evaluator identity tests, then the bench --smoke run, whose fast-path gate
# asserts the unmetered run is at least as fast as the metered default on the
# headline batch. Direction gate only — magnitudes are machine-dependent.
run_fastpath() {
    cargo test -p psb --test fastpath_parity -q
    cargo test -p psb-geom -q
    run_smoke
}
# Implicit kd-tree family + rope traversal (DESIGN.md §18): the kdtree
# crate's construction/search tests, the stack-free golden parity suite
# (bit-identity against the brute oracle and SS-tree PSB, ± faults,
# ± Metering::Off), and the rope-link suite (escape links = preorder
# successors on both bounding-volume arenas; rope-mode range/restart kernels
# bit-identical to the stacked code).
run_kdtree() {
    cargo test -p psb-kdtree -q
    cargo test -p psb --test kdtree_parity -q
    cargo test -p psb --test ropes -q
}
# Real host threads (DESIGN.md §19): the thread-count parity suite and the
# concurrent soak, then every bit-identity parity suite, all twice — under
# RAYON_NUM_THREADS=1 (the calling thread runs every piece) and =4, which
# oversubscribes a small CI box on purpose to shake out interleavings. The
# suites assert bit-equality against oracles computed in the same process, so
# passing under both settings is what "thread count changes nothing" means.
# psb-serve's own tests ride along: its runner executes cache misses ahead of
# their turn on the pool, and its unit tests hold that to the one-at-a-time
# loop (window of one vs whole batch) where a replica dies, a breaker trips or
# a planned cache hit is not there.
run_threads() {
    local t
    for t in 1 4; do
        echo "-- RAYON_NUM_THREADS=$t --"
        RAYON_NUM_THREADS=$t cargo test -q -p rayon
        RAYON_NUM_THREADS=$t cargo test -q -p psb-serve
        for suite in threads layout_parity schedule_parity wave_parity fastpath_parity \
            kdtree_parity shard_parity resilience_parity metrics_parity chaos admission \
            tree_invariants; do
            RAYON_NUM_THREADS=$t cargo test -q -p psb --test "$suite"
        done
    done
}
# Benchmark harness gate: every criterion bench must compile, and the wall-
# clock bench binary must complete a tiny workload and emit a BENCH_psb.json
# whose required keys are present, finite, and nonzero (the binary's --smoke
# mode self-validates the schema and exits nonzero on any violation). The
# smoke run also times one scheduled and one fused 240-query batch and fails
# if fusion does not raise modeled warp efficiency on the low-fanout tree.
# Direction gates only — speedup *magnitudes* are machine-dependent and
# deliberately not asserted.
run_bench_smoke() {
    cargo bench --workspace --no-run
    run_smoke
}
# Perf-trajectory gate: the compare mode must parse the committed baseline and
# a fresh smoke run, and flag regressions. Wall-clock numbers on CI hardware
# are incomparable to the committed baseline's, so this stage (a) self-compares
# the committed file at the strict threshold — a structural no-op that must
# always pass — and (b) diffs baseline vs fresh smoke at an absurd threshold
# (10000%) purely to exercise row matching end-to-end. Real gating against a
# same-machine baseline is: bench compare old.json new.json
run_bench_compare() {
    run_smoke
    cargo run --release -p psb-bench --bin bench -- compare BENCH_psb.json BENCH_psb.json
    cargo run --release -p psb-bench --bin bench -- compare \
        BENCH_psb.json target/BENCH_smoke.json --threshold 100
}

case "$stage" in
    fmt)           run_fmt ;;
    clippy)        run_clippy ;;
    hardlint)      run_hardlint ;;
    test)          run_test ;;
    faults)        run_faults ;;
    shard)         run_shard ;;
    chaos)         run_chaos ;;
    metrics)       run_metrics ;;
    wave)          run_wave ;;
    fastpath)      run_fastpath ;;
    kdtree)        run_kdtree ;;
    threads)       run_threads ;;
    bench-smoke)   run_bench_smoke ;;
    bench-compare) run_bench_compare ;;
    all)
        echo "== cargo fmt --check ==" && run_fmt
        echo "== cargo clippy -D warnings ==" && run_clippy
        echo "== cargo clippy (no unwrap/expect in geom+core+sstree+kdtree+serve+metrics+rayon shim) ==" && run_hardlint
        echo "== cargo test ==" && run_test
        echo "== fault-injection suite ==" && run_faults
        echo "== sharded serving suite ==" && run_shard
        echo "== resilience chaos suite ==" && run_chaos
        echo "== telemetry suite ==" && run_metrics
        echo "== buffer-wave suite ==" && run_wave
        echo "== fast-path suite ==" && run_fastpath
        echo "== kd-tree suite ==" && run_kdtree
        echo "== host-thread parity + soak, 1 and 4 threads ==" && run_threads
        echo "== bench smoke ==" && run_bench_smoke
        echo "== bench compare gate ==" && run_bench_compare
        echo "CI green."
        ;;
    *)
        echo "usage: $0 [fmt|clippy|hardlint|test|faults|shard|chaos|metrics|wave|fastpath|kdtree|threads|bench-smoke|bench-compare|all]" >&2
        exit 2
        ;;
esac
