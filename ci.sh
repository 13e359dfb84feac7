#!/usr/bin/env bash
# Local CI gate: formatting, lints, full test suite.
#
#   ./ci.sh            # everything (15 stages)
#   ./ci.sh fmt        # one stage (fmt | clippy | hardlint | test | faults |
#                      #            shard | chaos | metrics | wave | fastpath |
#                      #            kdtree | threads | bench-smoke | doc | api)
set -euo pipefail
cd "$(dirname "$0")"

stage="${1:-all}"

run_fmt()    { cargo fmt --all -- --check; }
run_clippy() { cargo clippy --workspace --all-targets -- -D warnings; }
# Every library crate must stay panic-free outside tests: a corrupt tree or a
# faulted device has to surface as a typed error (or a demoted replica), never
# an unwrap — and the observability layer must never be the thing that crashes
# the process it observes. psb-geom is on the wall because the SIMD/scalar
# distance evaluators sit on every kernel's innermost loop, the rayon shim
# because every one of those loops now runs on its workers (a panic there
# takes a whole batch down), and the simulator, the two other tree families
# and the data generators because every launch goes through them.
# (clippy.toml re-allows unwrap/expect inside #[cfg(test)].)
run_hardlint() {
    cargo clippy -p psb-geom -p psb-core -p psb-sstree -p psb-kdtree -p psb-serve -p psb-metrics \
        -p psb-gpu -p psb-rtree -p psb-data -p psb-srtree -p rayon --all-targets -- \
        -D warnings -D clippy::unwrap_used -D clippy::expect_used
}
run_test()   { cargo test --workspace -q; }
run_faults() { cargo test -p psb --test fault_injection -q; }
# Sharded serving layer: the router's own unit tests plus the bit-identity /
# failover acceptance suite (static shards, and mutable ones under faults),
# then the mutable shards underneath the router: `dynamic_sstree`
# (insert/remove/rebuild sequences and the cached router against a linear
# oracle) and psb-core's `dynamic` unit tests (the
# ascending id lists and base-position tombstones, `rebuild_due`, the
# snapshot / build / install protocol with its rebase of raced writes and its
# panic on another tree's build, inserts refused at the door with a typed
# error). Shard builds run on their own threads, started by `rebuild_shard`
# and by a write that leaves its shard due, so the router's tests,
# `dynamic_sstree`, `admission` and the `threads` soak run once more in
# release, where the builds race the writes on a different schedule:
# `admission`'s router-cache tests (the cache under writes, the hot query,
# writes through `inner_mut`) rebuild shards on build threads too, and only
# the debug `chaos` stage runs them otherwise; the soak's writer starts
# churn rebuilds beside the rebuilder's.
run_shard() {
    cargo test -p psb-serve -q
    cargo test -p psb --test shard_parity -q
    cargo test -p psb --test dynamic_sstree -q
    cargo test -p psb-core -q dynamic
    cargo test --release -p psb-serve -q
    cargo test --release -p psb --test dynamic_sstree -q
    cargo test --release -p psb --test admission -q
    cargo test --release -p psb --test threads -q
}
# Resilience layer: the chaos soak (fault injection + deadline pressure +
# quota shedding + breaker trips at once; zero panics, every query resolving
# to exactly one typed outcome, bit-deterministic replay), once unbounded and
# once under a per-batch admission bound below the batch size, psb-serve's
# own `admission::` unit tests (token buckets, the batch bound checked before
# the bucket, breaker transitions), the admission property tests, and the
# golden-parity suite pinning that the transparent front-end is bit-identical
# to the bare router. The admission/deadline modules themselves sit inside
# psb-serve, so hardlint's no-unwrap wall already covers them.
run_chaos() {
    cargo test -p psb --test chaos -q
    cargo test -p psb-serve -q admission::
    cargo test -p psb --test admission -q
    cargo test -p psb --test resilience_parity -q
}
# Telemetry layer: the registry/histogram/span unit+property tests, plus the
# no-op-parity golden suite pinning that an attached registry never changes
# neighbors, counters, or reports (DESIGN.md "Telemetry (psb-metrics)").
run_metrics() {
    cargo test -p psb-metrics -q
    cargo test -p psb --test metrics_parity -q
}
# Buffer-wave engine (DESIGN.md "Buffer-wave traversal"): the parity suite — neighbours
# and outcomes bit-identical to the per-query engine on both tree families, at
# every batch size 1..48, under Hilbert scheduling, `QueryStream` and an
# attached registry — which also pins that queries actually share sweeps
# (mean fill > 1). kNN and range are one per-node step over two collectors;
# `kernel_fingerprint` pins each one's counters. The engine's own unit tests
# state the metering contract: every coalesced sweep adds exactly one node
# visit to what priming visits, and each fetch is split to the byte. Wave vs
# per-query wall-clock is the repo benchmark's `wave.us_per_query` layer.
run_wave() {
    cargo test -p psb --test wave_parity -q
    cargo test -p psb-core -q wave::
}
# Fast path (DESIGN.md "Distance evaluators", "Metering::Off"): the parity suite
# pinning that the SIMD lanes and Metering::Off change nothing observable, and
# the geom crate's own evaluator identity tests. Every other stage builds the
# test profile; the benchmark and users run `--release`, where LLVM unrolls
# and schedules the four-row kernel differently, so the geom identity tests
# and the 580-row kernel fingerprint run here a second time, optimised, and so
# do psb-core's collector tests: the k-best list's four-row gate compiles to
# different compares and branches when optimised. So do the PSB sweep memo's
# parity tests: the memo's resume point and the collector's k-th-MAXDIST
# select skip are host-only work removed from the node step, and release,
# where the benchmark runs them, is where they must prove they move nothing. So
# do the mutable index's tests: its timed query is the unmetered PSB launch,
# and the tombstone rule sits in the same gate. So do the k-best list's own
# tests and the exactness gate, whose lattice probe holds every search to the
# first k by (distance, id): the gate's tie-at-the-bound test is one of the
# compares LLVM rewrites. The
# probe for what metering costs the host is the repo benchmark's traced
# `gpu.metering_overhead_frac` (1 - `kernels.psb_us_per_query` /
# `kernels.psb_metered_us_per_query`): an untraced metered launch should pay
# for its counters, not for a trace sink.
run_fastpath() {
    cargo test -p psb --test fastpath_parity -q
    cargo test -p psb-geom -q
    cargo test --release -p psb-geom -q
    cargo test --release -p psb --test kernel_fingerprint -q
    cargo test --release -p psb-core -q collector
    cargo test --release -p psb-core -q kernels::psb
    cargo test --release -p psb-core -q dynamic
    cargo test --release -p psb-core -q knnlist
    cargo test --release -p psb --test exactness -q
}
# Implicit kd-tree family + rope traversal
# (DESIGN.md "The implicit kd-tree", "Rope links"): the kdtree crate's
# construction/search/validation tests, psb-core's doctests (an `LbKdTree`
# launches the stack-free kernel, which reads it directly, and a
# bounding-volume kernel, which takes a `FlatTree`, does *not* type-check over
# it: a `compile_fail` doctest on `stackfree_batch`), the stack-free golden parity suite
# (bit-identity against the brute oracle and SS-tree PSB, ± faults,
# ± Metering::Off), and the rope-link suite (escape links = preorder
# successors on both bounding-volume arenas; the one rope walk, under the
# restart kernel's k-best list and the range kernel's radius, bit-identical to
# the stacked traversals).
run_kdtree() {
    cargo test -p psb-kdtree -q
    cargo test -p psb-core --doc -q
    cargo test -p psb --test kdtree_parity -q
    cargo test -p psb --test ropes -q
}
# Real host threads (DESIGN.md "The executor under every par_iter"): the
# thread-count parity suite and the concurrent soak, then every
# bit-identity parity suite, all twice — under
# RAYON_NUM_THREADS=1 (the calling thread runs every piece) and =4, which
# oversubscribes a small CI box on purpose to shake out interleavings. The
# suites assert bit-equality against oracles computed in the same process, so
# passing under both settings is what "thread count changes nothing" means.
# psb-serve's own tests ride along: its runner executes cache misses ahead of
# their turn on the pool, and its unit tests hold that to the one-at-a-time
# loop (window of one vs whole batch) where a replica dies, a breaker trips or
# a planned cache hit is not there. `kernel_fingerprint` rides along for its
# pool-run rows: every kernel's wave form and the degraded rung must hash to
# the golden table at either count. `dynamic_sstree` is here for the rebuild
# protocol (every snapshot → build → install runs its build on the pool) and
# for the router's one result cache (`knn`'s and the resilient batches'),
# maintained under writes: cached = uncached = linear oracle through random
# inserts, removes and shard rebuilds; `admission` walks
# the same rule case by case and `threads`' soak counts it from the registry.
# `observability` is here because its silent-versus-traced assertions are where
# an untraced batch (`sink: None`) runs its ladder on the pool. `exactness` and
# `topdown_goldens` pin the answers of the host k-best list (`psb_geom::KBest`)
# and the SR-tree's tie order, which must not depend on the thread count either.
run_threads() {
    local t
    for t in 1 4; do
        echo "-- RAYON_NUM_THREADS=$t --"
        RAYON_NUM_THREADS=$t cargo test -q -p rayon
        RAYON_NUM_THREADS=$t cargo test -q -p psb-serve
        for suite in threads layout_parity schedule_parity wave_parity fastpath_parity \
            kdtree_parity shard_parity resilience_parity metrics_parity chaos admission \
            tree_invariants dynamic_sstree kernel_fingerprint observability exactness \
            topdown_goldens; do
            RAYON_NUM_THREADS=$t cargo test -q -p psb --test "$suite"
        done
    done
}
# Benchmark gate: every criterion bench must compile, and the declared repo
# benchmark (BENCHMARK.json) must pass its own smoke: all four workloads at
# 1/20 size, both passes twice, result lines validated against the spec,
# every answer verified against the oracle, deterministic metrics bit-equal.
# Building benchmark/ may rewrite its Cargo.lock, which only a benchmark-only
# PR may change: the stage puts the file back as it found it.
run_bench_smoke() {
    cargo bench --workspace --no-run
    local lock rc=0
    lock="$(mktemp)"
    cp benchmark/Cargo.lock "$lock"
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke || rc=$?
    cp "$lock" benchmark/Cargo.lock && rm -f "$lock"
    return "$rc"
}

# Intra-doc links are code: a renamed type, a link to a private item or a
# bracketed citation that parses as a link fails the build here.
run_doc() { RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline; }

# The public surface is a diff: api/psb-<crate>.txt lists every `pub` item of
# the ten library crates and every `pub` field of their `pub` structs, so a PR
# that widens (or narrows) the surface — or adds an option to `KernelOptions`,
# `ServeConfig` or `ResilienceConfig` — shows it in review. api/unnamed.txt
# is the reviewed list of `pub` items nothing outside their crate names (the
# reference oracles and the types of public returns and fields), so a new one
# shows up too. The stage regenerates all of them and fails on any difference.
# It also keeps the index crates below the kernels: psb-sstree, psb-rtree,
# psb-kdtree and psb-srtree may not list psb-core under [dependencies]. And it
# resolves every section reference in *.rs, ci.sh and README.md: the
# name of DESIGN.md, EXPERIMENTS.md or a run log under experiments/, followed
# by one or more double-quoted titles (separated by `, ` or ` and `), must name
# the start of a heading of that file. The numbered form is refused: section
# numbers move with every reorganisation.
run_api() {
    local fresh rc=0
    fresh="$(mktemp -d)"
    api/surface.sh list "$fresh"
    api/surface.sh unnamed >"$fresh/unnamed.txt"
    if ! diff -u --exclude=surface.sh --exclude=lines.sh api "$fresh"; then
        echo "public surface changed; review the diff above, then:" \
            "api/surface.sh list api && api/surface.sh unnamed >api/unnamed.txt" >&2
        rc=1
    fi
    rm -rf "$fresh"
    check_index_crates || rc=1
    check_section_refs || rc=1
    # Non-test lines per crate: printed for the record, not gated.
    api/lines.sh
    return "$rc"
}
check_index_crates() {
    local rc=0 c
    for c in sstree rtree kdtree srtree; do
        if sed -n '/^\[dependencies\]/,/^\[/p' "crates/$c/Cargo.toml" | grep -q '^psb-core'; then
            echo "crates/$c/Cargo.toml lists psb-core: the index crates sit below the kernels" >&2
            rc=1
        fi
    done
    return "$rc"
}
check_section_refs() {
    local rc=0 files ref doc title doc_re='(DESIGN\.md|EXPERIMENTS\.md|experiments/PR-[0-9]+\.md)'
    files="$(git ls-files '*.rs' ci.sh README.md)"
    # shellcheck disable=SC2086
    if grep -nE "(DESIGN|EXPERIMENTS)\.md\`? *§" $files; then
        echo "numbered section references above: name the section's title instead" >&2
        rc=1
    fi
    # One line per reference: `<file>|"Title"[, "Title"...]`.
    # shellcheck disable=SC2086
    while IFS= read -r ref; do
        doc="${ref%%|*}"
        while IFS= read -r title; do
            if ! sed -nE 's/^#+ //p' "$doc" | awk -v t="$title" 'index($0, t) == 1 { ok = 1 } END { exit !ok }'; then
                echo "no heading of $doc starts with \"$title\"" >&2
                rc=1
            fi
        done < <(grep -oE '"[^"]+"' <<<"${ref#*|}" | tr -d '"')
    done < <(grep -ohE "$doc_re\`?,? (\"[^\"]+\"(, | and )?)+" $files |
        sed -E "s#^$doc_re\`?,? #\\1|#" | sort -u)
    return "$rc"
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
    doc)           run_doc ;;
    api)           run_api ;;
    all)
        echo "== cargo fmt --check ==" && run_fmt
        echo "== cargo clippy -D warnings ==" && run_clippy
        echo "== cargo clippy (no unwrap/expect in geom+core+sstree+kdtree+serve+metrics+gpu+rtree+data+srtree+rayon shim) ==" && run_hardlint
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
        echo "== cargo doc -D warnings ==" && run_doc
        echo "== public surface lists + section references ==" && run_api
        echo "CI green."
        ;;
    *)
        echo "usage: $0 [fmt|clippy|hardlint|test|faults|shard|chaos|metrics|wave|fastpath|kdtree|threads|bench-smoke|doc|api|all]" >&2
        exit 2
        ;;
esac
