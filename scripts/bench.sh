#!/bin/sh
# Runs the full §7 experiment sweep twice — cold (fresh cache) and warm
# (fully cached) — and writes machine-readable performance reports
# (schema localias-bench-experiment/v6, with per-shard cache counters,
# an embedded per-phase profile block, and the latency-histogram block
# with exact p50/p90/p95/p99 per stage) to the repo root:
#
#   BENCH_experiment_cold.json   cold sweep, cache.misses == modules
#   BENCH_experiment.json        warm sweep, cache.hits   == modules
#   BENCH_intra.json             mega-module sequential-vs-wave-parallel
#                                timings (schema localias-bench-intra/v3)
#   BENCH_watch.json             function-granular incremental recheck:
#                                cold/edit/no-op latencies + check-phase
#                                speedup over from-scratch analysis
#                                (schema localias-bench-watch/v2)
#   BENCH_fuzz.json              differential-fuzzing throughput + FP
#                                rates (schema localias-bench-fuzz/v2)
#   BENCH_scale.json             modules/sec + peak RSS vs corpus size
#                                (schema localias-bench-scale/v2; only
#                                written when BENCH_SCALE=1 — it takes
#                                minutes)
#
# After the sweeps, `localias bench-diff` reports warm-vs-cold and — when
# a previous BENCH_experiment.json existed — run-over-run deltas. Both
# reports are informational here (|| true): regressions print but don't
# fail the bench run. CI gates on bench-diff in scripts/check.sh instead.
#
# Usage: scripts/bench.sh [--jobs N] [SEED]
#        (extra args are passed through to `localias experiment`)
# The cache directory defaults to .localias-cache and is recreated so the
# "cold" pass is genuinely cold; override with LOCALIAS_CACHE=dir.
set -eu

cd "$(dirname "$0")/.."

CACHE=${LOCALIAS_CACHE:-.localias-cache}

cargo build --release -p localias-driver -p localias-bench

# Keep the previous warm artifact around for the run-over-run report.
if [ -f BENCH_experiment.json ]; then
    cp BENCH_experiment.json BENCH_experiment.prev.json
fi

rm -rf "$CACHE"
./target/release/localias experiment --cache "$CACHE" \
    --bench-out BENCH_experiment_cold.json "$@"
./target/release/localias experiment --cache "$CACHE" \
    --bench-out BENCH_experiment.json "$@"

echo
echo "wrote $(pwd)/BENCH_experiment_cold.json (cold):"
cat BENCH_experiment_cold.json
echo
echo "wrote $(pwd)/BENCH_experiment.json (warm):"
cat BENCH_experiment.json

# What did the cache buy? The warm-vs-cold delta, per metric — wall time
# and phase times should be "improved", throughput likewise; histogram
# percentiles show which stages the cache removes entirely.
echo
echo "bench-diff cold -> warm:"
./target/release/localias bench-diff BENCH_experiment_cold.json \
    BENCH_experiment.json || true

# Run-over-run: this warm sweep against the previous one, when we have
# one. Informational — machine gating happens in check.sh.
if [ -f BENCH_experiment.prev.json ]; then
    echo
    echo "bench-diff previous warm run -> this warm run:"
    ./target/release/localias bench-diff BENCH_experiment.prev.json \
        BENCH_experiment.json || true
fi

# Intra-module wave parallelism on the synthesized mega-module: one
# sequential and one parallel run per mode, reports asserted identical.
# On a single-core container the "speedup" hovers near 1x; the per-wave
# timings still record the schedule the parallel path executes.
./target/release/intra --intra-jobs 4 --bench-out BENCH_intra.json

echo
echo "wrote $(pwd)/BENCH_intra.json (mega-module):"
cat BENCH_intra.json

# Function-granular incremental recheck on the mega-module: seeded
# single-function edits against an IncrementalSession, every report
# asserted byte-identical to from-scratch checking. The headline is
# check-phase vs check-phase at --intra-jobs 1 — parallelism helps the
# full check more than the (already tiny) incremental one, so the
# single-thread number is the honest comparison; end-to-end stays
# analysis-dominated by design (see EXPERIMENTS.md).
./target/release/watch --funs 300 --edits 8 --intra-jobs 1 --profile \
    --bench-out BENCH_watch.json

echo
echo "wrote $(pwd)/BENCH_watch.json (incremental recheck):"
cat BENCH_watch.json

# Differential fuzzing: 2,000 generated modules executed under the
# interpreter oracle and checked under all three modes x both
# backends. Exits non-zero on any soundness divergence, so the bench
# sweep doubles as a release gate; the artifact records fuzz
# throughput and the measured false-positive rate per mode/backend.
./target/release/fuzz 42 --modules 2000 --profile --bench-out BENCH_fuzz.json

echo
echo "wrote $(pwd)/BENCH_fuzz.json (differential fuzzing):"
cat BENCH_fuzz.json

# The corpus-scale sweep (1k..50k modules, 1 and 2 partitions) takes
# minutes, so it only runs when explicitly requested.
if [ "${BENCH_SCALE:-0}" = "1" ]; then
    scripts/bench_scale.sh
else
    echo
    echo "skipping corpus-scale sweep (set BENCH_SCALE=1 to run scripts/bench_scale.sh)"
fi
