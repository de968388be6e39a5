#!/usr/bin/env sh
# Smoke check: build, then every example, the figures bench at a
# tenth of the default workload scale and the cycle-accounting
# report. Catches build breaks and bench-harness crashes in a couple
# of minutes. It runs no tests: run ctest (the tier-1 verify flow)
# for those.
#
#   scripts/smoke.sh [BUILD_DIR]     (default: build)
#
# BUILD_DIR is configured if it is not already, so a tree configured
# with other flags (scripts/coverage.sh's) keeps them. These are the
# shipped invocations: coverage.sh counts what they reach.
#
# Nothing here persists artifacts: every run rebuilds its traces,
# analyses and hint tables from the current code. (Set PF_CACHE_DIR
# to try the opt-in store; the warm-cache CI job covers it.)
set -eu

cd "$(dirname "$0")/.."

build=${1:-build}
cmake -B "$build" -S .
cmake --build "$build" -j

# Every example, each a short end-to-end run. Each one's stdout goes
# to BUILD_DIR/examples/<example>.txt; scripts/repin.sh copies those
# files to results/, so CI's re-pin step checks them.
ex="$build"/examples
"$ex"/quickstart > "$ex"/quickstart.txt
"$ex"/policy_explorer twolf 0.05 > "$ex"/policy_explorer.txt
"$ex"/workload_stats 0.05 > "$ex"/workload_stats.txt
"$ex"/twolf_kernel > "$ex"/twolf_kernel.txt
"$ex"/task_timeline twolf 0.05 > "$ex"/task_timeline.txt

# Every paper figure through one sweep; the reports go to stdout,
# timing and cache accounting to stderr, CSVs and stats JSON into
# the build tree.
(cd "$build"/bench && PF_BENCH_SCALE=0.1 ./figures)

# Cycle-accounting report: re-verifies the slot-accounting identity
# (buckets sum to cycles x issueWidth) on a live grid and exercises
# the JSON/CSV stats export.
(cd "$build"/tools && ./pf_report --scale 0.05 \
    --json pf_report.smoke.json --csv pf_report.smoke.csv)

echo "smoke: OK"
