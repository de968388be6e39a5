#!/usr/bin/env bash
# A/B benchmark pairs of a parent revision against the working tree:
#
#   scripts/pairs.sh [--trace] <parent-rev> <workload> <pairs> [seconds]
#
# Exports <parent-rev> (git archive) and the working tree (tracked
# and untracked files git does not ignore) into build/pairs/parent
# and build/pairs/change. The two paths have the same length, since
# perfbench's peak_rss_mb moves with the length of the checkout's
# path. Each side builds its own harness on its first run and keeps
# it across calls: build/pairs/parent is exported afresh only when
# <parent-rev> names another commit than last time (recorded in
# build/pairs/parent.sha), and build/pairs/change is re-exported
# around its .bench_build. git archive gives every file the commit's
# mtime and tar keeps the working tree's, so an unchanged side
# rebuilds nothing and an edited file rebuilds only its units. Pair
# k runs the unmodified `perfbench/run.py --record` of both sides,
# the parent first when k is odd and second when k is even, for
# [seconds] each (default: perfbench's), and appends each record to
# build/pairs/<side>.jsonl, which every call first empties. Then
# prints perfbench/compare.py over the two record files. With
# --trace, every run is a traced one
# (`run.py --trace 1`), so compare.py prints the per-layer deltas
# (isa.trace_s, sim.trace_index_s, ...) of paired runs instead of the
# end-to-end verdicts.
set -euo pipefail

trace=0
if [ "${1-}" = --trace ]; then
    trace=1
    shift
fi
if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 [--trace] <parent-rev> <workload> <pairs> [seconds]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3
seconds=()
if [ $# -eq 4 ]; then
    seconds=(--seconds "$4")
fi
case $pairs in
  '' | *[!0-9]* | 0) echo "pairs: not a positive count: $pairs" >&2
                     exit 2 ;;
esac

cd "$(dirname "$0")/.."
sha=$(git rev-parse --verify "$rev^{commit}")
out=build/pairs
mkdir -p "$out"
if [ "$(cat "$out/parent.sha" 2>/dev/null)" != "$sha" ]; then
    # The stamp goes first, so an interrupted export is redone.
    rm -rf "$out/parent.sha" "$out/parent"
    mkdir "$out/parent"
    git archive "$sha" | tar -x -C "$out/parent"
    echo "$sha" > "$out/parent.sha"
fi
mkdir -p "$out/change"
find "$out/change" -mindepth 1 -maxdepth 1 ! -name .bench_build \
    -exec rm -rf {} +
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do
        [ -e "$f" ] && printf '%s\0' "$f"
    done |
    tar -c --null -T - | tar -x -C "$out/change"
: > "$out/parent.jsonl"
: > "$out/change.jsonl"

run() {
    echo "pairs: pair $1 of $pairs: $2" >&2
    python3 "$out/$2/perfbench/run.py" --workload "$workload" \
        "${seconds[@]}" --trace "$trace" --record "$out/$2.jsonl" \
        > /dev/null
}
for k in $(seq 1 "$pairs"); do
    if [ $((k % 2)) -eq 1 ]; then
        run "$k" parent
        run "$k" change
    else
        run "$k" change
        run "$k" parent
    fi
done
echo "parent: $rev ($sha); change: the working tree; workload: $workload;" \
    "traced: $trace"
python3 perfbench/compare.py "$out/parent.jsonl" "$out/change.jsonl"
