#!/usr/bin/env sh
# Coverage gate: every src/ function must be reached by a shipped run
# or by a test. It takes no options.
#
# Builds the tree with gcc's --coverage at -O0 in build-coverage/, and
# perfbench's harness the same way in build-coverage/perfbench/. Then:
#
#   1. the shipped runs: scripts/smoke.sh's invocations (every
#      example, figures and pf_report), and perfbench's harness
#      (--prime, a traced lineup-serial run and a cold-pipeline run,
#      all at scale 0.02);
#   2. ctest, with the counters zeroed first.
#
# gcov reads each phase's counters as JSON, and
# scripts/coverage_lists.py merges them per function across
# translation units (a header function is compiled into every unit
# that includes it). It writes build-coverage/coverage-shipped.json
# (the src/ functions a shipped run reaches) and
# build-coverage/coverage-tests-only.json (those only ctest reaches),
# prints executable-line and function counts, and exits 1 naming
# every src/ function that neither phase reaches (and every src/
# header that does not compile on its own; see below).
set -eu

cd "$(dirname "$0")/.."

dir=build-coverage
flags="-O0 -DNDEBUG --coverage"
configure() {
    cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=None \
        -DCMAKE_CXX_FLAGS="$flags" -DCMAKE_EXE_LINKER_FLAGS=--coverage \
        > /dev/null
}
# Counters left by an earlier run would be merged into this one's.
[ -d "$dir" ] && find "$dir" -name '*.gcda' -delete
configure . "$dir"
cmake --build "$dir" -j 4 > /dev/null
configure perfbench "$dir/perfbench"
cmake --build "$dir/perfbench" --target pf_perfbench -j 4 > /dev/null

# A unit emits an inline function only where it calls it, and gcov
# lists only emitted functions. So each src/ header is also compiled
# on its own with -fkeep-inline-functions, which emits every inline
# function it defines; an inline function that nothing calls then
# shows as reached by nothing. These units are compiled, never linked
# or run. (A template that nothing instantiates stays invisible.) A
# header that does not compile on its own is named, and fails the
# gate after the report.
rm -rf "$dir/headers"
mkdir -p "$dir/headers"
find src -name '*.hh' | xargs -P 4 -I {} sh -c '
    c++ -std=c++20 $1 -fkeep-inline-functions -Isrc -x c++ -c "$2" \
        -o "$3/headers/$(echo "$2" | tr / _).o" 2> /dev/null ||
        echo "$2" >> "$3/headers/failed"' sh "$flags" {} "$dir"

# The shipped runs. Nothing here writes outside build-coverage/: the
# harness's store is private, and its reference dir is only read.
# Each run's output goes to build-coverage/shipped.log, shown if a
# run fails.
log="$dir/shipped.log"
shipped() {
    "$@" >> "$log" 2>&1 || {
        cat "$log" >&2
        echo "coverage: failed: $*" >&2
        exit 1
    }
}
find "$dir" -name '*.gcda' -delete
rm -f "$log"
shipped ./scripts/smoke.sh "$dir"
bench="$dir/perfbench/pf_perfbench"
store="$dir/perfbench-store"
rm -rf "$store"
shipped "$bench" --prime --store "$store" --scale 0.02
for run in "lineup-serial 1" "cold-pipeline 0"; do
    set -- $run
    shipped "$bench" --workload "$1" --trace "$2" --seconds 0.1 \
        --store "$store" --reference-dir perfbench/reference \
        --scale 0.02
done
rm -rf "$store"
python3 scripts/coverage_lists.py snapshot "$dir/shipped.counts" \
    "$dir"

# The tests, on zeroed counters. The perfbench build has none.
find "$dir" -name '*.gcda' -delete
ctest --test-dir "$dir" -j 4 > "$dir/ctest.log" || {
    cat "$dir/ctest.log" >&2
    exit 1
}
python3 scripts/coverage_lists.py snapshot "$dir/tests.counts" "$dir"

status=0
python3 scripts/coverage_lists.py report "$dir/shipped.counts" \
    "$dir/tests.counts" "$dir" || status=1
if [ -s "$dir/headers/failed" ]; then
    sed 's/^/coverage: does not compile on its own: /' \
        "$dir/headers/failed"
    status=1
fi
exit $status
