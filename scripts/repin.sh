#!/usr/bin/env sh
# Re-pin every committed cycle record from the current code, then
# print a per-cell cycle-delta table (paste it into CHANGES.md with
# the change that moved the cells). It takes no options. It rewrites:
#
#   tests/golden/cells-scale0.04.tsv   the ctest cycle pin: the cells
#       test_golden's grid test measured (19 labels x 12 workloads);
#   results/*.txt, results/*.csv       `figures` at PF_BENCH_SCALE=1,
#       its stdout split at the eight "=== " report banners, and
#       quickstart's stdout;
#   perfbench/reference/cells-scale{0.02,0.1}.tsv
#       `pf_perfbench --write-reference` at both pinned scales.
#
# Program hashes (WorkloadRegistry.ProgramsArePinned) stay as they
# are: a program change is declared on its own. On a tree whose model
# matches its pins, the script leaves `git status --porcelain` empty.
set -eu

cd "$(dirname "$0")/.."

old=build/repin-old
pins="tests/golden/cells-scale0.04.tsv
perfbench/reference/cells-scale0.02.tsv
perfbench/reference/cells-scale0.1.tsv"
reports="fig05_static_distribution fig08_machine_config
fig09_individual_heuristics fig10_heuristic_combinations
fig11_exclusion_loss fig12_reconvergence_predictor related_dynamic
ablation_resources"
csvs="fig05 fig09 fig10 fig11 fig12 related_dynamic"

cmake -B build -S . > /dev/null
cmake --build build -j 4 > /dev/null
rm -rf "$old"
mkdir -p "$old/tests/golden" "$old/perfbench/reference" "$old/results"
for f in $pins; do cp "$f" "$old/$f"; done
cp results/*.txt results/*.csv "$old/results/"

# The ctest pin. The grid test fails when a cell moved, but it
# writes every cell it measured either way.
rm -f build/tests/cells-scale0.04.tsv
(cd build/tests &&
 ./test_golden --gtest_filter=Golden.CellsMatchThePinFile > /dev/null) ||
    true
cp build/tests/cells-scale0.04.tsv tests/golden/

# results/: figures prints its reports in this order, each starting
# with a "=== " banner line, so stdout is the eight files concatenated.
(cd build/bench && PF_BENCH_SCALE=1 PF_CACHE_DIR=off ./figures \
    > figures.out 2> figures.err) || {
    cat build/bench/figures.err >&2
    exit 1
}
echo $reports | awk -v out=build/bench/figures.out '
    function fail(msg) {
        print "repin: figures output: " msg > "/dev/stderr"
        exit 1
    }
    {
        n = split($0, name, " ")
        while ((getline line < out) > 0) {
            if (line ~ /^=== /) {
                if (++i > n)
                    fail("more than " n " reports")
                file = "results/" name[i] ".txt"
            } else if (!i) {
                fail("text before the first report")
            }
            print line > file
        }
        if (i != n)
            fail(i " reports, expected " n)
    }'
for r in $reports; do cat "results/$r.txt"; done | cmp - build/bench/figures.out
for csv in $csvs; do cp "build/bench/$csv.csv" results/; done
./build/examples/quickstart > results/quickstart.txt

# perfbench's references, from its own Release build (the tree
# perfbench/run.py builds).
cmake -S perfbench -B .bench_build/perfbench \
    -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build .bench_build/perfbench --target pf_perfbench -j 4 \
    > /dev/null
for scale in 0.02 0.1; do
    .bench_build/perfbench/pf_perfbench --write-reference \
        --reference-dir perfbench/reference --scale "$scale" > /dev/null
done

# The delta table: one row per cell whose cycles or stats moved.
printf 'pin\tcell\told\tnew\tdelta\n'
for f in $pins; do
    awk -F '\t' -v pin="$f" '
        FNR == 1 { part++ }
        /^#/ { next }
        part == 1 { cycles[$1 "/" $2] = $3; sha[$1 "/" $2] = $4; next }
        {
            cell = $1 "/" $2
            seen[cell] = 1
            rows++
            if (!(cell in cycles))
                row(cell, "-", $3, "new cell")
            else if (cycles[cell] != $3)
                row(cell, cycles[cell], $3, sprintf("%+d (%+.1f%%)",
                    $3 - cycles[cell],
                    100 * ($3 - cycles[cell]) / cycles[cell]))
            else if (sha[cell] != $4)
                row(cell, $3, $3, "stats differ")
        }
        function row(cell, was, now, what) {
            printf "%s\t%s\t%s\t%s\t%s\n", pin, cell, was, now, what
            moved++
        }
        END {
            for (cell in cycles)
                if (!(cell in seen))
                    row(cell, cycles[cell], "-", "cell removed")
            printf "%s: %d of %d cells moved\n", pin, moved, rows \
                >> summary
        }' summary="$old/summary" "$old/$f" "$f"
done
echo
cat "$old/summary"
for f in results/*.txt results/*.csv; do
    cmp -s "$old/$f" "$f" || echo "$f: changed"
done
