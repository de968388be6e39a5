#!/usr/bin/env python3
"""Merge gcov's counters into per-function and per-line src/ coverage.

    coverage_lists.py snapshot OUT BUILD_DIR
    coverage_lists.py report SHIPPED TESTS OUT_DIR

`snapshot` runs `gcov --json-format` on every .gcno under BUILD_DIR
and writes OUT: each src/ function's and each executable src/ line's
execution count, summed over the translation units that compiled it.
A function is keyed by its file and its start line and column, so a
header function's copies in many units, a template's instantiations
and a destructor's complete and deleting variants are one function.
Units under BUILD_DIR/headers are src/ headers compiled on their own,
never run: they only add the inline functions no other unit emits.
Such a function (one the other units always inlined, or nothing
calls) counts as reached if any line of its body ran.

`report` reads a snapshot of the shipped runs and one of the tests,
writes OUT_DIR/coverage-shipped.json and OUT_DIR/coverage-tests-only.json
(lists of {"file", "line", "function"}), prints the counts, and exits
1 naming each function that neither snapshot reaches.
scripts/coverage.sh runs both.
"""

import json
import os
import subprocess
import sys


def snapshot(out, build_dir):
    notes = sorted(os.path.join(d, f)
                   for d, _, files in os.walk(build_dir)
                   for f in files if f.endswith(".gcno"))
    root = os.getcwd()
    header_units = os.path.join(build_dir, "headers") + os.sep
    functions, lines = {}, {}
    for i in range(0, len(notes), 100):
        # A unit whose program never ran has no .gcda; gcov then
        # counts it as not executed, and says so on stderr.
        r = subprocess.run(["gcov", "--json-format", "--stdout"] +
                           notes[i:i + 100], capture_output=True,
                           text=True, check=True)
        for doc in r.stdout.splitlines():
            doc = json.loads(doc)
            emitted = not doc["data_file"].startswith(header_units)
            for f in doc["files"]:
                path = os.path.relpath(os.path.realpath(f["file"]), root)
                if not path.startswith("src" + os.sep):
                    continue
                for fn in f["functions"]:
                    key = "%s:%d:%d" % (path, fn["start_line"],
                                        fn["start_column"])
                    e = functions.setdefault(
                        key, {"file": path, "line": fn["start_line"],
                              "end": fn["end_line"],
                              "function": fn["demangled_name"],
                              "count": 0, "emitted": False})
                    e["count"] += fn["execution_count"]
                    e["emitted"] |= emitted
                    e["function"] = min(e["function"],
                                        fn["demangled_name"])
                per_file = lines.setdefault(path, {})
                for ln in f["lines"]:
                    n = str(ln["line_number"])
                    per_file[n] = per_file.get(n, 0) + ln["count"]
    with open(out, "w") as fh:
        json.dump({"functions": functions, "lines": lines}, fh)


def report(shipped_path, tests_path, out_dir):
    with open(shipped_path) as fh:
        shipped = json.load(fh)
    with open(tests_path) as fh:
        tests = json.load(fh)

    def reached(snap, key):
        e = snap["functions"].get(key)
        if not e:
            return False
        if e["count"] > 0:
            return True
        ran = snap["lines"].get(e["file"], {})
        body = range(e["line"], e["end"] + 1)
        return not e["emitted"] and any(ran.get(str(n), 0) for n in body)

    every = dict(tests["functions"])
    every.update(shipped["functions"])
    by_ship, by_tests, neither = [], [], []
    for key in sorted(every, key=lambda k: (every[k]["file"],
                                            every[k]["line"], k)):
        entry = {k: every[key][k] for k in ("file", "line", "function")}
        if reached(shipped, key):
            by_ship.append(entry)
        elif reached(tests, key):
            by_tests.append(entry)
        else:
            neither.append(entry)
    for name, entries in (("coverage-shipped.json", by_ship),
                          ("coverage-tests-only.json", by_tests)):
        with open(os.path.join(out_dir, name), "w") as fh:
            json.dump(entries, fh, indent=1)
            fh.write("\n")

    line_counts = [0, 0, 0]
    for path in set(shipped["lines"]) | set(tests["lines"]):
        s = shipped["lines"].get(path, {})
        t = tests["lines"].get(path, {})
        for n in set(s) | set(t):
            line_counts[0 if s.get(n, 0) else 1 if t.get(n, 0) else 2] += 1
    print("coverage: src/ executable lines: %d; shipped runs reach %d, "
          "only tests %d, neither %d" % ((sum(line_counts),) +
                                          tuple(line_counts)))
    print("coverage: src/ functions: %d; shipped runs reach %d, "
          "only tests %d, neither %d" % (len(every), len(by_ship),
                                         len(by_tests), len(neither)))
    for e in neither:
        print("coverage: reached by nothing: %s:%d %s" %
              (e["file"], e["line"], e["function"]))
    return 1 if neither else 0


def main(argv):
    if len(argv) == 3 and argv[0] == "snapshot":
        snapshot(argv[1], argv[2])
        return 0
    if len(argv) == 4 and argv[0] == "report":
        return report(argv[1], argv[2], argv[3])
    print(__doc__.strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
