#!/usr/bin/env python3
"""Compare two sets of PolyFlow benchmark runs (pf_bench_diff).

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl
    python3 perfbench/compare.py RUNS.jsonl          # one set: spread
                                                     # and layer medians

Each file holds the records that `run.py --record FILE` appends, one
JSON object per run. For every workload x end-to-end metric of
BENCHMARK.json it prints each side's median and quartiles, the
fraction of pairs the new side won, and a verdict:

  better      the new side wins at least 9 in 10 pairs and the medians
              differ by more than the base's own quartile spread, or
              every new run beats every base run;
  worse       the new median is worse than the base median by more
              than the metric's bound;
  unresolved  either side's quartile spread exceeds the bound (and the
              new side does not beat the base in every run);
  unchanged   otherwise.

Pairs are the i-th base run against the i-th new run; ties count for
neither side. Traced runs (--trace 1) give the per-layer deltas, one
median per side.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives
    them; a single value is its own quartiles."""
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def wins(a, b, better):
    """True when value @a beats @b in direction @better."""
    return a < b if better == "lower" else a > b


def pairs_won(base, new, better):
    """Share of index-paired runs the new side won (ties: neither)."""
    pairs = list(zip(base, new))
    if not pairs:
        return 0.0
    return sum(1 for b, n in pairs if wins(n, b, better)) / len(pairs)


def verdict(base, new, better, bound):
    """better / worse / unchanged / unresolved, as the module doc
    defines them."""
    _, bmed, _ = quartiles(base)
    _, nmed, _ = quartiles(new)
    always_better = all(wins(n, b, better) for n in new for b in base)
    if max(spread(base), spread(new)) > bound:
        return "better" if always_better else "unresolved"
    bq1, _, bq3 = quartiles(base)
    if always_better or (pairs_won(base, new, better) >= 0.9 and
                         abs(nmed - bmed) > bq3 - bq1):
        return "better"
    worse_by = (nmed - bmed) if better == "lower" else (bmed - nmed)
    if worse_by > bound * abs(bmed):
        return "worse"
    return "unchanged"


def load(path):
    """{(workload, traced): [record, ...]} in file order."""
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                rec = json.loads(line)
                runs.setdefault((rec["workload"], rec["traced"]),
                                []).append(rec)
    return runs


def values(records, metric):
    return [r["metrics"][metric]["value"] for r in records
            if metric in r["metrics"]]


def fmt(v):
    return "%.6g" % v


def report_spread(runs, spec, out):
    out.write("%-16s %-20s %5s %12s %12s %12s %8s %7s\n" % (
        "workload", "metric", "runs", "q1", "median", "q3", "spread",
        "bound"))
    for w in spec["workloads"]:
        recs = runs.get((w["name"], False), [])
        for m in spec["end_to_end"]:
            v = values(recs, m["name"])
            if not v:
                continue
            q1, med, q3 = quartiles(v)
            out.write("%-16s %-20s %5d %12s %12s %12s %7.2f%% %6.0f%%\n"
                      % (w["name"], m["name"], len(v), fmt(q1), fmt(med),
                         fmt(q3), 100 * spread(v), 100 * m["bound"]))
    traced = [w["name"] for w in spec["workloads"]
              if runs.get((w["name"], True))]
    if not traced:
        return
    out.write("\nper-layer medians (traced runs)\n%-36s" % "metric")
    out.write("".join(" %16s" % w for w in traced) + "  unit\n")
    for m in spec["per_layer"]:
        meds = [values(runs[(w, True)], m["name"]) for w in traced]
        out.write("%-36s" % m["name"])
        out.write("".join(" %16s" % (fmt(statistics.median(v)) if v else "-")
                          for v in meds))
        out.write("  %s\n" % m["unit"])


def report_compare(base, new, spec, out):
    out.write("%-16s %-18s %-26s %-26s %6s  %s\n" % (
        "workload", "metric", "base median [q1, q3]",
        "new median [q1, q3]", "won", "verdict"))
    for w in spec["workloads"]:
        b_recs = base.get((w["name"], False), [])
        n_recs = new.get((w["name"], False), [])
        for m in spec["end_to_end"]:
            b = values(b_recs, m["name"])
            n = values(n_recs, m["name"])
            if not b or not n:
                continue
            bq = quartiles(b)
            nq = quartiles(n)
            out.write("%-16s %-18s %-26s %-26s %5.0f%%  %s\n" % (
                w["name"], m["name"],
                "%s [%s, %s]" % (fmt(bq[1]), fmt(bq[0]), fmt(bq[2])),
                "%s [%s, %s]" % (fmt(nq[1]), fmt(nq[0]), fmt(nq[2])),
                100 * pairs_won(b, n, m["better"]),
                verdict(b, n, m["better"], m["bound"])))
    out.write("\nper-layer deltas (traced runs, medians)\n")
    for w in spec["workloads"]:
        b_recs = base.get((w["name"], True), [])
        n_recs = new.get((w["name"], True), [])
        if not b_recs or not n_recs:
            continue
        for m in spec["per_layer"]:
            b = values(b_recs, m["name"])
            n = values(n_recs, m["name"])
            if not b or not n:
                continue
            bm, nm = statistics.median(b), statistics.median(n)
            delta = "%+.1f%%" % (100 * (nm - bm) / abs(bm)) if bm else "-"
            out.write("%-16s %-36s %14s %14s %9s %s\n" % (
                w["name"], m["name"], fmt(bm), fmt(nm), delta, m["unit"]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--spec", default=DEFAULT_SPEC,
                    help="BENCHMARK.json (default: the repository's)")
    args = ap.parse_args(argv)
    with open(args.spec) as f:
        spec = json.load(f)
    base = load(args.base)
    if args.new is None:
        report_spread(base, spec, sys.stdout)
    else:
        report_compare(base, load(args.new), spec, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
