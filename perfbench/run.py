#!/usr/bin/env python3
"""Run one workload of the PolyFlow benchmark.

    python3 perfbench/run.py --workload lineup-serial --seed 1 \
        --seconds 20 --trace 0 [--record runs.jsonl]

Builds the harness (perfbench/CMakeLists.txt, a Release build on top
of the repository's src/) under .bench_build/ at the repository root,
primes a private artifact store for the warm workloads, runs the
harness and relays its output. The last line of stdout is the result
object {"correct", "attempted", "failed", "metrics"}; --trace 1 swaps
the end-to-end metrics for the per-layer ones. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
HARNESS = os.path.join(BUILD_DIR, "pf_perfbench")
WORKLOADS = ("lineup-serial", "lineup-parallel", "cold-pipeline")
# A run must end within 180 s; leave room for priming and clean-up.
HARNESS_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build(target="pf_perfbench"):
    """Configure once, then build @target; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no src/ next to perfbench/; run from a repository checkout")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", target,
           "-j", build_jobs()]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def harness_env():
    # The harness fixes its own jobs, batch width and store; knobs
    # inherited from the caller's environment would change the inputs.
    env = dict(os.environ)
    for knob in ("PF_BENCH_JOBS", "PF_BENCH_BATCH", "PF_CACHE_DIR"):
        env.pop(knob, None)
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default=None,
                    help="workload scale (default: the harness's)")
    ap.add_argument("--record", default=None,
                    help="append the full JSON record to this file")
    args = ap.parse_args()
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be non-negative")

    if not build():
        log("build failed")
        return 1

    work = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    store = os.path.join(work, "store")
    scale = ["--scale", args.scale] if args.scale else []
    env = harness_env()
    try:
        os.makedirs(work, exist_ok=True)
        if args.workload.startswith("lineup-"):
            # Warm workloads: fill a private store before timing.
            r = subprocess.run([HARNESS, "--prime", "--store", store] +
                               scale, env=env, timeout=HARNESS_TIMEOUT_S)
            if r.returncode != 0:
                log("priming the store failed")
                return 1
        cmd = [HARNESS, "--workload", args.workload,
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--store", store,
               "--reference-dir", os.path.join(HERE, "reference"),
               "--commit", git_commit()] + scale
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.record:
            cmd += ["--record", os.path.abspath(args.record)]
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                           timeout=HARNESS_TIMEOUT_S)
        if r.returncode != 0:
            # Nothing that could pass for a result reaches stdout.
            sys.stderr.write(r.stdout)
            log("harness exited with %d" % r.returncode)
            return 1
        sys.stdout.write(r.stdout)
        return 0
    except subprocess.TimeoutExpired:
        log("harness did not finish within %d s" % HARNESS_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
