#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload rql_scan --seed 1 --seconds 10 --trace 0

Builds perfbench/rqlbench.exe from source with dune, runs it with the
given arguments, and passes its standard output through, so the last
line printed is the result JSON.  The full report of each run, with the
run environment, is written to perfbench/results/.  Exits non-zero,
without printing a result, when the build or the run fails.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
EXE = ROOT / "_build" / "default" / "perfbench" / "rqlbench.exe"
WORKLOADS = ["rql_scan", "rql_compute", "asof_mixed"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def git_rev():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or pathlib.Path(top.stdout.strip()).resolve() != ROOT:
            return "unknown (not a git checkout)"
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    measured even where there is no git history."""
    h = hashlib.sha256()
    files = [ROOT / "dune-project"]
    for d in ("lib", "perfbench"):
        files += [p for p in (ROOT / d).rglob("*")
                  if p.is_file() and (p.suffix in (".ml", ".mli", ".py") or p.name == "dune")]
    for p in sorted(files):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build = subprocess.run(
        ["dune", "build", "--root", str(ROOT), "--display", "quiet", "./perfbench/rqlbench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0 or not EXE.is_file():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    cmd = [str(EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out), "--git-rev", git_rev(), "--src-digest", source_digest()]
    # One core for the whole run: asof_mixed's two domains share it, as
    # they do on a busy machine, and every timing and the calibration
    # kernel see the same core.
    core = {max(os.sched_getaffinity(0))}
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S,
                             preexec_fn=lambda: os.sched_setaffinity(0, core))
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print(f"perfbench: run failed (exit {run.returncode})", file=sys.stderr)
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
