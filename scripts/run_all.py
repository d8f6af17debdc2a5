#!/usr/bin/env python3
"""Run every experiment with one seed (--seed, default 0) and write outputs
under ./results/.

With --bench PATH, each job, and then the tier-1 test suite, runs in a
fresh interpreter instead, and PATH receives
{job: {"wall_s": ..., "peak_rss_mb": ...}}: the wall time from start to
exit and the child's own peak resident set size, read with os.wait4.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

from metriclab.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent

# each job's last argument is its output file under the output directory
JOBS = [
    ["consistency", "--mode", "proof", "--stages", "0..0", "--out", "consistency_proof.csv"],
    ["consistency", "--mode", "empirical", "--stages", "0..1", "--out", "consistency_empirical.csv"],
    ["baseline", "--out", "baseline.csv"],
    ["coverhart", "--out", "coverhart.json"],
    ["dimension", "--out", "dimension.json"],
    ["schedule", "--mode", "proof", "--depth", "1", "--out", "schedule.json"],
]

TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def _measure(args: list[str]) -> dict:
    """Run ``python args`` from the repository root; return its wall time
    and peak RSS, or exit with its code."""
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, *args], cwd=ROOT, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise SystemExit(child.returncode)
    return {"wall_s": round(wall, 3), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bench", metavar="PATH", type=pathlib.Path)
    args = parser.parse_args()
    out = pathlib.Path("results").resolve()
    out.mkdir(exist_ok=True)
    seed = ["--seed", str(args.seed)]
    if args.bench is None:
        for *flags, name in JOBS:
            code = main([*flags, str(out / name), *seed])
            if code != 0:
                raise SystemExit(code)
    else:
        report = {
            pathlib.Path(name).stem: _measure(["-m", "metriclab.cli", *flags, str(out / name), *seed])
            for *flags, name in JOBS
        }
        report["tier1"] = _measure(TIER1)
        args.bench.write_text(json.dumps(report, indent=2) + "\n")
