#!/usr/bin/env python3
"""metriclab benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload stage_tables --seed 7 --seconds 40 --trace 0

Imports metriclab from ``src/`` of the checkout this file sits in. With
``--trace 0`` it measures set-up time, then runs closed-loop passes of the
workload for about ``--seconds`` seconds, timing a reference kernel between
their steps, and reports the end-to-end metrics.
With ``--trace 1`` it alternates untraced and traced passes, reports the
per-layer metrics of the median traced pass, and writes the spans of every
traced pass to ``perfbench/traces/``. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one process, one thread: pin BLAS and OpenMP pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACE_DIR = HERE / "traces"
SETUP_SAMPLES = 5  # this process plus four fresh interpreters

END_TO_END_UNITS = {
    "wall_rel": "ref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "checks_passed_frac": "frac",
}


def set_up():
    """Import metriclab from this checkout and warm every layer up once.

    Returns the seconds this took and the workloads module.
    """
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import metriclab
        import metriclab.cli  # noqa: F401  (its import is part of a user's set-up)
    except ImportError as exc:
        raise SystemExit(f"cannot import metriclab from {SRC}: {exc}")
    if not Path(metriclab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"metriclab was imported from outside {SRC}: {metriclab.__file__}")
    import workloads

    workloads.warm_up()
    return time.perf_counter() - t0, workloads


def setup_probe() -> float:
    """Set-up time of a fresh interpreter running this script."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_pass(workload, seed: int, checks, ref=None) -> tuple[list, float, float]:
    """One pass of a workload: its step outputs, its wall time in seconds,
    and, given a reference ``ref``, its wall time in reference units.

    The reference is timed before the first step, after a step once
    ``ref.due()``, and after the last step, and the pass's wall time is
    divided by the median of those timings: the reference's time over the
    same stretch of the host's speed. Timing the reference is left out of
    the pass.
    """
    outputs, wall = [], 0.0
    if ref is not None:
        timings = ref.sample()
    t0 = time.perf_counter()
    for out in workload(seed, checks):
        wall += time.perf_counter() - t0
        outputs.append(out)
        if ref is not None and ref.due():
            timings += ref.sample()
        t0 = time.perf_counter()
    if ref is None:
        return outputs, wall, math.nan
    timings += ref.sample()
    return outputs, wall, wall / statistics.median(timings)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def untraced_run(pass_fn, seconds: float, checks, ref) -> dict:
    """Closed-loop passes while another pass of median length still fits.

    ``wall_rel`` is the median over the passes of each pass's wall time in
    units of the reference kernel ``ref``. Peak RSS is read after the first
    pass: later passes inherit the heap the earlier ones left, so their peak
    depends on how many ran before.
    """
    walls, rels, first, values = [], [], None, {}
    start = time.perf_counter()
    while True:
        gc.collect()
        out, wall, rel = pass_fn(checks, ref=ref)
        walls.append(wall)
        rels.append(rel)
        if first is None:
            first = out
            values["peak_rss_mb"] = peak_rss_mb()
        else:
            checks.check("pass output matches the first pass", out == first)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    values["wall_rel"] = statistics.median(rels)
    print(
        f"passes: {len(walls)}; wall_s each: {[round(w, 4) for w in walls]}; "
        f"wall_rel each: {[round(r, 2) for r in rels]}; "
        f"reference timings: {len(ref.times)}, median {statistics.median(ref.times) * 1e3:.3f} ms"
    )
    return values


def traced_run(pass_fn, seconds: float, checks, tracer_mod, trace_path: Path) -> dict:
    """Pairs of one untraced and one traced pass while another pair fits;
    reports the layers of the traced pass with the median wall time."""
    plain, traced, first = [], [], None
    start = time.perf_counter()
    while True:
        gc.collect()
        out, wall, _ = pass_fn(checks)
        plain.append(wall)
        if first is None:
            first = out
        else:
            checks.check("pass output matches the first pass", out == first)
        tracer = tracer_mod.Tracer()
        gc.collect()
        out, _, _ = tracer.run(pass_fn, checks)
        traced.append(tracer)
        checks.check("traced pass output matches the untraced pass", out == first)
        pair = statistics.median(p + t.wall_s for p, t in zip(plain, traced))
        if time.perf_counter() - start + pair > seconds:
            break
    median = sorted(traced, key=lambda t: t.wall_s)[(len(traced) - 1) // 2]
    metrics = median.metrics()
    metrics["tracing.overhead_ratio"] = median.wall_s / statistics.median(plain) - 1.0
    print(
        f"pairs: {len(plain)}; untraced wall_s: {[round(w, 4) for w in plain]}; "
        f"traced wall_s: {[round(t.wall_s, 4) for t in traced]}"
    )
    trace_path.parent.mkdir(exist_ok=True)
    with open(trace_path, "w") as fh:
        json.dump(
            [
                {"pass": i, "wall_s": t.wall_s, "layers": t.metrics(),
                 "spans": [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3]}
                           for s in t.spans]}
                for i, t in enumerate(traced)
            ],
            fh,
        )
    print(f"spans written to {trace_path}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(repr(set_up()[0]))
        return 0
    own_setup, workloads = set_up()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    pass_fn = functools.partial(run_pass, workloads.WORKLOADS[args.workload], args.seed)
    checks = workloads.Checks()
    if args.trace:
        import tracer

        trace_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        values = traced_run(pass_fn, args.seconds, checks, tracer, trace_path)
        units = tracer.metric_units()
    else:
        setups = [own_setup] + [setup_probe() for _ in range(SETUP_SAMPLES - 1)]
        print(f"setup_s each: {[round(s, 4) for s in setups]}")
        import reference

        ref = reference.Reference(workloads.REFERENCE[args.workload])
        values = untraced_run(pass_fn, args.seconds, checks, ref)
        values["setup_s"] = statistics.median(setups)
        units = END_TO_END_UNITS
    failed = len(checks.failures)
    if not args.trace:
        values["checks_passed_frac"] = (checks.attempted - failed) / checks.attempted
    for name in checks.failures:
        print(f"FAILED check: {name}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {checks.attempted} checks, {failed} failed")
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
