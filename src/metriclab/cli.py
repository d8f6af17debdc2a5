"""``lab`` command line front-end: ``lab <experiment>`` runs one experiment,
``lab all`` runs every job of ``ALL_JOBS`` with one seed.

Exit codes: 0 on success, 1 when a config value or input is invalid,
a point reaches a space of another kind (``KindMismatchError``) or the
output cannot be written (one line on stderr), 2 for a usage error
such as a flag the experiment does not take (argparse's message, starting
with the experiment's ``usage: lab <experiment>`` line), 3 when the
schedule recursion overflows the 64-bit range, 4 when schedule
constraints are violated (one line per violation).
``lab all`` exits 1, before any job runs, when its output directory cannot
be created or its ``--bench`` file cannot be written, and otherwise stops
at the first job that fails, with that job's message and exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time
from typing import Optional, Sequence

from .adversarial import K_RULES, MODES, ScheduleOverflowError, ScheduleValidationError
from .experiments import (
    ExperimentConfig,
    print_schedule,
    run_baseline,
    run_consistency,
    run_coverhart,
    run_dimension_suite,
)
from .spaces import KindMismatchError


def _stage_lines(reports) -> list[str]:
    return [f"stage {r.stage}: n={r.n} k={r.k} frac_pred1={r.frac_pred1_nonatomic:.4f} "
            f"error={r.error:.4f} bayes={r.bayes:.1f} (+-{3 * r.stderr:.4f})" for r in reports]


def _baseline_lines(reports) -> list[str]:
    return [f"n={r.n} k={r.k} error={r.error:.4f} (+-{3 * r.stderr:.4f})" for r in reports]


def _coverhart_lines(cases) -> list[str]:
    return [f"{c['case']}: error={c['error']:.4f} ratio="
            + ("n/a" if c.get("ratio") is None else f"{c['ratio']:.3f}") for c in cases]


def _dimension_lines(out) -> list[str]:
    summary = {k: v for k, v in out.items() if k != "sparse_witnesses"}
    witnesses = [c["multiplicity"] for c in out["sparse_witnesses"]]
    return [json.dumps(summary, indent=2), f"sparse witnesses verified: {witnesses}"]


# each experiment's runner (which writes its own output), the console
# lines it prints from the runner's result, and the flags of the keys it reads
EXPERIMENTS = {
    "consistency": (run_consistency, _stage_lines,
                    "--seed --out --mode --stages --test-count --k-rule --m --n --n-override"),
    "baseline": (run_baseline, _baseline_lines, "--seed --out --test-count --k-rule"),
    "coverhart": (run_coverhart, _coverhart_lines, "--seed --out --test-count"),
    "dimension": (run_dimension_suite, _dimension_lines, "--seed --out"),
    "schedule": (print_schedule, lambda out: [json.dumps(out, indent=2)],
                 "--out --mode --depth --k-rule --m --n --n-override"),
}

# the jobs of `lab all`; each job's last argument is its output file under
# the output directory
ALL_JOBS = [
    ["consistency", "--mode", "proof", "--stages", "0..0", "--out", "consistency_proof.csv"],
    ["consistency", "--mode", "empirical", "--stages", "0..1", "--out", "consistency_empirical.csv"],
    ["baseline", "--out", "baseline.csv"],
    ["coverhart", "--out", "coverhart.json"],
    ["dimension", "--out", "dimension.json"],
    ["schedule", "--mode", "proof", "--depth", "1", "--out", "schedule.json"],
]


def _parse_stages(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        return (int(lo), int(hi or lo))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers A..B, got {text!r}") from None


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _parse_override(pairs: Sequence[str]) -> dict[int, int]:
    out = {}
    for pair in pairs:
        stage, _, value = pair.partition("=")
        try:
            out[int(stage)] = int(value)
        except ValueError:
            raise ValueError(
                f"--n-override takes STAGE=N with integers STAGE and N, got {pair!r}"
            ) from None
    return out


# each experiment flag's argparse keywords; its dest is the config key it sets
FLAGS = {
    "--seed": dict(type=int, help="default 0"),
    "--out": dict(dest="output_path", metavar="OUT"),
    "--mode": dict(choices=MODES, help="default empirical"),
    "--stages": dict(type=_parse_stages, metavar="A..B"),
    "--test-count": dict(type=int),
    "--k-rule": dict(choices=K_RULES),
    "--depth": dict(type=int, help="proof mode only; default 1"),
    "--m": dict(type=_parse_int_tuple, metavar="M0,M1,...", help="empirical mode only"),
    "--n": dict(type=_parse_int_tuple, metavar="N0,N1,...", help="empirical mode only"),
    "--n-override": dict(action="append", metavar="STAGE=N", help="pin one stage's n; repeatable"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lab", description=__doc__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    parser.experiments = sub.choices  # each subparser, for its own usage line in errors
    for name, (_, _, flags) in EXPERIMENTS.items():
        p = sub.add_parser(name)
        for flag in flags.split():
            p.add_argument(flag, default=None, **FLAGS[flag])
    sub.choices["baseline"].set_defaults(k_rule="sqrtceil")
    p = sub.add_parser("all", help="run every job of ALL_JOBS with one seed")
    p.add_argument("--seed", type=int, default=0, help="default 0")
    p.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("results"),
                   help="default results")
    p.add_argument("--bench", metavar="PATH", type=pathlib.Path, default=None, help=(
        "run each job, then the tier-1 suite, in a fresh interpreter in the current directory "
        '(the repository root) and write {job: {"wall_s", "peak_rss_mb"}} to PATH; '
        "each wall_s includes about 0.2 s of interpreter and numpy start-up, "
        "so it cannot show a kernel change"))
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Build the config once from the flags that were given, so that its
    own checks see the final values."""
    flags = {key: value for key, value in vars(args).items() if value is not None}
    if "n_override" in flags:
        flags["n_override"] = _parse_override(flags["n_override"])
    return ExperimentConfig(**flags)


def _measure(args: list[str]) -> dict:
    """Run ``python args`` in the current directory; return its wall time
    and peak RSS, or exit with its code."""
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, *args], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise SystemExit(child.returncode)
    return {"wall_s": round(wall, 3), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}


def _run_all(seed: int, out_dir: pathlib.Path, bench: Optional[pathlib.Path]) -> int:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"lab all: cannot create output directory {str(out_dir)!r}: {exc.strerror}",
              file=sys.stderr)
        return 1
    if bench is not None:
        try:
            bench.open("a").close()
        except OSError as exc:
            print(f"lab all: cannot write bench file {str(bench)!r}: {exc.strerror}",
                  file=sys.stderr)
            return 1
    jobs = {pathlib.Path(name).stem: [*flags, str(out_dir.resolve() / name)]
            + (["--seed", str(seed)] if "--seed" in EXPERIMENTS[flags[0]][2].split() else [])
            for *flags, name in ALL_JOBS}
    if bench is None:
        for job in jobs.values():
            if (code := main(job)) != 0:
                return code
        return 0
    report = {stem: _measure(["-m", "metriclab.cli", *job]) for stem, job in jobs.items()}
    report["tier1"] = _measure(["-m", "pytest", "-q", "--continue-on-collection-errors"])
    bench.write_text(json.dumps(report, indent=2) + "\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    # parse_args would report a flag the experiment does not take with the top-level usage
    args, extra = parser.parse_known_args(argv)
    if extra:
        parser.experiments[args.experiment].error(f"unrecognized arguments: {' '.join(extra)}")
    if args.experiment == "all":
        return _run_all(args.seed, args.out_dir, args.bench)
    run, lines, _ = EXPERIMENTS[args.experiment]
    try:
        for line in lines(run(config_from_args(args))):
            print(line)
    except ScheduleValidationError as exc:
        for violation in exc.violations:
            print(violation, file=sys.stderr)
        return 4
    except ScheduleOverflowError as exc:
        print(exc, file=sys.stderr)
        return 3
    except (ValueError, KindMismatchError) as exc:
        print(f"lab {args.experiment}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
