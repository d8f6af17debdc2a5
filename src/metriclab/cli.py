"""``lab`` command line front-end.

Exit codes: 0 on success, 1 when a config value or input is invalid (one
line on stderr), 2 when schedule constraints are violated, 3 when the
schedule recursion overflows the 64-bit range. Exit 2 is also argparse's
code for a usage error; that message starts with ``usage:``.
"""

from __future__ import annotations

import argparse
import json
import sys
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

EXPERIMENTS = ("consistency", "baseline", "coverhart", "dimension", "schedule")


def _parse_stages(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    return (int(lo), int(hi if hi else lo))


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lab", description=__doc__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int, default=None, help="default 0")
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--mode", choices=MODES, default=None)
        p.add_argument("--stages", type=_parse_stages, default=None, metavar="A..B")
        p.add_argument("--test-count", type=int, default=None)
        p.add_argument("--k-rule", choices=K_RULES, default=None)
        p.add_argument("--depth", type=int, default=None)
        p.add_argument("--m", type=_parse_int_tuple, default=None, metavar="M0,M1,...")
        p.add_argument("--n", type=_parse_int_tuple, default=None, metavar="N0,N1,...")
        p.add_argument(
            "--n-override", action="append", default=[], metavar="STAGE=N",
            help="pin the sample size of one stage (repeatable)",
        )
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Merge the JSON config file with the flags that were given (flags win)
    and build the config once, so that its own checks see the final values."""
    merged: dict = {"k_rule": "sqrtceil"} if args.experiment == "baseline" else {}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read config file {args.config!r}: {exc.strerror}") from None
        except ValueError as exc:
            raise ValueError(f"config file {args.config!r} is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ValueError(
                f"config file {args.config!r} must hold a JSON object, got {type(loaded).__name__}"
            )
        merged.update(loaded)
    flags = {
        "experiment": args.experiment,
        "seed": args.seed,
        "output_path": args.out,
        "mode": args.mode,
        "stages": args.stages,
        "test_count": args.test_count,
        "k_rule": args.k_rule,
        "depth": args.depth,
        "m": args.m,
        "n": args.n,
        "n_override": _parse_override(args.n_override) if args.n_override else None,
    }
    merged.update({key: value for key, value in flags.items() if value is not None})
    return ExperimentConfig.from_json_dict(merged)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        if cfg.experiment == "consistency":
            reports = run_consistency(cfg)
            for r in reports:
                print(
                    f"stage {r.stage}: n={r.n} k={r.k} "
                    f"frac_pred1={r.frac_pred1_nonatomic:.4f} error={r.error:.4f} "
                    f"bayes={r.bayes:.1f} (+-{3 * r.stderr:.4f})"
                )
        elif cfg.experiment == "baseline":
            reports = run_baseline(cfg)
            for r in reports:
                print(f"n={r.n} k={r.k} error={r.error:.4f} (+-{3 * r.stderr:.4f})")
        elif cfg.experiment == "coverhart":
            for case in run_coverhart(cfg):
                ratio = "n/a" if case.get("ratio") is None else f"{case['ratio']:.3f}"
                print(f"{case['case']}: error={case['error']:.4f} ratio={ratio}")
        elif cfg.experiment == "dimension":
            out = run_dimension_suite(cfg)
            print(json.dumps({k: v for k, v in out.items() if k != "sparse_witnesses"}, indent=2))
            print(f"sparse witnesses verified: {[c['multiplicity'] for c in out['sparse_witnesses']]}")
        elif cfg.experiment == "schedule":
            out = print_schedule(cfg)
            print(json.dumps(out, indent=2))
        else:
            raise ValueError(f"unknown experiment {cfg.experiment!r}")
    except ScheduleValidationError as exc:
        for violation in exc.violations:
            print(violation, file=sys.stderr)
        return 2
    except ScheduleOverflowError as exc:
        print(exc, file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"lab {args.experiment}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
