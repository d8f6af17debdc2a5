#!/usr/bin/env python3
"""Run every experiment with one seed (--seed, default 0) and write outputs
under ./results/."""
import argparse
import pathlib

from metriclab.cli import main

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    seed = str(parser.parse_args().seed)
    out = pathlib.Path("results")
    out.mkdir(exist_ok=True)
    jobs = [
        ["consistency", "--mode", "proof", "--stages", "0..0", "--out", str(out / "consistency_proof.csv")],
        ["consistency", "--mode", "empirical", "--stages", "0..1", "--out", str(out / "consistency_empirical.csv")],
        ["baseline", "--out", str(out / "baseline.csv")],
        ["coverhart", "--out", str(out / "coverhart.json")],
        ["dimension", "--out", str(out / "dimension.json")],
        ["schedule", "--mode", "proof", "--depth", "1", "--out", str(out / "schedule.json")],
    ]
    for job in jobs:
        code = main([*job, "--seed", seed])
        if code != 0:
            raise SystemExit(code)
