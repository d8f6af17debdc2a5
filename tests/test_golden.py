"""Golden gate: the outputs of ``scripts/run_all.py --seed 7`` keep their
bytes.

A change that moves the RNG stream, the schedule, the CSV format or a
Euclidean vote shows up here; such a change regenerates
``golden/run_all_seed7.sha256`` and says why. The ``baseline.csv`` and
``coverhart.json`` digests were written by the dense |T| x n line kernel
and the argmin 1-NN kernel that ``knn.euclidean_vote`` replaced; the
``dimension.json`` digest pins the generic-metric outputs (certificates
and sparse witnesses) that every ``spaces.distance`` path feeds.
"""

import hashlib
import pathlib

from metriclab.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "run_all_seed7.sha256"

JOBS = [
    ["consistency", "--mode", "proof", "--stages", "0..0", "--out", "consistency_proof.csv"],
    ["consistency", "--mode", "empirical", "--stages", "0..1", "--out", "consistency_empirical.csv"],
    ["baseline", "--out", "baseline.csv"],
    ["coverhart", "--out", "coverhart.json"],
    ["dimension", "--out", "dimension.json"],
    ["schedule", "--mode", "proof", "--depth", "1", "--out", "schedule.json"],
]


def test_run_all_outputs_match_golden_digests(tmp_path):
    expected = dict(
        reversed(line.split()) for line in GOLDEN.read_text().splitlines()
    )
    for job in JOBS:
        *flags, name = job
        assert main([*flags, str(tmp_path / name), "--seed", "7"]) == 0
    actual = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in expected
    }
    assert actual == expected
