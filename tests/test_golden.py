"""Golden gate: the outputs of ``lab all --seed 7`` keep their bytes, and
``lab all`` writes exactly those files.

A change that moves the RNG stream, the schedule, the CSV format or a
Euclidean vote shows up here; such a change regenerates
``golden/run_all_seed7.sha256`` and says why. The ``baseline.csv`` and
``coverhart.json`` digests were written by a dense |T| x n line kernel and
an argmin 1-NN kernel; the chunked all-pairs ``knn.euclidean_vote`` that
replaced both, the sorted-slab and sorted-strip searches that replaced it,
the counted cell table that replaced the strips, and the same table read
with the queries in sorted order and blocks padded only to their own
largest candidate run reproduce them. The ``dimension.json`` digest pins the generic-metric outputs
(certificates and sparse witnesses) that every ``spaces.distance`` path
feeds; it covers the interval and ultrametric batteries only through their
maxima, so their draws are pinned in ``test_experiments.py`` instead. The two ``consistency_*.csv`` digests are those of fresh mode
drawing its count of 1s as one Binomial(T, p) with the exact p of
``adversarial.stage_probability``: at stage 0 (p = 0.999924, T = 10^4) it
predicts 0 for one test point in each table (frac_pred1 0.9999), and at
the empirical stage 1 (p = 1 - 2.0e-9, T = 10^6) for none. The proof
table's bytes equal those of the counted state chain before it, which
also drew one 0 there; in the empirical table the chain drew two.
"""

import hashlib
import pathlib

from metriclab.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "run_all_seed7.sha256"


def test_run_all_outputs_match_golden_digests(tmp_path):
    expected = dict(
        reversed(line.split()) for line in GOLDEN.read_text().splitlines()
    )
    assert main(["all", "--seed", "7", "--out-dir", str(tmp_path)]) == 0
    actual = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()
    }
    assert actual == expected
