"""Microbenchmarks of the ball-family layer and the sparse distances under it.

Outside ``testpaths``, so the test suite does not run them:

    PYTHONPATH=src python -m pytest bench/test_nagata_layer.py

Each case also checks its result, so a fast wrong answer fails.
"""

from __future__ import annotations

import pytest

from metriclab.nagata import is_disconnected, nagata_witness_sparse
from metriclab.spaces import (
    ORIGIN,
    DirectionIds,
    SparseL2,
    SparsePoint,
    distance,
    pairwise_distances,
    sparse_d2,
)


def _witness_family(m: int):
    return nagata_witness_sparse(m, ORIGIN, 1.0, DirectionIds()).family


def test_sparse_d2(benchmark):
    # supports of 8 ids each, 4 of them shared
    p = SparsePoint.from_dict({i: 0.1 * i for i in range(1, 9)})
    q = SparsePoint.from_dict({i: 0.2 * i for i in range(5, 13)})
    assert benchmark(sparse_d2, p, q) == sparse_d2(q, p) > 0


def test_pairwise_distances_m256(benchmark):
    centers = _witness_family(256).centers()
    points = (ORIGIN,) + centers
    d = benchmark(pairwise_distances, SparseL2(), centers, points)
    assert d.shape == (256, 257)
    assert d[17, 0] == distance(SparseL2(), centers[17], ORIGIN) == 0.9


@pytest.mark.parametrize("m", [64, 256])
def test_is_disconnected(benchmark, m):
    assert benchmark(is_disconnected, _witness_family(m))


def test_nagata_witness_sparse_m256(benchmark):
    ids = DirectionIds()
    cert = benchmark(nagata_witness_sparse, 256, ORIGIN, 1.0, ids)
    assert cert.multiplicity == len(cert.family) == 256
