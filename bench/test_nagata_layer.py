"""Microbenchmarks of the ball-family layer, the sparse distances under it,
and the Heisenberg separated-set count.

Outside ``testpaths``, so the test suite does not run them:

    PYTHONPATH=src python -m pytest bench/test_nagata_layer.py

Each case also checks its result, so a fast wrong answer fails.
"""

from __future__ import annotations

import numpy as np
import pytest

from metriclab.experiments import (
    heisenberg_unit_grid,
    random_disconnected_interval_families,
    random_word_families,
)
from metriclab.nagata import (
    DimensionCertificate,
    doubling_cover_greedy,
    greedy_covering_subfamily,
    interval_multiplicity_exact,
    is_disconnected,
    multiplicity_over_probes,
    nagata_witness_sparse,
)
from metriclab.spaces import (
    ORIGIN,
    DirectionIds,
    Heisenberg,
    HPoint,
    SparseL2,
    SparsePoint,
    contained_pairs,
    h_dilate,
    sparse_d2,
)


def _witness_family(m: int):
    return nagata_witness_sparse(m, ORIGIN, 1.0, DirectionIds()).family


def test_sparse_d2(benchmark):
    # supports of 8 ids each, 4 of them shared
    p = SparsePoint.from_dict({i: 0.1 * i for i in range(1, 9)})
    q = SparsePoint.from_dict({i: 0.2 * i for i in range(5, 13)})
    assert benchmark(sparse_d2, p, q) == sparse_d2(q, p) > 0


# m = 1 and 8 show the fixed cost of a call, m >= 256 the cost per ball
@pytest.mark.parametrize("m", [1, 8, 256, 4096])
def test_contained_pairs(benchmark, m):
    # the certificate's point list: the witness, then every centre
    family = _witness_family(m)
    centers = family.centers()
    points = (ORIGIN,) + centers
    radii = [b.radius for b in family.balls]
    closed = [b.closed for b in family.balls]

    def pairs():
        return sum(len(b) for b, _ in contained_pairs(SparseL2(), centers, radii, closed, points))

    # each ball holds the witness and its own centre
    assert benchmark(pairs) == 2 * m


@pytest.mark.parametrize("m", [1, 8, 256, 4096])
def test_certificate(benchmark, m):
    family = _witness_family(m)
    assert benchmark(DimensionCertificate, family, ORIGIN, m).multiplicity == m


@pytest.mark.parametrize("m", [64, 256])
def test_is_disconnected(benchmark, m):
    assert benchmark(is_disconnected, _witness_family(m))


def test_greedy_covering_subfamily_m32(benchmark):
    # a disconnected family covers its own centres and comes back whole
    family = _witness_family(32)
    assert benchmark(greedy_covering_subfamily, family) == family


def test_nagata_witness_sparse_m256(benchmark):
    ids = DirectionIds()
    cert = benchmark(nagata_witness_sparse, 256, ORIGIN, 1.0, ids)
    assert cert.multiplicity == len(cert.family) == 256


def test_doubling_cover_greedy(benchmark):
    # the dimension suite's Heisenberg row at r = 0.5: the 305 grid points
    # of the unit gauge ball dilated by 0.5, which the suite finds 74 of
    # pairwise more than r/2 apart
    points = [h_dilate(0.5, p) for p in heisenberg_unit_grid()]
    assert len(points) == 305
    assert benchmark(doubling_cover_greedy, points, HPoint(0.0, 0.0, 0.0), 0.5, Heisenberg()) == 74


# the dimension suite's two random batteries at seed 7, 1000 families each:
# the draws and the per-family work, as the suite runs them


def _interval_battery():
    rng = np.random.default_rng(7)
    families = random_disconnected_interval_families(rng, rng.integers(2, 9, size=1000))
    return max(map(interval_multiplicity_exact, families))


def test_interval_battery(benchmark):
    assert benchmark(_interval_battery) == 2


def _stream_after_the_intervals():
    rng = np.random.default_rng(7)
    random_disconnected_interval_families(rng, rng.integers(2, 9, size=1000))
    return (rng,), {}


def _word_battery(rng):
    worst = 0
    for fam in random_word_families(rng, rng.integers(2, 9, size=1000), alphabet=3):
        sub = greedy_covering_subfamily(fam)
        worst = max(worst, multiplicity_over_probes(sub, fam.centers()).count)
    return worst


def test_word_battery(benchmark):
    assert benchmark.pedantic(_word_battery, setup=_stream_after_the_intervals, rounds=20) == 1
