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
    _draw_words,
    heisenberg_unit_grid,
    interval_battery,
    word_cover_battery,
)
from metriclab.nagata import (
    Ball,
    DimensionCertificate,
    contains,
    doubling_cover_greedy,
    family_pairs,
    greedy_covering_subfamily,
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
    UltrametricWords,
    Word,
    contained_pairs,
    h_dilate,
    pack_words,
    sparse_d2,
    words_contained,
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


def _witness_sweep():
    ids = DirectionIds()
    return [
        multiplicity_over_probes(nagata_witness_sparse(m, ORIGIN, 1.0, ids).family, [ORIGIN]).count
        for m in range(1, 257)
    ]


def test_witness_sweep(benchmark):
    # generic_oracle's sweep: the witness of each size m = 1..256, checked
    # as it is built, and one probe, the witness point, in all m balls
    assert benchmark(_witness_sweep) == list(range(1, 257))


def test_doubling_cover_greedy(benchmark):
    # the dimension suite's Heisenberg row at r = 0.5: the 305 grid points
    # of the unit gauge ball dilated by 0.5, which the suite finds 74 of
    # pairwise more than r/2 apart
    points = [h_dilate(0.5, p) for p in heisenberg_unit_grid()]
    assert len(points) == 305
    assert benchmark(doubling_cover_greedy, points, HPoint(0.0, 0.0, 0.0), 0.5, Heisenberg()) == 74


# the dimension suite's two random batteries at seed 7, 1000 families each:
# the draws and the array path that decides them, as the suite runs them


def _interval_battery():
    rng = np.random.default_rng(7)
    return int(interval_battery(rng, rng.integers(2, 9, size=1000)).max())


def test_interval_battery(benchmark):
    assert benchmark(_interval_battery) == 2


def _stream_after_the_intervals():
    rng = np.random.default_rng(7)
    interval_battery(rng, rng.integers(2, 9, size=1000))
    return (rng,), {}


def _word_battery(rng):
    covers = word_cover_battery(rng, rng.integers(2, 9, size=1000), 3)
    return max(cover.multiplicity for cover in covers)


def test_word_battery(benchmark):
    assert benchmark.pedantic(_word_battery, setup=_stream_after_the_intervals, rounds=20) == 1


def test_words_contained(benchmark):
    # the word kernel alone on the seed-7 battery's ~29,000 pairs within
    # families, in the suite's blocks; the hits are the pairs that the
    # scalar distance puts in the ball
    (rng,), _ = _stream_after_the_intervals()
    sizes = rng.integers(2, 9, size=1000)
    lengths, letters, radii, closed = _draw_words(rng, sizes, 3)
    words = pack_words(lengths, letters)
    blocks = [(ball, centre) for _, ball, centre in family_pairs(sizes)]

    def hits():
        return sum(int(words_contained(words, radii, closed, a, b).sum()) for a, b in blocks)

    ends = np.cumsum(lengths).tolist()
    text = [Word(tuple(letters[e - n : e].tolist())) for e, n in zip(ends, lengths.tolist())]
    space = UltrametricWords(3)
    want = sum(
        contains(Ball(text[a], float(radii[a]), bool(closed[a])), text[b], space)
        for ball, centre in blocks
        for a, b in zip(ball.tolist(), centre.tolist())
    )
    assert benchmark(hits) == want
