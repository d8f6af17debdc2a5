"""Microbenchmarks of the neighbour-selection layer, and of what the
criterion-07 oracle runs beneath it: materialising a trace sample and the
scalar ``distance`` kernel of each space kind.

Outside ``testpaths``, so the test suite does not run them:

    PYTHONPATH=src python -m pytest bench/test_knn_layer.py

Each case also checks its result, so a fast wrong answer fails.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from metriclab import adversarial as adv
from metriclab.adversarial import AdversarialProblem, Schedule
from metriclab.knn import TieStrategy, euclidean_vote, knn_predict, select_neighbours
from metriclab.spaces import (
    EuclideanD,
    EuclideanLine,
    Heisenberg,
    HPoint,
    Real,
    SparseL2,
    UltrametricWords,
    Vec,
    Word,
    distance,
    h_inv,
    h_mul,
    h_norm,
    sparse_d2,
)


def _dense_vote(train, labels, queries, k):
    """Brute-force vote over one dense block of squared distances."""
    d2 = (queries[:, None, 0] - train[None, :, 0]) ** 2
    for j in range(1, train.shape[1]):
        d2 += (queries[:, None, j] - train[None, :, j]) ** 2
    ones = labels[np.argpartition(d2, k - 1, axis=1)[:, :k]].sum(axis=1)
    return (2 * ones >= k).astype(np.int64)


def _draws(layout, d, n, T, seed):
    """Training rows and queries from one law: uniform on the unit cube,
    three clusters of width 1e-3, or, in the plane, coordinate 1 equal to
    coordinate 0 plus noise of 1e-4. ``duplicates`` draws the queries from
    16 uniform points, and ``presorted`` sorts uniform queries by
    coordinate 0."""
    rng = np.random.default_rng(seed)
    centres = rng.random((3, d)) if layout == "clustered" else None

    def draw(size):
        if centres is None:
            return rng.random((size, d))
        return centres[rng.integers(0, 3, size)] + 1e-3 * rng.standard_normal((size, d))

    train, labels, queries = draw(n), rng.integers(0, 2, n), draw(T)
    if layout == "diagonal":
        train[:, 1] = train[:, 0] + 1e-4 * rng.standard_normal(n)
        queries[:, 1] = queries[:, 0] + 1e-4 * rng.standard_normal(T)
    if layout == "duplicates":
        queries = draw(16)[rng.integers(0, 16, T)]
    if layout == "presorted":
        queries = queries[np.argsort(queries[:, 0])]
    return train, labels, queries


# the shapes of run_baseline's three stages and run_coverhart's two cases,
# a d >= 3 shape, where the search window keeps its 2·isqrt(n) rows, the
# plane at k = 100, clustered and diagonal rows, a tiny sample, queries on
# 16 points, which share their cells and candidate totals, and line queries
# given in sorted order, where sorting them gains nothing
@pytest.mark.parametrize(
    "layout, d, n, k",
    [
        ("uniform", 1, 100, 10),
        ("uniform", 1, 1000, 32),
        ("uniform", 1, 10_000, 100),
        ("uniform", 2, 20_000, 1),
        ("uniform", 2, 10_000, 1),
        ("uniform", 3, 5000, 5),
        ("uniform", 2, 20_000, 100),
        ("clustered", 2, 20_000, 1),
        ("diagonal", 2, 20_000, 1),
        ("uniform", 2, 50, 7),
        ("duplicates", 2, 20_000, 1),
        ("presorted", 1, 10_000, 100),
    ],
    ids=[
        "baseline_stage0",
        "baseline_stage1",
        "baseline",
        "coverhart",
        "coverhart_halfplane",
        "d3",
        "k100",
        "clustered",
        "diagonal",
        "n50",
        "duplicates",
        "presorted",
    ],
)
def test_euclidean_vote(benchmark, layout, d, n, k):
    train, labels, queries = _draws(layout, d, n, 10_000, n)
    pred = benchmark(euclidean_vote, train, labels, queries, k)
    assert np.array_equal(pred[:256], _dense_vote(train, labels, queries[:256], k))


def _criterion07_sample():
    # the largest criterion-07 oracle configuration: n = 2000, k = 11
    prob = AdversarialProblem(Schedule(m=(1, 6, 2), n=(60,), mode="empirical"), truncation_depth=2)
    rng = np.random.default_rng(11)
    trace = adv.draw_trace(prob, 2000, rng)
    x = prob.geometry(tuple(adv.draw_test_words(prob, 1, rng)[0].tolist())).center
    return prob, trace, x


def test_labelled_sample_from_trace_n2000(benchmark):
    prob, trace, _ = _criterion07_sample()
    sample = benchmark(adv.labelled_sample_from_trace, prob, trace)
    assert "points" not in vars(sample)  # born packed: the n-row tuple waits for a read
    _assert_packed_by_id_dict(sample)
    assert sample.labels == tuple((trace.depths() >= 0).astype(int).tolist())
    assert sample.tie_keys == tuple(trace.tie_keys.tolist())
    row = int(trace.depths().argmin())  # a diffuse row: its node centre
    assert sample.points[row] is prob.geometry(tuple(trace.letters[row].tolist())).center


def _assert_packed_by_id_dict(sample):
    """``sample.packed`` against one dict from ``id()`` to slot, objects in
    order of first use (as in tests/test_knn.py)."""
    slots: dict[int, int] = {}
    inverse = [slots.setdefault(id(p), len(slots)) for p in sample.points]
    objects = tuple({id(p): p for p in sample.points}.values())
    packed = sample.packed
    assert len(packed.objects) == len(objects)
    assert all(got is want for got, want in zip(packed.objects, objects))
    assert packed.inverse.tolist() == inverse
    assert packed.counts.tolist() == np.bincount(inverse, minlength=len(objects)).tolist()
    assert packed.labels.tolist() == list(sample.labels)
    assert packed.tie_keys.tolist() == list(sample.tie_keys)


def _dispatch_case(kind):
    """A space, two of its points as its callers pass them, and their distance."""
    if kind == "line":
        return EuclideanLine(), Real(0.25), Real(-1.5), 1.75
    if kind == "euclidean":
        return EuclideanD(2), Vec((3.0, 0.0)), Vec((0.0, 4.0)), 5.0
    if kind == "heisenberg":
        # two points of the dimension suite's grid
        p, q = HPoint(0.25, -0.5, 0.75), HPoint(-0.5, 0.25, -0.25)
        return Heisenberg(), p, q, h_norm(h_mul(h_inv(p), q))
    if kind == "words":
        # words of the ultrametric covers, splitting after two letters
        return UltrametricWords(3), Word((1, 2, 3, 1)), Word((1, 2, 1)), 0.25
    # a diffuse sample point and an atom one branch away, as the oracle sees them
    prob, _, x = _criterion07_sample()
    atom = prob.geometry((2,)).atom
    return SparseL2(), x, atom, math.sqrt(sparse_d2(x, atom))


@pytest.mark.parametrize("kind", ["line", "euclidean", "heisenberg", "words", "sparse"])
def test_distance_dispatch(benchmark, kind):
    space, p, q, expected = _dispatch_case(kind)
    assert benchmark(distance, space, p, q) == expected > 0


def test_criterion07_trial(benchmark):
    # one trial of the criterion-07 oracle at its largest configuration
    # (n = 2000, k = 11): draw the sample and the test words, run the trace
    # stage, build the sample and vote by brute force at each word
    prob = AdversarialProblem(Schedule(m=(1, 6, 2), n=(60,), mode="empirical"), truncation_depth=2)
    space = SparseL2()

    def trial():
        rng = np.random.default_rng(11)
        trace = adv.draw_trace(prob, 2000, rng)
        words = adv.draw_test_words(prob, 10, rng)
        sim = adv.structured_stage_sim(prob, 0, 2000, 11, 10, 11, sample_mode="trace")
        sample = adv.labelled_sample_from_trace(prob, trace)
        brute = [
            knn_predict(sample, prob.geometry(tuple(row)).center, 11, TieStrategy.UNIFORM_RANDOM, space)
            for row in words.tolist()
        ]
        return brute, sim.predictions.tolist()

    brute, trace_mode = benchmark(trial)
    assert brute == trace_mode and len(brute) == 10


def test_select_neighbours_criterion07(benchmark):
    prob, trace, x = _criterion07_sample()
    sample = adv.labelled_sample_from_trace(prob, trace)
    space = SparseL2()
    chosen = benchmark(select_neighbours, sample, x, 11, TieStrategy.UNIFORM_RANDOM, space)
    dists = [distance(space, x, p) for p in sample.points]
    radius = max(dists[i] for i in chosen)
    assert len(set(chosen)) == 11
    assert all(dists[i] >= radius for i in set(range(len(dists))) - set(chosen))
