"""Microbenchmarks of the neighbour-selection layer, and of what the
criterion-07 oracle runs beneath it: materialising a trace sample and the
scalar sparse ``distance`` dispatch.

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
from metriclab.knn import TieStrategy, euclidean_vote, select_neighbours
from metriclab.spaces import SparseL2, distance, sparse_d2


def _dense_vote(train, labels, queries, k):
    """Brute-force vote over one dense block of squared distances."""
    d2 = (queries[:, None, 0] - train[None, :, 0]) ** 2
    for j in range(1, train.shape[1]):
        d2 += (queries[:, None, j] - train[None, :, j]) ** 2
    ones = labels[np.argpartition(d2, k - 1, axis=1)[:, :k]].sum(axis=1)
    return (2 * ones >= k).astype(np.int64)


# the shapes of run_baseline's last stage and run_coverhart's first case
@pytest.mark.parametrize(
    "d, n, k", [(1, 10_000, 100), (2, 20_000, 1)], ids=["baseline", "coverhart"]
)
def test_euclidean_vote(benchmark, d, n, k):
    rng = np.random.default_rng(n)
    train, labels, queries = rng.random((n, d)), rng.integers(0, 2, n), rng.random((10_000, d))
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
    assert sample.labels == tuple(trace.is_atomic.astype(int).tolist())
    assert sample.tie_keys == tuple(trace.tie_keys.tolist())
    row = int(trace.is_atomic.argmin())  # a diffuse row: its node centre
    assert sample.points[row] is prob.geometry(tuple(trace.letters[row].tolist())).center


def test_sparse_distance_dispatch(benchmark):
    # a diffuse sample point and an atom one branch away, as the oracle sees them
    prob, _, x = _criterion07_sample()
    atom = prob.geometry((2,)).atom
    d = benchmark(distance, SparseL2(), x, atom)
    assert d == math.sqrt(sparse_d2(x, atom)) > 0


def test_select_neighbours_criterion07(benchmark):
    prob, trace, x = _criterion07_sample()
    sample = adv.labelled_sample_from_trace(prob, trace)
    space = SparseL2()
    chosen = benchmark(select_neighbours, sample, x, 11, TieStrategy.UNIFORM_RANDOM, space)
    dists = [distance(space, x, p) for p in sample.points]
    radius = max(dists[i] for i in chosen)
    assert len(set(chosen)) == 11
    assert all(dists[i] >= radius for i in set(range(len(dists))) - set(chosen))
