import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab.knn import (
    LabelledSample,
    LearningProblem,
    TieStrategy,
    bayes_error,
    empirical_error,
    euclidean_vote,
    knn_predict,
    one_nn_error_estimate,
    r_k,
    select_neighbours,
)
from metriclab.spaces import EuclideanD, EuclideanLine, Real, Vec, distance

LINE = EuclideanLine()


def line_sample(xs, labels, keys=None):
    keys = keys if keys is not None else [i * 0.01 for i in range(len(xs))]
    return LabelledSample(tuple(Real(float(x)) for x in xs), tuple(labels), tuple(keys))


def test_sample_validation():
    with pytest.raises(ValueError):
        LabelledSample((), (), ())
    with pytest.raises(ValueError):
        line_sample([0, 1], [0, 1], [0.5, 0.5])  # duplicate tie keys
    with pytest.raises(ValueError):
        line_sample([0, 1], [0, 2])


def test_r_k_examples():
    s = line_sample([0, 1, 2, 3], [0, 0, 0, 0])
    assert r_k(s, Real(0.0), 2, LINE) == 1.0
    assert r_k(s, Real(2.0), 1, LINE) == 0.0
    both = line_sample([0, 2], [0, 0])
    assert r_k(both, Real(1.0), 2, LINE) == 1.0
    with pytest.raises(ValueError):
        r_k(s, Real(0.0), 5, LINE)


def test_knn_all_ones():
    s = line_sample([0, 1, 2], [1, 1, 1])
    for k in (1, 2, 3):
        assert knn_predict(s, Real(0.7), k, TieStrategy.UNIFORM_RANDOM, LINE) == 1


def test_knn_majority():
    s = line_sample([0, 1, 2, 50], [1, 1, 0, 0])
    assert knn_predict(s, Real(0.0), 3, TieStrategy.UNIFORM_RANDOM, LINE) == 1


def test_knn_vote_tie_goes_to_one():
    s = line_sample([0, 1, 50], [0, 1, 0])
    assert knn_predict(s, Real(0.5), 2, TieStrategy.UNIFORM_RANDOM, LINE) == 1


def test_distance_tie_prefers_smaller_key():
    # both candidates at distance exactly 1; labels differ
    s = line_sample([-1, 1], [0, 1], keys=[0.9, 0.1])
    assert knn_predict(s, Real(0.0), 1, TieStrategy.UNIFORM_RANDOM, LINE) == 1
    s = line_sample([-1, 1], [0, 1], keys=[0.1, 0.9])
    assert knn_predict(s, Real(0.0), 1, TieStrategy.UNIFORM_RANDOM, LINE) == 0
    # first-index strategy ignores the keys
    s = line_sample([-1, 1], [0, 1], keys=[0.9, 0.1])
    assert knn_predict(s, Real(0.0), 1, TieStrategy.FIRST_INDEX, LINE) == 0


samples = st.lists(
    st.tuples(st.integers(-50, 50), st.integers(0, 1)), min_size=1, max_size=12
)


@given(samples, st.integers(-50, 50))
@settings(max_examples=150)
def test_k_equals_n_is_global_majority(rows, x):
    xs = [r[0] for r in rows]
    labels = [r[1] for r in rows]
    s = line_sample(xs, labels)
    ones = sum(labels)
    expect = 1 if 2 * ones >= len(rows) else 0
    assert knn_predict(s, Real(float(x)), len(rows), TieStrategy.UNIFORM_RANDOM, LINE) == expect


@given(samples, st.integers(-50, 50), st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_permutation_invariance(rows, x, rnd):
    xs = [r[0] for r in rows]
    labels = [r[1] for r in rows]
    keys = [i * 0.01 + 0.001 for i in range(len(rows))]
    k = max(1, len(rows) // 2)
    base = knn_predict(line_sample(xs, labels, keys), Real(float(x)), k,
                       TieStrategy.UNIFORM_RANDOM, LINE)
    perm = list(range(len(rows)))
    rnd.shuffle(perm)
    shuffled = line_sample([xs[i] for i in perm], [labels[i] for i in perm],
                           [keys[i] for i in perm])
    assert knn_predict(shuffled, Real(float(x)), k, TieStrategy.UNIFORM_RANDOM, LINE) == base


@given(samples, st.integers(-50, 50), st.integers(1, 12))
@settings(max_examples=150)
def test_selection_size_and_separation(rows, x, k):
    if k > len(rows):
        k = len(rows)
    xs = [r[0] for r in rows]
    s = line_sample(xs, [r[1] for r in rows])
    chosen = select_neighbours(s, Real(float(x)), k, TieStrategy.UNIFORM_RANDOM, LINE)
    assert len(chosen) == k
    rest = set(range(len(rows))) - set(chosen)
    dmax = max(distance(LINE, Real(float(x)), s.points[i]) for i in chosen)
    for i in rest:
        assert distance(LINE, Real(float(x)), s.points[i]) >= dmax


def test_empirical_error():
    assert empirical_error([1, 0, 1], [1, 0, 1]) == 0.0
    assert empirical_error([1, 0], [0, 1]) == 1.0
    assert empirical_error([1, 1, 0, 0], [1, 0, 0, 1]) == 0.5
    with pytest.raises(ValueError):
        empirical_error([1], [1, 0])


def _constant_problem(eta):
    def sampler(rng):
        return Real(float(rng.random())), int(rng.random() <= eta)

    return LearningProblem(sampler, lambda p: eta, None)


def test_bayes_error():
    det = LearningProblem(lambda rng: (Real(0.0), 1), lambda p: 1.0, 0.0)
    assert bayes_error(det, 10, seed=0) == (0.0, 0.0)
    est = bayes_error(_constant_problem(0.3), 500, seed=1)
    assert est.value == pytest.approx(0.3, abs=1e-12)
    est = bayes_error(_constant_problem(0.5), 500, seed=2)
    assert est.value == pytest.approx(0.5, abs=1e-12)


def test_one_nn_separated_clusters():
    # deterministic labels on two clusters far apart: 1-NN is near perfect
    def sampler(rng):
        if rng.random() < 0.5:
            return Real(float(rng.random())), 0
        return Real(float(10.0 + rng.random())), 1

    prob = LearningProblem(sampler, lambda p: 1.0 if p.value > 5.0 else 0.0, 0.0)
    err = one_nn_error_estimate(prob, n=2000, test_points=2000, space=LINE, seed=3)
    assert err <= 0.02


def test_one_nn_constant_eta():
    err = one_nn_error_estimate(_constant_problem(0.3), n=4000, test_points=4000,
                                space=LINE, seed=4)
    assert err == pytest.approx(2 * 0.3 * 0.7, abs=0.03)
    err = one_nn_error_estimate(_constant_problem(0.5), n=4000, test_points=4000,
                                space=LINE, seed=5)
    assert err == pytest.approx(0.5, abs=0.03)


def test_threshold_coupling_disagreement_bound():
    # labels via a shared uniform threshold: P[Y != Y'] equals |p - p1|
    zs = (np.arange(2001) + 0.5) / 2001
    for p in np.linspace(0, 1, 11):
        for p1 in np.linspace(0, 1, 11):
            y = zs <= p1
            y_prime = zs <= p
            assert abs((y != y_prime).mean() - abs(p - p1)) <= 1e-3


# ---------------------------------------------------------------------------
# euclidean_vote


def _dense_line_vote(train_x, train_y, test_x, k):
    """Former baseline kernel: one dense |T| x n matrix of |x - y|."""
    d = np.abs(test_x[:, None] - train_x[None, :])
    idx = np.argpartition(d, k - 1, axis=1)[:, :k]
    ones = train_y[idx].sum(axis=1)
    return (2 * ones >= k).astype(np.int64)


def _argmin_nn1_labels(train_xy, train_y, test_xy):
    """Former 1-NN kernel: the label of the first nearest training row."""
    out = np.empty(len(test_xy), dtype=np.int64)
    for lo in range(0, len(test_xy), 256):
        q = test_xy[lo : lo + 256]
        d2 = ((q[:, None, :] - train_xy[None, :, :]) ** 2).sum(axis=2)
        out[lo : lo + 256] = train_y[d2.argmin(axis=1)]
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_euclidean_vote_matches_generic_oracle(d):
    n, T = 60, 257  # T = 257 puts a chunk boundary inside the queries
    rng = np.random.default_rng(d)
    train, labels, queries = rng.random((n, d)), rng.integers(0, 2, n), rng.random((T, d))
    if d == 1:
        space, point = LINE, lambda row: Real(float(row[0]))
    else:
        space, point = EuclideanD(d), lambda row: Vec(tuple(float(v) for v in row))
    sample = LabelledSample(
        tuple(point(r) for r in train), tuple(int(v) for v in labels),
        tuple(float(i) for i in range(n)),
    )
    for k in (1, 7, 30, n):
        expected = [
            knn_predict(sample, point(q), k, TieStrategy.FIRST_INDEX, space) for q in queries
        ]
        assert euclidean_vote(train, labels, queries, k).tolist() == expected


@pytest.mark.parametrize("n, k", [(100, 10), (1000, 32), (10_000, 100)])
def test_euclidean_vote_matches_dense_line_kernel(n, k):
    # the baseline runner's sizes, with coin-flip labels so that every vote counts
    rng = np.random.default_rng(n)
    train_x, train_y, test_x = rng.random(n), rng.integers(0, 2, n), rng.random(10_000)
    got = euclidean_vote(train_x[:, None], train_y, test_x[:, None], k)
    # rows are independent, so the reference may take the queries in blocks
    for lo in range(0, len(test_x), 500):
        ref = _dense_line_vote(train_x, train_y, test_x[lo : lo + 500], k)
        assert np.array_equal(got[lo : lo + 500], ref)


@pytest.mark.parametrize("n", [20_000, 10_000])
def test_euclidean_vote_matches_argmin_nn1(n):
    # the 1-NN runner's sample sizes on the unit square; the runner's full
    # 10^4 test points are pinned by the golden coverhart.json digest
    rng = np.random.default_rng(n)
    train, train_y, test = rng.random((n, 2)), rng.integers(0, 2, n), rng.random((2_000, 2))
    assert np.array_equal(
        euclidean_vote(train, train_y, test, 1), _argmin_nn1_labels(train, train_y, test)
    )
