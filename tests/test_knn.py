from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab import knn
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
from metriclab import adversarial as adv
from metriclab.spaces import (
    EuclideanD,
    EuclideanLine,
    Heisenberg,
    HPoint,
    Real,
    SparseL2,
    SparsePoint,
    UltrametricWords,
    Vec,
    Word,
    distance,
)

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


# ---------------------------------------------------------------------------
# select_neighbours: one distance per distinct point object


def _loop_select_neighbours(sample, x, k, strategy, space):
    """The reference: one ``distance(space, x, p)`` call per sample index."""
    dists = [distance(space, x, p) for p in sample.points]
    radius = sorted(dists)[k - 1]
    inside = [i for i, d in enumerate(dists) if d < radius]
    boundary = [i for i, d in enumerate(dists) if d == radius]
    if strategy is TieStrategy.UNIFORM_RANDOM:
        boundary.sort(key=lambda i: sample.tie_keys[i])
    return inside + boundary[: k - len(inside)]


# (space, point description, constructor); the small ranges make exact
# distance ties common
POINT_KINDS = {
    "line": (LINE, st.integers(-3, 3), lambda v: Real(float(v))),
    "words": (
        UltrametricWords(3),
        st.lists(st.integers(1, 3), max_size=3),
        lambda v: Word(tuple(v)),
    ),
    "sparse": (
        SparseL2(),
        st.dictionaries(st.integers(1, 3), st.integers(-1, 1), max_size=2),
        lambda v: SparsePoint.from_dict({i: float(c) for i, c in v.items()}),
    ),
}


@st.composite
def repeated_object_cases(draw):
    """(space, sample, query, k): the points are drawn from a small pool of
    objects, so objects repeat, and about one slot in four gets a fresh
    object equal to its pool object."""
    space, described, make = POINT_KINDS[draw(st.sampled_from(sorted(POINT_KINDS)))]
    descriptions = draw(st.lists(described, min_size=1, max_size=6))
    pool = [make(v) for v in descriptions]
    n = draw(st.integers(1, 24))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    fresh = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    points = tuple(
        make(descriptions[j]) if f == 0 else pool[j] for j, f in zip(picks, fresh)
    )
    labels = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    keys = tuple(0.5 + i for i in draw(st.permutations(range(n))))
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    return space, LabelledSample(points, labels, keys), make(draw(described)), k


@given(repeated_object_cases(), st.sampled_from(list(TieStrategy)))
@settings(max_examples=400, deadline=None)
def test_select_neighbours_matches_the_per_index_loop(case, strategy):
    space, sample, x, k = case
    expect = _loop_select_neighbours(sample, x, k, strategy, space)
    assert select_neighbours(sample, x, k, strategy, space) == expect
    assert r_k(sample, x, k, space) == sorted(distance(space, x, p) for p in sample.points)[k - 1]


def _counting_distance():
    return mock.patch.object(knn, "distance", wraps=distance)


def test_one_distance_call_per_distinct_point_object():
    a, b = Real(0.0), Real(2.0)
    points = (a, b, a, Real(2.0), a, b, Real(0.0))  # 4 objects, 2 values
    sample = LabelledSample(points, (0, 1, 0, 1, 0, 1, 0), tuple(0.1 * i for i in range(7)))
    x = Real(0.5)
    with _counting_distance() as spy:
        assert select_neighbours(sample, x, 3, TieStrategy.FIRST_INDEX, LINE) == [0, 2, 4]
    assert spy.call_count == 4
    assert all(call.args[1] is x for call in spy.call_args_list)
    with _counting_distance() as spy:
        assert r_k(sample, x, 5, LINE) == 1.5
    assert spy.call_count == 4


def test_one_distance_call_per_distinct_object_on_a_trace_sample():
    # diffuse draws sit on node centres and atoms repeat: a criterion-07
    # sized sample holds far fewer objects than points
    prob = adv.AdversarialProblem(
        adv.Schedule(m=(1, 6, 2), n=(60,), mode="empirical"), truncation_depth=2
    )
    rng = np.random.default_rng(11)
    sample = adv.labelled_sample_from_trace(prob, adv.draw_trace(prob, 2000, rng))
    x = prob.geometry((2, 1)).center
    distinct = len({id(p) for p in sample.points})
    assert distinct < 100
    with _counting_distance() as spy:
        chosen = select_neighbours(sample, x, 11, TieStrategy.UNIFORM_RANDOM, SparseL2())
    assert spy.call_count == distinct
    assert chosen == _loop_select_neighbours(sample, x, 11, TieStrategy.UNIFORM_RANDOM, SparseL2())


def test_select_neighbours_ranks_by_the_query_first_distance():
    # q = x * R(x^-1 p) for a quarter turn R about the z axis, so p and q are
    # equally far from x in exact arithmetic; the float distance is not
    # symmetric, and its two argument orders rank p and q oppositely
    H = Heisenberg()
    x = HPoint(-0.045648981370904895, 0.4874034575034676, 0.47848239413867577)
    p = HPoint(-0.994250115786738, 0.23331998728461878, 0.6635643506728459)
    q = HPoint(0.2084344888479439, -0.4611976769123656, 1.7725415720137307)
    assert distance(H, x, p) < distance(H, x, q)
    assert distance(H, p, x) > distance(H, q, x)
    sample = LabelledSample((q, p), (0, 1), (0.1, 0.9))
    for strategy in TieStrategy:
        assert select_neighbours(sample, x, 1, strategy, H) == [1]
        assert knn_predict(sample, x, 1, strategy, H) == 1
    assert r_k(sample, x, 1, H) == distance(H, x, p)


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


def _dense_vote(train, labels, queries, k):
    """The dense kernel the sorted-slab search replaced: one (256, n) block
    of squared distances per 256 queries, summed one coordinate at a time."""
    out = np.empty(len(queries), dtype=np.int64)
    for lo in range(0, len(queries), 256):
        q = queries[lo : lo + 256]
        d2 = (q[:, None, 0] - train[None, :, 0]) ** 2
        for j in range(1, train.shape[1]):
            d2 += (q[:, None, j] - train[None, :, j]) ** 2
        ones = labels[np.argpartition(d2, k - 1, axis=1)[:, :k]].sum(axis=1)
        out[lo : lo + 256] = 2 * ones >= k
    return out


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


LAYOUTS = ("uniform", "clustered", "offset", "duplicate_first_coordinate")


@st.composite
def vote_inputs(draw):
    d = draw(st.integers(1, 3))
    layout = draw(st.sampled_from(LAYOUTS if d >= 2 else LAYOUTS[:3]))
    n = draw(st.integers(1, 400))
    # small k leaves the window narrower than n; large k covers it
    k = draw(st.one_of(st.integers(1, min(n, 8)), st.integers(1, n)))
    T = draw(st.integers(1, 600).filter(lambda t: t % 256))
    chunk = draw(st.sampled_from([1, 3, 256]))
    return d, layout, n, k, T, chunk, draw(st.integers(0, 2**32 - 1))


def _vote_data(d, layout, n, T, seed):
    """Continuous draws, so k-th radius ties have probability zero. Half the
    queries sit near training rows; the rest range over [-1, 2]^d, a box
    three times wider than the training data's."""
    rng = np.random.default_rng(seed)
    if layout == "clustered":
        centres = rng.random((3, d))
        train = centres[rng.integers(0, 3, n)] + 1e-3 * rng.standard_normal((n, d))
    else:
        train = rng.random((n, d))
    if layout == "duplicate_first_coordinate":
        train[:, 0] = rng.integers(0, 4, n) / 4
    queries = 3 * rng.random((T, d)) - 1
    near = T // 2
    queries[:near] = train[rng.integers(0, n, near)] + 1e-3 * rng.standard_normal((near, d))
    if layout == "duplicate_first_coordinate":
        queries[: near // 2, 0] = rng.integers(0, 4, near // 2) / 4
    if layout == "offset":
        train, queries = train + 1e6, queries + 1e6
    return train, rng.integers(0, 2, n), queries


@given(vote_inputs())
@settings(max_examples=200, deadline=None)
def test_euclidean_vote_matches_dense_kernel(inputs):
    d, layout, n, k, T, chunk, seed = inputs
    train, labels, queries = _vote_data(d, layout, n, T, seed)
    with mock.patch.object(knn, "EUCLIDEAN_CHUNK", chunk):
        got = euclidean_vote(train, labels, queries, k)
    assert np.array_equal(got, _dense_vote(train, labels, queries, k))


@pytest.mark.parametrize("d", [1, 2])
def test_euclidean_vote_on_a_lattice_with_ties(d):
    # integer rows with repeats and half-integer queries, some outside the
    # rows' range: many k-th radius ties, which the kernel need not break
    # as FIRST_INDEX does; every query without one must agree with it
    n, T = 80, 300
    rng = np.random.default_rng(d)
    train, labels = rng.integers(0, 12, (n, d)).astype(float), rng.integers(0, 2, n)
    queries = rng.integers(-4, 28, (T, d)) / 2
    if d == 1:
        space, point = LINE, lambda row: Real(float(row[0]))
    else:
        space, point = EuclideanD(d), lambda row: Vec(tuple(float(v) for v in row))
    sample = LabelledSample(
        tuple(point(r) for r in train), tuple(int(v) for v in labels),
        tuple(float(i) for i in range(n)),
    )
    compared = skipped = 0
    for k in (1, 4, 15):
        got = euclidean_vote(train, labels, queries, k)
        for q, g in zip(queries, got):
            dists = sorted(distance(space, point(q), p) for p in sample.points)
            if dists[k - 1] == dists[k]:
                skipped += 1
                continue
            assert g == knn_predict(sample, point(q), k, TieStrategy.FIRST_INDEX, space)
            compared += 1
    assert compared > 0 and skipped > 0


def _scalar_one_nn_error(problem, n, test_points, space, seed):
    """``one_nn_error_estimate``'s former generic path: a scalar
    ``min(range(n), key=distance)`` per test point."""
    rng = np.random.default_rng(seed)
    train_pts = [problem.sampler(rng)[0] for _ in range(n)]
    train_lab = np.array([1 if rng.random() <= problem.eta(p) else 0 for p in train_pts])
    test_pts = [problem.sampler(rng)[0] for _ in range(test_points)]
    test_lab = np.array([1 if rng.random() <= problem.eta(p) else 0 for p in test_pts])
    nn = [min(range(n), key=lambda i: distance(space, q, train_pts[i])) for q in test_pts]
    return float((train_lab[nn] != test_lab).mean())


def _word_problem():
    # three-letter words: ultrametric distances are powers of 2, so nearest
    # points tie often and the first-minimum rule decides
    def sampler(rng):
        return Word(tuple(int(v) for v in rng.integers(1, 4, 3))), 0

    return LearningProblem(sampler, lambda p: 0.9 if p.letters[0] == 1 else 0.2)


def _sparse_problem():
    def sampler(rng):
        ids = rng.integers(1, 6, 2)
        return SparsePoint.from_dict({int(i): float(rng.random()) for i in ids}), 0

    return LearningProblem(sampler, lambda p: 0.8 if p.items[0][0] <= 2 else 0.3)


@pytest.mark.parametrize(
    "problem, space",
    [(_word_problem(), UltrametricWords(3)), (_sparse_problem(), SparseL2())],
    ids=["ultrametric_words", "sparse_l2"],
)
def test_one_nn_generic_path_matches_scalar_loop(problem, space):
    # 300 test points: the second block of 256 ends early
    for seed in range(3):
        got = one_nn_error_estimate(problem, n=60, test_points=300, space=space, seed=seed)
        assert got == _scalar_one_nn_error(problem, 60, 300, space, seed)
