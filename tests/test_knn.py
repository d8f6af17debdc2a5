import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metriclab import knn
from metriclab.knn import (
    LabelledSample,
    TieStrategy,
    euclidean_vote,
    knn_predict,
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


def _packed_by_hand(points, labels, keys):
    """The sample of ``points`` through ``from_packed``: objects by ``id``
    in order of first use, and each point's slot among them."""
    slots: dict[int, int] = {}
    inverse = np.array([slots.setdefault(id(p), len(slots)) for p in points], np.intp)
    objects = tuple({id(p): p for p in points}.values())
    return LabelledSample.from_packed(objects, inverse, labels, keys)


# (point count, labels, tie keys) that both constructors reject
REJECTED = {
    "empty": (0, (), ()),
    "short labels": (2, (0,), (0.1, 0.2)),
    "long tie keys": (2, (0, 1), (0.1, 0.2, 0.3)),
    "empty labels": (1, (), (0.1,)),
    "label 2": (2, (0, 2), (0.1, 0.2)),
    "label -1": (2, (-1, 1), (0.1, 0.2)),
    "label 0.5": (2, (1, 0.5), (0.1, 0.2)),
    'label "1"': (2, (0, "1"), (0.1, 0.2)),
    'only label "1"': (1, ("1",), (0.1,)),
    "repeated tie key": (3, (0, 1, 0), (0.1, 0.2, 0.1)),
    "0.0 and -0.0": (2, (0, 1), (0.0, -0.0)),
    "tie keys None": (1, (0,), None),
    "scalar tie key": (1, (0,), 0.5),
    "scalar label": (1, 0, (0.1,)),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_both_constructors_reject_alike(name):
    count, labels, keys = REJECTED[name]
    points = (Real(0.0), Real(1.0), Real(0.0))[:count]
    with pytest.raises(ValueError) as by_tuples:
        LabelledSample(points, labels, keys)
    with pytest.raises(ValueError) as by_arrays:
        _packed_by_hand(points, labels, keys)
    assert str(by_arrays.value) == str(by_tuples.value)
    assert type(by_arrays.value) is type(by_tuples.value) is ValueError  # not numpy's AxisError


@pytest.mark.parametrize(
    "labels, keys",
    [
        ((True, False), (0.1, 0.2)),
        ((1.0, 0.0), (0.1, 0.2)),
        ((np.int8(1), 0), (0.1, 0.2)),
        ((0, 1), (float("nan"), 0.2)),
        ((0, 1), (float("nan"), float("nan"))),  # NaN equals no key, itself included
    ],
)
def test_both_constructors_accept_alike(labels, keys):
    # accepted as the tuple check set(labels) <= {0, 1} and pairwise
    # distinct keys accepts them; labels read back as Python ints
    points = (Real(0.0), Real(1.0))
    samples = LabelledSample(points, labels, keys), _packed_by_hand(points, labels, keys)
    for sample in samples:
        assert sample.labels == tuple(map(int, labels)) and type(sample.labels[0]) is int
        assert sample.packed.labels.dtype == np.int64
        assert [k.hex() for k in sample.tie_keys] == [float(k).hex() for k in keys]
    assert samples[0].packed.tie_keys.tobytes() == samples[1].packed.tie_keys.tobytes()


def test_radius_examples():
    s = line_sample([0, 1, 2, 3], [0, 0, 0, 0])
    assert knn._radius(s, Real(0.0), 2, LINE)[1] == 1.0
    assert knn._radius(s, Real(2.0), 1, LINE)[1] == 0.0
    both = line_sample([0, 2], [0, 0])
    assert knn._radius(both, Real(1.0), 2, LINE)[1] == 1.0
    with pytest.raises(ValueError):
        knn._radius(s, Real(0.0), 5, LINE)[1]


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
    radius = knn._radius(sample, x, k, space)[1]
    assert radius == sorted(distance(space, x, p) for p in sample.points)[k - 1]


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
        assert knn._radius(sample, x, 5, LINE)[1] == 1.5
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


def _assert_packed_by_id_dict(sample):
    """``sample.packed`` against the reference packing: one dict from
    ``id()`` to slot, objects in order of first use."""
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


@given(repeated_object_cases())
@settings(max_examples=200, deadline=None)
def test_packed_equals_the_id_dict_packing(case):
    _assert_packed_by_id_dict(case[1])


def test_packed_equals_the_id_dict_packing_on_a_trace_sample():
    prob = adv.AdversarialProblem(
        adv.Schedule(m=(1, 4, 3, 3), n=(60,), mode="empirical"), truncation_depth=3
    )
    _assert_packed_by_id_dict(
        adv.labelled_sample_from_trace(prob, adv.draw_trace(prob, 500, np.random.default_rng(2)))
    )


def test_select_neighbours_breaks_the_exact_heisenberg_tie_by_rule():
    # q = x * R(x^-1 p) for a quarter turn R about the z axis, so p and q are
    # equally far from x in exact arithmetic, and in floats in either
    # argument order; the boundary rule alone picks the neighbour
    H = Heisenberg()
    x = HPoint(-0.045648981370904895, 0.4874034575034676, 0.47848239413867577)
    p = HPoint(-0.994250115786738, 0.23331998728461878, 0.6635643506728459)
    q = HPoint(0.2084344888479439, -0.4611976769123656, 1.7725415720137307)
    d = distance(H, x, p)
    assert d == distance(H, p, x) == distance(H, x, q) == distance(H, q, x) == 1.219777776107142
    # index 0 (q) has the smaller tie key and the lower index
    sample = LabelledSample((q, p), (0, 1), (0.1, 0.9))
    for strategy in TieStrategy:
        assert select_neighbours(sample, x, 1, strategy, H) == [0]
        assert knn_predict(sample, x, 1, strategy, H) == 0
    assert knn._radius(sample, x, 1, H)[1] == d
    # reversed tie keys: UNIFORM_RANDOM follows the key, FIRST_INDEX the index
    flipped = LabelledSample((q, p), (0, 1), (0.9, 0.1))
    assert select_neighbours(flipped, x, 1, TieStrategy.UNIFORM_RANDOM, H) == [1]
    assert select_neighbours(flipped, x, 1, TieStrategy.FIRST_INDEX, H) == [0]


def _first_nearest_label(sample, x, space):
    """The reference 1-NN rule: the label of the first sample point at the
    least distance, from a scalar ``min`` over the indices."""
    i = min(range(len(sample)), key=lambda j: distance(space, x, sample.points[j]))
    return sample.labels[i]


def _word_draw(rng):
    # three-letter words: ultrametric distances are powers of 2, so nearest
    # points tie often and the first-minimum rule decides
    word = Word(tuple(int(v) for v in rng.integers(1, 4, 3)))
    return word, int(rng.random() <= (0.9 if word.letters[0] == 1 else 0.2))


def _sparse_draw(rng):
    ids = rng.integers(1, 6, 2)
    point = SparsePoint.from_dict({int(i): float(rng.random()) for i in ids})
    return point, int(rng.random() <= (0.8 if point.items[0][0] <= 2 else 0.3))


@pytest.mark.parametrize(
    "draw, space",
    [(_word_draw, UltrametricWords(3)), (_sparse_draw, SparseL2())],
    ids=["ultrametric_words", "sparse_l2"],
)
def test_one_nn_generic_path_matches_scalar_loop(draw, space):
    # the generic 1-NN rule with index tie-breaking picks the first nearest point
    for seed in range(3):
        rng = np.random.default_rng(seed)
        train = [draw(rng) for _ in range(60)]
        sample = LabelledSample(
            tuple(pt for pt, _ in train), tuple(lab for _, lab in train),
            tuple(float(i) for i in range(60)),
        )
        for q, _ in (draw(rng) for _ in range(300)):
            assert knn_predict(sample, q, 1, TieStrategy.FIRST_INDEX, space) == \
                _first_nearest_label(sample, q, space)


def test_one_nn_separated_clusters():
    # deterministic labels on two clusters far apart: 1-NN is near perfect
    rng = np.random.default_rng(3)

    def draw(count):
        right = rng.random(count) >= 0.5
        return (rng.random(count) + 10.0 * right)[:, None], right.astype(np.int64)

    train, train_y = draw(2000)
    test, test_y = draw(2000)
    assert (euclidean_vote(train, train_y, test, 1) != test_y).mean() <= 0.02


def test_one_nn_constant_eta():
    # labels independent of the point: the 1-NN error is 2 eta (1 - eta)
    for seed, eta in [(4, 0.3), (5, 0.5)]:
        rng = np.random.default_rng(seed)
        train, test = rng.random((4000, 1)), rng.random((4000, 1))
        train_y = (rng.random(4000) <= eta).astype(np.int64)
        test_y = (rng.random(4000) <= eta).astype(np.int64)
        err = (euclidean_vote(train, train_y, test, 1) != test_y).mean()
        assert err == pytest.approx(2 * eta * (1 - eta), abs=0.03)


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


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_euclidean_vote_matches_generic_oracle(d):
    n, T = 60, 257
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


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("k", [0, 11])
def test_euclidean_vote_rejects_k_outside_1_to_n(d, k):
    rng = np.random.default_rng(d)
    train, labels, queries = rng.random((10, d)), rng.integers(0, 2, 10), rng.random((5, d))
    with pytest.raises(ValueError, match=f"k must be in 1..10, got {k}"):
        euclidean_vote(train, labels, queries, k)


@pytest.mark.parametrize(
    "train_shape, labels_shape, queries_shape",
    [((50, 2), (50,), (3, 3)), ((50, 2), (49,), (3, 2)), ((50, 0), (50,), (3, 0))],
    ids=["query_width", "short_labels", "no_coordinates"],
)
def test_euclidean_vote_rejects_mismatched_shapes(train_shape, labels_shape, queries_shape):
    # each once voted on the first d columns or raised IndexError inside the kernel
    rng = np.random.default_rng(0)
    train, queries = rng.random(train_shape), rng.random(queries_shape)
    with pytest.raises(ValueError, match=r"^need \(n, d\) rows with d >= 1"):
        euclidean_vote(train, rng.integers(0, 2, labels_shape), queries, 1)


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


def _first_index_line_votes(train_x, train_y, test_x, k):
    """``knn_predict`` with FIRST_INDEX on the line, one query at a time."""
    sample = line_sample(train_x, train_y)
    return [knn_predict(sample, Real(float(q)), k, TieStrategy.FIRST_INDEX, LINE) for q in test_x]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("n", [1, 2, 9, 40])
def test_line_vote_for_queries_beyond_every_row(side, n):
    # every query's place is 0 (left) or n (right), so the search range
    # holds the one window start 0 or n - k
    rng = np.random.default_rng(n)
    train_x, train_y = rng.random(n), rng.integers(0, 2, n)
    test_x = rng.random(50) + (1.001 if side == "right" else -1.001)
    for k in sorted({1, (n + 1) // 2, n}):
        got = euclidean_vote(train_x[:, None], train_y, test_x[:, None], k)
        assert np.array_equal(got, _dense_line_vote(train_x, train_y, test_x, k))


@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_line_vote_with_k_equal_to_n_is_the_global_majority(n):
    rng = np.random.default_rng(n)
    train_x, test_x = rng.random(n), 3 * rng.random(50) - 1
    for train_y in (rng.integers(0, 2, n), np.zeros(n, np.int64), np.ones(n, np.int64)):
        got = euclidean_vote(train_x[:, None], train_y, test_x[:, None], n)
        assert got.tolist() == [int(2 * train_y.sum() >= n)] * 50
        assert got.tolist() == _first_index_line_votes(train_x, train_y, test_x, n)


@pytest.mark.parametrize("side", [-1.0, 1.0], ids=["left", "right"])
def test_line_vote_next_to_a_plateau_of_equal_rows(side):
    # queries in [-0.5, 0.5], 20 label-1 rows at 3 on one side and 6
    # label-0 rows at 1 to 1.5 on the other side. For k <= 6 the plateau
    # is beyond the k-th radius, and no window inside it is a nearest one;
    # for 6 < k < 26 the k-th radius ties inside the plateau, but every
    # plateau row has label 1, so the vote is determined
    train_x = np.array([3.0 * side] * 20 + [-side * (1 + 0.1 * i) for i in range(6)])
    train_y = np.array([1] * 20 + [0] * 6)
    test_x = np.random.default_rng(0).random(40) - 0.5
    for k in (1, 4, 6, 7, 11, 12, 20, 26):
        got = euclidean_vote(train_x[:, None], train_y, test_x[:, None], k)
        assert got.tolist() == [int(k >= 12)] * 40
        assert got.tolist() == _first_index_line_votes(train_x, train_y, test_x, k)


@pytest.mark.parametrize("n", [20_000, 10_000])
def test_euclidean_vote_matches_argmin_nn1(n):
    # the 1-NN runner's sample sizes on the unit square; the runner's full
    # 10^4 test points are pinned by the golden coverhart.json digest
    rng = np.random.default_rng(n)
    train, train_y, test = rng.random((n, 2)), rng.integers(0, 2, n), rng.random((2_000, 2))
    assert np.array_equal(
        euclidean_vote(train, train_y, test, 1), _argmin_nn1_labels(train, train_y, test)
    )


LAYOUTS = (
    "uniform",
    "clustered",
    "offset",
    "duplicate_first_coordinate",
    "duplicate_second_coordinate",
    "cell_edges",
    "diagonal",
    "constant_second_coordinate",
)


@st.composite
def vote_inputs(draw):
    d = draw(st.integers(1, 3))
    layout = draw(st.sampled_from(LAYOUTS if d >= 2 else LAYOUTS[:3]))
    n = draw(st.integers(1, 400))
    # small k leaves the window narrower than n; large k covers it
    k = draw(st.one_of(st.integers(1, min(n, 8)), st.integers(1, n)))
    T = draw(st.integers(1, 600))
    # blocks of 1 or 3 entries hold one query or a few
    block = draw(st.sampled_from([1, 3, 256, knn.EUCLIDEAN_BLOCK]))
    train, labels, queries = _vote_data(d, layout, n, k, T, draw(st.integers(0, 2**32 - 1)))
    return train, labels, queries, k, block


def _cell_corners(train, k, count, rng):
    """``count`` points on the corners of ``euclidean_vote``'s cells, from
    its own cell table: coordinate 0 is the least or greatest coordinate 0
    of a column, and coordinate 1 is low_c + b/inv_c for one of the
    column's bands b, from the kernel's own low_c and inv_c."""
    n, d = train.shape
    w = min(n, max(2 * k, 8 if d == 2 else 2 * math.isqrt(n)))
    s = math.isqrt(n * w)
    cells = knn._cell_table(train, np.zeros(n), s)[0]
    c, b = rng.integers(0, len(cells.firsts), count), rng.integers(0, s + 1, count)
    inv = cells.inv[c]
    edge1 = cells.low[c] + np.divide(b, inv, out=np.zeros(count), where=inv > 0)
    return np.where(rng.random(count) < 0.5, cells.firsts[c], cells.lasts[c]), edge1


def _vote_data(d, layout, n, k, T, seed):
    """Continuous draws, so k-th radius ties have probability zero. Half the
    queries sit near training rows; the rest range over [-1, 2]^d, a box
    three times wider than the training data's. The duplicate layouts put
    the training rows, and a quarter of the queries, on four values of one
    coordinate. ``cell_edges`` puts a quarter of the queries exactly on the
    corners of the kernel's cells. ``diagonal`` sets coordinate 1 to
    coordinate 0 plus noise of 1e-4, so each column has a narrow
    coordinate-1 range, and ``constant_second_coordinate`` gives every row,
    and a quarter of the queries, one coordinate 1, so each column has one
    band in use."""
    rng = np.random.default_rng(seed)
    if layout == "clustered":
        centres = rng.random((3, d))
        train = centres[rng.integers(0, 3, n)] + 1e-3 * rng.standard_normal((n, d))
    else:
        train = rng.random((n, d))
    duplicated = {"duplicate_first_coordinate": 0, "duplicate_second_coordinate": 1}.get(layout)
    if duplicated is not None:
        train[:, duplicated] = rng.integers(0, 4, n) / 4
    if layout == "diagonal":
        train[:, 1] = train[:, 0] + 1e-4 * rng.standard_normal(n)
    if layout == "constant_second_coordinate":
        train[:, 1] = rng.random()
    queries = 3 * rng.random((T, d)) - 1
    near = T // 2
    queries[:near] = train[rng.integers(0, n, near)] + 1e-3 * rng.standard_normal((near, d))
    if duplicated is not None:
        queries[: near // 2, duplicated] = rng.integers(0, 4, near // 2) / 4
    if layout == "cell_edges":
        queries[: near // 2, 0], queries[: near // 2, 1] = _cell_corners(train, k, near // 2, rng)
    if layout == "constant_second_coordinate":
        queries[: near // 2, 1] = train[0, 1]
    if layout == "offset":
        train, queries = train + 1e6, queries + 1e6
    return train, rng.integers(0, 2, n), queries


def _rounded_bound(axis):
    """d = 2, k = 1: a label-1 row 0.75 + 2^-60 from the query along
    coordinate ``axis``, whose squared distance rounds to 0.5625, and far
    label-0 rows. The row lies 2^-60 beyond q ± sqrt(0.5625), so only the
    margin of the search bounds keeps it. n = 16 gives columns of s = 11
    rows. At axis 0 the row is the last row of column 0, so the column
    search would skip that column. At axis 1 the far rows of column 0 span
    coordinate 1 over [-2^-59, 10·2^-59], so inv = 2^59 puts a band edge
    exactly at q₁ - sqrt(0.5625) = 0, and the run would start in band 1,
    above the row's band 0."""
    right = [[100.0 + i] * 2 for i in range(5)]
    if axis == 0:
        near, far = [-(2.0**-60), 0.5], [[-100.0 - i] * 2 for i in range(10)]
        query = [0.75, 0.5]
    else:
        near, far = [0.5, -(2.0**-60)], [[-100.0, -(2.0**-59)]] + [
            [-101.0 - i, 10 * 2.0**-59] for i in range(9)
        ]
        query = [0.5, 0.75]
    train = np.array([near, *far, *right])
    return train, np.array([1] + [0] * 15), np.array([query]), 1, 256


@given(vote_inputs())
@example(_rounded_bound(0))
@example(_rounded_bound(1))
@settings(max_examples=400, deadline=None)
def test_euclidean_vote_matches_dense_kernel(inputs):
    train, labels, queries, k, block = inputs
    with mock.patch.object(knn, "EUCLIDEAN_BLOCK", block):
        got = euclidean_vote(train, labels, queries, k)
    assert np.array_equal(got, _dense_vote(train, labels, queries, k))


@pytest.mark.parametrize("block", [1, knn.EUCLIDEAN_BLOCK])
def test_euclidean_vote_with_infinite_query_coordinates(block):
    # such a query is at distance inf from every row, so any k rows are
    # nearest; its bounds fl(±inf ∓ inf) are NaN, which opens them to the
    # whole table, and the finite queries keep their exact votes. A block of
    # one entry gives each query a block of its own.
    rng = np.random.default_rng(5)
    train, labels, queries = rng.random((300, 2)), rng.integers(0, 2, 300), rng.random((40, 2))
    queries[:4] = [[np.inf, 0.5], [-np.inf, 0.5], [0.5, np.inf], [0.5, -np.inf]]
    for k in (1, 7, 300):
        with mock.patch.object(knn, "EUCLIDEAN_BLOCK", block):
            got = euclidean_vote(train, labels, queries, k)
        assert set(got[:4].tolist()) <= {0, 1}
        assert np.array_equal(got[4:], _dense_vote(train, labels, queries[4:], k))


def _plane_draws(layout, n, T, seed):
    """Training rows and queries from one law in the plane: uniform on the
    unit square, or three clusters of width 1e-3."""
    rng = np.random.default_rng(seed)
    if layout == "uniform":
        return rng.random((n, 2)), rng.integers(0, 2, n), rng.random((T, 2))
    centres = rng.random((3, 2))
    train = centres[rng.integers(0, 3, n)] + 1e-3 * rng.standard_normal((n, 2))
    queries = centres[rng.integers(0, 3, T)] + 1e-3 * rng.standard_normal((T, 2))
    return train, rng.integers(0, 2, n), queries


@pytest.mark.parametrize("layout", ["uniform", "clustered"])
def test_euclidean_vote_peak_memory(layout):
    # (n, d, k, T) = (20000, 2, 1, 10^4): blocks of EUCLIDEAN_BLOCK entries
    # and O(n + T) arrays set the peak (2.2 MiB on both layouts), far from
    # the 1.6 GB of an n x T matrix of squared distances
    train, labels, queries = _plane_draws(layout, 20_000, 10_000, 1)
    tracemalloc.start()
    try:
        got = euclidean_vote(train, labels, queries, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
    assert np.array_equal(got[:256], _dense_vote(train, labels, queries[:256], 1))


def test_line_vote_peak_memory():
    # (n, k, T) = (10^4, 100, 10^4): the sorted rows, the sorted queries and
    # the search's O(n + T) index arrays set the peak (0.85 MiB), where a
    # (T, k) block of candidate rows alone would take 7.6 MiB
    rng = np.random.default_rng(3)
    train_x, train_y, test_x = rng.random(10_000), rng.integers(0, 2, 10_000), rng.random(10_000)
    tracemalloc.start()
    try:
        got = euclidean_vote(train_x[:, None], train_y, test_x[:, None], 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20
    assert np.array_equal(got[:500], _dense_line_vote(train_x, train_y, test_x[:500], 100))


def _order_inputs(data, d):
    """Training rows and queries for the query-order test: uniform draws
    with queries over [-1, 2]^d, the 80-row lattice of
    ``test_euclidean_vote_on_a_lattice_with_ties``, or uniform draws with
    the infinite query coordinates of
    ``test_euclidean_vote_with_infinite_query_coordinates``."""
    rng = np.random.default_rng(d)
    n, T = (80 if data == "lattice" else 300), 150
    if data == "lattice":
        train, queries = rng.integers(0, 12, (n, d)).astype(float), rng.integers(-4, 28, (T, d)) / 2
    else:
        train, queries = rng.random((n, d)), 3 * rng.random((T, d)) - 1
    if data == "infinite":
        queries[:2, 0], queries[2:4, d - 1] = [np.inf, -np.inf], [np.inf, -np.inf]
    return train, rng.integers(0, 2, n), queries, rng.permutation(T)


@pytest.mark.parametrize("block", [1, 3, knn.EUCLIDEAN_BLOCK])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("data", ["uniform", "lattice", "infinite"])
def test_euclidean_vote_does_not_depend_on_the_query_order(data, d, block):
    # shuffled queries get the same votes, shuffled alike, wherever the k-th
    # and (k+1)-th squared distances differ; at a tie argpartition may pick
    # another tied row when a block's padding changes
    train, labels, queries, perm = _order_inputs(data, d)
    d2 = (queries[:, None, 0] - train[None, :, 0]) ** 2
    for j in range(1, d):
        d2 += (queries[:, None, j] - train[None, :, j]) ** 2
    d2 = np.column_stack([np.sort(d2, axis=1), np.full(len(queries), np.inf)])
    compared = 0
    for k in (1, 4, 15, len(train)):
        decided = (d2[:, k - 1] < d2[:, k])[perm]
        with mock.patch.object(knn, "EUCLIDEAN_BLOCK", block):
            got = euclidean_vote(train, labels, queries, k)[perm]
            shuffled = euclidean_vote(train, labels, queries[perm], k)
        assert np.array_equal(shuffled[decided], got[decided])
        compared += decided.sum()
    assert compared > len(queries)


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
