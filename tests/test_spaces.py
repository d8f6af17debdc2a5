import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab import spaces
from metriclab.spaces import (
    ORIGIN,
    EuclideanD,
    EuclideanLine,
    Heisenberg,
    HPoint,
    KindMismatchError,
    Real,
    SparseL2,
    SparsePoint,
    UltrametricWords,
    Vec,
    Word,
    distance,
    h_dilate,
    h_inv,
    h_mul,
    h_norm,
    pairwise_distances,
)

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
hpoints = st.builds(HPoint, finite, finite, finite)


def test_line_distance():
    assert distance(EuclideanLine(), Real(0.0), Real(3.0)) == 3.0


def test_heisenberg_distance_vertical():
    # norm of (0,0,1) is ((0)^2 + 1)^(1/4) = 1
    assert distance(Heisenberg(), HPoint(0, 0, 0), HPoint(0, 0, 1)) == 1.0


def test_word_identity():
    w = Word((1, 1, 2))
    assert distance(UltrametricWords(2), w, w) == 0.0


def test_word_prefix_padding():
    space = UltrametricWords(3)
    assert distance(space, Word((1, 2)), Word((1, 2, 3))) == 0.25
    assert distance(space, Word(()), Word((1,))) == 1.0


def test_h_mul_example():
    p = h_mul(HPoint(1, 0, 0), HPoint(0, 1, 0))
    assert (p.x, p.y, p.z) == (1, 1, -2)


def test_h_mul_identity():
    p = HPoint(3.5, -1.25, 7.0)
    assert h_mul(HPoint(0, 0, 0), p) == p


@given(hpoints)
def test_h_mul_inverse_law(p):
    e = h_mul(p, h_inv(p))
    assert abs(e.x) <= 1e-12 and abs(e.y) <= 1e-12 and abs(e.z) <= 1e-12


def test_h_inv_example():
    assert h_inv(HPoint(1, 2, 3)) == HPoint(-1, -2, -3)
    assert h_inv(HPoint(0, 0, 0)) == HPoint(0, 0, 0)


@given(hpoints)
def test_h_inv_involution(p):
    assert h_inv(h_inv(p)) == p


def test_h_norm_examples():
    assert h_norm(HPoint(1, 0, 0)) == 1.0
    assert h_norm(HPoint(0, 0, 0)) == 0.0


def test_h_norm_inverse_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = HPoint(*rng.normal(size=3))
        assert h_norm(h_inv(p)) == h_norm(p)


def test_h_dilate():
    p = HPoint(1.0, 1.0, 1.0)
    assert h_dilate(1.0, p) == p
    assert h_dilate(2.0, p) == HPoint(2.0, 2.0, 4.0)
    with pytest.raises(ValueError):
        h_dilate(0.0, p)


def test_h_dilate_homogeneity():
    rng = np.random.default_rng(1)
    space = Heisenberg()
    for _ in range(200):
        p = HPoint(*rng.normal(size=3))
        q = HPoint(*rng.normal(size=3))
        t = float(rng.uniform(0.1, 5.0))
        d = distance(space, p, q)
        assert abs(distance(space, h_dilate(t, p), h_dilate(t, q)) - t * d) <= 1e-9 * max(t * d, 1.0)


def test_heisenberg_left_invariance():
    rng = np.random.default_rng(2)
    space = Heisenberg()
    for _ in range(200):
        g, p, q = (HPoint(*rng.normal(size=3)) for _ in range(3))
        d = distance(space, p, q)
        assert abs(distance(space, h_mul(g, p), h_mul(g, q)) - d) <= 1e-9 * max(d, 1.0)


def test_sparse_distance_union_of_supports():
    p = SparsePoint.from_dict({1: 3.0, 2: 4.0})
    q = SparsePoint.from_dict({2: 4.0, 7: 12.0})
    # differs by 3 along direction 1 and 12 along direction 7
    assert distance(SparseL2(), p, q) == pytest.approx(math.hypot(3.0, 12.0), abs=0)


def test_sparse_zero_coordinates_dropped():
    assert SparsePoint.from_dict({5: 0.0}) == SparsePoint.from_dict({})


def test_kind_mismatch():
    with pytest.raises(KindMismatchError):
        distance(EuclideanLine(), Real(0.0), HPoint(0, 0, 0))
    with pytest.raises(KindMismatchError):
        distance(EuclideanD(3), Vec((1.0, 2.0)), Vec((1.0, 2.0, 3.0)))


def _random_point(space, rng):
    if isinstance(space, EuclideanLine):
        return Real(float(rng.normal()))
    if isinstance(space, EuclideanD):
        return Vec(tuple(float(v) for v in rng.normal(size=space.dim)))
    if isinstance(space, Heisenberg):
        return HPoint(*(float(v) for v in rng.normal(size=3)))
    if isinstance(space, UltrametricWords):
        length = int(rng.integers(0, 6))
        return Word(tuple(int(rng.integers(1, space.alphabet_size + 1)) for _ in range(length)))
    return SparsePoint.from_dict(
        {int(i): float(rng.normal()) for i in rng.choice(9, size=3, replace=False)}
    )


ALL_SPACES = [EuclideanLine(), EuclideanD(3), Heisenberg(), UltrametricWords(2), SparseL2()]


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: type(s).__name__)
def test_metric_axioms(space):
    rng = np.random.default_rng(7)
    for _ in range(300):
        p, q, r = (_random_point(space, rng) for _ in range(3))
        assert abs(distance(space, p, q) - distance(space, q, p)) <= 1e-9
        assert distance(space, p, p) == 0.0
        if p != q:
            assert distance(space, p, q) > 0.0
        assert distance(space, p, r) <= distance(space, p, q) + distance(space, q, r) + 1e-9


@given(st.data())
@settings(max_examples=200)
def test_strong_triangle_inequality_exact(data):
    space = UltrametricWords(2)
    words = st.builds(
        Word, st.lists(st.integers(1, 2), max_size=6).map(tuple)
    )
    x, y, z = data.draw(words), data.draw(words), data.draw(words)
    assert distance(space, x, z) <= max(distance(space, x, y), distance(space, y, z))


# direction ids: a small shared pool, and ids above 2^63 that overflow int64
sparse_ids = st.one_of(st.integers(1, 6), st.integers(2**63 - 2, 2**63 + 3))
sparse_values = st.floats(-1e3, 1e3, allow_nan=False).filter(lambda v: v != 0.0)


def sparse_points(max_support):
    return st.dictionaries(sparse_ids, sparse_values, max_size=max_support).map(
        SparsePoint.from_dict
    )


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_sparse_pairwise_distances_equal_scalar_distance(data):
    # supports of unequal width on the two sides; B's ids are shifted past
    # A's in some examples, so supports are shared or disjoint
    a_width, b_width = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 3))
    A = data.draw(st.lists(sparse_points(a_width), max_size=9))
    shift = data.draw(st.sampled_from([0, 100]))
    B = [
        SparsePoint(tuple((i + shift, v) for i, v in p.items))
        for p in data.draw(st.lists(sparse_points(b_width), max_size=6))
    ] + [ORIGIN]
    block = data.draw(st.integers(1, 4))  # row blocks end inside A
    with mock.patch.object(spaces, "PAIRWISE_BLOCK", block):
        got = pairwise_distances(SparseL2(), A, B)
    space = SparseL2()
    want = np.array([[distance(space, a, b) for b in B] for a in A]).reshape(len(A), len(B))
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_sparse_pairwise_rejects_other_points():
    with pytest.raises(KindMismatchError):
        pairwise_distances(SparseL2(), [ORIGIN], [Real(0.0)])
