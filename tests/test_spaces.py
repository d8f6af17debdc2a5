import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    contained_pairs,
    distance,
    h_dilate,
    h_inv,
    h_mul,
    h_norm,
    pack_words,
    words_contained,
)

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
hpoints = st.builds(HPoint, finite, finite, finite)


def test_line_distance():
    assert distance(EuclideanLine(), Real(0.0), Real(3.0)) == 3.0


def test_euclidean_distance_beyond_the_float_range_is_inf():
    # the squared difference overflows to inf rather than raising
    assert distance(EuclideanD(1), Vec((1e200,)), Vec((0.0,))) == math.inf


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


@given(hpoints, hpoints)
@settings(max_examples=500)
@example(
    HPoint(-0.045648981370904895, 0.4874034575034676, 0.47848239413867577),
    HPoint(-0.994250115786738, 0.23331998728461878, 0.6635643506728459),
)
def test_heisenberg_distance_is_bitwise_symmetric(p, q):
    # a closed-ball test d <= r at the boundary must not depend on which
    # point is the centre
    assert distance(Heisenberg(), p, q) == distance(Heisenberg(), q, p)


def test_sparse_distance_union_of_supports():
    p = SparsePoint.from_dict({1: 3.0, 2: 4.0})
    q = SparsePoint.from_dict({2: 4.0, 7: 12.0})
    # differs by 3 along direction 1 and 12 along direction 7
    assert distance(SparseL2(), p, q) == pytest.approx(math.hypot(3.0, 12.0), abs=0)


def test_sparse_zero_coordinates_dropped():
    assert SparsePoint.from_dict({5: 0.0}) == SparsePoint.from_dict({})


def _shift_by_dict(p, direction, amount):
    """The reference shift: a round trip through a dict and ``from_dict``."""
    coords = dict(p.items)
    coords[direction] = coords.get(direction, 0.0) + amount
    return SparsePoint.from_dict(coords)


def test_sparse_shift_examples():
    p = SparsePoint.from_dict({2: 1.0, 5: -0.5})
    assert p.shift(5, 0.5).items == ((2, 1.0),)  # to zero: dropped
    assert p.shift(2, 2).items == ((2, 3.0), (5, -0.5))  # onto an existing id
    assert type(p.shift(2, 2).items[0][1]) is float
    assert p.shift(3, 0.25).items == ((2, 1.0), (3, 0.25), (5, -0.5))
    assert p.shift(9, 0.0) == p
    assert ORIGIN.shift(1, 1).items == ((1, 1.0),)


@given(
    st.dictionaries(st.integers(1, 6), st.sampled_from([-1.0, -0.5, 0.25, 1.0, 3]), max_size=4),
    st.integers(0, 7),
    st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1, 2.5]),
)
@settings(max_examples=300)
def test_sparse_shift_equals_from_dict(coords, direction, amount):
    p = SparsePoint.from_dict(coords)
    moved = p.shift(direction, amount)
    assert moved.items == _shift_by_dict(p, direction, amount).items
    assert all(type(v) is float for _, v in moved.items)


# one point of each kind, in the order of ALL_SPACES
ONE_POINT_EACH = [Real(0.5), Vec((0.5, 1.0, -2.0)), HPoint(0.5, 1.0, -2.0), Word((1, 2)), ORIGIN]


def test_id_blocks_continue_the_fresh_sequence():
    ids, old = spaces.DirectionIds(), spaces.DirectionIds()
    got = [ids.fresh(), *ids.block(3), *ids.block(0), ids.fresh(), *ids.block(2), ids.fresh()]
    assert got == [old.fresh() for _ in got] == list(range(1, 9))


def test_id_block_rejects_a_negative_count():
    # a negative count would rewind the counter and hand out 1 a second time
    ids = spaces.DirectionIds()
    assert [ids.fresh(), ids.fresh()] == [1, 2]
    with pytest.raises(ValueError, match="non-negative"):
        ids.block(-2)
    assert ids.fresh() == 3


def test_kind_mismatch():
    with pytest.raises(KindMismatchError):
        distance(EuclideanD(3), Vec((1.0, 2.0)), Vec((1.0, 2.0, 3.0)))
    # every space rejects every other kind of point, on either side
    for space, own in zip(ALL_SPACES, ONE_POINT_EACH):
        assert distance(space, own, own) == 0.0
        for other in ONE_POINT_EACH:
            if other is own:
                continue
            for p, q in ((own, other), (other, own), (other, other)):
                with pytest.raises(KindMismatchError, match="do not match space"):
                    distance(space, p, q)
    for unknown in (object(), None, type("SparseL2Like", (SparseL2,), {})()):
        with pytest.raises(KindMismatchError, match="unknown space"):
            distance(unknown, ORIGIN, ORIGIN)


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


def _padded_prefix_distance(p, q):
    """The word metric written with the padded index loop it was first
    written with: 2^-lcp, with both words padded by the blank letter 0."""
    if p.letters == q.letters:
        return 0.0
    a, b = p.letters, q.letters
    lcp = 0
    for i in range(max(len(a), len(b))):
        if (a[i] if i < len(a) else 0) != (b[i] if i < len(b) else 0):
            break
        lcp += 1
    return 2.0 ** -lcp


# moderate values with full 53-bit mantissas, where operations done in
# another order round to other bits, and every other float class a kernel
# can meet: signed zeros, subnormals, infinities, NaNs of either sign and
# values whose squares overflow
moderate = st.integers(-(2**55), 2**55).map(lambda i: i * 2.0**-52)
any_float = st.one_of(
    moderate,
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, math.inf, -math.inf, math.nan, -math.nan]),
)


def _floats(n):
    """n floats, all moderate in some examples so that no huge or special
    value absorbs the rounding of the others."""
    return st.one_of(st.tuples(*[moderate] * n), st.tuples(*[any_float] * n))


def _sparse_point(ids):
    return _floats(len(ids)).map(lambda v: SparsePoint.from_dict(dict(zip(ids, v))))


# each kind's points and the formula its distance kernel must reproduce
KERNEL_CASES = [
    (st.builds(Real, any_float), lambda p, q: abs(p.value - q.value)),
    (
        st.builds(Vec, _floats(3)),
        lambda p, q: math.sqrt(sum((a - b) * (a - b) for a, b in zip(p.coords, q.coords))),
    ),
    (_floats(3).map(lambda c: HPoint(*c)), lambda p, q: h_norm(h_mul(h_inv(p), q))),
    (st.builds(Word, st.lists(st.integers(0, 3), max_size=6).map(tuple)), _padded_prefix_distance),
    (
        st.lists(st.integers(1, 6), unique=True, max_size=4).flatmap(_sparse_point),
        lambda p, q: math.sqrt(spaces.sparse_d2(p, q)),
    ),
]


def _bits(f, *args):
    """The bytes of ``f(*args)``. A squared difference beyond the float
    range is inf in every formula, so none of them raises.

    Every NaN counts as one value. The sign of a NaN result is not a property
    of the formula: CPython 3.11 adds two NaNs of opposite signs to a NaN of
    either sign, depending on whether its adaptive interpreter has
    specialized that addition yet, so one call site returns both."""
    value = f(*args)
    return "nan" if math.isnan(value) else struct.pack("<d", value)


@pytest.mark.parametrize(
    "space, case", zip(ALL_SPACES, KERNEL_CASES), ids=[type(s).__name__ for s in ALL_SPACES]
)
@given(data=st.data())
@settings(max_examples=300)
def test_distance_kernels_keep_every_bit(space, case, data):
    points, formula = case
    p, q = data.draw(points), data.draw(points)
    assert _bits(distance, space, p, q) == _bits(formula, p, q)


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
sparse_values = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False).filter(lambda v: v != 0.0),
    st.sampled_from([math.inf, -math.inf]),
)


def sparse_points(max_support):
    return st.dictionaries(sparse_ids, sparse_values, max_size=max_support).map(
        SparsePoint.from_dict
    )


# a block of two directions that every point of some examples holds, with
# one value each, so that the packing drops them
CONSTANT_BLOCK = {2**40: 0.75, 2**40 + 1: -3.0}


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_sparse_pair_list_merge_equals_scalar_distance(data):
    # supports of unequal width on the two sides; B's ids are shifted past
    # A's in some examples, so supports are shared or disjoint
    a_width, b_width = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 3))
    A = data.draw(st.lists(sparse_points(a_width), max_size=9))
    shift = data.draw(st.sampled_from([0, 100]))
    B = [
        SparsePoint(tuple((i + shift, v) for i, v in p.items))
        for p in data.draw(st.lists(sparse_points(b_width), max_size=6))
    ] + [ORIGIN]
    if data.draw(st.booleans()):
        A, B = ([SparsePoint.from_dict({**dict(p.items), **CONSTANT_BLOCK}) for p in X] for X in (A, B))
    # A as a list or as its table: the two parts' id spaces are joined
    if data.draw(st.booleans()):
        packed = spaces._pack_sparse(SparseL2(), spaces._sparse_table(SparseL2(), A), B)
    else:
        packed = spaces._pack_sparse(SparseL2(), A + B)
    # any pairs, repeats included, in blocks that end inside the list
    pair = st.tuples(st.integers(0, max(len(A) - 1, 0)), st.integers(0, len(B) - 1))
    pairs = data.draw(st.lists(pair, max_size=20)) if A else []
    ia = np.array([a for a, _ in pairs], np.intp)
    ib = np.array([b for _, b in pairs], np.intp)
    with mock.patch.object(spaces, "PAIR_BLOCK", data.draw(st.integers(1, 4))):
        got = np.sqrt(spaces._merge_d2(packed, ia, ib + len(A)))
    want = np.array([distance(SparseL2(), A[a], B[b]) for a, b in pairs], float)
    assert got.tobytes() == want.tobytes()


def test_contained_pairs_rejects_other_points():
    with pytest.raises(KindMismatchError):
        contained_pairs(SparseL2(), [ORIGIN], [1.0], [True], [Real(0.0)])
    with pytest.raises(KindMismatchError):  # the scalar loop raises at its first block
        list(contained_pairs(UltrametricWords(2), [Word((1,))], [1.0], [True], [Real(0.0)]))


# letters 1 and 2, which often match, and the blank 0
word_letters = st.integers(0, 2)
words = st.lists(word_letters, max_size=5).map(lambda letters: Word(tuple(letters)))
# powers of two, a float step either side of them, values between them, and r >= 1
word_radii = st.one_of(
    st.integers(-6, 0).map(lambda e: 2.0**e),
    st.tuples(st.integers(-6, 0), st.sampled_from([-math.inf, math.inf])).map(
        lambda t: math.nextafter(2.0**t[0], t[1])
    ),
    st.integers(-7, -1).map(lambda e: 3 * 2.0**e),
    st.sampled_from([1.5, 2.0, 1e300, math.inf]),
)


def _double_loop(space, centers, radii, closed, points):
    return [
        (b, p)
        for b, (c, r, k) in enumerate(zip(centers, radii, closed))
        for p, q in enumerate(points)
        if (distance(space, c, q) <= r if k else distance(space, c, q) < r)
    ]


def _kernel_pairs(centers, radii, closed, points):
    """The (ball, point) pairs that ``words_contained`` finds, over every
    pair of the centres and the points packed together by ``pack_words``."""
    rows = [w.letters for w in centers + points]
    packed = pack_words(
        np.array([len(r) for r in rows], np.intp), np.array([x for r in rows for x in r], np.intp)
    )
    ia, ib = np.indices((len(centers), len(points))).reshape(2, -1)
    hit = words_contained(
        packed, np.array(radii, float), np.array(closed, bool), ia, ib + len(centers)
    )
    return sorted(zip(ia[hit].tolist(), ib[hit].tolist()))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_word_kernel_equals_scalar_distance(data):
    balls = data.draw(st.lists(st.tuples(words, word_radii, st.booleans()), max_size=6))
    centers = [w for w, _, _ in balls]
    radii, closed = [r for _, r, _ in balls], [k for _, _, k in balls]
    # points: some of the centres, extended or cut, and fresh words
    points = data.draw(st.lists(words, max_size=5))
    for c in centers:
        tail = tuple(data.draw(st.lists(word_letters, max_size=2)))
        points.append(Word(c.letters[: data.draw(st.integers(0, 5))] + tail))
    space = UltrametricWords(2)
    assert _kernel_pairs(centers, radii, closed, points) == _double_loop(
        space, centers, radii, closed, points
    )


@pytest.mark.parametrize("closed", [True, False])
def test_word_kernel_boundaries(closed):
    # empty words, a prefix, and a 0 letter, which compares as the blank
    # that pads the shorter word: (1, 0) and (1,) share 2 letters, at
    # distance 1/4, and () and (0,) share 1, at 1/2
    centers = [Word(()), Word((1, 0)), Word((1,)), Word((1, 2, 1)), Word((2, 1))]
    points = centers + [Word((0,)), Word((1, 2)), Word((2,)), Word((2, 2, 1))]
    space = UltrametricWords(2)
    assert distance(space, Word((1, 0)), Word((1,))) == 0.25
    assert distance(space, Word(()), Word((0,))) == 0.5
    for radius in (0.125, 0.25, 0.3, 0.5, 1.0, 2.0):
        radii, flags = [radius] * len(centers), [closed] * len(centers)
        got = _kernel_pairs(centers, radii, flags, points)
        assert got == _double_loop(space, centers, radii, flags, points)


@pytest.mark.parametrize(
    "items",
    [((2, 1.0), (1, 1.0)), ((1, 1.0), (1, 2.0)), ((1, 0.0),), ((1, 1.0), (3, -0.0))],
    ids=["unsorted", "repeated", "zero", "negative-zero"],
)
def test_sparse_point_rejects_items_off_the_invariant(items):
    # sparse_d2 merges such items as if sorted and nonzero: it would put
    # ((2, 1), (1, 1)) at squared distance 3 from ((1, 1),), not 1
    with pytest.raises(ValueError, match="strictly increasing ids and nonzero values"):
        SparsePoint(items)
