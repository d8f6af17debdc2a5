import collections
import functools
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab import spaces
from metriclab.experiments import certificate_to_json
from covering_reference import restart_scan_cover
from test_spaces import sparse_ids
from metriclab.nagata import (
    Ball,
    BallFamily,
    DimensionCertificate,
    contains,
    doubling_cover_greedy,
    exchange_covers,
    greedy_covering_subfamily,
    interval_multiplicity_exact,
    is_disconnected,
    multiplicity_over_probes,
    nagata_witness_sparse,
)
from metriclab.spaces import (
    DirectionIds,
    EuclideanD,
    EuclideanLine,
    Heisenberg,
    HPoint,
    KindMismatchError,
    ORIGIN,
    Real,
    SparseL2,
    SparsePoint,
    UltrametricWords,
    Vec,
    Word,
    contained_pairs,
    distance,
)

LINE = EuclideanLine()
PLANE = EuclideanD(2)


def interval(c, r, closed=True):
    return Ball(Real(float(c)), float(r), closed)


def line_family(balls):
    return BallFamily(tuple(balls), LINE)


def pentagon():
    pull = 1.0 - 1e-12
    balls = tuple(
        Ball(Vec((pull * math.cos(2 * math.pi * j / 5), pull * math.sin(2 * math.pi * j / 5))), 1.0)
        for j in range(1, 6)
    )
    return BallFamily(balls, PLANE)


def test_contains_boundaries():
    b_closed = interval(0.0, 1.0, closed=True)
    b_open = interval(0.0, 1.0, closed=False)
    assert contains(b_closed, Real(0.0), LINE)
    assert contains(b_closed, Real(1.0), LINE)
    assert not contains(b_open, Real(1.0), LINE)


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
def test_ball_and_family_reject_bad_radii(radius):
    with pytest.raises(ValueError, match="radius must be positive"):
        Ball(Real(0.0), radius)
    with pytest.raises(ValueError, match="radius must be positive"):
        BallFamily.from_columns([Real(0.0)], [radius], [True], LINE, 1.0)
    ball = Ball(Real(0.0), 2.0, closed=False)
    assert (ball.center, ball.radius, ball.closed) == (Real(0.0), 2.0, False)
    with pytest.raises(AttributeError):
        ball.radius = 1.0
    with pytest.raises(ValueError, match="strictly below the family scale"):
        BallFamily((Ball(Real(0.0), 1.0), ball), LINE, scale=2.0)


@pytest.mark.parametrize(
    "m, scale, message",
    [(0, 1.0, "witness size must be positive")]
    + [(1, s, "scale must be positive and finite") for s in (0.0, -1.0, math.nan, math.inf)],
)
def test_sparse_witness_rejects_bad_size_and_scale(m, scale, message):
    ids = DirectionIds()
    with pytest.raises(ValueError, match=message):
        nagata_witness_sparse(m, ORIGIN, scale, ids)
    assert ids.fresh() == 1  # rejected before any direction is issued


def test_pentagon_disconnected_multiplicity_five():
    fam = pentagon()
    assert is_disconnected(fam)
    assert multiplicity_over_probes(fam, [Vec((0.0, 0.0))]).count == 5


def test_concentric_not_disconnected():
    fam = line_family([interval(0, 1), interval(0, 2)])
    assert not is_disconnected(fam)


def test_single_ball_disconnected():
    assert is_disconnected(line_family([interval(0, 1)]))


def test_multiplicity_probe_examples():
    fam = line_family([interval(0, 1), interval(2, 1)])
    res = multiplicity_over_probes(fam, [Real(-1.0), Real(0.0), Real(1.0), Real(2.0), Real(3.0)])
    assert res.count == 2 and res.witness == Real(1.0)
    single = line_family([interval(5, 1)])
    assert multiplicity_over_probes(single, single.centers()).count == 1
    with pytest.raises(ValueError):
        multiplicity_over_probes(fam, [])


def test_interval_sweep_examples():
    assert interval_multiplicity_exact(line_family([interval(0, 1), interval(2, 1)])) == 2
    assert interval_multiplicity_exact(line_family([interval(0, 1), interval(10, 1)])) == 1
    with pytest.raises(KindMismatchError):
        interval_multiplicity_exact(BallFamily((Ball(Vec((0.0, 0.0)), 1.0),), PLANE))


def test_interval_sweep_open_touching():
    # open interval ending where a closed one starts: no common point
    fam = line_family([interval(0, 1, closed=False), interval(2, 1, closed=True)])
    assert interval_multiplicity_exact(fam) == 1
    fam = line_family([interval(0, 1, closed=True), interval(2, 1, closed=False)])
    assert interval_multiplicity_exact(fam) == 1
    fam = line_family([interval(0, 1, closed=True), interval(2, 1, closed=True)])
    assert interval_multiplicity_exact(fam) == 2


def _probe_multiplicity(fam):
    # brute force: max membership over all endpoints and gap midpoints
    coords = []
    for b in fam.balls:
        coords += [b.center.value - b.radius, b.center.value + b.radius]
    coords.sort()
    probes = list(coords)
    for a, b in zip(coords, coords[1:]):
        probes.append((a + b) / 2.0)
    return max(
        sum(1 for b in fam.balls if contains(b, Real(x), LINE)) for x in probes
    )


interval_families = st.lists(
    st.tuples(
        st.integers(-20, 20), st.integers(1, 10), st.booleans()
    ),
    min_size=1,
    max_size=8,
)


@given(interval_families)
@settings(max_examples=300)
def test_sweep_matches_probe_oracle(rows):
    fam = line_family([interval(c, r, closed) for c, r, closed in rows])
    assert interval_multiplicity_exact(fam) == _probe_multiplicity(fam)


@given(interval_families)
@settings(max_examples=200)
def test_probe_multiplicity_lower_bounds_sweep(rows):
    # probing only centers can miss the witness but never overshoots
    fam = line_family([interval(c, r, closed) for c, r, closed in rows])
    assert multiplicity_over_probes(fam, fam.centers()).count <= interval_multiplicity_exact(fam)


def test_greedy_single_covering_ball_first():
    big = interval(0, 10)
    fam = line_family([big, interval(1, 0.5), interval(-2, 0.5)])
    sub = greedy_covering_subfamily(fam)
    assert sub.balls == (big,)


def test_greedy_disconnected_family_returned_whole():
    fam = line_family([interval(0, 1), interval(3, 1), interval(6, 1)])
    assert is_disconnected(fam)
    assert set(greedy_covering_subfamily(fam).balls) == set(fam.balls)


def test_greedy_three_interval_example():
    fam = line_family([interval(0, 1), interval(0.5, 1), interval(2, 1)])
    sub = greedy_covering_subfamily(fam)
    assert len(sub) <= 2
    assert is_disconnected(sub)
    for c in fam.centers():
        assert any(contains(b, c, LINE) for b in sub.balls)
    # exhaustive oracle: some disconnected subfamily of <= 2 balls covers all centers
    ok = []
    for size in (1, 2):
        for combo in itertools.combinations(fam.balls, size):
            cand = line_family(list(combo))
            if is_disconnected(cand) and all(
                any(contains(b, c, LINE) for b in cand.balls) for c in fam.centers()
            ):
                ok.append(combo)
    assert ok


@given(interval_families)
@settings(max_examples=300)
def test_greedy_postconditions_line(rows):
    fam = line_family([interval(c, r, closed) for c, r, closed in rows])
    sub = greedy_covering_subfamily(fam)
    assert is_disconnected(sub)
    for c in fam.centers():
        assert any(contains(b, c, LINE) for b in sub.balls)
    assert interval_multiplicity_exact(sub) <= 2


plane_families = st.lists(
    st.tuples(st.integers(-10, 10), st.integers(-10, 10), st.integers(1, 8), st.booleans()),
    min_size=1,
    max_size=8,
)


@given(plane_families)
@settings(max_examples=200)
def test_greedy_postconditions_plane(rows):
    fam = BallFamily(
        tuple(Ball(Vec((float(x), float(y))), float(r), closed) for x, y, r, closed in rows),
        PLANE,
    )
    sub = greedy_covering_subfamily(fam)
    assert is_disconnected(sub)
    for c in fam.centers():
        assert any(contains(b, c, PLANE) for b in sub.balls)


def test_union_of_covers_covers_union():
    rng = np.random.default_rng(3)
    for _ in range(50):
        fams = []
        for _ in range(2):
            rows = [(float(rng.uniform(-10, 10)), float(rng.uniform(0.2, 3))) for _ in range(5)]
            fams.append(line_family([interval(c, r) for c, r in rows]))
        subs = [greedy_covering_subfamily(f) for f in fams]
        merged = line_family(list(subs[0].balls) + list(subs[1].balls))
        for fam in fams:
            for c in fam.centers():
                assert any(contains(b, c, LINE) for b in merged.balls)


def _grid_points(step, lo, hi):
    vals = np.arange(lo, hi + step / 2, step)
    return [Vec((float(x), float(y))) for x in vals for y in vals]


def _max_separated_exhaustive(points, center, r, space, sep):
    inside = [p for p in points if contains(Ball(center, r), p, space)]
    best = 0
    for mask in range(1 << len(inside)):
        chosen = [p for i, p in enumerate(inside) if mask >> i & 1]
        if all(
            math.dist(a.coords, b.coords) > sep
            for a, b in itertools.combinations(chosen, 2)
        ):
            best = max(best, len(chosen))
    return best


def test_doubling_greedy_vs_exhaustive():
    pts = _grid_points(0.5, 0.0, 2.0)
    center = Vec((0.0, 0.0))
    greedy = doubling_cover_greedy(pts, center, 1.0, PLANE)
    exhaustive = _max_separated_exhaustive(pts, center, 1.0, PLANE, 0.5)
    assert 1 <= greedy <= exhaustive


def test_doubling_greedy_edge_cases():
    center = Vec((0.0, 0.0))
    assert doubling_cover_greedy([Vec((0.1, 0.1))], center, 1.0, PLANE) == 1
    assert doubling_cover_greedy([Vec((5.0, 5.0))], center, 1.0, PLANE) == 0


def test_sparse_witnesses():
    ids = DirectionIds()
    for m in (1, 5, 64):
        cert = nagata_witness_sparse(m, ORIGIN, 1.0, ids)
        assert cert.multiplicity == m
        assert is_disconnected(cert.family)
        probes = list(cert.family.centers()) + [cert.witness_point]
        res = multiplicity_over_probes(cert.family, probes)
        assert res.count == m and res.witness == ORIGIN if m > 1 else res.count == m


@pytest.mark.parametrize("centred", ["origin", "two-ids"])
def test_sparse_witness_decides_linearly_many_pairs(centred):
    # every centre of a witness holds the two ids of a two-id centre, with
    # one value each: the packing drops them, and the norm bound and the
    # join leave about 2m pairs for the exact merge, not m^2
    m = 4096
    ids = DirectionIds()
    centre = ORIGIN if centred == "origin" else SparsePoint(((ids.fresh(), 0.3), (ids.fresh(), -1.7)))
    with mock.patch.object(spaces, "_merge_d2", wraps=spaces._merge_d2) as merge:
        tracemalloc.start()
        try:
            cert = nagata_witness_sparse(m, centre, 1.0, ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert cert.multiplicity == m
    assert sum(len(call.args[1]) for call in merge.call_args_list) <= 3 * m
    assert peak < 16 * 2**20


@pytest.mark.parametrize("centred", ["origin", "two-ids"])
def test_witness_containment_equals_the_double_loop(centred):
    # the witness point sits on every sphere, each centre in its own ball;
    # one more point shares a centre's direction and one lies off them all
    ids = DirectionIds()
    centre = ORIGIN if centred == "origin" else SparsePoint(((ids.fresh(), 0.3), (ids.fresh(), -1.7)))
    for m in range(1, 9):
        family = nagata_witness_sparse(m, centre, 1.0, ids).family
        first = family.centers()[0]
        points = (centre, *family.centers(), first.shift(first.items[-1][0], -0.5))
        points += (centre.shift(ids.fresh(), 0.25),)
        radii, closed = [b.radius for b in family.balls], [b.closed for b in family.balls]
        blocks = spaces.contained_pairs(SparseL2(), family.centers(), radii, closed, points)
        got = sorted((b, p) for balls, found in blocks for b, p in zip(balls.tolist(), found.tolist()))
        want = [
            (b, p)
            for b, ball in enumerate(family.balls)
            for p, q in enumerate(points)
            if contains(ball, q, family.space)
        ]
        assert got == want
        assert len(want) >= 2 * m


# witness centres: the origin, a two-id centre drawn before the block, and
# ids from sparse_ids, whose 1..6 fall inside the block, so the rows add to
# a held value or drop it at -0.9, and whose ids from 2^63 - 2 lie past it,
# so the new item is inserted before them
witness_centres = st.one_of(
    st.just({}),
    st.just("two-ids"),
    st.dictionaries(sparse_ids, st.sampled_from([-0.9, 0.5, -2.0, 3.0]), max_size=4),
)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_born_packed_witness_equals_the_object_path(data):
    ids, twin = DirectionIds(), DirectionIds()  # the twin hands out the same ids
    drawn = data.draw(witness_centres)
    if drawn == "two-ids":
        centre = SparsePoint(((ids.fresh(), 0.3), (ids.fresh(), -1.7)))
        twin.fresh(), twin.fresh()
    else:
        centre = SparsePoint.from_dict(drawn)
    m = data.draw(st.integers(1, 9))
    family = nagata_witness_sparse(m, centre, 1.0, ids).family
    shifted = [centre.shift(d, 0.9 * 1.0) for d in twin.block(m)]
    old = tuple(Ball(c, 0.9, True) for c in shifted)
    assert list(family.centers()) == shifted
    assert family.balls == old and family == BallFamily(old, SparseL2(), 1.0)
    assert {type(b.radius) for b in family.balls} == {float}
    assert {type(b.closed) for b in family.balls} == {bool}
    # the table as centres and as points, against the materialized tuple
    points = (centre, shifted[0].shift(twin.fresh(), 0.5))
    with mock.patch.object(spaces, "PAIR_BLOCK", data.draw(st.integers(1, 4))):
        on_table = contained_pairs(SparseL2(), *family.columns, points, family.columns[0])
        on_tuple = contained_pairs(SparseL2(), shifted, [0.9] * m, [True] * m, points + tuple(shifted))
        assert _pairs(on_table) == _pairs(on_tuple)


def _pairs(blocks):
    return sorted((b, p) for balls, found in blocks for b, p in zip(balls.tolist(), found.tolist()))


def test_witness_sweep_builds_no_centre_object():
    # the certificate check, the probe and the certificate's JSON read the
    # packed rows; only reading family.balls builds the centres and their
    # balls
    made = collections.Counter()

    def counted(cls):
        post_init = cls.__post_init__

        def counted_post_init(self):
            made[cls.__name__] += 1
            post_init(self)

        return mock.patch.object(cls, "__post_init__", counted_post_init)

    with counted(SparsePoint), counted(Ball):
        cert = nagata_witness_sparse(256, ORIGIN, 1.0, DirectionIds())
        assert multiplicity_over_probes(cert.family, [cert.witness_point]).count == 256
        printed = certificate_to_json(cert)
        assert not made
        assert len(cert.family.balls) == 256
    assert made == {"SparsePoint": 256, "Ball": 256}
    # the columns print as the balls did
    assert printed["centers"] == [{str(i): v for i, v in b.center.items} for b in cert.family.balls]
    assert printed["radii"] == [b.radius for b in cert.family.balls]


def test_certificate_validation():
    ids = DirectionIds()
    cert = nagata_witness_sparse(3, ORIGIN, 2.0, ids)
    with pytest.raises(ValueError):
        DimensionCertificate(cert.family, ORIGIN, 2)


# ---------------------------------------------------------------------------
# the matrix routines against the scalar double loops they replaced


def _is_disconnected_loop(family):
    balls = family.balls
    for i, bi in enumerate(balls):
        for j, bj in enumerate(balls):
            if i != j and contains(bj, bi.center, family.space):
                return False
    return True


def _multiplicity_loop(family, probes):
    best, best_probe = -1, probes[0]
    for p in probes:
        c = sum(1 for b in family.balls if contains(b, p, family.space))
        if c > best:
            best, best_probe = c, p
    return best, best_probe


# small integer coordinates, so that centres often sit exactly on a sphere
def _lattice_point(space, rng):
    if isinstance(space, EuclideanLine):
        return Real(float(rng.integers(-4, 5)))
    if isinstance(space, EuclideanD):
        return Vec(tuple(float(v) for v in rng.integers(-4, 5, size=space.dim)))
    if isinstance(space, Heisenberg):
        return HPoint(*(float(v) for v in rng.integers(-2, 3, size=3)))
    if isinstance(space, UltrametricWords):
        length = int(rng.integers(0, 4))
        return Word(tuple(int(v) for v in rng.integers(1, space.alphabet_size + 1, size=length)))
    return _sparse_point(rng, 5, 1.0)


def _sparse_point(rng, pool, scale, extra=()):
    ids = rng.choice(pool, size=int(rng.integers(0, 4)), replace=False)
    coords = {int(i): scale * float(rng.choice([-1.0, 0.5, 1.0, 2.0])) for i in ids}
    return SparsePoint.from_dict({**coords, **dict(extra)})


def _constant_block(rng):
    # every point holds ids 100 and 101, with one value each except now and then
    return _sparse_point(rng, 5, 1.0, [(100, 1.5), (101, -0.25 if rng.random() < 0.9 else 3.0)])


def _with_inf(rng):
    p = _sparse_point(rng, 5, 1.0)
    return p.shift(50, math.copysign(math.inf, rng.random() - 0.5)) if rng.random() < 0.2 else p


# SparseL2 point makers for supports that are shared (the lattice), mostly
# disjoint, or hold a common block; for squares that underflow (1e-170,
# 1e-162) or overflow (1e155); and for infinite coordinates
SPARSE_CASES = {
    "disjoint": lambda rng: _sparse_point(rng, 10**6, 1.0),
    "constant-block": _constant_block,
    "underflow": lambda rng: _sparse_point(rng, 5, float(rng.choice([1e-170, 1e-162]))),
    "large": lambda rng: _sparse_point(rng, 5, float(rng.choice([1e150, 1e155]))),
    "inf": _with_inf,
}

ALL_SPACES = [EuclideanLine(), EuclideanD(2), Heisenberg(), UltrametricWords(2), SparseL2()]

# two centres at distance exactly r: a closed r-ball around the first holds
# the second, an open one does not
ON_THE_SPHERE = [
    (EuclideanLine(), Real(0.0), Real(1.0), 1.0),
    (EuclideanD(2), Vec((0.0, 0.0)), Vec((3.0, 4.0)), 5.0),
    (Heisenberg(), HPoint(0.0, 0.0, 0.0), HPoint(0.0, 0.0, 1.0), 1.0),
    (UltrametricWords(2), Word((1, 2)), Word((1, 1)), 0.5),
    (SparseL2(), ORIGIN, ORIGIN.shift(7, 0.5), 0.5),
]


@pytest.mark.parametrize(
    "space, p, q, r", ON_THE_SPHERE, ids=[type(case[0]).__name__ for case in ON_THE_SPHERE]
)
def test_center_on_the_sphere(space, p, q, r):
    assert distance(space, p, q) == r
    for closed in (True, False):
        fam = BallFamily((Ball(p, r, closed), Ball(q, r / 4, closed)), space)
        assert is_disconnected(fam) is (not closed) is _is_disconnected_loop(fam)
        res = multiplicity_over_probes(fam, [p, q])
        assert (res.count, res.witness) == _multiplicity_loop(fam, [p, q])
        assert res.count == (2 if closed else 1)


MATRIX_CASES = [(space, functools.partial(_lattice_point, space)) for space in ALL_SPACES] + [
    (SparseL2(), make) for make in SPARSE_CASES.values()
]


@pytest.mark.parametrize(
    "space, make_point",
    MATRIX_CASES,
    ids=[type(space).__name__ for space in ALL_SPACES]
    + [f"SparseL2-{name}" for name in SPARSE_CASES],
)
def test_matrix_routines_match_double_loops(space, make_point):
    rng = np.random.default_rng(11)
    empty = BallFamily((), space)
    probe = make_point(rng)
    assert is_disconnected(empty)
    assert multiplicity_over_probes(empty, [probe]) == (0, probe)
    DimensionCertificate(empty, probe, 0)
    for _ in range(300):
        centres = [make_point(rng) for _ in range(int(rng.integers(1, 7)))]
        if rng.random() < 0.2:
            centres.append(centres[0])  # a duplicate centre
        balls = []
        for c in centres:
            # mostly the exact distance to another centre or one float step
            # off it, so that boundaries are hit
            d = distance(space, c, centres[int(rng.integers(len(centres)))])
            if 0 < d < math.inf and rng.random() < 0.7:
                r = [d, math.nextafter(d, 0.0), math.nextafter(d, math.inf)][rng.integers(3)]
            else:
                r = float(rng.uniform(0.1, 4.0))
            balls.append(Ball(c, r, closed=bool(rng.integers(2))))
        fam = BallFamily(tuple(balls), space)
        probes = centres + [make_point(rng) for _ in range(3)]
        disconnected = _is_disconnected_loop(fam)
        count, witness = _multiplicity_loop(fam, probes)
        # blocks of a few pairs, so that the pair blocks end inside the family
        with mock.patch.object(spaces, "PAIR_BLOCK", int(rng.choice([1, 3, 8192]))):
            assert is_disconnected(fam) is disconnected
            res = multiplicity_over_probes(fam, probes)
            assert res.count == count and res.witness is witness  # the first maximum
            if disconnected:
                DimensionCertificate(fam, witness, count)
            else:
                with pytest.raises(ValueError, match="disconnected"):
                    DimensionCertificate(fam, witness, count)
            with pytest.raises(ValueError, match="certificate claims"):
                DimensionCertificate(fam, witness, count + 1)


# ---------------------------------------------------------------------------
# the covering exchange against the restart scan on scalar contains


COVER_SPACES = [EuclideanLine(), EuclideanD(2), SparseL2(), UltrametricWords(2)]


@pytest.mark.parametrize("space", COVER_SPACES, ids=[type(s).__name__ for s in COVER_SPACES])
def test_greedy_equals_the_restart_scan(space):
    for seed in range(100):
        rng = np.random.default_rng(seed)
        centres = [_lattice_point(space, rng) for _ in range(int(rng.integers(0, 9)))]
        if centres and rng.random() < 0.2:
            centres.append(centres[0])  # a duplicate centre
        balls = []
        for c in centres:
            # mostly the exact distance to another centre, so that
            # boundaries decide which centres a ball holds
            d = distance(space, c, centres[int(rng.integers(len(centres)))])
            r = d if 0 < d < math.inf and rng.random() < 0.6 else float(rng.choice([0.5, 1.0, 3.0]))
            balls.append(Ball(c, r, closed=bool(rng.integers(2))))
        fam = BallFamily(tuple(balls), space)
        members, multiplicity = restart_scan_cover(fam)
        sub = greedy_covering_subfamily(fam)
        assert sub == BallFamily(tuple(balls[i] for i in members), space)
        if sub.balls:
            assert multiplicity_over_probes(sub, fam.centers()).count == multiplicity


def test_exchange_covers_reads_each_family_of_the_flat_matrix():
    # an empty family, one ball, then two nested intervals: the larger
    # covers both centres; then two disjoint ones, both kept; then two
    # members whose balls both hold the third centre
    inside = [1] + [1, 1, 1, 1] + [1, 0, 0, 1] + [1, 0, 1, 0, 1, 1, 0, 0, 1]
    covers = list(exchange_covers([0, 1, 2, 2, 3], np.array(inside)))
    assert covers == [([], 0), ([0], 1), ([0], 1), ([0, 1], 1), ([0, 1], 2)]


def test_greedy_raises_when_a_ball_misses_its_own_centre():
    # an infinite coordinate puts a point at NaN distance from itself, so
    # its ball never covers its centre and the exchange never ends
    fam = BallFamily((Ball(ORIGIN.shift(5, math.inf), 1.0),), SparseL2())
    with pytest.raises(RuntimeError, match="did not converge"):
        greedy_covering_subfamily(fam)
