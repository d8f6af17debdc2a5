import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab.nagata import (
    Ball,
    BallFamily,
    DimensionCertificate,
    contains,
    degroot_family_check,
    doubling_cover_greedy,
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
    assert multiplicity_over_probes(single).count == 1
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
    assert multiplicity_over_probes(fam).count <= interval_multiplicity_exact(fam)


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


def test_degroot_check():
    assert degroot_family_check(line_family([interval(0, 1), interval(5, 1)]))
    assert not degroot_family_check(line_family([interval(0, 1), interval(5, 2)]))
    assert degroot_family_check(BallFamily((), LINE))


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


def test_certificate_validation():
    ids = DirectionIds()
    cert = nagata_witness_sparse(3, ORIGIN, 2.0, ids)
    with pytest.raises(ValueError):
        DimensionCertificate("NagataWitness", cert.family, ORIGIN, 2)
    with pytest.raises(ValueError):
        DimensionCertificate("Bogus", cert.family, ORIGIN, 3)
    # equal radii by construction, so a DeGroot certificate also stands
    DimensionCertificate("DeGrootWitness", cert.family, ORIGIN, 3)


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
    ids = rng.choice(5, size=int(rng.integers(0, 4)), replace=False)
    return SparsePoint.from_dict({int(i): float(rng.choice([-1.0, 0.5, 1.0, 2.0])) for i in ids})


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


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: type(s).__name__)
def test_matrix_routines_match_double_loops(space):
    rng = np.random.default_rng(11)
    for _ in range(300):
        centres = [_lattice_point(space, rng) for _ in range(int(rng.integers(1, 7)))]
        balls = []
        for c in centres:
            # mostly the exact distance to another centre, so boundaries are hit
            d = distance(space, c, centres[int(rng.integers(len(centres)))])
            r = d if d > 0 and rng.random() < 0.7 else float(rng.uniform(0.1, 4.0))
            balls.append(Ball(c, r, closed=bool(rng.integers(2))))
        fam = BallFamily(tuple(balls), space)
        probes = centres + [_lattice_point(space, rng) for _ in range(3)]
        disconnected = _is_disconnected_loop(fam)
        assert is_disconnected(fam) is disconnected
        count, witness = _multiplicity_loop(fam, probes)
        res = multiplicity_over_probes(fam, probes)
        assert res.count == count and res.witness is witness  # the first maximum
        if disconnected:
            DimensionCertificate("NagataWitness", fam, witness, count)
        else:
            with pytest.raises(ValueError, match="disconnected"):
                DimensionCertificate("NagataWitness", fam, witness, count)
        with pytest.raises(ValueError, match="certificate claims"):
            DimensionCertificate("NagataWitness", fam, witness, count + 1)
