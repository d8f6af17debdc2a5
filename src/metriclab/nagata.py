"""Finite-scale ball-family combinatorics: disconnected families,
multiplicity bounds, center-covering subfamilies, separated subsets, and
dimension witness certificates.

A family is *disconnected* when no ball contains another ball's center; on
any scale, the multiplicity of a disconnected family is a lower bound for
the dimension-style overlap constant of the space, which is what the
certificates record.

``is_disconnected``, ``multiplicity_over_probes`` and the certificate check
read (ball index, point index) pairs, block by block, from
``spaces.contained_pairs``, with each pair decided as ``contains`` decides
it, so closed (``d <= r``) and open (``d < r``) boundaries fall exactly. In
the sparse l2 space only the pairs that share a direction or pass a norm
bound reach the exact merge: about 2m pairs for a sparse witness of m
balls, in O(m) memory, where an m x m matrix would be O(m^2 s).
``greedy_covering_subfamily`` and ``doubling_cover_greedy`` stay scalar.

A family gathers its centres, radii and closed flags once, when it is
built, and every containment call reads them from there. A sparse witness
of m balls takes its m fresh directions from one ``DirectionIds.block``,
and each centre is one ``SparsePoint.shift`` past the last id of the
common centre, which needs no search, so building it costs O(m) small
records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .spaces import (
    DirectionIds,
    EuclideanLine,
    KindMismatchError,
    MetricSpace,
    Point,
    Real,
    SparseL2,
    SparsePoint,
    contained_pairs,
    distance,
)


class _BallFields(NamedTuple):
    center: Point
    radius: float
    closed: bool = True


class Ball(_BallFields):
    """A ball of positive radius, closed (d <= r) or open (d < r): a named
    tuple checked in ``__new__``, which builds faster than a frozen
    dataclass, whose fields are set one ``object.__setattr__`` at a time."""

    __slots__ = ()

    def __new__(cls, center: Point, radius: float, closed: bool = True):
        if not radius > 0:
            raise ValueError("ball radius must be positive")
        return tuple.__new__(cls, (center, radius, closed))


@dataclass(frozen=True)
class BallFamily:
    balls: tuple[Ball, ...]
    space: MetricSpace
    scale: float = math.inf  # all radii must stay below this

    # the balls' centres, radii and closed flags, gathered once
    _columns: tuple[tuple[Point, ...], tuple[float, ...], tuple[bool, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        columns = tuple(zip(*self.balls)) or ((), (), ())  # a ball is the tuple of its fields
        for r in columns[1]:
            if not r < self.scale:
                raise ValueError("all radii must be strictly below the family scale")
        object.__setattr__(self, "_columns", columns)

    def centers(self) -> tuple[Point, ...]:
        return self._columns[0]

    def __len__(self) -> int:
        return len(self.balls)


def contains(ball: Ball, p: Point, space: MetricSpace) -> bool:
    d = distance(space, ball.center, p)
    return d <= ball.radius if ball.closed else d < ball.radius


def _members(family: BallFamily, points: Sequence[Point]):
    """Blocks of (ball index, point index) arrays: every pair with
    ``contains(family.balls[b], points[p], family.space)``."""
    return contained_pairs(family.space, *family._columns, points)


def is_disconnected(family: BallFamily) -> bool:
    """True iff no ball of the family contains another ball's center."""
    return not any((b != p).any() for b, p in _members(family, family.centers()))


class Multiplicity(NamedTuple):
    count: int
    witness: Point


def multiplicity_over_probes(family: BallFamily, probes: Sequence[Point]) -> Multiplicity:
    """Max number of balls containing a single probe, and the argmax probe.

    A lower bound on the true multiplicity; exact whenever a genuine
    witness point is among the probes.
    """
    probes = list(probes)
    if not probes:
        raise ValueError("probe set must be nonempty")
    counts = np.zeros(len(probes), np.intp)
    for _, p in _members(family, probes):
        counts += np.bincount(p, minlength=len(probes))
    best = int(np.argmax(counts))  # the first probe of maximal count
    return Multiplicity(int(counts[best]), probes[best])


# endpoint-sweep priorities; removals before insertions at equal coordinates
# keep every running count equal to the membership count at some real point
_OPEN_EXIT, _CLOSED_ENTER, _CLOSED_EXIT, _OPEN_ENTER = 0, 1, 2, 3


def interval_multiplicity_exact(family: BallFamily) -> int:
    """Exact maximum overlap of a family of intervals on the line."""
    if not isinstance(family.space, EuclideanLine):
        raise KindMismatchError("exact interval sweep requires the Euclidean line")
    events: list[tuple[float, int, int]] = []
    for b in family.balls:
        if not isinstance(b.center, Real):
            raise KindMismatchError("interval sweep requires Real centers")
        lo, hi = b.center.value - b.radius, b.center.value + b.radius
        if b.closed:
            events.append((lo, _CLOSED_ENTER, 1))
            events.append((hi, _CLOSED_EXIT, -1))
        else:
            events.append((lo, _OPEN_ENTER, 1))
            events.append((hi, _OPEN_EXIT, -1))
    events.sort()  # by coordinate, then priority; the priority fixes the delta
    best = 0
    running = 0
    for _, _, delta in events:
        running += delta
        best = max(best, running)
    return best


def greedy_covering_subfamily(family: BallFamily) -> BallFamily:
    """Disconnected subfamily covering every center of the input family.

    Exchange procedure: while some ball's center is uncovered, insert that
    ball and drop the current members whose centers it contains. Each
    exchange removes only balls strictly below the inserted one in the
    (radius, closed) order, so the subfamily's radius multiset grows
    lexicographically and the loop terminates.
    """
    balls = family.balls
    space = family.space
    current: list[int] = []
    max_steps = 1000 * max(1, len(balls)) ** 2 + 1000
    for _ in range(max_steps):
        uncovered = None
        for j, b in enumerate(balls):
            if not any(contains(balls[i], b.center, space) for i in current):
                uncovered = j
                break
        if uncovered is None:
            return BallFamily(tuple(balls[i] for i in current), space, family.scale)
        b = balls[uncovered]
        current = [i for i in current if not contains(b, balls[i].center, space)]
        current.append(uncovered)
    raise RuntimeError("covering exchange did not converge")


def doubling_cover_greedy(
    points: Sequence[Point], center: Point, r: float, space: MetricSpace
) -> int:
    """Size of a greedy (r/2)-separated subset of ``points`` inside the
    closed r-ball around ``center``; an empirical lower bound on covering
    numbers, hence on the doubling constant."""
    kept: list[Point] = []
    half = r / 2.0
    for p in points:
        if distance(space, center, p) <= r and all(
            distance(space, p, q) > half for q in kept
        ):
            kept.append(p)
    return len(kept)


@dataclass(frozen=True)
class DimensionCertificate:
    """Nagata witness: a disconnected family whose balls all hold ``witness_point``."""
    family: BallFamily
    witness_point: Point
    multiplicity: int

    def __post_init__(self):
        # point 0 is the witness, point j the center of ball j - 1; a pair
        # is listed once, so the pairs beyond those two kinds are foreign
        count, foreign = 0, False
        for b, p in _members(self.family, (self.witness_point,) + self.family.centers()):
            witness = np.count_nonzero(p == 0)
            count += witness
            foreign = foreign or len(p) > witness + np.count_nonzero(p == b + 1)
        if count != self.multiplicity:
            raise ValueError(
                f"witness sits in {count} balls, certificate claims {self.multiplicity}"
            )
        if foreign:
            raise ValueError("certificate family must be disconnected")


def nagata_witness_sparse(
    m: int, center: SparsePoint, scale: float, ids: DirectionIds
) -> DimensionCertificate:
    """Certificate of multiplicity ``m`` below ``scale`` in the sparse l2
    space: m closed balls of radius 0.9*scale centred at offsets along m
    fresh directions, all meeting at ``center``.

    Mutual center distances are r*sqrt(2) > r, so the family is
    disconnected by construction, at every scale and for every m.
    """
    if m < 1:
        raise ValueError("witness size must be positive")
    if not scale > 0:
        raise ValueError("scale must be positive")
    r = 0.9 * scale
    balls = tuple(Ball(center.shift(d, r), r, True) for d in ids.block(m))
    family = BallFamily(balls, SparseL2(), scale)
    return DimensionCertificate(family, center, m)
