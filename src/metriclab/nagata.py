"""Finite-scale ball-family combinatorics: disconnected families,
multiplicity bounds, center-covering subfamilies, separated subsets, and
dimension witness certificates.

A family is *disconnected* when no ball contains another ball's center; on
any scale, the multiplicity of a disconnected family is a lower bound for
the dimension-style overlap constant of the space, which is what the
certificates record.

``is_disconnected``, ``multiplicity_over_probes``, the certificate check
and ``greedy_covering_subfamily`` read (ball index, point index) pairs,
block by block, from ``spaces.contained_pairs``, with each pair decided as
``contains`` decides it, so closed (``d <= r``) and open (``d < r``)
boundaries fall exactly. In the sparse l2 space only the pairs that share
a direction or pass a norm bound reach the exact merge: about 2m pairs for
a sparse witness of m balls, in O(m) memory, where an m x m matrix would
be O(m^2 s). In every other space, words too, ``contained_pairs`` makes
one ``distance`` call per pair, as ``doubling_cover_greedy`` does.

A battery of many small families is decided in arrays, with no ``Ball``
built: ``interval_multiplicities`` sweeps the endpoints of every family
in one sort and one running sum, and ``family_pairs`` lists the pairs
within each family in blocks of about ``PAIR_BLOCK``, whose 0/1 answers
``exchange_covers`` turns into each family's cover. The exchange and the
sweep each have one implementation, and ``greedy_covering_subfamily`` and
``interval_multiplicity_exact`` are their one-family case.

A family keeps its centres, radii and closed flags as three columns, and
every containment call reads them from there; its ``balls`` and
``centers()`` are built from them on first read. A sparse witness of m
balls takes its m fresh directions from one ``DirectionIds.block`` and is
born as arrays: ``spaces.shifted_rows`` packs its m centres into one
table from the common centre's items and the block, with
``SparsePoint.shift``'s rules, and the certificate check and the probes
read that table, so neither builds a centre object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import add, sub
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import spaces
from .spaces import (
    DirectionIds,
    EuclideanLine,
    KindMismatchError,
    MetricSpace,
    Point,
    Real,
    SparseL2,
    SparsePoint,
    SparseRows,
    contained_pairs,
    distance,
    shifted_rows,
)


@dataclass(frozen=True, slots=True)
class Ball:
    """A ball of positive radius, closed (d <= r) or open (d < r)."""

    center: Point
    radius: float
    closed: bool = True

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")


class BallFamily:
    """Balls of ``space`` whose radii all lie below ``scale``, kept as three
    ``columns``: the centres, a tuple of points or, for a sparse witness, a
    ``SparseRows`` table; the radii, as floats; and the closed flags.
    ``balls`` and ``centers()`` keep their tuple types but are built from
    the columns on first read. Two families are equal when they have the
    same balls, space and scale."""

    def __init__(self, balls: Sequence[Ball], space: MetricSpace, scale: float = math.inf):
        balls = tuple(balls)
        radii, closed = [b.radius for b in balls], [b.closed for b in balls]
        self._set(tuple(b.center for b in balls), radii, closed, space, scale)

    @classmethod
    def from_columns(
        cls,
        centers: SparseRows | Sequence[Point],
        radii: Sequence[float],
        closed: Sequence[bool],
        space: MetricSpace,
        scale: float = math.inf,
    ) -> BallFamily:
        family = cls.__new__(cls)
        family._set(centers, radii, closed, space, scale)
        return family

    def _set(self, centers, radii, closed, space, scale):
        self.columns = (centers, np.asarray(radii, float), np.asarray(closed, bool))
        self.space, self.scale = space, scale
        if not (self.columns[1] > 0).all():
            raise ValueError("ball radius must be positive")
        if not (self.columns[1] < scale).all():
            raise ValueError("all radii must be strictly below the family scale")

    @cached_property
    def balls(self) -> tuple[Ball, ...]:
        _, radii, closed = self.columns
        return tuple(map(Ball, self.centers(), radii.tolist(), closed.tolist()))

    @cached_property
    def _points(self) -> tuple[Point, ...]:
        centers = self.columns[0]
        return centers.points() if isinstance(centers, SparseRows) else tuple(centers)

    def centers(self) -> tuple[Point, ...]:
        return self._points

    def __len__(self) -> int:
        return len(self.columns[1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BallFamily):
            return NotImplemented
        return (self.space, self.scale) == (other.space, other.scale) and self.balls == other.balls

    def __hash__(self) -> int:
        return hash((self.balls, self.space, self.scale))

    def __repr__(self) -> str:
        return f"BallFamily({self.balls!r}, {self.space!r}, {self.scale!r})"


def contains(ball: Ball, p: Point, space: MetricSpace) -> bool:
    d = distance(space, ball.center, p)
    return d <= ball.radius if ball.closed else d < ball.radius


def is_disconnected(family: BallFamily) -> bool:
    """True iff no ball of the family contains another ball's center."""
    pairs = contained_pairs(family.space, *family.columns, family.columns[0])
    return not any((b != p).any() for b, p in pairs)


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
    for _, p in contained_pairs(family.space, *family.columns, probes):
        counts += np.bincount(p, minlength=len(probes))
    best = int(np.argmax(counts))  # the first probe of maximal count
    return Multiplicity(int(counts[best]), probes[best])


# endpoint-sweep priorities; removals before insertions at equal coordinates
# keep every running count equal to the membership count at some real point
_OPEN_EXIT, _CLOSED_ENTER, _CLOSED_EXIT, _OPEN_ENTER = 0, 1, 2, 3


def interval_multiplicities(
    centers: np.ndarray, radii: np.ndarray, closed: np.ndarray, sizes: Sequence[int]
) -> np.ndarray:
    """Exact maximum overlap of each family of intervals on the line, for
    families given as their sizes and their balls' concatenated centres,
    radii and closed flags.

    One endpoint sweep serves every family: the events, an entry and an
    exit per ball, are sorted by (family, coordinate, priority) and their
    deltas summed in one running count. Each family's deltas sum to 0, so
    the count starts from 0 at every family."""
    centers, radii = np.asarray(centers, float), np.asarray(radii, float)
    closed = np.asarray(closed, bool)[:, None]
    family = np.repeat(np.arange(len(sizes)), 2 * np.asarray(sizes, np.intp))
    coordinate = np.stack((centers - radii, centers + radii), axis=1).ravel()
    priority = np.where(closed, (_CLOSED_ENTER, _CLOSED_EXIT), (_OPEN_ENTER, _OPEN_EXIT)).ravel()
    delta = np.tile(np.array((1, -1), np.int8), len(centers))
    order = np.lexsort((priority, coordinate, family))
    best = np.zeros(len(sizes), np.intp)
    np.maximum.at(best, family[order], delta[order].cumsum())
    return best


def interval_multiplicity_exact(family: BallFamily) -> int:
    """Exact maximum overlap of a family of intervals on the line: the
    one-family case of ``interval_multiplicities``."""
    if not isinstance(family.space, EuclideanLine):
        raise KindMismatchError("exact interval sweep requires the Euclidean line")
    centers, radii, closed = family.columns
    if not all(isinstance(c, Real) for c in centers):
        raise KindMismatchError("interval sweep requires Real centers")
    values = [c.value for c in centers]
    return int(interval_multiplicities(values, radii, closed, [len(family)])[0])


class Cover(NamedTuple):
    """The exchange's result on one family: its members' indices, in the
    order the exchange leaves them, and the largest number of members whose
    balls hold one centre of the family."""

    members: list[int]
    multiplicity: int


def _exchange(rows: Sequence[Sequence[int]]) -> Cover:
    """The covering exchange on one family's 0/1 containment matrix:
    ``rows[i][j]`` is 1 when ball i contains centre j. It keeps, per
    centre, the number of members whose balls contain it."""
    cover = [0] * len(rows)
    members: list[int] = []
    for _ in range(1000 * max(1, len(rows)) ** 2 + 1000):
        try:
            j = cover.index(0)  # the first uncovered centre
        except ValueError:
            return Cover(members, max(cover, default=0))
        row = rows[j]
        kept = []
        for i in members:
            if row[i]:  # ball j holds member i's centre: i drops out
                cover = list(map(sub, cover, rows[i]))
            else:
                kept.append(i)
        kept.append(j)
        members = kept
        cover = list(map(add, cover, row))
    raise RuntimeError("covering exchange did not converge")


def exchange_covers(sizes: Sequence[int], inside: np.ndarray) -> Iterator[Cover]:
    """The covering exchange on each family of ``sizes``, whose n x n
    containment matrices (ball, then centre) lie row-major, one family
    after another, in the flat 0/1 array ``inside``."""
    flat = np.asarray(inside, bool).tobytes()
    offset = 0
    for n in np.asarray(sizes).tolist():
        yield _exchange([flat[offset + i * n : offset + (i + 1) * n] for i in range(n)])
        offset += n * n


def family_pairs(sizes: Sequence[int]) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Blocks of the (ball, centre) pairs within each family of ``sizes``,
    whose balls are concatenated family after family: (the block's family
    sizes, ball indices, centre indices), each family's pairs row-major,
    in blocks of whole families, of at most ``PAIR_BLOCK`` pairs unless
    one family has more."""
    sizes = np.asarray(sizes, np.intp)
    squares = sizes * sizes
    ends = squares.cumsum()
    starts = sizes.cumsum() - sizes
    lo = 0
    while lo < len(sizes):
        before = ends[lo - 1] if lo else 0
        hi = max(int(ends.searchsorted(before + spaces.PAIR_BLOCK, side="right")), lo + 1)
        n, count = sizes[lo:hi], squares[lo:hi]
        family = np.repeat(np.arange(hi - lo), count)
        offset = np.arange(len(family)) - (count.cumsum() - count)[family]
        ball, centre = np.divmod(offset, n[family])
        first = starts[lo:hi][family]
        yield n, first + ball, first + centre
        lo = hi


def greedy_covering_subfamily(family: BallFamily) -> BallFamily:
    """Disconnected subfamily covering every center of the input family.

    Exchange procedure: while some ball's center is uncovered, insert the
    first such ball and drop the current members whose centers it
    contains. Each exchange removes only balls strictly below the inserted
    one in the (radius, closed) order, so the subfamily's radius multiset
    grows lexicographically and the loop terminates.

    The one-family case of ``exchange_covers``: the family's n x n
    containment matrix comes from one ``contained_pairs`` call.
    """
    n = len(family)
    inside = np.zeros((n, n), bool)
    for b, p in contained_pairs(family.space, *family.columns, family.columns[0]):
        inside[b, p] = True
    members = next(exchange_covers([n], inside.ravel())).members
    return BallFamily(tuple(family.balls[i] for i in members), family.space, family.scale)


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
        family = self.family
        parts = (self.witness_point,), family.columns[0]
        for b, p in contained_pairs(family.space, *family.columns, *parts):
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
    if not 0 < scale < math.inf:
        raise ValueError("scale must be positive and finite")
    r = 0.9 * scale
    centers = shifted_rows(center, ids.block(m), r)
    family = BallFamily.from_columns(centers, np.full(m, r), np.ones(m, bool), SparseL2(), scale)
    return DimensionCertificate(family, center, m)
