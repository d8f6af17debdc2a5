"""Finite-scale ball-family combinatorics: disconnected families,
multiplicity bounds, center-covering subfamilies, separated subsets, and
dimension witness certificates.

A family is *disconnected* when no ball contains another ball's center; on
any scale, the multiplicity of a disconnected family is a lower bound for
the dimension-style overlap constant of the space, which is what the
certificates record.

``is_disconnected``, ``multiplicity_over_probes`` and the certificate check
read one boolean containment matrix per family, built from a single
``pairwise_distances`` call: O(m^2 * s) for m balls with sparse supports of
at most s ids, with every distance equal to the scalar ``distance``, so
closed (``d <= r``) and open (``d < r``) boundaries fall as ``contains``
decides them. ``greedy_covering_subfamily`` and ``doubling_cover_greedy``
stay scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

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
    distance,
    pairwise_distances,
)


@dataclass(frozen=True)
class Ball:
    center: Point
    radius: float
    closed: bool = True

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")


@dataclass(frozen=True)
class BallFamily:
    balls: tuple[Ball, ...]
    space: MetricSpace
    scale: float = math.inf  # all radii must stay below this

    def __post_init__(self):
        for b in self.balls:
            if not b.radius < self.scale:
                raise ValueError("all radii must be strictly below the family scale")

    def centers(self) -> tuple[Point, ...]:
        return tuple(b.center for b in self.balls)

    def __len__(self) -> int:
        return len(self.balls)


def contains(ball: Ball, p: Point, space: MetricSpace) -> bool:
    d = distance(space, ball.center, p)
    return d <= ball.radius if ball.closed else d < ball.radius


def _containment(family: BallFamily, points: Sequence[Point]) -> np.ndarray:
    """(len(family), len(points)) boolean matrix: entry [b, p] is
    ``contains(family.balls[b], points[p], family.space)``."""
    balls = family.balls
    d = pairwise_distances(family.space, family.centers(), points)
    radius = np.array([b.radius for b in balls], dtype=float)[:, None]
    closed = np.array([b.closed for b in balls], dtype=bool)[:, None]
    return np.where(closed, d <= radius, d < radius)


def _no_foreign_center(inside: np.ndarray) -> bool:
    """Whether a square (ball, own-center) containment matrix is empty off
    its diagonal."""
    return not (inside & ~np.eye(len(inside), dtype=bool)).any()


def is_disconnected(family: BallFamily) -> bool:
    """True iff no ball of the family contains another ball's center."""
    return _no_foreign_center(_containment(family, family.centers()))


class Multiplicity(NamedTuple):
    count: int
    witness: Point


def multiplicity_over_probes(
    family: BallFamily, probes: Optional[Sequence[Point]] = None
) -> Multiplicity:
    """Max number of balls containing a single probe, and the argmax probe.

    A lower bound on the true multiplicity; exact whenever a genuine
    witness point is among the probes. Defaults to probing the centers.
    """
    if probes is None:
        probes = family.centers()
    probes = list(probes)
    if not probes:
        raise ValueError("probe set must be nonempty")
    counts = _containment(family, probes).sum(axis=0)
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
    events.sort(key=lambda e: (e[0], e[1]))
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


def degroot_family_check(family: BallFamily) -> bool:
    """True iff all radii in the family are equal (vacuously for empty)."""
    radii = {b.radius for b in family.balls}
    return len(radii) <= 1


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
    kind: str  # "NagataWitness" | "DeGrootWitness"
    family: BallFamily
    witness_point: Point
    multiplicity: int

    def __post_init__(self):
        if self.kind not in ("NagataWitness", "DeGrootWitness"):
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        if self.kind == "DeGrootWitness" and not degroot_family_check(self.family):
            raise ValueError("DeGroot certificates require equal radii")
        # column 0 is the witness, the rest are the centers in ball order
        inside = _containment(self.family, (self.witness_point,) + self.family.centers())
        count = int(inside[:, 0].sum())
        if count != self.multiplicity:
            raise ValueError(
                f"witness sits in {count} balls, certificate claims {self.multiplicity}"
            )
        if not _no_foreign_center(inside[:, 1:]):
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
    balls = tuple(
        Ball(center.shift(ids.fresh(), r), r, closed=True) for _ in range(m)
    )
    family = BallFamily(balls, SparseL2(), scale)
    return DimensionCertificate("NagataWitness", family, center, m)
