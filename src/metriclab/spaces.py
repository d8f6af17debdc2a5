"""Metric spaces and point representations shared by every other module.

Five space kinds are supported: the real line, finite-dimensional
Euclidean space, the Heisenberg group with the Koranyi (gauge) metric,
finite words under a longest-common-prefix ultrametric, and a sparse
"fresh orthonormal direction" l2 space whose coordinates are keyed by
opaque 64-bit direction ids.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Union


class KindMismatchError(TypeError):
    """Raised when a point does not belong to the space it is used with."""


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class Real:
    value: float


@dataclass(frozen=True)
class Vec:
    coords: tuple[float, ...]


@dataclass(frozen=True)
class HPoint:
    x: float
    y: float
    z: float  # carries squared-length units under dilation


@dataclass(frozen=True)
class Word:
    letters: tuple[int, ...]  # letters are >= 1; 0 is the reserved blank


@dataclass(frozen=True)
class SparsePoint:
    """Finitely supported vector over implicit orthonormal directions.

    ``items`` is sorted by direction id and holds no zero coordinates, so
    structural equality coincides with zero distance.
    """

    items: tuple[tuple[int, float], ...]

    @staticmethod
    def from_dict(coords: dict[int, float]) -> "SparsePoint":
        return SparsePoint(
            tuple(sorted((i, float(v)) for i, v in coords.items() if v != 0.0))
        )

    def shift(self, direction: int, amount: float) -> "SparsePoint":
        """Return this point moved by ``amount`` along one direction."""
        d = dict(self.items)
        d[direction] = d.get(direction, 0.0) + amount
        return SparsePoint.from_dict(d)


ORIGIN = SparsePoint(())

Point = Union[Real, Vec, HPoint, Word, SparsePoint]


class DirectionIds:
    """Issues fresh direction ids; distinct ids are orthogonal unit axes."""

    def __init__(self, start: int = 1):
        self._counter = itertools.count(start)

    def fresh(self) -> int:
        return next(self._counter)


# ---------------------------------------------------------------------------
# spaces


@dataclass(frozen=True)
class EuclideanLine:
    pass


@dataclass(frozen=True)
class EuclideanD:
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be a positive integer")


@dataclass(frozen=True)
class Heisenberg:
    pass


@dataclass(frozen=True)
class UltrametricWords:
    alphabet_size: int

    def __post_init__(self):
        if self.alphabet_size < 1:
            raise ValueError("alphabet size must be a positive integer")


@dataclass(frozen=True)
class SparseL2:
    pass


MetricSpace = Union[EuclideanLine, EuclideanD, Heisenberg, UltrametricWords, SparseL2]


# ---------------------------------------------------------------------------
# Heisenberg group operations


def h_mul(p: HPoint, q: HPoint) -> HPoint:
    """Group multiplication (x,y,z)*(x',y',z') = (x+x', y+y', z+z'-2xy'+2yx')."""
    return HPoint(p.x + q.x, p.y + q.y, p.z + q.z - 2.0 * p.x * q.y + 2.0 * p.y * q.x)


def h_inv(p: HPoint) -> HPoint:
    """Group inverse; coincides with the additive inverse."""
    return HPoint(-p.x, -p.y, -p.z)


def h_norm(p: HPoint) -> float:
    """Gauge norm ((x^2+y^2)^2 + z^2)^(1/4)."""
    s = p.x * p.x + p.y * p.y
    return (s * s + p.z * p.z) ** 0.25


def h_dilate(t: float, p: HPoint) -> HPoint:
    """Anisotropic dilation (x,y,z) -> (tx,ty,t^2 z); scales distances by t."""
    if t <= 0:
        raise ValueError("dilation factor must be positive")
    return HPoint(t * p.x, t * p.y, t * t * p.z)


# ---------------------------------------------------------------------------
# distances


def _word_prefix_len(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    # both words are padded with the blank letter 0 to equal length
    n = max(len(a), len(b))
    lcp = 0
    for i in range(n):
        va = a[i] if i < len(a) else 0
        vb = b[i] if i < len(b) else 0
        if va != vb:
            break
        lcp += 1
    return lcp


def sparse_d2(p: SparsePoint, q: SparsePoint) -> float:
    """Squared l2 distance over the union of the two supports."""
    a, b = p.items, q.items
    i = j = 0
    s = 0.0
    while i < len(a) and j < len(b):
        ia, va = a[i]
        ib, vb = b[j]
        if ia == ib:
            d = va - vb
            s += d * d
            i += 1
            j += 1
        elif ia < ib:
            s += va * va
            i += 1
        else:
            s += vb * vb
            j += 1
    while i < len(a):
        s += a[i][1] * a[i][1]
        i += 1
    while j < len(b):
        s += b[j][1] * b[j][1]
        j += 1
    return s


def _require(cond: bool, space, p, q):
    if not cond:
        raise KindMismatchError(
            f"points {type(p).__name__}/{type(q).__name__} do not match space "
            f"{type(space).__name__}"
        )


def distance(space: MetricSpace, p: Point, q: Point) -> float:
    """Metric of ``space`` evaluated at a pair of its points."""
    if isinstance(space, EuclideanLine):
        _require(isinstance(p, Real) and isinstance(q, Real), space, p, q)
        return abs(p.value - q.value)
    if isinstance(space, EuclideanD):
        _require(
            isinstance(p, Vec)
            and isinstance(q, Vec)
            and len(p.coords) == space.dim
            and len(q.coords) == space.dim,
            space,
            p,
            q,
        )
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(p.coords, q.coords)))
    if isinstance(space, Heisenberg):
        _require(isinstance(p, HPoint) and isinstance(q, HPoint), space, p, q)
        return h_norm(h_mul(h_inv(p), q))
    if isinstance(space, UltrametricWords):
        _require(isinstance(p, Word) and isinstance(q, Word), space, p, q)
        if p.letters == q.letters:
            return 0.0
        return 2.0 ** (-_word_prefix_len(p.letters, q.letters))
    if isinstance(space, SparseL2):
        _require(isinstance(p, SparsePoint) and isinstance(q, SparsePoint), space, p, q)
        return math.sqrt(sparse_d2(p, q))
    raise KindMismatchError(f"unknown space {space!r}")
