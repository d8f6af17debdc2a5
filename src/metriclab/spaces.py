"""Metric spaces and point representations shared by every other module.

Five space kinds are supported: the real line, finite-dimensional
Euclidean space, the Heisenberg group with the Koranyi (gauge) metric,
finite words under a longest-common-prefix ultrametric, and a sparse
"fresh orthonormal direction" l2 space whose coordinates are keyed by
opaque 64-bit direction ids.

``distance`` evaluates one pair. ``pairwise_distances`` evaluates every
pair of two point lists and returns the same floats, bit for bit: the
sparse l2 space gets a vectorised merge, the other kinds a loop over
``distance``.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence, Union

import numpy as np


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
        """Return this point moved by ``amount`` along one direction, with
        ``from_dict``'s rules: a float value, and no zero coordinate."""
        items = self.items
        i = bisect.bisect_left(items, direction, key=itemgetter(0))
        found = i < len(items) and items[i][0] == direction
        value = float((items[i][1] if found else 0.0) + amount)
        moved = ((direction, value),) if value != 0.0 else ()
        return SparsePoint(items[:i] + moved + items[i + found :])


ORIGIN = SparsePoint(())

Point = Union[Real, Vec, HPoint, Word, SparsePoint]


class DirectionIds:
    """Issues fresh direction ids; distinct ids are orthogonal unit axes."""

    def __init__(self):
        self._counter = itertools.count(1)

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
    """Group multiplication (x,y,z)*(x',y',z') = (x+x', y+y', z+z'+2(yx'-xy')), grouped so
    that ``distance`` is symmetric bit for bit: swapping its points negates each z step."""
    return HPoint(p.x + q.x, p.y + q.y, p.z + q.z + 2.0 * (p.y * q.x - p.x * q.y))


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


# ---------------------------------------------------------------------------
# batched distances

PAIRWISE_BLOCK = 256  # rows of A per block of the sparse merge


def _pack_sparse(
    points: Sequence[SparsePoint], rank: dict[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Padded (len(points), width) rank and value arrays: row r holds the
    support of points[r] in id order, then at least one padding column with
    rank ``len(rank)`` and value 0."""
    sizes = np.fromiter((len(p.items) for p in points), np.intp, len(points))
    width = int(sizes.max(initial=0)) + 1
    ranks = np.full((len(points), width), len(rank), dtype=np.intp)
    values = np.zeros((len(points), width))
    rows = np.repeat(np.arange(len(points)), sizes)
    cols = np.arange(len(rows)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    ranks[rows, cols] = [rank[i] for p in points for i, _ in p.items]
    values[rows, cols] = [v for p in points for _, v in p.items]
    return ranks, values


def _sparse_pairwise(space: SparseL2, A: Sequence[Point], B: Sequence[Point]) -> np.ndarray:
    """``sparse_d2``'s merge run for every pair at once, rows of A in blocks
    of ``PAIRWISE_BLOCK``.

    Each step compares the current ranks of every pair and adds one term
    d * d to its sum, as ``sparse_d2`` does: d = va - vb on a shared id,
    va or -vb when only one side has the smaller id, and 0 once both sides
    are exhausted. The terms come in the same order with the same float
    operations, so every square root equals ``distance`` exactly. Direction
    ids are replaced by their ranks in the sorted union of ids, so ids of
    any size fit, and the padding rank sorts after all of them.
    """
    for p in itertools.chain(A, B):
        _require(isinstance(p, SparsePoint), space, p, p)
    union = sorted({i for p in itertools.chain(A, B) for i, _ in p.items})
    rank = {i: r for r, i in enumerate(union)}
    a_ranks, a_values = _pack_sparse(A, rank)
    b_ranks, b_values = _pack_sparse(B, rank)
    a_width, b_width = a_ranks.shape[1], b_ranks.shape[1]
    a_ranks, a_values = a_ranks.ravel(), a_values.ravel()
    b_ranks, b_values = b_ranks.ravel(), b_values.ravel()
    # each pair's read position in the flattened rows; it stops at the row's
    # last (padding) column
    b_start = np.arange(len(B)) * b_width
    b_stop = b_start + b_width - 1
    out = np.empty((len(A), len(B)))
    for lo in range(0, len(A), PAIRWISE_BLOCK):
        a_start = np.arange(lo, min(lo + PAIRWISE_BLOCK, len(A)))[:, None] * a_width
        a_stop = a_start + a_width - 1
        i = np.repeat(a_start, len(B), axis=1)
        j = np.repeat(b_start[None, :], len(a_start), axis=0)
        s = out[lo : lo + PAIRWISE_BLOCK]
        s[...] = 0.0
        # the steps write into arrays made once per block: a fresh array per
        # operation would be mapped and faulted in anew whenever it is larger
        # than the allocator's mmap threshold. Every index is in range, and
        # mode="clip" lets ``take`` write into them without a buffer.
        ia, ib, va, vb = np.empty_like(i), np.empty_like(j), np.empty(i.shape), np.empty(i.shape)
        take_a, take_b = np.empty(i.shape, bool), np.empty(i.shape, bool)
        for _ in range(a_width + b_width - 2):
            a_ranks.take(i, out=ia, mode="clip")
            b_ranks.take(j, out=ib, mode="clip")
            np.less_equal(ia, ib, out=take_a)
            np.less_equal(ib, ia, out=take_b)
            a_values.take(i, out=va, mode="clip")
            b_values.take(j, out=vb, mode="clip")
            np.copyto(va, 0.0, where=~take_a)
            np.copyto(vb, 0.0, where=~take_b)
            va -= vb
            va *= va
            s += va
            i += take_a
            j += take_b
            np.minimum(i, a_stop, out=i)
            np.minimum(j, b_stop, out=j)
        np.sqrt(s, out=s)
    return out


def pairwise_distances(
    space: MetricSpace, A: Sequence[Point], B: Sequence[Point]
) -> np.ndarray:
    """The (len(A), len(B)) matrix of ``distance(space, a, b)``, bit for bit.

    The sparse l2 space runs a vectorised merge in
    O(len(A)·len(B)·(s_A + s_B)) time for supports of at most s_A and s_B
    ids, and O(PAIRWISE_BLOCK·len(B)) memory. The other kinds loop over
    ``distance``: a numpy form of their formulas need not round as Python's
    ``(a - b) ** 2`` does, and closed-ball tests ``d <= r`` are exact at
    the boundary.
    """
    if isinstance(space, SparseL2):
        return _sparse_pairwise(space, A, B)
    out = np.empty((len(A), len(B)))
    for r, a in enumerate(A):
        out[r] = [distance(space, a, b) for b in B]
    return out
