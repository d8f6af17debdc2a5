"""Metric spaces and point representations shared by every other module.

Five space kinds are supported: the real line, finite-dimensional
Euclidean space, the Heisenberg group with the Koranyi (gauge) metric,
finite words under a longest-common-prefix ultrametric, and a sparse
"fresh orthonormal direction" l2 space whose coordinates are keyed by
opaque 64-bit direction ids.

``distance`` evaluates one pair. It looks the space's type up in a table
of five kernels, one per kind, and calls that kind's kernel, which raises
``KindMismatchError`` unless both points are of the kind; a space of any
other type, a subclass too, raises it as unknown. The Heisenberg kernel
computes ``h_norm(h_mul(h_inv(p), q))`` inline, with the same float
operations in the same order, without building the two points between.

``contained_pairs`` lists, for balls with centres A and the points B of
one or more lists, every (ball, point) pair with the point in the ball,
exactly as ``distance`` and ``d <= r`` (closed) or ``d < r`` (open)
decide it.

In the sparse l2 space it is a filtered exact predicate: a cheap bound
settles most pairs, and the rest go to ``sparse_d2``'s merge, run over a
list of pairs with the same float operations. Each list is packed on its
own as a ``SparseRows`` table of ids, values and row offsets: a table is
used as it is, and a list of points goes through one conversion.
``shifted_rows`` builds the table of a family of shifted centres from the
common centre's items and a range of ids, with no point in between. The
lists' ids are joined by one sort into ranks, so ids of any size fit, and
the directions that every point holds with one finite value are left out:
each adds an exact +0.0 to every merge. The candidates are

* the pairs that still share a direction, found by a join on ranks, and
* for each ball b with centre norm na, the points of norm nb at most
  r_b^2 (1 + 2^-20) + 2^-1000 - na (1 - 2^-20): a prefix of the points
  sorted by norm, found by one binary search.

Every other pair has disjoint supports, so its merge adds exactly the
floats fl(v^2) whose sums are the two norms. With N terms in all,
u = 2^-53 and gamma = (N-1) u / (1 - (N-1) u), the merge's sum X and each
float norm lie within a factor 1 +- gamma of the exact sums of their
terms. A pair in the ball has fl(sqrt(X)) <= r, so
X <= r^2 (1 + 2^-51) + 2^-1500. Chaining the three bounds gives
nb <= (r^2 (1 + 2^-51) + 2^-1500)(1 + gamma)/(1 - gamma) - na, which is
below r^2 (1 + 2^-30) + 2^-1499 - na for supports of fewer than 2^20 ids
together. The slack from 2^-30 to 2^-20 outweighs the roundings of the
bound's own float evaluation, and the floor 2^-1000 every error of
underflow; a bound that comes out NaN prunes nothing. So each pruned pair
has fl(sqrt(X)) > r and lies in neither the closed nor the open ball.

The cost is linear in the total support size to join, plus one merge step
per id of the two supports for each candidate pair, in blocks of
``PAIR_BLOCK`` pairs, with no len(A) x len(B) array. Each stage works on
all rows or pairs at once: ``shifted_rows``, the pack, the rank, the join,
the norm prefix and the dedup are a fixed few numpy calls each, a merge
step is nine over its whole block, and a block's merge ends once every
pair has reached its sentinels. So a call on a few balls costs a fixed
few dozen numpy calls, and each added ball a few array entries, or a few
list entries where a list of points is converted.

Words are decided by one array kernel, ``words_contained``, over a list of
pairs, in blocks of ``PAIR_BLOCK``. ``pack_words`` puts the words in the
rows of a letter matrix padded with the blank 0, as ``_word_prefix_len``
pads them; ``contained_pairs`` first codes the letters, 0 as 0 and every
other distinct letter as 1, 2, ..., so letters of any int fit a narrow
dtype. A pair's common prefix is the run of equal columns, capped at the
longer word's length, and the distance is 0.0 for equal words and
``ldexp(1.0, -lcp)``, the power of two ``2.0 ** -lcp`` gives, otherwise;
so both boundaries fall exactly.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from operator import itemgetter, sub
from typing import Iterator, NamedTuple, Sequence, Union

import numpy as np


class KindMismatchError(TypeError):
    """Raised when a point does not belong to the space it is used with."""


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True, slots=True)
class Real:
    value: float


@dataclass(frozen=True, slots=True)
class Vec:
    coords: tuple[float, ...]


@dataclass(frozen=True, slots=True)
class HPoint:
    x: float
    y: float
    z: float  # carries squared-length units under dilation


@dataclass(frozen=True, slots=True)
class Word:
    letters: tuple[int, ...]  # letters are >= 1; 0 is the reserved blank


@dataclass(frozen=True, slots=True)
class SparsePoint:
    """Finitely supported vector over implicit orthonormal directions.

    ``items`` is sorted by direction id and holds no zero coordinates, so
    structural equality coincides with zero distance. The constructor
    rejects items off that order or with a zero value: ``sparse_d2``
    merges them as if they were on it, and would put ((2, 1), (1, 1)) at
    squared distance 3 from ((1, 1),), not 1.
    """

    items: tuple[tuple[int, float], ...]

    def __post_init__(self):
        prev = None
        for i, v in self.items:
            if v == 0.0 or (prev is not None and i <= prev):
                raise ValueError(
                    "sparse point items need strictly increasing ids and nonzero values"
                )
            prev = i

    @staticmethod
    def from_dict(coords: dict[int, float]) -> "SparsePoint":
        return SparsePoint(
            tuple(sorted((i, float(v)) for i, v in coords.items() if v != 0.0))
        )

    def shift(self, direction: int, amount: float) -> "SparsePoint":
        """Return this point moved by ``amount`` along one direction, with
        ``from_dict``'s rules: a float value, and no zero coordinate."""
        items = self.items
        if not items or items[-1][0] < direction:  # a new last id: nothing to search
            value = float(0.0 + amount)
            return SparsePoint(items + ((direction, value),) if value != 0.0 else items)
        i = bisect.bisect_left(items, direction, key=itemgetter(0))
        found = items[i][0] == direction
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

    def block(self, count: int) -> range:
        """The ids that ``count`` calls of ``fresh`` would return, as a
        range, without materializing them."""
        if count < 0:
            raise ValueError("an id block needs a non-negative count")
        start = next(self._counter)
        self._counter = itertools.count(start + count)
        return range(start, start + count)


def _id_array(ids: Sequence[int]) -> np.ndarray:
    """Direction ids as int64, or as Python ints where one does not fit."""
    if isinstance(ids, range) and ids.step == 1 and -(2**63) <= ids.start and ids.stop <= 2**63:
        return np.arange(ids.start, ids.stop, dtype=np.int64)
    try:
        return np.fromiter(ids, np.int64, len(ids))
    except OverflowError:
        return np.array(ids, object)


@dataclass(frozen=True, eq=False)
class SparseRows:
    """Sparse points as one table: row r holds the items
    ``zip(ids[offsets[r]:offsets[r + 1]], values[offsets[r]:offsets[r + 1]])``
    in id order, with no zero value, as a ``SparsePoint``'s items. ``ids``
    is int64, or an object array of Python ints where an id does not fit."""

    ids: np.ndarray
    values: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def points(self) -> tuple[SparsePoint, ...]:
        items = list(zip(self.ids.tolist(), self.values.tolist()))
        bounds = self.offsets.tolist()
        return tuple(SparsePoint(tuple(items[a:b])) for a, b in zip(bounds, bounds[1:]))


def shifted_rows(center: SparsePoint, directions: range, amount: float) -> SparseRows:
    """The table whose row t is ``center.shift(directions[t], amount)``,
    for a range of directions of step 1, built from the centre's items and
    the range alone, with no point in between. Each row is the centre's
    items with one more item in id order: a direction the centre does not
    hold enters with value 0.0 + amount, and one it holds has ``amount``
    added to its value; a value that becomes zero is dropped."""
    ids, values = zip(*center.items) if center.items else ((), ())
    k, m = len(ids), len(directions)
    # the centre's ids inside the range, as offsets into it: a row's new
    # item goes before every centre id above its direction
    lo = bisect.bisect_left(ids, directions.start)
    hi = bisect.bisect_left(ids, directions.stop)
    inner = np.array([i - directions.start for i in ids[lo:hi]], np.intp)
    new = np.arange(m)[:, None]
    at = lo + inner.searchsorted(new)  # the new item's column in each row
    held = np.zeros((m, 1), bool)
    held[inner] = True
    # the items to pick from: the centre's, a pad of value 0, then the new
    # ones, where amount + v is v + amount, as addition commutes
    pool_ids = np.concatenate((_id_array(ids + (0,)), _id_array(directions)))
    pool_values = np.zeros(k + 1 + m)
    pool_values[:k] = values
    pool_values[k + 1 :] = amount
    pool_values[k + 1 + inner] += values[lo:hi]
    # column j of a row holds the new item at j == at, and the centre's item
    # j before it; after it, item j - 1, or item j where the new item
    # replaced a held one, whose last column then reads the pad
    column = np.arange(k + 1)
    source = np.where(column == at, k + 1 + new, column - ((column > at) & ~held))
    row_values = pool_values[source]
    keep = row_values != 0.0  # the pad, and a value that became zero
    offsets = np.zeros(m + 1, np.intp)
    offsets[1:] = keep.sum(axis=1).cumsum()
    return SparseRows(pool_ids[source[keep]], row_values[keep], offsets)


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
    lcp = 0
    for va, vb in itertools.zip_longest(a, b, fillvalue=0):
        if va != vb:
            break
        lcp += 1
    return lcp


def sparse_d2(p: SparsePoint, q: SparsePoint) -> float:
    """Squared l2 distance over the union of the two supports."""
    a, b = p.items, q.items
    na, nb = len(a), len(b)
    i = j = 0
    s = 0.0
    while i < na and j < nb:
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
    while i < na:
        s += a[i][1] * a[i][1]
        i += 1
    while j < nb:
        s += b[j][1] * b[j][1]
        j += 1
    return s


def _mismatch(space, p, q) -> KindMismatchError:
    return KindMismatchError(
        f"points {type(p).__name__}/{type(q).__name__} do not match space "
        f"{type(space).__name__}"
    )


def _line_distance(space: EuclideanLine, p: Point, q: Point) -> float:
    if not (isinstance(p, Real) and isinstance(q, Real)):
        raise _mismatch(space, p, q)
    return abs(p.value - q.value)


def _euclidean_distance(space: EuclideanD, p: Point, q: Point) -> float:
    if not (
        isinstance(p, Vec)
        and isinstance(q, Vec)
        and len(p.coords) == space.dim
        and len(q.coords) == space.dim
    ):
        raise _mismatch(space, p, q)
    # d * d, not d ** 2: a float power raises OverflowError where the
    # product gives inf, and both round the square correctly
    return math.sqrt(sum(d * d for d in map(sub, p.coords, q.coords)))


def _heisenberg_distance(space: Heisenberg, p: Point, q: Point) -> float:
    """``h_norm(h_mul(h_inv(p), q))`` with the same float operations in the
    same order, so the same bits, without building the two points between.
    (CPython leaves the sign of a NaN sum open, so a NaN may differ in it.)"""
    if not (isinstance(p, HPoint) and isinstance(q, HPoint)):
        raise _mismatch(space, p, q)
    ax, ay, az = -p.x, -p.y, -p.z  # h_inv(p)
    bx, by = q.x, q.y
    x, y = ax + bx, ay + by  # h_mul(h_inv(p), q)
    z = az + q.z + 2.0 * (ay * bx - ax * by)
    s = x * x + y * y  # h_norm
    return (s * s + z * z) ** 0.25


def _word_distance(space: UltrametricWords, p: Point, q: Point) -> float:
    if not (isinstance(p, Word) and isinstance(q, Word)):
        raise _mismatch(space, p, q)
    if p.letters == q.letters:
        return 0.0
    return 2.0 ** (-_word_prefix_len(p.letters, q.letters))


def _sparse_distance(space: SparseL2, p: Point, q: Point) -> float:
    if not (isinstance(p, SparsePoint) and isinstance(q, SparsePoint)):
        raise _mismatch(space, p, q)
    return math.sqrt(sparse_d2(p, q))


# one kernel per space kind; each checks its two points
_KERNELS = {
    EuclideanLine: _line_distance,
    EuclideanD: _euclidean_distance,
    Heisenberg: _heisenberg_distance,
    UltrametricWords: _word_distance,
    SparseL2: _sparse_distance,
}


def distance(space: MetricSpace, p: Point, q: Point) -> float:
    """Metric of ``space`` evaluated at a pair of its points."""
    kernel = _KERNELS.get(type(space))
    if kernel is None:
        raise KindMismatchError(f"unknown space {space!r}")
    return kernel(space, p, q)


# ---------------------------------------------------------------------------
# ball containment over point lists

PAIR_BLOCK = 8192  # pairs per block of contained_pairs

# the norm bound's relative slack and absolute floor (see the module docstring)
_SLACK = 2.0**-20
_FLOOR = 2.0**-1000


class _Packed(NamedTuple):
    """Sparse points in one flat layout. Row r's items sit in id order at
    ``start[r]:stop[r]``, followed at ``stop[r]`` by a sentinel item of rank
    ``sentinel`` and value 0; ``item_rank``, ``item_row`` and ``item_value``
    list the items alone, row by row."""

    ranks: np.ndarray
    values: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    item_rank: np.ndarray
    item_row: np.ndarray
    item_value: np.ndarray
    sentinel: int


def _sparse_table(space: SparseL2, points: Sequence[Point]) -> SparseRows:
    """The points' items as one ``SparseRows`` table."""
    rows = [p.items for p in points if isinstance(p, SparsePoint)]
    if len(rows) < len(points):
        other = next(p for p in points if not isinstance(p, SparsePoint))
        raise _mismatch(space, other, other)
    offsets = np.zeros(len(rows) + 1, np.intp)
    offsets[1:] = np.fromiter(map(len, rows), np.intp, len(rows)).cumsum()
    items = list(itertools.chain.from_iterable(rows))
    ids, values = zip(*items) if items else ((), ())
    return SparseRows(_id_array(ids), np.array(values, float), offsets)


def _pack_sparse(space: SparseL2, *parts: Union[SparseRows, Sequence[Point]]) -> _Packed:
    """Pack the rows of ``parts``, one after another: a ``SparseRows``
    table as it is, and a list of points through one conversion. The parts'
    id spaces are joined by one sort, and each direction id is replaced by
    its rank in the sorted union of ids, so ids of any size fit and the
    sentinel rank sorts after all of them. Directions that every point
    holds with one finite value are left out: each adds an exact +0.0 to
    every merge."""
    tables = [p if isinstance(p, SparseRows) else _sparse_table(space, p) for p in parts]
    ids = np.concatenate([t.ids for t in tables])
    union = np.sort(ids)
    distinct = np.ones(len(union), bool)
    np.not_equal(union[1:], union[:-1], out=distinct[1:])
    union = union[distinct]
    ranks = union.searchsorted(ids)
    values = np.concatenate([t.values for t in tables])
    sizes = np.concatenate([t.offsets[1:] - t.offsets[:-1] for t in tables])
    n = len(sizes)
    row = np.arange(n).repeat(sizes)
    if n and sizes.all():
        # a direction that every point holds is in the first point's support
        first = np.full(len(union), np.nan)
        first[ranks[: sizes[0]]] = values[: sizes[0]]
        held = np.bincount(ranks, minlength=len(union))
        differs = np.bincount(ranks, weights=values != first[ranks], minlength=len(union))
        constant = (held == n) & (differs == 0) & np.isfinite(first)
        keep = ~constant[ranks]
        ranks, values, row = ranks[keep], values[keep], row[keep]
        sizes = np.bincount(row, minlength=n)
    # row r's sentinel follows its items and the r sentinels before it
    stop = sizes.cumsum() + np.arange(n)
    slot = np.arange(len(ranks)) + row
    flat_ranks = np.empty(len(ranks) + n, np.intp)
    flat_ranks.fill(len(union))
    flat_values = np.zeros(len(ranks) + n)
    flat_ranks[slot] = ranks
    flat_values[slot] = values
    return _Packed(
        flat_ranks, flat_values, stop - sizes, stop, ranks, row, values, len(union)
    )


def _merge_d2(packed: _Packed, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """``sparse_d2`` of the packed rows ``ia[t]`` and ``ib[t]`` for each t,
    bit for bit, in blocks of ``PAIR_BLOCK`` pairs.

    Each step compares the current ranks of every pair and adds one term
    d * d to its sum, as ``sparse_d2`` does: d = va - vb on a shared id,
    va or -vb when only one side has the smaller id, and 0 once both sides
    rest on their sentinels. The terms come in the same order with the same
    float operations. The two sides' cursors are the two rows of one
    array, and a block ends once every cursor rests on its sentinel.
    """
    ranks, values = packed.ranks, packed.values
    out = np.zeros(len(ia))
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan as in sparse_d2
        for lo in range(0, len(ia), PAIR_BLOCK):
            pair = np.array((ia[lo : lo + PAIR_BLOCK], ib[lo : lo + PAIR_BLOCK]))
            at, stop = packed.start[pair], packed.stop[pair]
            s = out[lo : lo + PAIR_BLOCK]
            while True:
                rank = ranks[at]
                take = rank <= rank[::-1]  # each side's rank is the smaller or equal
                term = np.where(take, values[at], 0.0)
                d = term[0] - term[1]
                s += d * d
                at += take
                np.minimum(at, stop, out=at)
                if (at == stop).all():
                    break
    return out


def _runs(keys: np.ndarray, starts: np.ndarray, counts: np.ndarray, table: np.ndarray):
    """keys[t] + table[starts[t] + u] for u < counts[t], each t in turn."""
    offset = (starts - (counts.cumsum() - counts)).repeat(counts)
    return keys.repeat(counts) + table[offset + np.arange(len(offset))]


def _sparse_contained(packed, radii, closed, n_centers, n_points):
    """Blocks of ``contained_pairs`` for packed centres (rows below
    ``n_centers``) and points (the rows after them). A candidate pair is
    the key ball·n_points + point until it is decided."""
    ranks, rows, values = packed.item_rank, packed.item_row, packed.item_value
    split = rows.searchsorted(n_centers)
    a_rank, a_row = ranks[:split], rows[:split]
    b_rank = ranks[split:]
    held = np.bincount(b_rank, minlength=packed.sentinel)
    # the norm bound: a point with disjoint support lies in ball b only if
    # its norm is at most limit[b]; those points are a prefix by norm, and
    # a NaN limit sorts after every norm, so it prunes nothing
    with np.errstate(over="ignore", invalid="ignore"):  # squares overflow to inf
        norms = np.bincount(rows, weights=values * values, minlength=n_centers + n_points)
        nb = norms[n_centers:]
        limit = radii * radii * (1 + _SLACK) + _FLOOR - norms[:n_centers] * (1 - _SLACK)
    by_norm = nb.argsort(kind="stable")
    cut = nb[by_norm].searchsorted(limit, side="right")
    # one table: the points by norm, then the points holding each rank,
    # rank by rank; a centre item's run is its rank's points, a ball's run
    # its prefix by norm
    table = np.concatenate((by_norm, rows[split:][b_rank.argsort(kind="stable")] - n_centers))
    a_held, a_start = held[a_rank], (held.cumsum() - held + n_points)[a_rank]
    # balls in blocks of about PAIR_BLOCK candidates, at least one ball each
    total = (np.bincount(a_row, weights=a_held, minlength=n_centers) + cut).cumsum()
    lo = 0
    while lo < n_centers:
        before = total[lo - 1] if lo else 0.0
        hi = max(int(total.searchsorted(before + PAIR_BLOCK, side="right")), lo + 1)
        a_lo, a_hi = a_row.searchsorted((lo, hi))
        keys = _runs(
            np.concatenate((a_row[a_lo:a_hi], np.arange(lo, hi))) * n_points,
            np.concatenate((a_start[a_lo:a_hi], np.zeros(hi - lo, np.intp))),
            np.concatenate((a_held[a_lo:a_hi], cut[lo:hi])),
            table,
        )
        keys.sort()
        once = np.empty(len(keys), bool)  # each pair once
        once[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=once[1:])
        ia, ib = np.divmod(keys[once], n_points)
        d, r = np.sqrt(_merge_d2(packed, ia, ib + n_centers)), radii[ia]
        hit = np.where(closed[ia], d <= r, d < r)
        yield ia[hit], ib[hit]
        lo = hi


class PackedWords(NamedTuple):
    """Words as the rows of ``letters``, each padded past its ``lengths``
    entry with the blank 0."""

    letters: np.ndarray
    lengths: np.ndarray


def pack_words(lengths: np.ndarray, letters: np.ndarray) -> PackedWords:
    """Pack words given as their lengths and their concatenated letters,
    each a non-negative int with 0 the blank, in the narrowest dtypes
    that hold them."""
    lengths = np.asarray(lengths)
    letters = np.asarray(letters)
    width = int(lengths.max(initial=0))
    rows = np.zeros((len(lengths), width), np.min_scalar_type(letters.max(initial=0)))
    rows[np.arange(width) < lengths[:, None]] = letters  # row-major: word after word
    # signed, so the common prefix's negation is exact
    return PackedWords(rows, lengths.astype(np.result_type(np.int8, np.min_scalar_type(width))))


def words_contained(
    words: PackedWords, radii: np.ndarray, closed: np.ndarray, ia: np.ndarray, ib: np.ndarray
) -> np.ndarray:
    """For each t, whether word ``ib[t]`` lies in the ball of radius
    ``radii[ia[t]]`` around word ``ia[t]``, closed or open as
    ``closed[ia[t]]`` says, exactly as ``distance`` decides it. Its arrays
    are as long as the pair list: callers pass blocks of ``PAIR_BLOCK``."""
    la, lb = words.lengths[ia], words.lengths[ib]
    equal = words.letters[ia] == words.letters[ib]
    # the run of equal columns, capped where zip_longest stops
    run = np.logical_and.accumulate(equal, axis=1).sum(axis=1, dtype=la.dtype)
    lcp = np.minimum(run, np.maximum(la, lb))
    d = np.ldexp(1.0, -lcp)
    d[(la == lb) & (lcp == la)] = 0.0  # equal words
    r = radii[ia]
    return np.where(closed[ia], d <= r, d < r)


def _pack_word_points(space: UltrametricWords, points: Sequence[Point]) -> PackedWords:
    """``pack_words`` of the points, each letter coded by first appearance
    after the blank: 0 as 0, every other distinct letter as 1, 2, ..."""
    rows = [p.letters for p in points if isinstance(p, Word)]
    if len(rows) < len(points):
        other = next(p for p in points if not isinstance(p, Word))
        raise _mismatch(space, other, other)
    letters = list(itertools.chain.from_iterable(rows))
    code = dict.fromkeys(itertools.chain((0,), letters))
    code = dict(zip(code, range(len(code))))
    return pack_words(
        np.fromiter(map(len, rows), np.intp, len(rows)),
        np.fromiter(map(code.__getitem__, letters), np.intp, len(letters)),
    )


def _word_contained(words, radii, closed, n_centers, n_points):
    """Blocks of ``contained_pairs`` for packed centres (rows below
    ``n_centers``) and points (the rows after them): every (ball, point)
    pair, ``PAIR_BLOCK`` at a time, through ``words_contained``."""
    for lo in range(0, n_centers * n_points, PAIR_BLOCK):
        ia, ib = np.divmod(np.arange(lo, min(lo + PAIR_BLOCK, n_centers * n_points)), n_points)
        hit = words_contained(words, radii, closed, ia, ib + n_centers)
        yield ia[hit], ib[hit]


def contained_pairs(
    space: MetricSpace,
    centers: Union[SparseRows, Sequence[Point]],
    radii: Sequence[float],
    closed: Sequence[bool],
    *parts: Union[SparseRows, Sequence[Point]],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks of (ball index, point index) arrays listing every pair where
    ``distance(space, centers[b], points[p])`` is ``<= radii[b]`` for a
    closed ball and ``< radii[b]`` for an open one, pairs in no fixed order.
    The points are those of ``parts`` one after another, numbered across
    them; in the sparse l2 space the centres and each part may also be a
    ``SparseRows`` table, which is read as it is.

    The sparse l2 space decides only the candidate pairs, in blocks of about
    ``PAIR_BLOCK``, and each by ``sparse_d2``'s exact merge (see the module
    docstring). Words decide every pair, ``PAIR_BLOCK`` at a time, by the
    array kernel ``words_contained``. The line, Euclidean space and the
    Heisenberg group loop over ``distance``: a numpy form of their
    formulas need not round as Python's ``d * d`` on floats does.
    """
    radii, closed = np.asarray(radii, float), np.asarray(closed, bool)
    if isinstance(space, SparseL2):
        packed = _pack_sparse(space, centers, *parts)
        n_points = len(packed.start) - len(centers)
        return _sparse_contained(packed, radii, closed, len(centers), n_points)
    points = list(itertools.chain.from_iterable(parts))
    if isinstance(space, UltrametricWords):
        words = _pack_word_points(space, list(centers) + points)
        return _word_contained(words, radii, closed, len(centers), len(points))
    return _scalar_contained(space, centers, radii.tolist(), closed.tolist(), points)


def _scalar_contained(space, centers, radii, closed, points):
    """Blocks of ``contained_pairs`` from one ``distance`` call per pair."""
    pairs = []
    for b, (c, r, is_closed) in enumerate(zip(centers, radii, closed)):
        for p, q in enumerate(points):
            d = distance(space, c, q)
            if d <= r if is_closed else d < r:
                pairs.append((b, p))
        if len(pairs) >= PAIR_BLOCK or b == len(centers) - 1:
            yield tuple(np.array(pairs, np.intp).reshape(-1, 2).T)
            pairs = []
