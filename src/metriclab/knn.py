"""k-NN and 1-NN classification with explicit distance/vote tie handling."""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .spaces import MetricSpace, Point, distance


class TieStrategy(Enum):
    # distance ties at the k-th radius: prefer smaller tie key vs lower index
    UNIFORM_RANDOM = "uniform_random"
    FIRST_INDEX = "first_index"


class PackedSample(NamedTuple):
    objects: tuple[Point, ...]  # distinct point objects, in order of first use
    inverse: np.ndarray  # sample index -> position in ``objects``
    counts: np.ndarray  # sample points per object
    labels: np.ndarray
    tie_keys: np.ndarray


class LabelledSample:
    """A labelled sample for the brute-force rule, stored as its
    ``PackedSample``: points are frozen, and a sample drawn from a tree holds
    few distinct objects (a few dozen in a criterion-07 sample of 2000 rows),
    so a query pays one distance per object. The constructor finds the
    objects by ``id`` in numpy, in order of first use, and ``from_packed``
    takes them as given; both validate the same arrays. The tuples
    ``points``, ``labels`` and ``tie_keys`` are built on first read."""

    def __init__(self, points: Sequence[Point], labels: Sequence[int], tie_keys: Sequence[float]):
        points = tuple(points)
        ids = np.fromiter(map(id, points), np.uint64, len(points))
        _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
        rank = np.empty_like(first)
        rank[first.argsort()] = np.arange(len(first))
        objects = tuple(map(points.__getitem__, np.sort(first).tolist()))
        self._pack(objects, rank[inverse], labels, tie_keys)

    @classmethod
    def from_packed(cls, objects: Sequence[Point], inverse, labels, tie_keys) -> LabelledSample:
        """Point i is ``objects[inverse[i]]``, the objects distinct and in order of first use."""
        sample = cls.__new__(cls)
        sample._pack(tuple(objects), np.asarray(inverse), labels, tie_keys)
        return sample

    def _pack(self, objects, inverse, labels, tie_keys):
        labels, tie_keys = np.asarray(labels), np.asarray(tie_keys, float)
        if len(inverse) < 1:
            raise ValueError("sample must contain at least one point")
        if not (labels.ndim == tie_keys.ndim == 1 and len(inverse) == len(labels) == len(tie_keys)):
            raise ValueError("points, labels and tie keys must have equal length")
        if not ((labels == 0) | (labels == 1)).all():  # compared: a cast takes 0.5 and "1"
            raise ValueError("labels must be 0 or 1")
        keys = np.sort(tie_keys)  # equal keys are adjacent, 0.0 and -0.0 too; NaN equals none
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("tie keys must be pairwise distinct")
        counts = np.bincount(inverse, minlength=len(objects))
        self.packed = PackedSample(objects, inverse, counts, labels.astype(np.int64), tie_keys)

    points = cached_property(
        lambda self: tuple(map(self.packed.objects.__getitem__, self.packed.inverse.tolist()))
    )
    labels = cached_property(lambda self: tuple(self.packed.labels.tolist()))
    tie_keys = cached_property(lambda self: tuple(self.packed.tie_keys.tolist()))

    def __len__(self) -> int:
        return len(self.packed.inverse)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelledSample):
            return NotImplemented
        return (self.points, self.labels, self.tie_keys) == (other.points, other.labels, other.tie_keys)

    def __hash__(self) -> int:
        return hash((self.points, self.labels, self.tie_keys))


def _radius(
    sample: LabelledSample, x: Point, k: int, space: MetricSpace
) -> tuple[np.ndarray, float]:
    """Each distinct object's ``distance(space, x, p)``, in the order of
    ``sample.packed.objects``, and the k-th smallest distance over the
    sample points, found by counting the points at each sorted distinct
    distance."""
    n = len(sample)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    packed = sample.packed
    dists = np.array([distance(space, x, p) for p in packed.objects], dtype=float)
    order = np.argsort(dists)
    radius = dists[order[np.searchsorted(np.cumsum(packed.counts[order]), k)]]
    return dists, float(radius)


def select_neighbours(
    sample: LabelledSample,
    x: Point,
    k: int,
    strategy: TieStrategy,
    space: MetricSpace,
) -> list[int]:
    """Indices of the k nearest neighbours of ``x``.

    Distances are ``distance(space, x, p)``. Everything strictly inside
    the k-th radius is taken; the remaining slots are filled from the
    boundary, preferring smaller tie keys (UNIFORM_RANDOM) or lower indices
    (FIRST_INDEX). The radius and the inside/boundary split are decided
    over the distinct objects, and each side is expanded to the sample
    indices of its objects in one take. Only the boundary is sorted.
    """
    dists, radius = _radius(sample, x, k, space)
    packed = sample.packed
    inside = np.flatnonzero((dists < radius)[packed.inverse])
    boundary = np.flatnonzero((dists == radius)[packed.inverse])
    if strategy is TieStrategy.UNIFORM_RANDOM:
        boundary = boundary[np.argsort(packed.tie_keys[boundary])]
    return inside.tolist() + boundary[: k - len(inside)].tolist()


def knn_predict(
    sample: LabelledSample,
    x: Point,
    k: int,
    strategy: TieStrategy,
    space: MetricSpace,
) -> int:
    """Majority label among the k nearest neighbours; vote ties go to 1."""
    chosen = select_neighbours(sample, x, k, strategy, space)
    ones = int(sample.packed.labels[chosen].sum())
    return int(2 * ones >= k)


EUCLIDEAN_BLOCK = 1 << 14  # padded candidate entries (queries × width) per block


def _gathered_d2(q: np.ndarray, columns: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Squared distances from each query row q[i] to the sorted training
    rows idx[i], summed one coordinate at a time: the same float operations
    in the same order as a dense (T, n) computation, so every value keeps
    its bits."""
    d2 = (q[:, 0, None] - columns[0][idx]) ** 2
    for j in range(1, len(columns)):
        d2 += (q[:, j, None] - columns[j][idx]) ** 2
    return d2


class _Cells(NamedTuple):
    """The cell table of the d >= 2 search. Column c holds the rows
    c·s .. c·s + s - 1 in coordinate-0 order, cut into s bands even over
    the column's own coordinate-1 range; ``offsets[c·s + b]`` is the first
    row of cell (c, b) in (column, band) order, and ``offsets[-1]`` is n."""

    size: int  # s
    firsts: np.ndarray  # each column's least coordinate 0
    lasts: np.ndarray  # and its greatest
    low: np.ndarray  # each column's least coordinate 1
    inv: np.ndarray  # s over the column's coordinate-1 range, or 0 where not finite
    offsets: np.ndarray

    def cell(self, cols: np.ndarray, values: np.ndarray) -> np.ndarray:
        """c·s + band(v, c), where band(v, c) = floor((v - low_c)·inv_c)
        clipped to 0..s - 1 and NaN (from ±inf·0) is band 0: one float
        function of v for rows and query bounds alike, defined on every
        float and nondecreasing in v."""
        with np.errstate(over="ignore", invalid="ignore"):
            x = (values - self.low[cols]) * self.inv[cols]
        return cols * self.size + np.fmin(np.fmax(x, 0), self.size - 1).astype(np.int64)


def _cell_table(
    train: np.ndarray, labels: np.ndarray, s: int
) -> tuple[_Cells, np.ndarray, np.ndarray]:
    """The cell table of the training rows, and the rows' coordinates, one
    array per coordinate, and labels in cell order, each followed by a
    padding row n at +inf with label 0; the offsets are counted with
    ``bincount`` and ``cumsum``."""
    n = len(train)
    # equal coordinates may come in any order, and the default sort is the faster
    order = np.argsort(train[:, 0])
    key0, row1 = train[order, 0], train[order, 1]
    edges = np.arange(0, n, s)
    low, high = np.minimum.reduceat(row1, edges), np.maximum.reduceat(row1, edges)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = s / (high - low)
    inv[~np.isfinite(inv)] = 0
    cells = _Cells(s, key0[edges], key0[np.minimum(edges + s, n) - 1], low, inv, None)
    cell = cells.cell(np.arange(n) // s, row1)
    offsets = np.zeros(len(edges) * s + 1, dtype=np.intp)
    np.cumsum(np.bincount(cell, minlength=len(edges) * s), out=offsets[1:])
    order = order[np.argsort(cell)]
    columns = np.full((train.shape[1], n + 1), np.inf)
    for j, column in enumerate(columns):
        np.take(train[:, j], order, out=column[:n])
    return cells._replace(offsets=offsets), columns, np.append(labels[order], 0)


def _widened(q: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """fl(q - h) and fl(q + h); a NaN bound, from an infinite or NaN
    coordinate, opens its side to -inf or +inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.fmax(q - h, -np.inf), np.fmin(q + h, np.inf)


def _blocks(totals: np.ndarray):
    """Consecutive slices (a, b) of queries with nondecreasing ``totals``
    of candidate rows, as long as (b - a)·totals[b - 1] stays within
    EUCLIDEAN_BLOCK; a query alone may exceed it."""
    a = 0
    while a < len(totals):
        ahead = totals[a : a + max(1, EUCLIDEAN_BLOCK // max(int(totals[a]), 1))]
        padded = ahead * np.arange(1, len(ahead) + 1)
        b = a + max(1, int(np.searchsorted(padded, EUCLIDEAN_BLOCK, "right")))
        yield a, b
        a = b


def _run_vote(
    q: np.ndarray, columns: np.ndarray, labels: np.ndarray, runs: np.ndarray, k: int
) -> np.ndarray:
    """The k-NN vote of each query row q[i] over the sorted rows in the
    ranges [start[i, j], stop[i, j]), where (start, stop) = runs. Row i of
    ``idx`` lists its ranges one after another, padded with the +inf row n
    to the longest row: over the flattened block, position p of a range, or
    of a row's padding, holds p plus that stretch's shift, laid out by one
    ``repeat``; a padding's shift takes it to n or beyond, and ``minimum``
    holds it at n."""
    lengths = runs[1] - runs[0]
    totals = lengths.sum(axis=1)
    width, pad = totals.max(), len(labels) - 1
    stretches = np.column_stack([lengths, width - totals]).ravel()  # ranges, padding, by row
    shifts = np.column_stack([runs[0], np.full_like(totals, pad)]).ravel()
    shifts += stretches - np.cumsum(stretches)
    idx = np.repeat(shifts, stretches)
    idx += np.arange(len(idx))
    idx = np.minimum(idx, pad, out=idx).reshape(len(q), width)
    d2 = _gathered_d2(q, columns, idx)
    near = np.take_along_axis(idx, np.argpartition(d2, k - 1, axis=1)[:, :k], axis=1)
    return 2 * labels[near].sum(axis=1) >= k


def euclidean_vote(
    train: np.ndarray, labels: np.ndarray, queries: np.ndarray, k: int
) -> np.ndarray:
    """k-NN predictions for (T, d) query rows against (n, d) training rows,
    d >= 1, with n 0/1 labels; vote ties go to label 1.

    At d = 1 the search is exact and reads no candidates. Over the sorted
    rows, a query's rounded squared distance does not increase before its
    place in that order and does not decrease from its place on. So its k
    nearest rows are one run of k sorted rows, starting at some lo in
    [max(0, place - k), min(place, n - k)], and row lo + k lies at or
    after the place. Over that range "row lo is farther than row lo + k"
    holds and then fails, and the first lo where it fails starts a nearest
    run. One binary search over the queries in sorted order, so that its
    reads move forward through the rows, finds it in k.bit_length() rounds,
    and prefix sums of the sorted labels count the run's ones. Time is
    O((n + T) log n + T log k) and memory O(n + T).

    At d >= 2 the search reads a table of cells built by counting. The
    training rows are sorted by coordinate 0 and cut into columns of
    s = isqrt(n·w) consecutive rows; w is min(n, max(2k, 8)) at d = 2 and
    min(n, max(2k, 2·isqrt(n))) at d >= 3. Column c is cut into s bands
    even over its own coordinate-1 range by ``_Cells.cell``, a band
    function defined on every float, ±inf included, and nondecreasing;
    even bands keep a column balanced when coordinate 1 follows coordinate
    0. ``bincount`` and ``cumsum`` over the rows' (column, band) cells give
    an offsets table of about n entries, and the rows are sorted by cell.

    Each query's place in the cell order is found at once, and pass 1
    visits the queries in place order. The k-th smallest squared distance
    r² over the w rows around a place bounds the query's k-th neighbour
    distance from above, since k real rows reach it. Every row at squared
    distance at most r² has |t₀ - q₀| <= r and |t₁ - q₁| <= r, and so lies
    within the bounds q ± h widened by a margin h >= r. Its column meets
    [q₀ - h, q₀ + h], and a ``searchsorted`` over the n/s column edges
    finds those columns. Rows and bounds go through the same band
    function, so in column c the row's band lies between band(q₁ - h, c)
    and band(q₁ + h, c), and the query's candidates there are the one run
    from offsets[c·s + band(q₁ - h, c)] to offsets[c·s + band(q₁ + h, c) + 1]:
    two table reads. On uniform data in the plane a query reads O(w) rows,
    where pruning by coordinate 0 alone would leave O(sqrt(n)).

    Pass 2 takes the queries grouped by column count, in place order within
    a group, sorts each slice of them by candidate total and picks each
    query's k nearest candidates with ``argpartition``, in blocks of at most
    EUCLIDEAN_BLOCK entries unless one query alone exceeds it. The totals
    being sorted, a block is padded only to its own rows' largest total.
    Memory is O(n + T + EUCLIDEAN_BLOCK) whatever the input, and time
    O(n log n + T log T + T·(w + R·L)) for R columns of L candidate rows.

    Squared distances are summed one coordinate at a time, and each equals
    the dense computation's bits, so the prediction equals the brute-force
    vote whenever the k-th and (k+1)-th distances differ, whatever the
    order of the queries. Distance ties at the k-th radius are not broken
    by tie keys: with continuous draws they have probability zero, and
    ``select_neighbours`` stays the reference for the tie rule.
    """
    n, d = train.shape
    if d < 1 or queries.ndim != 2 or queries.shape[1] != d or np.shape(labels) != (n,):
        shapes = f"{train.shape} rows, {np.shape(labels)} labels, {queries.shape} queries"
        raise ValueError(f"need (n, d) rows with d >= 1, (n,) labels, (T, d) queries; got {shapes}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    T = len(queries)
    if d == 1:
        order = np.argsort(train[:, 0])  # equal rows may come in any order, as at d >= 2
        key0, cum = train[order, 0], np.concatenate(([0], np.cumsum(labels[order])))
        order = np.argsort(queries[:, 0])
        q = queries[order, 0]
        hi = np.searchsorted(key0, q)  # each query's place
        lo, hi = np.maximum(hi - k, 0), np.minimum(hi, n - k, out=hi)
        for _ in range(k.bit_length()):  # hi - lo <= k, halved each round
            mid = (lo + hi) // 2
            # mid + k < n while lo < hi; the clip only guards finished searches
            farther = (q - key0[mid]) ** 2 > (q - key0[np.minimum(mid + k, n - 1)]) ** 2
            lo, hi = np.where((lo < hi) & farther, mid + 1, lo), np.where(farther, hi, mid)
        out = np.empty(T, dtype=np.int64)
        out[order] = 2 * (cum[lo + k] - cum[lo]) >= k
        return out
    w = min(n, max(2 * k, 8 if d == 2 else 2 * math.isqrt(n)))
    cells, columns, sorted_labels = _cell_table(train, labels, math.isqrt(n * w))
    places = np.maximum(np.searchsorted(cells.firsts, queries[:, 0], "right") - 1, 0)
    places = cells.offsets[cells.cell(places, queries[:, 1])]  # home column -> place
    order = np.argsort(places)
    h, first, count = np.empty(T), np.empty(T, dtype=np.intp), np.empty(T, dtype=np.intp)
    # pass 1: the window bound r2, the margin h and the columns meeting q0 ± h
    step = max(1, EUCLIDEAN_BLOCK // w)
    for lo in range(0, T, step):
        these = order[lo : lo + step]
        q = queries[these]
        # the window may run into a neighbouring column: its rows are real rows
        idx = np.clip(places[these] - w // 2, 0, n - w)[:, None] + np.arange(w)
        r2 = np.partition(_gathered_d2(q, columns, idx), k - 1, axis=1)[:, k - 1]
        # fl((t - q)**2) <= r2 implies |t - q| <= sqrt(r2)·(1 + 5u) when the
        # square is a normal float, and |t - q| < 1.5e-154 when it
        # underflows, on coordinates 0 and 1 alike, since a sum of
        # nonnegative rounded terms is at least each term; so q - h <= t <=
        # q + h, and rounding to nearest is monotone, so fl(q -/+ h) keeps t
        h[these] = np.sqrt(r2) * (1 + 1e-12) + 1e-150
        below, above = _widened(q[:, 0], h[these])
        first[these] = np.searchsorted(cells.lasts, below, "left")
        count[these] = np.searchsorted(cells.firsts, above, "right") - first[these]
    # pass 2: queries grouped by their column count, in place order within a
    # group; each (query, column) run is two reads from the offsets table
    order = order[np.argsort(count[order], kind="stable")]
    group, out = 0, np.empty(T, dtype=np.int64)
    for width, size in enumerate(np.bincount(count).tolist()):
        step = max(1, EUCLIDEAN_BLOCK // max(width, 1))
        for lo in range(group, group + size, step):
            these = order[lo : min(lo + step, group + size)]
            cols = first[these, None] + np.arange(width)
            below, above = _widened(queries[these, 1, None], h[these, None])
            runs = cells.offsets[np.stack([cells.cell(cols, below), cells.cell(cols, above) + 1])]
            by_total = np.argsort((runs[1] - runs[0]).sum(axis=1))
            these, runs = these[by_total], runs[:, by_total]
            for a, b in _blocks((runs[1] - runs[0]).sum(axis=1)):
                votes = _run_vote(queries[these[a:b]], columns, sorted_labels, runs[:, a:b], k)
                out[these[a:b]] = votes
        group += size
    return out
