"""k-NN and 1-NN classification with explicit distance/vote tie handling."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

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


@dataclass(frozen=True)
class LabelledSample:
    points: tuple[Point, ...]
    labels: tuple[int, ...]
    tie_keys: tuple[float, ...]

    def __post_init__(self):
        n = len(self.points)
        if n < 1:
            raise ValueError("sample must contain at least one point")
        if len(self.labels) != n or len(self.tie_keys) != n:
            raise ValueError("points, labels and tie keys must have equal length")
        if any(lab not in (0, 1) for lab in self.labels):
            raise ValueError("labels must be 0 or 1")
        if len(set(self.tie_keys)) != n:
            raise ValueError("tie keys must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def packed(self) -> PackedSample:
        """The sample as arrays over its distinct point objects: points are
        frozen, so an object has one distance from a query."""
        slots: dict[int, int] = {}
        inverse = np.array([slots.setdefault(id(p), len(slots)) for p in self.points])
        objects = tuple({id(p): p for p in self.points}.values())
        return PackedSample(
            objects,
            inverse,
            np.bincount(inverse, minlength=len(objects)),
            np.array(self.labels),
            np.array(self.tie_keys, dtype=float),
        )


def _radius(
    sample: LabelledSample, x: Point, k: int, space: MetricSpace
) -> tuple[np.ndarray, float]:
    """Each sample point's ``distance(space, x, p)``, evaluated once per
    distinct object, and the k-th smallest of them, found by counting the
    points at each sorted distinct distance."""
    n = len(sample)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    packed = sample.packed
    dists = np.array([distance(space, x, p) for p in packed.objects], dtype=float)
    order = np.argsort(dists)
    radius = dists[order[np.searchsorted(np.cumsum(packed.counts[order]), k)]]
    return dists[packed.inverse], float(radius)


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
    (FIRST_INDEX). Only the boundary is sorted.
    """
    dists, radius = _radius(sample, x, k, space)
    inside = np.flatnonzero(dists < radius)
    boundary = np.flatnonzero(dists == radius)
    if strategy is TieStrategy.UNIFORM_RANDOM:
        boundary = boundary[np.argsort(sample.packed.tie_keys[boundary])]
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


EUCLIDEAN_CHUNK = 256  # queries per distance block


def _gathered_d2(q: np.ndarray, columns: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Squared distances from each query row q[i] to the sorted training
    rows idx[i], summed one coordinate at a time: the same float operations
    in the same order as a dense (T, n) computation, so every value keeps
    its bits."""
    d2 = (q[:, 0, None] - columns[0][idx]) ** 2
    for j in range(1, len(columns)):
        d2 += (q[:, j, None] - columns[j][idx]) ** 2
    return d2


def _concatenated_ranges(start: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row i of the result lists the ranges [start[i, j], stop[i, j]) one
    after another, padded with 0 to the longest row; the mask marks the
    padding."""
    lengths = stop - start
    totals = lengths.sum(axis=1)
    width, flat = int(totals.max()), lengths.ravel()
    # padded flat position of each range's first entry
    first = np.arange(len(start))[:, None] * width + np.cumsum(lengths, axis=1) - lengths
    dest = np.repeat(first.ravel() - (np.cumsum(flat) - flat), flat) + np.arange(flat.sum())
    idx = np.zeros(len(start) * width, dtype=np.int64)
    idx[dest] = dest + np.repeat((start - first).ravel(), flat)
    return idx.reshape(len(start), width), np.arange(width) >= totals[:, None]


def euclidean_vote(
    train: np.ndarray, labels: np.ndarray, queries: np.ndarray, k: int
) -> np.ndarray:
    """k-NN predictions for (T, d) query rows against (n, d) training rows
    with 0/1 labels; vote ties go to label 1.

    At d = 1 the search is exact and reads no candidates. Over the sorted
    rows, a query's rounded squared distance does not increase before its
    place in that order and does not decrease from its place on. So its k
    nearest rows are one run of k sorted rows, starting at some lo in
    [max(0, place - k), min(place, n - k)], and row lo + k lies at or
    after the place. Over that range "row lo is farther than row lo + k"
    holds and then fails, and the first lo where it fails starts a nearest
    run. One binary search over all queries finds it in k.bit_length()
    rounds, and prefix sums of the sorted labels count the run's ones.
    Time is O((n + T) log n + T log k) and memory O(n + T).

    At d >= 2 the search is over sorted strips. The training rows are
    sorted by coordinate 0 and cut into strips of s = isqrt(n·w)
    consecutive rows, and each strip is sorted by coordinate 1; w is
    min(n, max(2k, 8)) at d = 2 and min(n, max(2k, 2·isqrt(n))) at d >= 3.
    For each query, the k-th smallest squared distance r² over the w rows
    around its place in its own strip bounds its true k-th neighbour
    distance from above, since k real rows reach it. Every row at squared
    distance at most r² has |t₀ - q₀| <= r and |t₁ - q₁| <= r, so it lies
    in a strip meeting [q₀ - r, q₀ + r], inside that strip's one contiguous
    run with |t₁ - q₁| <= r. The runs are found by ``searchsorted`` with
    bounds widened by a margin, on the exact integer key strip·(n + 1) +
    rank(t₁), and their rows are the candidates. On uniform data in the
    plane a query reads O(w) rows, where pruning by coordinate 0 alone
    would leave O(sqrt(n)).

    The k nearest candidates are picked with ``argpartition``. Queries are
    visited in the order of their places, EUCLIDEAN_CHUNK at a time, so
    neighbouring queries read neighbouring rows and memory is
    O(EUCLIDEAN_CHUNK · n) whatever the input. Time is
    O((n + T) log n + T·(w + R·L)) for R strips of L candidate rows per
    query.

    Squared distances are summed one coordinate at a time, and each equals
    the dense computation's bits, so the prediction equals the brute-force
    vote whenever the k-th and (k+1)-th distances differ. Distance ties at
    the k-th radius are not broken by tie keys: with continuous draws they
    have probability zero, and ``select_neighbours`` stays the reference
    for the tie rule.
    """
    n, d = train.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    order = np.argsort(train[:, 0], kind="stable")
    key0 = train[order, 0]
    places = np.searchsorted(key0, queries[:, 0])
    if d == 1:
        q, cum = queries[:, 0], np.concatenate(([0], np.cumsum(labels[order])))
        lo, hi = np.maximum(places - k, 0), np.minimum(places, n - k)
        for _ in range(k.bit_length()):  # hi - lo <= k, halved each round
            mid = (lo + hi) // 2
            # mid + k < n while lo < hi; the clip only guards finished searches
            farther = (q - key0[mid]) ** 2 > (q - key0[np.minimum(mid + k, n - 1)]) ** 2
            lo, hi = np.where((lo < hi) & farther, mid + 1, lo), np.where(farther, hi, mid)
        return (2 * (cum[lo + k] - cum[lo]) >= k).astype(np.int64)
    w = min(n, max(2 * k, 8 if d == 2 else 2 * math.isqrt(n)))
    s = math.isqrt(n * w)
    values1 = np.sort(train[:, 1])
    key = np.arange(n) // s * (n + 1) + np.searchsorted(values1, train[order, 1])
    by_strip = np.argsort(key, kind="stable")
    order, key = order[by_strip], key[by_strip]
    strip = np.minimum(places, n - 1) // s
    places = np.searchsorted(key, strip * (n + 1) + np.searchsorted(values1, queries[:, 1]))
    columns = np.ascontiguousarray(train[order].T)
    sorted_labels = labels[order]
    visit = np.argsort(places, kind="stable")
    out = np.empty(len(queries), dtype=np.int64)
    for lo in range(0, len(queries), EUCLIDEAN_CHUNK):
        these = visit[lo : lo + EUCLIDEAN_CHUNK]
        q = queries[these]
        # the window may run into a neighbouring strip: its rows are real rows
        idx = np.clip(places[these] - w // 2, 0, n - w)[:, None] + np.arange(w)
        r2 = np.partition(_gathered_d2(q, columns, idx), k - 1, axis=1)[:, k - 1]
        # fl((t - q)**2) <= r2 implies |t - q| <= sqrt(r2)·(1 + 5u) when the
        # square is a normal float, and |t - q| < 1.5e-154 when it
        # underflows, on coordinates 0 and 1 alike, since a sum of
        # nonnegative rounded terms is at least each term; so q - h <= t <=
        # q + h, and rounding to nearest is monotone, so fl(q -/+ h) keeps t
        h = np.sqrt(r2) * (1 + 1e-12) + 1e-150
        below, above = q[:, :2] - h[:, None], q[:, :2] + h[:, None]
        first = np.searchsorted(key0, below[:, 0], "left") // s
        last = (np.searchsorted(key0, above[:, 0], "right") - 1) // s
        strips = first[:, None] + np.arange((last - first).max() + 1)
        base = strips * (n + 1)
        low = np.searchsorted(values1, below[:, 1], "left")[:, None]
        high = np.searchsorted(values1, above[:, 1], "right")[:, None]
        start, stop = np.searchsorted(key, base + low), np.searchsorted(key, base + high)
        stop = np.where(strips <= last[:, None], stop, start)  # no rows past the last strip
        idx, padding = _concatenated_ranges(start, stop)
        d2 = _gathered_d2(q, columns, idx)
        d2[padding] = np.inf
        near = np.take_along_axis(idx, np.argpartition(d2, k - 1, axis=1)[:, :k], axis=1)
        out[these] = 2 * sorted_labels[near].sum(axis=1) >= k
    return out
