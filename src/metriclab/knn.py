"""k-NN and 1-NN classification with explicit distance/vote tie handling."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .spaces import MetricSpace, Point, distance


class TieStrategy(Enum):
    # distance ties at the k-th radius: prefer smaller tie key vs lower index
    UNIFORM_RANDOM = "uniform_random"
    FIRST_INDEX = "first_index"


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


def r_k(sample: LabelledSample, x: Point, k: int, space: MetricSpace) -> float:
    """Smallest radius of a closed ball around ``x`` holding k sample points."""
    n = len(sample)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    return sorted(_distances(sample, x, space))[k - 1]


def _distances(sample: LabelledSample, x: Point, space: MetricSpace) -> list[float]:
    """``distance(space, x, p)`` for each sample point, evaluated once per
    distinct point object: points are frozen, so an object has one distance."""
    distinct = {id(p): p for p in sample.points}
    by_id = {key: distance(space, x, p) for key, p in distinct.items()}
    return [by_id[id(p)] for p in sample.points]


def select_neighbours(
    sample: LabelledSample,
    x: Point,
    k: int,
    strategy: TieStrategy,
    space: MetricSpace,
) -> list[int]:
    """Indices of the k nearest neighbours of ``x``.

    Distances are ``distance(space, x, p)``, query first: Heisenberg
    ``distance`` is not bitwise symmetric, so the reverse order can differ.
    Everything strictly inside the k-th radius is taken; the remaining
    slots are filled from the boundary, preferring smaller tie keys
    (UNIFORM_RANDOM) or lower indices (FIRST_INDEX).
    """
    n = len(sample)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    dists = _distances(sample, x, space)
    radius = sorted(dists)[k - 1]
    inside = [i for i, d in enumerate(dists) if d < radius]
    boundary = [i for i, d in enumerate(dists) if d == radius]
    if strategy is TieStrategy.UNIFORM_RANDOM:
        boundary.sort(key=lambda i: sample.tie_keys[i])
    need = k - len(inside)
    return inside + boundary[:need]


def knn_predict(
    sample: LabelledSample,
    x: Point,
    k: int,
    strategy: TieStrategy,
    space: MetricSpace,
) -> int:
    """Majority label among the k nearest neighbours; vote ties go to 1."""
    chosen = select_neighbours(sample, x, k, strategy, space)
    ones = sum(sample.labels[i] for i in chosen)
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


def euclidean_vote(
    train: np.ndarray, labels: np.ndarray, queries: np.ndarray, k: int
) -> np.ndarray:
    """k-NN predictions for (T, d) query rows against (n, d) training rows
    with 0/1 labels; vote ties go to label 1.

    Exact sorted-slab search. The training rows are sorted once by
    coordinate 0. For each query, the k-th smallest squared distance r²
    over a window of w = min(n, max(2k, 2·isqrt(n))) sorted rows around
    its place in that order bounds its true k-th neighbour distance from
    above, since k real rows reach it. Every row at squared distance at
    most r² lies in the slab |t₀ - q₀| <= r, which ``searchsorted`` finds
    with bounds rounded outward. The k nearest are picked from the query's
    own slab with ``argpartition``. Time is O(n log n + T·(w + s)) for
    slabs of s rows; queries are taken EUCLIDEAN_CHUNK at a time, so memory
    is O(EUCLIDEAN_CHUNK · n) whatever the input.

    Squared distances are summed one coordinate at a time, and each equals
    the dense computation's bits, so the prediction equals the brute-force
    vote whenever the k-th and (k+1)-th distances differ. Distance ties at
    the k-th radius are not broken by tie keys: with continuous draws they
    have probability zero, and ``select_neighbours`` stays the reference
    for the tie rule.
    """
    n = len(train)
    order = np.argsort(train[:, 0], kind="stable")
    columns = np.ascontiguousarray(train[order].T)
    key, sorted_labels = columns[0], labels[order]
    w = min(n, max(2 * k, 2 * math.isqrt(n)))
    out = np.empty(len(queries), dtype=np.int64)
    for lo in range(0, len(queries), EUCLIDEAN_CHUNK):
        q = queries[lo : lo + EUCLIDEAN_CHUNK]
        q0 = q[:, 0]
        first = np.clip(np.searchsorted(key, q0) - w // 2, 0, n - w)
        window = first[:, None] + np.arange(w)
        r2 = np.partition(_gathered_d2(q, columns, window), k - 1, axis=1)[:, k - 1]
        # fl((t0 - q0)**2) <= r2 implies |t0 - q0| <= sqrt(r2)·(1 + 5u) when
        # the square is a normal float, and |t0 - q0| < 1.5e-154 when it
        # underflows; nextafter undoes the rounding of q0 -/+ h
        h = np.sqrt(r2) * (1 + 1e-12) + 1e-150
        start = np.searchsorted(key, np.nextafter(q0 - h, -np.inf), "left")
        stop = np.searchsorted(key, np.nextafter(q0 + h, np.inf), "right")
        slab = start[:, None] + np.arange((stop - start).max())
        padding = slab >= stop[:, None]
        np.minimum(slab, n - 1, out=slab)
        d2 = _gathered_d2(q, columns, slab)
        d2[padding] = np.inf
        near = np.take_along_axis(slab, np.argpartition(d2, k - 1, axis=1)[:, :k], axis=1)
        out[lo : lo + EUCLIDEAN_CHUNK] = 2 * sorted_labels[near].sum(axis=1) >= k
    return out
