"""k-NN and 1-NN classification with explicit distance/vote tie handling."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .spaces import MetricSpace, Point, Real, Vec, distance


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


@dataclass(frozen=True)
class LearningProblem:
    """A distribution of labelled data: point sampler plus regression function."""

    sampler: Callable[[np.random.Generator], tuple[Point, int]]
    eta: Callable[[Point], float]
    bayes_error: Optional[float] = None


def r_k(sample: LabelledSample, x: Point, k: int, space: MetricSpace) -> float:
    """Smallest radius of a closed ball around ``x`` holding k sample points."""
    n = len(sample)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    dists = sorted(distance(space, x, p) for p in sample.points)
    return dists[k - 1]


def select_neighbours(
    sample: LabelledSample,
    x: Point,
    k: int,
    strategy: TieStrategy,
    space: MetricSpace,
) -> list[int]:
    """Indices of the k nearest neighbours of ``x``.

    Everything strictly inside the k-th radius is taken; the remaining
    slots are filled from the boundary, preferring smaller tie keys
    (UNIFORM_RANDOM) or lower indices (FIRST_INDEX).
    """
    n = len(sample)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    dists = [distance(space, x, p) for p in sample.points]
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


def empirical_error(predictions: Sequence[int], truths: Sequence[int]) -> float:
    """Fraction of disagreements between two equal-length label sequences."""
    if len(predictions) != len(truths) or len(predictions) == 0:
        raise ValueError("prediction and truth sequences must have equal length >= 1")
    wrong = sum(1 for p, t in zip(predictions, truths) if p != t)
    return wrong / len(predictions)


class BayesEstimate(NamedTuple):
    value: float
    stderr: float


def bayes_error(problem: LearningProblem, mc_samples: int, seed: int) -> BayesEstimate:
    """Bayes error of the problem: exact when stored, else a Monte Carlo mean
    of min(eta, 1-eta) with its standard error."""
    if problem.bayes_error is not None:
        return BayesEstimate(problem.bayes_error, 0.0)
    rng = np.random.default_rng(seed)
    vals = np.empty(mc_samples)
    for i in range(mc_samples):
        x, _ = problem.sampler(rng)
        e = problem.eta(x)
        vals[i] = min(e, 1.0 - e)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(mc_samples)) if mc_samples > 1 else 0.0
    return BayesEstimate(mean, stderr)


def _pack_euclidean(points: Sequence[Point]) -> Optional[np.ndarray]:
    if all(isinstance(p, Real) for p in points):
        return np.array([[p.value] for p in points])
    if all(isinstance(p, Vec) for p in points):
        dims = {len(p.coords) for p in points}
        if len(dims) == 1:
            return np.array([p.coords for p in points])
    return None


EUCLIDEAN_CHUNK = 256  # queries per distance block


def euclidean_vote(
    train: np.ndarray, labels: np.ndarray, queries: np.ndarray, k: int
) -> np.ndarray:
    """k-NN predictions for (T, d) query rows against (n, d) training rows
    with 0/1 labels; vote ties go to label 1.

    Queries are taken EUCLIDEAN_CHUNK at a time, so memory is
    O(EUCLIDEAN_CHUNK * n) whatever T is. Squared distances are summed one
    coordinate at a time. Distance ties at the k-th radius are not broken
    by tie keys: with continuous draws they have probability zero, and
    ``select_neighbours`` stays the reference for the tie rule.
    """
    out = np.empty(len(queries), dtype=np.int64)
    for lo in range(0, len(queries), EUCLIDEAN_CHUNK):
        q = queries[lo : lo + EUCLIDEAN_CHUNK]
        d2 = (q[:, None, 0] - train[None, :, 0]) ** 2
        for j in range(1, train.shape[1]):
            d2 += (q[:, None, j] - train[None, :, j]) ** 2
        ones = labels[np.argpartition(d2, k - 1, axis=1)[:, :k]].sum(axis=1)
        out[lo : lo + EUCLIDEAN_CHUNK] = 2 * ones >= k
    return out


def one_nn_error_estimate(
    problem: LearningProblem,
    n: int,
    test_points: int,
    space: MetricSpace,
    seed: int,
) -> float:
    """Monte Carlo estimate of the 1-NN misclassification probability at
    sample size ``n``.

    Labels are generated through the threshold coupling: a uniform variate
    Z per point, label = 1 iff Z <= eta(point).
    """
    if n < 1:
        raise ValueError("sample size must be positive")
    rng = np.random.default_rng(seed)
    train_pts = [problem.sampler(rng)[0] for _ in range(n)]
    train_lab = np.array(
        [1 if rng.random() <= problem.eta(p) else 0 for p in train_pts]
    )
    test_pts = [problem.sampler(rng)[0] for _ in range(test_points)]
    test_lab = np.array([1 if rng.random() <= problem.eta(p) else 0 for p in test_pts])

    packed_train = _pack_euclidean(train_pts)
    packed_test = _pack_euclidean(test_pts) if packed_train is not None else None
    if packed_train is not None and packed_test is not None:
        pred = euclidean_vote(packed_train, train_lab, packed_test, 1)
    else:
        nn = np.array(
            [
                min(range(n), key=lambda i: distance(space, q, train_pts[i]))
                for q in test_pts
            ]
        )
        pred = train_lab[nn]
    return float((pred != test_lab).mean())
