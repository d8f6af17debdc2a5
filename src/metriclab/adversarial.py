"""Tree-indexed adversarial learning problem in the sparse l2 space.

The problem is a mixture of two equal-mass parts over a lazily built
rooted tree: a purely atomic part sitting on per-node "hub" atoms, all
labelled 1, and a diffuse part spread uniformly over deep branches, all
labelled 0. At the scheduled sample sizes, k-NN predictions on diffuse
test points collapse to the constant 1, because the nearest hub atom
shows up in the sample far more often than everything closer.

Every node at depth i uses the same three constants:

    child offset   r_i = 2**(-6i-2)
    ball radius    eps_i = r_i / 16
    atom offset    a_i = (5/8) * r_i    (along one extra fresh direction)

The 1/16 ratio satisfies the separation inequality checked by
``verify_node`` (3*eps < r*(sqrt(2) - sqrt(1 + 25/64))) with a wide
margin. Every constant is dyadic, so float distances between materialized
points follow the exact ``distance_classes`` at small truncation depths D.
Seen from a diffuse test point, with one point per class: for D <= 3 every
squared distance is an exact double; for D = 4 some are not, but the
classes keep distinct float distances in the exact order; from D = 5
float distances merge classes of different labels (at D = 5, 27 classes
share 26 distances). So the brute-force rule on materialized points is an
oracle for the stage simulator only up to D = 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Generator, Iterable, NamedTuple, Optional

import numpy as np

from .knn import LabelledSample
from .spaces import ORIGIN, DirectionIds, SparseL2, SparsePoint, distance

TreeWord = tuple[int, ...]

INT64_MAX = 2**63 - 1
MAX_TRUNCATION = 60  # keeps every geometry constant a normal double

K_RULES = ("log2ceil", "sqrtceil", "const1")
MODES = ("proof", "empirical")


class ScheduleOverflowError(OverflowError):
    def __init__(self, stage: int, quantity: str):
        super().__init__(
            f"schedule recursion exceeds the 64-bit integer range at stage "
            f"{stage} ({quantity})"
        )
        self.stage = stage
        self.quantity = quantity


class ScheduleValidationError(ValueError):
    def __init__(self, violations: list[str]):
        super().__init__("schedule constraints violated:\n" + "\n".join(violations))
        self.violations = violations


def k_of(rule: str, n: int) -> int:
    """Number of neighbours used at sample size n."""
    if n < 1:
        raise ValueError("sample size must be positive")
    if rule == "log2ceil":
        return max(1, (n - 1).bit_length())
    if rule == "sqrtceil":
        return math.isqrt(n - 1) + 1
    if rule == "const1":
        return 1
    raise ValueError(f"unknown k rule {rule!r}")


@dataclass(frozen=True)
class Schedule:
    """Branching and sample-size sequences under the fixed mass/risk rules
    gamma_i = 2**-(i+2), summing to exactly 1/2, and the summable
    delta_i = 2**-(i+3). ``m[i]`` is the branching into depth i (children
    per depth-(i-1) node), with m[0] = 1 by convention.
    """

    m: tuple[int, ...]
    n: tuple[int, ...]
    k_rule: str = "log2ceil"
    mode: str = "empirical"

    def __post_init__(self):
        if not self.m or self.m[0] != 1:
            raise ValueError("branching sequence must start with m[0] = 1")
        if any(mi < 2 for mi in self.m[1:]):
            raise ValueError("branching values beyond the root must be >= 2")
        if any(ni < 1 for ni in self.n):
            raise ValueError("sample sizes must be positive")
        if self.k_rule not in K_RULES:
            raise ValueError(f"unknown k rule {self.k_rule!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")

    def to_json_dict(self) -> dict:
        return {
            "gamma_rule": "geometric:1/2",
            "delta_rule": "geometric:1/2:1/8",
            "k_rule": self.k_rule,
            "m": list(self.m),
            "n": list(self.n),
            "mode": self.mode,
            "max_depth": len(self.m) - 1,
        }


def gamma_value(i: int) -> Fraction:
    """Total atomic mass placed at depth i (exact)."""
    return Fraction(1, 2 ** (i + 2))


def gamma_tail(i: int) -> Fraction:
    """Total atomic mass at depths >= i (exact closed form)."""
    return Fraction(1, 2 ** (i + 1))


def delta_value(i: int) -> Fraction:
    """Failure probability allowed at stage i (exact)."""
    return Fraction(1, 2 ** (i + 3))


def occupancy_threshold(s: Schedule, i: int) -> float:
    """Sample size above which every depth-i atom shows up at least half its
    expected number of times, jointly with confidence 1 - delta_i."""
    prod = math.prod(s.m[: i + 1])
    g = gamma_value(i)
    coeff = 2 * Fraction(prod * prod) / (g * g)
    if coeff > Fraction(10) ** 300:
        return math.inf
    logs = sum(math.log(mj) for mj in s.m[: i + 1]) - math.log(delta_value(i))
    return float(coeff) * logs


def ratio_bound(s: Schedule, i: int) -> Fraction:
    """Upper bound required of k_n / n at stage i: half the depth-i atom mass."""
    prod = math.prod(s.m[: i + 1])
    return gamma_value(i) / (2 * prod)


def next_branching_bound(s: Schedule, i: int) -> Fraction:
    """Lower bound required of m[i+1] so that at most a delta_i fraction of
    the depth-(i+1) balls can hold k/2 sample points."""
    n_i = s.n[i]
    k = k_of(s.k_rule, n_i)
    prod = math.prod(s.m[: i + 1])
    return Fraction(2 * n_i, k * prod) / delta_value(i)


class StageBounds(NamedTuple):
    stage: int
    n_occupancy_bound: Optional[float]  # None in empirical mode
    n_ratio_bound: Fraction
    n_chosen: int
    k: int
    m_next_bound: Optional[Fraction]  # None in empirical mode and at the last stage
    m_next: Optional[int]


class DerivedSchedule(NamedTuple):
    schedule: Schedule

    @property
    def bounds(self) -> list[StageBounds]:
        """``stage_bounds`` of each stage, computed from the schedule."""
        return [stage_bounds(self.schedule, i) for i in range(len(self.schedule.n))]


def stage_bounds(s: Schedule, i: int) -> StageBounds:
    """Stage i's bounds beside its chosen n_i, k and m[i+1]. The neighbour-
    ratio bound applies in both modes; the occupancy and branching bounds
    only in proof mode."""
    proof = s.mode == "proof"
    n_i = s.n[i]
    m_next = s.m[i + 1] if i + 1 < len(s.m) else None
    return StageBounds(
        i,
        occupancy_threshold(s, i) if proof else None,
        ratio_bound(s, i),
        n_i,
        k_of(s.k_rule, n_i),
        next_branching_bound(s, i) if proof and m_next is not None else None,
        m_next,
    )


def validate_schedule(s: Schedule) -> list[str]:
    """All violations of the bounds ``stage_bounds`` reports; empty means valid."""
    violations: list[str] = []
    for i, n_i in enumerate(s.n):
        if i >= len(s.m):
            violations.append(f"stage {i}: no branching value m[{i}]")
            continue
        b = stage_bounds(s, i)
        if not Fraction(b.k, n_i) < b.n_ratio_bound:
            violations.append(
                f"stage {i}: k/n = {b.k}/{n_i} must be below {float(b.n_ratio_bound):.6g}"
            )
        if b.n_occupancy_bound is not None and not n_i > b.n_occupancy_bound:
            violations.append(
                f"stage {i}: n = {n_i} must exceed the occupancy bound {b.n_occupancy_bound:.6g}"
            )
        if b.m_next_bound is not None and not b.m_next > b.m_next_bound:
            violations.append(
                f"stage {i}: m[{i + 1}] = {b.m_next} must exceed {float(b.m_next_bound):.6g}"
            )
    return violations


def _minimal_n(k_rule: str, rhs: Fraction, floor_val: int) -> int:
    """Smallest n >= floor_val with k(n)/n strictly below rhs."""
    n = max(1, floor_val)
    for _ in range(256):
        k = k_of(k_rule, n)
        if Fraction(k, n) < rhs:
            return n
        need = (Fraction(k) / rhs).__floor__() + 1
        n = max(n + 1, need)
        if n > INT64_MAX:
            raise OverflowError
    raise RuntimeError("neighbour-ratio fixed point did not converge")


def minimal_branching(s: Schedule, i: int) -> int:
    """Smallest admissible m[i+1]: above the branching bound, and at least 2."""
    m_next = max(2, next_branching_bound(s, i).__floor__() + 1)
    if m_next > INT64_MAX:
        raise ScheduleOverflowError(i + 1, "m")
    return m_next


def _checked_overrides(n_override: Optional[dict[int, int]], stages: int) -> dict[int, int]:
    """The overrides, each of which must name one of the schedule's stages."""
    n_override = n_override or {}
    for stage in sorted(n_override):
        if not 0 <= stage < stages:
            raise ValueError(
                f"n_override names stage {stage}, but the schedule has stages "
                f"0..{stages - 1}"
            )
    return n_override


def _validated(s: Schedule) -> DerivedSchedule:
    """``s`` if it passes ``validate_schedule``, else ScheduleValidationError
    listing the violations."""
    violations = validate_schedule(s)
    if violations:
        raise ScheduleValidationError(violations)
    return DerivedSchedule(s)


def derive_schedule(
    depth: int, k_rule: str = "log2ceil", n_override: Optional[dict[int, int]] = None
) -> DerivedSchedule:
    """Derive the proof-mode schedule of depth+1 stages, alternating minimal
    choices: n_i is the smallest integer above both the occupancy bound and
    the neighbour-ratio bound (or a supplied override), then m[i+1] is the
    smallest admissible branching. Growth is double exponential; quantities
    beyond the 64-bit range raise ScheduleOverflowError naming the offending
    stage. An override for a stage past ``depth`` is a ValueError, and one
    below a bound a ScheduleValidationError (see ``_validated``).
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    n_override = _checked_overrides(n_override, depth + 1)
    s = Schedule((1,), (), k_rule, "proof")
    for i in range(depth + 1):
        thr = occupancy_threshold(s, i)
        if math.isinf(thr) or thr >= INT64_MAX:
            raise ScheduleOverflowError(i, "n")
        n_i = n_override.get(i)
        if n_i is None:
            try:
                n_i = _minimal_n(k_rule, ratio_bound(s, i), math.floor(thr) + 1)
            except OverflowError:
                raise ScheduleOverflowError(i, "n") from None
        s = replace(s, n=s.n + (n_i,))
        if i < depth:
            s = replace(s, m=s.m + (minimal_branching(s, i),))
    return _validated(s)


def empirical_schedule(
    m: tuple[int, ...],
    n: tuple[int, ...],
    k_rule: str = "log2ceil",
    n_override: Optional[dict[int, int]] = None,
) -> DerivedSchedule:
    """The given (m, n) sequences with the overrides applied, one stage per
    entry of n. An override for a stage n lacks is a ValueError, and
    sequences that break a bound a ScheduleValidationError."""
    n_override = _checked_overrides(n_override, len(n))
    n = tuple(n_override.get(i, v) for i, v in enumerate(n))
    return _validated(Schedule(tuple(m), n, k_rule, "empirical"))


# ---------------------------------------------------------------------------
# geometry


def child_radius(depth: int) -> float:
    return 2.0 ** (-6 * depth - 2)


def node_eps(depth: int) -> float:
    return child_radius(depth) / 16


def atom_offset(depth: int) -> float:
    return 0.625 * child_radius(depth)


def child_radius2_frac(depth: int) -> Fraction:
    return Fraction(child_radius(depth)) ** 2


def atom_offset2_frac(depth: int) -> Fraction:
    return Fraction(atom_offset(depth)) ** 2


@dataclass(frozen=True)
class NodeGeometry:
    center: SparsePoint  # the node hub (origin at the root)
    atom: SparsePoint  # hub atom, offset along its own fresh direction
    eps: float
    child_radius: float
    child_ids: range  # consecutive direction ids, one per child


class AdversarialProblem:
    """Lazily materialized adversarial learning problem.

    Geometry records are memoized once per tree word, so every draw of a
    node's hub or atom is the same point object. Sampling goes through
    ``draw_trace``, which takes an explicit generator.
    """

    def __init__(self, schedule: Schedule, truncation_depth: int):
        if not 1 <= truncation_depth <= MAX_TRUNCATION:
            raise ValueError(
                f"truncation depth must be in 1..{MAX_TRUNCATION}"
            )
        self.schedule = schedule
        self.truncation_depth = truncation_depth
        # branching padded with 2s past the schedule, for diffuse sampling
        self._branching = tuple(
            schedule.m[d] if d < len(schedule.m) else 2
            for d in range(truncation_depth + 1)
        )
        self._geometry: dict[TreeWord, NodeGeometry] = {}
        self._ids = DirectionIds()
        self._classes: Optional[tuple[DistanceClass, ...]] = None  # memo of distance_classes

    def branching_at(self, depth: int) -> int:
        return self._branching[depth]

    def geometry(self, t: Iterable[int]) -> NodeGeometry:
        word = tuple(t)
        g = self._geometry.get(word)
        if g is not None:
            return g
        depth = len(word)
        if depth > self.truncation_depth:
            raise ValueError("node lies beyond the truncation depth")
        if depth == 0:
            center = ORIGIN
        else:
            parent = self.geometry(word[:-1])
            j = word[-1]
            if not 1 <= j <= self.branching_at(depth):
                raise ValueError(f"letter {j} out of range at depth {depth}")
            center = parent.center.shift(parent.child_ids[j - 1], parent.child_radius)
        n_children = self.branching_at(depth + 1) if depth < self.truncation_depth else 0
        child_ids = self._ids.block(n_children)
        atom_id = self._ids.fresh()
        atom = center.shift(atom_id, atom_offset(depth))
        g = NodeGeometry(center, atom, node_eps(depth), child_radius(depth), child_ids)
        self._geometry[word] = g
        return g


def verify_node(problem: AdversarialProblem, t: Iterable[int]) -> bool:
    """Check the three geometric properties at a node.

    (1) through the sufficient separation inequality
        eps + d(child_hub, atom) < d(child_hub, sibling_hub) - 2*eps,
    so any point of one child ball is strictly closer to the node atom than
    to any point of a sibling's ball; (2) each child's own atom lies
    strictly inside the eps-ball around its hub; (3) grandchild balls nest
    strictly inside their parent's eps-ball.
    """
    word = tuple(t)
    depth = len(word)
    if depth + 2 > problem.truncation_depth:
        raise ValueError("node too deep to verify against its grandchildren")
    g = problem.geometry(word)
    space = SparseL2()
    children = [
        problem.geometry(word + (j,))
        for j in range(1, problem.branching_at(depth + 1) + 1)
    ]
    eps = g.eps
    for cj in children:
        lhs = eps + distance(space, cj.center, g.atom)
        for cs in children:
            if cs is cj:
                continue
            if not lhs < distance(space, cj.center, cs.center) - 2 * eps:
                return False
    for cj in children:
        if not distance(space, cj.center, cj.atom) < eps:
            return False
    for cj in children:
        for ell in range(1, problem.branching_at(depth + 2) + 1):
            gc_center = cj.center.shift(cj.child_ids[ell - 1], cj.child_radius)
            if not distance(space, cj.center, gc_center) + node_eps(depth + 1) < eps:
                return False
    return True


# ---------------------------------------------------------------------------
# measures


def atom_mass(s: Schedule, t: Iterable[int]) -> Fraction:
    """Exact atomic mass of the hub atom at tree word ``t``."""
    word = tuple(t)
    i = len(word)
    if i >= len(s.m):
        raise ValueError(f"word depth {i} exceeds the schedule depth")
    return gamma_value(i) / math.prod(s.m[: i + 1])


class BallMass(NamedTuple):
    mu0: Fraction  # diffuse mass of the node ball
    mu1: Fraction  # atomic mass of the hub atoms inside it


def ball_mass(problem: AdversarialProblem, t: Iterable[int]) -> BallMass:
    """Exact masses carried by the ball around the hub of ``t`` (depth >= 1):
    the diffuse part 1/(2 * prod of branching to that depth), plus the atomic
    mass of every hub atom in the subtree."""
    word = tuple(t)
    i = len(word)
    if i < 1:
        raise ValueError("ball masses are defined for nonroot nodes")
    if i > problem.truncation_depth:
        raise ValueError("word depth exceeds the truncation depth")
    prod = math.prod(problem.branching_at(d) for d in range(1, i + 1))
    mu0 = Fraction(1, 2 * prod)
    mu1 = gamma_tail(i) / prod
    return BallMass(mu0, mu1)


# ---------------------------------------------------------------------------
# sampling


@dataclass
class SampleTrace:
    """Provenance-level draw of an i.i.d. sample (no points materialized).

    ``atom_depth`` and ``letters`` share the narrowest integer type that
    holds -1..D and the largest branching, so a row takes 9 + (D + 1)·b
    bytes for b-byte integers: 17 MB at n = 10**6, D = 3 and branching
    2000 (int16), against 41 MB with int64 arrays. ``draw_trace`` stores
    the letters column-major, one contiguous column per level; a trace
    built by hand may hold them in either order.
    """

    is_atomic: np.ndarray  # bool (count,)
    atom_depth: np.ndarray  # int (count,), -1 exactly on the diffuse rows
    letters: np.ndarray  # int (count, truncation_depth), 1-based
    tie_keys: Optional[np.ndarray]  # float64 (count,), pairwise distinct; None if never read

    def __len__(self) -> int:
        return len(self.is_atomic)


def draw_trace(problem: AdversarialProblem, count: int, rng: np.random.Generator) -> SampleTrace:
    """Draw sample provenance: a fair atomic/diffuse coin, a geometric atom
    depth clamped at the truncation depth, uniform branch letters and
    pairwise distinct uniform tie keys.

    The coin and the depth share one uniform u: a row is atomic iff u <
    1/2, and u in [2**-(j+2), 2**-(j+1)), of probability gamma_j =
    2**-(j+2), has biased binary exponent 1021 - j, so 1021 minus the
    exponent, clamped at D, is the depth (-1 on the diffuse rows, whose
    exponent is 1022; u = 0 clamps to D). u lives on the 2**-53 grid, so
    the law is exact for depths up to 51; past that the whole error is at
    most 2**-53 of mass. The letters are drawn as int64, as
    ``draw_test_words`` draws them, and then narrowed into column-major
    storage, so the random stream does not depend on the type.

    ``rng`` then gives exactly count tie-key uniforms. count draws repeat a
    key with probability about count**2 / 2**54 (5.6e-5 at 10**6); a
    repeated key is redrawn from a side generator on a jumped copy of
    ``rng``'s bit generator, which never advances ``rng``. So what ``rng``
    draws next does not depend on whether a key repeated, and the trace
    mode of ``structured_stage_sim`` can discard the keys unsorted."""
    trace = _draw_rows(problem, count, rng)
    keys = rng.random(count)
    side = None
    ordered = np.sort(keys)
    while (ordered[1:] == ordered[:-1]).any():
        if side is None:
            side = np.random.Generator(rng.bit_generator.jumped())
        _, idx = np.unique(keys, return_index=True)
        dup = np.setdiff1d(np.arange(count), idx)
        keys[dup] = side.random(len(dup))
        ordered = np.sort(keys)
    trace.tie_keys = keys
    return trace


def _draw_rows(problem: AdversarialProblem, count: int, rng: np.random.Generator) -> SampleTrace:
    """``draw_trace`` up to its tie keys: the coin, the depth and the
    letters, with ``tie_keys`` None."""
    if count < 1:
        raise ValueError("count must be positive")
    D = problem.truncation_depth
    dtype = np.min_scalar_type(-1 - max(D, *map(problem.branching_at, range(1, D + 1))))
    u = rng.random(count)
    is_atomic = u < 0.5
    depths = u.view(np.int64)  # u's own buffer: u >= 0, so the top bits are the exponent
    depths >>= 52
    np.subtract(1021, depths, out=depths)
    np.minimum(depths, D, out=depths)
    atom_depth = depths.astype(dtype)
    del u, depths  # freed before the letters are drawn
    return SampleTrace(is_atomic, atom_depth, _draw_words(problem, count, rng, dtype), None)


def _draw_words(
    problem: AdversarialProblem, count: int, rng: np.random.Generator, dtype
) -> np.ndarray:
    """Uniform letters at each level, drawn as int64 and stored as dtype in
    column-major order, so that each level narrows into, and is later read
    from, one contiguous column."""
    words = np.empty((count, problem.truncation_depth), dtype=dtype, order="F")
    for level in range(1, problem.truncation_depth + 1):
        words[:, level - 1] = rng.integers(1, problem.branching_at(level) + 1, size=count)
    return words


def draw_test_words(
    problem: AdversarialProblem, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform diffuse branches at the truncation depth, one row per draw."""
    return _draw_words(problem, count, rng, np.int64)


def labelled_sample_from_trace(
    problem: AdversarialProblem, trace: SampleTrace
) -> LabelledSample:
    """The trace rows materialized in order: an atomic row is the hub atom
    of its word (label 1), a diffuse row the hub at its full branch (label
    0). The arrays are read as plain lists, and points are the memoized
    geometry objects."""
    geometry, D = problem.geometry, problem.truncation_depth
    atomic = trace.is_atomic.tolist()
    rows = zip(atomic, trace.atom_depth.tolist(), trace.letters.tolist())
    points = tuple(
        geometry(letters[:depth]).atom if a else geometry(letters[:D]).center
        for a, depth, letters in rows
    )
    return LabelledSample(points, tuple(map(int, atomic)), tuple(trace.tie_keys.tolist()))


# ---------------------------------------------------------------------------
# distance classes and the stage simulator


class DistanceClass(NamedTuple):
    d2: Fraction  # exact squared distance to any diffuse test point
    label: int
    prob: Fraction  # exact per-draw probability under the truncated law
    kind: str  # "atom" | "diffuse"
    depth: int  # atom word depth (diffuse rows: truncation depth)
    split: int  # common-prefix depth with the test branch


def distance_classes(problem: AdversarialProblem) -> tuple[DistanceClass, ...]:
    """All sample-point categories as seen from a diffuse test point, in
    distance order.

    By symmetry of the fresh-direction geometry, the distance from a
    diffuse test point to a sample point depends only on the sample point's
    kind, its depth, and the depth at which its branch splits from the test
    branch, so the whole sample collapses into O(D^2) exact-mass classes.
    Raises if two classes with different labels sit at the same distance
    (the constants are chosen so they never do).

    The classes depend only on the truncation depth and the branching, which
    a problem never changes, so each problem computes them once.
    """
    if problem._classes is not None:
        return problem._classes
    D = problem.truncation_depth
    r2 = [child_radius2_frac(level) for level in range(D)]
    below = [Fraction(0)] * (D + 1)  # below[h] = sum of r2[h:]
    for h in range(D - 1, -1, -1):
        below[h] = below[h + 1] + r2[h]
    inv_prefix = [Fraction(1)] * (D + 1)
    for h in range(1, D + 1):
        inv_prefix[h] = inv_prefix[h - 1] / problem.branching_at(h)

    classes: list[DistanceClass] = []
    for j in range(D + 1):
        gj = gamma_value(j) if j < D else gamma_tail(D)
        a2 = atom_offset2_frac(j)
        classes.append(
            DistanceClass(below[j] + a2, 1, gj * inv_prefix[j], "atom", j, j)
        )
        for h in range(j):
            frac = inv_prefix[h] * (1 - Fraction(1, problem.branching_at(h + 1)))
            d2 = below[h] + (below[h] - below[j]) + a2
            classes.append(DistanceClass(d2, 1, gj * frac, "atom", j, h))
    for h in range(D):
        frac = inv_prefix[h] * (1 - Fraction(1, problem.branching_at(h + 1)))
        classes.append(
            DistanceClass(2 * below[h], 0, Fraction(1, 2) * frac, "diffuse", D, h)
        )
    classes.append(
        DistanceClass(Fraction(0), 0, Fraction(1, 2) * inv_prefix[D], "diffuse", D, D)
    )

    total = sum(c.prob for c in classes)
    if total != 1:
        raise RuntimeError(f"class probabilities sum to {total}, not 1")
    classes.sort(key=lambda c: c.d2)
    for a, b in zip(classes, classes[1:]):
        if a.d2 == b.d2 and a.label != b.label:
            raise RuntimeError(
                "distance tie between classes of different labels; "
                "the tie-free geometry assumption is broken"
            )
    problem._classes = tuple(classes)
    return problem._classes


def _vote_dtype(k: int) -> type:
    """The narrowest signed integer type that holds 2k. Signed, so that
    every operation mixing it with int64 counts stays in int64 (numpy takes
    uint64 with int64 to float64)."""
    for dtype in (np.int8, np.int16, np.int32):
        if 2 * k <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _vote(classes: tuple[DistanceClass, ...], counts: Generator[np.ndarray, None, None],
          k: int) -> np.ndarray:
    """Trace mode's k-NN vote from per-class sample counts, one length-T
    int64 vector per class in distance order; label 1 wins with half the
    votes. need, ones and one reused votes buffer take ``_vote_dtype(k)``:
    a class's votes are min(count, need), taken in int64 and at most need
    <= k, so the cast into votes is exact. Each count is dropped before the
    next is read, and ``counts`` is closed, with whatever it still holds,
    before the predictions are allocated; so beside the counts the vote
    holds 3·b·T bytes for b-byte integers. Stops reading ``counts`` once
    every point has its k neighbours."""
    need = ones = votes = None  # need = max(k - before, 0), before = points met so far
    for c in classes:
        count = next(counts)
        if need is None:
            need = np.full(count.shape, k, dtype=_vote_dtype(k))
            ones, votes = np.zeros_like(need), np.empty_like(need)
        np.minimum(count, need, out=votes, casting="unsafe")  # the votes of this class
        del count
        need -= votes
        if c.label:
            ones += votes
        if not need.any():
            break
    counts.close()
    del need, votes
    ones *= 2
    return (ones >= k).astype(np.int64)


TAIL_LOG = 40.0  # a capped row leaves out at most e**-TAIL_LOG of mass on each side
ROW_CELLS = 1 << 16  # capped-row cells per multinomial call of the counted chain


def _windows(N: np.ndarray, need: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Per state, the outcomes [lo, hi] of Binomial(N, q) beyond which lies
    at most e**-TAIL_LOG of its mass on each side, lo clipped to need (so
    lo == need means the capped outcome is need up to that mass). With
    mu = N q, the multiplicative Chernoff bounds P(Y >= mu + t) <=
    exp(-t²/(2 mu + t)) and P(Y <= mu - t) <= exp(-t²/(2 mu)) are at most
    e**-TAIL_LOG at t = (c + sqrt(c² + 8 c mu)) / 2, c = TAIL_LOG."""
    mu = N * q
    t = 0.5 * (TAIL_LOG + np.sqrt(TAIL_LOG * (TAIL_LOG + 8 * mu)))
    lo = np.minimum(np.maximum(np.floor(mu - t), 0), need).astype(np.int64)
    hi = np.minimum(np.ceil(mu + t), N).astype(np.int64)  # >= lo, as N >= need
    return lo, hi


def _capped_rows(
    N: np.ndarray, need: np.ndarray, q: float, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """One row per state of the capped law min(Binomial(N, q), need) on the
    outcomes lo..min(hi, need), right-aligned in a zero-padded (S, W)
    array, W = max(hi - lo) + 1: column W - 1 holds each row's largest
    outcome, so ``rng.multinomial``, which gives what is left to the last
    column, never puts a point on a padding column.

    Log space, relative to the window start: log p(y + 1) - log p(y) =
    log((N - y)/(y + 1)) + log q - log1p(-q), summed from lo; that is the
    sum of log((N - j)/(j + 1)) + y log q + (N - y) log1p(-q) from j = lo
    on, and the constant log p(lo) is never formed, so no log-factorial of
    N (whose float has no digits left at N = 10**13) enters. Each row is
    exponentiated from its maximum, the outcomes past need are folded into
    need, and the row is renormalised: it holds all but at most
    2·e**-TAIL_LOG of the mass, and the raw sums drift from 1 by rounding.
    """
    width = int((hi - lo).max()) + 1
    y = lo[:, None] + np.arange(width)  # outcome per column, before alignment
    inside = y <= hi[:, None]
    step = np.log(np.where(y < hi[:, None], N[:, None] - y, 1) / (y + 1.0))
    step += math.log(q) - math.log1p(-q)  # log p(y + 1) - log p(y) on y < hi
    logp = np.zeros(y.shape)
    np.cumsum(step[:, :-1], axis=1, out=logp[:, 1:])
    logp[~inside] = -np.inf
    logp -= logp.max(axis=1, keepdims=True)
    rows = np.exp(logp)
    past = y >= need[:, None]
    folded = np.where(past, rows, 0).sum(axis=1)
    rows[past] = 0
    # column need - lo when some outcome is past need, else one that gets 0
    rows[np.arange(len(rows)), np.minimum(need - lo, width - 1)] += folded
    rows /= rows.sum(axis=1, keepdims=True)
    # right-align: the last outcome min(hi, need) moves to column width - 1
    shift = width - 1 - (np.minimum(hi, need) - lo)
    cols = np.arange(width) - shift[:, None]
    return np.where(cols >= 0, np.take_along_axis(rows, np.maximum(cols, 0), axis=1), 0.0)


def _multinomial_rows(width: np.ndarray, g: np.ndarray) -> np.ndarray:
    """States whose g points are drawn as one multinomial over their row:
    those whose row is no wider than g, so a class costs at most T draws."""
    return width <= g


def _per_point_draw(
    rng: np.random.Generator, n_k: int, need: np.ndarray, ones: np.ndarray, q: float, label: int
) -> None:
    """One point per entry takes y = min(Binomial(n_k + need, q), need) of
    a class of the given label, by one plain binomial draw each; need and
    ones are updated in place."""
    N = need.astype(np.int64)
    N += n_k
    y = rng.binomial(N, q)
    del N
    np.minimum(y, need, out=y)
    need -= y
    if label:
        ones += y


def _counted_draw(
    rng: np.random.Generator, n_k: int, need: np.ndarray, ones: np.ndarray, g: np.ndarray,
    q: float, label: int,
) -> list:
    """One class of a given label on a (need, ones, g) table: the capped
    outcomes min(Binomial(N, q), need), N = n_k + need, for the g points
    of each state,

    - no draw where the window of ``_windows`` lies past need: y = need;
    - one ``rng.multinomial(g, row)`` over the capped row of
      ``_capped_rows`` where ``_multinomial_rows`` says so; rows of widths
      in [2**(b-1), 2**b) share a call, up to ROW_CELLS cells a call;
    - else, after those draws, g plain binomials (``_per_point_draw``),

    as the parts of the next table: the states that took at most one draw
    as (need, ones, g), then the points drawn one by one, in state order,
    as (need, ones, None).
    """
    N = need.astype(np.int64)
    N += n_k
    lo, hi = _windows(N, need, q)
    fixed, width = lo == need, hi - lo + 1
    multi = ~fixed & _multinomial_rows(width, g)
    parts = [(np.flatnonzero(fixed), need[fixed], g[fixed])]
    rows = np.flatnonzero(multi)
    bucket = np.frexp(width[rows])[1]
    for b in np.unique(bucket):
        these, per_call = rows[bucket == b], max(1, ROW_CELLS >> int(b))
        for start in range(0, len(these), per_call):
            sel = these[start : start + per_call]
            counts = rng.multinomial(g[sel], _capped_rows(N[sel], need[sel], q, lo[sel], hi[sel]))
            row, col = np.nonzero(counts)
            # column col holds outcome min(hi, need) - (width - 1 - col)
            top = np.minimum(hi[sel], need[sel])[row]
            parts.append((sel[row], top - (counts.shape[1] - 1 - col), counts[row, col]))
    single = np.flatnonzero(~fixed & ~multi)
    del N, lo, hi, fixed, width, multi  # freed before the per-point draws
    idx, y, counted_g = (np.concatenate(a) for a in zip(*parts))
    need_c, ones_c = need[idx], ones[idx]
    need_c -= y
    if label:
        ones_c += y
    del parts, idx, y
    reps = g[single]
    need_p, ones_p = np.repeat(need[single], reps), np.repeat(ones[single], reps)
    del single, reps
    if len(need_p):  # at small k most classes draw no point on its own
        _per_point_draw(rng, n_k, need_p, ones_p, q, label)
    return [(need_c, ones_c, counted_g), (need_p, ones_p, None)]


def _held(g: Optional[np.ndarray], mask: np.ndarray) -> int:
    """The points of the states in mask; g None means one point each."""
    return int(np.count_nonzero(mask)) if g is None else int(g[mask].sum())


def _filled(parts: list, k: int) -> tuple[list, int, int]:
    """The states whose vote is full (need 0) taken out of the table parts,
    (need, ones, g) triples with g None for one point a state: the parts
    left, the points taken out and how many of them vote 1."""
    left, out, voted = [], 0, 0
    for need, ones, g in parts:
        done = need == 0
        if done.any():
            out += _held(g, done)
            voted += _held(g, done & (2 * ones >= k))
            need, ones, g = need[~done], ones[~done], None if g is None else g[~done]
        left.append((need, ones, g))
    return left, out, voted


def _bounds(*arrays: np.ndarray) -> tuple[int, int]:
    """The least and the largest value over arrays, not all empty."""
    full = [a for a in arrays if len(a)]
    return min(int(a.min()) for a in full), max(int(a.max()) for a in full)


def _merged(counted: tuple, per_point: tuple, points: int) -> tuple:
    """One (need, ones, g) table of a class's states, ``counted`` as
    (need, ones, g) and ``per_point`` as (need, ones, None), one point a
    state. States with equal (need, ones) are merged when their box of
    keys has no more cells than the states have points, the per-point
    keys counted without weights; in a wider box they hold a point or two
    each, too few for a multinomial row, and are joined in order."""
    (need_c, ones_c, g_c), (need_p, ones_p, _) = counted, per_point
    need0, need1 = _bounds(need_c, need_p)
    ones0, ones1 = _bounds(ones_c, ones_p)
    span = ones1 - ones0 + 1
    size = (need1 - need0 + 1) * span
    if size > points:
        g = np.ones(len(need_c) + len(need_p), dtype=np.int64)
        g[: len(g_c)] = g_c
        return np.concatenate((need_c, need_p)), np.concatenate((ones_c, ones_p)), g

    def key(need, ones):
        key = need.astype(np.int64)
        key -= need0
        key *= span
        key += ones
        key -= ones0
        return key

    tally = np.bincount(key(need_p, ones_p), minlength=size)
    np.add.at(tally, key(need_c, ones_c), g_c)
    keys = np.flatnonzero(tally)
    dtype = need_c.dtype
    return (keys // span + need0).astype(dtype), (keys % span + ones0).astype(dtype), tally[keys]


def _fresh_ones(
    problem: AdversarialProblem, n: int, k: int, test_count: int, rng: np.random.Generator
) -> int:
    """How many of test_count test points, each with its own independent
    n-sample, the k-NN vote predicts 1: a counted state chain.

    A point's vote state before a class is (need, ones): it still needs
    need neighbours and holds ones label-1 votes. Until the vote is full
    each class's count was below its need, so k - need sample points are
    drawn and N = n - (k - need) are left; the class takes min(Binomial(N,
    q), need) of them, q = P(class | not an earlier class). The T points
    are exchangeable, so the chain keeps a table of occupied states (need,
    ones, g), g points each, starting from (k, 0, T), and per class draws
    how many of a state's g points take each outcome (``_counted_draw``).
    Once every state holds one point, the chain drops g and draws one
    plain binomial per point (``_per_point_draw``). The last class takes
    the rest, y = min(N, need) = need. A point whose need reaches 0 leaves
    the table and counts as 1 if 2·ones >= k, and the chain stops when the
    table is empty. States with equal (need, ones) are merged
    (``_merged``).

    Law: every state's points draw independently from the same row, so the
    T predictions are iid Bernoulli(p') for the p' that the chain's rows
    give. Against the exact p of the chain with float q (the per-point
    chain's law), |p' - p| is at most the sum over classes of the largest
    row error: the 2·e**-TAIL_LOG of mass outside the window (below 1e-17),
    plus the rounding of a row's log sums, about W·(TAIL_LOG + log N)·2**-53
    relative per entry for a row of width W (below 1e-10 at W = 10**4).
    Memory: need and ones take ``_vote_dtype(k)`` and g int64 a state,
    and g is dropped once each state holds one point; a class's per-point
    draws add two int64 a point, and its capped rows at most ROW_CELLS
    cells a call. So at (n, k) = (157000, 16384) on m = (1, 4, 3, 3) and
    T = 10**6, where a class draws about T binomials, the peak is 27 MiB.
    """
    vote = _vote_dtype(k)
    need, ones = np.array([k], dtype=vote), np.zeros(1, dtype=vote)
    g = np.array([test_count], dtype=np.int64)  # None once each state holds one point
    points, predicted, rem_p = test_count, 0, Fraction(1)  # points: sum of g
    for c in distance_classes(problem):
        q = float(c.prob / rem_p)
        rem_p -= c.prob
        if q == 0:
            continue
        least, most = int(need.min()), int(need.max())
        # the class takes the rest, or its window lies past every need (the
        # window's lower end grows with N once it is past need >= 1)
        if rem_p == 0 or q >= 1 or _windows(n - k + least, most, q)[0] >= most:
            return predicted + _held(g, 2 * (ones + c.label * need) >= k)
        # every state holds one point, and so draws per point (rows are at
        # least 2 wide) without reading its window
        if g is not None and len(g) == points and not _multinomial_rows(2, g).any():
            g = None
        if g is None:
            if most - least < 2**16:
                # equal N side by side, so the binomial sampler keeps its
                # set-up from draw to draw (a stable 16-bit sort is a radix sort)
                order = np.argsort((need - least).astype(np.uint16), kind="stable")
                need, ones = need[order], ones[order]
                del order
            _per_point_draw(rng, n - k, need, ones, q, c.label)
            parts = [(need, ones, None)]
        else:
            parts = _counted_draw(rng, n - k, need, ones, g, q, c.label)
        del need, ones, g
        parts, out, voted = _filled(parts, k)
        points -= out
        predicted += voted
        if not points:
            break
        need, ones, g = parts[0] if len(parts) == 1 else _merged(*parts, points)
        del parts
    return predicted


CHUNK = 1 << 16  # trace rows per block of the trace kernel


def _trace_predictions(
    problem: AdversarialProblem, trace: SampleTrace, test_words: np.ndarray, k: int
) -> np.ndarray:
    """Count-based predictions over one shared sample trace, equal point for
    point to the brute-force rule (nearest by distance, then by smaller tie
    key): each distance class has one label and classes at one distance
    share it (``distance_classes`` raises otherwise), so the label sum of
    the k nearest does not depend on which tied rows the keys pick.

    Rows fall into groups keyed by ``atom_depth + 1``: j + 1 for atoms at
    depth j, 0 for diffuse rows (which have D letters; ``SampleTrace``
    keeps their depth at -1), so ``is_atomic`` is never read. The words'
    distinct letters and prefixes at each level are found once. Then one
    pass, CHUNK rows at a time, filters the rows down the prefix trie of
    the test words without sorting the sample. Level 0 is taken over whole
    columns: the block's groups are counted in one bincount, and
    ``np.isin`` on the block's level-0 column, with depth != 0 (root atoms
    have no letter), picks the rows before any is gathered; so the letters
    are best column-major, as ``draw_trace`` stores them. At a level h > 0
    only the rows that match some word's h-prefix remain; of them,
    ``np.isin`` keeps those whose next letter is among the words' distinct
    letters at that level. ``np.isin`` works by a lookup table when the
    letters' span is at most 6·(rows + letters), else by sorting or, for
    fewer than 10·rows**0.145 letters, one comparison per letter; so its
    memory is O(CHUNK + T) for any letters. Only the rows kept find their
    letter index by binary search, and the pair (prefix id, letter index)
    is looked up among the words' (h+1)-prefixes; at h = 0 there is one
    empty prefix, so the letter index is already the 1-prefix id and
    the lookup is skipped. Each block's bincount per level is added to
    ge[h + 1], the rows of each group agreeing with each word on h + 1
    letters; ge[h] - ge[h+1] rows split at h. Lookup keys stay below T**2,
    so no letter is ever packed into an integer. Time: O(T D log T) for
    the words, and per block and level O(CHUNK + T) for the filter plus
    O(log T) for each row that passes it (O((CHUNK + T) log(CHUNK + T))
    where the filter sorts); beyond the trace, O(CHUNK + D T + D**2 P)
    memory for at most P distinct prefixes per level (P <= T).
    """
    D, T = problem.truncation_depth, len(test_words)
    groups = D + 2
    # per level h: the words' distinct letters and (h+1)-prefixes; pids[h]:
    # each word's prefix id at length h
    levels, pids = [], [np.zeros(T, dtype=np.int64)]
    for h in range(D):
        letters = np.unique(test_words[:, h])
        word_keys = pids[h] * len(letters) + np.searchsorted(letters, test_words[:, h])
        prefixes, word_pid = np.unique(word_keys, return_inverse=True)
        levels.append((letters, prefixes))
        pids.append(word_pid)
    # tables[h][g, p]: rows of group g matching prefix p of length h
    tables = [np.zeros((groups, 1), dtype=np.int64)]
    tables += [np.zeros((groups, len(prefixes)), dtype=np.int64) for _, prefixes in levels]
    for lo in range(0, len(trace), CHUNK):
        block = slice(lo, lo + CHUNK)
        depth, block_letters = trace.atom_depth[block], trace.letters[block]
        tables[0][:, 0] += np.bincount(depth + 1, minlength=groups)
        # rows with a letter at level 0 (not root atoms) that some word has
        rows = np.flatnonzero(np.isin(block_letters[:, 0], levels[0][0]) & (depth != 0))
        for h, (letters, prefixes) in enumerate(levels):
            row_letter = block_letters[rows, h]
            if h == 0:
                row_pid = np.searchsorted(letters, row_letter)
            else:
                hit = np.isin(row_letter, letters)
                rows, row_letter = rows[hit], row_letter[hit]
                row_pid = row_pid[hit] * len(letters) + np.searchsorted(letters, row_letter)
                pos = np.minimum(np.searchsorted(prefixes, row_pid), len(prefixes) - 1)
                hit = prefixes[pos] == row_pid  # prefix and letter may each occur, the pair not
                rows, row_pid = rows[hit], pos[hit]
            # int64, so that the bincount keys group * P + pid cannot wrap
            row_group = depth[rows].astype(np.int64) + 1
            P = len(prefixes)
            keys = row_group * P + row_pid
            tables[h + 1] += np.bincount(keys, minlength=groups * P).reshape(groups, P)
            # diffuse rows go on; atoms at depth h + 1 have no further letter
            deeper = (row_group == 0) | (row_group > h + 2)
            rows, row_pid = rows[deeper], row_pid[deeper]

    def counts():
        for c in classes:
            g, h = (c.depth + 1 if c.kind == "atom" else 0), c.split
            ge = tables[h][g, pids[h]]
            if h < c.depth:
                ge -= tables[h + 1][g, pids[h + 1]]
            yield ge

    classes = distance_classes(problem)
    return _vote(classes, counts(), k)


def _arranged(ones: int, test_count: int, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random arrangement of ones 1s among test_count int8
    predictions: the fewer label goes to a uniform subset of positions,
    which ``rng.choice`` draws in O(subset) while the subset is at most a
    twentieth of the positions (Floyd's algorithm)."""
    majority = int(2 * ones > test_count)
    preds = np.full(test_count, majority, dtype=np.int8)
    fewer = min(ones, test_count - ones)
    preds[rng.choice(test_count, fewer, replace=False, shuffle=False)] = 1 - majority
    return preds


def binomial_stderr(p: float, count: int) -> float:
    """Standard error of a fraction p of count independent draws, floored at
    sqrt(1e-12 / count) so that a Monte Carlo row always carries a positive
    stderr."""
    return math.sqrt(max(p * (1.0 - p), 1e-12) / count)


class StageSimResult(NamedTuple):
    fraction: float  # fraction of diffuse test points predicted 1
    stderr: float
    predictions: np.ndarray


def structured_stage_sim(
    problem: AdversarialProblem,
    stage: int,
    n: int,
    k: int,
    test_count: int,
    seed: int,
    sample_mode: str = "fresh",
) -> StageSimResult:
    """Simulate k-NN predictions on diffuse test points at one stage without
    materializing the n sample points.

    ``fresh`` gives each test point an independent n-sample (the estimator
    used by the experiment runners). It draws how many points end in each
    vote state (need, ones) as a counted state chain over the distance
    classes, with one multinomial per state where its capped binomial row
    is no wider than its point count and plain binomials per point
    elsewhere (``_fresh_ones``), and returns that many 1s in a uniformly
    random int8 arrangement (``_arranged``): T iid Bernoulli(p') values,
    p' within the row errors that ``_fresh_ones`` bounds of the per-point
    chain's p. ``trace`` draws the rows of one shared provenance trace,
    discards its tie keys unsorted (``draw_trace`` redraws a repeated key
    off the main stream, and the count kernel never reads them), then
    draws the test words; so for the same seed it reproduces exactly what
    the brute-force classifier sees on ``draw_trace`` followed by
    ``draw_test_words`` (int64 predictions).
    """
    if stage < 0 or stage + 1 > problem.truncation_depth:
        raise ValueError("stage must satisfy stage + 1 <= truncation depth")
    if not 1 <= k <= n:
        raise ValueError("k must lie in 1..n")
    if test_count < 1:
        raise ValueError("test count must be positive")
    rng = np.random.default_rng(seed)
    if sample_mode == "fresh":
        preds = _arranged(_fresh_ones(problem, n, k, test_count, rng), test_count, rng)
    elif sample_mode == "trace":
        trace = _draw_rows(problem, n, rng)
        rng.random(n)  # draw_trace's tie keys, which the count kernel never reads
        words = draw_test_words(problem, test_count, rng)
        preds = _trace_predictions(problem, trace, words, k)
    else:
        raise ValueError(f"unknown sample mode {sample_mode!r}")
    frac = float(preds.mean())
    return StageSimResult(frac, binomial_stderr(frac, test_count), preds)
