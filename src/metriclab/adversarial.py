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
from functools import partial
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional

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

CHUNK = 1 << 16  # rows per piece of a drawn letter column and per block of the trace kernel
TABLE_SPAN = 6  # letter tables span at most TABLE_SPAN·(CHUNK + T) entries, as np.isin's do


def _layout_depths(D: int) -> list[int]:
    """The depth of each row group of a trace in layout order: the diffuse
    rows (-1), then the atoms at depth D down to 0."""
    return [-1, *range(D, -1, -1)]


@dataclass
class SampleTrace:
    """Provenance-level draw of an i.i.d. sample (no points materialized).

    The rows are laid out by group (``_layout_depths``): the diffuse rows,
    then the atoms from depth D down to 0, so the D + 2 group sizes say
    what each row is. The letters take the narrowest signed integer type
    that holds the largest branching, so a row takes D·b bytes for b-byte
    integers, plus 8 for its tie key: 6 MB of letters at n = 10**6, D = 3
    and branching 2000 (int16). A row's letters past its atom depth are
    never read. ``draw_trace`` stores the letters column-major, one
    contiguous column per level; a trace built by hand may hold them in
    either order.
    """

    group_sizes: np.ndarray  # int (D + 2,), in layout order
    letters: np.ndarray  # int (count, truncation_depth), 1-based
    tie_keys: Optional[np.ndarray]  # float64 (count,), pairwise distinct; None if never read

    def __len__(self) -> int:
        return len(self.letters)

    def depths(self) -> np.ndarray:
        """Each row's atom depth, -1 on the diffuse rows."""
        return np.repeat(_layout_depths(len(self.group_sizes) - 2), self.group_sizes)


def draw_trace(problem: AdversarialProblem, count: int, rng: np.random.Generator) -> SampleTrace:
    """Draw sample provenance: the rows of ``_draw_rows`` (a fair
    atomic/diffuse coin, a geometric atom depth clamped at the truncation
    depth and uniform branch letters), then pairwise distinct uniform tie
    keys, iid and independent of the rows. The rows come grouped, so their
    order carries no information; only the keys order the sample's ties.

    ``rng`` gives exactly count tie-key uniforms. count draws repeat a key
    with probability about count**2 / 2**54 (5.6e-5 at 10**6); a repeated
    key is redrawn from a side generator on a jumped copy of ``rng``'s bit
    generator, which never advances ``rng``. So what ``rng`` draws next
    does not depend on whether a key repeated, and the trace mode of
    ``structured_stage_sim`` can skip the keys (``_skip_uniforms``)
    instead of drawing them."""
    trace = _draw_rows(problem, count, rng)
    keys = rng.random(count)
    side = None
    ordered = np.sort(keys)
    while (ordered[1:] == ordered[:-1]).any():
        if side is None:
            side = np.random.Generator(rng.bit_generator.jumped())
        dup = np.ones(count, dtype=bool)  # every copy of a value but its first
        dup[np.unique(keys, return_index=True)[1]] = False
        keys[dup] = side.random(np.count_nonzero(dup))
        ordered = np.sort(keys)
    trace.tie_keys = keys
    return trace


def _draw_rows(problem: AdversarialProblem, count: int, rng: np.random.Generator) -> SampleTrace:
    """``draw_trace`` up to its tie keys, with ``tie_keys`` None.

    The group sizes (diffuse rows, and atoms at each depth 0..D, the tail
    at D) are one multinomial draw (the conditional method, Devroye, 1986).
    Drawn in that order, each of its conditional binomials has p = 1/2
    exactly, so the law is exact at every depth. The trace keeps the
    sizes in layout order, so the rows with a letter at level h (the
    diffuse rows and the atoms of depth >= h) are a prefix of the trace,
    and only those rows draw letters (``_draw_words``); about 1.94·count
    letters rather than 3·count at D = 3. Letters past an atom's depth
    stay 0."""
    if count < 1:
        raise ValueError("count must be positive")
    D = problem.truncation_depth
    dtype = np.min_scalar_type(-1 - max(map(problem.branching_at, range(1, D + 1))))
    pvals = [0.5] + [float(gamma_value(j)) for j in range(D)] + [float(gamma_tail(D))]
    sizes = rng.multinomial(count, pvals)[np.add(_layout_depths(D), 1)]  # in layout order
    reach = np.cumsum(sizes)[D:0:-1]  # reach[h - 1]: the rows with a letter at level h
    letters = _draw_words(problem, count, rng, dtype, reach.tolist())
    return SampleTrace(sizes, letters, None)


def _skip_uniforms(rng: np.random.Generator, count: int) -> None:
    """Leave ``rng`` where count ``rng.random`` draws would: PCG64 jumps
    ahead in O(log count) (O'Neill, *PCG*, 2014), but ``advance`` drops the
    buffered 32-bit half, which ``random`` keeps, so it is put back."""
    before = rng.bit_generator.state
    rng.bit_generator.advance(count)
    half = {key: before[key] for key in ("has_uint32", "uinteger")}
    rng.bit_generator.state = {**rng.bit_generator.state, **half}


def _draw_words(
    problem: AdversarialProblem, count: int, rng: np.random.Generator, dtype, reach: list[int]
) -> np.ndarray:
    """Uniform letters at each level h for the first reach[h - 1] of count
    rows, drawn as int64 CHUNK rows at a time (the values and generator
    state of one draw per level) and stored as dtype in column-major
    order, one contiguous column per level; the other letters are 0."""
    words = np.zeros((count, problem.truncation_depth), dtype=dtype, order="F")
    for level, rows in enumerate(reach, start=1):
        for lo in range(0, rows, CHUNK):
            piece = words[lo : min(lo + CHUNK, rows), level - 1]
            piece[:] = rng.integers(1, problem.branching_at(level) + 1, size=len(piece))
    return words


def draw_test_words(
    problem: AdversarialProblem, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform diffuse branches at the truncation depth, one row per draw."""
    return _draw_words(problem, count, rng, np.int64, [count] * problem.truncation_depth)


def labelled_sample_from_trace(
    problem: AdversarialProblem, trace: SampleTrace
) -> LabelledSample:
    """The trace rows materialized in order: an atomic row is the hub atom
    of its word (label 1), a diffuse row the hub at its full branch (label
    0), and points are the memoized geometry objects.

    Each distinct (group, word) row is looked up once, in order of first
    use, so the geometry memo issues its direction ids as a row-by-row
    walk would. The sort keys are one row per level, with the letters a
    row does not read set to 0, and the row's layout group last; one
    stable lexsort brings equal rows together behind their first use, and
    the sample is born packed from the distinct points and each row's index
    among them (``LabelledSample.from_packed``), with no n-row tuple. A
    criterion-07 sample of 2000 rows holds a few dozen distinct points."""
    D, n = problem.truncation_depth, len(trace)
    keys = np.empty((D + 1, n), dtype=trace.letters.dtype)
    keys[:D] = trace.letters.T
    ends = np.cumsum(trace.group_sizes).tolist()
    for level in range(1, D + 1):  # read by the diffuse rows and the atoms at depth >= level
        keys[level - 1, ends[D + 1 - level] :] = 0
    keys[D] = np.repeat(np.arange(D + 2), trace.group_sizes)
    order = np.lexsort(keys)
    run = np.zeros(n, dtype=bool)  # the first row of each run of equal rows
    run[0] = True
    for row in np.take(keys, order, axis=1):
        run[1:] |= row[1:] != row[:-1]
    # the distinct rows' first uses in row order, and each run's place among them
    uses, place = _unique_inverse(order[run])
    index = np.empty(n, dtype=np.intp)
    index[order] = place[np.cumsum(run) - 1]
    geometry, depth_of = problem.geometry, _layout_depths(D)
    distinct = []
    for *word, group in keys[:, uses].T.tolist():
        depth = depth_of[group]
        distinct.append(geometry(word[:depth]).atom if depth >= 0 else geometry(word).center)
    labels = np.arange(n) >= trace.group_sizes[0]  # the diffuse rows come first
    return LabelledSample.from_packed(distinct, index, labels, trace.tie_keys)


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


def _binomial_logpmf(N: int, q: float, count: int) -> np.ndarray:
    """log P(Binomial(N, q) = y) for y = 0..count-1, 0 < q < 1: log P(0) =
    N log1p(-q), then each term adds the ratio log((N - y)/(y + 1)) + log q
    - log1p(-q), so no log-factorial of N (lgamma(N) has no digits left at
    N = 10**13) enters."""
    y = np.arange(count - 1, dtype=np.float64)
    steps = np.log((N - y) / (y + 1)) + (math.log(q) - math.log1p(-q))
    return np.concatenate(([N * math.log1p(-q)], steps)).cumsum()


def _race(n: int, a: int, b: int, A: Fraction, B: Fraction) -> float:
    """G(A, B) = P(X <= b, Y >= a) for the counts X, Y of two disjoint cells
    of masses A > 0 and B > 0 in a multinomial(n) sample: the sum over u <=
    b of P(X = u) P(Binomial(n - u, q) >= a), q = B / (1 - A). The lower
    tail F_u = P(Binomial(n - u, q) <= a - 1) takes a terms at u = 0, then
    follows the recurrence F_u = F_(u-1) + q P(Binomial(n - u, q) = a - 1)
    in n - u, whose point masses step by log1p(-(a - 1)/N) - log1p(-q) from
    N to N - 1; so the race costs O(a + b) terms."""
    x = np.exp(_binomial_logpmf(n, float(A), b + 1))
    q = float(B / (1 - A))
    if q == 1:
        return float(x.sum())
    tail = _binomial_logpmf(n, q, a)
    N = n - np.arange(b, dtype=np.float64)  # each step goes from N to N - 1
    at_n_minus_u = tail[-1] + np.cumsum(np.log1p(-(a - 1) / N) - math.log1p(-q))
    below = np.concatenate(([np.exp(tail).sum()], q * np.exp(at_n_minus_u))).cumsum()
    return float(x @ (1 - below))


def stage_probability(problem: AdversarialProblem, n: int, k: int) -> float:
    """p = P(the k-NN vote of a diffuse test point on an iid n-sample is 1),
    from the order statistics of the vote (Biau and Devroye, *Lectures on
    the Nearest Neighbor Method*, 2015).

    With b = k // 2 and a = k - b, the vote is 1 iff at most b label-0
    points are among the k nearest: iff the sample holds at most b label-0
    points, or the (b+1)-th nearest label-0 point has at least a label-1
    points strictly closer. No label-1 class shares a distance with a
    label-0 class (``distance_classes`` raises otherwise), so, summing over
    the label-0 class c that holds that point,

        p = P(N0 <= b) + sum over c of G(P0_<c, P1_<c) - G(P0_<=c, P1_<c),

    with P0, P1 the label-0 and label-1 mass of the classes before (or up
    to) c, and G the race of ``_race``. The masses are summed exactly and
    each pmf is built in log space from successive ratios, so the work is
    O(D k) terms, and no sum runs over the bulk of a binomial.

    Float error: the tests pin |p - exact| <= 1e-12 against a ``Fraction``
    DP at k <= 10, and against the k = 1 closed form at n = 10**13 and
    10**18. The log pmfs are running sums of up to k ratios, so the error
    grows with k: 2.9e-11 at (n, k) = (157000, 16384) on m = (1, 4, 3, 3),
    against the same sum at 40 digits. p is clipped to [0, 1], since the
    rounded sum may pass 1 (by 1.6e-13 at n = 10**8, k = 10**4 on the
    sqrtceil ladder) and ``rng.binomial`` rejects p > 1.
    """
    b = k // 2
    a = k - b
    p0 = p1 = Fraction(0)
    p = 0.0
    for c in distance_classes(problem):
        if c.label:
            p1 += c.prob
            continue
        if p1:
            p += _race(n, a, b, p0, p1) - _race(n, a, b, p0 + c.prob, p1)
        p0 += c.prob
    p += float(np.exp(_binomial_logpmf(n, float(p0), b + 1)).sum())  # P(N0 <= b)
    return min(max(p, 0.0), 1.0)


def _trace_predictions(
    problem: AdversarialProblem, trace: SampleTrace, test_words: np.ndarray, k: int
) -> np.ndarray:
    """Count-based predictions over one shared sample trace, equal point for
    point to the brute-force rule (nearest by distance, then by smaller tie
    key): each distance class has one label and classes at one distance
    share it (``distance_classes`` raises otherwise), so the label sum of
    the k nearest does not depend on which tied rows the keys pick.

    The words' distinct letters and prefixes at each level are found once
    (``_unique_inverse``), with a table from each letter to its index
    (``_letter_finder``). Each row group is then walked down the prefix
    trie of the test words over its own levels, CHUNK rows at a time,
    without reordering the sample: the diffuse rows over all D levels, the
    atoms at depth j over their j letters. At each level only the rows
    that match some word's prefix remain: one take keeps those whose next
    letter is among the words' letters, with its index; one binary search
    looks the pair (prefix id, letter index) up among the words' longer
    prefixes (at h = 0 the one empty prefix makes the letter index the
    1-prefix id); and one bincount adds the rows of each prefix to
    ge[h + 1], the group's rows agreeing with each word on h + 1 letters.
    ge[0] is the group size, and ge[h] - ge[h + 1] rows split at h. Lookup
    keys stay below T**2, so no letter is ever packed into an integer. The
    letters are best column-major, as ``draw_trace`` stores them.

    The vote reads the (classes x T) matrix of class counts in distance
    order (``_count_vote``).

    Time: O(T D log T) for the words, and per block and level O(CHUNK + T)
    for the tables plus O(log T) for each row that passes them (O((CHUNK +
    T) log(CHUNK + T)) where ``np.isin`` stands in for a table); beyond the
    trace, O(CHUNK + D**2·T) memory: 1.1 MB of counts at D = 3, T = 10**4.
    """
    D, T = problem.truncation_depth, len(test_words)
    # per level h: the words' distinct letters and (h+1)-prefixes; pids[h]:
    # each word's prefix id at length h
    levels, pids = [], [np.zeros(T, dtype=np.int64)]
    for h in range(D):
        letters, letter_index = _unique_inverse(test_words[:, h])
        word_keys = pids[h] * len(letters) + letter_index
        prefixes, word_pid = _unique_inverse(word_keys)
        levels.append((letters, prefixes, _letter_finder(letters, T)))
        pids.append(word_pid)
    ge = {}  # ge[depth][h][p]: the group's rows that match prefix p of length h
    stop = 0
    for depth, size in zip(_layout_depths(D), trace.group_sizes.tolist()):
        start, stop = stop, stop + size
        walk = levels[: D if depth < 0 else depth]
        ge[depth] = [np.array([size])] + [np.zeros(len(p), dtype=np.int64) for _, p, _ in walk]
        for lo in range(start, stop, CHUNK):
            block = trace.letters[lo : min(lo + CHUNK, stop)]
            for h, (letters, prefixes, find) in enumerate(walk):
                if h == 0:  # one empty prefix: a letter's index is its 1-prefix id
                    index = find(block[:, 0])
                    rows = np.flatnonzero(index >= 0)
                    row_pid = index[rows].astype(np.int64)  # so that pairs cannot wrap
                else:
                    index = find(block[:, h][rows])
                    keep = np.flatnonzero(index >= 0)
                    pair = row_pid[keep] * len(letters) + index[keep]
                    pos = np.minimum(np.searchsorted(prefixes, pair), len(prefixes) - 1)
                    hit = prefixes[pos] == pair  # prefix and letter may each occur, the pair not
                    rows, row_pid = rows[keep[hit]], pos[hit]
                ge[depth][h + 1] += np.bincount(row_pid, minlength=len(prefixes))

    classes = distance_classes(problem)
    counts = np.empty((len(classes), T), dtype=np.int64)
    for row, c in zip(counts, classes):
        group, h = ge[c.depth if c.kind == "atom" else -1], c.split
        row[:] = group[h][pids[h]]
        if h < c.depth:
            row -= group[h + 1][pids[h + 1]]
    return _count_vote(np.array([c.label for c in classes], dtype=np.int64), counts, k)


def _unique_inverse(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` from one sort: the sorted
    distinct values (the first of each run of equal values), and each
    value's index among them by binary search."""
    ordered = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    return distinct, distinct.searchsorted(values)


def _count_vote(labels: np.ndarray, counts: np.ndarray, k: int) -> np.ndarray:
    """The k-NN vote over a (classes x T) int64 count matrix in distance
    order: each point takes min(cumulative count, k) rows up to each class,
    and its label-1 votes are the label-weighted differences of those."""
    taken = np.minimum(counts.cumsum(0), k)
    ones = labels @ np.diff(taken, axis=0, prepend=0)
    return (2 * ones >= k).astype(np.int64)


def _letter_finder(letters: np.ndarray, T: int) -> Callable[[np.ndarray], np.ndarray]:
    """column -> each letter's index among the sorted distinct 1-based
    ``letters``, else -1: one take from a table in the narrowest signed
    type, which clips every letter outside it onto a -1 end; past
    TABLE_SPAN·(CHUNK + T) entries, ``np.isin`` and a binary search."""
    size = int(letters[-1]) + 2
    if letters[0] < 1 or size > TABLE_SPAN * (CHUNK + T):
        return lambda col: np.where(np.isin(col, letters), np.searchsorted(letters, col), -1)
    lut = np.full(size, -1, dtype=np.min_scalar_type(-len(letters)))
    lut[letters] = np.arange(len(letters))
    return partial(lut.take, mode="clip")


def binomial_stderr(p: float, count: int) -> float:
    """Standard error of a fraction p of count independent draws, floored at
    sqrt(1e-12 / count) so that a Monte Carlo row always carries a positive
    stderr."""
    return math.sqrt(max(p * (1.0 - p), 1e-12) / count)


class StageSimResult(NamedTuple):
    fraction: float  # fraction of diffuse test points predicted 1
    stderr: float
    predictions: Optional[np.ndarray]  # int64 (T,) in trace mode; None in fresh mode


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
    used by the experiment runners). The T predictions are then iid
    Bernoulli(p) for the exact stage probability p of
    ``stage_probability``, so it draws only their number of 1s, as one
    Binomial(T, p), and returns no predictions (``None``): O(k) memory at
    any T. ``trace`` draws one shared provenance trace as its group sizes
    and letters (``_draw_rows``: the sizes as one
    multinomial, letters only where a row has them), jumps the generator
    past its n tie keys without drawing them (``_skip_uniforms``:
    ``draw_trace`` redraws a repeated key off the main stream, and the
    count kernel never reads the keys), then draws the test words and
    walks each row group down their prefix trie (``_trace_predictions``);
    so for the same seed it reproduces exactly what the brute-force
    classifier sees on ``draw_trace`` followed by ``draw_test_words``
    (int64 predictions). The fraction is the count of 1s over T, which is
    the mean's own float.
    """
    if stage < 0 or stage + 1 > problem.truncation_depth:
        raise ValueError("stage must satisfy stage + 1 <= truncation depth")
    if not 1 <= k <= n:
        raise ValueError("k must lie in 1..n")
    if test_count < 1:
        raise ValueError("test count must be positive")
    rng = np.random.default_rng(seed)
    if sample_mode == "fresh":
        ones = int(rng.binomial(test_count, stage_probability(problem, n, k)))
        preds = None
    elif sample_mode == "trace":
        trace = _draw_rows(problem, n, rng)
        _skip_uniforms(rng, n)  # draw_trace's tie keys, which the count kernel never reads
        words = draw_test_words(problem, test_count, rng)
        preds = _trace_predictions(problem, trace, words, k)
        ones = np.count_nonzero(preds)
    else:
        raise ValueError(f"unknown sample mode {sample_mode!r}")
    frac = ones / test_count
    return StageSimResult(frac, binomial_stderr(frac, test_count), preds)
