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
margin, and keeping every constant dyadic makes squared distances between
materialized points exact doubles at small depths, which the simulator
equivalence tests rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Iterable, Iterator, NamedTuple, Optional

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
    """Branching and sample-size sequences plus the fixed mass/risk rules.

    gamma_i = (1 - gamma_ratio) * gamma_ratio**i / 2 sums to exactly 1/2;
    delta_i = delta_scale * delta_ratio**i is summable. The rule constants
    give the dyadic sequences gamma_i = 2**-(i+2) and delta_i = 2**-(i+3).
    ``m[i]`` is the branching into depth i (children per depth-(i-1) node),
    with m[0] = 1 by convention.
    """

    gamma_ratio: ClassVar[Fraction] = Fraction(1, 2)
    delta_ratio: ClassVar[Fraction] = Fraction(1, 2)
    delta_scale: ClassVar[Fraction] = Fraction(1, 8)

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

    @property
    def max_depth(self) -> int:
        return len(self.m) - 1

    def to_json_dict(self) -> dict:
        return {
            "gamma_rule": f"geometric:{self.gamma_ratio}",
            "delta_rule": f"geometric:{self.delta_ratio}:{self.delta_scale}",
            "k_rule": self.k_rule,
            "m": list(self.m),
            "n": list(self.n),
            "mode": self.mode,
            "max_depth": self.max_depth,
        }


def gamma_value(s: Schedule, i: int) -> Fraction:
    """Total atomic mass placed at depth i (exact)."""
    q = s.gamma_ratio
    return (1 - q) * q**i / 2


def gamma_tail(s: Schedule, i: int) -> Fraction:
    """Total atomic mass at depths >= i (exact closed form)."""
    return s.gamma_ratio**i / 2


def delta_value(s: Schedule, i: int) -> Fraction:
    return s.delta_scale * s.delta_ratio**i


def _branch_product(m: Iterable[int]) -> int:
    out = 1
    for v in m:
        out *= v
    return out


def occupancy_threshold(s: Schedule, i: int) -> float:
    """Sample size above which every depth-i atom shows up at least half its
    expected number of times, jointly with confidence 1 - delta_i."""
    prod = _branch_product(s.m[: i + 1])
    g = gamma_value(s, i)
    coeff = 2 * Fraction(prod * prod) / (g * g)
    if coeff > Fraction(10) ** 300:
        return math.inf
    logs = sum(math.log(mj) for mj in s.m[: i + 1]) - math.log(delta_value(s, i))
    return float(coeff) * logs


def ratio_bound(s: Schedule, i: int) -> Fraction:
    """Upper bound required of k_n / n at stage i: half the depth-i atom mass."""
    prod = _branch_product(s.m[: i + 1])
    return gamma_value(s, i) / (2 * prod)


def next_branching_bound(s: Schedule, i: int) -> Fraction:
    """Lower bound required of m[i+1] so that at most a delta_i fraction of
    the depth-(i+1) balls can hold k/2 sample points."""
    n_i = s.n[i]
    k = k_of(s.k_rule, n_i)
    prod = _branch_product(s.m[: i + 1])
    return Fraction(2 * n_i, k * prod) / delta_value(s, i)


def validate_schedule(s: Schedule) -> list[str]:
    """All constraint violations of the schedule; empty means valid.

    The neighbour-ratio constraint applies in both modes; the occupancy and
    branching bounds only in proof mode.
    """
    violations: list[str] = []
    for i, n_i in enumerate(s.n):
        if i >= len(s.m):
            violations.append(f"stage {i}: no branching value m[{i}]")
            continue
        k = k_of(s.k_rule, n_i)
        rb = ratio_bound(s, i)
        if not Fraction(k, n_i) < rb:
            violations.append(
                f"stage {i}: k/n = {k}/{n_i} must be below {float(rb):.6g}"
            )
        if s.mode == "proof":
            thr = occupancy_threshold(s, i)
            if not n_i > thr:
                violations.append(
                    f"stage {i}: n = {n_i} must exceed the occupancy bound {thr:.6g}"
                )
            if i + 1 < len(s.m):
                mb = next_branching_bound(s, i)
                if not s.m[i + 1] > mb:
                    violations.append(
                        f"stage {i}: m[{i + 1}] = {s.m[i + 1]} must exceed "
                        f"{float(mb):.6g}"
                    )
    return violations


class StageBounds(NamedTuple):
    stage: int
    n_occupancy_bound: float  # nan in empirical mode
    n_ratio_bound: Fraction
    n_chosen: int
    k: int
    m_next_bound: Optional[Fraction]
    m_next: Optional[int]


class DerivedSchedule(NamedTuple):
    schedule: Schedule
    bounds: list[StageBounds]


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


def derive_schedule(
    depth: int,
    k_rule: str = "log2ceil",
    mode: str = "proof",
    n_override: Optional[dict[int, int]] = None,
    m: Optional[tuple[int, ...]] = None,
    n: Optional[tuple[int, ...]] = None,
) -> DerivedSchedule:
    """Build the stage sequences for depth+1 stages, reporting every bound.

    Proof mode alternates minimal choices: n_i is the smallest integer above
    both the occupancy bound and the neighbour-ratio bound (or a supplied
    override, which is validated), then m[i+1] is the smallest admissible
    branching. Growth is double exponential; quantities beyond the 64-bit
    range raise ScheduleOverflowError naming the offending stage. Empirical
    mode passes user-supplied (m, n) through, with the overrides applied,
    enforcing only the neighbour-ratio constraint. In either mode an
    override for a stage the schedule lacks is a ValueError.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    n_override = dict(n_override or {})
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "empirical" and (m is None or n is None):
        raise ValueError("empirical mode requires explicit m and n sequences")
    stages = len(n) if mode == "empirical" else depth + 1
    for stage in sorted(n_override):
        if not 0 <= stage < stages:
            raise ValueError(
                f"n_override names stage {stage}, but the schedule has stages "
                f"0..{stages - 1}"
            )

    if mode == "empirical":
        n_seq = tuple(n_override.get(i, v) for i, v in enumerate(n))
        sched = Schedule(tuple(m), n_seq, k_rule, "empirical")
        violations = validate_schedule(sched)
        if violations:
            raise ScheduleValidationError(violations)
        bounds = [
            StageBounds(
                i, math.nan, ratio_bound(sched, i), sched.n[i],
                k_of(k_rule, sched.n[i]),
                None,
                sched.m[i + 1] if i + 1 < len(sched.m) else None,
            )
            for i in range(len(sched.n))
        ]
        return DerivedSchedule(sched, bounds)

    m_seq: list[int] = [1]
    n_seq: list[int] = []
    bounds: list[StageBounds] = []
    for i in range(depth + 1):
        partial = Schedule(tuple(m_seq), tuple(n_seq), k_rule, "proof")
        thr = occupancy_threshold(partial, i)
        if math.isinf(thr) or thr >= INT64_MAX:
            raise ScheduleOverflowError(i, "n")
        rb = ratio_bound(partial, i)
        try:
            n_i = _minimal_n(k_rule, rb, int(math.floor(thr)) + 1)
        except OverflowError:
            raise ScheduleOverflowError(i, "n") from None
        if i in n_override:
            n_i = n_override[i]
            if not (n_i > thr and Fraction(k_of(k_rule, n_i), n_i) < rb):
                raise ScheduleValidationError(
                    [f"stage {i}: override n = {n_i} violates the stage bounds"]
                )
        n_seq.append(n_i)
        k = k_of(k_rule, n_i)
        m_next_bound: Optional[Fraction] = None
        m_next: Optional[int] = None
        if i < depth:
            staged = Schedule(tuple(m_seq), tuple(n_seq), k_rule, "proof")
            m_next_bound = next_branching_bound(staged, i)
            m_next = minimal_branching(staged, i)
            m_seq.append(m_next)
        bounds.append(StageBounds(i, thr, rb, n_i, k, m_next_bound, m_next))

    sched = Schedule(tuple(m_seq), tuple(n_seq), k_rule, "proof")
    violations = validate_schedule(sched)
    if violations:
        raise ScheduleValidationError(violations)
    return DerivedSchedule(sched, bounds)


# ---------------------------------------------------------------------------
# geometry


def child_radius(depth: int) -> float:
    return 2.0 ** (-6 * depth - 2)


def node_eps(depth: int) -> float:
    return 2.0 ** (-6 * depth - 6)


def atom_offset(depth: int) -> float:
    return 0.625 * child_radius(depth)


def child_radius2_frac(depth: int) -> Fraction:
    return Fraction(1, 1 << (12 * depth + 4))


def atom_offset2_frac(depth: int) -> Fraction:
    return Fraction(25, 1 << (12 * depth + 10))


@dataclass(frozen=True)
class NodeGeometry:
    word: TreeWord
    center: SparsePoint  # the node hub (origin at the root)
    atom: SparsePoint  # hub atom, offset along its own fresh direction
    eps: float
    child_radius: float
    child_ids: tuple[int, ...]
    atom_id: int


class AdversarialProblem:
    """Lazily materialized adversarial learning problem.

    Geometry records are memoized once per tree word; samplers and the
    stage simulator take explicit seeds and share one trace-drawing core so
    their draws agree draw for draw.
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
        self._atom_words: dict[SparsePoint, TreeWord] = {}

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
        child_ids = tuple(self._ids.fresh() for _ in range(n_children))
        atom_id = self._ids.fresh()
        atom = center.shift(atom_id, atom_offset(depth))
        g = NodeGeometry(
            word, center, atom, node_eps(depth), child_radius(depth), child_ids, atom_id
        )
        self._geometry[word] = g
        self._atom_words[atom] = word
        return g

    def eta(self, point: SparsePoint) -> float:
        """Indicator of the (materialized) atom set."""
        return 1.0 if point in self._atom_words else 0.0


def geometry_json(problem: AdversarialProblem, words: Iterable[Iterable[int]]) -> list[dict]:
    """Debug dump: one JSON record per requested node."""
    records = []
    for t in words:
        g = problem.geometry(t)
        records.append(
            {
                "word": list(g.word),
                "center": {str(i): v for i, v in g.center.items},
                "atom": {str(i): v for i, v in g.atom.items},
                "eps": g.eps,
                "child_radius": g.child_radius,
                "child_ids": list(g.child_ids),
                "atom_id": g.atom_id,
            }
        )
    return records


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
    return gamma_value(s, i) / _branch_product(s.m[: i + 1])


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
    prod = _branch_product(problem.branching_at(d) for d in range(1, i + 1))
    mu0 = Fraction(1, 2 * prod)
    mu1 = gamma_tail(problem.schedule, i) / prod
    return BallMass(mu0, mu1)


# ---------------------------------------------------------------------------
# sampling


@dataclass
class SampleTrace:
    """Provenance-level draw of an i.i.d. sample (no points materialized)."""

    is_atomic: np.ndarray  # bool (count,)
    atom_depth: np.ndarray  # int64 (count,), -1 on diffuse rows
    letters: np.ndarray  # int64 (count, truncation_depth), 1-based
    tie_keys: np.ndarray  # float64 (count,), pairwise distinct

    def __len__(self) -> int:
        return len(self.is_atomic)


def draw_trace(problem: AdversarialProblem, count: int, rng: np.random.Generator) -> SampleTrace:
    """Draw sample provenance: a fair atomic/diffuse coin, a geometric atom
    depth clamped at the truncation depth, and uniform branch letters."""
    if count < 1:
        raise ValueError("count must be positive")
    D = problem.truncation_depth
    is_atomic = rng.random(count) < 0.5
    p_stop = float(1 - problem.schedule.gamma_ratio)
    depths = rng.geometric(p_stop, size=count) - 1
    depths = np.minimum(depths, D)
    atom_depth = np.where(is_atomic, depths, -1)
    letters = np.empty((count, D), dtype=np.int64)
    for level in range(1, D + 1):
        letters[:, level - 1] = rng.integers(
            1, problem.branching_at(level) + 1, size=count
        )
    tie_keys = rng.random(count)
    while len(np.unique(tie_keys)) != count:  # astronomically rare
        _, idx = np.unique(tie_keys, return_index=True)
        dup = np.setdiff1d(np.arange(count), idx)
        tie_keys[dup] = rng.random(len(dup))
    return SampleTrace(is_atomic, atom_depth.astype(np.int64), letters, tie_keys)


def draw_test_words(
    problem: AdversarialProblem, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform diffuse branches at the truncation depth, one row per draw."""
    D = problem.truncation_depth
    words = np.empty((count, D), dtype=np.int64)
    for level in range(1, D + 1):
        words[:, level - 1] = rng.integers(1, problem.branching_at(level) + 1, size=count)
    return words


def _trace_rows(problem: AdversarialProblem, trace: SampleTrace) -> Iterator[tuple[SparsePoint, int, tuple]]:
    """Materialize the trace rows in order as (point, label, provenance),
    reading the arrays as plain lists; points are the memoized geometry
    objects."""
    D = problem.truncation_depth
    rows = zip(trace.is_atomic.tolist(), trace.atom_depth.tolist(), trace.letters.tolist())
    for atomic, depth, letters in rows:
        if atomic:
            word = tuple(letters[:depth])
            yield problem.geometry(word).atom, 1, ("atomic", word)
        else:
            word = tuple(letters[:D])
            yield problem.geometry(word).center, 0, ("diffuse", word)


def sample_mu(
    problem: AdversarialProblem, count: int, seed: int
) -> list[tuple[SparsePoint, int, tuple]]:
    """Materialized i.i.d. draws (point, label, provenance); deterministic
    for a given seed."""
    rng = np.random.default_rng(seed)
    return list(_trace_rows(problem, draw_trace(problem, count, rng)))


def labelled_sample_from_trace(
    problem: AdversarialProblem, trace: SampleTrace
) -> LabelledSample:
    points, labels = [], []
    for p, lab, _ in _trace_rows(problem, trace):
        points.append(p)
        labels.append(lab)
    return LabelledSample(tuple(points), tuple(labels), tuple(trace.tie_keys.tolist()))


# ---------------------------------------------------------------------------
# distance classes and the stage simulator


class DistanceClass(NamedTuple):
    d2: Fraction  # exact squared distance to any diffuse test point
    label: int
    prob: Fraction  # exact per-draw probability under the truncated law
    kind: str  # "atom" | "diffuse"
    depth: int  # atom word depth (diffuse rows: truncation depth)
    split: int  # common-prefix depth with the test branch


def distance_classes(problem: AdversarialProblem) -> list[DistanceClass]:
    """All sample-point categories as seen from a diffuse test point.

    By symmetry of the fresh-direction geometry, the distance from a
    diffuse test point to a sample point depends only on the sample point's
    kind, its depth, and the depth at which its branch splits from the test
    branch, so the whole sample collapses into O(D^2) exact-mass classes.
    Raises if two classes with different labels sit at the same distance
    (the constants are chosen so they never do).
    """
    s = problem.schedule
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
        gj = gamma_value(s, j) if j < D else gamma_tail(s, D)
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
    return classes


def _vote(classes: list[DistanceClass], counts: Iterable[np.ndarray], k: int) -> np.ndarray:
    """k-NN vote in O(T) memory from per-class sample counts, one length-T
    vector per class in distance order; label 1 wins with half the votes.
    Stops reading ``counts`` once every point has its k neighbours."""
    need, ones = k, 0  # need = max(k - before, 0), before = points met so far
    for c, count in zip(classes, counts):
        take = np.minimum(need, count)
        need = need - take
        ones = ones + take * c.label
        if not need.any():
            break
    return (2 * ones >= k).astype(np.int64)


def _fresh_predictions(
    problem: AdversarialProblem, n: int, k: int, test_count: int, rng: np.random.Generator
) -> np.ndarray:
    """Per test point, draw class occupancies of an independent n-sample via
    a conditional binomial chain, voting on each class as it is drawn."""
    classes = distance_classes(problem)

    def draws():
        rem_n, rem_p = np.full(test_count, n, dtype=np.int64), Fraction(1)
        for c in classes:
            p = c.prob / rem_p  # exactly 1 at the last class, which takes the rest
            drawn = rng.binomial(rem_n, float(p)) if p < 1 else rem_n.copy()
            rem_n -= drawn
            rem_p -= c.prob
            yield drawn

    return _vote(classes, draws(), k)


def _trace_predictions(
    problem: AdversarialProblem, trace: SampleTrace, test_words: np.ndarray, k: int
) -> np.ndarray:
    """Count-based predictions over one shared sample trace, equal point for
    point to the brute-force rule (nearest by distance, then by smaller tie
    key): each distance class has one label and classes at one distance
    share it (``distance_classes`` raises otherwise), so the label sum of
    the k nearest does not depend on which tied rows the keys pick.

    One lexsort per group of rows (one kind, effective depth j) with the
    words' length-j prefixes gives ge[h], the rows agreeing with a word on h
    letters; ge[h] - ge[h+1] rows split at h. No prefix is packed into one
    integer, which could overflow. O((n + T) D log n) time, O(n D + T) memory.
    """

    def split_counts(rows):  # yields h = j, ..., 0: nearest first within a group
        n_rows, j = rows.shape
        above = np.zeros(len(test_words), dtype=np.int64)  # ge[h + 1]
        stacked = np.concatenate((rows, test_words[:, :j]))
        order = np.lexsort(stacked.T[::-1]) if j else np.arange(len(stacked))
        differs = np.diff(stacked[order], axis=0) != 0
        is_row, word_pos = order < n_rows, np.argsort(order)[n_rows:]
        for h in range(j, 0, -1):
            block = np.concatenate(([0], np.cumsum(differs[:, :h].any(axis=1))))
            ge = np.bincount(block[is_row], minlength=block[-1] + 1)[block[word_pos]]
            yield ge - above
            above = ge
        yield n_rows - above

    D, atomic, letters = problem.truncation_depth, trace.is_atomic, trace.letters
    groups = {("diffuse", D): split_counts(letters[~atomic])}
    for j in range(D + 1):
        groups["atom", j] = split_counts(letters[atomic & (trace.atom_depth == j), :j])
    classes = distance_classes(problem)
    return _vote(classes, (next(groups[c.kind, c.depth]) for c in classes), k)


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

    ``fresh`` draws an independent class-occupancy sample per test point
    (the estimator used by the experiment runners); ``trace`` draws one
    shared provenance trace with tie keys, reproducing exactly what the
    brute-force classifier sees for the same seed.
    """
    if stage < 0 or stage + 1 > problem.truncation_depth:
        raise ValueError("stage must satisfy stage + 1 <= truncation depth")
    if not 1 <= k <= n:
        raise ValueError("k must lie in 1..n")
    if test_count < 1:
        raise ValueError("test count must be positive")
    rng = np.random.default_rng(seed)
    if sample_mode == "fresh":
        preds = _fresh_predictions(problem, n, k, test_count, rng)
    elif sample_mode == "trace":
        trace = draw_trace(problem, n, rng)
        words = draw_test_words(problem, test_count, rng)
        preds = _trace_predictions(problem, trace, words, k)
    else:
        raise ValueError(f"unknown sample mode {sample_mode!r}")
    frac = float(preds.mean())
    stderr = math.sqrt(max(frac * (1.0 - frac), 1e-12) / test_count)
    return StageSimResult(frac, stderr, preds)
