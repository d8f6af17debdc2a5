"""Experiment runners: the consistency-failure demonstration, Euclidean
k-NN baselines, the 1-NN twice-Bayes check, the dimension-witness suite,
and schedule inspection. Emits CSV for stage tables and JSON elsewhere;
every figure regenerates bit-identically from (config, seed)."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import astuple, dataclass, field, fields, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from . import adversarial as adv
from .knn import euclidean_vote
from .nagata import (
    Ball,
    BallFamily,
    Cover,
    DimensionCertificate,
    doubling_cover_greedy,
    exchange_covers,
    family_pairs,
    interval_multiplicities,
    multiplicity_over_probes,
    nagata_witness_sparse,
)
from .spaces import (
    DirectionIds,
    EuclideanD,
    EuclideanLine,
    Heisenberg,
    HPoint,
    ORIGIN,
    Real,
    SparsePoint,
    SparseRows,
    UltrametricWords,
    Vec,
    Word,
    h_dilate,
    h_norm,
    pack_words,
    words_contained,
)

DEFAULT_EMPIRICAL_M = (1, 293, 2000)
DEFAULT_EMPIRICAL_N = (128, 1_000_000)
DEFAULT_PROOF_N_OVERRIDE = {0: 128}


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int = 0
    stages: tuple[int, int] = (0, 1)  # inclusive range
    n_override: dict[int, int] = field(default_factory=dict)
    k_rule: str = "log2ceil"
    test_count: int = 10_000
    mode: str = "empirical"
    output_path: Optional[str] = None
    m: Optional[tuple[int, ...]] = None
    n: Optional[tuple[int, ...]] = None
    depth: Optional[int] = None

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.mode not in adv.MODES:
            raise ValueError(f"mode must be one of {', '.join(adv.MODES)}, got {self.mode!r}")
        if self.test_count < 100:
            raise ValueError("statistical runs need test_count >= 100")
        if self.stages[0] < 0 or self.stages[1] < self.stages[0]:
            raise ValueError("stage range must be a nonempty 0-based range")
        # proof mode derives m and n; empirical mode takes its stages from n
        other = {"proof": ("m", "n"), "empirical": ("depth",)}[self.mode]
        given = [f"--{key}" for key in other if getattr(self, key) is not None]
        if given:
            raise ValueError(f"{self.mode} mode takes no {' or '.join(given)}")


@dataclass
class StageReport:
    stage: int
    n: int
    k: int
    frac_pred1_nonatomic: float
    error: float
    bayes: float
    delta: float
    stderr: float

    def __post_init__(self):
        if not 0.0 <= self.error <= 1.0:
            raise ValueError("error must lie in [0, 1]")
        if not self.stderr > 0:
            raise ValueError("Monte Carlo rows must carry a positive stderr")

    def row(self) -> list:
        return list(astuple(self))


def reports_to_csv(reports: list[StageReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    # the field names are the header; csv writes a float as str(), which is its repr
    writer.writerow(f.name for f in fields(StageReport))
    writer.writerows(r.row() for r in reports)
    return buf.getvalue()


def _write_output(text: str, path: Optional[str]):
    if path is not None:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write output {path!r}: {exc.strerror}") from exc


def _stage_seeds(seed: int, count: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


# ---------------------------------------------------------------------------
# consistency failure


def _derive_schedule(config: ExperimentConfig, depth: Optional[int] = None) -> adv.DerivedSchedule:
    """The configured schedule under the experiment defaults: in proof mode
    to ``depth`` (default 1), the stage-0 sample size pinned at 128 unless
    overridden; in empirical mode, which takes no depth,
    ``DEFAULT_EMPIRICAL_M``/``N`` unless given."""
    if config.mode == "proof":
        override = {**DEFAULT_PROOF_N_OVERRIDE, **config.n_override}
        return adv.derive_schedule(1 if depth is None else depth, config.k_rule, override)
    return adv.empirical_schedule(
        config.m or DEFAULT_EMPIRICAL_M, config.n or DEFAULT_EMPIRICAL_N, config.k_rule,
        config.n_override,
    )


def build_schedule(config: ExperimentConfig) -> adv.DerivedSchedule:
    """Schedule for the consistency run, covering the last stage B and the
    branching m[B+1] one level past it, since simulating stage B needs the
    stage-(B+1) ball layout. Proof mode derives both; empirical mode checks
    that n and m reach them.
    """
    hi = config.stages[1]
    if config.mode == "proof":
        sched = _derive_schedule(config, hi).schedule
        return adv.DerivedSchedule(replace(sched, m=sched.m + (adv.minimal_branching(sched, hi),)))
    derived = _derive_schedule(config)
    if hi >= len(derived.schedule.n):
        raise ValueError("stage range exceeds the schedule depth")
    if hi + 1 >= len(derived.schedule.m):
        raise ValueError(f"stage {hi} needs the branching m[{hi + 1}] one level past it")
    return derived


def run_consistency(config: ExperimentConfig) -> list[StageReport]:
    """Stage table for the adversarial problem: fraction of diffuse test
    points predicted 1 and the implied overall error, against a Bayes error
    of zero. Atoms are predicted correctly in the large-sample limit, and
    the diffuse part carries mass 1/2, so error ~= fraction / 2."""
    lo, hi = config.stages
    sched = build_schedule(config).schedule
    problem = adv.AdversarialProblem(sched, truncation_depth=hi + 2)
    seeds = _stage_seeds(config.seed, hi + 1)
    reports = []
    for stage in range(lo, hi + 1):
        n = sched.n[stage]
        k = adv.k_of(sched.k_rule, n)
        # only the two floats are kept, not the stage's predictions
        fraction, stderr = adv.structured_stage_sim(
            problem, stage, n, k, config.test_count, seeds[stage], sample_mode="fresh"
        )[:2]
        reports.append(
            StageReport(
                stage=stage,
                n=n,
                k=k,
                frac_pred1_nonatomic=fraction,
                error=fraction / 2.0,
                bayes=0.0,
                delta=float(adv.delta_value(stage)),
                stderr=stderr,
            )
        )
    _write_output(reports_to_csv(reports), config.output_path)
    return reports


# ---------------------------------------------------------------------------
# Euclidean baseline


def _vote_error(train, train_y, test, test_y, k: int) -> tuple[np.ndarray, float, float]:
    """Euclidean k-NN predictions on the test rows, their error rate against
    ``test_y`` and its binomial stderr."""
    pred = euclidean_vote(train, train_y, test, k)
    err = float((pred != test_y).mean())
    return pred, err, adv.binomial_stderr(err, len(test_y))


def run_baseline(config: ExperimentConfig) -> list[StageReport]:
    """k-NN on the uniform unit interval with the deterministic right-half
    labelling; the error shrinks as n grows."""
    rng = np.random.default_rng(config.seed)
    reports = []
    for stage, n in enumerate((100, 1000, 10000)):
        train_x = rng.random(n)
        train_y = (train_x > 0.5).astype(np.int64)
        test_x = rng.random(config.test_count)
        test_y = (test_x > 0.5).astype(np.int64)
        k = adv.k_of(config.k_rule, n)
        pred, err, stderr = _vote_error(train_x[:, None], train_y, test_x[:, None], test_y, k)
        reports.append(StageReport(stage=stage, n=n, k=k, frac_pred1_nonatomic=float(pred.mean()),
                                   error=err, bayes=0.0, delta=0.0, stderr=stderr))
    _write_output(reports_to_csv(reports), config.output_path)
    return reports


# ---------------------------------------------------------------------------
# 1-NN twice-Bayes check


def run_coverhart(config: ExperimentConfig) -> list[dict]:
    """Three 1-NN checks on the unit square: a constant regression function
    0.3 (asymptotic error 2*0.3*0.7 = 0.42), a deterministic half-plane
    (error tends to 0), and the error-to-Bayes ratio against the bound 2."""
    rng = np.random.default_rng(config.seed)
    T = config.test_count

    n_const = 20_000
    train = rng.random((n_const, 2))
    train_y = (rng.random(n_const) <= 0.3).astype(np.int64)
    test = rng.random((T, 2))
    test_y = (rng.random(T) <= 0.3).astype(np.int64)
    _, err_const, stderr_const = _vote_error(train, train_y, test, test_y, 1)

    n = 10_000
    train = rng.random((n, 2))
    train_y = (train[:, 0] > 0.5).astype(np.int64)
    test = rng.random((T, 2))
    test_y = (test[:, 0] > 0.5).astype(np.int64)
    _, err, stderr = _vote_error(train, train_y, test, test_y, 1)

    # the ratio row restates the constant case against the Cover-Hart bound
    constant = {"n": n_const, "k": 1, "error": err_const, "bayes": 0.3, "ratio": err_const / 0.3}
    cases = [
        {"case": "constant_eta_0.3", **constant, "stderr": stderr_const},
        {"case": "deterministic_halfplane", "n": n, "k": 1, "error": err, "bayes": 0.0,
         "ratio": None, "stderr": stderr},
        {"case": "ratio_vs_twice_bayes", **constant, "bound": 2.0, "stderr": stderr_const},
    ]
    _write_output(json.dumps(cases, indent=2) + "\n", config.output_path)
    return cases


# ---------------------------------------------------------------------------
# dimension-witness suite


def _point_to_json(p) -> object:
    if isinstance(p, Vec):
        return list(p.coords)
    if isinstance(p, SparsePoint):
        return {str(i): v for i, v in p.items}
    raise TypeError(f"unsupported point {p!r}")


def _centers_to_json(centers) -> list:
    """A family's centre column as JSON: a sparse table row by row from its
    ids, values and offsets, with no ``SparsePoint`` built."""
    if not isinstance(centers, SparseRows):
        return list(map(_point_to_json, centers))
    keys, values = list(map(str, centers.ids.tolist())), centers.values.tolist()
    bounds = centers.offsets.tolist()
    return [dict(zip(keys[a:b], values[a:b])) for a, b in zip(bounds, bounds[1:])]


def certificate_to_json(cert: DimensionCertificate) -> dict:
    centers, radii, _ = cert.family.columns
    return {
        "kind": "NagataWitness",
        "centers": _centers_to_json(centers),
        "radii": radii.tolist(),
        "witness": _point_to_json(cert.witness_point),
        "multiplicity": cert.multiplicity,
    }


def plane_pentagon_family() -> BallFamily:
    """Five closed unit balls centred at the fifth roots of unity, pulled a
    hair inward so the origin stays inside each closed ball under rounding."""
    pull = 1.0 - 1e-12
    balls = []
    for j in range(1, 6):
        ang = 2.0 * math.pi * j / 5.0
        balls.append(Ball(Vec((pull * math.cos(ang), pull * math.sin(ang))), 1.0, True))
    return BallFamily(tuple(balls), EuclideanD(2), math.inf)


def _families(sizes, space, ball) -> Iterator[BallFamily]:
    """One family of ``space`` per entry of ``sizes``, built when it is
    consumed: the family of size s takes ``ball(i)`` for the next s
    indices i of the concatenated draws."""
    ends = np.cumsum(sizes, dtype=np.intp).tolist()
    return (
        BallFamily(tuple(map(ball, range(a, b))), space, math.inf)
        for a, b in zip([0] + ends[:-1], ends)
    )


def _draw_disconnected_intervals(rng: np.random.Generator, sizes: np.ndarray):
    """The centres, radii and closed flags of
    ``random_disconnected_interval_families``, as arrays."""
    if (sizes < 2).any():
        raise ValueError("a family of disconnected intervals needs two centres")
    total = int(sizes.sum())
    ends = np.cumsum(sizes)
    starts = ends - sizes
    family = np.repeat(np.arange(len(sizes)), sizes)
    centers = rng.random(total) * 20.0
    centers = centers[np.lexsort((centers, family))]
    centers += (np.arange(total) - np.repeat(starts, sizes)) * 1e-6  # ensure distinct
    steps = np.diff(centers)
    left, right = np.append(math.inf, steps), np.append(steps, math.inf)
    left[starts] = right[ends - 1] = math.inf  # no neighbour across families
    u = rng.random((total, 2))
    return centers, (0.2 + 0.75 * u[:, 0]) * np.minimum(left, right), u[:, 1] < 0.5


def random_disconnected_interval_families(
    rng: np.random.Generator, sizes: Sequence[int]
) -> Iterator[BallFamily]:
    """Families of intervals whose radii stay strictly below the nearest
    other centre, which forces disconnectedness; one family per entry of
    ``sizes``, each of at least two intervals.

    The call draws everything, in two array calls: all centres, family by
    family, then a (total, 2) array of (radius, closed) uniforms, a row per
    interval in each family's ascending centre order. So one family of
    ``count`` draws its ``count`` centres and then its (radius, closed)
    pairs ball by ball, as a per-ball loop would. A family's centres are
    sorted and moved apart by 1e-6 a rank; they ascend and rounding is
    monotone, so a centre's nearest other centre is one of its two sorted
    neighbours. The arrays become lists once, and a family's balls are
    built when the family is consumed."""
    sizes = np.asarray(sizes, dtype=np.intp)
    c, r, closed = (a.tolist() for a in _draw_disconnected_intervals(rng, sizes))
    return _families(sizes, EuclideanLine(), lambda i: Ball(Real(c[i]), r[i], closed[i]))


def random_disconnected_intervals(rng: np.random.Generator, count: int) -> BallFamily:
    """One family of ``random_disconnected_interval_families``."""
    return next(random_disconnected_interval_families(rng, [count]))


def interval_battery(rng: np.random.Generator, sizes: Sequence[int]) -> np.ndarray:
    """``interval_multiplicity_exact`` of each family that
    ``random_disconnected_interval_families(rng, sizes)`` would build, from
    the same draws, in one sweep over every family and no ``Ball``."""
    sizes = np.asarray(sizes, dtype=np.intp)
    return interval_multiplicities(*_draw_disconnected_intervals(rng, sizes), sizes)


def _draw_words(rng: np.random.Generator, sizes: Sequence[int], alphabet: int):
    """The lengths, concatenated letters, radii and closed flags of
    ``random_word_families``, as arrays."""
    total = int(np.sum(sizes))
    lengths = rng.integers(0, 5, size=total)
    letters = rng.integers(1, alphabet + 1, size=int(lengths.sum()))
    return lengths, letters, 2.0 ** -rng.integers(0, 4, size=total), rng.random(total) < 0.5


def random_word_families(
    rng: np.random.Generator, sizes: Sequence[int], alphabet: int
) -> Iterator[BallFamily]:
    """Families of ultrametric balls, one per entry of ``sizes``: words of
    0..4 letters in 1..``alphabet``, radius 2^-e for e in 0..3, closed with
    probability 1/2.

    The call draws everything, in four array calls: every ball's length,
    then all letters, word after word, then every radius exponent, then
    every closed uniform. The arrays become lists once, and a family's
    balls are built when the family is consumed."""
    lengths, letters, r, closed = _draw_words(rng, sizes, alphabet)
    letters, r, closed = letters.tolist(), r.tolist(), closed.tolist()
    bounds = np.append(0, np.cumsum(lengths)).tolist()  # ball i's letters: bounds[i]:bounds[i + 1]
    return _families(
        sizes,
        UltrametricWords(alphabet),
        lambda i: Ball(Word(tuple(letters[bounds[i] : bounds[i + 1]])), r[i], closed[i]),
    )


def random_word_family(rng: np.random.Generator, count: int, alphabet: int) -> BallFamily:
    """One family of ``random_word_families``."""
    return next(random_word_families(rng, [count], alphabet))


def word_cover_battery(
    rng: np.random.Generator, sizes: Sequence[int], alphabet: int
) -> Iterator[Cover]:
    """``greedy_covering_subfamily`` of each family that
    ``random_word_families(rng, sizes, alphabet)`` would build, as the
    members' indices and the largest number of members holding one centre
    (``multiplicity_over_probes`` of the cover at the family's centres).

    The call draws everything as ``random_word_families`` does; the pairs
    within each family are decided ``PAIR_BLOCK`` at a time by one
    ``spaces.words_contained`` call, with no ``Ball`` built."""
    lengths, letters, radii, closed = _draw_words(rng, sizes, alphabet)
    words = pack_words(lengths, letters)
    for block, ball, centre in family_pairs(sizes):
        yield from exchange_covers(block, words_contained(words, radii, closed, ball, centre))


def random_interval_family(rng: np.random.Generator, count: int) -> BallFamily:
    """``count`` intervals from one (count, 3) array of uniforms, a row
    (centre, radius, closed) per ball, so row-major order is the per-ball
    order of scalar draws."""
    u = rng.random((count, 3)).tolist()
    balls = [Ball(Real(x * 10.0), 0.1 + 2.0 * r, c < 0.5) for x, r, c in u]
    return BallFamily(tuple(balls), EuclideanLine(), math.inf)


def random_plane_family(rng: np.random.Generator, count: int) -> BallFamily:
    """``count`` discs from one (count, 4) array of uniforms, a row
    (x, y, radius, closed) per ball, so row-major order is the per-ball
    order of scalar draws."""
    u = rng.random((count, 4)).tolist()
    balls = [Ball(Vec((x * 10.0, y * 10.0)), 0.1 + 2.0 * r, c < 0.5) for x, y, r, c in u]
    return BallFamily(tuple(balls), EuclideanD(2), math.inf)


def heisenberg_unit_grid() -> list[HPoint]:
    """Lattice points of the unit gauge ball at step 0.25; a dyadic step so
    that dilation by powers of two is exact in floating point."""
    vals = np.arange(-1.0, 1.125, 0.25)
    pts = []
    for x in vals:
        for y in vals:
            for z in vals:
                p = HPoint(float(x), float(y), float(z))
                if h_norm(p) <= 1.0:
                    pts.append(p)
    return pts


def run_dimension_suite(config: ExperimentConfig) -> dict:
    """Witness batteries: the plane pentagon, interval sweeps, ultrametric
    covers, sparse high-multiplicity witnesses, and a Heisenberg separated-
    set table transported across scales by dilation.

    Each random battery of 1000 families draws its sizes (2..8) in one
    ``rng.integers`` call and then all its families' fields in a few array
    calls, as ``random_disconnected_interval_families`` and
    ``random_word_families`` draw them: the interval sizes, the intervals,
    the word sizes, then the words, from one stream seeded with
    ``config.seed``. Each battery is then decided from those arrays in a
    few array calls, with no ``Ball`` built: ``interval_battery`` sweeps
    every family's endpoints at once, and ``word_cover_battery`` decides
    the pairs within each family by one array kernel and runs the
    covering exchange on each family's 0/1 matrix."""
    rng = np.random.default_rng(config.seed)
    out: dict = {}

    pentagon = plane_pentagon_family()
    mult = multiplicity_over_probes(pentagon, [Vec((0.0, 0.0))])
    out["plane_pentagon"] = certificate_to_json(
        DimensionCertificate(pentagon, Vec((0.0, 0.0)), mult.count)
    )
    # informative: six 60-degree cones cover the plane, which caps the
    # overlap of disconnected families at 5; the pentagon witness meets it
    out["plane_overlap_constant"] = {
        "witness_lower": mult.count - 1,
        "cone_cover_size": 6,
        "cone_upper": 5,
    }

    worst = int(interval_battery(rng, rng.integers(2, 9, size=1000)).max())
    out["interval_sweep"] = {"families": 1000, "max_multiplicity": worst}

    covers = word_cover_battery(rng, rng.integers(2, 9, size=1000), alphabet=3)
    worst = max(cover.multiplicity for cover in covers)
    out["ultrametric_cover"] = {"families": 1000, "max_multiplicity": worst}

    ids = DirectionIds()
    sparse_certs = []
    for m in (1, 5, 64, 256):
        cert = nagata_witness_sparse(m, ORIGIN, 1.0, ids)
        sparse_certs.append(certificate_to_json(cert))
    out["sparse_witnesses"] = sparse_certs

    grid = heisenberg_unit_grid()
    table = []
    for r in (1.0, 0.5, 0.25):
        pts = [h_dilate(r, p) for p in grid] if r != 1.0 else grid
        count = doubling_cover_greedy(pts, HPoint(0.0, 0.0, 0.0), r, Heisenberg())
        table.append({"radius": r, "separated_count": count})
    out["heisenberg_doubling"] = table

    _write_output(json.dumps(out, indent=2) + "\n", config.output_path)
    return out


# ---------------------------------------------------------------------------
# schedule inspection


def print_schedule(config: ExperimentConfig) -> dict:
    """Derive the schedule and report each stage's bounds and slack."""
    derived = _derive_schedule(config, config.depth if config.mode == "proof" else None)
    rows = []
    for b in derived.bounds:
        rows.append(
            {
                "stage": b.stage,
                "m": derived.schedule.m[b.stage],
                "n_occupancy_bound": b.n_occupancy_bound,
                "k_over_n_bound": float(b.n_ratio_bound),
                "n": b.n_chosen,
                "k": b.k,
                "n_slack": None
                if b.n_occupancy_bound is None
                else b.n_chosen - b.n_occupancy_bound,
                "m_next_bound": None if b.m_next_bound is None else float(b.m_next_bound),
                "m_next": b.m_next,
            }
        )
    out = {"schedule": derived.schedule.to_json_dict(), "stages": rows}
    _write_output(json.dumps(out, indent=2) + "\n", config.output_path)
    return out

