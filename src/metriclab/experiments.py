"""Experiment runners: the consistency-failure demonstration, Euclidean
k-NN baselines, the 1-NN twice-Bayes check, the dimension-witness suite,
and schedule inspection. Emits CSV for stage tables and JSON elsewhere;
every figure regenerates bit-identically from (config, seed)."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from . import adversarial as adv
from .knn import LearningProblem, euclidean_vote
from .nagata import (
    Ball,
    BallFamily,
    DimensionCertificate,
    doubling_cover_greedy,
    greedy_covering_subfamily,
    interval_multiplicity_exact,
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
    UltrametricWords,
    Vec,
    Word,
    h_dilate,
    h_norm,
)

CSV_HEADER = ["stage", "n", "k", "frac_pred1_nonatomic", "error", "bayes", "delta", "stderr"]

DEFAULT_EMPIRICAL_M = (1, 293, 2000)
DEFAULT_EMPIRICAL_N = (128, 1_000_000)
DEFAULT_PROOF_N_OVERRIDE = {0: 128}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_str(v) -> bool:
    return isinstance(v, str)


def _is_ints(v) -> bool:
    return isinstance(v, (list, tuple)) and all(map(_is_int, v))


def _is_stage_sizes(v) -> bool:
    return isinstance(v, dict) and all(
        (_is_int(stage) or isinstance(stage, str) and stage.lstrip("-").isdecimal())
        and _is_int(size)
        for stage, size in v.items()
    )


# what each config key must hold, checked before any conversion; a key whose
# default is None also takes null
_KEY_SHAPES = {
    "experiment": ("a string", _is_str),
    "seed": ("an integer", _is_int),
    "stages": ("a pair of integers", lambda v: _is_ints(v) and len(v) == 2),
    "n_override": ("an object from stage numbers to integers", _is_stage_sizes),
    "k_rule": ("a string", _is_str),
    "test_count": ("an integer", _is_int),
    "mode": ("a string", _is_str),
    "output_path": ("a string", _is_str),
    "m": ("a list of integers", _is_ints),
    "n": ("a list of integers", _is_ints),
    "depth": ("an integer", _is_int),
}


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
        stages = len(self.n or DEFAULT_EMPIRICAL_N)
        if self.mode == "empirical" and self.depth not in (None, stages - 1):
            raise ValueError(
                f"empirical mode takes its stages from --n: {stages} stages, so "
                f"--depth must be {stages - 1} or left out, not {self.depth}"
            )

    @staticmethod
    def from_json_dict(d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ValueError(f"a config must be a JSON object, got {type(d).__name__}")
        defaults = {f.name: f.default for f in fields(ExperimentConfig)}
        unknown = sorted(set(d) - set(defaults))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in d.items():
            shape, ok = _KEY_SHAPES[key]
            if not (ok(value) or value is None and defaults[key] is None):
                raise ValueError(f"config key {key!r} must be {shape}, got {value!r}")
        kwargs = dict(d)
        if "stages" in kwargs:
            kwargs["stages"] = tuple(kwargs["stages"])
        if "n_override" in kwargs:
            kwargs["n_override"] = {int(k): int(v) for k, v in kwargs["n_override"].items()}
        for key in ("m", "n"):
            if kwargs.get(key) is not None:
                kwargs[key] = tuple(kwargs[key])
        return ExperimentConfig(**kwargs)


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
        return [
            self.stage,
            self.n,
            self.k,
            repr(self.frac_pred1_nonatomic),
            repr(self.error),
            repr(self.bayes),
            repr(self.delta),
            repr(self.stderr),
        ]


def reports_to_csv(reports: list[StageReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in reports:
        writer.writerow(r.row())
    return buf.getvalue()


def _write_output(text: str, path: Optional[str]):
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)


def _stage_seeds(seed: int, count: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


# ---------------------------------------------------------------------------
# consistency failure


def _derive_schedule(config: ExperimentConfig, depth: int) -> adv.DerivedSchedule:
    """The configured schedule under the experiment defaults: the stage-0
    sample size pinned at 128 in proof mode unless overridden, and
    ``DEFAULT_EMPIRICAL_M``/``N`` in empirical mode."""
    if config.mode == "proof":
        override = {**DEFAULT_PROOF_N_OVERRIDE, **config.n_override}
        return adv.derive_schedule(
            depth=depth, k_rule=config.k_rule, mode="proof", n_override=override
        )
    return adv.derive_schedule(
        depth=depth, k_rule=config.k_rule, mode="empirical",
        n_override=config.n_override,
        m=config.m or DEFAULT_EMPIRICAL_M, n=config.n or DEFAULT_EMPIRICAL_N,
    )


def build_schedule(config: ExperimentConfig) -> adv.DerivedSchedule:
    """Schedule for the consistency run, derived up to the last stage.

    In proof mode the branching value one level past the last stage is also
    derived, since simulating stage B needs the stage-(B+1) ball layout.
    """
    hi = config.stages[1]
    derived = _derive_schedule(config, hi)
    if config.mode != "proof":
        return derived
    sched = derived.schedule
    tail = adv.minimal_branching(sched, hi)
    return derived._replace(schedule=replace(sched, m=sched.m + (tail,)))


def run_consistency(config: ExperimentConfig) -> list[StageReport]:
    """Stage table for the adversarial problem: fraction of diffuse test
    points predicted 1 and the implied overall error, against a Bayes error
    of zero. Atoms are predicted correctly in the large-sample limit, and
    the diffuse part carries mass 1/2, so error ~= fraction / 2."""
    lo, hi = config.stages
    derived = build_schedule(config)
    sched = derived.schedule
    if hi >= len(sched.n):
        raise ValueError("stage range exceeds the schedule depth")
    problem = adv.AdversarialProblem(sched, truncation_depth=hi + 2)
    seeds = _stage_seeds(config.seed, hi + 1)
    reports = []
    for stage in range(lo, hi + 1):
        n = sched.n[stage]
        k = adv.k_of(sched.k_rule, n)
        res = adv.structured_stage_sim(
            problem, stage, n, k, config.test_count, seeds[stage], sample_mode="fresh"
        )
        reports.append(
            StageReport(
                stage=stage,
                n=n,
                k=k,
                frac_pred1_nonatomic=res.fraction,
                error=res.fraction / 2.0,
                bayes=0.0,
                delta=float(adv.delta_value(sched, stage)),
                stderr=res.stderr,
            )
        )
    _write_output(reports_to_csv(reports), config.output_path)
    return reports


# ---------------------------------------------------------------------------
# Euclidean baseline


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
        pred = euclidean_vote(train_x[:, None], train_y, test_x[:, None], k)
        err = float((pred != test_y).mean())
        reports.append(
            StageReport(
                stage=stage,
                n=n,
                k=k,
                frac_pred1_nonatomic=float(pred.mean()),
                error=err,
                bayes=0.0,
                delta=0.0,
                stderr=math.sqrt(max(err * (1 - err), 1e-12) / config.test_count),
            )
        )
    _write_output(reports_to_csv(reports), config.output_path)
    return reports


# ---------------------------------------------------------------------------
# 1-NN twice-Bayes check


def run_coverhart(config: ExperimentConfig) -> list[dict]:
    """Three 1-NN checks on the unit square: a constant regression function
    0.3 (asymptotic error 2*0.3*0.7 = 0.42), a deterministic half-plane
    (error tends to 0), and the error-to-Bayes ratio against the bound 2."""
    rng = np.random.default_rng(config.seed)
    cases = []

    n = 20_000
    train = rng.random((n, 2))
    z = rng.random(n)
    train_y = (z <= 0.3).astype(np.int64)
    test = rng.random((config.test_count, 2))
    test_y = (rng.random(config.test_count) <= 0.3).astype(np.int64)
    pred = euclidean_vote(train, train_y, test, 1)
    err = float((pred != test_y).mean())
    cases.append(
        {
            "case": "constant_eta_0.3",
            "n": n,
            "k": 1,
            "error": err,
            "bayes": 0.3,
            "ratio": err / 0.3,
            "stderr": math.sqrt(max(err * (1 - err), 1e-12) / config.test_count),
        }
    )

    n = 10_000
    train = rng.random((n, 2))
    train_y = (train[:, 0] > 0.5).astype(np.int64)
    test = rng.random((config.test_count, 2))
    test_y = (test[:, 0] > 0.5).astype(np.int64)
    pred = euclidean_vote(train, train_y, test, 1)
    err = float((pred != test_y).mean())
    cases.append(
        {
            "case": "deterministic_halfplane",
            "n": n,
            "k": 1,
            "error": err,
            "bayes": 0.0,
            "ratio": None,
            "stderr": math.sqrt(max(err * (1 - err), 1e-12) / config.test_count),
        }
    )

    cases.append(
        {
            "case": "ratio_vs_twice_bayes",
            "n": cases[0]["n"],
            "k": 1,
            "error": cases[0]["error"],
            "bayes": 0.3,
            "ratio": cases[0]["ratio"],
            "bound": 2.0,
            "stderr": cases[0]["stderr"],
        }
    )
    _write_output(json.dumps(cases, indent=2) + "\n", config.output_path)
    return cases


# ---------------------------------------------------------------------------
# dimension-witness suite


def _point_to_json(p) -> object:
    if isinstance(p, Real):
        return p.value
    if isinstance(p, Vec):
        return list(p.coords)
    if isinstance(p, HPoint):
        return [p.x, p.y, p.z]
    if isinstance(p, Word):
        return list(p.letters)
    if isinstance(p, SparsePoint):
        return {str(i): v for i, v in p.items}
    raise TypeError(f"unsupported point {p!r}")


def certificate_to_json(cert: DimensionCertificate) -> dict:
    return {
        "kind": cert.kind,
        "centers": [_point_to_json(b.center) for b in cert.family.balls],
        "radii": [b.radius for b in cert.family.balls],
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


def random_disconnected_intervals(rng: np.random.Generator, count: int) -> BallFamily:
    """Intervals whose radii stay strictly below the nearest other center,
    which forces disconnectedness."""
    centers = np.sort(rng.random(count) * 20.0)
    centers += np.arange(count) * 1e-6  # ensure distinct
    balls = []
    for i, c in enumerate(centers):
        gaps = [abs(c - centers[j]) for j in range(count) if j != i]
        r = (0.2 + 0.75 * rng.random()) * min(gaps)
        balls.append(Ball(Real(float(c)), float(r), bool(rng.random() < 0.5)))
    return BallFamily(tuple(balls), EuclideanLine(), math.inf)


def random_interval_family(rng: np.random.Generator, count: int) -> BallFamily:
    balls = [
        Ball(Real(float(rng.random() * 10.0)), float(0.1 + 2.0 * rng.random()),
             bool(rng.random() < 0.5))
        for _ in range(count)
    ]
    return BallFamily(tuple(balls), EuclideanLine(), math.inf)


def random_plane_family(rng: np.random.Generator, count: int) -> BallFamily:
    balls = [
        Ball(
            Vec((float(rng.random() * 10.0), float(rng.random() * 10.0))),
            float(0.1 + 2.0 * rng.random()),
            bool(rng.random() < 0.5),
        )
        for _ in range(count)
    ]
    return BallFamily(tuple(balls), EuclideanD(2), math.inf)


def random_word_family(rng: np.random.Generator, count: int, alphabet: int) -> BallFamily:
    balls = []
    for _ in range(count):
        length = int(rng.integers(0, 5))
        letters = tuple(int(rng.integers(1, alphabet + 1)) for _ in range(length))
        radius = float(2.0 ** (-int(rng.integers(0, 4))))
        balls.append(Ball(Word(letters), radius, bool(rng.random() < 0.5)))
    return BallFamily(tuple(balls), UltrametricWords(alphabet), math.inf)


def heisenberg_unit_grid(step: float = 0.25) -> list[HPoint]:
    """Lattice points of the unit gauge ball; dyadic steps so that dilation
    by powers of two is exact in floating point."""
    vals = np.arange(-1.0, 1.0 + step / 2, step)
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
    set table transported across scales by dilation."""
    rng = np.random.default_rng(config.seed)
    out: dict = {}

    pentagon = plane_pentagon_family()
    mult = multiplicity_over_probes(pentagon, [Vec((0.0, 0.0))])
    out["plane_pentagon"] = certificate_to_json(
        DimensionCertificate("NagataWitness", pentagon, Vec((0.0, 0.0)), mult.count)
    )
    # informative: six 60-degree cones cover the plane, which caps the
    # overlap of disconnected families at 5; the pentagon witness meets it
    out["plane_overlap_constant"] = {
        "witness_lower": mult.count - 1,
        "cone_cover_size": 6,
        "cone_upper": 5,
    }

    worst = 0
    for _ in range(1000):
        fam = random_disconnected_intervals(rng, int(rng.integers(2, 9)))
        worst = max(worst, interval_multiplicity_exact(fam))
    out["interval_sweep"] = {"families": 1000, "max_multiplicity": worst}

    worst = 0
    for _ in range(1000):
        fam = random_word_family(rng, int(rng.integers(2, 9)), alphabet=3)
        sub = greedy_covering_subfamily(fam)
        probes = list(fam.centers())
        worst = max(worst, multiplicity_over_probes(sub, probes).count)
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
    depth = config.depth if config.depth is not None else config.stages[1]
    derived = _derive_schedule(config, depth)
    rows = []
    for b in derived.bounds:
        rows.append(
            {
                "stage": b.stage,
                "m": derived.schedule.m[b.stage],
                "n_occupancy_bound": None if math.isnan(b.n_occupancy_bound) else b.n_occupancy_bound,
                "k_over_n_bound": float(b.n_ratio_bound),
                "n": b.n_chosen,
                "k": b.k,
                "n_slack": None
                if math.isnan(b.n_occupancy_bound)
                else b.n_chosen - b.n_occupancy_bound,
                "m_next_bound": None if b.m_next_bound is None else float(b.m_next_bound),
                "m_next": b.m_next,
            }
        )
    out = {"schedule": derived.schedule.to_json_dict(), "stages": rows}
    _write_output(json.dumps(out, indent=2) + "\n", config.output_path)
    return out


def uniform_interval_problem() -> LearningProblem:
    """Uniform mass on [0, 1] with the deterministic right-half labelling."""

    def sampler(rng: np.random.Generator):
        x = float(rng.random())
        return Real(x), int(x > 0.5)

    return LearningProblem(sampler, lambda p: 1.0 if p.value > 0.5 else 0.0, 0.0)


def constant_eta_square_problem(eta: float) -> LearningProblem:
    """Uniform mass on the unit square with a constant regression function."""

    def sampler(rng: np.random.Generator):
        p = Vec((float(rng.random()), float(rng.random())))
        return p, int(rng.random() <= eta)

    return LearningProblem(sampler, lambda p: eta, min(eta, 1.0 - eta))
