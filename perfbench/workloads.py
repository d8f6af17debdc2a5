"""The benchmark's workloads: one pass of each, with its output checks.

A workload is a generator function of ``(seed, checks)``. Its pass is a
sequence of steps, and it yields each step's output as soon as the step's
work and checks are done. Between steps the runner times its reference
kernel, so the reference sees the host as the pass does. The long loops
(the sparse-witness sweep, the oracle trials) yield once per iteration; a
single call into the lab is one step.

Each pass builds its own schedules and ``AdversarialProblem`` instances, so
it pays for the geometry memo as a user's run does. Layer functions are
looked up as module attributes at call time, so the traced run sees them.
The checks reuse the invariants of the acceptance criteria; a failed check
or a part that raises is counted and never stops the pass.
"""

from __future__ import annotations

import math
import sys
import traceback
from typing import Iterator

import numpy as np

from metriclab import adversarial as adv
from metriclab import experiments as ex
from metriclab import knn, nagata
from metriclab.spaces import ORIGIN, DirectionIds, SparseL2

Config = ex.ExperimentConfig

# At seed 7 every one of the 20 shared-sample test words is predicted 1;
# the k-NN collapse this stage shows leaves at most a stray miss.
TRACE_FRACTION_FLOOR = 0.9

# criterion 07: (branching, truncation depth, stage, n, k)
ORACLE_CONFIGS = (
    ((1, 4, 3, 3), 3, 0, 60, 7),
    ((1, 4, 3, 3), 3, 1, 250, 9),
    ((1, 3, 2), 3, 0, 120, 1),
    ((1, 2, 5), 2, 0, 500, 12),
    ((1, 6, 2), 2, 0, 2000, 11),
    ((1, 3, 3), 3, 1, 40, 40),
    ((1, 5, 4), 2, 0, 1000, 2),
    ((1, 2, 2, 2), 3, 0, 300, 17),
    ((1, 7, 3), 2, 0, 800, 5),
    ((1, 4, 4), 3, 1, 150, 30),
)
ORACLE_TRIALS = 100
ORACLE_WORDS = 10


class Checks:
    """Output checks of a run: how many were made and which failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def part(self, name: str, steps: Iterator) -> Iterator:
        """Yield the steps of one part of a pass; an exception ends the part
        and counts as one failed check."""
        try:
            yield from steps
        except Exception as exc:  # a failing part must not stop the run
            traceback.print_exc(file=sys.stderr)
            self.check(f"{name} raised {exc!r}", False)
            yield None


# ---------------------------------------------------------------------------
# stage_tables


def _error_floor(checks: Checks, label: str, rows):
    for r in rows:
        checks.check(f"c08 {label} stage {r.stage}: error >= 0.35", r.error >= 0.35)
        checks.check(f"c08 {label} stage {r.stage}: bayes == 0", r.bayes == 0.0)


def _consistency_proof(seed: int, checks: Checks):
    rows = ex.run_consistency(
        Config("consistency", seed=seed, stages=(0, 0), mode="proof", test_count=10_000)
    )
    (row,) = rows
    checks.check("c08 proof: (n, k) == (128, 7)", (row.n, row.k) == (128, 7))
    checks.check("c08 proof: delta == 1/8", row.delta == 0.125)
    checks.check(
        "c08 proof: frac_pred1 >= 0.75 - 3 stderr",
        row.frac_pred1_nonatomic >= 0.75 - 3 * row.stderr,
    )
    _error_floor(checks, "proof", rows)
    yield [r.row() for r in rows]


def _consistency_empirical(seed: int, checks: Checks):
    rows = ex.run_consistency(
        Config("consistency", seed=seed, stages=(0, 1), mode="empirical", test_count=10**6)
    )
    checks.check("c08 empirical: n[1] == 10^6", rows[1].n == 10**6)
    checks.check("c08 empirical: frac_pred1[1] >= 0.9", rows[1].frac_pred1_nonatomic >= 0.9)
    _error_floor(checks, "empirical", rows)
    yield [r.row() for r in rows]


def _schedule(seed: int, checks: Checks):
    out = ex.print_schedule(Config("schedule", seed=seed, mode="proof", depth=1))
    stage0 = out["stages"][0]
    checks.check("c11: m[1] == 293", out["schedule"]["m"][1] == 293)
    checks.check(
        "c11: occupancy bound == 32 ln 8",
        abs(stage0["n_occupancy_bound"] - 32 * math.log(8)) <= 1e-9,
    )
    checks.check(
        "c11: branching bound == 2048/7", abs(stage0["m_next_bound"] - 2048 / 7) <= 1e-9
    )
    yield out


def _shared_sample_stage(seed: int, checks: Checks):
    derived = ex.build_schedule(Config("consistency", seed=seed, stages=(0, 1)))
    sched = derived.schedule
    problem = adv.AdversarialProblem(sched, truncation_depth=3)
    n = sched.n[1]
    k = adv.k_of(sched.k_rule, n)
    res = adv.structured_stage_sim(problem, 1, n, k, 20, seed, sample_mode="trace")
    checks.check("trace stage: (n, k) == (10^6, 20)", (n, k) == (10**6, 20))
    checks.check(
        f"trace stage: frac_pred1 >= {TRACE_FRACTION_FLOOR}",
        res.fraction >= TRACE_FRACTION_FLOOR,
    )
    yield res.predictions.tolist()


def stage_tables(seed: int, checks: Checks) -> Iterator:
    yield from checks.part("consistency proof", _consistency_proof(seed, checks))
    yield from checks.part("consistency empirical", _consistency_empirical(seed, checks))
    yield from checks.part("schedule", _schedule(seed, checks))
    yield from checks.part("shared-sample stage", _shared_sample_stage(seed, checks))


# ---------------------------------------------------------------------------
# euclid_contrast


def _baseline(seed: int, checks: Checks):
    rows = ex.run_baseline(Config("baseline", seed=seed, k_rule="sqrtceil", test_count=10_000))
    checks.check("c09: n == [100, 1000, 10000]", [r.n for r in rows] == [100, 1000, 10000])
    checks.check("c09: k == 100 at n = 10^4", rows[-1].k == 100)
    # Criterion 09 also asks that the error not grow from one n to the next
    # by more than two test-sample stderrs. That holds at its fixed seed but
    # not at every seed: the stderr ignores the spread over training draws,
    # which dominates at these tiny error rates, so it is not checked here.
    checks.check("c09: error <= 0.05 at n = 10^4", rows[-1].error <= 0.05)
    yield [r.row() for r in rows]


def _coverhart(seed: int, checks: Checks):
    cases = ex.run_coverhart(Config("coverhart", seed=seed, test_count=10_000))
    by_name = {c["case"]: c for c in cases}
    const = by_name["constant_eta_0.3"]
    half = by_name["deterministic_halfplane"]
    checks.check("c10: constant case n == 20000", const["n"] == 20_000)
    checks.check("c10: 0.40 <= constant error <= 0.44", 0.40 <= const["error"] <= 0.44)
    checks.check("c10: half-plane n == 10000", half["n"] == 10_000)
    checks.check("c10: half-plane error <= 0.02", half["error"] <= 0.02)
    checks.check("c10: ratio <= 2.1", by_name["ratio_vs_twice_bayes"]["ratio"] <= 2.1)
    yield cases


def euclid_contrast(seed: int, checks: Checks) -> Iterator:
    yield from checks.part("baseline", _baseline(seed, checks))
    yield from checks.part("coverhart", _coverhart(seed, checks))


# ---------------------------------------------------------------------------
# generic_oracle


def _dimension(seed: int, checks: Checks):
    out = ex.run_dimension_suite(Config("dimension", seed=seed))
    checks.check("c03: pentagon multiplicity == 5", out["plane_pentagon"]["multiplicity"] == 5)
    checks.check("c03: interval maximum <= 2", out["interval_sweep"]["max_multiplicity"] <= 2)
    checks.check("c03: ultrametric maximum == 1", out["ultrametric_cover"]["max_multiplicity"] == 1)
    checks.check(
        "c03: sparse witnesses have multiplicity [1, 5, 64, 256]",
        [c["multiplicity"] for c in out["sparse_witnesses"]] == [1, 5, 64, 256],
    )
    yield out


def _witness_sweep(seed: int, checks: Checks):
    ids = DirectionIds()
    for m in range(1, 257):
        cert = nagata.nagata_witness_sparse(m, ORIGIN, 1.0, ids)
        probed = nagata.multiplicity_over_probes(cert.family, [cert.witness_point]).count
        checks.check(f"c03: sparse witness m={m} has multiplicity m", cert.multiplicity == m == probed)
        yield probed


def _oracle(seed: int, checks: Checks):
    space = SparseL2()
    problems = {
        cfg[:2]: adv.AdversarialProblem(
            adv.Schedule(m=cfg[0], n=(60,), mode="empirical"), truncation_depth=cfg[1]
        )
        for cfg in ORACLE_CONFIGS
    }
    trial_seeds = np.random.SeedSequence(seed).generate_state(ORACLE_TRIALS)
    for trial, trial_seed in enumerate(trial_seeds.tolist()):
        m, depth, stage, n, k = ORACLE_CONFIGS[trial % len(ORACLE_CONFIGS)]
        problem = problems[(m, depth)]
        rng = np.random.default_rng(trial_seed)
        trace = adv.draw_trace(problem, n, rng)
        words = adv.draw_test_words(problem, ORACLE_WORDS, rng)
        sim = adv.structured_stage_sim(
            problem, stage, n, k, ORACLE_WORDS, trial_seed, sample_mode="trace"
        )
        sample = adv.labelled_sample_from_trace(problem, trace)
        preds = []
        for i, row in enumerate(words):
            x = problem.geometry(tuple(int(v) for v in row)).center
            brute = knn.knn_predict(sample, x, k, knn.TieStrategy.UNIFORM_RANDOM, space)
            checks.check(f"c07: trial {trial} word {i} oracle == trace", brute == sim.predictions[i])
            preds.append(brute)
        yield preds


def generic_oracle(seed: int, checks: Checks) -> Iterator:
    yield from checks.part("dimension suite", _dimension(seed, checks))
    yield from checks.part("sparse witness sweep", _witness_sweep(seed, checks))
    yield from checks.part("simulator oracle", _oracle(seed, checks))


WORKLOADS = {
    "stage_tables": stage_tables,
    "euclid_contrast": euclid_contrast,
    "generic_oracle": generic_oracle,
}

# The kind of code that does a workload's work, and so the reference kernel
# its wall time is divided by: numpy array kernels in the simulator and the
# dense Euclidean runners, scalar Python in the generic-metric layers.
REFERENCE = {
    "stage_tables": "numpy",
    "euclid_contrast": "numpy",
    "generic_oracle": "python",
}


def warm_up():
    """Touch every layer once at a tiny size before the first timed pass."""
    ex.run_consistency(Config("consistency", stages=(0, 0), mode="proof", test_count=100))
    ex.print_schedule(Config("schedule", mode="proof", depth=1))
    ex.run_baseline(Config("baseline", k_rule="sqrtceil", test_count=100))
    ex.run_coverhart(Config("coverhart", test_count=100))
    problem = adv.AdversarialProblem(
        adv.Schedule(m=(1, 4, 3, 3), n=(60,), mode="empirical"), truncation_depth=3
    )
    trace = adv.draw_trace(problem, 60, np.random.default_rng(0))
    adv.structured_stage_sim(problem, 0, 60, 7, 1, 0, sample_mode="trace")
    sample = adv.labelled_sample_from_trace(problem, trace)
    x = problem.geometry((1, 1, 1)).center
    knn.knn_predict(sample, x, 7, knn.TieStrategy.UNIFORM_RANDOM, SparseL2())
    cert = nagata.nagata_witness_sparse(8, ORIGIN, 1.0, DirectionIds())
    nagata.multiplicity_over_probes(cert.family, [cert.witness_point])
