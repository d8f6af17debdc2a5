"""Microbenchmarks of the adversarial simulator layer: the exact distance
classes, both sample modes of the stage simulator, and the schedule.

Outside ``testpaths``, so the test suite does not run them:

    PYTHONPATH=src python -m pytest bench/test_adversarial_layer.py

Each case also checks its result, so a fast wrong answer fails.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from metriclab import adversarial as adv
from metriclab import experiments as ex


def _problem(mode: str, depth: int) -> adv.AdversarialProblem:
    # the schedules and truncation depths of the `lab consistency` tables
    config = ex.ExperimentConfig("consistency", stages=(0, depth), mode=mode)
    return adv.AdversarialProblem(ex.build_schedule(config).schedule, truncation_depth=depth + 2)


def test_distance_classes(benchmark):
    problem = _problem("empirical", 1)
    classes = benchmark(adv.distance_classes, problem)
    D = problem.truncation_depth
    # one atom class per (depth j, split h <= j), one diffuse class per split
    assert len(classes) == (D + 1) * (D + 2) // 2 + D + 1
    assert sum(c.prob for c in classes) == 1
    assert all(a.d2 <= b.d2 for a, b in zip(classes, classes[1:]))
    assert classes[0] == adv.DistanceClass(Fraction(0), 0, classes[0].prob, "diffuse", D, D)


def test_structured_stage_sim_fresh(benchmark):
    # the proof-mode stage-0 row: n = 128, k = 7, 10^4 test points
    problem = _problem("proof", 0)
    res = benchmark(adv.structured_stage_sim, problem, 0, 128, 7, 10_000, 7, "fresh")
    assert len(res.predictions) == 10_000
    assert res.fraction >= 0.75 - 3 * res.stderr


def test_structured_stage_sim_trace(benchmark):
    # the shared-sample stage of the empirical table: n = 10^6, k = 20
    problem = _problem("empirical", 1)
    n = problem.schedule.n[1]
    k = adv.k_of(problem.schedule.k_rule, n)
    assert (n, k) == (10**6, 20)
    res = benchmark(adv.structured_stage_sim, problem, 1, n, k, 20, 7, "trace")
    assert len(res.predictions) == 20
    assert res.fraction >= 0.9


@pytest.mark.parametrize("mode", ["proof", "empirical"])
def test_derive_schedule(benchmark, mode):
    # the `lab schedule` defaults: n_0 = 128 in proof mode
    if mode == "proof":
        args = dict(n_override=ex.DEFAULT_PROOF_N_OVERRIDE)
    else:
        args = dict(m=ex.DEFAULT_EMPIRICAL_M, n=ex.DEFAULT_EMPIRICAL_N)
    derived = benchmark(adv.derive_schedule, depth=1, mode=mode, **args)
    assert derived.schedule.m[:2] == (1, 293)
    assert not adv.validate_schedule(derived.schedule)
