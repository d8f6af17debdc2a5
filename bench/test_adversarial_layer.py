"""Microbenchmarks of the adversarial simulator layer: the exact distance
classes, both sample modes of the stage simulator, and the schedule.

Outside ``testpaths``, so the test suite does not run them:

    PYTHONPATH=src python -m pytest bench/test_adversarial_layer.py

Each case also checks its result, so a fast wrong answer fails.
"""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from metriclab import adversarial as adv
from metriclab import experiments as ex


def _problem(mode: str, depth: int) -> adv.AdversarialProblem:
    # the schedules and truncation depths of the `lab consistency` tables
    config = ex.ExperimentConfig("consistency", stages=(0, depth), mode=mode)
    return adv.AdversarialProblem(ex.build_schedule(config).schedule, truncation_depth=depth + 2)


def test_distance_classes(benchmark):
    # a fresh problem each round: a problem computes its classes once, and
    # a round on the same problem would time that memo
    def fresh_problem():
        return (_problem("empirical", 1),), {}

    classes = benchmark.pedantic(adv.distance_classes, setup=fresh_problem, rounds=200)
    D = _problem("empirical", 1).truncation_depth
    # one atom class per (depth j, split h <= j), one diffuse class per split
    assert len(classes) == (D + 1) * (D + 2) // 2 + D + 1
    assert sum(c.prob for c in classes) == 1
    assert all(a.d2 <= b.d2 for a, b in zip(classes, classes[1:]))
    assert classes[0] == adv.DistanceClass(Fraction(0), 0, classes[0].prob, "diffuse", D, D)


def test_structured_stage_sim_fresh(benchmark):
    # the proof-mode stage-0 row: n = 128, k = 7, 10^4 test points, where
    # stage_probability and one binomial draw take well under a millisecond
    problem = _problem("proof", 0)
    res = benchmark(adv.structured_stage_sim, problem, 0, 128, 7, 10_000, 7, "fresh")
    assert res.predictions is None
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


def test_draw_rows(benchmark):
    # the shared sample's rows without their tie keys, as trace mode draws
    # them: one multinomial for the group sizes, letters only where read
    problem = _problem("empirical", 1)
    trace = benchmark(adv._draw_rows, problem, 10**6, np.random.default_rng(7))
    assert len(trace) == 10**6 and trace.tie_keys is None
    assert abs(trace.group_sizes[0] / len(trace) - 0.5) <= 5 * 0.5 / 10**3


def test_draw_trace(benchmark):
    # the shared sample of the empirical table's stage 1: n = 10^6 rows
    problem = _problem("empirical", 1)
    trace = benchmark(adv.draw_trace, problem, 10**6, np.random.default_rng(7))
    assert len(trace) == 10**6
    assert abs(trace.group_sizes[0] / len(trace) - 0.5) <= 5 * 0.5 / 10**3
    assert len(np.unique(trace.tie_keys)) == 10**6


@pytest.mark.parametrize("n, T", [(10**6, 20), (250, 50)], ids=["n1e6", "n250"])
def test_trace_predictions(benchmark, n, T):
    # the kernel alone on one fixed trace at D = 3: the empirical table's
    # stage 1 (n = 10^6, k = 20), and a criterion-07-size sample of 250 rows
    # with 50 test words, where numpy's per-call cost dominates
    problem = _problem("empirical", 1)
    k = adv.k_of(problem.schedule.k_rule, n)
    rng = np.random.default_rng(7)
    trace = adv.draw_trace(problem, n, rng)
    words = adv.draw_test_words(problem, T, rng)
    preds = benchmark(adv._trace_predictions, problem, trace, words, k)
    assert len(preds) == T
    assert preds.mean() >= 0.9


def test_structured_stage_sim_fresh_empirical(benchmark):
    # the fresh-mode stage 1 of the empirical table: n = 10^6, k = 20 and
    # 10^6 test points; one untimed run records the tracemalloc peak
    problem = _problem("empirical", 1)
    args = (problem, 1, 10**6, 20, 10**6, 7, "fresh")
    tracemalloc.start()
    try:
        adv.structured_stage_sim(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    benchmark.extra_info["tracemalloc_peak_mib"] = round(peak / 2**20, 1)
    res = benchmark(adv.structured_stage_sim, *args)
    assert res.predictions is None
    assert res.fraction >= 0.9


def test_structured_stage_sim_fresh_large_k(benchmark):
    # k = 16384 at n = 157000 on m = (1, 4, 3, 3), near the vote's midpoint:
    # stage_probability's races run over k/2 and k/2 + 1 terms, p = 0.434
    schedule = adv.Schedule(m=(1, 4, 3, 3), n=(157_000,), mode="empirical")
    problem = adv.AdversarialProblem(schedule, truncation_depth=3)
    res = benchmark(adv.structured_stage_sim, problem, 0, 157_000, 16384, 20_000, 7, "fresh")
    assert res.predictions is None
    p = adv.stage_probability(problem, 157_000, 16384)
    assert abs(res.fraction - p) <= 5 * res.stderr


def test_structured_stage_sim_fresh_sqrtceil_ladder(benchmark):
    # stage 1 of the sqrtceil ladder m = (1, 293, 2000, 4000), n = (128,
    # 10^8, 4·10^14): n = 10^8, k = 10^4, 10^4 test points
    config = ex.ExperimentConfig(
        "consistency", stages=(0, 1), k_rule="sqrtceil", m=(1, 293, 2000, 4000),
        n=(128, 10**8, 4 * 10**14),
    )
    problem = adv.AdversarialProblem(ex.build_schedule(config).schedule, truncation_depth=3)
    assert adv.k_of("sqrtceil", 10**8) == 10**4
    res = benchmark(adv.structured_stage_sim, problem, 1, 10**8, 10**4, 10**4, 7, "fresh")
    assert res.predictions is None
    assert res.fraction >= 0.99


def test_structured_stage_sim_trace_many_words(benchmark):
    # the same stage with 10^4 test words: they hold every first letter, so
    # few sample rows drop out of the prefix filter early
    problem = _problem("empirical", 1)
    res = benchmark(adv.structured_stage_sim, problem, 1, 10**6, 20, 10_000, 7, "trace")
    assert len(res.predictions) == 10_000
    assert res.fraction >= 0.9


@pytest.mark.parametrize("mode", ["proof", "empirical"])
def test_derive_schedule(benchmark, mode):
    # the `lab schedule` defaults: n_0 = 128 in proof mode
    if mode == "proof":
        derived = benchmark(adv.derive_schedule, 1, n_override=ex.DEFAULT_PROOF_N_OVERRIDE)
    else:
        derived = benchmark(adv.empirical_schedule, ex.DEFAULT_EMPIRICAL_M, ex.DEFAULT_EMPIRICAL_N)
    assert derived.schedule.m[:2] == (1, 293)
    assert not adv.validate_schedule(derived.schedule)
