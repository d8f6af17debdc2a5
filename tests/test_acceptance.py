"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion. Each test prints PASS only after all of its assertions hold.
"""

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from metriclab import adversarial as adv
from metriclab.adversarial import (
    AdversarialProblem,
    Schedule,
    atom_mass,
    ball_mass,
    derive_schedule,
    structured_stage_sim,
    validate_schedule,
    verify_node,
)
from metriclab.experiments import (
    ExperimentConfig,
    plane_pentagon_family,
    random_disconnected_intervals,
    random_interval_family,
    random_plane_family,
    random_word_family,
    run_baseline,
    run_consistency,
    run_coverhart,
)
from metriclab.knn import TieStrategy, knn_predict
from metriclab.nagata import (
    contains,
    greedy_covering_subfamily,
    interval_multiplicity_exact,
    is_disconnected,
    multiplicity_over_probes,
    nagata_witness_sparse,
)
from metriclab.spaces import (
    DirectionIds,
    EuclideanD,
    EuclideanLine,
    Heisenberg,
    HPoint,
    ORIGIN,
    Real,
    SparseL2,
    SparsePoint,
    UltrametricWords,
    Vec,
    Word,
    distance,
    h_dilate,
    h_inv,
    h_mul,
    h_norm,
)


def _report(num, name, started):
    print(f"[ACCEPTANCE] {num:02d} {name}: PASS ({time.time() - started:.1f}s)")


def _batch_points(space, rng, count):
    if isinstance(space, EuclideanLine):
        return [Real(float(v)) for v in rng.normal(size=count)]
    if isinstance(space, EuclideanD):
        return [Vec(tuple(map(float, row))) for row in rng.normal(size=(count, space.dim))]
    if isinstance(space, Heisenberg):
        return [HPoint(*map(float, row)) for row in rng.normal(size=(count, 3))]
    if isinstance(space, UltrametricWords):
        lengths = rng.integers(0, 7, size=count)
        letters = rng.integers(1, space.alphabet_size + 1, size=(count, 7))
        return [Word(tuple(map(int, letters[i, : lengths[i]]))) for i in range(count)]
    ids = rng.integers(1, 10, size=(count, 3))
    vals = rng.normal(size=(count, 3))
    return [
        SparsePoint.from_dict({int(i): float(v) for i, v in zip(ids[r], vals[r])})
        for r in range(count)
    ]


def test_criterion_01_metric_axioms():
    started = time.time()
    rng = np.random.default_rng(101)
    spaces = [EuclideanLine(), EuclideanD(3), Heisenberg(), UltrametricWords(2), SparseL2()]
    for space in spaces:
        pts = _batch_points(space, rng, 3 * 10_000)
        for t in range(10_000):
            p, q, r = pts[3 * t], pts[3 * t + 1], pts[3 * t + 2]
            dpq = distance(space, p, q)
            assert abs(dpq - distance(space, q, p)) <= 1e-9
            assert distance(space, p, p) == 0.0
            if p != q:
                assert dpq > 0.0
            assert distance(space, p, r) <= dpq + distance(space, q, r) + 1e-9
    # strong triangle inequality holds exactly for words
    space = UltrametricWords(2)
    pts = _batch_points(space, rng, 3 * 10_000)
    for t in range(10_000):
        p, q, r = pts[3 * t], pts[3 * t + 1], pts[3 * t + 2]
        assert distance(space, p, r) <= max(distance(space, p, q), distance(space, q, r))
    assert time.time() - started < 5
    _report(1, "metric axiom suite", started)


def test_criterion_02_heisenberg_algebra():
    started = time.time()
    rng = np.random.default_rng(102)
    space = Heisenberg()
    pts = rng.normal(size=(10_000, 7))
    for row in pts:
        p = HPoint(*map(float, row[:3]))
        q = HPoint(*map(float, row[3:6]))
        t = float(abs(row[6]) + 0.1)
        e = h_mul(p, h_inv(p))
        assert abs(e.x) <= 1e-12 and abs(e.y) <= 1e-12 and abs(e.z) <= 1e-12
        assert h_norm(h_inv(p)) == h_norm(p)
        d = distance(space, p, q)
        scaled = distance(space, h_dilate(t, p), h_dilate(t, q))
        assert abs(scaled - t * d) <= 1e-9 * max(t * d, 1.0)
        g = HPoint(float(row[6]), float(row[0]), float(row[3]))
        assert abs(distance(space, h_mul(g, p), h_mul(g, q)) - d) <= 1e-9 * max(d, 1.0)
    assert time.time() - started < 5
    _report(2, "heisenberg algebra", started)


def test_criterion_03_nagata_combinatorics():
    started = time.time()
    pentagon = plane_pentagon_family()
    assert is_disconnected(pentagon)
    assert multiplicity_over_probes(pentagon, [Vec((0.0, 0.0))]).count == 5

    rng = np.random.default_rng(103)
    for _ in range(1000):
        fam = random_disconnected_intervals(rng, int(rng.integers(2, 9)))
        assert is_disconnected(fam)
        assert interval_multiplicity_exact(fam) <= 2

    for _ in range(1000):
        fam = random_word_family(rng, int(rng.integers(2, 9)), alphabet=3)
        sub = greedy_covering_subfamily(fam)
        probes = list(fam.centers())
        assert multiplicity_over_probes(sub, probes).count == 1

    ids = DirectionIds()
    for m in range(1, 257):
        cert = nagata_witness_sparse(m, ORIGIN, 1.0, ids)
        assert cert.multiplicity == m
        assert multiplicity_over_probes(cert.family, [cert.witness_point]).count == m
    assert time.time() - started < 30
    _report(3, "nagata combinatorics", started)


def test_criterion_04_greedy_covering():
    started = time.time()
    rng = np.random.default_rng(104)
    for trial in range(1000):
        if trial % 2 == 0:
            fam = random_interval_family(rng, int(rng.integers(1, 11)))
        else:
            fam = random_plane_family(rng, int(rng.integers(1, 11)))
        sub = greedy_covering_subfamily(fam)
        assert is_disconnected(sub)
        for c in fam.centers():
            assert any(contains(b, c, fam.space) for b in sub.balls)
        if trial % 2 == 0:
            assert interval_multiplicity_exact(sub) <= 2
    assert time.time() - started < 30
    _report(4, "greedy covering subfamily", started)


def test_criterion_05_exact_measure_bookkeeping():
    started = time.time()
    s = Schedule(m=(1, 4, 3, 3), n=(60,), mode="empirical")
    problem = AdversarialProblem(s, truncation_depth=3)

    def words_at(depth):
        if depth == 0:
            return [()]
        return [w + (j,) for w in words_at(depth - 1) for j in range(1, s.m[depth] + 1)]

    for depth in range(4):
        total = sum(atom_mass(s, w) for w in words_at(depth))
        assert total == adv.gamma_value(depth)
        assert isinstance(total, Fraction)
    for depth in range(1, 4):
        total = sum(ball_mass(problem, w).mu0 for w in words_at(depth))
        assert total == Fraction(1, 2)
    assert time.time() - started < 1
    _report(5, "exact measure bookkeeping", started)


def test_criterion_06_geometry_certification():
    started = time.time()
    capped = AdversarialProblem(
        Schedule(m=(1, 8, 8, 8, 8, 8), n=(60,), mode="empirical"), truncation_depth=5
    )

    def words_at(depth):
        if depth == 0:
            return [()]
        return [w + (j,) for w in words_at(depth - 1) for j in range(1, 9)]

    for depth in range(4):
        for w in words_at(depth):
            assert verify_node(capped, w)

    deep = AdversarialProblem(
        Schedule(m=(1, 3, 3, 3, 3, 3, 3, 3, 3), n=(60,), mode="empirical"),
        truncation_depth=9,
    )
    rng = np.random.default_rng(106)
    for _ in range(1000):
        depth = int(rng.integers(4, 8))
        w = tuple(int(rng.integers(1, 4)) for _ in range(depth))
        assert verify_node(deep, w)

    word = (2, 1)
    good = capped.geometry(word)
    capped._geometry[word] = dataclasses.replace(good, eps=2 * good.eps)
    assert not verify_node(capped, word)
    capped._geometry[word] = good
    assert time.time() - started < 30
    _report(6, "geometry certification", started)


def test_criterion_07_simulator_equivalence():
    started = time.time()
    space = SparseL2()
    configs = [
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
    ]
    problems = {
        cfg[:2]: AdversarialProblem(
            Schedule(m=cfg[0], n=(60,), mode="empirical"), truncation_depth=cfg[1]
        )
        for cfg in configs
    }
    trials = 0
    for seed in range(100):
        m, truncation, stage, n, k = configs[seed % len(configs)]
        prob = problems[(m, truncation)]
        rng = np.random.default_rng(seed)
        trace = adv.draw_trace(prob, n, rng)
        words = adv.draw_test_words(prob, 10, rng)
        sim = structured_stage_sim(prob, stage, n, k, 10, seed, sample_mode="trace")
        sample = adv.labelled_sample_from_trace(prob, trace)
        for i, row in enumerate(words):
            x = prob.geometry(tuple(int(v) for v in row)).center
            brute = knn_predict(sample, x, k, TieStrategy.UNIFORM_RANDOM, space)
            assert brute == sim.predictions[i]
        trials += 1
    assert trials == 100
    assert time.time() - started < 120
    _report(7, "simulator equivalence oracle", started)


def test_criterion_08_consistency_failure():
    started = time.time()
    proof = run_consistency(
        ExperimentConfig(experiment="consistency", seed=108, stages=(0, 0),
                         mode="proof", test_count=10_000)
    )
    (stage0,) = proof
    assert (stage0.n, stage0.k) == (128, 7)
    assert stage0.delta == 0.125
    assert stage0.frac_pred1_nonatomic >= 0.75 - 3 * stage0.stderr

    empirical = run_consistency(
        ExperimentConfig(experiment="consistency", seed=109, stages=(0, 1),
                         mode="empirical", test_count=10_000)
    )
    assert empirical[1].n == 10**6
    assert empirical[1].frac_pred1_nonatomic >= 0.9
    for r in proof + empirical:
        assert r.error >= 0.35
        assert r.bayes == 0.0
    assert time.time() - started < 300
    _report(8, "consistency-failure demonstration", started)


def test_criterion_09_baseline_contrast():
    started = time.time()
    reports = run_baseline(
        ExperimentConfig(experiment="baseline", seed=110, k_rule="sqrtceil",
                         test_count=4000)
    )
    assert [r.n for r in reports] == [100, 1000, 10000]
    assert reports[-1].k == 100
    assert reports[-1].error <= 0.05
    for a, b in zip(reports, reports[1:]):
        assert b.error <= a.error + 2 * max(a.stderr, b.stderr)
    assert time.time() - started < 120
    _report(9, "baseline contrast", started)


def test_criterion_10_cover_hart():
    started = time.time()
    cases = run_coverhart(
        ExperimentConfig(experiment="coverhart", seed=111, test_count=10_000)
    )
    by_name = {c["case"]: c for c in cases}
    const = by_name["constant_eta_0.3"]
    assert const["n"] == 20_000
    assert 0.40 <= const["error"] <= 0.44
    half = by_name["deterministic_halfplane"]
    assert half["n"] == 10_000
    assert half["error"] <= 0.02
    assert by_name["ratio_vs_twice_bayes"]["ratio"] <= 2.1
    assert time.time() - started < 180
    _report(10, "cover-hart", started)


def test_criterion_11_schedule_math():
    started = time.time()
    d = derive_schedule(depth=1, n_override={0: 128})
    assert d.bounds[0].n_occupancy_bound == pytest.approx(32 * math.log(8), abs=1e-9)
    assert float(d.bounds[0].m_next_bound) == pytest.approx(2048 / 7, abs=1e-9)
    assert d.schedule.m[1] == 293

    # the constant k rule is legitimate: a conforming schedule validates
    const = Schedule(m=(1,), n=(67,), k_rule="const1", mode="proof")
    assert validate_schedule(const) == []
    assert time.time() - started < 1
    _report(11, "schedule math", started)
