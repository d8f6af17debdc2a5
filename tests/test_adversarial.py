import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from metriclab import adversarial as adv
from metriclab.adversarial import (
    AdversarialProblem,
    Schedule,
    ScheduleOverflowError,
    ScheduleValidationError,
    atom_mass,
    ball_mass,
    derive_schedule,
    k_of,
    sample_mu,
    validate_schedule,
    verify_node,
)
from metriclab.spaces import SparseL2, distance

SPACE = SparseL2()


def small_problem(m=(1, 4, 3, 3), n=(60, 200), truncation=4):
    return AdversarialProblem(Schedule(m=m, n=n, mode="empirical"), truncation)


# ---------------------------------------------------------------------------
# schedule math


def test_k_rules():
    assert k_of("log2ceil", 128) == 7
    assert k_of("log2ceil", 129) == 8
    assert k_of("log2ceil", 1) == 1
    assert k_of("sqrtceil", 10000) == 100
    assert k_of("sqrtceil", 10001) == 101
    assert k_of("const1", 10**9) == 1


def test_occupancy_bound_stage0():
    s = Schedule(m=(1,), n=(67,), mode="proof")
    # 2 * prod(m)^2 / gamma0^2 * (sum log m - log delta0) = 32 * log 8
    expect = 2 * 1 / 0.25**2 * (math.log(1) - math.log(1 / 8))
    assert adv.occupancy_threshold(s, 0) == pytest.approx(expect, abs=1e-9)
    assert adv.occupancy_threshold(s, 0) == pytest.approx(66.5421293337, abs=1e-6)
    assert validate_schedule(s) == []
    assert validate_schedule(Schedule(m=(1,), n=(66,), mode="proof")) != []


def test_branching_bound_after_n0_128():
    s = Schedule(m=(1, 293), n=(128,), mode="proof")
    bound = adv.next_branching_bound(s, 0)
    assert bound == Fraction(2 * 128 * 8, 7) == Fraction(2048, 7)
    assert float(bound) == pytest.approx(292.5714285714, abs=1e-9)
    assert validate_schedule(s) == []
    assert validate_schedule(Schedule(m=(1, 292), n=(128,), mode="proof")) != []


def test_ratio_constraint_const1():
    ok = Schedule(m=(1,), n=(9,), k_rule="const1", mode="empirical")
    assert validate_schedule(ok) == []  # 1/9 < 1/8
    bad = Schedule(m=(1,), n=(8,), k_rule="const1", mode="empirical")
    assert any("k/n" in v for v in validate_schedule(bad))


def test_derive_depth0_minimal():
    d = derive_schedule(depth=0)
    assert d.schedule.m == (1,)
    assert d.schedule.n == (67,)
    assert d.bounds[0].n_occupancy_bound == pytest.approx(32 * math.log(8), abs=1e-9)


def test_derive_depth1_defaults():
    d = derive_schedule(depth=1)
    assert d.schedule.n[0] == 67
    # minimal branching after n0 = 67, k = 7, delta0 = 1/8
    assert d.bounds[0].m_next_bound == Fraction(2 * 67 * 8, 7)
    assert d.schedule.m[1] == Fraction(2 * 67 * 8, 7).__floor__() + 1 == 154
    assert validate_schedule(d.schedule) == []
    # second stage obeys both bounds, recomputed independently
    s = d.schedule
    thr = 2 * (154**2) / float(adv.gamma_value(s, 1)) ** 2 * (
        math.log(154) - math.log(1 / 16)
    )
    assert s.n[1] > thr
    assert Fraction(k_of(s.k_rule, s.n[1]), s.n[1]) < adv.gamma_value(s, 1) / (2 * 154)


def test_derive_override_gives_acceptance_pair():
    d = derive_schedule(depth=1, n_override={0: 128})
    assert d.schedule.n[0] == 128
    assert d.schedule.m[1] == 293


def test_derive_override_below_bounds_rejected():
    with pytest.raises(ScheduleValidationError):
        derive_schedule(depth=0, n_override={0: 50})  # below the occupancy bound


def test_derive_empirical_passthrough():
    d = derive_schedule(depth=1, mode="empirical", m=(1, 293, 2000), n=(128, 10**6))
    assert d.schedule.m == (1, 293, 2000)
    assert d.schedule.n == (128, 10**6)
    assert math.isnan(d.bounds[0].n_occupancy_bound)
    with pytest.raises(ScheduleValidationError):
        derive_schedule(depth=0, mode="empirical", m=(1,), n=(8,), k_rule="const1")


def test_derive_overflow_depth4():
    with pytest.raises(ScheduleOverflowError) as err:
        derive_schedule(depth=4)
    assert err.value.stage <= 4


def test_schedule_json_roundtrip_fields():
    s = Schedule(m=(1, 5), n=(40,), mode="empirical")
    d = s.to_json_dict()
    assert set(d) == {"gamma_rule", "delta_rule", "k_rule", "m", "n", "mode", "max_depth"}
    assert d["max_depth"] == 1


def test_gamma_sums():
    s = Schedule(m=(1,), n=(10,))
    assert sum(adv.gamma_value(s, i) for i in range(40)) + adv.gamma_tail(s, 40) == Fraction(1, 2)
    assert adv.gamma_value(s, 0) == Fraction(1, 4)
    assert adv.delta_value(s, 0) == Fraction(1, 8)


# ---------------------------------------------------------------------------
# geometry


def test_root_geometry():
    p = small_problem()
    g = p.geometry(())
    assert g.eps < 1.0
    assert g.center.items == ()
    assert len(g.child_ids) == 4


def test_child_offsets_shrink_with_depth():
    p = small_problem()
    for word in [(), (1,), (1, 2), (2, 3, 1)]:
        g = p.geometry(word)
        depth = len(word)
        child = p.geometry(word + (1,))
        d = distance(SPACE, g.center, child.center)
        assert d == pytest.approx(g.child_radius, abs=0)
        assert d < 2.0 ** (-depth + 1)
        assert g.eps < 2.0 ** (-depth)


def test_sibling_distance_orthogonal():
    p = small_problem()
    a = p.geometry((1,)).center
    b = p.geometry((2,)).center
    r = p.geometry(()).child_radius
    assert distance(SPACE, a, b) == pytest.approx(r * math.sqrt(2), rel=1e-15)


def test_geometry_memoized():
    p = small_problem()
    assert p.geometry((1, 2)) is p.geometry((1, 2))


def test_geometry_depth_guard():
    p = small_problem(truncation=2)
    with pytest.raises(ValueError):
        p.geometry((1, 1, 1))


def test_verify_node_small_tree():
    p = small_problem()
    assert verify_node(p, ())
    for j in range(1, 5):
        assert verify_node(p, (j,))
    assert verify_node(p, (2, 3))


def test_verify_node_corrupted_eps():
    p = small_problem()
    word = (1,)
    good = p.geometry(word)
    p._geometry[word] = dataclasses.replace(good, eps=2 * good.eps)
    assert not verify_node(p, word)
    p._geometry[word] = good
    assert verify_node(p, word)


def test_verify_node_depth_guard():
    p = small_problem(truncation=2)
    with pytest.raises(ValueError):
        verify_node(p, (1,))


# ---------------------------------------------------------------------------
# masses


def test_atom_mass_examples():
    s = Schedule(m=(1, 4, 3, 3), n=(60,))
    assert atom_mass(s, ()) == Fraction(1, 4)
    for depth, words in ((1, 4), (2, 12), (3, 36)):
        total = words * atom_mass(s, (1,) * depth)
        assert total == adv.gamma_value(s, depth)
    # truncated depth sums stay below 1/2
    total = sum(adv.gamma_value(s, i) for i in range(4))
    assert total < Fraction(1, 2)


def test_ball_mass_examples():
    big = AdversarialProblem(Schedule(m=(1, 293), n=(128,)), truncation_depth=2)
    bm = ball_mass(big, (1,))
    assert bm.mu0 == Fraction(1, 586)
    p = small_problem()
    # depth-1 balls tile the diffuse mass
    assert sum(ball_mass(p, (j,)).mu0 for j in range(1, 5)) == Fraction(1, 2)
    # nesting strictly decreases the diffuse mass
    assert ball_mass(p, (1, 2)).mu0 < ball_mass(p, (1,)).mu0
    # subtree atoms: every depth contributes its share of the tail
    assert ball_mass(p, (1,)).mu1 == adv.gamma_tail(p.schedule, 1) / 4
    with pytest.raises(ValueError):
        ball_mass(p, ())


# ---------------------------------------------------------------------------
# sampler


def test_sample_mu_deterministic():
    p = small_problem()
    a = sample_mu(p, 64, seed=5)
    b = sample_mu(small_problem(), 64, seed=5)
    assert [(lab, prov) for _, lab, prov in a] == [(lab, prov) for _, lab, prov in b]
    assert [pt for pt, _, _ in a] == [pt for pt, _, _ in b]


def _rows_one_at_a_time(problem, trace):
    """The reference: each trace row read one numpy element at a time."""
    rows = []
    for row in range(len(trace)):
        if trace.is_atomic[row]:
            word = tuple(int(v) for v in trace.letters[row, : int(trace.atom_depth[row])])
            rows.append((problem.geometry(word).atom, 1, ("atomic", word)))
        else:
            word = tuple(int(v) for v in trace.letters[row, : problem.truncation_depth])
            rows.append((problem.geometry(word).center, 0, ("diffuse", word)))
    return rows


def _trace_case(problem, name):
    trace = adv.draw_trace(problem, 1 if name.startswith("n=1") else 500, np.random.default_rng(4))
    count, D = len(trace), problem.truncation_depth
    if name == "all atomic":
        trace.is_atomic[:] = True
        trace.atom_depth[:] = np.arange(count) % (D + 1)
    elif name in ("all diffuse", "n=1 diffuse"):
        trace.is_atomic[:] = False
        trace.atom_depth[:] = -1
    elif name in ("depth-0 atoms", "n=1 root atom"):
        trace.is_atomic[:] = True
        trace.atom_depth[:] = 0
    return trace


@pytest.mark.parametrize(
    "name",
    ["drawn", "all atomic", "all diffuse", "depth-0 atoms", "n=1 drawn", "n=1 diffuse",
     "n=1 root atom"],
)
def test_labelled_sample_matches_rows_read_one_at_a_time(name):
    p = small_problem()
    trace = _trace_case(p, name)
    sample = adv.labelled_sample_from_trace(p, trace)
    expect = _rows_one_at_a_time(p, trace)
    assert len(sample) == len(expect) == len(trace)
    assert all(got is pt for got, (pt, _, _) in zip(sample.points, expect))
    assert sample.labels == tuple(lab for _, lab, _ in expect)
    assert all(type(key) is float for key in sample.tie_keys)
    assert [key.hex() for key in sample.tie_keys] == [float(v).hex() for v in trace.tie_keys]


@pytest.mark.parametrize(
    "seed, digest",
    [
        (5, "8b2e1ee8139afa8576d23e0884c5057caefdad16f449821608a38d951faf32d6"),
        (11, "859458fe57188ca54457972ebd2d85b9f85e9009a80049550b59a2095f68fd8a"),
    ],
    ids=["seed5", "seed11"],
)
def test_sample_mu_output_is_pinned(seed, digest):
    p = small_problem()
    draws = sample_mu(p, 64, seed)
    expect = _rows_one_at_a_time(p, adv.draw_trace(p, 64, np.random.default_rng(seed)))
    assert all(pt is ref_pt for (pt, _, _), (ref_pt, _, _) in zip(draws, expect))
    assert [d[1:] for d in draws] == [e[1:] for e in expect]
    assert all(type(v) is int for _, _, (_, word) in draws for v in word)
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == digest


def test_sample_mu_label_frequency():
    p = small_problem()
    rng = np.random.default_rng(8)
    trace = adv.draw_trace(p, 10**6, rng)
    freq = trace.is_atomic.mean()
    assert abs(freq - 0.5) <= 4 * math.sqrt(0.25 / 10**6)


def test_sampler_matches_masses():
    p = small_problem()
    rng = np.random.default_rng(9)
    count = 10**6
    trace = adv.draw_trace(p, count, rng)
    # root atom frequency ~ gamma_0
    root_freq = (trace.is_atomic & (trace.atom_depth == 0)).mean()
    g0 = float(adv.gamma_value(p.schedule, 0))
    assert abs(root_freq - g0) <= 4 * math.sqrt(g0 * (1 - g0) / count)
    # one depth-1 atom frequency ~ gamma_1 / 4
    mask = trace.is_atomic & (trace.atom_depth == 1) & (trace.letters[:, 0] == 2)
    expect = float(atom_mass(p.schedule, (2,)))
    assert abs(mask.mean() - expect) <= 4 * math.sqrt(expect * (1 - expect) / count)
    # diffuse mass landing in one depth-1 ball ~ mu0 part
    mask = ~trace.is_atomic & (trace.letters[:, 0] == 3)
    expect = float(ball_mass(p, (3,)).mu0)
    assert abs(mask.mean() - expect) <= 4 * math.sqrt(expect * (1 - expect) / count)


def test_sample_points_match_provenance():
    p = small_problem()
    for pt, lab, (kind, word) in sample_mu(p, 64, seed=11):
        if kind == "atomic":
            assert lab == 1
            assert pt == p.geometry(word).atom
            assert p.eta(pt) == 1.0
        else:
            assert lab == 0
            assert len(word) == p.truncation_depth
            assert pt == p.geometry(word).center
            assert p.eta(pt) == 0.0


def test_geometry_json_dump():
    import json

    p = small_problem()
    records = adv.geometry_json(p, [(), (1,), (1, 2)])
    text = json.dumps(records)
    assert json.loads(text)[1]["word"] == [1]
    assert records[0]["center"] == {}
    assert records[2]["eps"] == p.geometry((1, 2)).eps


def test_atoms_disjoint_from_diffuse_support():
    p = small_problem(m=(1, 3, 2), n=(30,), truncation=3)
    atoms = {p.geometry(w).atom for w in [()] + [(j,) for j in range(1, 4)]}
    leaves = {
        p.geometry((a, b, c)).center
        for a in range(1, 4)
        for b in range(1, 3)
        for c in range(1, 3)
    }
    assert not atoms & leaves
