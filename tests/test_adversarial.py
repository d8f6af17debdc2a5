import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

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
    validate_schedule,
    verify_node,
)
from metriclab.knn import LabelledSample, TieStrategy, knn_predict
from metriclab.spaces import DirectionIds, SparseL2, distance
from trace_rows import grouped_trace

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
    thr = 2 * (154**2) / float(adv.gamma_value(1)) ** 2 * (
        math.log(154) - math.log(1 / 16)
    )
    assert s.n[1] > thr
    assert Fraction(k_of(s.k_rule, s.n[1]), s.n[1]) < adv.gamma_value(1) / (2 * 154)


def test_derive_override_gives_acceptance_pair():
    d = derive_schedule(depth=1, n_override={0: 128})
    assert d.schedule.n[0] == 128
    assert d.schedule.m[1] == 293


def test_derive_override_below_bounds_rejected():
    with pytest.raises(ScheduleValidationError):
        derive_schedule(depth=0, n_override={0: 50})  # below the occupancy bound


def test_derive_empirical_passthrough():
    d = adv.empirical_schedule((1, 293, 2000), (128, 10**6))
    assert d.schedule.m == (1, 293, 2000)
    assert d.schedule.n == (128, 10**6)
    assert d.bounds[0].n_occupancy_bound is None
    with pytest.raises(ScheduleValidationError):
        adv.empirical_schedule((1,), (8,), k_rule="const1")


def test_derive_overflow_depth4():
    with pytest.raises(ScheduleOverflowError) as err:
        derive_schedule(depth=4)
    assert err.value.stage <= 4


def _reference_bounds(k_rule, mode, n_override, depth=None, m=None, n=None):
    """Reference for ``derive_schedule``: the schedule and its bounds, each
    bound worked out while its stage is chosen rather than by
    ``stage_bounds``; raises where the derivation fails."""
    n_override = n_override or {}
    if any(not 0 <= stage < (len(n) if n else depth + 1) for stage in n_override):
        raise ValueError("n_override names a stage outside the schedule")
    if mode == "empirical":
        sched = Schedule(m, tuple(n_override.get(i, v) for i, v in enumerate(n)), k_rule, mode)
        if validate_schedule(sched):
            raise ScheduleValidationError(validate_schedule(sched))
        return sched, [
            adv.StageBounds(i, None, adv.ratio_bound(sched, i), sched.n[i],
                            k_of(k_rule, sched.n[i]), None,
                            sched.m[i + 1] if i + 1 < len(sched.m) else None)
            for i in range(len(sched.n))
        ]
    m_seq, n_seq, bounds = [1], [], []
    for i in range(depth + 1):
        partial = Schedule(tuple(m_seq), tuple(n_seq), k_rule, "proof")
        thr = adv.occupancy_threshold(partial, i)
        if math.isinf(thr) or thr >= adv.INT64_MAX:
            raise ScheduleOverflowError(i, "n")
        rb = adv.ratio_bound(partial, i)
        n_i = adv._minimal_n(k_rule, rb, int(math.floor(thr)) + 1)
        if i in n_override:
            n_i = n_override[i]
            if not (n_i > thr and Fraction(k_of(k_rule, n_i), n_i) < rb):
                raise ScheduleValidationError([f"stage {i}: override n = {n_i}"])
        n_seq.append(n_i)
        m_next_bound = m_next = None
        if i < depth:
            staged = Schedule(tuple(m_seq), tuple(n_seq), k_rule, "proof")
            m_next_bound = adv.next_branching_bound(staged, i)
            m_next = adv.minimal_branching(staged, i)
            m_seq.append(m_next)
        bounds.append(adv.StageBounds(i, thr, rb, n_i, k_of(k_rule, n_i), m_next_bound, m_next))
    sched = Schedule(tuple(m_seq), tuple(n_seq), k_rule, "proof")
    if validate_schedule(sched):
        raise ScheduleValidationError(validate_schedule(sched))
    return sched, bounds


def _derive(mode, k_rule, n_override, depth=None, m=None, n=None):
    """The derivation of the case's mode."""
    if mode == "proof":
        return derive_schedule(depth, k_rule, n_override)
    return adv.empirical_schedule(m, n, k_rule, n_override)


def _derivable(case):
    try:
        _reference_bounds(**case)
    except (ValueError, OverflowError):
        return False
    return True


_EMPIRICAL = dict(mode="empirical", m=(1, 293, 2000), n=(128, 10**6))
_BOUNDS_CASES = [
    case
    for k_rule in adv.K_RULES
    for case in [
        *(dict(depth=depth, k_rule=k_rule, mode="proof", n_override=override)
          for depth in (0, 1)
          for override in (None, {0: 128}, {0: 10**4}, {1: 2**40}, {0: 128, 1: 2**40})),
        *(dict(k_rule=k_rule, n_override=override, **_EMPIRICAL)
          for override in (None, {1: 500_000})),
    ]
    if _derivable(case)
]


@pytest.mark.parametrize(
    "case", _BOUNDS_CASES,
    ids=lambda c: f"{c['mode']}-depth{c.get('depth')}-{c['k_rule']}-{c['n_override']}",
)
def test_derived_bounds_match_the_stagewise_reference(case):
    sched, expect = _reference_bounds(**case)
    derived = _derive(**case)
    assert derived.schedule == sched
    assert len(derived.bounds) == len(expect)
    for got, want in zip(derived.bounds, expect):
        for field, a, b in zip(adv.StageBounds._fields, got, want):
            assert a == b and type(a) is type(b), (field, a, b)


def test_bounds_cases_cover_every_k_rule_depth_and_mode():
    cases = {(c["k_rule"], c["mode"], c.get("depth"), bool(c["n_override"])) for c in _BOUNDS_CASES}
    assert cases == {
        (rule, mode, depth, over)
        for rule in ("log2ceil", "const1")
        for mode, depth in (("proof", 0), ("proof", 1), ("empirical", None))
        for over in (False, True)
    } | {("sqrtceil", "proof", depth, over) for depth in (0, 1) for over in (False, True)}


def test_binomial_stderr_is_floored_at_both_ends():
    floor = math.sqrt(1e-12 / 400)
    assert adv.binomial_stderr(0.0, 400) == adv.binomial_stderr(1.0, 400) == floor
    assert adv.binomial_stderr(0.5, 400) == 0.025


def test_schedule_json_roundtrip_fields():
    s = Schedule(m=(1, 5), n=(40,), mode="empirical")
    d = s.to_json_dict()
    assert set(d) == {"gamma_rule", "delta_rule", "k_rule", "m", "n", "mode", "max_depth"}
    assert d["max_depth"] == 1


def test_gamma_sums():
    assert sum(adv.gamma_value(i) for i in range(40)) + adv.gamma_tail(40) == Fraction(1, 2)
    assert adv.gamma_value(0) == Fraction(1, 4)
    assert adv.delta_value(0) == Fraction(1, 8)


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


def test_geometry_constants_match_closed_forms():
    # the closed forms the float-derived constants replaced
    for d in range(adv.MAX_TRUNCATION + 1):
        assert adv.child_radius2_frac(d) == Fraction(1, 1 << (12 * d + 4))
        assert adv.atom_offset2_frac(d) == Fraction(25, 1 << (12 * d + 10))
        assert adv.node_eps(d) == 2.0 ** (-6 * d - 6)


def test_node_geometry_fields():
    p = small_problem()
    ids = []
    for word in [(), (2,), (2, 3), (2, 3, 1), (2, 3, 1, 2)]:
        g, depth = p.geometry(word), len(word)
        assert g.eps == adv.node_eps(depth)
        assert g.child_radius == adv.child_radius(depth)
        expect = p.branching_at(depth + 1) if depth < p.truncation_depth else 0
        assert len(g.child_ids) == expect
        assert distance(SPACE, g.center, g.atom) == adv.atom_offset(depth)
        ids.extend(g.child_ids)
    assert len(set(ids)) == len(ids)


def test_geometry_ids_are_those_of_per_child_fresh_calls():
    # the ids each node drew when its child ids were a tuple of fresh()
    # calls, followed by its atom's id, nodes built parent first: no id moved
    p, old = small_problem(), DirectionIds()
    for word in [(), (2,), (2, 3), (1,), (2, 3, 1), (2, 3, 1, 2), (4,), (4, 1)]:
        g = p.geometry(word)
        assert tuple(g.child_ids) == tuple(old.fresh() for _ in range(len(g.child_ids)))
        assert g.atom.items[-1][0] == old.fresh()


def test_children_of_a_depth_2_node_take_no_id_tuples():
    # the five-stage ladder: each of the 4000 children of (1, 1) has 12,500
    # children, whose ids as tuples took 1.7 GiB
    p = AdversarialProblem(Schedule(m=(1, 293, 2000, 4000, 12500, 60000), n=(60,)), 6)
    tracemalloc.start()
    try:
        children = [p.geometry((1, 1, j)) for j in range(1, 4001)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert len(children[-1].child_ids) == 12500


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
        assert total == adv.gamma_value(depth)
    # truncated depth sums stay below 1/2
    total = sum(adv.gamma_value(i) for i in range(4))
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
    assert ball_mass(p, (1,)).mu1 == adv.gamma_tail(1) / 4
    with pytest.raises(ValueError):
        ball_mass(p, ())


# ---------------------------------------------------------------------------
# sampler


def test_grouped_trace_sorts_hand_made_rows_into_the_layout():
    # D = 2: the diffuse rows, then atoms at depths 2 (none here), 1 and 0
    letters = np.array([[1, 1], [2, 1], [3, 3], [4, 2], [1, 2]])
    trace = grouped_trace([0, -1, 1, -1, 0], letters, [0.1, 0.2, 0.3, 0.4, 0.5])
    assert len(trace) == 5 and trace.group_sizes.tolist() == [2, 0, 1, 2]
    assert trace.depths().tolist() == [-1, -1, 1, 0, 0]
    assert trace.letters[:, 0].tolist() == [2, 4, 3, 1, 1]
    assert trace.tie_keys.tolist() == [0.2, 0.4, 0.3, 0.1, 0.5]


def _rows_one_at_a_time(problem, trace):
    """The reference: each trace row read one numpy element at a time."""
    rows, depths = [], trace.depths()
    for row in range(len(trace)):
        if depths[row] >= 0:
            word = tuple(int(v) for v in trace.letters[row, : int(depths[row])])
            rows.append((problem.geometry(word).atom, 1))
        else:
            word = tuple(int(v) for v in trace.letters[row, : problem.truncation_depth])
            rows.append((problem.geometry(word).center, 0))
    return rows


def _trace_case(problem, name):
    trace = adv.draw_trace(problem, 1 if name.startswith("n=1") else 500, np.random.default_rng(4))
    if "drawn" in name:
        return trace
    count, D = len(trace), problem.truncation_depth
    if name == "all atomic":
        depth = np.arange(count) % (D + 1)
    elif name in ("all diffuse", "n=1 diffuse"):
        depth = np.full(count, -1)
    else:  # "depth-0 atoms", "n=1 root atom"
        depth = np.zeros(count, dtype=np.int64)
    # a drawn row holds letters only down to its own depth, so a row
    # turned into a deeper atom or a diffuse row gets all D letters
    letters = adv.draw_test_words(problem, count, np.random.default_rng(5))
    return grouped_trace(depth, letters, trace.tie_keys)


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
    assert all(got is pt for got, (pt, _) in zip(sample.points, expect))
    assert sample.labels == tuple(lab for _, lab in expect)
    assert all(type(key) is float for key in sample.tie_keys)
    assert [key.hex() for key in sample.tie_keys] == [float(v).hex() for v in trace.tie_keys]


@pytest.mark.parametrize(
    "seed, digest",
    [
        (5, "815e4296bd0fee101fcb9abc3bda489e133cef2c504039ee36fecbcb72134c87"),
        (11, "c600c6e5905556781780df6600ede1fbf871fa86d53c7fac6cc01dfe2671bb6e"),
    ],
    ids=["seed5", "seed11"],
)
def test_labelled_sample_from_trace_is_pinned(seed, digest):
    # pins draw_trace's stream and the sample built from it
    p = small_problem()
    s = adv.labelled_sample_from_trace(p, adv.draw_trace(p, 64, np.random.default_rng(seed)))
    assert hashlib.sha256(repr((s.points, s.labels, s.tie_keys)).encode()).hexdigest() == digest


def test_labelled_sample_from_trace_deterministic():
    a, b = small_problem(), small_problem()
    sa = adv.labelled_sample_from_trace(a, adv.draw_trace(a, 64, np.random.default_rng(5)))
    sb = adv.labelled_sample_from_trace(b, adv.draw_trace(b, 64, np.random.default_rng(5)))
    assert sa == sb


def test_labelled_sample_needs_the_trace_tie_keys():
    # trace mode draws its rows without keys; a sample cannot be built from them
    p = small_problem()
    trace = adv._draw_rows(p, 64, np.random.default_rng(5))
    assert trace.tie_keys is None
    with pytest.raises(ValueError, match="equal length"):
        adv.labelled_sample_from_trace(p, trace)


def test_sample_points_carry_one_label_each():
    # atoms (label 1) sit off their hubs, diffuse points (label 0) on the
    # hubs at the truncation depth, so no point carries both labels
    p = small_problem()
    trace = adv.draw_trace(p, 2000, np.random.default_rng(11))
    sample = adv.labelled_sample_from_trace(p, trace)
    labels, depths = {}, trace.depths()
    for row, (pt, lab) in enumerate(zip(sample.points, sample.labels)):
        assert labels.setdefault(pt, lab) == lab
        if depths[row] >= 0:
            depth = int(depths[row])
            hub = p.geometry(tuple(trace.letters[row, :depth].tolist())).center
            assert lab == 1
            assert distance(SPACE, hub, pt) == adv.atom_offset(depth)
        else:
            leaf = p.geometry(tuple(trace.letters[row].tolist())).center
            assert lab == 0
            assert pt is leaf
    assert set(labels.values()) == {0, 1}


# criterion 07: (branching, truncation depth, stage, n, k)
CRITERION_07 = [
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


def _sample_against_the_rows(problem, fresh, trace):
    """The sample of ``trace`` holds the very objects, labels and tie keys of
    the rows read one at a time, and a fresh problem walked row by row
    issues the same direction ids, so its points are equal."""
    sample = adv.labelled_sample_from_trace(problem, trace)
    expect = _rows_one_at_a_time(problem, trace)
    assert len(sample) == len(expect) == len(trace)
    assert all(got is pt for got, (pt, _) in zip(sample.points, expect))
    assert sample.labels == tuple(lab for _, lab in expect)
    assert sample.tie_keys == tuple(trace.tie_keys.tolist())
    assert sample.points == tuple(pt for pt, _ in _rows_one_at_a_time(fresh, trace))


@pytest.mark.parametrize("m, depth, stage, n, k", CRITERION_07)
def test_distinct_row_sample_equals_the_row_by_row_sample(m, depth, stage, n, k):
    problem, fresh = (small_problem(m=m, n=(60,), truncation=depth) for _ in range(2))
    _sample_against_the_rows(problem, fresh, adv.draw_trace(problem, n, np.random.default_rng(n)))


@pytest.mark.parametrize("m, depth, stage, n, k", CRITERION_07)
def test_trace_sample_is_born_as_its_tuple_packing(m, depth, stage, n, k):
    # the sample born packed equals the one packed by id from its tuples:
    # same value, same hash, the very objects and equal arrays
    problem = small_problem(m=m, n=(60,), truncation=depth)
    trace = adv.draw_trace(problem, n, np.random.default_rng(n))
    born = adv.labelled_sample_from_trace(problem, trace)
    packed = born.packed
    by_id = LabelledSample(born.points, born.labels, born.tie_keys)
    assert born == by_id and hash(born) == hash(by_id)
    assert len(packed.objects) == len(by_id.packed.objects)
    assert all(a is b for a, b in zip(packed.objects, by_id.packed.objects))
    for got, want in zip(packed[1:], by_id.packed[1:]):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_criterion_07_oracle_never_builds_the_points_tuple():
    problem = small_problem(m=(1, 6, 2), n=(60,), truncation=2)
    rng = np.random.default_rng(11)
    trace = adv.draw_trace(problem, 2000, rng)
    words = adv.draw_test_words(problem, 10, rng)
    sim = adv.structured_stage_sim(problem, 0, 2000, 11, 10, 11, sample_mode="trace")
    with mock.patch.object(LabelledSample, "points", new_callable=mock.PropertyMock) as points:
        sample = adv.labelled_sample_from_trace(problem, trace)
        tests = [problem.geometry(tuple(row)).center for row in words.tolist()]
        brute = [knn_predict(sample, x, 11, TieStrategy.UNIFORM_RANDOM, SPACE) for x in tests]
    assert not points.called and "points" not in vars(sample)
    assert brute == sim.predictions.tolist()


def test_distinct_row_sample_of_a_hand_built_row_major_trace():
    # row-major int64 letters, with letters past each atom's depth that the
    # sample must not read
    problem, fresh = small_problem(), small_problem()
    trace = adv.draw_trace(problem, 400, np.random.default_rng(6))
    letters = np.ascontiguousarray(trace.letters, dtype=np.int64)
    depths = trace.depths()
    unread = (np.arange(problem.truncation_depth) >= depths[:, None]) & (depths[:, None] >= 0)
    letters[unread] = np.random.default_rng(7).integers(1, 3, size=int(unread.sum()))
    assert letters.flags.c_contiguous and unread.any()
    hand = adv.SampleTrace(trace.group_sizes, letters, trace.tie_keys)
    _sample_against_the_rows(problem, fresh, hand)


@pytest.mark.parametrize("values", [[3], [2, 2, 2], [5, 1, 4, 1, 5, 9, 2, 6], list(range(40, 0, -3))])
def test_unique_inverse_equals_np_unique(values):
    values = np.array(values, dtype=np.int64)
    distinct, inverse = adv._unique_inverse(values)
    want_distinct, want_inverse = np.unique(values, return_inverse=True)
    assert distinct.tolist() == want_distinct.tolist()
    assert inverse.tolist() == want_inverse.tolist()


def test_draw_trace_label_frequency():
    p = small_problem()
    rng = np.random.default_rng(8)
    trace = adv.draw_trace(p, 10**6, rng)
    freq = (trace.depths() >= 0).mean()
    assert abs(freq - 0.5) <= 4 * math.sqrt(0.25 / 10**6)


def test_sampler_matches_masses():
    p = small_problem()
    rng = np.random.default_rng(9)
    count = 10**6
    trace = adv.draw_trace(p, count, rng)
    depth = trace.depths()
    # root atom frequency ~ gamma_0
    root_freq = (depth == 0).mean()
    g0 = float(adv.gamma_value(0))
    assert abs(root_freq - g0) <= 4 * math.sqrt(g0 * (1 - g0) / count)
    # one depth-1 atom frequency ~ gamma_1 / 4
    mask = (depth == 1) & (trace.letters[:, 0] == 2)
    expect = float(atom_mass(p.schedule, (2,)))
    assert abs(mask.mean() - expect) <= 4 * math.sqrt(expect * (1 - expect) / count)
    # diffuse mass landing in one depth-1 ball ~ mu0 part
    mask = (depth < 0) & (trace.letters[:, 0] == 3)
    expect = float(ball_mass(p, (3,)).mu0)
    assert abs(mask.mean() - expect) <= 4 * math.sqrt(expect * (1 - expect) / count)


class _RepeatedTieKeys:
    """A generator whose first tie-key draw (its first ``random`` call)
    repeats values, so ``draw_trace`` has to redraw them."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self._calls = 0

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def random(self, size):
        self._calls += 1
        values = self._rng.random(size)
        if self._calls == 1:
            values[1::3] = values[::3][: len(values[1::3])]
            self.repeated = values.copy()
        return values


def test_draw_trace_redraws_repeated_tie_keys():
    # repeats are redrawn off the main stream: rng sees only the group
    # counts, the letters and one key draw, and ends where an unspied
    # generator ends
    rng = _RepeatedTieKeys(3)
    trace = adv.draw_trace(small_problem(), 100, rng)
    assert rng._calls == 1
    assert len(np.unique(trace.tie_keys)) == 100
    # the first copy of each value stays, every later copy is redrawn
    assert (trace.tie_keys[::3] == rng.repeated[::3]).all()
    assert not np.isin(trace.tie_keys[1::3], rng.repeated).any()
    plain = np.random.default_rng(3)
    adv.draw_trace(small_problem(), 100, plain)
    assert rng.bit_generator.state == plain.bit_generator.state


@pytest.mark.parametrize("count", [1, 2, 61, 100, 1001, 10**4])
def test_skipping_the_tie_keys_leaves_the_state_of_draw_trace(count):
    p = small_problem(truncation=3)
    drawn = np.random.default_rng(count)
    adv.draw_trace(p, count, drawn)
    skipped = np.random.default_rng(count)
    adv._draw_rows(p, count, skipped)
    adv._skip_uniforms(skipped, count)
    assert skipped.bit_generator.state == drawn.bit_generator.state


def test_skipping_the_tie_keys_keeps_either_buffered_half():
    # an odd number of letter draws leaves a buffered 32-bit half
    # (has_uint32 = 1), which the skip must keep for the test words; the
    # number of letters is random, so both parities occur
    p = small_problem(truncation=3)
    parities = set()
    for count in range(1, 17):
        drawn = np.random.default_rng(count)
        adv.draw_trace(p, count, drawn)
        skipped = np.random.default_rng(count)
        adv._draw_rows(p, count, skipped)
        parities.add(skipped.bit_generator.state["has_uint32"])
        adv._skip_uniforms(skipped, count)
        assert skipped.bit_generator.state == drawn.bit_generator.state
    assert parities == {0, 1}


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_letters_drawn_in_pieces_equal_one_draw_per_level(chunk):
    # each level draws letters for a prefix of the rows; the rest stay 0
    p = small_problem(truncation=3)
    reach = [101, 60, 7]
    whole = np.random.default_rng(11)
    want = np.zeros((101, 3), dtype=np.int64)
    for h, rows in enumerate(reach):
        want[:rows, h] = whole.integers(1, p.branching_at(h + 1) + 1, size=rows)
    pieces = np.random.default_rng(11)
    with mock.patch.object(adv, "CHUNK", chunk):
        got = adv._draw_words(p, 101, pieces, np.int8, reach)
    assert (got == want).all()
    assert pieces.bit_generator.state == whole.bit_generator.state


def test_skipping_the_tie_keys_leaves_the_state_of_a_redrawing_draw_trace():
    repeated = _RepeatedTieKeys(3)
    adv.draw_trace(small_problem(), 100, repeated)
    assert len(repeated.repeated) > len(np.unique(repeated.repeated))
    skipped = np.random.default_rng(3)
    adv._draw_rows(small_problem(), 100, skipped)
    adv._skip_uniforms(skipped, 100)
    assert skipped.bit_generator.state == repeated.bit_generator.state


_NO_MASKED_ARRAYS = """
import sys
import numpy as np
from metriclab import adversarial as adv

class Repeated:  # a generator whose tie keys repeat, so draw_trace redraws them
    def __init__(self):
        self.rng = np.random.default_rng(3)

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def random(self, size):
        values = self.rng.random(size)
        values[1::3] = values[::3][: len(values[1::3])]
        return values

p = adv.AdversarialProblem(adv.Schedule(m=(1, 4, 3, 3), n=(60, 200), mode="empirical"), 4)
adv.structured_stage_sim(p, 1, 500, 7, 20, 0, sample_mode="trace")
adv.draw_trace(p, 100, Repeated())
print("numpy.ma" in sys.modules)
"""


def test_trace_paths_do_not_load_masked_arrays():
    # plain np.unique and np.setdiff1d import numpy.ma (5 ms) on first use
    src = str(Path(adv.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _NO_MASKED_ARRAYS], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("D", [3, 8])
def test_draw_trace_depth_frequencies_match_gamma(D):
    # P(atom at depth j) = gamma_j = 2**-(j+2) below D, the tail 2**-(D+1) at D
    count = 10**6
    trace = adv.draw_trace(small_problem(truncation=D), count, np.random.default_rng(12))
    got = np.bincount(trace.depths() + 1, minlength=D + 2) / count
    want = [0.5] + [float(adv.gamma_value(j)) for j in range(D)] + [float(adv.gamma_tail(D))]
    for freq, p in zip(got, want):
        assert abs(freq - p) <= 5 * math.sqrt(p * (1 - p) / count)


@pytest.mark.parametrize("D", [1, 3, 60])
def test_draw_trace_lays_rows_out_by_group_with_letters_only_where_read(D):
    # D + 2 group sizes: diffuse rows, then atoms from depth D down to 0; a
    # row holds a letter at level h exactly when it is diffuse or an atom
    # of depth >= h
    p = small_problem(m=(1,) + (3,) * D, n=(60,), truncation=D)
    for seed in range(3):
        trace = adv.draw_trace(p, 2000, np.random.default_rng(seed))
        assert trace.group_sizes.shape == (D + 2,) and trace.group_sizes.sum() == len(trace)
        depth = trace.depths()
        assert depth[0] == -1 and depth[-1] == 0
        rank = np.where(depth < 0, D + 1, depth)  # the layout runs rank down
        assert (np.diff(rank) <= 0).all()
        reach = np.where(depth < 0, D, depth)
        has_letter = np.arange(1, D + 1)[None, :] <= reach[:, None]
        assert ((trace.letters != 0) == has_letter).all()
        assert (trace.letters <= 3).all() and trace.letters.dtype == np.int8
        assert trace.letters.flags.f_contiguous


class _SpiedMultinomial:
    """A generator that keeps the arguments and result of its
    ``multinomial`` call."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def multinomial(self, count, pvals):
        self.pvals = list(pvals)
        self.counts = self._rng.multinomial(count, pvals)
        return self.counts


@pytest.mark.parametrize("D", [3, 60])
def test_draw_trace_group_counts_are_one_multinomial_over_gamma(D):
    # the diffuse half, gamma_0 .. gamma_(D-1) and the tail at D, each
    # exact in a double, so every conditional binomial of the multinomial
    # has p = 1/2; the trace holds exactly the drawn counts, as its group
    # sizes and as its rows' depths
    rng = _SpiedMultinomial(D)
    trace = adv._draw_rows(small_problem(m=(1,) + (2,) * D, truncation=D), 5000, rng)
    want = [Fraction(1, 2)] + [adv.gamma_value(j) for j in range(D)] + [adv.gamma_tail(D)]
    assert [Fraction(v) for v in rng.pvals] == want
    assert all(Fraction(v) / (1 - sum(want[:i])) == Fraction(1, 2) for i, v in enumerate(want[:-1]))
    assert trace.group_sizes.tolist() == [rng.counts[0], *rng.counts[:0:-1]]
    got = np.bincount(trace.depths() + 1, minlength=D + 2)
    assert (got == rng.counts).all()
    assert trace.tie_keys is None


def test_draw_trace_at_n_10_6_holds_under_23_mib():
    # the 5.7 MiB of int16 letters, the 7.6 MiB tie keys, their 7.6 MiB
    # sorted copy and its 1 MB comparison (21.9 MiB measured): the group
    # sizes take no per-row array, and draw no uniform beside the keys
    p = small_problem(m=(1, 293, 2000), n=(128, 10**6), truncation=3)
    tracemalloc.start()
    try:
        adv.draw_trace(p, 10**6, np.random.default_rng(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 23 * 2**20


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
