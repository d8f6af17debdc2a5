import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab import adversarial as adv
from metriclab import experiments as ex
from metriclab.adversarial import (
    AdversarialProblem,
    Schedule,
    distance_classes,
    structured_stage_sim,
)
from metriclab.knn import TieStrategy, knn_predict
from metriclab.spaces import SparseL2, distance, sparse_d2
from trace_rows import grouped_trace

SPACE = SparseL2()


def problem(m=(1, 4, 3, 3), truncation=3):
    return AdversarialProblem(Schedule(m=m, n=(60,), mode="empirical"), truncation)


def test_class_probabilities_sum_to_one():
    p = problem()
    classes = distance_classes(p)
    assert sum(c.prob for c in classes) == Fraction(1)
    assert all(c.prob > 0 for c in classes)


def test_distance_classes_are_computed_once_per_problem():
    p = problem()
    first = distance_classes(p)
    with mock.patch.object(adv, "child_radius2_frac", side_effect=AssertionError("recomputed")):
        assert distance_classes(p) is first
    # another branching gets its own classes, equal to a fresh problem's
    other = problem(m=(1, 2, 5))
    assert distance_classes(other) != first
    assert distance_classes(other) == distance_classes(problem(m=(1, 2, 5)))
    assert distance_classes(p) is first


def test_class_distances_match_materialized_points():
    # the class table's exact squared distances equal coordinate arithmetic
    p = problem(m=(1, 3, 2), truncation=3)
    w = (2, 1, 2)
    x = p.geometry(w).center
    for cls in distance_classes(p):
        if cls.kind == "atom":
            if cls.split == cls.depth:
                word = w[: cls.depth]
            else:
                # pick a branch splitting from w exactly at cls.split
                letters = list(w[: cls.split])
                wrong = 1 if w[cls.split] != 1 else 2
                letters.append(wrong)
                while len(letters) < cls.depth:
                    letters.append(1)
                word = tuple(letters)
            z = p.geometry(word).atom
        else:
            if cls.split == p.truncation_depth:
                word = w
            else:
                letters = list(w[: cls.split])
                wrong = 1 if w[cls.split] != 1 else 2
                letters.append(wrong)
                while len(letters) < p.truncation_depth:
                    letters.append(1)
                word = tuple(letters)
            z = p.geometry(word).center
        assert distance(SPACE, x, z) ** 2 == pytest.approx(float(cls.d2), rel=1e-12)


def _class_point(prob, cls):
    """A materialized point of ``cls`` as seen from the test word 1...1:
    its word follows the test word for ``cls.split`` letters, then turns off."""
    turn = (2,) + (1,) * (cls.depth - cls.split - 1) if cls.split < cls.depth else ()
    g = prob.geometry((1,) * cls.split + turn)
    return g.atom if cls.kind == "atom" else g.center


def test_float_distances_resolve_the_classes_only_up_to_depth_4():
    # the float-oracle limit: exact doubles for D <= 3, the exact order for
    # D <= 4, and at D = 5 one label-0 and one label-1 class merge
    for D in range(1, 6):
        p = problem(truncation=D)
        x = p.geometry((1,) * D).center
        classes = distance_classes(p)
        assert all(a.d2 < b.d2 for a, b in zip(classes, classes[1:]))
        points = [_class_point(p, c) for c in classes]
        exact = [Fraction(sparse_d2(x, z)) == c.d2 for z, c in zip(points, classes)]
        assert all(exact) == (D <= 3)
        dists = [distance(SPACE, x, z) for z in points]
        merged = [
            (a.label, b.label)
            for a, b, da, db in zip(classes, classes[1:], dists, dists[1:])
            if da == db
        ]
        assert all(da <= db for da, db in zip(dists, dists[1:]))
        if D <= 4:
            assert merged == []
        else:
            assert (len(classes), len(set(dists)), merged) == (27, 26, [(0, 1)])

def test_label_pure_distance_groups():
    # classes sharing a distance always share a label (guarded at build time)
    p = problem()
    classes = distance_classes(p)
    byd = {}
    for c in classes:
        byd.setdefault(c.d2, set()).add(c.label)
    assert all(len(labels) == 1 for labels in byd.values())


def test_all_atomic_sample_with_k_equals_n_predicts_one():
    p = problem(truncation=2)
    n = 16
    trace = grouped_trace(np.zeros(n), np.ones((n, 2), dtype=np.int64), np.linspace(0.1, 0.9, n))
    words = adv.draw_test_words(p, 5, np.random.default_rng(0))
    preds = adv._trace_predictions(p, trace, words, k=n)
    assert (preds == 1).all()


def test_fresh_mode_proof_stage0_bound():
    derived = adv.derive_schedule(depth=1, n_override={0: 128})
    sched = derived.schedule
    p = AdversarialProblem(sched, truncation_depth=2)
    res = structured_stage_sim(p, 0, 128, 7, 5000, seed=21, sample_mode="fresh")
    delta0 = float(adv.delta_value(0))
    assert res.fraction >= 1 - 2 * delta0 - 3 * res.stderr


def test_fresh_and_trace_modes_agree_statistically():
    # trace mode conditions all test points on one shared sample, so compare
    # its across-sample mean with the fresh estimate and the exact p
    p = problem()
    fresh = structured_stage_sim(p, 0, 300, 5, 20_000, seed=3, sample_mode="fresh")
    trace_mean = np.mean(
        [
            structured_stage_sim(p, 0, 300, 5, 800, seed=s, sample_mode="trace").fraction
            for s in range(25)
        ]
    )
    assert abs(fresh.fraction - trace_mean) <= 0.03
    assert abs(adv.stage_probability(p, 300, 5) - trace_mean) <= 0.03


def test_invalid_arguments():
    p = problem(truncation=2)
    with pytest.raises(ValueError):
        structured_stage_sim(p, 2, 60, 5, 100, seed=0)
    with pytest.raises(ValueError):
        structured_stage_sim(p, 0, 60, 61, 100, seed=0)
    with pytest.raises(ValueError):
        structured_stage_sim(p, 0, 60, 5, 100, seed=0, sample_mode="bogus")


def _brute_force_predictions(prob, trace, words, k):
    sample = adv.labelled_sample_from_trace(prob, trace)
    preds = []
    for row in words:
        x = prob.geometry(tuple(int(v) for v in row)).center
        preds.append(knn_predict(sample, x, k, TieStrategy.UNIFORM_RANDOM, SPACE))
    return np.array(preds)


@pytest.mark.parametrize(
    "m,truncation,stage,n,k",
    [
        ((1, 4, 3, 3), 3, 0, 10, 9),
        ((1, 4, 3, 3), 3, 1, 250, 7),
        ((1, 3, 2), 3, 0, 60, 1),
        ((1, 2, 5), 2, 0, 500, 12),
        ((1, 6, 2), 2, 0, 2000, 11),
        ((1, 3, 3), 3, 1, 40, 40),
        ((1, 4, 3, 3), 3, 0, 61, 7),
        ((1, 4, 3, 3), 3, 1, 121, 9),
        ((1, 4, 3, 3), 3, 1, 1001, 20),
    ],
)
def test_trace_mode_equals_brute_force(m, truncation, stage, n, k):
    prob = problem(m=m, truncation=truncation)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        trace = adv.draw_trace(prob, n, rng)
        # the number of letters is random; an odd one leaves a buffered
        # 32-bit half in the generator (on 23 of these 36 draws), which the
        # stream of the test words goes on from
        words = adv.draw_test_words(prob, 8, rng)
        with mock.patch.object(adv, "_trace_predictions", wraps=adv._trace_predictions) as kernel:
            sim = structured_stage_sim(prob, stage, n, k, 8, seed, sample_mode="trace")
        # the simulator discards the tie keys, and goes on with the same words
        assert (kernel.call_args.args[2] == words).all()
        brute = _brute_force_predictions(prob, trace, words, k)
        assert (sim.predictions == brute).all()


# criterion 07: (branching, truncation depth, stage, n, k)
CRITERION_07_CONFIGS = [
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


@pytest.mark.parametrize("m,truncation,stage,n,k", CRITERION_07_CONFIGS)
def test_trace_kernel_does_not_depend_on_the_row_chunk(m, truncation, stage, n, k):
    # every n here is below CHUNK, so the unpatched kernel reads each group
    # in one block, and the patched ones split the groups across blocks;
    # the letters are read as drawn (column-major) and C-ordered, as a
    # hand-built trace holds them, and the same rows are read with every
    # other group emptied
    prob = problem(m=m, truncation=truncation)
    rng = np.random.default_rng(n)
    trace = adv.draw_trace(prob, n, rng)
    words = adv.draw_test_words(prob, 10, rng)
    want = adv._trace_predictions(prob, trace, words, k)
    assert (want == _brute_force_predictions(prob, trace, words, k)).all()
    c_ordered = replace(trace, letters=np.ascontiguousarray(trace.letters))
    assert trace.letters.flags.f_contiguous and not c_ordered.letters.flags.f_contiguous
    depth = trace.depths()
    kept = np.isin(depth, adv._layout_depths(truncation)[::2])
    gappy = grouped_trace(depth[kept], trace.letters[kept], trace.tie_keys[kept])
    assert (gappy.group_sizes[1::2] == 0).all() and gappy.group_sizes.max() > 7
    want_gappy = _lexsort_reference(prob, gappy, words, k)
    for layout, expected in ((trace, want), (c_ordered, want), (gappy, want_gappy)):
        for chunk in (adv.CHUNK, 1, 7, 64):
            with mock.patch.object(adv, "CHUNK", chunk):
                assert (adv._trace_predictions(prob, layout, words, k) == expected).all()


def _traced_peak_mb(run):
    """Peak bytes that ``run()`` holds beyond what was live before it, in MB."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        return (tracemalloc.get_traced_memory()[1] - before) / 1e6
    finally:
        tracemalloc.stop()


def test_trace_stage_at_n_10_6_holds_under_7_6_mb():
    # the shared-sample stage of the empirical table: the trace without tie
    # keys is its 6 MB of int16 letters and D + 2 group sizes; the group
    # sizes draw no uniform, the keys are skipped, not drawn, each letter
    # column is drawn CHUNK rows at a time, and the kernel holds O(CHUNK)
    # rows and O(D**2·T) counts beyond the trace (6.7 MB measured)
    prob = problem(m=ex.DEFAULT_EMPIRICAL_M, truncation=3)
    peak = _traced_peak_mb(
        lambda: structured_stage_sim(prob, 1, 10**6, 20, 20, 7, sample_mode="trace")
    )
    assert peak < 7.6


def _warm_peak_mb(run):
    """``_traced_peak_mb`` of a second ``run()``: the first also pays for
    numpy's lazy import of ``numpy.random``."""
    run()
    return _traced_peak_mb(run)


def test_fresh_stages_at_t_10_6_hold_under_0_3_mb():
    # a fresh stage keeps its Binomial(T, p) count and no T-sized array, so
    # the peak is the O(k) arrays of stage_probability (0.14 MB measured),
    # where T int8 predictions alone would take 1 MB
    config = ex.ExperimentConfig("consistency", seed=7, stages=(0, 1), test_count=10**6)
    assert _warm_peak_mb(lambda: ex.run_consistency(config)) < 0.3


def test_fresh_stage_near_the_vote_midpoint_holds_under_4_mb():
    # k = 16384 at n = 157000, p = 0.434: the races of stage_probability
    # hold O(k) floats, and nothing grows with T (0.40 MB measured), so the
    # stage now holds under 0.5 MB, well inside the 4 MB it once needed
    prob = problem()
    peak = _warm_peak_mb(
        lambda: structured_stage_sim(prob, 0, 157_000, 16384, 10**6, 7, sample_mode="fresh")
    )
    assert peak < 0.5


def _lexsort_reference(prob, trace, words, k):
    """The per-word rule the count vote replaced: rank every row by its
    distance class, break ties by the smaller tie key, vote over the first k."""
    D = prob.truncation_depth
    rank_atom = np.full((D + 1, D + 1), -1, dtype=np.int64)
    rank_diffuse = np.full(D + 1, -1, dtype=np.int64)
    for idx, c in enumerate(distance_classes(prob)):
        if c.kind == "atom":
            rank_atom[c.depth, c.split] = idx
        else:
            rank_diffuse[c.split] = idx
    depth = trace.depths()
    atomic = depth >= 0
    eff_depth = np.where(atomic, depth, D)
    labels = atomic.astype(np.int64)
    preds = []
    for word in words:
        lcp = np.cumprod(trace.letters == word[None, :], axis=1).sum(axis=1)
        split = np.minimum(lcp, eff_depth)
        ranks = np.where(atomic, rank_atom[eff_depth, split], rank_diffuse[split])
        order = np.lexsort((trace.tie_keys, ranks))
        preds.append(1 if 2 * labels[order[:k]].sum() >= k else 0)
    return np.array(preds, dtype=np.int64)


def _group_lexsort_reference(prob, trace, test_words, k):
    """The count vote over one lexsort per group of rows (one kind, effective
    depth j) together with the words' length-j prefixes: ge[h], the rows
    agreeing with a word on h letters, is read off the sorted blocks."""

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

    D, depth, letters = prob.truncation_depth, trace.depths(), trace.letters
    groups = {("diffuse", D): split_counts(letters[depth < 0])}
    for j in range(D + 1):
        groups["atom", j] = split_counts(letters[depth == j, :j])
    classes = distance_classes(prob)
    counts = np.column_stack([next(groups[c.kind, c.depth]) for c in classes])
    return _cumsum_vote(classes, counts, k)


def _cumsum_vote(classes, counts, k):
    """The k-NN vote over a dense (T x classes) count matrix in distance
    order: each class gives min(its count, k - the rows before it) votes."""
    labels = np.array([c.label for c in classes], dtype=np.int64)
    before = counts.cumsum(axis=1) - counts
    take = np.minimum(np.maximum(k - before, 0), counts)
    return (2 * (take * labels).sum(axis=1) >= k).astype(np.int64)


def _dense_fresh_reference(prob, n, k, test_count, rng):
    """The fresh-mode vote over a dense (T x classes) occupancy matrix."""
    classes = distance_classes(prob)
    counts = np.zeros((test_count, len(classes)), dtype=np.int64)
    rem_n = np.full(test_count, n, dtype=np.int64)
    rem_p = Fraction(1)
    for idx, c in enumerate(classes):
        if rem_p == c.prob:
            drawn = rem_n.copy()
        else:
            drawn = rng.binomial(rem_n, min(1.0, max(0.0, float(c.prob / rem_p))))
        counts[:, idx] = drawn
        rem_n -= drawn
        rem_p -= c.prob
    return _cumsum_vote(classes, counts, k)


@st.composite
def hand_built_traces(draw):
    """A problem with small branching (so prefixes collide and rows repeat),
    a hand-built trace over it, test words and k. Rows take their letters
    from a subset of each level's letters, so some word letters occur in no
    row; words repeat and share prefixes, and may outnumber the rows."""
    D = draw(st.integers(1, 3))
    m = (1,) + tuple(draw(st.lists(st.integers(2, 3), min_size=D, max_size=D)))
    prob = problem(m=m, truncation=D)
    n = draw(st.integers(1, 25))
    kinds = draw(st.sampled_from(["mixed", "diffuse", "atomic"]))
    if kinds == "mixed":
        is_atomic = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    else:
        is_atomic = [kinds == "atomic"] * n
    # atom depths from a random subset of 0..D, leaving some depth groups empty
    depths = draw(st.lists(st.integers(0, D), min_size=1, max_size=D + 1))
    atom_depth = [draw(st.sampled_from(depths)) if a else -1 for a in is_atomic]
    row_letters = [
        draw(st.lists(st.integers(1, m[level]), min_size=1, unique=True))
        for level in range(1, D + 1)
    ]
    letters = np.array(
        [[draw(st.sampled_from(row_letters[h])) for h in range(D)] for _ in range(n)],
        dtype=np.int64,
    ).reshape(n, D)
    tie_keys = np.array(draw(st.permutations(range(n))), dtype=np.float64) / n
    trace = grouped_trace(atom_depth, letters, tie_keys)
    words: list[list[int]] = []
    for _ in range(draw(st.integers(1, 30))):
        # keep an earlier word's first `shared` letters (all of them: a duplicate)
        shared = draw(st.integers(0, D)) if words else 0
        base = draw(st.sampled_from(words)) if words else []
        words.append(
            base[:shared]
            + [draw(st.integers(1, m[level])) for level in range(shared + 1, D + 1)]
        )
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    return prob, trace, np.array(words, dtype=np.int64), k


@settings(max_examples=300, deadline=None)
@given(hand_built_traces())
def test_trace_counts_equal_lexsort_rule(case):
    prob, trace, words, k = case
    got = adv._trace_predictions(prob, trace, words, k)
    assert (got == _lexsort_reference(prob, trace, words, k)).all()
    assert (got == _group_lexsort_reference(prob, trace, words, k)).all()


def _check_big_letters(big):
    # the product of the branching numbers overflows int64, so any packing
    # of a prefix into one integer would wrap; letters are compared as is
    prob = problem(m=(1, big, big, big), truncation=3)
    rng = np.random.default_rng(5)
    letters = rng.choice([big - 1, big], size=(200, 3))
    is_atomic, atom_depth = rng.random(200) < 0.5, rng.integers(0, 4, size=200)
    depth = np.where(is_atomic, atom_depth, -1)
    trace = grouped_trace(depth, letters, rng.permutation(200) / 200.0)
    words = np.vstack([letters[:6], rng.choice([big - 2, big - 1, big], size=(6, 3))])
    for k in (1, 7, 40, 200):
        got = adv._trace_predictions(prob, trace, words, k)
        assert (got == _lexsort_reference(prob, trace, words, k)).all()
        assert (got == _group_lexsort_reference(prob, trace, words, k)).all()


def test_trace_counts_with_letters_near_2_pow_40():
    _check_big_letters(2**40)


def test_trace_counts_with_letters_near_2_pow_62():
    _check_big_letters(2**62)


@pytest.mark.parametrize(
    "m,n,test_count,k",
    [
        ((1, 293, 2000), 20_000, 20, 15),  # few words: most rows leave at level 0
        ((1, 293, 2000), 20_000, 3000, 15),  # many words: every first letter occurs
        ((1, 3, 2), 50, 400, 7),  # more words than rows, many duplicates
        # first letters spread over 1..50000: a 50002-entry letter table
        ((1, 50_000, 2), 2000, 400, 1),
    ],
)
def test_trace_kernel_equals_group_lexsort_on_drawn_traces(m, n, test_count, k):
    prob = problem(m=m, truncation=3)
    labels = set()
    for seed in range(3):
        rng = np.random.default_rng(seed)
        trace = adv.draw_trace(prob, n, rng)
        words = adv.draw_test_words(prob, test_count, rng)
        got = adv._trace_predictions(prob, trace, words, k)
        assert (got == _group_lexsort_reference(prob, trace, words, k)).all()
        labels.update(got.tolist())
    assert labels == {0, 1}  # both labels occur, so the check has teeth


def _isin_calls(run):
    """``run()`` and the number of np.isin calls it made."""
    with mock.patch.object(adv.np, "isin", wraps=np.isin) as isin:
        return run(), isin.call_count


def test_letter_finder_from_the_table_and_from_isin():
    letters = np.array([2, 5, 9])
    column = np.array([1, 2, 3, 5, 9, 10, 11, 13, 16, 2**40 + 1, 0, -3])
    want = [-1, 0, -1, 1, 2, -1, -1, -1, -1, -1, -1, -1]
    tabled, calls = _isin_calls(lambda: adv._letter_finder(letters, 1)(column))
    assert tabled.tolist() == want and tabled.dtype == np.int8 and calls == 0
    with mock.patch.object(adv, "TABLE_SPAN", 0):
        filtered, calls = _isin_calls(lambda: adv._letter_finder(letters, 1)(column))
    assert filtered.tolist() == want and calls == 1
    for unfit in ([0, 2], [2**62]):  # a letter below 1, or a table of 2**62 entries
        assert _isin_calls(lambda: adv._letter_finder(np.array(unfit), 1)(column))[1] == 1


def _predictions_on_both_filter_paths(prob, trace, words, k):
    """The kernel's predictions with a letter table at every level, and with
    np.isin at every level (no table may span a letter)."""
    tabled, calls = _isin_calls(lambda: adv._trace_predictions(prob, trace, words, k))
    assert calls == 0
    with mock.patch.object(adv, "TABLE_SPAN", 0):
        filtered, calls = _isin_calls(lambda: adv._trace_predictions(prob, trace, words, k))
    assert calls > 0
    return tabled, filtered


@pytest.mark.parametrize("m,truncation,stage,n,k", CRITERION_07_CONFIGS)
def test_letter_tables_and_isin_give_the_same_predictions(m, truncation, stage, n, k):
    prob = problem(m=m, truncation=truncation)
    rng = np.random.default_rng(n)
    trace = adv.draw_trace(prob, n, rng)
    words = adv.draw_test_words(prob, 10, rng)
    tabled, filtered = _predictions_on_both_filter_paths(prob, trace, words, k)
    assert (tabled == filtered).all()


def test_letter_tables_and_isin_give_the_same_predictions_on_wide_first_letters():
    prob = problem(m=(1, 50_000, 2), truncation=3)
    rng = np.random.default_rng(4)
    trace = adv.draw_trace(prob, 50_000, rng)
    words = adv.draw_test_words(prob, 400, rng)
    tabled, filtered = _predictions_on_both_filter_paths(prob, trace, words, 1)
    assert (tabled == filtered).all()
    assert set(tabled.tolist()) == {0, 1}


def test_letters_near_2_pow_62_take_np_isin():
    # a table would span 2**62 letters, past TABLE_SPAN·(CHUNK + T)
    assert _isin_calls(lambda: _check_big_letters(2**62))[1] > 0


def _exact_stage_probability(prob, n, k):
    """p = P(the k-NN vote of a diffuse test point is 1), exactly: a DP in
    ``Fraction`` over the vote states (need, ones), in which each class
    takes min(Binomial(n - (k - need), q), need) with the exact binomial
    pmf, q = P(class | not an earlier class), and the last class the rest."""
    states, p1, rem_p = {(k, 0): Fraction(1)}, Fraction(0), Fraction(1)
    for c in distance_classes(prob):
        q = c.prob / rem_p
        rem_p -= c.prob
        after = {}
        for (need, ones), weight in states.items():
            N = n - k + need
            law = {need: Fraction(1)}
            if rem_p:
                law = {y: math.comb(N, y) * q**y * (1 - q) ** (N - y) for y in range(need)}
                law[need] = 1 - sum(law.values())
            for y, p_y in law.items():
                state = (need - y, ones + c.label * y)
                if state[0]:
                    after[state] = after.get(state, 0) + weight * p_y
                elif 2 * state[1] >= k:
                    p1 += weight * p_y
        states = after
    return p1


def _within_5_sigma(ones, count, p):
    return abs(ones / count - p) <= 5 * math.sqrt(p * (1 - p) / count)


EXACT_CASES = [(300, 5), (40, 9), (10, 10), (60, 7), (25, 1), (33, 4)]


@pytest.mark.parametrize("m", [(1, 4, 3, 3), (1, 4, 100, 350)])
@pytest.mark.parametrize("n,k", EXACT_CASES)
def test_stage_probability_equals_the_exact_dp(m, n, k):
    prob = problem(m=m)
    exact = _exact_stage_probability(prob, n, k)
    assert abs(Fraction(adv.stage_probability(prob, n, k)) - exact) <= 1e-12


@pytest.mark.parametrize("n", [10**13, 10**18])
def test_stage_probability_at_k_1_equals_the_closed_form(n):
    # the nearest sample point votes alone: p = the sum over label-1
    # classes c of (1 - P_<c)**n - (1 - P_<=c)**n, with P_<c the mass of
    # the classes nearer than c; masses near 1/n make 0 < p < 1 at this n
    prob = problem(m=(1, 10**6, 10**6, 10**6))

    def none_within(mass):  # (1 - mass)**n
        mass = float(mass)
        return math.exp(n * math.log1p(-mass)) if mass < 1 else 0.0

    want, before = 0.0, Fraction(0)
    for c in distance_classes(prob):
        if c.label:
            want += none_within(before) - none_within(before + c.prob)
        before += c.prob
    p = adv.stage_probability(prob, n, 1)
    assert 0.1 < want < 0.9 and math.isfinite(p) and 0 <= p <= 1
    assert abs(p - want) <= 1e-12


def test_fresh_stage_on_the_sqrtceil_ladder_clips_p():
    # stage 1 of the sqrtceil ladder, n = 10**8 and k = 10**4: the rounded
    # sum passes 1 by 1.6e-13 there, and rng.binomial rejects p > 1
    config = ex.ExperimentConfig(
        "consistency", stages=(0, 1), k_rule="sqrtceil", m=(1, 293, 2000, 4000),
        n=(128, 10**8, 4 * 10**14),
    )
    prob = AdversarialProblem(ex.build_schedule(config).schedule, truncation_depth=3)
    res = structured_stage_sim(prob, 1, 10**8, 10**4, 10**4, 7, sample_mode="fresh")
    assert adv.stage_probability(prob, 10**8, 10**4) == 1
    assert res.fraction == 1


@pytest.mark.parametrize("n,k", EXACT_CASES[:3])
def test_fresh_stages_keep_the_exact_law(n, k):
    # one stage of 10**6 test points, and 1000 stages of 40 summed
    prob = problem()
    p = float(_exact_stage_probability(prob, n, k))
    assert 0 < p < 1  # both labels occur, so the check has teeth
    big = structured_stage_sim(prob, 0, n, k, 10**6, 11, sample_mode="fresh")
    assert big.predictions is None
    assert _within_5_sigma(round(big.fraction * 10**6), 10**6, p)
    ones = sum(
        round(structured_stage_sim(prob, 0, n, k, 40, seed, sample_mode="fresh").fraction * 40)
        for seed in range(1000)
    )
    assert _within_5_sigma(ones, 40_000, p)


@pytest.mark.parametrize("k", [63, 64, 16383, 16384])
def test_vote_at_the_narrow_type_edges_on_hand_built_counts(k):
    # k on both sides of 2k = 127 and of 2k = 32767. Half the counts are 0
    # and the rest run to 3k, so points see every vote from 0 to k ones, k
    # included, and cumulative counts far past k
    rng = np.random.default_rng(k)
    labels = np.array([0, 1, 1, 0, 1, 0])
    shape = (len(labels), 4000)
    counts = rng.integers(0, 3 * k, size=shape) * (rng.random(shape) < 0.5)
    got = adv._count_vote(labels, counts, k)
    before = counts.cumsum(axis=0) - counts
    ones = (np.minimum(np.maximum(k - before, 0), counts) * labels[:, None]).sum(axis=0)
    assert {0, k} <= set(ones.tolist())
    assert (got == (2 * ones >= k)).all()


# k on both sides of 2k = 127 and of 2k = 32767, each with an n near the
# vote's midpoint on problem(), so that both labels occur
NARROW_EDGES = [(640, 63), (640, 64), (157_000, 16383), (157_000, 16384)]


@pytest.mark.parametrize(
    "m,n,k",
    [((1, 4, 3, 3), n, k) for n, k in NARROW_EDGES]
    # the depth-2 hub atom class draws about 156 points per test point,
    # while the nearer label-0 class (3.6 on average) leaves need > 0
    + [((1, 4, 100, 350), 10**6, 7)],
)
def test_stage_probability_at_the_narrow_type_edges_matches_the_per_point_chain(m, n, k):
    prob = problem(m=m)
    want = _dense_fresh_reference(prob, n, k, 20_000, np.random.default_rng(11))
    p_ref = want.mean()
    assert 0 < p_ref < 1  # both labels occur, so the check has teeth
    p = adv.stage_probability(prob, n, k)
    assert abs(p - p_ref) <= 5 * math.sqrt(p * (1 - p) / 20_000)


@pytest.mark.parametrize("n,k", NARROW_EDGES)
def test_trace_vote_at_large_k(n, k):
    prob = problem()
    rng = np.random.default_rng(5)
    trace = adv.draw_trace(prob, n, rng)
    words = adv.draw_test_words(prob, 16, rng)
    got = adv._trace_predictions(prob, trace, words, k)
    want = _lexsort_reference(prob, trace, words, k)
    assert 0 < want.mean() < 1  # both labels occur, so the check has teeth
    assert (got == want).all()
