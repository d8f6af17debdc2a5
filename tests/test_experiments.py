import dataclasses
import hashlib
import itertools
import json
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covering_reference import restart_scan_cover
from metriclab import cli
from metriclab.cli import _measure, build_parser, config_from_args, main
from metriclab.experiments import (
    ExperimentConfig,
    build_schedule,
    interval_battery,
    print_schedule,
    reports_to_csv,
    run_baseline,
    run_consistency,
    run_coverhart,
    random_disconnected_interval_families,
    random_disconnected_intervals,
    random_interval_family,
    random_plane_family,
    random_word_families,
    run_dimension_suite,
    word_cover_battery,
)
from metriclab import adversarial as adv
from metriclab import nagata, spaces
from metriclab.nagata import Ball, BallFamily, interval_multiplicity_exact, is_disconnected
from metriclab.experiments import _vote_error
from metriclab.knn import LabelledSample, TieStrategy, euclidean_vote, knn_predict
from metriclab.spaces import (
    ORIGIN,
    EuclideanD,
    EuclideanLine,
    KindMismatchError,
    Real,
    SparseL2,
    UltrametricWords,
    Vec,
    distance,
)


def cfg(**kw):
    base = dict(experiment="consistency", seed=7, test_count=500)
    base.update(kw)
    return ExperimentConfig(**base)


def test_consistency_csv_bit_identical():
    a = reports_to_csv(run_consistency(cfg(mode="empirical", stages=(0, 1))))
    b = reports_to_csv(run_consistency(cfg(mode="empirical", stages=(0, 1))))
    assert a == b
    header = a.splitlines()[0]
    assert header == "stage,n,k,frac_pred1_nonatomic,error,bayes,delta,stderr"


def test_consistency_empirical_defaults():
    reports = run_consistency(cfg(mode="empirical", stages=(0, 1), test_count=2000))
    assert [r.n for r in reports] == [128, 1_000_000]
    for r in reports:
        assert r.bayes == 0.0
        assert r.frac_pred1_nonatomic >= 0.9
        assert r.error >= 0.35


def test_consistency_proof_stage0():
    reports = run_consistency(cfg(mode="proof", stages=(0, 0), test_count=2000))
    (r,) = reports
    assert (r.n, r.k) == (128, 7)
    assert r.frac_pred1_nonatomic >= 0.75 - 3 * r.stderr


def test_baseline_errors_shrink():
    reports = run_baseline(cfg(experiment="baseline", k_rule="sqrtceil", test_count=2000))
    assert [r.n for r in reports] == [100, 1000, 10000]
    assert reports[-1].error <= 0.05
    for a, b in zip(reports, reports[1:]):
        assert b.error <= a.error + 2 * max(a.stderr, b.stderr)


def test_all_ones_labelling_has_zero_error():
    rng = np.random.default_rng(0)
    train = rng.random((500, 1))
    test = rng.random((200, 1))
    pred = euclidean_vote(train, np.ones(500, dtype=np.int64), test, k=23)
    assert (pred == 1).all()


def test_coverhart_cases(tmp_path):
    out = tmp_path / "ch.json"
    cases = run_coverhart(
        cfg(experiment="coverhart", test_count=2000, output_path=str(out))
    )
    by_name = {c["case"]: c for c in cases}
    const = by_name["constant_eta_0.3"]
    assert 0.36 <= const["error"] <= 0.48
    # the 1-NN error can never beat the Bayes error (up to MC noise)
    assert const["error"] >= const["bayes"] - 3 * const["stderr"]
    assert by_name["deterministic_halfplane"]["error"] <= 0.03
    assert by_name["ratio_vs_twice_bayes"]["ratio"] <= 2.1
    assert json.loads(out.read_text())[0]["case"] == "constant_eta_0.3"


def _double_loop_family(raw, uniform):
    """The reference: the centres ``raw`` sorted and spread, each ball's gap
    as the least distance to every other centre, numpy scalars as they
    come, and the radius and closed flag from two ``uniform()`` calls."""
    count = len(raw)
    centers = np.sort(raw)
    centers += np.arange(count) * 1e-6
    balls = []
    for i, c in enumerate(centers):
        gaps = [abs(c - centers[j]) for j in range(count) if j != i]
        r = (0.2 + 0.75 * uniform()) * min(gaps)
        balls.append(Ball(Real(float(c)), float(r), bool(uniform() < 0.5)))
    return BallFamily(tuple(balls), EuclideanLine())


def _intervals_by_double_loop(rng, count):
    return _double_loop_family(rng.random(count) * 20.0, rng.random)


def test_disconnected_intervals_equal_the_double_loop():
    for seed in range(200):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        count = int(rng.integers(2, 9))
        assert count == int(ref.integers(2, 9))
        fam, want = random_disconnected_intervals(rng, count), _intervals_by_double_loop(ref, count)
        assert [(b.center.value.hex(), b.radius.hex(), b.closed) for b in fam.balls] == [
            (b.center.value.hex(), b.radius.hex(), b.closed) for b in want.balls
        ]
        assert rng.random() == ref.random()  # the two streams end in step
    with pytest.raises(ValueError):
        random_disconnected_intervals(np.random.default_rng(0), 1)




def test_interval_families_equal_the_double_loop_family_by_family():
    # all centres first, then the (radius, closed) draws family by family
    for seed in range(100):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        sizes = rng.integers(2, 9, size=int(rng.integers(1, 20)))
        assert (sizes == ref.integers(2, 9, size=int(ref.integers(1, 20)))).all()
        families = random_disconnected_interval_families(rng, sizes)
        raw = np.split(ref.random(sizes.sum()) * 20.0, np.cumsum(sizes)[:-1])
        want = [_double_loop_family(centers, ref.random) for centers in raw]
        assert [_ball_fields(f) for f in families] == [_ball_fields(w) for w in want]
        assert rng.random() == ref.random()  # the two streams end in step

def _ball_fields(fam):
    """Each ball's centre (floats as hex, words as letters), radius as hex
    and closed flag."""

    def center(c):
        if isinstance(c, Real):
            return c.value.hex()
        if isinstance(c, Vec):
            return tuple(x.hex() for x in c.coords)
        return c.letters

    return [(center(b.center), b.radius.hex(), b.closed) for b in fam.balls]


def _interval_family_per_ball(rng, count):
    """The reference: scalar draws, centre, radius, closed, ball by ball."""
    balls = [
        Ball(
            Real(float(rng.random() * 10.0)),
            float(0.1 + 2.0 * rng.random()),
            bool(rng.random() < 0.5),
        )
        for _ in range(count)
    ]
    return BallFamily(tuple(balls), EuclideanLine())


def _plane_family_per_ball(rng, count):
    """The reference: scalar draws, x, y, radius, closed, ball by ball."""
    balls = [
        Ball(
            Vec((float(rng.random() * 10.0), float(rng.random() * 10.0))),
            float(0.1 + 2.0 * rng.random()),
            bool(rng.random() < 0.5),
        )
        for _ in range(count)
    ]
    return BallFamily(tuple(balls), EuclideanD(2))


@pytest.mark.parametrize(
    "draw, reference",
    [
        (random_interval_family, _interval_family_per_ball),
        (random_plane_family, _plane_family_per_ball),
    ],
)
def test_criterion_04_families_equal_the_per_ball_draws(draw, reference):
    for seed in range(300):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        count = int(rng.integers(1, 11))
        assert count == int(ref.integers(1, 11))
        fam, want = draw(rng, count), reference(ref, count)
        assert fam.space == want.space
        assert _ball_fields(fam) == _ball_fields(want)
        assert rng.random() == ref.random()  # the two streams end in step


def test_battery_generators_are_pinned():
    # pins the streams of both battery generators; dimension.json reports
    # the batteries only through their maxima
    rng = np.random.default_rng(7)
    sizes = [2, 5, 8, 3]
    fields = [_ball_fields(f) for f in random_disconnected_interval_families(rng, sizes)]
    fields += [_ball_fields(f) for f in random_word_families(rng, sizes, alphabet=3)]
    assert hashlib.sha256(repr(fields).encode()).hexdigest() == (
        "f06d4837c5ad594ee4a8696612baf280c36dffff9a9c08c2a72b036935352fc7"
    )


seeds = st.integers(0, 2**32 - 1)


@given(seeds, st.lists(st.integers(2, 12), max_size=8))
@settings(max_examples=100, deadline=None)
def test_interval_families_are_disconnected_below_their_gaps(seed, sizes):
    families = list(random_disconnected_interval_families(np.random.default_rng(seed), sizes))
    assert [len(f) for f in families] == sizes
    for fam in families:
        assert fam.space == EuclideanLine()
        assert is_disconnected(fam)
        centers = [c.value for c in fam.centers()]
        for i, b in enumerate(fam.balls):
            gap = min(abs(centers[i] - c) for j, c in enumerate(centers) if j != i)
            assert 0 < b.radius < gap
            assert type(b.closed) is bool


def test_interval_families_need_two_centres_each():
    with pytest.raises(ValueError):
        random_disconnected_interval_families(np.random.default_rng(0), [3, 1, 4])


@given(seeds, st.lists(st.integers(0, 12), max_size=8), st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_word_families_draw_in_range(seed, sizes, alphabet):
    families = list(random_word_families(np.random.default_rng(seed), sizes, alphabet))
    assert [len(f) for f in families] == sizes
    for fam in families:
        assert fam.space == UltrametricWords(alphabet)
        for b in fam.balls:
            letters = b.center.letters
            assert len(letters) <= 4
            assert all(type(a) is int and 1 <= a <= alphabet for a in letters)
            assert b.radius in (1.0, 0.5, 0.25, 0.125)
            assert type(b.closed) is bool


def _keyed_sweep(fam):
    """The reference: the endpoint sweep with its events sorted by the key
    (coordinate, priority)."""
    events = []
    for b in fam.balls:
        c = b.center.value
        if b.closed:
            enter, leave = nagata._CLOSED_ENTER, nagata._CLOSED_EXIT
        else:
            enter, leave = nagata._OPEN_ENTER, nagata._OPEN_EXIT
        events += [(c - b.radius, enter, 1), (c + b.radius, leave, -1)]
    events.sort(key=lambda e: (e[0], e[1]))
    return max(itertools.accumulate(delta for _, _, delta in events))


def test_interval_sweep_equals_the_keyed_sort():
    # the suite's interval battery at seed 7, then families on a grid of
    # halves, whose endpoints often meet, so the priorities decide; each
    # battery family by family and in one sweep
    rng = np.random.default_rng(7)
    battery = list(random_disconnected_interval_families(rng, rng.integers(2, 9, size=1000)))
    grid = np.random.default_rng(0)
    ties = []
    for _ in range(1000):
        count = int(grid.integers(1, 9))
        centers, radii = grid.integers(0, 8, count) / 2, grid.integers(1, 4, count) / 2
        rows = zip(centers.tolist(), radii.tolist(), grid.integers(0, 2, count).tolist())
        balls = (Ball(Real(c), r, bool(k)) for c, r, k in rows)
        ties.append(BallFamily(tuple(balls), EuclideanLine()))
    for families in (battery, ties):
        want = [_keyed_sweep(fam) for fam in families]
        assert [interval_multiplicity_exact(fam) for fam in families] == want
        balls = [b for fam in families for b in fam.balls]
        got = nagata.interval_multiplicities(
            [b.center.value for b in balls],
            [b.radius for b in balls],
            [b.closed for b in balls],
            [len(fam) for fam in families],
        )
        assert got.tolist() == want
    rng = np.random.default_rng(7)
    assert interval_battery(rng, rng.integers(2, 9, size=1000)).tolist() == [
        _keyed_sweep(fam) for fam in battery
    ]


def test_interval_battery_equals_the_sweeps():
    for seed in range(100):
        sizes = np.random.default_rng(seed).integers(2, 9, size=int(seed % 7) + 1)
        maxima = interval_battery(np.random.default_rng(seed), sizes).tolist()
        families = list(random_disconnected_interval_families(np.random.default_rng(seed), sizes))
        assert maxima == [interval_multiplicity_exact(fam) for fam in families]
        assert maxima == [_keyed_sweep(fam) for fam in families]


@pytest.mark.parametrize("block", [1, 7, 8192])
def test_word_cover_battery_equals_the_restart_scan(block):
    # families of 0..8 words over 1..3 letters; blocks of a few pairs end
    # between families, and a family larger than a block gets one alone
    with mock.patch.object(spaces, "PAIR_BLOCK", block):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            sizes, alphabet = rng.integers(0, 9, size=int(rng.integers(1, 6))), seed % 3 + 1
            covers = list(word_cover_battery(np.random.default_rng(seed), sizes, alphabet))
            families = random_word_families(np.random.default_rng(seed), sizes, alphabet)
            assert covers == [restart_scan_cover(fam) for fam in families]


def test_word_cover_battery_of_the_suite_equals_the_restart_scan():
    # the suite's stream at seed 7: the interval battery, then the words
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    interval_battery(rng, rng.integers(2, 9, size=1000))
    random_disconnected_interval_families(ref, ref.integers(2, 9, size=1000))
    covers = list(word_cover_battery(rng, rng.integers(2, 9, size=1000), alphabet=3))
    families = random_word_families(ref, ref.integers(2, 9, size=1000), alphabet=3)
    assert covers == [restart_scan_cover(fam) for fam in families]
    assert max(cover.multiplicity for cover in covers) == 1
    assert rng.random() == ref.random()  # the two streams end in step


def test_dimension_suite_memory_stays_small():
    # the batteries decide their pairs a block at a time: the peak holds
    # no array or list over all of the battery's ~29,000 pairs
    config = cfg(experiment="dimension")
    run_dimension_suite(config)  # first-use allocations stay out of the peak
    tracemalloc.start()
    try:
        run_dimension_suite(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20

def test_dimension_suite(tmp_path):
    out = tmp_path / "certs.json"
    res = run_dimension_suite(cfg(experiment="dimension", output_path=str(out)))
    assert res["plane_pentagon"]["multiplicity"] == 5
    assert res["interval_sweep"]["max_multiplicity"] <= 2
    assert res["ultrametric_cover"]["max_multiplicity"] == 1
    assert [c["multiplicity"] for c in res["sparse_witnesses"]] == [1, 5, 64, 256]
    counts = {row["separated_count"] for row in res["heisenberg_doubling"]}
    assert len(counts) == 1  # dilation transports the greedy set across scales
    loaded = json.loads(out.read_text())
    assert set(loaded["plane_pentagon"]) == {"kind", "centers", "radii", "witness", "multiplicity"}


def test_print_schedule_bounds(tmp_path):
    out = tmp_path / "sched.json"
    res = print_schedule(
        cfg(experiment="schedule", mode="proof", depth=1, output_path=str(out))
    )
    stage0 = res["stages"][0]
    assert stage0["n"] == 128
    assert stage0["n_occupancy_bound"] == pytest.approx(66.5421293337, abs=1e-6)
    assert stage0["m_next_bound"] == pytest.approx(292.5714285714, abs=1e-6)
    assert res["schedule"]["m"][1] == 293
    assert json.loads(out.read_text())["schedule"]["mode"] == "proof"


def test_print_schedule_depth0():
    res = print_schedule(cfg(experiment="schedule", mode="proof", depth=0))
    assert res["schedule"]["m"] == [1]
    assert len(res["stages"]) == 1


def test_empirical_schedule_prints_null_occupancy_bound_and_slack(capsys):
    # the occupancy bound does not apply in empirical mode: JSON null, not NaN
    assert main(["schedule", "--mode", "empirical"]) == 0
    stages = json.loads(capsys.readouterr().out)["stages"]
    assert [s["stage"] for s in stages] == [0, 1]
    for s in stages:
        assert s["n_occupancy_bound"] is None and s["n_slack"] is None


def test_print_schedule_applies_n_override():
    # `lab schedule` shows the schedule that `lab consistency` runs
    config = cfg(experiment="schedule", mode="empirical", n_override={1: 2_000_000})
    assert print_schedule(config)["schedule"]["n"] == [128, 2_000_000]
    assert build_schedule(config).schedule.n == (128, 2_000_000)


@pytest.mark.parametrize("mode", ["proof", "empirical"])
def test_build_schedule_bounds_are_those_of_its_schedule(mode):
    derived = build_schedule(cfg(mode=mode, stages=(0, 0)))
    s = derived.schedule
    assert adv.validate_schedule(s) == []
    assert derived.bounds == [adv.stage_bounds(s, i) for i in range(len(s.n))]
    if mode == "proof":
        # the tail branching past the last stage is reported with its bound
        b = derived.bounds[0]
        assert b.m_next == s.m[1] == 293
        assert b.m_next_bound == Fraction(2048, 7)


def test_empirical_consistency_needs_the_branching_past_its_last_stage(capsys):
    # simulating stage 1 lays out the depth-2 balls, so m[2] must be given
    argv = ["consistency", "--mode", "empirical", "--m", "1,293", "--n", "128,1000000",
            "--test-count", "100"]
    assert main([*argv, "--stages", "0..1"]) == 1
    assert capsys.readouterr().err == (
        "lab consistency: stage 1 needs the branching m[2] one level past it\n"
    )
    assert main([*argv, "--stages", "0..0"]) == 0


@pytest.mark.parametrize("experiment", ["schedule", "consistency"])
@pytest.mark.parametrize("mode, depth", [("empirical", "1"), ("proof", "0")])
def test_n_override_outside_the_schedule_exits_1(experiment, mode, depth, capsys):
    # an override for a stage the schedule lacks is an error, not a no-op
    flags = {"schedule": ["--depth", depth] if mode == "proof" else [],
             "consistency": ["--stages", f"0..{depth}", "--test-count", "100"]}[experiment]
    argv = [experiment, "--mode", mode, *flags, "--n-override", "5=300"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"lab {experiment}: ")
    assert "stage 5" in err


@pytest.mark.parametrize("mode", ["empirical", "proof"])
def test_nonpositive_n_override_exits_1(mode, capsys):
    # a sample size below 1 is invalid input in both modes, not a bound violation
    assert main(["schedule", "--mode", mode, "--n-override", "0=0"]) == 1
    assert capsys.readouterr().err == "lab schedule: sample sizes must be positive\n"


@pytest.mark.parametrize("value", ["5", "x=3", "1=", "=300", "1=2.5"])
def test_malformed_n_override_exits_1(value, capsys):
    # the message names the flag and the form it takes
    assert main(["schedule", "--n-override", value]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("lab schedule: --n-override ")
    assert "STAGE=N" in err and repr(value) in err


@pytest.mark.parametrize("experiment", ["consistency", "schedule"])
def test_each_mode_refuses_the_flags_of_the_other(experiment, capsys):
    # proof mode derives m and n, and empirical mode takes its stages from
    # --n, so a flag of the other mode is an error rather than ignored
    run = {"consistency": ["--stages", "0..0", "--test-count", "100"], "schedule": []}[experiment]
    for flags, message in (
        (["--mode", "proof", "--m", "1,9"], "proof mode takes no --m"),
        (["--mode", "proof", "--n", "4,5"], "proof mode takes no --n"),
        (["--mode", "proof", "--m", "1,9", "--n", "4"], "proof mode takes no --m or --n"),
    ):
        assert main([experiment, *run, *flags]) == 1
        assert capsys.readouterr().err == f"lab {experiment}: {message}\n"
    # consistency takes its depth from --stages and no --depth in either mode
    if experiment == "schedule":
        assert main(["schedule", "--mode", "empirical", "--depth", "1"]) == 1
        assert capsys.readouterr().err == "lab schedule: empirical mode takes no --depth\n"
        assert main(["schedule", "--mode", "proof", "--depth", "0"]) == 0
    assert main([experiment, *run, "--mode", "empirical", "--m", "1,50,50", "--n", "200"]) == 0
    assert main([experiment, *run, "--mode", "proof"]) == 0
    assert capsys.readouterr().err == ""


def test_baseline_defaults_to_sqrtceil():
    assert config_from_args(build_parser().parse_args(["baseline"])).k_rule == "sqrtceil"
    args = build_parser().parse_args(["baseline", "--k-rule", "log2ceil"])
    assert config_from_args(args).k_rule == "log2ceil"


# each config key, a command line that sets it, and the value it must get;
# every value differs from the default, so the flag is what sets it
FLAG_FOR_KEY = {
    "experiment": (["dimension"], "dimension"),
    "seed": (["consistency", "--seed", "7"], 7),
    "stages": (["consistency", "--stages", "1..3"], (1, 3)),
    "n_override": (["consistency", "--n-override", "1=500", "--n-override", "0=300"],
                   {1: 500, 0: 300}),
    "k_rule": (["consistency", "--k-rule", "const1"], "const1"),
    "test_count": (["consistency", "--test-count", "500"], 500),
    "mode": (["consistency", "--mode", "proof"], "proof"),
    "output_path": (["consistency", "--out", "x.csv"], "x.csv"),
    "m": (["consistency", "--m", "1,50"], (1, 50)),
    "n": (["consistency", "--n", "200,400"], (200, 400)),
    "depth": (["schedule", "--mode", "proof", "--depth", "2"], 2),
}


@pytest.mark.parametrize("key", list(FLAG_FOR_KEY))
def test_every_config_key_has_a_flag(key):
    argv, value = FLAG_FOR_KEY[key]
    assert value != getattr(ExperimentConfig(experiment="consistency"), key)
    assert getattr(config_from_args(build_parser().parse_args(argv)), key) == value


FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


class _RecordingConfig(ExperimentConfig):
    """A config that records each field read after ``__post_init__``."""

    def __post_init__(self):
        super().__post_init__()
        self.read = set()

    def __getattribute__(self, name):
        read = object.__getattribute__(self, "__dict__").get("read")
        if read is not None and name in FIELDS:
            read.add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("experiment, mode, small", [
    ("consistency", "proof", dict(stages=(0, 0), test_count=100)),
    ("consistency", "empirical", dict(stages=(0, 0), test_count=100)),
    ("baseline", None, dict(test_count=100)),
    ("coverhart", None, dict(test_count=100)),
    ("dimension", None, {}),
    ("schedule", "proof", {}),
    ("schedule", "empirical", {}),
], ids=["consistency-proof", "consistency-empirical", "baseline", "coverhart", "dimension",
        "schedule-proof", "schedule-empirical"])
def test_each_experiment_takes_exactly_the_flags_its_runner_reads(experiment, mode, small):
    # the config keys of the flags the experiment takes, less those of the other mode
    keys = set(vars(build_parser().parse_args([experiment]))) - {"experiment"}
    assert ("mode" in keys) == (mode is not None)
    if mode is not None:
        small = dict(small, mode=mode)
        keys -= {"proof": {"m", "n"}, "empirical": {"depth"}}[mode]
    config = _RecordingConfig(experiment=experiment, **small)
    cli.EXPERIMENTS[experiment][0](config)
    assert config.read == keys


@pytest.mark.parametrize("argv", [
    ["dimension", "--test-count", "10"],
    ["coverhart", "--k-rule", "const1"],
    ["baseline", "--mode", "proof"],
    ["schedule", "--stages", "3..4", "--test-count", "500", "--seed", "9"],
    ["consistency", "--depth", "7"],
], ids=lambda argv: argv[0])
def test_a_flag_the_experiment_does_not_take_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: lab {argv[0]} ")
    assert err.endswith(f"error: unrecognized arguments: {' '.join(argv[1:])}\n")


def test_cli_exit_codes(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["consistency", "--stages", "0..0", "--test-count", "500",
                 "--out", str(out)]) == 0
    assert out.exists()
    # stage-0 ratio constraint violated: k/n = 1/8 is not below 1/8
    assert main(["consistency", "--mode", "empirical", "--m", "1,2", "--n", "8",
                 "--k-rule", "const1", "--stages", "0..0", "--test-count", "500"]) == 4
    assert main(["schedule", "--mode", "proof", "--depth", "4"]) == 3


def test_cli_flags_pass_config_validation(capsys):
    # flags are checked like every other config value
    for argv in (
        ["consistency", "--test-count", "10"],
        ["consistency", "--stages", "2..1"],
        ["consistency", "--seed", "-1"],
    ):
        with pytest.raises(ValueError):
            config_from_args(build_parser().parse_args(argv))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("lab consistency: ")


@pytest.mark.parametrize("experiment", ["schedule", "consistency"])
def test_unwritable_output_exits_1(tmp_path, capsys, experiment):
    run = {"consistency": ["--stages", "0..0", "--test-count", "500"], "schedule": []}[experiment]
    out = tmp_path / "missing-dir" / "x.json"
    assert main([experiment, "--out", str(out), *run]) == 1
    err = capsys.readouterr().err
    assert err == f"lab {experiment}: cannot write output {str(out)!r}: No such file or directory\n"
    assert main([experiment, "--out", str(tmp_path), *run]) == 1
    assert capsys.readouterr().err.startswith(f"lab {experiment}: cannot write output {str(tmp_path)!r}: ")


def test_lab_all_exits_1_when_the_output_directory_cannot_be_created(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out_dir in (blocker, blocker / "sub"):
        assert main(["all", "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"lab all: cannot create output directory {str(out_dir)!r}: ")
        assert err.count("\n") == 1


def test_lab_all_checks_the_bench_file_before_the_first_job(tmp_path, capsys, monkeypatch):
    def no_job(args):
        pytest.fail(f"lab all ran {args} before checking its bench file")

    monkeypatch.setattr(cli, "_measure", no_job)
    bench = tmp_path / "missing-dir" / "b.json"
    assert main(["all", "--out-dir", str(tmp_path / "out"), "--bench", str(bench)]) == 1
    assert capsys.readouterr().err == (
        f"lab all: cannot write bench file {str(bench)!r}: No such file or directory\n"
    )


def test_kind_mismatch_exits_1_with_one_line(capsys, monkeypatch):
    # a runner whose points reach a space of another kind
    def mismatch(config):
        return distance(SparseL2(), Real(0.5), ORIGIN)

    _, lines, flags = cli.EXPERIMENTS["dimension"]
    monkeypatch.setitem(cli.EXPERIMENTS, "dimension", (mismatch, lines, flags))
    with pytest.raises(KindMismatchError):
        mismatch(None)
    assert main(["dimension"]) == 1
    assert capsys.readouterr().err == (
        "lab dimension: points Real/SparsePoint do not match space SparseL2\n"
    )


def test_bad_proof_override_names_the_bounds_it_breaks(capsys):
    assert main(["schedule", "--mode", "proof", "--depth", "1", "--n-override", "0=5"]) == 4
    assert capsys.readouterr().err == (
        "stage 0: k/n = 3/5 must be below 0.125\n"
        "stage 0: n = 5 must exceed the occupancy bound 66.5421\n"
    )


def test_lab_all_stops_at_the_first_failing_job(tmp_path, capsys):
    assert main(["all", "--seed", "-1", "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "lab consistency: seed must be a nonnegative integer, got -1\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--stages", "x"], "argument --stages: expected integers A..B, got 'x'"),
        (["--stages", "1..b"], "argument --stages: expected integers A..B, got '1..b'"),
        (["--m", "1,a"], "argument --m: expected comma-separated integers, got '1,a'"),
        (["--n", "128;1000"], "argument --n: expected comma-separated integers, got '128;1000'"),
        (["--seed", "x"], "argument --seed: invalid int value: 'x'"),
        (["--test-count", "1.5"], "argument --test-count: invalid int value: '1.5'"),
    ],
    ids=["stages", "stages-hi", "m", "n", "seed", "test_count"],
)
def test_typed_flag_usage_errors_name_the_expected_form(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["consistency", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: lab consistency")
    assert err.endswith(f"lab consistency: error: {message}\n")


def test_measure_reports_wall_time_and_peak_rss_or_exits_with_the_child_code():
    # the --bench child runner, on trivial children rather than the suite
    report = _measure(["-c", "pass"])
    assert set(report) == {"wall_s", "peak_rss_mb"}
    assert report["wall_s"] > 0 and report["peak_rss_mb"] > 0
    with pytest.raises(SystemExit) as exc:
        _measure(["-c", "raise SystemExit(3)"])
    assert exc.value.code == 3


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="consistency", test_count=10)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="consistency", stages=(2, 1))
    with pytest.raises(ValueError, match="mode must be one of proof, empirical, got 'foo'"):
        ExperimentConfig(experiment="schedule", mode="foo")


def test_vote_error_counts_mismatches():
    train = np.array([[0.0], [1.0]])
    test = np.array([[0.1], [0.9], [0.2], [0.8]])
    pred, err, stderr = _vote_error(train, np.array([0, 1]), test, np.array([0, 1, 1, 1]), 1)
    assert pred.tolist() == [0, 1, 0, 1]
    assert err == 0.25
    assert stderr == adv.binomial_stderr(0.25, 4)


def test_generic_one_nn_agrees_with_runner():
    # on run_coverhart's two square problems, the generic 1-NN rule gives
    # the runner's predictions and error
    rng = np.random.default_rng(13)
    space = EuclideanD(2)
    for label in (lambda xy, u: u <= 0.3, lambda xy, u: xy[:, 0] > 0.5):
        train, test = rng.random((300, 2)), rng.random((200, 2))
        train_y = label(train, rng.random(300)).astype(np.int64)
        test_y = label(test, rng.random(200)).astype(np.int64)
        pred, err, _ = _vote_error(train, train_y, test, test_y, 1)
        sample = LabelledSample(
            tuple(Vec(tuple(r)) for r in train.tolist()), tuple(train_y.tolist()),
            tuple(float(i) for i in range(300)),
        )
        expected = [
            knn_predict(sample, Vec(tuple(q)), 1, TieStrategy.FIRST_INDEX, space)
            for q in test.tolist()
        ]
        assert pred.tolist() == expected
        assert err == float((np.array(expected) != test_y).mean())
