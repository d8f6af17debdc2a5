import json
import re

import numpy as np
import pytest

from metriclab.cli import build_parser, config_from_args, main
from metriclab.experiments import (
    ExperimentConfig,
    build_schedule,
    constant_eta_square_problem,
    print_schedule,
    reports_to_csv,
    run_baseline,
    run_consistency,
    run_coverhart,
    run_dimension_suite,
    uniform_interval_problem,
)
from metriclab.knn import euclidean_vote, one_nn_error_estimate
from metriclab.spaces import EuclideanD, EuclideanLine


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


def test_print_schedule_applies_n_override():
    # `lab schedule` shows the schedule that `lab consistency` runs
    config = cfg(experiment="schedule", mode="empirical", depth=1, n_override={1: 2_000_000})
    assert print_schedule(config)["schedule"]["n"] == [128, 2_000_000]
    assert build_schedule(config).schedule.n == (128, 2_000_000)


@pytest.mark.parametrize("experiment", ["schedule", "consistency"])
@pytest.mark.parametrize("mode, depth", [("empirical", "1"), ("proof", "0")])
def test_n_override_outside_the_schedule_exits_1(experiment, mode, depth, capsys):
    # an override for a stage the schedule lacks is an error, not a no-op
    argv = [experiment, "--mode", mode, "--depth", depth, "--stages", f"0..{depth}",
            "--test-count", "100", "--n-override", "5=300"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"lab {experiment}: ")
    assert "stage 5" in err


@pytest.mark.parametrize("value", ["5", "x=3", "1=", "=300", "1=2.5"])
def test_malformed_n_override_exits_1(value, capsys):
    # the message names the flag and the form it takes
    assert main(["schedule", "--n-override", value]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("lab schedule: --n-override ")
    assert "STAGE=N" in err and repr(value) in err


def test_empirical_depth_must_match_the_stages_of_n(capsys):
    # empirical mode takes its stages from --n, so a --depth that disagrees
    # is an error rather than ignored
    for argv in (
        ["schedule", "--mode", "empirical", "--depth", "0"],
        ["schedule", "--mode", "empirical", "--depth", "2"],
        ["schedule", "--mode", "empirical", "--m", "1,2,3", "--n", "200", "--depth", "1"],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("lab schedule: ")
        assert "empirical mode takes its stages from --n" in err
    for argv in (
        ["schedule", "--mode", "empirical"],
        ["schedule", "--mode", "empirical", "--depth", "1"],
        ["schedule", "--mode", "empirical", "--m", "1,50,50", "--n", "200", "--depth", "0"],
    ):
        assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "seed": 3,
                "stages": [0, 0],
                "mode": "empirical",
                "test_count": 500,
                "m": [1, 50, 50],
                "n": [200],
            }
        )
    )
    assert main(["consistency", "--config", str(path)]) == 0
    # the file's seed holds unless --seed is given
    args = build_parser().parse_args(["consistency", "--config", str(path)])
    assert config_from_args(args).seed == 3
    args = build_parser().parse_args(["consistency", "--config", str(path), "--seed", "5"])
    assert config_from_args(args).seed == 5
    assert config_from_args(build_parser().parse_args(["baseline"])).k_rule == "sqrtceil"


def test_cli_exit_codes(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["consistency", "--stages", "0..0", "--test-count", "500",
                 "--out", str(out)]) == 0
    assert out.exists()
    # stage-0 ratio constraint violated: k/n = 1/8 is not below 1/8
    assert main(["consistency", "--mode", "empirical", "--m", "1,2", "--n", "8",
                 "--k-rule", "const1", "--stages", "0..0", "--test-count", "500"]) == 2
    assert main(["schedule", "--mode", "proof", "--depth", "4"]) == 3


def test_cli_flags_pass_config_validation(tmp_path, capsys):
    # flags override the config file and are checked like every other value
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"test_count": 500}))
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({"test_cnt": 500}))
    for argv in (
        ["consistency", "--test-count", "10"],
        ["consistency", "--config", str(path), "--test-count", "10"],
        ["consistency", "--stages", "2..1"],
        ["consistency", "--config", str(typo)],
        ["consistency", "--seed", "-1"],
    ):
        with pytest.raises(ValueError):
            config_from_args(build_parser().parse_args(argv))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("lab consistency: ")


@pytest.mark.parametrize(
    "experiment, content, message",
    [
        ("schedule", None, "cannot read config file "),
        ("schedule", [1, 2], "must hold a JSON object, got list"),
        ("schedule", {"stages": 5}, "config key 'stages' must be a pair of integers, got 5"),
        ("schedule", {"seed": "x"}, "config key 'seed' must be an integer, got 'x'"),
        ("consistency", {"seed": "x"}, "config key 'seed' must be an integer, got 'x'"),
        ("schedule", {"m": "abc"}, "config key 'm' must be a list of integers, got 'abc'"),
        ("schedule", {"test_count": 1.5}, "config key 'test_count' must be an integer, got 1.5"),
        ("schedule", {"mode": "foo"}, "mode must be one of proof, empirical, got 'foo'"),
    ],
    ids=["missing", "array", "stages", "seed", "seed-consistency", "m", "test_count", "mode"],
)
def test_malformed_config_file_exits_1(tmp_path, capsys, experiment, content, message):
    path = tmp_path / "config.json"
    if content is not None:
        path.write_text(json.dumps(content))
        if isinstance(content, dict):
            with pytest.raises(ValueError, match=re.escape(message)):
                ExperimentConfig.from_json_dict({"experiment": experiment, **content})
    assert main([experiment, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"lab {experiment}: ")
    assert message in err


def test_config_keys_take_null_only_where_the_default_is_null():
    cfg = ExperimentConfig.from_json_dict(
        {"experiment": "schedule", "m": None, "n": None, "depth": None, "output_path": None}
    )
    assert cfg.m is None and cfg.depth is None
    with pytest.raises(ValueError, match="config key 'seed' must be an integer, got None"):
        ExperimentConfig.from_json_dict({"experiment": "schedule", "seed": None})
    with pytest.raises(ValueError, match="config key 'depth' must be an integer, got True"):
        ExperimentConfig.from_json_dict({"experiment": "schedule", "depth": True})
    with pytest.raises(ValueError, match="a config must be a JSON object, got list"):
        ExperimentConfig.from_json_dict([["seed", 1]])


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="consistency", test_count=10)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="consistency", stages=(2, 1))


def test_generic_one_nn_agrees_with_runner():
    # the generic estimator on the square problem lands on the same value
    # the vectorized runner reports for the constant regression function
    err = one_nn_error_estimate(
        constant_eta_square_problem(0.3), n=4000, test_points=2000,
        space=EuclideanD(2), seed=13,
    )
    assert err == pytest.approx(0.42, abs=0.04)
    err = one_nn_error_estimate(
        uniform_interval_problem(), n=4000, test_points=2000,
        space=EuclideanLine(), seed=14,
    )
    assert err <= 0.02
