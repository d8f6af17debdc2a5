"""Self-test of the benchmark; takes about two minutes.

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
_, workloads = run.set_up()
import reference  # noqa: E402
import tracer  # noqa: E402  (imports metriclab, which set_up puts on the path)


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return result


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _bindings() -> dict:
    """Identity of every module global and AdversarialProblem attribute."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "metriclab" or name.startswith("metriclab."):
            out.update({(name, k): id(v) for k, v in vars(mod).items()})
    cls = workloads.adv.AdversarialProblem
    out.update({("AdversarialProblem", k): id(v) for k, v in vars(cls).items()})
    return out


def test_workload_names_match_spec():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_end_to_end_metrics_match_spec():
    metrics = _bench("stage_tables", 0)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


def test_reference_brackets_the_pass_and_is_left_out_of_its_time():
    def workload(seed, checks):
        yield 1
        yield 2

    ref = reference.Reference("python")
    out, wall, rel = run.run_pass(workload, 0, workloads.Checks(), ref)
    assert out == [1, 2]
    # timed before the first step and after the last, not between the two
    # steps, which came within INTERVAL_S of the first timing
    assert len(ref.times) == 2 * reference.REPEATS
    assert wall < min(ref.times)
    assert rel == wall / statistics.median(ref.times)
    assert sorted(workloads.REFERENCE) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", ["stage_tables", "euclid_contrast"])
def test_per_layer_metrics_match_spec_and_computed_counts_repeat(workload):
    first, second = (_bench(workload, 1)["metrics"] for _ in range(2))
    assert {k: v["unit"] for k, v in first.items()} == _units("per_layer")
    assert tracer.metric_units() == _units("per_layer")
    computed = {k: first[k]["value"] for k in tracer.COMPUTED}
    assert computed == {k: second[k]["value"] for k in tracer.COMPUTED}
    assert all(isinstance(v, int) for v in computed.values())
    if workload == "stage_tables":
        assert computed["adversarial.fresh.counts_bytes"] > 0
        assert computed["adversarial.trace.compare_bytes"] == 10**6 * 20 * 3 * 8
    else:
        assert computed["experiments.run_baseline.dense_bytes"] == 8 * 10**4 * 11100
        assert computed["experiments.run_coverhart.pair_evals"] == 10**4 * 30000


def test_traced_pass_restores_every_patched_name():
    before = _bindings()
    t = tracer.Tracer()
    t.run(workloads.warm_up)
    assert _bindings() == before
    assert t.metrics()["nagata.contains.calls"] > 0  # the wrappers were installed

    def boom():
        workloads.warm_up()
        raise RuntimeError("pass failed")

    with pytest.raises(RuntimeError):
        tracer.Tracer().run(boom)
    assert _bindings() == before


def test_self_times_account_for_the_traced_pass():
    t = tracer.Tracer()
    t.run(workloads.warm_up)
    metrics = t.metrics()
    self_s = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert math.isclose(self_s, t.wall_s, rel_tol=1e-9)
    assert metrics["knn.select_neighbours.calls"] == 1
    assert metrics["spaces.distance.calls.from_knn"] == 60
