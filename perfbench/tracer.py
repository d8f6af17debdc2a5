"""In-memory layer tracer for the benchmark's traced run.

The tracer replaces metriclab's layer functions with timing wrappers at the
names their callers look up at call time: every module global bound to the
function (``knn``, ``nagata`` and ``adversarial`` each hold their own
``distance``; ``experiments`` holds its own copies of the ``nagata``
functions) and the ``AdversarialProblem.geometry`` method. Every patched
name is restored when the traced call returns or raises.

For each layer it keeps a call count and its self time: span time minus the
time of the wrapped calls made inside it. Calls of the coarse layers are also
kept as spans (name, start, end, parent span); the hot leaves (``distance``,
``sparse_d2``, ``contains``, ``geometry``) run millions of times per pass and
are aggregated only. Nothing is written while tracing.
"""

from __future__ import annotations

import inspect
import sys
import time
from typing import Callable

from metriclab import adversarial, experiments, knn, nagata, spaces

# (defining module, function name, hot)
LAYERS = (
    (experiments, "run_consistency", False),
    (experiments, "print_schedule", False),
    (experiments, "run_baseline", False),
    (experiments, "run_coverhart", False),
    (experiments, "run_dimension_suite", False),
    (adversarial, "derive_schedule", False),
    (adversarial, "structured_stage_sim", False),
    (adversarial, "draw_trace", False),
    (adversarial, "distance_classes", False),
    (adversarial, "labelled_sample_from_trace", False),
    (knn, "knn_predict", False),
    (knn, "select_neighbours", False),
    (nagata, "nagata_witness_sparse", False),
    (nagata, "is_disconnected", False),
    (nagata, "multiplicity_over_probes", False),
    (nagata, "greedy_covering_subfamily", False),
    (nagata, "interval_multiplicity_exact", False),
    (nagata, "doubling_cover_greedy", False),
    (nagata, "contains", True),
    (spaces, "sparse_d2", True),
)

# Span names that get a calls and a self_s metric. structured_stage_sim is
# split by sample mode, because the two modes use the simulator differently.
TIMED = tuple(
    f"{mod.__name__.rsplit('.', 1)[1]}.{name}"
    for mod, name, _ in LAYERS
    if name != "structured_stage_sim"
) + (
    "adversarial.structured_stage_sim.fresh",
    "adversarial.structured_stage_sim.trace",
    "adversarial.geometry",
)
DISTANCE_CALLERS = ("knn", "nagata")
COMPUTED = (
    "experiments.run_baseline.dense_bytes",
    "experiments.run_coverhart.pair_evals",
    "adversarial.fresh.counts_bytes",
    "adversarial.trace.compare_bytes",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["spaces.distance.self_s"] = "s"
    for caller in DISTANCE_CALLERS:
        units[f"spaces.distance.calls.from_{caller}"] = "count"
    units["experiments.run_baseline.dense_bytes"] = "bytes"
    units["experiments.run_coverhart.pair_evals"] = "count"
    units["adversarial.fresh.counts_bytes"] = "bytes"
    units["adversarial.trace.compare_bytes"] = "bytes"
    units["adversarial.geometry.memo_hit_ratio"] = "ratio"
    units["bench.pass.self_s"] = "s"
    units["tracing.overhead_ratio"] = "ratio"
    return units


def _metriclab_modules() -> list:
    return [
        m for name, m in sys.modules.items()
        if name == "metriclab" or name.startswith("metriclab.")
    ]


_distance_classes = adversarial.distance_classes


def _stage_sim_outcome(call: inspect.BoundArguments, result) -> tuple[str, dict]:
    a = call.arguments
    if a["sample_mode"] == "fresh":
        classes = len(_distance_classes(a["problem"]))
        return "adversarial.structured_stage_sim.fresh", {
            "adversarial.fresh.counts_bytes": a["test_count"] * classes * 8
        }
    depth = a["problem"].truncation_depth
    return "adversarial.structured_stage_sim.trace", {
        "adversarial.trace.compare_bytes": a["n"] * a["test_count"] * depth * 8
    }


def _baseline_outcome(call: inspect.BoundArguments, result) -> tuple[str, dict]:
    t = call.arguments["config"].test_count
    return "experiments.run_baseline", {
        "experiments.run_baseline.dense_bytes": sum(8 * t * r.n for r in result)
    }


def _coverhart_outcome(call: inspect.BoundArguments, result) -> tuple[str, dict]:
    t = call.arguments["config"].test_count
    # the ratio case re-reports the first case and evaluates no pairs
    evaluated = [c for c in result if c["case"] != "ratio_vs_twice_bayes"]
    return "experiments.run_coverhart", {
        "experiments.run_coverhart.pair_evals": sum(t * c["n"] for c in evaluated)
    }


OUTCOMES: dict[str, Callable] = {
    "adversarial.structured_stage_sim": _stage_sim_outcome,
    "experiments.run_baseline": _baseline_outcome,
    "experiments.run_coverhart": _coverhart_outcome,
}

_FAILED = object()


class Tracer:
    """One traced pass: patch, call, restore, then read ``metrics()``."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # span name -> [calls, self seconds]
        self.computed: dict[str, int] = dict.fromkeys(COMPUTED, 0)
        self.spans: list = []  # (name, start, end, parent index)
        self.wall_s = 0.0
        self.pass_self_s = 0.0
        self._acc: list[float] = []  # child seconds of each open span
        self._open: list[int] = []  # indices of open recorded spans
        self._origin = 0.0
        self._patched: list[tuple[object, str, object]] = []
        self._geometry_nodes: set = set()
        self._problems: dict[int, object] = {}  # keeps ids unique while tracing

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0])

    def _coarse(self, fn, name: str):
        outcome = OUTCOMES.get(name)
        sig = inspect.signature(fn) if outcome else None
        acc, open_, spans, perf = self._acc, self._open, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            open_.append(idx)
            acc.append(0.0)
            result = _FAILED
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                dur = t1 - t0
                child = acc.pop()
                acc[-1] += dur
                open_.pop()
                span_name, computed = name, {}
                if outcome is not None and result is not _FAILED:
                    call = sig.bind(*args, **kwargs)
                    call.apply_defaults()
                    span_name, computed = outcome(call, result)
                for key, value in computed.items():
                    self.computed[key] += value
                stat = self._stat(span_name)
                stat[0] += 1
                stat[1] += dur - child
                parent = open_[-1] if open_ else -1
                spans[idx] = (span_name, t0 - self._origin, t1 - self._origin, parent)

        return wrapper

    def _hot(self, fn, stat: list, caller_stat: list | None = None):
        acc, perf = self._acc, time.perf_counter

        def wrapper(*args, **kwargs):
            acc.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stat[0] += 1
                stat[1] += dur - acc.pop()
                acc[-1] += dur
                if caller_stat is not None:
                    caller_stat[0] += 1

        return wrapper

    def _geometry(self, fn):
        nodes, problems = self._geometry_nodes, self._problems
        inner = self._hot(fn, self._stat("adversarial.geometry"))

        def geometry(problem, t):
            word = t if isinstance(t, tuple) else tuple(t)
            problems[id(problem)] = problem
            nodes.add((id(problem), word))
            return inner(problem, word)

        return geometry

    def _patch(self, owner, attr: str, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _install(self):
        modules = _metriclab_modules()
        for mod, name, hot in LAYERS:
            fn = getattr(mod, name)
            span = f"{mod.__name__.rsplit('.', 1)[1]}.{name}"
            wrapper = self._hot(fn, self._stat(span)) if hot else self._coarse(fn, span)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, attr, wrapper)
        distance, total = spaces.distance, self._stat("spaces.distance")
        for m in modules:
            caller = m.__name__.rsplit(".", 1)[-1]
            for attr, value in list(vars(m).items()):
                if value is distance:
                    calls = self._stat(f"spaces.distance.calls.from_{caller}")
                    self._patch(m, attr, self._hot(distance, total, calls))
        problem_cls = adversarial.AdversarialProblem
        self._patch(problem_cls, "geometry", self._geometry(problem_cls.geometry))

    def _restore(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def run(self, fn: Callable, *args):
        """Call ``fn(*args)`` with every layer wrapped; restores on exit."""
        try:
            self._install()
            self._acc[:] = [0.0]
            self._origin = t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self.wall_s = time.perf_counter() - t0
                self.pass_self_s = self.wall_s - self._acc[0]
        finally:
            self._restore()

    def metrics(self) -> dict[str, float]:
        """Per-layer values of the pass; ``tracing.overhead_ratio`` is left
        to the caller, which knows the untraced wall time."""
        out: dict[str, float] = {}
        for name in TIMED:
            calls, self_s = self.stats.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out["spaces.distance.self_s"] = self.stats.get("spaces.distance", (0, 0.0))[1]
        for caller in DISTANCE_CALLERS:
            key = f"spaces.distance.calls.from_{caller}"
            out[key] = self.stats.get(key, (0, 0.0))[0]
        out.update(self.computed)
        calls = out["adversarial.geometry.calls"]
        nodes = len(self._geometry_nodes)
        out["adversarial.geometry.memo_hit_ratio"] = 1.0 - nodes / calls if calls else 0.0
        out["bench.pass.self_s"] = self.pass_self_s
        return out
