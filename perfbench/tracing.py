"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public functions of each ``iss_parabolic`` module in
every module namespace that binds them (the defining module, the modules
that import the name, and the package itself), so calls made by the
program and calls made by the benchmark are both recorded.  Nothing under
``src/`` is edited, and untraced runs never install the wrappers.

A span is ``[name, start, end, parent, item, extra]``.  Spans stay in
memory until the run ends; :func:`summarize` turns them into the per-layer
metrics.  A span's self time is its duration minus the durations of its
direct children (calls are single-threaded, so children nest exactly).
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Span name -> (module, public functions recorded under that name).  The
# layer of a span is the part of its name before the first dot.
SPANS = {
    "scenarios.parse": ("scenarios", ("parse_scenario",)),
    "scenarios.build": ("scenarios", ("build_problem", "make_reaction", "make_signal", "make_initial")),
    "solver.simulate": ("solver", ("simulate",)),
    "solver.write_csv": ("solver", ("write_trajectory_csv",)),
    "monotone.sandwich": ("monotone", ("constant_reduction_experiment",)),
    "monotone.check_ordering": ("monotone", ("check_ordering",)),
    "monotone.write_csv": ("monotone", ("write_sandwich_csv",)),
    "certify.check": ("certify", ("check_weighted_l1", "check_l2", "check_weighted_sup", "check_fitted_lp")),
    "certify.fit": ("certify", ("estimate_exp_iss_constants",)),
    "certify.lyapunov": ("certify", ("lyapunov_decay_certificate",)),
    "certify.write_csv": ("certify", ("write_report_csv", "write_summary_csv", "write_decay_csv")),
    "norms": ("norms", (
        "lp_norms", "weighted_sin_norms", "weighted_sup_norms", "sup_weight",
        "norm_lp", "norm_weighted_sin", "norm_weighted_sup",
    )),
    "backstepping.solve_kernel": ("backstepping", ("solve_kernel",)),
    "backstepping.solve_inverse_kernel": ("backstepping", ("solve_inverse_kernel",)),
    "backstepping.kernel_oracle": ("backstepping", ("kernel_series_reference",)),
    "backstepping.equivalence": ("backstepping", ("estimate_equivalence_constants",)),
    "backstepping.transform": ("backstepping", ("compatible_initial_state", "apply_transform", "feedback")),
    "backstepping.closed_loop": ("backstepping", ("simulate_closed_loop",)),
    "backstepping.certify": ("backstepping", ("certify_closed_loop",)),
    "backstepping.residual": ("backstepping", ("transform_commutation_residual",)),
    "backstepping.write_csv": ("backstepping", ("write_kernel_csv",)),
    "svgplot.write": ("svgplot", ("write_line_plot",)),
    "runner.suite": ("runner", ("run_suite",)),
    "runner.scenario": ("runner", ("run_scenario",)),
}

LAYERS = ("scenarios", "solver", "monotone", "certify", "norms", "backstepping", "svgplot", "runner")

NAMESPACES = (
    "iss_parabolic", "iss_parabolic.cli", "iss_parabolic.runner", "iss_parabolic.scenarios",
    "iss_parabolic.solver", "iss_parabolic.monotone", "iss_parabolic.certify",
    "iss_parabolic.backstepping", "iss_parabolic.norms", "iss_parabolic.svgplot",
)

STEP_SIZES = (47, 63, 99, 199, 999)

# Spans the benchmark itself opens around a pass and around an item.
PASS, ITEM = "bench.pass", "bench.item"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _simulate_extra(args, kwargs, result):
    grid = _arg(args, kwargs, 1, "grid")
    return {"n": grid.n_interior, "steps": grid.n_steps, "key": (id(_arg(args, kwargs, 0, "problem")), grid)}


def _writer_extra(path_index):
    def extra(args, kwargs, result):
        return {"bytes": os.stat(_arg(args, kwargs, path_index, "path")).st_size}
    return extra


def _trajectory_writer_extra(args, kwargs, result):
    traj = _arg(args, kwargs, 0, "traj")
    out = _writer_extra(1)(args, kwargs, result)
    out["rows"] = len(traj) * traj.grid.n_nodes
    return out


def _closed_loop_extra(args, kwargs, result):
    return {"steps": _arg(args, kwargs, 4, "grid").n_steps}


EXTRAS = {
    "solver.simulate": _simulate_extra,
    "solver.write_csv": _trajectory_writer_extra,
    "monotone.write_csv": _writer_extra(1),
    "certify.write_csv": _writer_extra(1),
    "backstepping.write_csv": _writer_extra(1),
    "svgplot.write": _writer_extra(0),
    "backstepping.closed_loop": _closed_loop_extra,
}


class Tracer:
    """Records spans around calls into the package while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._item = None
        self._next_item = 0
        self._patched: list[tuple] = []
        # Problems simulated per item, kept alive so ids stay unique.
        self._simulated: dict = defaultdict(dict)
        self.repeat_calls = 0

    # -- spans -------------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        nested = self._active[name] > 0
        self.spans.append([name, time.perf_counter(), None, parent, self._item, {"nested": nested}])
        self._stack.append(index)
        self._active[name] += 1
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()
        self._active[self.spans[index][0]] -= 1

    @contextmanager
    def span(self, name: str, new_item: bool = False):
        outer_item = self._item
        if new_item:
            self._item = self._next_item
            self._next_item += 1
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)
            if new_item:
                self._simulated.pop(self._item, None)
                self._item = outer_item

    def _wrap(self, name: str, fn):
        extra_fn = EXTRAS.get(name)
        starts_item = name == "runner.scenario"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name, new_item=starts_item):
                result = fn(*args, **kwargs)
                if extra_fn is not None:
                    extra = extra_fn(args, kwargs, result)
                    tracer.spans[tracer._stack[-1]][5].update(extra)
                    if "key" in extra:
                        tracer._note_simulation(args, kwargs, extra.pop("key"))
            return result

        return traced

    def _note_simulation(self, args, kwargs, key) -> None:
        seen = self._simulated[self._item]
        if key in seen:
            self.repeat_calls += 1
        seen[key] = _arg(args, kwargs, 0, "problem")

    # -- installation ------------------------------------------------------
    def install(self, modules: dict) -> None:
        """Wrap every traced function in every namespace that binds it."""
        for name, (module_name, functions) in SPANS.items():
            defining = modules[f"iss_parabolic.{module_name}"]
            for fn_name in functions:
                original = getattr(defining, fn_name)
                wrapped = self._wrap(name, original)
                for ns_name in NAMESPACES:
                    ns = modules[ns_name]
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patched.append((ns, attr, original))
                            setattr(ns, attr, wrapped)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    @contextmanager
    def installed(self, modules: dict):
        self.install(modules)
        try:
            yield self
        finally:
            self.uninstall()


def summarize(spans: list[list], repeat_calls: int, passes: int) -> dict[str, tuple[float, str]]:
    """Per-pass layer metrics from the spans of ``passes`` traced passes."""
    child_time = defaultdict(float)
    for name, start, end, parent, _item, _extra in spans:
        if parent >= 0:
            child_time[parent] += end - start

    busy = defaultdict(float)
    self_time = defaultdict(float)
    layer_self = defaultdict(float)
    calls = Counter()
    totals = defaultdict(float)  # summed extras: steps, rows, bytes
    step_busy = defaultdict(float)
    step_count = Counter()
    pass_total = 0.0
    for index, (name, start, end, parent, _item, extra) in enumerate(spans):
        duration = end - start
        own = duration - child_time[index]
        self_time[name] += own
        layer_self[name.split(".")[0]] += own
        calls[name] += 1
        if name == PASS:
            pass_total += duration
        if extra["nested"]:
            continue
        busy[name] += duration
        for key in ("steps", "rows", "bytes"):
            if key in extra:
                totals[(name, key)] += extra[key]
        if name == "solver.simulate":
            step_busy[extra["n"]] += duration
            step_count[extra["n"]] += extra["steps"]

    per = 1.0 / max(passes, 1)
    out: dict[str, tuple[float, str]] = {}

    def put(metric: str, value: float, unit: str) -> None:
        out[metric] = (float(value), unit)

    def us_per_step(seconds: float, steps: float) -> float:
        return seconds / steps * 1e6 if steps else 0.0

    for n in STEP_SIZES:
        put(f"solver.us_per_step.n{n}", us_per_step(step_busy[n], step_count[n]), "us")
    put("solver.simulate.calls", calls["solver.simulate"] * per, "count")
    put("solver.steps", totals[("solver.simulate", "steps")] * per, "count")
    put("solver.simulate.busy_s", busy["solver.simulate"] * per, "s")
    put("solver.simulate.repeat_calls", repeat_calls * per, "count")
    put("certify.lyapunov.self_s", self_time["certify.lyapunov"] * per, "s")
    put("solver.write_csv.busy_s", busy["solver.write_csv"] * per, "s")
    put("solver.write_csv.rows", totals[("solver.write_csv", "rows")] * per, "count")
    put("solver.write_csv.bytes", totals[("solver.write_csv", "bytes")] * per, "B")
    for part in ("solve_kernel", "solve_inverse_kernel", "kernel_oracle", "equivalence",
                 "closed_loop", "certify", "residual", "write_csv"):
        put(f"backstepping.{part}.busy_s", busy[f"backstepping.{part}"] * per, "s")
    put(
        "backstepping.closed_loop.us_per_step",
        us_per_step(busy["backstepping.closed_loop"], totals[("backstepping.closed_loop", "steps")]),
        "us",
    )
    put("monotone.sandwich.calls", calls["monotone.sandwich"] * per, "count")
    put("monotone.sandwich.self_s", self_time["monotone.sandwich"] * per, "s")
    put("monotone.check_ordering.busy_s", busy["monotone.check_ordering"] * per, "s")
    put("monotone.write_csv.busy_s", busy["monotone.write_csv"] * per, "s")
    put("certify.check.calls", calls["certify.check"] * per, "count")
    put("certify.check.busy_s", busy["certify.check"] * per, "s")
    put("certify.fit.busy_s", busy["certify.fit"] * per, "s")
    put("certify.write_csv.busy_s", busy["certify.write_csv"] * per, "s")
    put("certify.write_csv.bytes", totals[("certify.write_csv", "bytes")] * per, "B")
    put("norms.calls", calls["norms"] * per, "count")
    put("norms.busy_s", busy["norms"] * per, "s")
    put("svgplot.write.calls", calls["svgplot.write"] * per, "count")
    put("svgplot.write.busy_s", busy["svgplot.write"] * per, "s")
    put("svgplot.write.bytes", totals[("svgplot.write", "bytes")] * per, "B")
    put("scenarios.parse.busy_s", busy["scenarios.parse"] * per, "s")
    put("scenarios.build.busy_s", busy["scenarios.build"] * per, "s")
    put("runner.scenario.calls", calls["runner.scenario"] * per, "count")
    put("runner.scenario.self_s", self_time["runner.scenario"] * per, "s")
    for layer in LAYERS:
        put(f"{layer}.self_s", layer_self[layer] * per, "s")
    put("bench.self_s", layer_self["bench"] * per, "s")
    layer_sum = sum(layer_self[layer] for layer in LAYERS)
    put("trace.layer_share", layer_sum / pass_total if pass_total else 0.0, "ratio")
    return out
