"""Layer spans for traced CLI invocations, and the per-layer metrics built
from them.

The program is not edited: ``install`` wraps each layer's entry points in
the already imported ``parctrl`` modules, rebinding every module-level name
that refers to the original, so ``from .x import f`` call sites are traced
too.  An entry point that no longer exists is reported by name and skipped.

A span is ``[name, start, end, parent index, attrs]``.  A layer's self time
is its spans' durations minus the durations of their direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
from collections import defaultdict


def _eigen_name(arguments):
    return "fem_core.eigen_robin" if arguments.get("space") == "v_robin" else "fem_core.eigen_v0"


# (module, attribute path, span name); a callable span name picks the name
# from the call's bound arguments
ENTRY_POINTS = (
    ("parctrl.config", "load_config", "config.load_config"),
    ("parctrl.config", "build_problem", "config.build_problem"),
    ("parctrl.fem_core", "build_interval_mesh", "fem_core.mesh"),
    ("parctrl.fem_core", "build_rect_mesh", "fem_core.mesh"),
    ("parctrl.fem_core", "assemble", "fem_core.assemble"),
    ("parctrl.fem_core", "coercivity_constant", _eigen_name),
    ("parctrl.fem_core", "trace_norm", "fem_core.trace_norm"),
    ("parctrl.fem_core", "spd_solver", "fem_core.factorize"),
    ("parctrl.state_solvers", "ParabolicStepper.__init__", "state_solvers.stepper_init"),
    ("parctrl.state_solvers", "ParabolicStepper.run", "state_solvers.march"),
    ("parctrl.state_solvers", "ParabolicStepper.run_adjoint", "adjoint_solvers.march"),
    ("parctrl.state_solvers", "solve_elliptic_dirichlet", "state_solvers.elliptic"),
    ("parctrl.state_solvers", "solve_elliptic_robin", "state_solvers.elliptic"),
    ("parctrl.optimal_control", "optimize_boundary", "optimal_control.optimize"),
    ("parctrl.optimal_control", "optimize_distributed", "optimal_control.optimize"),
    ("parctrl.optimal_control", "optimize_simultaneous", "optimal_control.optimize"),
    ("parctrl.scalar_control", "building_blocks", "scalar_control.building_blocks"),
    ("parctrl.asymptotics", "alpha_sweep", "asymptotics.sweep"),
    ("parctrl.asymptotics", "decay_study", "asymptotics.decay"),
    ("parctrl.asymptotics", "decay_with_forcing", "asymptotics.decay"),
    ("parctrl.cli", "write_field_csv", "cli.csv_write"),
    ("parctrl.cli", "write_control_csv", "cli.csv_write"),
    ("parctrl.cli", "_write_csv", "cli.csv_write"),
    ("parctrl.cli", "_write_manifest", "cli.manifest"),
    ("parctrl.cli", "_verify_battery", "cli.verify_battery"),
)


def _factorize_attrs(arguments, result):
    n = arguments["a_mat"].shape[0]
    limit = arguments.get("direct_limit")
    if limit is None:
        limit = getattr(sys.modules["parctrl.fem_core"], "DIRECT_LIMIT", None)
    return {"path": "cg" if limit is not None and n > limit else "direct"}


def _stepper_attrs(arguments, result):
    s = arguments["self"]
    return {"system": [id(s.ops), s.grid.dt, s.alpha, s.lumped]}


def _steps_attrs(arguments, result):
    return {"steps": arguments["self"].grid.n_steps}


# span name -> attrs(bound arguments, return value), evaluated after the call
ATTRS = {
    "fem_core.assemble": lambda a, r: {"n_nodes": r.n_nodes},
    "fem_core.factorize": _factorize_attrs,
    "state_solvers.stepper_init": _stepper_attrs,
    "state_solvers.march": _steps_attrs,
    "adjoint_solvers.march": _steps_attrs,
    "optimal_control.optimize": lambda a, r: {"iterations": r.iterations},
    "cli.csv_write": lambda a, r: {"bytes": os.path.getsize(a["path"])},
}


class Recorder:
    """Spans in memory, one open-span stack per thread."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name) -> int:
        stack = self._stack()
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               stack[-1] if stack else None, {}])
        stack.append(idx)
        return idx

    def close(self, idx, attrs=None):
        self.spans[idx][2] = time.perf_counter()
        if attrs:
            self.spans[idx][4].update(attrs)
        self._stack().pop()


def _traced(recorder, func, span_name):
    sig = inspect.signature(func)
    attrs_fn = None if callable(span_name) else ATTRS.get(span_name)

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            arguments = bound.arguments
        except TypeError:
            arguments = {}
        name = span_name(arguments) if callable(span_name) else span_name
        idx = recorder.open(name)
        attrs = None
        try:
            result = func(*args, **kwargs)
            if attrs_fn is not None:
                try:
                    attrs = attrs_fn(arguments, result)
                except Exception as exc:  # a refactor moved an attribute: keep running
                    attrs = {"attrs_error": repr(exc)}
            return result
        finally:
            recorder.close(idx, attrs)

    return wrapper


def install(recorder: Recorder) -> list:
    """Wrap every entry point; returns the ones that could not be found."""
    missing = []
    for module_name, path, span_name in ENTRY_POINTS:
        module = sys.modules.get(module_name)
        owner_path, _, attr = path.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            missing.append(f"{module_name}.{path}")
            continue
        wrapped = _traced(recorder, original, span_name)
        if owner is not module:
            setattr(owner, attr, wrapped)
            continue
        for name, mod in list(sys.modules.items()):
            if name == "parctrl" or name.startswith("parctrl."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
    return missing


# ---------------------------------------------------------------------------
# per-layer metrics: name -> (unit, better)
# ---------------------------------------------------------------------------

PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "config.build_problem_s": ("s", "lower"),
    "config.self_s": ("s", "lower"),
    "fem_core.mesh_s": ("s", "lower"),
    "fem_core.assemble_self_s": ("s", "lower"),
    "fem_core.eigen_v0_s": ("s", "lower"),
    "fem_core.eigen_robin_s": ("s", "lower"),
    "fem_core.trace_norm_s": ("s", "lower"),
    "fem_core.n_nodes": ("count", "lower"),
    "fem_core.factorize_s": ("s", "lower"),
    "fem_core.factorize_count": ("count", "lower"),
    "fem_core.cg_path_count": ("count", "lower"),
    "state_solvers.stepper_init_s": ("s", "lower"),
    "state_solvers.stepper_init_count": ("count", "lower"),
    "state_solvers.distinct_systems": ("count", "lower"),
    "state_solvers.factorization_reuse": ("ratio", "higher"),
    "state_solvers.march_s": ("s", "lower"),
    "state_solvers.march_count": ("count", "lower"),
    "state_solvers.steps_marched": ("count", "lower"),
    "state_solvers.step_us": ("us", "lower"),
    "state_solvers.elliptic_s": ("s", "lower"),
    "adjoint_solvers.march_s": ("s", "lower"),
    "adjoint_solvers.march_count": ("count", "lower"),
    "adjoint_solvers.step_us": ("us", "lower"),
    "optimal_control.optimize_s": ("s", "lower"),
    "optimal_control.self_s": ("s", "lower"),
    "optimal_control.cg_iterations": ("count", "lower"),
    "optimal_control.iteration_s": ("s", "lower"),
    "scalar_control.building_blocks_s": ("s", "lower"),
    "asymptotics.sweep_s": ("s", "lower"),
    "asymptotics.decay_s": ("s", "lower"),
    "cli.csv_write_s": ("s", "lower"),
    "cli.csv_bytes": ("bytes", "lower"),
    "cli.csv_mb_per_s": ("MB/s", "higher"),
    "cli.manifest_s": ("s", "lower"),
    "cli.verify_battery_s": ("s", "lower"),
    "cli.verify_self_s": ("s", "lower"),
    "trace_overhead": ("ratio", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
}

def invocation_totals(spans: list) -> dict:
    """Additive layer quantities of one invocation's spans, keyed by metric.

    Totals and counts take only the outermost span of a name, so a traced
    function calling another one of the same layer is not counted twice;
    self times take every span.
    """
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            child[parent] += dur[i]

    def outermost(i):
        name, parent = spans[i][0], spans[i][3]
        while parent is not None:
            if spans[parent][0] == name:
                return False
            parent = spans[parent][3]
        return True

    total, count, self_time = defaultdict(float), defaultdict(int), defaultdict(float)
    outer = []
    for i, (name, _, _, _, _) in enumerate(spans):
        self_time[name] += dur[i] - child[i]
        if outermost(i):
            total[name] += dur[i]
            count[name] += 1
            outer.append(spans[i])

    def attr_sum(name, key):
        return sum(s[4].get(key, 0) for s in outer if s[0] == name)

    factorize_paths = [s[4].get("path") for s in outer if s[0] == "fem_core.factorize"]
    systems = {tuple(s[4]["system"]) for s in outer
               if s[0] == "state_solvers.stepper_init" and "system" in s[4]}
    return {
        "cli.import_s": total["cli.import"],
        "config.build_problem_s": total["config.build_problem"],
        "config.self_s": self_time["config.load_config"] + self_time["config.build_problem"],
        "fem_core.mesh_s": total["fem_core.mesh"],
        "fem_core.assemble_self_s": self_time["fem_core.assemble"],
        "fem_core.eigen_v0_s": total["fem_core.eigen_v0"],
        "fem_core.eigen_robin_s": total["fem_core.eigen_robin"],
        "fem_core.trace_norm_s": total["fem_core.trace_norm"],
        "fem_core.n_nodes": max((s[4].get("n_nodes", 0) for s in outer
                                 if s[0] == "fem_core.assemble"), default=0),
        "fem_core.factorize_s": total["fem_core.factorize"],
        "fem_core.factorize_count": factorize_paths.count("direct"),
        "fem_core.cg_path_count": factorize_paths.count("cg"),
        "state_solvers.stepper_init_s": total["state_solvers.stepper_init"],
        "state_solvers.stepper_init_count": count["state_solvers.stepper_init"],
        "state_solvers.distinct_systems": len(systems),
        "state_solvers.march_s": total["state_solvers.march"],
        "state_solvers.march_count": count["state_solvers.march"],
        "state_solvers.steps_marched": attr_sum("state_solvers.march", "steps"),
        "state_solvers.elliptic_s": total["state_solvers.elliptic"],
        "adjoint_solvers.march_s": total["adjoint_solvers.march"],
        "adjoint_solvers.march_count": count["adjoint_solvers.march"],
        "adjoint_solvers.steps_marched": attr_sum("adjoint_solvers.march", "steps"),
        "optimal_control.optimize_s": total["optimal_control.optimize"],
        "optimal_control.self_s": self_time["optimal_control.optimize"],
        "optimal_control.cg_iterations": attr_sum("optimal_control.optimize", "iterations"),
        "scalar_control.building_blocks_s": total["scalar_control.building_blocks"],
        "asymptotics.sweep_s": total["asymptotics.sweep"],
        "asymptotics.decay_s": total["asymptotics.decay"],
        "cli.csv_write_s": total["cli.csv_write"],
        "cli.csv_bytes": attr_sum("cli.csv_write", "bytes"),
        "cli.manifest_s": total["cli.manifest"],
        "cli.verify_battery_s": total["cli.verify_battery"],
        "cli.verify_self_s": self_time["cli.verify_battery"],
    }


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def pass_metrics(invocations: list) -> dict:
    """Per-layer metrics of one traced pass: the invocations' totals summed
    (node count: the largest), plus the derived ratios.  trace_overhead and
    its bases are added by the caller."""
    m = {key: sum(inv[key] for inv in invocations) for key in invocations[0]}
    m["fem_core.n_nodes"] = max(inv["fem_core.n_nodes"] for inv in invocations)
    adjoint_steps = m.pop("adjoint_solvers.steps_marched")
    m["state_solvers.factorization_reuse"] = _ratio(
        m["state_solvers.distinct_systems"], m["state_solvers.stepper_init_count"])
    m["state_solvers.step_us"] = _ratio(
        m["state_solvers.march_s"], m["state_solvers.steps_marched"], 1e6)
    m["adjoint_solvers.step_us"] = _ratio(m["adjoint_solvers.march_s"], adjoint_steps, 1e6)
    m["optimal_control.iteration_s"] = _ratio(
        m["optimal_control.optimize_s"], m["optimal_control.cg_iterations"])
    m["cli.csv_mb_per_s"] = _ratio(m["cli.csv_bytes"], m["cli.csv_write_s"], 1e-6)
    return m
