"""Batch front end.

    parctrl <command> --config <path> [--out <dir>]

Commands: solve | optimize | lambda | sweep-alpha | decay | verify.  config
reads the config (or a run's manifest) and resolves every value a command
reads; this module checks the command, runs it and writes its outputs.  One
table, _COMMANDS, gives each command its runner, the [data] variant names it
runs and the keys it requires; both are checked before the mesh is assembled,
as are q = optimize, which only sweep-alpha reads, and decay's g_inf without
q_inf or the reverse.  verify runs the table in properties.  A q0 that is zero
on the rows lambda or verify reads exits 2 at its line.  Every run writes its
CSV outputs plus a JSON manifest echoing the config text, the mesh hash, the
spectral constants the command read (verify reads all three, decay lambda0,
and trace_norm when forced; the others none) and wall time; re-running a
command from the manifest (pass the manifest path as --config) reproduces
byte-identical CSVs.  optimize also writes result.json, whose summary (with the
CG cost and residual histories) is the manifest's results.  All CSVs go through
one writer, one precompiled row format per file: floats as %.17g, booleans as
true/false, a missing value as an empty cell.  Exit codes: 0 success, 1 failed
verify properties, 2 validation errors, 3 solver non-convergence.

BLAS threads: the CLI runs OpenBLAS on one thread unless the environment
sets OPENBLAS_NUM_THREADS or OMP_NUM_THREADS, in which case that setting
wins.  OpenBLAS reads the variable when numpy and scipy load it, so this
module sets OPENBLAS_NUM_THREADS=1 before importing either; the package
__init__ re-exports lazily, so every CLI entry point gets here first.  Once
numpy is loaded it sets nothing.  The manifest's blas_threads holds both
variables as they stood once this module was imported, and set_by: "cli",
"environment", or "none" when numpy was loaded first.

Processes: verify's properties and optimize's CSV files are independent
tasks, and _run_tasks runs them on a forked multiprocessing pool of one
worker per CPU this process may use (os.sched_getaffinity), handed out one
at a time, costliest first.  verify first runs properties.prepare, and
optimize forks once the optimizer has finished, so no worker computes
anything twice.  The library itself stays single-process.  The manifest's
workers is the number of processes the command ran on: 1 for solve, lambda,
sweep-alpha and decay, and with one CPU.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import sys
import time

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
if any(os.environ.get(var) for var in _BLAS_THREAD_VARS):
    _blas_set_by = "environment"
elif "numpy" in sys.modules:  # too late: numpy has loaded OpenBLAS
    _blas_set_by = "none"
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    _blas_set_by = "cli"
_BLAS_THREADS = {**{var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
                 "set_by": _blas_set_by}

# numpy, and scipy through the package modules, load OpenBLAS from here on
import numpy as np  # noqa: E402

from . import asymptotics, optimal_control, properties, scalar_control  # noqa: E402
from .config import ConfigError, Problem, build_problem, load_config  # noqa: E402
from .fem_core import SolverError  # noqa: E402
from .state_solvers import solve_parabolic  # noqa: E402

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3


def _write_csv(path, header, row_format, rows):
    """The one CSV writer: the header line, then row_format % row per row.

    Rows are formatted and written one at a time: a whole field's strings
    (or its Python floats) at once would sit next to the factorization that
    stays cached on ops.
    """
    row_format += "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row_format % row)


def _write_trajectory_csv(path, columns, grid, values):
    # a field or control: "step,time,<columns>" with one row per time level
    times = grid.times()
    _write_csv(path, "step,time," + ",".join(columns),
               ",".join(["%d", "%.17g"] + ["%.17g"] * len(columns)),
               ((k, times[k], *values[k].tolist()) for k in range(values.shape[0])))


def write_field_csv(path, grid, values):
    _write_trajectory_csv(path, [f"n{i}" for i in range(values.shape[1])], grid, values)


def write_control_csv(path, grid, ops, values):
    _write_trajectory_csv(path, [f"g2n{i}" for i in ops.gamma2_nodes], grid, values)


def _worker_count(n_tasks):
    """How many processes _run_tasks runs n_tasks on: one per CPU this
    process may run on, and no more than there are tasks."""
    return min(len(os.sched_getaffinity(0)), n_tasks)


_TASKS = []  # what _run_tasks runs; its forked workers inherit it


def _run_task(index):
    return _TASKS[index]()


def _run_tasks(tasks, order):
    """Run the zero-argument callables in tasks on _worker_count processes
    and return their results in task order.

    With one CPU or one task nothing is forked: the caller runs the tasks in
    order, a permutation of the task indices (costliest first).  Otherwise a
    forked multiprocessing pool runs them, handed out one index at a time in
    that order.  The workers see what the caller built before the call,
    copy-on-write, so a caller computes what is cached on first use before
    calling; only task indices and results are sent between processes.  A
    task that raises in a worker is raised here with its type, message and
    attributes, and the worker's traceback as its __cause__.  A worker that
    dies without its result (killed, or exiting inside a task) raises
    RuntimeError about half a second later.  Leaving the pool, on success or
    on error, terminates and reaps every worker.
    """
    global _TASKS
    order = list(order)
    workers = _worker_count(len(tasks))
    if workers <= 1:
        results = [tasks[i]() for i in order]
    else:
        # forked, not spawned: the tasks are closures over the caller's
        # arrays, and the caller runs no other thread
        _TASKS, others = tasks, set(multiprocessing.active_children())
        try:
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                started = set(multiprocessing.active_children()) - others
                pending, results = pool.imap(_run_task, order), []
                while len(results) < len(order):
                    try:
                        results.append(pending.next(timeout=0.5))
                    except multiprocessing.TimeoutError:
                        # the pool replaces a dead worker, and its task is lost
                        dead = [p.exitcode for p in started if p.exitcode is not None]
                        if dead:
                            raise RuntimeError(f"a worker process exited with code {dead[0]} "
                                               "before the tasks were done") from None
        finally:
            _TASKS = []
    done = dict(zip(order, results))
    return [done[i] for i in range(len(tasks))]


def write_svg_lines(path, series, title, logy=False, logx=False):
    """Minimal deterministic line plot: fixed canvas, fixed palette."""
    width, height, pad = 640, 440, 60
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")

    def tf(vals, log):
        vals = np.asarray(vals, dtype=float)
        if log:
            vals = np.where(vals > 0, vals, np.nan)
            return np.log10(vals)
        return vals

    xs_all = np.concatenate([tf(x, logx) for _, x, _ in series])
    ys_all = np.concatenate([tf(y, logy) for _, _, y in series])
    xs_all = xs_all[np.isfinite(xs_all)]
    ys_all = ys_all[np.isfinite(ys_all)]
    x_lo, x_hi = (float(xs_all.min()), float(xs_all.max())) if xs_all.size else (0, 1)
    y_lo, y_hi = (float(ys_all.min()), float(ys_all.max())) if ys_all.size else (0, 1)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return pad + (x - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def py(y):
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width // 2}" y="24" text-anchor="middle" '
             f'font-size="14">{title}</text>',
             f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
             f'y2="{height - pad}" stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
             f'stroke="black"/>']
    for idx, (label, xs, ys) in enumerate(series):
        txs, tys = tf(xs, logx), tf(ys, logy)
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(txs, tys)
                       if np.isfinite(a) and np.isfinite(b))
        color = colors[idx % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{color}" points="{pts}"/>')
        parts.append(f'<text x="{width - pad + 4}" y="{pad + 16 * idx + 10}" '
                     f'font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


_MESH_JSON_ROWS = 4096  # rows of elements or node_coords serialized at a time


def _mesh_json_pieces(mesh):
    """The text of json.dumps(mesh.to_json_dict(), sort_keys=True) in pieces:
    elements and node_coords go a block of rows at a time, so neither is
    ever a whole Python list or string."""
    facets = [[list(f), t] for f, t in mesh.boundary_facets]
    yield f'{{"boundary_facets": {json.dumps(facets)}, "dim": {json.dumps(mesh.dim)}'
    for key in ("elements", "node_coords"):
        rows = getattr(mesh, key)
        yield f', "{key}": ['
        for start in range(0, rows.shape[0], _MESH_JSON_ROWS):
            text = json.dumps(rows[start:start + _MESH_JSON_ROWS].tolist())[1:-1]
            yield text if start == 0 else ", " + text
        yield "]"
    yield "}"


def _write_manifest(out_dir, command, problem, outputs, results, workers, wall_time):
    # serialized once, in pieces: mesh.json holds this text and the manifest
    # its hash
    mesh_hash = hashlib.sha256()
    with open(os.path.join(out_dir, "mesh.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        for piece in _mesh_json_pieces(problem.mesh):
            fh.write(piece)
            mesh_hash.update(piece.encode())
        fh.write("\n")
    manifest = {
        "command": command,
        "config_path": problem.cfg.path,
        "config_text": problem.cfg.text,
        "mesh": {
            "dim": problem.mesh.dim,
            "n_nodes": problem.mesh.n_nodes,
            "hash": mesh_hash.hexdigest(),
            "file": "mesh.json",
        },
        "grid": {"t_final": problem.grid.t_final, "steps": problem.grid.n_steps},
        "constants": problem.ops.constants_read(),
        "blas_threads": _BLAS_THREADS,
        "workers": workers,
        "outputs": outputs,
        "results": results,
        "wall_time_s": wall_time,
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _check_command(cfg, command):
    """Before any operator is assembled: a [data] variant name that command
    does not run is a ConfigError at the variant line, and each key it
    requires must be present.  q = optimize, where q is read as a
    fixed flux, and decay's g_inf without q_inf or the reverse are
    ConfigErrors at the line of the key set."""
    _, variants, required = _COMMANDS[command]
    name = cfg.get("data", "variant", "dirichlet")
    if name not in variants:
        raise ConfigError(f"{command} takes variant {' | '.join(variants)}, "
                          f"got {name!r}", cfg.path, cfg.line_of("data", "variant"))
    for section, key in required:
        cfg.require(section, key)
    if cfg.get("data", "q") == asymptotics.OPTIMIZE and (
            command in ("solve", "decay")
            or command == "optimize" and cfg.get("data", "control") == "distributed"):
        raise ConfigError("q = optimize is read by sweep-alpha only", cfg.path,
                          cfg.line_of("data", "q"))
    limits = [key for key in ("g_inf", "q_inf") if cfg.get("data", key) is not None]
    if command == "decay" and len(limits) == 1:
        raise ConfigError("forced decay needs both g_inf and q_inf", cfg.path,
                          cfg.line_of("data", limits[0]))


def _cmd_solve(problem: Problem, out_dir):
    u = solve_parabolic(problem.ops, problem.spec, problem.q, problem.grid,
                        problem.variant_alpha)
    write_field_csv(os.path.join(out_dir, "u.csv"), problem.grid, u)
    return ["u.csv"], {"u_file": "u.csv",
                       "final_max": float(np.max(u[-1])),
                       "final_min": float(np.min(u[-1]))}, 1


def _cmd_optimize(problem: Problem, out_dir):
    ops, spec, grid = problem.ops, problem.spec, problem.grid
    alpha = problem.variant_alpha
    # an overflow gives a cost or residual that is not finite, an error below
    with np.errstate(over="ignore", invalid="ignore"):
        if problem.control == "boundary":
            res = optimal_control.optimize_boundary(ops, spec, grid, tol=problem.opt_tol,
                                                    alpha=alpha)
        elif problem.control == "distributed":
            res = optimal_control.optimize_distributed(ops, spec, grid, problem.q,
                                                       tol=problem.opt_tol, alpha=alpha)
        else:
            res = optimal_control.optimize_simultaneous(ops, spec, grid,
                                                        tol=problem.opt_tol, alpha=alpha)
    # one task per CSV; a field has a column per node and q_opt one per
    # GAMMA2 node, so the fields are written first
    names = [name for name in ("q_opt", "g_opt", "u_opt", "p_opt")
             if getattr(res, name) is not None]
    files = {name: f"{name}.csv" for name in names}

    def write(name):
        path, values = os.path.join(out_dir, files[name]), getattr(res, name)
        if name == "q_opt":
            write_control_csv(path, grid, ops, values)
        else:
            write_field_csv(path, grid, values)

    _run_tasks([lambda name=name: write(name) for name in names],
               sorted(range(len(names)), key=lambda i: names[i] == "q_opt"))
    outputs = list(files.values())

    summary = {
        "control": problem.control,
        "variant": problem.variant,
        "cost": res.cost,
        "optimality_residual": res.optimality_residual,
        "iterations": res.iterations,
        "converged": res.converged,
        "cost_history": res.cost_history,
        "residual_history": res.residual_history,
        "files": files,
    }
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs.append("result.json")
    if not (math.isfinite(res.cost) and math.isfinite(res.optimality_residual)):
        raise SolverError("optimizer stopped: the cost or the optimality residual is not "
                          f"finite (cost {res.cost:.3e}, residual {res.optimality_residual:.3e})")
    if not res.converged:
        raise SolverError(f"optimizer did not converge within the iteration cap "
                          f"(residual {res.optimality_residual:.3e})")
    return outputs, summary, _worker_count(len(names))


def _cmd_lambda(problem: Problem, out_dir):
    # lambda.csv calls the default variant, dirichlet, by its problem kind
    variant = problem.variant if problem.variant != "dirichlet" else problem.kind
    coeffs = scalar_control.scalar_optimum(problem.ops, problem.spec, problem.q0,
                                           problem.grid, problem.kind,
                                           problem.variant_alpha)
    h_opt = coeffs.value(coeffs.lambda_opt)
    path = os.path.join(out_dir, "lambda.csv")
    _write_csv(path, "variant,A,B,C,lambda_opt,H_opt",
               "%s,%.17g,%.17g,%.17g,%.17g,%.17g",
               [(variant, coeffs.quadratic, coeffs.linear, coeffs.constant,
                 coeffs.lambda_opt, h_opt)])
    results = {"variant": variant, "A": coeffs.quadratic, "B": coeffs.linear,
               "C": coeffs.constant, "lambda_opt": coeffs.lambda_opt,
               "H_opt": h_opt, "discriminant": coeffs.discriminant}
    return ["lambda.csv"], results, 1


def _cmd_sweep_alpha(problem: Problem, out_dir):
    rows = asymptotics.alpha_sweep(problem.ops, problem.spec, problem.grid,
                                   problem.alphas, q=problem.q, tol=problem.opt_tol)
    path = os.path.join(out_dir, "sweep.csv")
    # err_control is empty for a fixed flux
    _write_csv(path, "alpha,err_state,err_adjoint,err_control,boundary_mismatch,converged",
               "%.17g,%.17g,%.17g,%s,%.17g,%s",
               [(r.alpha, r.err_state, r.err_adjoint,
                 "" if r.err_control is None else "%.17g" % r.err_control,
                 r.boundary_mismatch, "true" if r.converged else "false")
                for r in rows])
    outputs = ["sweep.csv"]
    if problem.plots:
        series = [("err_state", [r.alpha for r in rows], [r.err_state for r in rows]),
                  ("err_adjoint", [r.alpha for r in rows], [r.err_adjoint for r in rows])]
        if rows and rows[0].err_control is not None:
            series.append(("err_control", [r.alpha for r in rows],
                           [r.err_control for r in rows]))
        write_svg_lines(os.path.join(out_dir, "sweep.svg"), series,
                        "transfer-coefficient sweep", logx=True, logy=True)
        outputs.append("sweep.svg")
    if any(not r.converged for r in rows):
        raise SolverError("one or more sweep rows did not converge")
    return outputs, {"rows": len(rows)}, 1


def _cmd_decay(problem: Problem, out_dir):
    # _check_command has rejected g_inf without q_inf and the reverse
    forced = problem.g_inf is not None
    if forced:
        result = asymptotics.decay_with_forcing(problem.ops, problem.spec, problem.q,
                                                problem.grid, problem.g_inf,
                                                problem.q_inf)
    else:
        result = asymptotics.decay_study(problem.ops, problem.spec, problem.q,
                                         problem.grid)
    path = os.path.join(out_dir, "decay.csv")
    _write_csv(path, "t,err_H,bound,ratio", "%.17g,%.17g,%.17g,%.17g",
               [(r.t, r.err_h, r.bound, r.ratio) for r in result.rows])
    outputs = ["decay.csv"]
    if problem.plots:
        write_svg_lines(
            os.path.join(out_dir, "decay.svg"),
            [("err_H", [r.t for r in result.rows], [r.err_h for r in result.rows]),
             ("bound", [r.t for r in result.rows], [r.bound for r in result.rows])],
            "decay toward the steady state", logy=True)
        outputs.append("decay.svg")
    return outputs, {"fitted_rate": result.fitted_rate,
                     "coercivity": result.coercivity,
                     "forced": forced}, 1


def _verify_battery(problem: Problem):
    """The properties.table entries run on problem, as (name, passed, worst
    observed value) dicts in table order.  The cached values are computed
    first, then _run_tasks runs the table, last entry first: the optimizer
    and the marching properties cost most, the first entries least."""
    properties.prepare(problem)
    entries = properties.table(problem)
    outcomes = _run_tasks([check for _, check in entries], reversed(range(len(entries))))
    return [{"name": name, "passed": bool(passed), "detail": float(detail)}
            for (name, _), (passed, detail) in zip(entries, outcomes)]


def _cmd_verify(problem: Problem, out_dir):
    checks = _verify_battery(problem)
    results = {"properties": checks,
               "all_passed": all(c["passed"] for c in checks)}
    return [], results, _worker_count(len(checks))


# command -> (runner, the [data] variant names it runs, the (section, key)
# pairs it requires); sweep-alpha and verify run both
# boundary conditions and take any name another command runs
_BOUNDARY = ("dirichlet", "robin")
_SCALAR = ("dirichlet", "parabolic", "parabolic_robin", "elliptic", "elliptic_robin")
_ANY = _BOUNDARY + _SCALAR[1:]
_COMMANDS = {
    "solve": (_cmd_solve, _BOUNDARY, ()),
    "optimize": (_cmd_optimize, _BOUNDARY, ()),
    "lambda": (_cmd_lambda, _SCALAR, (("data", "q0"),)),
    "sweep-alpha": (_cmd_sweep_alpha, _ANY, (("weights", "alphas"), ("data", "q"))),
    "decay": (_cmd_decay, ("dirichlet",), (("data", "q"),)),
    "verify": (_cmd_verify, _ANY, ()),
}
COMMANDS = tuple(_COMMANDS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="parctrl",
        description="boundary optimal control of mixed heat-conduction problems")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True,
                        help="run configuration (or a manifest.json to re-run)")
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    try:
        cfg = load_config(args.config)
        _check_command(cfg, args.command)
        problem = build_problem(cfg)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot create output directory {args.out}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return EXIT_VALIDATION
        outputs, results, workers = _COMMANDS[args.command][0](problem, args.out)
    except scalar_control.ZeroDirectionError as exc:  # q0 on the rows the variant reads
        print(f"error: {ConfigError(str(exc), cfg.path, cfg.line_of('data', 'q0'))}",
              file=sys.stderr)
        return EXIT_VALIDATION
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {args.config}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE

    wall = time.perf_counter() - t0
    _write_manifest(args.out, args.command, problem, outputs, results, workers, wall)

    if args.command == "verify":
        for c in results["properties"]:
            status = "pass" if c["passed"] else "FAIL"
            print(f"{status}  {c['name']}  ({c['detail']:.3e})")
        if not results["all_passed"]:
            failed = [c["name"] for c in results["properties"] if not c["passed"]]
            print(f"verify failed: {', '.join(failed)}", file=sys.stderr)
            return EXIT_VERIFY_FAILED
        print("verify: all properties passed")
    else:
        print(f"{args.command}: wrote {', '.join(outputs) or 'manifest only'} "
              f"to {args.out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
