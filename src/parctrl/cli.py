"""Batch front end.

    parctrl <command> --config <path> [--out <dir>]

Commands: solve | optimize | lambda | sweep-alpha | decay | verify.  Every run
writes its CSV outputs plus a JSON manifest echoing the config text, the mesh
hash, the spectral constants the command read (verify reads all three, decay
lambda0, and trace_norm when forced; the others none) and wall time;
re-running a command from the manifest (pass the manifest path as --config)
reproduces byte-identical CSVs.  optimize also writes result.json, whose
summary (with the CG cost and residual histories) is the manifest's results.
All CSVs go through one writer, one precompiled row format per file: floats
as %.17g, booleans as true/false, a missing value as an empty cell.
Exit codes: 0 success, 1 failed verify properties, 2 validation errors,
3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import asymptotics, optimal_control, scalar_control
from .config import ConfigError, Problem, build_problem, load_config, parse_config_text
from .fem_core import (
    BoundaryControl,
    SolverError,
    TimeField,
    inner_boundary_time,
    inner_domain_time,
    norm_boundary_time,
)
from .state_solvers import solve_adjoint, solve_parabolic, variant_alpha

COMMANDS = ("solve", "optimize", "lambda", "sweep-alpha", "decay", "verify")

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


def _write_manifest(out_dir, command, problem, outputs, results, wall_time):
    # serialized once: mesh.json holds this text and the manifest its hash
    mesh_text = json.dumps(problem.mesh.to_json_dict(), sort_keys=True)
    with open(os.path.join(out_dir, "mesh.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(mesh_text + "\n")
    manifest = {
        "command": command,
        "config_path": problem.cfg.path,
        "config_text": problem.cfg.text,
        "mesh": {
            "dim": problem.mesh.dim,
            "n_nodes": problem.mesh.n_nodes,
            "hash": hashlib.sha256(mesh_text.encode()).hexdigest(),
            "file": "mesh.json",
        },
        "grid": {"t_final": problem.grid.t_final, "steps": problem.grid.n_steps},
        "constants": problem.ops.constants_read(),
        "outputs": outputs,
        "results": results,
        "wall_time_s": wall_time,
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _require(problem, attr, what):
    value = getattr(problem, attr)
    if value is None:
        raise ConfigError(f"this command needs '{what}' in section [data]",
                          problem.cfg.path)
    return value


def _cmd_solve(problem: Problem, out_dir):
    q = problem.q if problem.q is not None else BoundaryControl.zeros(
        problem.grid, problem.ops.gamma2_nodes.size)
    u = solve_parabolic(problem.ops, problem.spec, q, problem.grid,
                        variant_alpha(problem.spec, problem.variant))
    path = os.path.join(out_dir, "u.csv")
    write_field_csv(path, problem.grid, u.values)
    return ["u.csv"], {"u_file": "u.csv",
                       "final_max": float(np.max(u.values[-1])),
                       "final_min": float(np.min(u.values[-1]))}


def _cmd_optimize(problem: Problem, out_dir):
    ops, spec, grid = problem.ops, problem.spec, problem.grid
    if problem.control == "boundary":
        res = optimal_control.optimize_boundary(ops, spec, grid, tol=problem.opt_tol,
                                                variant=problem.variant)
    elif problem.control == "distributed":
        q_fixed = problem.q if problem.q is not None else BoundaryControl.zeros(
            grid, ops.gamma2_nodes.size)
        res = optimal_control.optimize_distributed(ops, spec, grid, q_fixed,
                                                   tol=problem.opt_tol,
                                                   variant=problem.variant)
    else:
        res = optimal_control.optimize_simultaneous(ops, spec, grid,
                                                    tol=problem.opt_tol,
                                                    variant=problem.variant)
    outputs, files = [], {}
    if res.q_opt is not None:
        write_control_csv(os.path.join(out_dir, "q_opt.csv"), grid, ops,
                          res.q_opt.values)
        outputs.append("q_opt.csv")
        files["q_opt"] = "q_opt.csv"
    if res.g_opt is not None:
        write_field_csv(os.path.join(out_dir, "g_opt.csv"), grid, res.g_opt.values)
        outputs.append("g_opt.csv")
        files["g_opt"] = "g_opt.csv"
    write_field_csv(os.path.join(out_dir, "u_opt.csv"), grid, res.u_opt.values)
    write_field_csv(os.path.join(out_dir, "p_opt.csv"), grid, res.p_opt.values)
    outputs += ["u_opt.csv", "p_opt.csv"]
    files["u_opt"], files["p_opt"] = "u_opt.csv", "p_opt.csv"

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
    if not res.converged:
        raise SolverError(f"optimizer did not converge within the iteration cap "
                          f"(residual {res.optimality_residual:.3e})")
    return outputs, summary


def _cmd_lambda(problem: Problem, out_dir):
    # the default boundary variant means the default scalar variant; the
    # library rejects any other name that is not a scalar variant
    variant = problem.variant if problem.variant != "dirichlet" else "parabolic"
    q0 = _require(problem, "q0", "q0")
    if np.max(np.abs(q0.values[1:])) == 0.0:
        raise ConfigError("q0 must be nonzero", problem.cfg.path)
    coeffs = scalar_control.scalar_optimum(problem.ops, problem.spec, q0,
                                           problem.grid, variant)
    h_opt = coeffs.value(coeffs.lambda_opt)
    path = os.path.join(out_dir, "lambda.csv")
    _write_csv(path, "variant,A,B,C,lambda_opt,H_opt",
               "%s,%.17g,%.17g,%.17g,%.17g,%.17g",
               [(variant, coeffs.quadratic, coeffs.linear, coeffs.constant,
                 coeffs.lambda_opt, h_opt)])
    results = {"variant": variant, "A": coeffs.quadratic, "B": coeffs.linear,
               "C": coeffs.constant, "lambda_opt": coeffs.lambda_opt,
               "H_opt": h_opt, "discriminant": coeffs.discriminant}
    return ["lambda.csv"], results


def _cmd_sweep_alpha(problem: Problem, out_dir):
    if not problem.alphas:
        raise ConfigError("sweep-alpha needs 'alphas' in section [weights]",
                          problem.cfg.path)
    q = "optimize" if problem.q_mode == "optimize" else problem.q
    if q is None:
        raise ConfigError("sweep-alpha needs 'q' in section [data] (a profile "
                          "or the word optimize)", problem.cfg.path)
    rows = asymptotics.alpha_sweep(problem.ops, problem.spec, problem.grid,
                                   problem.alphas, q=q, tol=problem.opt_tol)
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
    return outputs, {"rows": len(rows)}


def _cmd_decay(problem: Problem, out_dir):
    q = problem.q
    if q is None:
        raise ConfigError("decay needs 'q' in section [data]", problem.cfg.path)
    forced = problem.g_inf is not None or problem.q_inf is not None
    if forced and (problem.g_inf is None or problem.q_inf is None):
        raise ConfigError("forced decay needs both g_inf and q_inf",
                          problem.cfg.path)
    if forced:
        result = asymptotics.decay_with_forcing(problem.ops, problem.spec, q,
                                                problem.grid, problem.g_inf,
                                                problem.q_inf)
    else:
        result = asymptotics.decay_study(problem.ops, problem.spec, q, problem.grid)
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
                     "forced": forced}


def _verify_battery(problem: Problem):
    """Cross-module property suite on the configured problem; each entry is
    (name, passed, worst observed value)."""
    ops, spec, grid = problem.ops, problem.spec, problem.grid
    rng = np.random.default_rng(2024)
    checks = []

    def record(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": float(detail)})

    n, m = ops.n_nodes, ops.gamma2_nodes.size

    # symmetry of the four inner products
    u, v = rng.standard_normal(n), rng.standard_normal(n)
    s1 = abs(float(u @ (ops.mass @ v)) - float(v @ (ops.mass @ u)))
    Q = BoundaryControl(rng.standard_normal((grid.n_steps + 1, m)))
    R = BoundaryControl(rng.standard_normal((grid.n_steps + 1, m)))
    s2 = abs(inner_boundary_time(grid, ops, Q, R) - inner_boundary_time(grid, ops, R, Q))
    record("inner-product-symmetry", max(s1, s2) <= 1e-12, max(s1, s2))

    # spectral certificates on 1000 random vectors; the forms stay sparse,
    # since a dense n x n copy would cost O(n^2) memory
    def forms(a_mat, xs):
        return np.einsum("ij,ij->i", xs, (a_mat @ xs.T).T)

    V = ops.stiffness + ops.mass
    vs = rng.standard_normal((1000, n))
    vs0 = vs.copy()
    vs0[:, ops.dirichlet_nodes] = 0.0
    vq0 = forms(V, vs0)
    slack0 = np.min(forms(ops.stiffness, vs0) - ops.lambda0 * vq0)
    vq = forms(V, vs)
    slack1 = np.min(forms(ops.stiffness + ops.bmass_gamma1, vs) - ops.lambda1 * vq)
    slack2 = np.min(ops.trace_norm ** 2 * vq - forms(ops.bmass_gamma2, vs))
    worst = min(slack0, slack1, slack2) / max(np.max(vq), 1.0)
    record("spectral-certificates", worst >= -1e-12, worst)

    # superposition of the forward solver
    from dataclasses import replace

    q1 = BoundaryControl(rng.standard_normal((grid.n_steps + 1, m)))
    q2 = BoundaryControl(rng.standard_normal((grid.n_steps + 1, m)))
    u1 = solve_parabolic(ops, spec, q1, grid)
    zero_spec = replace(spec, source=TimeField.zeros(grid, n),
                        boundary_temp=np.zeros(ops.dirichlet_nodes.size),
                        initial_temp=np.zeros(n))
    du = solve_parabolic(ops, zero_spec, BoundaryControl(q2.values - q1.values), grid)
    u2 = solve_parabolic(ops, spec, q2, grid)
    gap = np.max(np.abs(u1.values + du.values - u2.values))
    scale = max(np.max(np.abs(u2.values)), 1.0)
    record("solver-superposition", gap <= 1e-11 * scale, gap / scale)

    # constants are steady states
    const_spec = replace(spec, source=TimeField.zeros(grid, n),
                         boundary_temp=np.full(ops.dirichlet_nodes.size, 1.5),
                         initial_temp=np.full(n, 1.5))
    uc = solve_parabolic(ops, const_spec, BoundaryControl.zeros(grid, m), grid)
    gap = np.max(np.abs(uc.values - 1.5))
    record("constant-steady-state", gap <= 1e-12, gap)

    # strict energy decay of the homogeneous problem
    x = ops.mesh.node_coords
    bump = np.ones(n)
    for d in range(ops.mesh.dim):
        bump = bump * np.sin(np.pi * x[:, d])
    bump[ops.dirichlet_nodes] = 0.0
    dec_spec = replace(spec, source=TimeField.zeros(grid, n),
                       boundary_temp=np.zeros(ops.dirichlet_nodes.size),
                       initial_temp=bump)
    ud = solve_parabolic(ops, dec_spec, BoundaryControl.zeros(grid, m), grid)
    norms = np.sqrt(np.einsum("kj,kj->k", ud.values, (ops.mass @ ud.values.T).T))
    worst = float(np.max(norms[1:] - norms[:-1]))
    record("energy-decay", worst < 0.0, worst)

    # adjoint duality, both boundary-condition variants; an infinite transfer
    # coefficient would repeat the Dirichlet check, so Robin then uses 5
    robin_spec = spec if not math.isinf(spec.transfer_coeff) else replace(
        spec, transfer_coeff=5.0)
    for variant in ("dirichlet", "robin"):
        alpha = variant_alpha(robin_spec, variant)
        worst = 0.0
        for _ in range(3):
            q = BoundaryControl(rng.standard_normal((grid.n_steps + 1, m)))
            eta = BoundaryControl(rng.standard_normal((grid.n_steps + 1, m)))
            u_q = solve_parabolic(ops, spec, q, grid, alpha)
            u_eta = solve_parabolic(ops, spec, eta, grid, alpha)
            u_0 = solve_parabolic(ops, spec, BoundaryControl.zeros(grid, m), grid, alpha)
            p_q = solve_adjoint(ops, u_q, spec.target, grid, alpha)
            lhs = inner_domain_time(grid, ops, TimeField(u_eta.values - u_0.values),
                                    TimeField(u_q.values - spec.target.values))
            rhs = -inner_boundary_time(grid, ops, eta,
                                       BoundaryControl(p_q.values[:, ops.gamma2_nodes]))
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
        record(f"adjoint-duality-{variant}", worst <= 1e-10, worst)

    # central differences of the quadratic cost
    q = BoundaryControl(rng.standard_normal((grid.n_steps + 1, m)))
    grad = optimal_control.tracking_gradient(ops, spec, q, grid)
    worst = 0.0
    for eps in (1e-2, 1e-4):
        eta = BoundaryControl(rng.standard_normal((grid.n_steps + 1, m)))
        plus = BoundaryControl(q.values + eps * eta.values)
        minus = BoundaryControl(q.values - eps * eta.values)
        fd = (optimal_control.tracking_cost(ops, spec, plus, grid)
              - optimal_control.tracking_cost(ops, spec, minus, grid)) / (2 * eps)
        pairing = inner_boundary_time(grid, ops, grad, eta)
        worst = max(worst, abs(fd - pairing) / max(abs(fd), abs(pairing), 1e-300))
    record("gradient-central-difference", worst <= 1e-9, worst)

    # convexity identity
    q1 = BoundaryControl(rng.standard_normal((grid.n_steps + 1, m)))
    q2 = BoundaryControl(rng.standard_normal((grid.n_steps + 1, m)))
    t = 0.37
    mix = BoundaryControl((1 - t) * q2.values + t * q1.values)
    lhs = ((1 - t) * optimal_control.tracking_cost(ops, spec, q2, grid)
           + t * optimal_control.tracking_cost(ops, spec, q1, grid)
           - optimal_control.tracking_cost(ops, spec, mix, grid))
    w1 = solve_parabolic(ops, spec, q1, grid)
    w2 = solve_parabolic(ops, spec, q2, grid)
    dw = TimeField(w2.values - w1.values)
    dq = BoundaryControl(q2.values - q1.values)
    rhs = 0.5 * t * (1 - t) * (inner_domain_time(grid, ops, dw, dw)
                               + spec.flux_penalty
                               * inner_boundary_time(grid, ops, dq, dq))
    worst = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    record("convexity-identity", worst <= 1e-10, worst)

    # building-block recombination
    q0 = problem.q0 if problem.q0 is not None else BoundaryControl.constant_in_time(
        grid, np.ones(m))
    u_b, u_q0, u_g = scalar_control.building_blocks(ops, spec, q0, grid, "parabolic")
    lam = 0.6
    direct = solve_parabolic(ops, spec, BoundaryControl(lam * q0.values), grid)
    combo = u_b.values + lam * u_q0.values + u_g.values
    gap = np.max(np.abs(combo - direct.values)) / max(np.max(np.abs(direct.values)), 1.0)
    record("building-block-recombination", gap <= 1e-12, gap)

    # certified optimality of the boundary optimizer: the independently
    # recomputed gradient satisfies the relative stopping rule
    res = optimal_control.optimize_boundary(ops, spec, grid, tol=problem.opt_tol)
    grad = optimal_control.tracking_gradient(ops, spec, res.q_opt, grid)
    gnorm = norm_boundary_time(grid, ops, grad)
    ref = max(1.0, res.residual_history[0])
    record("optimality-certificate",
           res.converged and gnorm <= problem.opt_tol * ref, gnorm)

    return checks


def _cmd_verify(problem: Problem, out_dir):
    checks = _verify_battery(problem)
    results = {"properties": checks,
               "all_passed": all(c["passed"] for c in checks)}
    return [], results


def _load_problem(config_path: str) -> Problem:
    if config_path.endswith(".json"):
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read manifest: {exc}", config_path) from exc
        if "config_text" not in manifest:
            raise ConfigError("manifest carries no config_text", config_path)
        cfg = parse_config_text(manifest["config_text"], config_path)
    else:
        cfg = load_config(config_path)
    return build_problem(cfg)


_DISPATCH = {
    "solve": _cmd_solve,
    "optimize": _cmd_optimize,
    "lambda": _cmd_lambda,
    "sweep-alpha": _cmd_sweep_alpha,
    "decay": _cmd_decay,
    "verify": _cmd_verify,
}


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
        problem = _load_problem(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    os.makedirs(args.out, exist_ok=True)
    try:
        outputs, results = _DISPATCH[args.command](problem, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {problem.cfg.path}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE

    wall = time.perf_counter() - t0
    _write_manifest(args.out, args.command, problem, outputs, results, wall)

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
