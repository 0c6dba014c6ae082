"""Experiment drivers for the two limit regimes.

Transfer-coefficient sweeps quantify how the Robin solutions approach the
Dirichlet ones as the coefficient grows, either at a fixed flux or with a full
optimization per coefficient; one local solve serves the alpha = +inf
reference and every row.  Decay studies march a time-constant (or
asymptotically constant) problem and compare the distance to the steady state
against the exponential bound built from the discrete coercivity constant;
both share one march-and-distance helper and differ only in their bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fem_core import (
    DiscreteOperators,
    InputError,
    TimeGrid,
    _check_control,
    inner_boundary,
    inner_domain,
    norm_boundary_time,
    norm_gamma1_time,
    norm_h1_time,
)
from .optimal_control import optimize_boundary
from .state_solvers import (
    ProblemSpec,
    solve_adjoint,
    solve_elliptic_dirichlet,
    solve_parabolic,
)

OPTIMIZE = "optimize"


@dataclass
class SweepRow:
    alpha: float
    err_state: float
    err_adjoint: float
    err_control: float | None
    boundary_mismatch: float
    converged: bool


@dataclass
class DecayRow:
    t: float
    err_h: float
    bound: float
    ratio: float


@dataclass
class DecayResult:
    rows: list
    fitted_rate: float
    coercivity: float


def check_alphas(alphas) -> list:
    """The sweep's coefficients as floats; ValueError naming the offending
    entry unless there is at least one, each is finite and > 1 and they
    strictly increase."""
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("alphas must list at least one coefficient")
    for a in alphas:
        if not (math.isfinite(a) and a > 1.0):
            raise ValueError(f"alphas must be finite and exceed 1 (the boundary-"
                             f"mismatch weight is sqrt(alpha - 1)), got {a}")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be strictly increasing")
    return alphas


def alpha_sweep(ops: DiscreteOperators, spec: ProblemSpec, grid: TimeGrid,
                alphas, q=OPTIMIZE, tol: float = 1e-10) -> list:
    """Robin-to-Dirichlet gap per transfer coefficient.

    q is either a fixed (N+1, |GAMMA2|) flux (state and adjoint gaps only) or
    OPTIMIZE (one boundary optimization per coefficient, controls compared
    too).  A row counts as converged when its optimization and that of the
    alpha = +inf reference both did; a row that did not is flagged and the
    sweep continues.
    """
    alphas = check_alphas(alphas)
    spec.validate(ops, grid)
    b_ext = np.zeros(ops.n_nodes)
    b_ext[ops.dirichlet_nodes] = spec.boundary_temp
    # each system the sweep builds is dropped once its limit is computed:
    # one factorization at a time
    kept = set(ops.systems)

    def limit(alpha):
        # (state, adjoint, control or None, converged) at alpha
        # a type test: an array compared with a string is elementwise
        if isinstance(q, str) and q == OPTIMIZE:
            res = optimize_boundary(ops, spec, grid, tol=tol, alpha=alpha)
            out = res.u_opt, res.p_opt, res.q_opt, res.converged
        else:
            u = solve_parabolic(ops, spec, q, grid, alpha)
            out = u, solve_adjoint(ops, u, spec.target, grid, alpha), None, True
        for key in set(ops.systems) - kept:
            del ops.systems[key]
        return out

    u_ref, p_ref, q_ref, ref_converged = limit(math.inf)
    rows = []
    for alpha in alphas:
        u_a, p_a, q_a, converged = limit(alpha)
        err_control = None if q_a is None else norm_boundary_time(grid, ops, q_a - q_ref)
        err_state = norm_h1_time(grid, ops, u_a - u_ref)
        err_adjoint = norm_h1_time(grid, ops, p_a - p_ref)
        mismatch = math.sqrt(alpha - 1.0) * norm_gamma1_time(grid, ops, u_a - b_ext[None, :])
        rows.append(SweepRow(alpha=alpha, err_state=err_state, err_adjoint=err_adjoint,
                             err_control=err_control, boundary_mismatch=mismatch,
                             converged=converged and ref_converged))
    return rows


def _require_time_constant(key, rows):
    # rows 1..N equal, column by column; a nan or inf spread is not 0 either
    if np.max(np.ptp(rows[1:], axis=0)) != 0.0:
        name = {"g": "the source", "q": "the flux"}[key]
        raise InputError(f"decay study needs time-constant data; {name} varies in time", key)


def _distances_to_steady(ops, spec, q, grid, g_inf, q_inf):
    """M-norm distance of the Dirichlet march with flux q to the steady state
    of (g_inf, q_inf), per time level; InputError when dt * coercivity > 0.1."""
    lam0 = ops.lambda0
    if grid.dt * lam0 > 0.1:
        raise InputError(f"grid too coarse for the decay bound: dt * coercivity "
                         f"= {grid.dt * lam0:.3g} > 0.1", "steps")
    u_inf = solve_elliptic_dirichlet(ops, g_inf, q_inf, spec.boundary_temp)
    diff = solve_parabolic(ops, spec, q, grid)
    diff -= u_inf  # in place: no second (N+1, n) array
    return np.sqrt(np.maximum(
        np.einsum("kj,kj->k", diff, (ops.mass @ diff.T).T), 0.0))


def _fit_rate(times, errs, n_steps):
    # least-squares slope of log err over the first half of the horizon; nan with
    # fewer than two points, or with columns polyfit cannot scale (tt @ tt, log err)
    half = max(2, n_steps // 2 + 1)
    tt, ee = times[:half], errs[:half]
    mask = ee > 1e-14
    tt, logs = tt[mask], np.log(ee[mask])
    if tt.size < 2 or not 0.0 < tt @ tt < math.inf or not np.isfinite(logs).all():
        return math.nan
    slope = np.polyfit(tt, logs, 1)[0]
    return float(-slope)


def decay_study(ops: DiscreteOperators, spec: ProblemSpec, q: np.ndarray,
                grid: TimeGrid) -> DecayResult:
    """March a time-constant problem and compare the distance to the steady
    solution against err(0) * exp(-coercivity * t / 2) at every step."""
    spec.validate(ops, grid)
    _check_control(grid, ops, q)
    _require_time_constant("g", spec.source)
    _require_time_constant("q", q)
    errs = _distances_to_steady(ops, spec, q, grid, spec.source[1], q[1])
    lam0 = ops.lambda0
    times = grid.times()
    err0 = errs[0]
    rows = []
    for t, e in zip(times, errs):
        bound = err0 * math.exp(-0.5 * lam0 * t)
        ratio = e / bound if bound > 1e-300 else 0.0
        rows.append(DecayRow(t=float(t), err_h=float(e), bound=float(bound),
                             ratio=float(ratio)))
    return DecayResult(rows=rows, fitted_rate=_fit_rate(times, errs, grid.n_steps),
                       coercivity=lam0)


def decay_with_forcing(ops: DiscreteOperators, spec: ProblemSpec,
                       q: np.ndarray, grid: TimeGrid,
                       g_inf: np.ndarray, q_inf: np.ndarray) -> DecayResult:
    """Decay bound with time-varying source and flux approaching given limits.

    The squared distance to the limit steady state is compared against
    err(0)^2 exp(-c t) plus (2/c) times the running exponentially weighted
    integral of the forcing gaps, c the discrete coercivity constant.  The
    weighted integral is accumulated recursively so no positive exponential is
    ever formed.  The reported bound column is the square root of that
    right-hand side.
    """
    spec.validate(ops, grid)
    _check_control(grid, ops, q)
    lam0 = ops.lambda0
    if grid.t_final * lam0 > 500.0:
        raise InputError("horizon too long: coercivity * t_final must stay "
                         "below 500 to keep the weighted integrals finite", "t_final")
    g_inf = np.asarray(g_inf, dtype=float)
    q_inf = np.asarray(q_inf, dtype=float)
    errs = _distances_to_steady(ops, spec, q, grid, g_inf, q_inf)
    times = grid.times()
    err0_sq = errs[0] ** 2
    tr_sq = ops.trace_norm ** 2

    rows = [DecayRow(t=0.0, err_h=float(errs[0]), bound=float(errs[0]),
                     ratio=1.0 if errs[0] > 0 else 0.0)]
    decay = math.exp(-lam0 * grid.dt)
    shifted = 0.0  # sum_j dt * exp(-c (t_k - t_j)) F_j, updated recursively
    for k in range(1, grid.n_steps + 1):
        dg = spec.source[k] - g_inf
        dq = q[k] - q_inf
        f_k = inner_domain(ops, dg, dg) + tr_sq * inner_boundary(ops, dq, dq)
        shifted = decay * (shifted + grid.dt * f_k)
        bound_sq = err0_sq * math.exp(-lam0 * times[k]) + (2.0 / lam0) * shifted
        bound = math.sqrt(max(bound_sq, 0.0))
        ratio = errs[k] / bound if bound > 1e-300 else 0.0
        rows.append(DecayRow(t=float(times[k]), err_h=float(errs[k]),
                             bound=float(bound), ratio=float(ratio)))
    return DecayResult(rows=rows, fitted_rate=_fit_rate(times, errs, grid.n_steps),
                       coercivity=lam0)


def exp_forcing_quadrature(t_max: float, dt: float) -> dict:
    """Pointwise versus cumulative behaviour of a unit exp(-t) source gap on
    the unit interval: the squared spatial gap is exp(-2t), vanishing in time,
    while its running time integral tends to one half.  Same rectangle rule as
    every other time quadrature."""
    if t_max < 10.0:
        raise ValueError(f"t_max must be at least 10, got {t_max}")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = round(t_max / dt)
    times = dt * np.arange(1, n + 1)
    pointwise = np.exp(-2.0 * times)
    cumulative = dt * np.cumsum(pointwise)
    return {
        "t_max": float(n * dt),
        "dt": float(dt),
        "pointwise_value_at_tmax": float(pointwise[-1]),
        "cumulative_integral_at_tmax": float(cumulative[-1]),
    }
