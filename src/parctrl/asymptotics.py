"""Experiment drivers for the two limit regimes.

Transfer-coefficient sweeps quantify how the Robin solutions approach the
Dirichlet ones as the coefficient grows, either at a fixed flux or with a full
optimization per coefficient.  Decay studies march a time-constant (or
asymptotically constant) problem and compare the distance to the steady state
against the exponential bound built from the discrete coercivity constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fem_core import (
    BoundaryControl,
    DiscreteOperators,
    TimeField,
    TimeGrid,
    _check_control,
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

# the continuous-time bounds are perturbed at O(dt) by backward Euler; a fixed
# 5 percent slack turns them into discrete assertions
DECAY_SLACK = 1.05


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
    entry unless each is finite and > 1 and they strictly increase."""
    alphas = [float(a) for a in alphas]
    for a in alphas:
        if not (math.isfinite(a) and a > 1.0):
            raise ValueError(f"alphas must be finite and exceed 1 (the boundary-"
                             f"mismatch weight is sqrt(alpha - 1)), got {a}")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be strictly increasing")
    return alphas


def alpha_sweep(ops: DiscreteOperators, spec: ProblemSpec, grid: TimeGrid,
                alphas, q="optimize", tol: float = 1e-10) -> list:
    """Robin-to-Dirichlet gap per transfer coefficient.

    q is either a fixed BoundaryControl (state and adjoint gaps only) or the
    string "optimize" (one boundary optimization per coefficient, controls
    compared too).  A non-converged optimization flags its row and the sweep
    continues.
    """
    alphas = check_alphas(alphas)
    spec.validate(ops, grid)
    b_ext = np.zeros(ops.n_nodes)
    b_ext[ops.dirichlet_nodes] = spec.boundary_temp
    # each system the sweep builds is dropped once used (the reference's
    # before the rows, a row's when the row ends): one factorization at a time
    kept = set(ops.systems)

    if q == OPTIMIZE:
        ref = optimize_boundary(ops, spec, grid, tol=tol, variant="dirichlet")
        u_ref, p_ref, q_ref = ref.u_opt, ref.p_opt, ref.q_opt
    else:
        _check_control(grid, ops, q)
        u_ref = solve_parabolic(ops, spec, q, grid)
        p_ref = solve_adjoint(ops, u_ref, spec.target, grid)
        q_ref = None
    _release_systems(ops, kept)

    rows = []
    for alpha in alphas:
        if q == OPTIMIZE:
            res = optimize_boundary(ops, replace(spec, transfer_coeff=alpha),
                                    grid, tol=tol, variant="robin")
            u_a, p_a, q_a = res.u_opt, res.p_opt, res.q_opt
            converged = res.converged
            err_control = norm_boundary_time(
                grid, ops, BoundaryControl(q_a.values - q_ref.values))
        else:
            u_a = solve_parabolic(ops, spec, q, grid, alpha)
            p_a = solve_adjoint(ops, u_a, spec.target, grid, alpha)
            converged = True
            err_control = None
        err_state = norm_h1_time(grid, ops, TimeField(u_a.values - u_ref.values))
        err_adjoint = norm_h1_time(grid, ops, TimeField(p_a.values - p_ref.values))
        mismatch = math.sqrt(alpha - 1.0) * norm_gamma1_time(
            grid, ops, TimeField(u_a.values - b_ext[None, :]))
        rows.append(SweepRow(alpha=alpha, err_state=err_state, err_adjoint=err_adjoint,
                             err_control=err_control, boundary_mismatch=mismatch,
                             converged=converged))
        _release_systems(ops, kept)
    return rows


def _release_systems(ops, kept):
    for key in set(ops.systems) - kept:
        del ops.systems[key]


def _require_time_constant(name, rows):
    if np.max(np.abs(rows[1:] - rows[1])) != 0.0:
        raise ValueError(f"decay study needs time-constant data; {name} varies in time")


def _err_series(ops, u_values, u_inf):
    diff = u_values - u_inf[None, :]
    return np.sqrt(np.maximum(
        np.einsum("kj,kj->k", diff, (ops.mass @ diff.T).T), 0.0))


def _fit_rate(times, errs, n_steps):
    # least-squares slope of log err over the first half of the horizon
    half = max(2, n_steps // 2 + 1)
    tt, ee = times[:half], errs[:half]
    mask = ee > 1e-14
    if mask.sum() < 2:
        return math.nan
    slope = np.polyfit(tt[mask], np.log(ee[mask]), 1)[0]
    return float(-slope)


def decay_study(ops: DiscreteOperators, spec: ProblemSpec, q: BoundaryControl,
                grid: TimeGrid) -> DecayResult:
    """March a time-constant problem and compare the distance to the steady
    solution against err(0) * exp(-coercivity * t / 2) at every step."""
    spec.validate(ops, grid)
    _check_control(grid, ops, q)
    _require_time_constant("the source", spec.source.values)
    _require_time_constant("the flux", q.values)
    lam0 = ops.lambda0
    if grid.dt * lam0 > 0.1:
        raise ValueError(f"grid too coarse for the decay bound: dt * coercivity "
                         f"= {grid.dt * lam0:.3f} > 0.1")
    u_inf = solve_elliptic_dirichlet(ops, spec.source.values[1], q.values[1],
                                     spec.boundary_temp)
    u = solve_parabolic(ops, spec, q, grid)
    times = grid.times()
    errs = _err_series(ops, u.values, u_inf)
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
                       q: BoundaryControl, grid: TimeGrid,
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
        raise ValueError("horizon too long: coercivity * t_final must stay "
                         "below 500 to keep the weighted integrals finite")
    if grid.dt * lam0 > 0.1:
        raise ValueError(f"grid too coarse for the decay bound: dt * coercivity "
                         f"= {grid.dt * lam0:.3f} > 0.1")
    g_inf = np.asarray(g_inf, dtype=float)
    q_inf = np.asarray(q_inf, dtype=float)
    u_inf = solve_elliptic_dirichlet(ops, g_inf, q_inf, spec.boundary_temp)
    u = solve_parabolic(ops, spec, q, grid)
    times = grid.times()
    errs = _err_series(ops, u.values, u_inf)
    err0_sq = errs[0] ** 2
    tr_sq = ops.trace_norm ** 2

    rows = [DecayRow(t=0.0, err_h=float(errs[0]), bound=float(errs[0]),
                     ratio=1.0 if errs[0] > 0 else 0.0)]
    decay = math.exp(-lam0 * grid.dt)
    shifted = 0.0  # sum_j dt * exp(-c (t_k - t_j)) F_j, updated recursively
    for k in range(1, grid.n_steps + 1):
        dg = spec.source.values[k] - g_inf
        dq = q.values[k] - q_inf
        f_k = (inner_domain(ops, dg, dg)
               + tr_sq * float(dq @ (ops.bmass_gamma2_sub @ dq)))
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
