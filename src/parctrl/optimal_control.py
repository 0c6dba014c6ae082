"""Tracking costs, their gradients, and reduced-space CG optimizers.

The boundary, distributed and simultaneous problems are strictly convex
linear-quadratic programs over the control alone; the state is eliminated by
one forward solve per evaluation.  They differ only in which of (source, flux)
is held fixed, so the three optimizers are thin calls into one driver
(_optimize over a _ReducedProblem) that owns the Gram inner product, the
gradient and Hessian applications and the result packing.  The normal
equations are solved by conjugate gradients in the control-space inner
product (Hinze, Pinnau, Ulbrich & Ulbrich, Optimization with PDE Constraints,
2009); every operator application costs exactly one homogeneous state solve
plus one adjoint solve.
Because the adjoint is the exact transpose of the state recursion, the CG
residual equals the true cost gradient up to roundoff, and the optimality
condition (penalty * control - adjoint trace = 0) is certified at solver
tolerance.

All controls are stored as (n_steps+1, .) arrays whose row 0 is inert: it
enters neither the recursions nor the rectangle-rule inner products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fem_core import (
    BoundaryControl,
    DiscreteOperators,
    SolverError,
    TimeField,
    TimeGrid,
    _check_control,
    _time_pairing,
    lambda_alpha,
)
from .state_solvers import ParabolicStepper, ProblemSpec, solve_parabolic, variant_alpha

DEFAULT_MAX_ITER = 500
_RESTARTS = 3


@dataclass
class OptimResult:
    """Converged (or best-effort) solution of one control problem."""

    u_opt: TimeField
    p_opt: TimeField
    cost: float
    optimality_residual: float
    iterations: int
    converged: bool
    q_opt: BoundaryControl | None = None
    g_opt: TimeField | None = None
    cost_history: list = None
    residual_history: list = None


def _domain_sq(grid, ops, rows):
    # sum_k dt * rows_k M rows_k over k = 1..N
    return grid.dt * _time_pairing(ops.mass, rows, rows)


def _boundary_sq(grid, ops, rows):
    return grid.dt * _time_pairing(ops.bmass_gamma2_sub, rows, rows)


def tracking_cost(ops: DiscreteOperators, spec: ProblemSpec, q: BoundaryControl,
                  grid: TimeGrid, variant: str = "dirichlet") -> float:
    """Half the squared tracking misfit plus the flux penalty term."""
    u = solve_parabolic(ops, spec, q, grid, variant_alpha(spec, variant))
    misfit = _domain_sq(grid, ops, u.values - spec.target.values)
    return 0.5 * misfit + 0.5 * spec.flux_penalty * _boundary_sq(grid, ops, q.values)


def tracking_gradient(ops: DiscreteOperators, spec: ProblemSpec, q: BoundaryControl,
                      grid: TimeGrid, variant: str = "dirichlet") -> BoundaryControl:
    """Riesz representative of the cost derivative in the flux-boundary
    product: penalty * q minus the adjoint trace, per time step."""
    spec.validate(ops, grid)
    _check_control(grid, ops, q)
    reduced = _ReducedProblem(ops, spec, grid, variant, g_fixed=spec.source)
    grad, _ = reduced.grad_at(q.values)
    return BoundaryControl(grad)


class _ReducedProblem:
    """The tracking cost as a function of its free controls alone.

    Of the pair (source, flux), the parts not held fixed are the controls; a
    control vector stacks them columnwise per time step, source first.  Every
    gradient or Hessian application costs one state and one adjoint march on
    the same prefactored stepper.
    """

    def __init__(self, ops, spec, grid, variant, g_fixed=None, q_fixed=None):
        self.ops, self.spec, self.grid = ops, spec, grid
        self.stepper = ParabolicStepper(ops, grid, alpha=variant_alpha(spec, variant))
        self.g_fixed = None if g_fixed is None else g_fixed.values
        self.q_fixed = None if q_fixed is None else q_fixed.values
        self.n_g = ops.n_nodes if g_fixed is None else 0
        self.width = self.n_g + (ops.gamma2_nodes.size if q_fixed is None else 0)
        self.state = {}  # u and p of the latest grad_at

    def free_parts(self, x):
        """(source, flux) parts of a control vector; None for a fixed part."""
        gv = x[:, :self.n_g] if self.g_fixed is None else None
        qv = x[:, self.n_g:] if self.q_fixed is None else None
        return gv, qv

    def inner(self, a, b):
        """Gram product over the free parts: mass block plus GAMMA2-mass block."""
        ops, n_g = self.ops, self.n_g
        parts = []
        if self.g_fixed is None:
            parts.append(_time_pairing(ops.mass, a[:, :n_g], b[:, :n_g]))
        if self.q_fixed is None:
            parts.append(_time_pairing(ops.bmass_gamma2_sub, a[:, n_g:], b[:, n_g:]))
        return self.grid.dt * float(sum(parts))

    def _riesz(self, gv, qv, p):
        # penalty * control plus the adjoint (source) or minus its GAMMA2
        # trace (flux), per free part; row 0 is inert
        blocks = []
        if gv is not None:
            blocks.append(self.spec.source_penalty * gv + p)
        if qv is not None:
            blocks.append(self.spec.flux_penalty * qv - p[:, self.ops.gamma2_nodes])
        out = np.hstack(blocks)
        out[0] = 0.0
        return out

    def grad_at(self, x):
        """True gradient and cost at x, from fresh state and adjoint solves."""
        ops, spec, grid = self.ops, self.spec, self.grid
        gv, qv = self.free_parts(x)
        g_all = self.g_fixed if gv is None else gv
        q_all = self.q_fixed if qv is None else qv
        target = spec.target.values
        u = self.stepper.run(spec.initial_temp, spec.boundary_temp, g_all, q_all)
        p = self.stepper.run_adjoint(u - target)
        self.state["u"], self.state["p"] = u, p
        cost = 0.5 * _domain_sq(grid, ops, u - target)
        if gv is not None:
            cost = cost + 0.5 * spec.source_penalty * _domain_sq(grid, ops, gv)
        # a fixed flux still carries its (constant) penalty term
        cost = cost + 0.5 * spec.flux_penalty * _boundary_sq(grid, ops, q_all)
        return self._riesz(gv, qv, p), cost

    def apply_h(self, x):
        """Reduced Hessian times x: homogeneous state, then its adjoint."""
        gv, qv = self.free_parts(x)
        w = self.stepper.run(np.zeros(self.ops.n_nodes), None, gv, qv)
        return self._riesz(gv, qv, self.stepper.run_adjoint(w))


def _cg_quadratic(apply_h, x, residual, inner, threshold, max_iter, cost_now):
    """CG on H x = b for SPD H, warm-started at x with residual = b - Hx.

    Tracks the exact cost trajectory through the line-search identity
    cost_{k+1} = cost_k - alpha_k <r_k, r_k> / 2.
    """
    costs, resids = [], []
    rr = inner(residual, residual)
    p = residual.copy()
    it = 0
    while math.sqrt(rr) > threshold and it < max_iter:
        hp = apply_h(p)
        php = inner(p, hp)
        if php <= 0.0:
            raise SolverError("CG lost positivity: the reduced Hessian is not SPD")
        alpha = rr / php
        x = x + alpha * p
        residual = residual - alpha * hp
        cost_now = cost_now - 0.5 * alpha * rr
        rr_new = inner(residual, residual)
        costs.append(cost_now)
        resids.append(math.sqrt(rr_new))
        p = residual + (rr_new / rr) * p
        rr = rr_new
        it += 1
    return x, it, costs, resids


def _run_reduced_cg(grad_at, apply_h, inner, x0, tol, max_iter):
    """Outer loop: CG with true-gradient restarts until the certified
    optimality residual passes tol * max(1, initial residual)."""
    x = x0
    grad, cost = grad_at(x)
    res0 = math.sqrt(inner(grad, grad))
    threshold = tol * max(1.0, res0)
    cost_history = [cost]
    residual_history = [res0]
    total_it = 0
    residual = res0
    for _ in range(_RESTARTS):
        if residual <= threshold or total_it >= max_iter:
            break
        x, it, costs, resids = _cg_quadratic(
            apply_h, x, -grad, inner, threshold, max_iter - total_it, cost)
        total_it += it
        cost_history.extend(costs)
        residual_history.extend(resids)
        grad, cost = grad_at(x)  # certified residual, fresh solves
        residual = math.sqrt(inner(grad, grad))
    converged = residual <= threshold
    return x, grad, cost, residual, total_it, converged, cost_history, residual_history


def _optimize(ops, spec, grid, tol, variant, max_iter, g_fixed=None, q_fixed=None):
    """The one reduced-CG driver: minimize over whichever of (source, flux)
    is not held fixed."""
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    spec.validate(ops, grid)
    if q_fixed is not None:
        _check_control(grid, ops, q_fixed)
    reduced = _ReducedProblem(ops, spec, grid, variant, g_fixed, q_fixed)
    x0 = np.zeros((grid.n_steps + 1, reduced.width))
    x, grad, cost, residual, iters, converged, costs, resids = _run_reduced_cg(
        reduced.grad_at, reduced.apply_h, reduced.inner, x0, tol, max_iter)
    gv, qv = reduced.free_parts(x)
    return OptimResult(
        g_opt=None if gv is None else TimeField(gv.copy()),
        q_opt=None if qv is None else BoundaryControl(qv.copy()),
        u_opt=TimeField(reduced.state["u"]),
        p_opt=TimeField(reduced.state["p"]),
        cost=cost, optimality_residual=residual, iterations=iters,
        converged=converged, cost_history=costs, residual_history=resids)


def optimize_boundary(ops: DiscreteOperators, spec: ProblemSpec, grid: TimeGrid,
                      tol: float = 1e-10, variant: str = "dirichlet",
                      max_iter: int = DEFAULT_MAX_ITER) -> OptimResult:
    """Minimize the tracking cost over the boundary flux control."""
    return _optimize(ops, spec, grid, tol, variant, max_iter, g_fixed=spec.source)


def optimize_distributed(ops: DiscreteOperators, spec: ProblemSpec, grid: TimeGrid,
                         q_fixed: BoundaryControl, tol: float = 1e-10,
                         variant: str = "dirichlet",
                         max_iter: int = DEFAULT_MAX_ITER) -> OptimResult:
    """Minimize over the internal energy with the boundary flux held fixed.

    The control replaces the problem's source field; the fixed flux
    contributes the constant penalty term included in the reported cost.
    """
    return _optimize(ops, spec, grid, tol, variant, max_iter, q_fixed=q_fixed)


def optimize_simultaneous(ops: DiscreteOperators, spec: ProblemSpec, grid: TimeGrid,
                          tol: float = 1e-10, variant: str = "dirichlet",
                          max_iter: int = DEFAULT_MAX_ITER) -> OptimResult:
    """Minimize over the internal energy and the boundary flux jointly.

    Cost: half the tracking misfit plus both penalty terms; the block gradient
    is (source_penalty * g + adjoint, flux_penalty * q - adjoint trace) and the
    product inner product is the sum of the domain and boundary parts.
    """
    return _optimize(ops, spec, grid, tol, variant, max_iter)


def control_gap_estimate(ops: DiscreteOperators, spec: ProblemSpec, grid: TimeGrid,
                         g_fixed: TimeField, tol: float = 1e-10,
                         variant: str = "dirichlet") -> dict:
    """Certified a-priori bound on the distance between the boundary-only
    optimal flux (at a fixed internal energy) and the flux component of the
    simultaneous optimum.

    The bound is (trace_norm / (coercivity * flux_penalty)) times the misfit
    between the two optimal states; the Robin variant uses the transfer-form
    coercivity lambda1 * min(1, alpha).
    """
    sim = optimize_simultaneous(ops, spec, grid, tol=tol, variant=variant)
    spec_b = replace(spec, source=g_fixed)
    bnd = optimize_boundary(ops, spec_b, grid, tol=tol, variant=variant)
    if not (sim.converged and bnd.converged):
        raise SolverError("control gap estimate requires both optimizers converged")

    diff = BoundaryControl(bnd.q_opt.values - sim.q_opt.values)
    lhs = math.sqrt(_boundary_sq(grid, ops, diff.values))
    alpha = variant_alpha(spec, variant)
    if math.isinf(alpha):
        coercivity = ops.lambda0
    else:
        coercivity = lambda_alpha(ops, alpha)
    state_gap = math.sqrt(_domain_sq(grid, ops, sim.u_opt.values - bnd.u_opt.values))
    rhs = ops.trace_norm / (coercivity * spec.flux_penalty) * state_gap
    j1 = bnd.cost + 0.5 * spec.source_penalty * _domain_sq(grid, ops, g_fixed.values)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "holds": lhs <= rhs * (1.0 + 1e-9),
        "state_gap": state_gap,
        "boundary_cost_plus_const": j1,   # cost of the fixed-energy problem
        "simultaneous_cost": sim.cost,
        "boundary_result": bnd,
        "simultaneous_result": sim,
    }
