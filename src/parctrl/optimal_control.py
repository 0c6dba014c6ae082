"""Tracking costs, their gradients, and reduced-space CG optimizers.

The boundary, distributed and simultaneous problems are strictly convex
linear-quadratic programs over the control alone; the state is eliminated by
one forward solve per evaluation.  They differ only in which of (source, flux)
is held fixed, so the three optimizers are thin calls into one driver,
_optimize: a _ReducedProblem owns the Gram inner product and the gradient
and Hessian applications, and _optimize runs the one restarted CG loop over
it and packs the result, with the state and adjoint that the last gradient
application returned.  The normal equations are solved by conjugate
gradients in the control-space inner product (Hinze, Pinnau, Ulbrich &
Ulbrich, Optimization with PDE Constraints, 2009); every operator
application costs exactly one homogeneous state solve plus one adjoint
solve.
Because the adjoint is the exact transpose of the state recursion, the CG
residual equals the true cost gradient up to roundoff, and the optimality
condition (penalty * control - adjoint trace = 0) is certified at solver
tolerance.  alpha, default +inf (Dirichlet), goes to the state solvers as is.

All controls are stored as (n_steps+1, .) arrays whose row 0 is inert: it
enters neither the recursions nor the rectangle-rule inner products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fem_core import (
    DiscreteOperators,
    SolverError,
    TimeGrid,
    _check_control,
    _time_pairing,
    inner_boundary_time,
    inner_domain_time,
    lambda_alpha,
)
from .state_solvers import ParabolicStepper, ProblemSpec, solve_parabolic

DEFAULT_MAX_ITER = 500
_RESTARTS = 3


@dataclass
class OptimResult:
    """Converged (or best-effort) solution of one control problem."""

    u_opt: np.ndarray
    p_opt: np.ndarray
    cost: float
    optimality_residual: float
    iterations: int
    converged: bool
    q_opt: np.ndarray | None = None
    g_opt: np.ndarray | None = None
    cost_history: list = None
    residual_history: list = None


def tracking_cost(ops: DiscreteOperators, spec: ProblemSpec, q: np.ndarray,
                  grid: TimeGrid, alpha=math.inf) -> float:
    """Half the squared tracking misfit plus the flux penalty term."""
    misfit = solve_parabolic(ops, spec, q, grid, alpha)
    misfit -= spec.target
    return (0.5 * inner_domain_time(grid, ops, misfit, misfit)
            + 0.5 * spec.flux_penalty * inner_boundary_time(grid, ops, q, q))


def tracking_gradient(ops: DiscreteOperators, spec: ProblemSpec, q: np.ndarray,
                      grid: TimeGrid, alpha=math.inf) -> np.ndarray:
    """Riesz representative of the cost derivative in the flux-boundary
    product: penalty * q minus the adjoint trace, per time step."""
    spec.validate(ops, grid)
    _check_control(grid, ops, q)
    reduced = _ReducedProblem(ops, spec, grid, alpha, g_fixed=spec.source)
    return reduced.grad_at(q)[0]


class _ReducedProblem:
    """The tracking cost as a function of its free controls alone.

    Of the pair (source, flux), the parts not held fixed are the controls; a
    control vector stacks them columnwise per time step, source first.  Every
    gradient or Hessian application costs one state and one adjoint march on
    the same prefactored stepper.

    Each application holds only the (N+1)-row arrays it reads again.
    grad_at holds the state u, the misfit u - target until the cost is summed
    and the adjoint marched, the whole adjoint p (p_opt.csv keeps its row 0)
    and the gradient, and returns u and p with the gradient and the cost, so
    the caller decides how long they live.  apply_h holds the homogeneous
    state w until its adjoint is marched, then that adjoint and the result;
    with the source fixed, the adjoint march keeps only the GAMMA2 columns
    the flux block reads.
    """

    def __init__(self, ops, spec, grid, alpha, g_fixed=None, q_fixed=None):
        self.ops, self.spec, self.grid = ops, spec, grid
        self.stepper = ParabolicStepper(ops, grid, alpha=alpha)
        self.g_fixed, self.q_fixed = g_fixed, q_fixed
        self.n_g = ops.n_nodes if g_fixed is None else 0
        self.width = self.n_g + (ops.gamma2_nodes.size if q_fixed is None else 0)

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

    def _riesz(self, gv, qv, p, p_is_trace=False):
        # penalty * control plus the adjoint (source) or minus its GAMMA2
        # trace (flux), per free part, each block written in place into one
        # array; p_is_trace says p holds the GAMMA2 columns only; row 0 is inert
        out = np.empty((self.grid.n_steps + 1, self.width))
        if gv is not None:
            block = out[:, :self.n_g]
            np.multiply(self.spec.source_penalty, gv, out=block)
            block += p
        if qv is not None:
            block = out[:, self.n_g:]
            np.multiply(self.spec.flux_penalty, qv, out=block)
            block -= p if p_is_trace else p[:, self.ops.gamma2_nodes]
        out[0] = 0.0
        return out

    def grad_at(self, x):
        """(gradient, cost, u, p) at x: the true gradient and cost from fresh
        state and adjoint solves, with that state u and adjoint p."""
        ops, spec, grid = self.ops, self.spec, self.grid
        gv, qv = self.free_parts(x)
        g_all = self.g_fixed if gv is None else gv
        q_all = self.q_fixed if qv is None else qv
        u = self.stepper.run(spec.initial_temp, spec.boundary_temp, g_all, q_all)
        misfit = u - spec.target
        cost = 0.5 * inner_domain_time(grid, ops, misfit, misfit)
        p = self.stepper.run_adjoint(misfit)
        del misfit
        if gv is not None:
            cost = cost + 0.5 * spec.source_penalty * inner_domain_time(grid, ops, gv, gv)
        # a fixed flux still carries its (constant) penalty term
        cost = cost + 0.5 * spec.flux_penalty * inner_boundary_time(grid, ops, q_all, q_all)
        return self._riesz(gv, qv, p), cost, u, p

    def apply_h(self, x):
        """Reduced Hessian times x: homogeneous state, then its adjoint."""
        gv, qv = self.free_parts(x)
        w = self.stepper.run(np.zeros(self.ops.n_nodes), None, gv, qv)
        # with the source fixed, only the adjoint's GAMMA2 trace is read
        trace_only = gv is None
        p = self.stepper.run_adjoint(w, self.ops.gamma2_nodes if trace_only else None)
        del w
        return self._riesz(gv, qv, p, trace_only)


def _optimize(ops, spec, grid, tol, alpha, max_iter, g_fixed=None, q_fixed=None):
    """The one reduced-CG driver: minimize over whichever of (source, flux)
    is not held fixed.

    CG on the normal equations H x = -grad(0), restarted from the true
    gradient of fresh solves up to _RESTARTS times, until that certified
    residual passes tol * max(1, initial residual).  Between restarts the
    cost follows the line-search identity cost_{k+1} = cost_k - a_k <r_k, r_k> / 2.

    x, r, d and hd are updated in place, with the same bits as the textbook
    updates.  Besides the problem's data, with T an (N+1, n) trajectory and
    C a control (source columns, GAMMA2 columns or both), the live arrays are
      during a CG iteration  x, r and d (3 C); inside apply_h w and its
                             adjoint (T each; the adjoint only a GAMMA2
                             trace with the source fixed), then the adjoint
                             and the new hd (C), which is dropped once r is
                             updated; the gradient and the u and p grad_at
                             returned are dropped when CG starts;
      during certification   x (C), u and the misfit (T each) until the
                             adjoint p (T) is marched, then u, p and the new
                             gradient (C); r and d are dropped first.
    The inner products add one T-sized buffer while they sum.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    spec.validate(ops, grid)
    if q_fixed is not None:
        _check_control(grid, ops, q_fixed)
    reduced = _ReducedProblem(ops, spec, grid, alpha, g_fixed, q_fixed)
    inner = reduced.inner
    x = np.zeros((grid.n_steps + 1, reduced.width))
    grad, cost, u, p = reduced.grad_at(x)
    residual = math.sqrt(inner(grad, grad))
    threshold = tol * max(1.0, residual)
    costs, resids = [cost], [residual]
    iters = 0
    for _ in range(_RESTARTS):
        if residual <= threshold or iters >= max_iter:
            break
        # warm start at x: the residual of H x = b is -grad
        r, grad = np.negative(grad, out=grad), None
        u = p = None
        d = r.copy()
        rr = inner(r, r)
        while math.sqrt(rr) > threshold and iters < max_iter:
            hd = reduced.apply_h(d)
            dhd = inner(d, hd)
            if dhd <= 0.0:
                raise SolverError("CG lost positivity: the reduced Hessian is not SPD")
            step = rr / dhd
            x += step * d
            hd *= step
            r -= hd
            hd = None  # freed before the next apply_h: less heap to fragment
            cost = cost - 0.5 * step * rr
            rr_new = inner(r, r)
            costs.append(cost)
            resids.append(math.sqrt(rr_new))
            d *= rr_new / rr
            d += r
            rr = rr_new
            iters += 1
        r = d = None
        grad, cost, u, p = reduced.grad_at(x)  # certified residual, fresh solves
        residual = math.sqrt(inner(grad, grad))
    gv, qv = reduced.free_parts(x)
    return OptimResult(
        g_opt=None if gv is None else gv.copy(),
        q_opt=None if qv is None else qv.copy(),
        u_opt=u, p_opt=p,
        cost=cost, optimality_residual=residual, iterations=iters,
        # an infinite residual passes its own infinite threshold
        converged=math.isfinite(residual) and residual <= threshold,
        cost_history=costs, residual_history=resids)


def optimize_boundary(ops: DiscreteOperators, spec: ProblemSpec, grid: TimeGrid,
                      tol: float = 1e-10, alpha=math.inf,
                      max_iter: int = DEFAULT_MAX_ITER) -> OptimResult:
    """Minimize the tracking cost over the boundary flux control."""
    return _optimize(ops, spec, grid, tol, alpha, max_iter, g_fixed=spec.source)


def optimize_distributed(ops: DiscreteOperators, spec: ProblemSpec, grid: TimeGrid,
                         q_fixed: np.ndarray, tol: float = 1e-10, alpha=math.inf,
                         max_iter: int = DEFAULT_MAX_ITER) -> OptimResult:
    """Minimize over the internal energy with the boundary flux held fixed.

    The control replaces the problem's source field; the fixed flux
    contributes the constant penalty term included in the reported cost.
    """
    return _optimize(ops, spec, grid, tol, alpha, max_iter, q_fixed=q_fixed)


def optimize_simultaneous(ops: DiscreteOperators, spec: ProblemSpec, grid: TimeGrid,
                          tol: float = 1e-10, alpha=math.inf,
                          max_iter: int = DEFAULT_MAX_ITER) -> OptimResult:
    """Minimize over the internal energy and the boundary flux jointly.

    Cost: half the tracking misfit plus both penalty terms; the block gradient
    is (source_penalty * g + adjoint, flux_penalty * q - adjoint trace) and the
    product inner product is the sum of the domain and boundary parts.
    """
    return _optimize(ops, spec, grid, tol, alpha, max_iter)


def control_gap_estimate(ops: DiscreteOperators, spec: ProblemSpec, grid: TimeGrid,
                         g_fixed: np.ndarray, tol: float = 1e-10,
                         alpha=math.inf) -> dict:
    """Certified a-priori bound on the distance between the boundary-only
    optimal flux (at a fixed internal energy) and the flux component of the
    simultaneous optimum.

    The bound is (trace_norm / (coercivity * flux_penalty)) times the misfit
    between the two optimal states; finite alpha uses the transfer-form
    coercivity lambda1 * min(1, alpha).
    """
    sim = optimize_simultaneous(ops, spec, grid, tol=tol, alpha=alpha)
    spec_b = replace(spec, source=g_fixed)
    bnd = optimize_boundary(ops, spec_b, grid, tol=tol, alpha=alpha)
    if not (sim.converged and bnd.converged):
        raise SolverError("control gap estimate requires both optimizers converged")

    dq, du = bnd.q_opt - sim.q_opt, sim.u_opt - bnd.u_opt
    lhs = math.sqrt(inner_boundary_time(grid, ops, dq, dq))
    coercivity = ops.lambda0 if math.isinf(alpha) else lambda_alpha(ops, alpha)
    state_gap = math.sqrt(inner_domain_time(grid, ops, du, du))
    rhs = ops.trace_norm / (coercivity * spec.flux_penalty) * state_gap
    j1 = bnd.cost + 0.5 * spec.source_penalty * inner_domain_time(grid, ops, g_fixed, g_fixed)
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
