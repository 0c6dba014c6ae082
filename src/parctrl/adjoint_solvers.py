"""Discrete adjoint states.

The adjoint is the algebraic transpose of the discrete state recursion under
the right-endpoint rectangle pairing, not a separate discretization of the
continuous dual problem.  Consequence: with states w driven by a control
perturbation and adjoints p driven by a tracking residual, the pairing
identity  (w, r)_time-domain = -(perturbation, trace p)_time-boundary
holds to machine precision, and optimizer correctness is testable at solver
tolerance.

Index alignment: the cost samples steps k = 1..N, so the adjoint source at
step k is u_k - target_k and the k = 0 state sample never enters.  Row 0 of
the returned adjoint is a homogeneous continuation kept for diagnostics; no
formula consumes it.
"""

from __future__ import annotations

import numpy as np

from .fem_core import DiscreteOperators, TimeField, TimeGrid, _check_field
from .state_solvers import ParabolicStepper


def trace_gamma2(ops: DiscreteOperators, p: TimeField) -> np.ndarray:
    """Restrict a nodal trajectory to the flux-boundary nodes, (N+1, m)."""
    return p.values[:, ops.gamma2_nodes]


def _solve_adjoint(ops: DiscreteOperators, u: TimeField, target: TimeField,
                   grid: TimeGrid, alpha) -> TimeField:
    # shared body of the two adjoint solvers; alpha as in ParabolicStepper
    _check_field(grid, ops, u, "state")
    _check_field(grid, ops, target, "target")
    stepper = ParabolicStepper(ops, grid, alpha=alpha)
    return TimeField(stepper.run_adjoint(u.values - target.values))


def solve_adjoint_dirichlet(ops: DiscreteOperators, u: TimeField,
                            target: TimeField, grid: TimeGrid) -> TimeField:
    """Backward recursion with terminal value zero and source u_k - target_k,
    homogeneous Dirichlet rows on GAMMA1."""
    return _solve_adjoint(ops, u, target, grid, None)


def solve_adjoint_robin(ops: DiscreteOperators, u: TimeField, target: TimeField,
                        alpha: float, grid: TimeGrid) -> TimeField:
    """Backward recursion with the homogeneous Robin condition on GAMMA1;
    alpha = +inf gives the Dirichlet recursion."""
    return _solve_adjoint(ops, u, target, grid, alpha)
