"""Closed-form one-parameter boundary controls and comparison principles.

Restricting the flux control to the line {lam * q0} turns the tracking cost
into a scalar quadratic  quad*lam^2 + lin*lam + const  whose coefficients come
from three building-block solves (datum only, unit flux only, source only).
The minimizer is -lin/(2*quad) in closed form, for the parabolic and steady
problems with either the Dirichlet or the Robin condition on GAMMA1: variant
"parabolic" (S, S_alpha) or "elliptic" (P, P_alpha), and alpha last, +inf by
default.  The solves route through ParabolicStepper or solve_elliptic_robin,
whose one GAMMA1 helper alone decides how alpha imposes the datum.

The monotonicity check compares two such solutions nodewise.  It always runs
on the lumped mass matrix, over the non-obtuse meshes produced by the mesh
builders: that combination makes the system matrix an M-matrix, so ordered
data yield ordered solutions; with consistent mass the ordering can fail
spuriously, so there is no consistent-mass option.

All spatial quadratures reuse the assembled mass and boundary-mass matrices,
never pointwise products, so every inner product refers to one discrete
geometry.  The steady ("elliptic") problems read the terminal-time rows of the
supplied time-dependent data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fem_core import (
    BoundaryControl,
    DiscreteOperators,
    TimeField,
    TimeGrid,
    _check_control,
    _time_pairing,
)
from .optimal_control import _boundary_sq, _domain_sq, tracking_cost
from .state_solvers import ParabolicStepper, ProblemSpec, solve_elliptic_robin


@dataclass(frozen=True)
class QuadraticCoefficients:
    """Coefficients of the restricted cost lam -> quad*lam^2 + lin*lam + const."""

    quadratic: float
    linear: float
    constant: float

    @property
    def lambda_opt(self) -> float:
        return -self.linear / (2.0 * self.quadratic)

    @property
    def discriminant(self) -> float:
        return self.linear ** 2 - 4.0 * self.quadratic * self.constant

    def value(self, lam: float) -> float:
        return self.quadratic * lam * lam + self.linear * lam + self.constant


def _check_variant(variant):
    if variant not in ("parabolic", "elliptic"):
        raise ValueError(f"unknown variant {variant!r}, expected 'parabolic' or 'elliptic'")


def building_blocks(ops: DiscreteOperators, spec: ProblemSpec, q0: BoundaryControl,
                    grid: TimeGrid, variant: str = "parabolic", alpha=math.inf):
    """Three decoupled solves: datum only, unit flux direction only, source only.

    Their combination  u_b + lam * u_q0 + u_g  reproduces the direct solve with
    flux lam * q0 to solver precision, which is what makes the scalar
    coefficients below exact.
    """
    _check_variant(variant)
    spec.validate(ops, grid)
    _check_control(grid, ops, q0)
    if variant == "parabolic":
        if np.max(np.abs(q0.values[1:])) == 0.0:
            raise ValueError("q0 must not be identically zero: the quadratic "
                             "coefficient would vanish")
        stepper = ParabolicStepper(ops, grid, alpha=alpha)
        u_b = stepper.run(spec.initial_temp, spec.boundary_temp, None, None)
        u_q0 = stepper.run(np.zeros(ops.n_nodes), None, None, q0.values)
        u_g = stepper.run(np.zeros(ops.n_nodes), None, spec.source.values, None)
        return TimeField(u_b), TimeField(u_q0), TimeField(u_g)

    g_row = spec.source.values[-1]
    q_row = q0.values[-1]
    if np.max(np.abs(q_row)) == 0.0:
        raise ValueError("q0 must not be identically zero: the quadratic "
                         "coefficient would vanish")
    zeros_g = np.zeros(ops.n_nodes)
    zeros_q = np.zeros(ops.gamma2_nodes.size)
    zeros_b = np.zeros(ops.dirichlet_nodes.size)
    u_b = solve_elliptic_robin(ops, zeros_g, zeros_q, spec.boundary_temp, alpha)
    u_q0 = solve_elliptic_robin(ops, zeros_g, q_row, zeros_b, alpha)
    u_g = solve_elliptic_robin(ops, g_row, zeros_q, zeros_b, alpha)
    return u_b, u_q0, u_g


def scalar_optimum(ops: DiscreteOperators, spec: ProblemSpec, q0: BoundaryControl,
                   grid: TimeGrid, variant: str = "parabolic",
                   alpha=math.inf) -> QuadraticCoefficients:
    """Quadratic coefficients of the restricted cost and its closed-form
    minimizer -linear/(2*quadratic)."""
    u_b, u_q0, u_g = building_blocks(ops, spec, q0, grid, variant, alpha)
    weight = spec.flux_penalty
    if variant == "parabolic":
        drift = u_b.values + u_g.values - spec.target.values
        quad = (0.5 * weight * _boundary_sq(grid, ops, q0.values)
                + 0.5 * _domain_sq(grid, ops, u_q0.values))
        lin = grid.dt * _time_pairing(ops.mass, u_q0.values, drift)
        const = 0.5 * _domain_sq(grid, ops, drift)
    else:
        z_row = spec.target.values[-1]
        q_row = q0.values[-1]
        drift = u_b + u_g - z_row
        quad = (0.5 * weight * float(q_row @ (ops.bmass_gamma2_sub @ q_row))
                + 0.5 * float(u_q0 @ (ops.mass @ u_q0)))
        lin = float(u_q0 @ (ops.mass @ drift))
        const = 0.5 * float(drift @ (ops.mass @ drift))
    if quad <= 0.0:
        raise RuntimeError("internal error: the quadratic coefficient must be "
                           "positive for a nonzero q0")
    return QuadraticCoefficients(quadratic=quad, linear=lin, constant=const)


def scalar_cost(ops: DiscreteOperators, spec: ProblemSpec, q0: BoundaryControl,
                grid: TimeGrid, variant: str, lam: float, alpha=math.inf) -> float:
    """Restricted cost evaluated the direct way, by a full solve with flux
    lam * q0.  Serves as the independent check of the coefficient route."""
    _check_variant(variant)
    if variant == "parabolic":
        q = BoundaryControl(lam * q0.values)
        return tracking_cost(ops, spec, q, grid, alpha)
    g_row = spec.source.values[-1]
    z_row = spec.target.values[-1]
    q_row = lam * q0.values[-1]
    u = solve_elliptic_robin(ops, g_row, q_row, spec.boundary_temp, alpha)
    misfit = u - z_row
    return (0.5 * float(misfit @ (ops.mass @ misfit))
            + 0.5 * spec.flux_penalty * float(q_row @ (ops.bmass_gamma2_sub @ q_row)))


def _require(cond, hypothesis):
    if not cond:
        raise ValueError(f"monotonicity hypothesis violated: {hypothesis}")


def monotonicity_check(ops: DiscreteOperators, spec: ProblemSpec, grid: TimeGrid,
                       lam1: float, lam2: float, g1: TimeField, g2: TimeField,
                       q0: BoundaryControl, variant: str = "parabolic",
                       spec_upper: ProblemSpec | None = None,
                       alpha=math.inf) -> dict:
    """Nodewise comparison of the two restricted solutions.

    Hypotheses (checked, and named on failure): q0 of one strict sign on the
    flux boundary with lam2 <= lam1 for positive q0 (lam1 <= lam2 for negative
    q0), g1 <= g2 nodewise, and an ordered datum and initial state between
    spec and spec_upper.  Returns the largest value of (lower solution -
    upper solution) over all steps and nodes.
    """
    _check_variant(variant)
    spec.validate(ops, grid)
    upper = spec_upper if spec_upper is not None else spec
    upper.validate(ops, grid)
    _check_control(grid, ops, q0)

    q_used = q0.values[1:]
    if np.all(q_used > 0.0):
        _require(lam2 <= lam1, "lam2 <= lam1 is required when q0 > 0")
    elif np.all(q_used < 0.0):
        _require(lam1 <= lam2, "lam1 <= lam2 is required when q0 < 0")
    else:
        raise ValueError("monotonicity hypothesis violated: q0 must be of one "
                         "strict sign on the flux boundary")
    _require(np.all(g1.values[1:] <= g2.values[1:]), "g1 <= g2 nodewise")
    _require(np.all(spec.boundary_temp <= upper.boundary_temp),
             "ordered boundary temperatures")
    _require(np.all(spec.initial_temp <= upper.initial_temp),
             "ordered initial temperatures")

    if variant == "parabolic":
        stepper = ParabolicStepper(ops, grid, alpha=alpha, lumped=True)
        u1 = stepper.run(spec.initial_temp, spec.boundary_temp,
                         g1.values, lam1 * q0.values)
        u2 = stepper.run(upper.initial_temp, upper.boundary_temp,
                         g2.values, lam2 * q0.values)
        max_violation = float(np.max(u1 - u2))
    else:
        q_row = q0.values[-1]
        u1 = solve_elliptic_robin(ops, g1.values[-1], lam1 * q_row,
                                  spec.boundary_temp, alpha, lumped=True)
        u2 = solve_elliptic_robin(ops, g2.values[-1], lam2 * q_row,
                                  upper.boundary_temp, alpha, lumped=True)
        max_violation = float(np.max(u1 - u2))
    return {"max_violation": max_violation, "holds": max_violation <= 1e-12}

