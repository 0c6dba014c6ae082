"""Closed-form one-parameter boundary controls and comparison principles.

Restricting the flux control to the line {lam * q0} turns the tracking cost
into a scalar quadratic  quad*lam^2 + lin*lam + const  whose coefficients come
from three building-block solves (datum only, unit flux only, source only).
The minimizer is -lin/(2*quad) in closed form, for the parabolic and steady
problems with either the Dirichlet or the Robin condition on GAMMA1: variant
"parabolic" (S, S_alpha) or "elliptic" (P, P_alpha), and alpha last, +inf by
default.  One private seam, _problem, reads the variant; each public
function is one body over its rows, solve and inner product.  The solves route
through ParabolicStepper or solve_elliptic_robin, whose one GAMMA1 helper
alone decides how alpha imposes the datum.

The monotonicity check compares two such solutions nodewise.  It always runs
on the lumped mass matrix, which the system object lumps itself, over the
non-obtuse meshes of the mesh builders: that combination makes the system
matrix an M-matrix, so ordered data yield ordered solutions; with consistent
mass the ordering can fail spuriously, so there is no consistent-mass option.

All spatial quadratures reuse the assembled mass and boundary-mass matrices,
never pointwise products, so every inner product refers to one discrete
geometry.  The steady ("elliptic") problems read the terminal-time rows of the
supplied time-dependent data.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fem_core import DiscreteOperators, InputError, TimeGrid, _check_control, _time_pairing
from .state_solvers import ParabolicStepper, ProblemSpec, solve_elliptic_robin


class ZeroDirectionError(InputError):
    """q0 is zero on every row the variant reads."""


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
        return self.linear * self.linear - 4.0 * self.quadratic * self.constant

    def value(self, lam: float) -> float:
        return self.quadratic * lam * lam + self.linear * lam + self.constant


def _problem(ops, grid, variant, alpha, lumped=False):
    """(rows, solve, pair) of one problem.  rows picks the data rows it reads
    from an (N+1)-row trajectory (all, or the terminal one); solve(initial, b,
    g, q) maps such rows, None for zero data, to the state; pair(mat, a, b) is
    its inner product.  The stepper is built on the first solve, after every
    check of the caller."""
    if variant == "parabolic":
        stepper = functools.cache(
            lambda: ParabolicStepper(ops, grid, alpha=alpha, lumped=lumped))
        return ((lambda values: values),
                (lambda *data: stepper().run(*data)),
                (lambda mat, a, b: grid.dt * _time_pairing(mat, a, b)))
    if variant == "elliptic":
        sizes = (ops.n_nodes, ops.gamma2_nodes.size, ops.dirichlet_nodes.size)

        def solve(initial, b, g, q):
            g, q, b = (np.zeros(n) if x is None else x for x, n in zip((g, q, b), sizes))
            return solve_elliptic_robin(ops, g, q, b, alpha, lumped=lumped)
        return ((lambda values: values[-1]), solve,
                (lambda mat, a, b: float(a @ (mat @ b))))
    raise ValueError(f"unknown variant {variant!r}, expected 'parabolic' or 'elliptic'")


def building_blocks(ops: DiscreteOperators, spec: ProblemSpec, q0: np.ndarray,
                    grid: TimeGrid, variant: str = "parabolic", alpha=math.inf):
    """Three decoupled solves: datum only, unit flux direction only, source only.

    Their combination  u_b + lam * u_q0 + u_g  reproduces the direct solve with
    flux lam * q0 to solver precision, which is what makes the scalar
    coefficients below exact.  Parabolic blocks come back as (N+1, n)
    trajectories, steady ones as nodal vectors.
    """
    rows, solve, pair = _problem(ops, grid, variant, alpha)
    spec.validate(ops, grid)
    _check_control(grid, ops, q0)
    q_rows = rows(q0)
    if pair(ops.bmass_gamma2_sub, q_rows, q_rows) == 0.0:
        raise ZeroDirectionError("q0 must be nonzero on the rows the variant reads: "
                                 "the quadratic coefficient would vanish", "q0")
    zeros = np.zeros(ops.n_nodes)
    return (solve(spec.initial_temp, spec.boundary_temp, None, None),
            solve(zeros, None, None, q_rows),
            solve(zeros, None, rows(spec.source), None))


def scalar_optimum(ops: DiscreteOperators, spec: ProblemSpec, q0: np.ndarray,
                   grid: TimeGrid, variant: str = "parabolic",
                   alpha=math.inf) -> QuadraticCoefficients:
    """Quadratic coefficients of the restricted cost and its closed-form
    minimizer -linear/(2*quadratic)."""
    rows, _, pair = _problem(ops, grid, variant, alpha)
    u_b, u_q0, u_g = building_blocks(ops, spec, q0, grid, variant, alpha)
    q_rows = rows(q0)
    drift = u_b + u_g - rows(spec.target)
    quad = (0.5 * spec.flux_penalty * pair(ops.bmass_gamma2_sub, q_rows, q_rows)
            + 0.5 * pair(ops.mass, u_q0, u_q0))
    lin = pair(ops.mass, u_q0, drift)
    const = 0.5 * pair(ops.mass, drift, drift)
    if quad <= 0.0:
        raise RuntimeError("internal error: the quadratic coefficient must be "
                           "positive for a nonzero q0")
    return QuadraticCoefficients(quadratic=quad, linear=lin, constant=const)


def scalar_cost(ops: DiscreteOperators, spec: ProblemSpec, q0: np.ndarray,
                grid: TimeGrid, variant: str, lam: float, alpha=math.inf) -> float:
    """Restricted cost evaluated the direct way, by one full solve with flux
    lam * q0.  Serves as the independent check of the coefficient route."""
    rows, solve, pair = _problem(ops, grid, variant, alpha)
    spec.validate(ops, grid)
    _check_control(grid, ops, q0)
    q = lam * rows(q0)
    u = solve(spec.initial_temp, spec.boundary_temp, rows(spec.source), q)
    misfit = u - rows(spec.target)
    return (0.5 * pair(ops.mass, misfit, misfit)
            + 0.5 * spec.flux_penalty * pair(ops.bmass_gamma2_sub, q, q))


def _require(cond, hypothesis):
    if not cond:
        raise ValueError(f"monotonicity hypothesis violated: {hypothesis}")


def monotonicity_check(ops: DiscreteOperators, spec: ProblemSpec, grid: TimeGrid,
                       lam1: float, lam2: float, g1: np.ndarray, g2: np.ndarray,
                       q0: np.ndarray, variant: str = "parabolic",
                       spec_upper: ProblemSpec | None = None,
                       alpha=math.inf) -> dict:
    """Nodewise comparison of the two restricted solutions.

    Hypotheses (checked, and named on failure): q0 of one strict sign on the
    flux boundary with lam2 <= lam1 for positive q0 (lam1 <= lam2 for negative
    q0), g1 <= g2 nodewise, and an ordered datum and initial state between
    spec and spec_upper.  Returns the largest value of (lower solution -
    upper solution) over all steps and nodes.
    """
    rows, solve, _ = _problem(ops, grid, variant, alpha, lumped=True)
    spec.validate(ops, grid)
    upper = spec_upper if spec_upper is not None else spec
    upper.validate(ops, grid)
    _check_control(grid, ops, q0)

    q_used = q0[1:]
    if np.all(q_used > 0.0):
        _require(lam2 <= lam1, "lam2 <= lam1 is required when q0 > 0")
    elif np.all(q_used < 0.0):
        _require(lam1 <= lam2, "lam1 <= lam2 is required when q0 < 0")
    else:
        raise ValueError("monotonicity hypothesis violated: q0 must be of one "
                         "strict sign on the flux boundary")
    _require(np.all(g1[1:] <= g2[1:]), "g1 <= g2 nodewise")
    _require(np.all(spec.boundary_temp <= upper.boundary_temp),
             "ordered boundary temperatures")
    _require(np.all(spec.initial_temp <= upper.initial_temp),
             "ordered initial temperatures")

    q_rows = rows(q0)
    u1 = solve(spec.initial_temp, spec.boundary_temp, rows(g1), lam1 * q_rows)
    u2 = solve(upper.initial_temp, upper.boundary_temp, rows(g2), lam2 * q_rows)
    max_violation = float(np.max(u1 - u2))
    return {"max_violation": max_violation, "holds": max_violation <= 1e-12}

