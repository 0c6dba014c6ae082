"""Forward solvers for the mixed heat-conduction problems.

Parabolic problems are discretized by backward Euler: unconditionally stable,
monotone with lumped mass, and its algebraic transpose is again a backward
recursion, which is what makes the discrete optimality identities exact.
Only _Gamma1Imposition turns the transfer coefficient alpha into a system,
for ParabolicStepper and the steady solve _solve_steady alike: +inf
eliminates the GAMMA1 rows/columns and lifts the datum; finite alpha > 0
keeps all nodes and adds alpha * (boundary mass).  The choice only fixes the
unknown rows, the factorization, the lift and the constant load; the forward
march, the adjoint march and the steady solve then run one code path for
both.  variant_alpha maps 'dirichlet'/'robin' onto alpha, and each
*_dirichlet/*_robin pair delegates to one shared body.

Every solver gets its _Gamma1Imposition from _imposition, which keeps one
per system in ops.systems, so each distinct system is factorized once per
ops.  asymptotics.alpha_sweep drops each system it builds once used (the
reference's before the rows, each row's when the row ends), so a sweep
holds one factorization at a time.  The cache is per ops and unlocked: the
library is single-threaded.
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
    _check_field,
    spd_solver,
)


@dataclass
class ProblemSpec:
    """Data of one control problem instance.

    source         internal energy g as a TimeField
    boundary_temp  temperature datum on the GAMMA1 nodes
    initial_temp   initial nodal temperature; must equal boundary_temp on GAMMA1
    target         tracking target as a TimeField
    flux_penalty   weight of the boundary control in the cost (finite, > 0)
    source_penalty weight of the distributed control in the cost (finite, > 0)
    transfer_coeff Robin heat-transfer coefficient (> 0); +inf means Dirichlet
    """

    source: TimeField
    boundary_temp: np.ndarray
    initial_temp: np.ndarray
    target: TimeField
    flux_penalty: float = 1.0
    source_penalty: float = 1.0
    transfer_coeff: float = math.inf

    def validate(self, ops: DiscreteOperators, grid: TimeGrid):
        _check_field(grid, ops, self.source, "source")
        _check_field(grid, ops, self.target, "target")
        if self.boundary_temp.shape != (ops.dirichlet_nodes.size,):
            raise ValueError(
                f"boundary_temp has shape {self.boundary_temp.shape}, "
                f"expected ({ops.dirichlet_nodes.size},)")
        if self.initial_temp.shape != (ops.n_nodes,):
            raise ValueError(
                f"initial_temp has shape {self.initial_temp.shape}, "
                f"expected ({ops.n_nodes},)")
        if not (math.isfinite(self.flux_penalty) and self.flux_penalty > 0):
            raise ValueError(f"flux_penalty must be finite and > 0, got {self.flux_penalty}")
        if not (math.isfinite(self.source_penalty) and self.source_penalty > 0):
            raise ValueError(f"source_penalty must be finite and > 0, got {self.source_penalty}")
        if not self.transfer_coeff > 0:
            raise ValueError(f"transfer_coeff must be > 0, got {self.transfer_coeff}")
        mismatch = np.max(np.abs(self.initial_temp[ops.dirichlet_nodes] - self.boundary_temp))
        if mismatch != 0.0:
            raise ValueError(
                f"initial_temp disagrees with boundary_temp on GAMMA1 (max {mismatch:.3e})")


def _gamma2_load(ops, lumped):
    # n x |GAMMA2| block mapping control values to the nodal load
    b2 = ops.bmass_gamma2_lumped if lumped else ops.bmass_gamma2
    return b2[:, ops.gamma2_nodes].tocsr()


class _Gamma1Imposition:
    """How the GAMMA1 datum enters one linear system: its unknown rows, its
    factorization, and the datum's lift and load.

    alpha +inf eliminates the GAMMA1 rows and columns; finite alpha > 0
    keeps all nodes and adds alpha * B1, the lumped or consistent GAMMA1
    boundary mass.  The matrix is M + dt * (K [+ alpha B1]) for a
    backward-Euler step, M lumped or consistent, and K [+ alpha B1] when
    steady (dt None).
    """

    def __init__(self, ops: DiscreteOperators, alpha, lumped: bool, dt=None):
        # only the node sets, so the cache entry holds no reference to ops
        self.n_nodes, self.dirichlet_nodes = ops.n_nodes, ops.dirichlet_nodes
        self.alpha = alpha
        self.dt = 1.0 if dt is None else dt
        mass = ops.mass_lumped if lumped else ops.mass

        def volume(spatial):
            return spatial if dt is None else mass + dt * spatial

        if math.isinf(alpha):
            a_full = volume(ops.stiffness).tocsr()
            f, d = ops.free_nodes, ops.dirichlet_nodes
            self._a_fd = a_full[np.ix_(f, d)].tocsr()
            self.rows = f
            self.solve = spd_solver(a_full[np.ix_(f, f)].tocsr())
        else:
            self._b1 = ops.bmass_gamma1_lumped if lumped else ops.bmass_gamma1
            self.rows = slice(None)
            self.solve = spd_solver(volume(ops.stiffness + alpha * self._b1).tocsr())

    def lift_and_load(self, b):
        """(lift, load) of the GAMMA1 datum b, to subtract from and add to the
        right-hand side: elimination has a lift, Robin a transfer load.  The
        unused one is 0.0 or -0.0: x - 0.0 and x + -0.0 equal x bit for bit
        (+0.0 would turn -0.0 into 0.0), so every value stays unchanged.
        """
        if math.isinf(self.alpha):
            return self._a_fd @ b, -0.0
        b_ext = np.zeros(self.n_nodes)
        b_ext[self.dirichlet_nodes] = b
        return 0.0, self.dt * self.alpha * (self._b1 @ b_ext)


def _imposition(ops: DiscreteOperators, alpha, lumped: bool,
                dt=None) -> _Gamma1Imposition:
    """The _Gamma1Imposition of one system on ops, built on first use and
    kept in ops.systems under (alpha, lumped, dt); dt None is the steady
    system.  alpha None is read as +inf; any alpha not > 0 raises before
    anything is cached.
    """
    alpha = math.inf if alpha is None else alpha
    if not alpha > 0:
        raise ValueError(f"transfer coefficient must be > 0, got {alpha}")
    key = (alpha, lumped, dt)
    if key not in ops.systems:
        ops.systems[key] = _Gamma1Imposition(ops, alpha, lumped, dt)
    return ops.systems[key]


class ParabolicStepper:
    """Prefactored backward-Euler marcher for the system _Gamma1Imposition
    builds from alpha and lumped.  The same factorization drives the forward
    state recursion and its exact transpose, the backward adjoint recursion.
    """

    def __init__(self, ops: DiscreteOperators, grid: TimeGrid, alpha=math.inf,
                 lumped: bool = False):
        self._gamma1 = _imposition(ops, alpha, lumped, grid.dt)
        self.ops = ops
        self.grid = grid
        self.alpha = self._gamma1.alpha
        self.lumped = lumped
        self.mass = ops.mass_lumped if lumped else ops.mass
        self.load_gamma2 = _gamma2_load(ops, lumped)

    def run(self, initial, boundary_temp=None, source_values=None,
            flux_values=None) -> np.ndarray:
        """March the state recursion; returns the (N+1, n) trajectory."""
        ops, grid = self.ops, self.grid
        n, dt = ops.n_nodes, grid.dt
        nsteps = grid.n_steps
        u = np.empty((nsteps + 1, n))
        u[0] = initial

        b = np.zeros(ops.dirichlet_nodes.size) if boundary_temp is None else boundary_temp
        # elimination keeps the datum on GAMMA1; Robin overwrites these entries
        u[1:, ops.dirichlet_nodes] = b
        lift, load = self._gamma1.lift_and_load(b)
        rows, solve = self._gamma1.rows, self._gamma1.solve
        for k in range(1, nsteps + 1):
            rhs = self.mass @ u[k - 1] + load
            if source_values is not None:
                rhs = rhs + dt * (self.mass @ source_values[k])
            if flux_values is not None:
                rhs = rhs - dt * (self.load_gamma2 @ flux_values[k])
            u[k, rows] = solve(rhs[rows] - lift)
        return u

    def run_adjoint(self, source_values: np.ndarray) -> np.ndarray:
        """March the transposed recursion backward from a zero terminal value.

        source_values[k] drives step k for k = 1..N; row 0 is ignored.  The
        returned row 0 is the homogeneous continuation of the recursion, kept
        for diagnostics only.
        """
        ops, grid = self.ops, self.grid
        n, dt = ops.n_nodes, grid.dt
        nsteps = grid.n_steps
        p = np.zeros((nsteps + 1, n))
        p_next = np.zeros(n)
        rows, solve = self._gamma1.rows, self._gamma1.solve
        for k in range(nsteps, 0, -1):
            rhs = self.mass @ p_next + dt * (self.mass @ source_values[k])
            p[k, rows] = solve(rhs[rows])
            p_next = p[k]
        p[0, rows] = solve((self.mass @ p[1])[rows])
        return p


def _solve_steady(ops: DiscreteOperators, g, q, b, alpha, lumped: bool = False):
    """Steady solution: K u = M g - (GAMMA2 load) q with the datum b on GAMMA1,
    imposed by _Gamma1Imposition as in ParabolicStepper (alpha +inf: exactly;
    finite alpha > 0: through the transfer term alpha * B1).

    lumped selects the lumped boundary masses, which keep the Robin system an
    M-matrix on non-obtuse meshes, as the comparison principle needs.
    """
    g = np.asarray(g, dtype=float)
    q = np.asarray(q, dtype=float)
    b = np.asarray(b, dtype=float)
    if g.shape != (ops.n_nodes,):
        raise ValueError(f"g has shape {g.shape}, expected ({ops.n_nodes},)")
    if q.shape != (ops.gamma2_nodes.size,):
        raise ValueError(f"q has shape {q.shape}, expected ({ops.gamma2_nodes.size},)")
    if b.shape != (ops.dirichlet_nodes.size,):
        raise ValueError(f"b has shape {b.shape}, expected ({ops.dirichlet_nodes.size},)")
    gamma1 = _imposition(ops, alpha, lumped)
    rhs = ops.mass @ g - _gamma2_load(ops, lumped) @ q
    u = np.empty(ops.n_nodes)
    # elimination keeps the datum on GAMMA1; Robin overwrites these entries
    u[ops.dirichlet_nodes] = b
    lift, load = gamma1.lift_and_load(b)
    u[gamma1.rows] = gamma1.solve(rhs[gamma1.rows] + load - lift)
    return u


def variant_alpha(spec: ProblemSpec, variant: str):
    """Transfer coefficient of a named boundary variant: +inf (exact
    imposition) for 'dirichlet', spec.transfer_coeff for 'robin'."""
    if variant == "dirichlet":
        return math.inf
    if variant == "robin":
        return spec.transfer_coeff
    raise ValueError(f"unknown variant {variant!r}, expected 'dirichlet' or 'robin'")


def _solve_parabolic(ops: DiscreteOperators, spec: ProblemSpec, q: BoundaryControl,
                     grid: TimeGrid, alpha) -> TimeField:
    # shared body of the two parabolic solvers; alpha as in ParabolicStepper
    spec.validate(ops, grid)
    _check_control(grid, ops, q)
    stepper = ParabolicStepper(ops, grid, alpha=alpha)
    u = stepper.run(spec.initial_temp, spec.boundary_temp,
                    spec.source.values, q.values)
    return TimeField(u)


def solve_parabolic_dirichlet(ops: DiscreteOperators, spec: ProblemSpec,
                              q: BoundaryControl, grid: TimeGrid) -> TimeField:
    """Backward-Euler solution with the temperature datum imposed exactly."""
    return _solve_parabolic(ops, spec, q, grid, math.inf)


def solve_parabolic_robin(ops: DiscreteOperators, spec: ProblemSpec,
                          q: BoundaryControl, grid: TimeGrid,
                          alpha: float | None = None) -> TimeField:
    """Backward-Euler solution with the Robin transfer condition on GAMMA1.

    alpha defaults to spec.transfer_coeff; +inf imposes the datum exactly.
    """
    return _solve_parabolic(ops, spec, q, grid,
                            spec.transfer_coeff if alpha is None else alpha)


def solve_elliptic_dirichlet(ops: DiscreteOperators, g: np.ndarray,
                             q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Steady solution: K u = M g - (GAMMA2 load) q on free nodes, u = b on GAMMA1."""
    return _solve_steady(ops, g, q, b, math.inf)


def solve_elliptic_robin(ops: DiscreteOperators, g: np.ndarray, q: np.ndarray,
                         b: np.ndarray, alpha: float | None) -> np.ndarray:
    """Steady solution with the Robin condition: (K + alpha B1) u = rhs.

    alpha +inf (or None) imposes the datum exactly.
    """
    return _solve_steady(ops, g, q, b, alpha)
