"""State and adjoint solvers for the mixed heat-conduction problems.

Parabolic problems are discretized by backward Euler: unconditionally stable,
monotone with lumped mass, and its algebraic transpose is again a backward
recursion, which is what makes the discrete optimality identities exact.
Only _Gamma1Imposition turns the transfer coefficient alpha into a system,
for ParabolicStepper and the steady solve alike: +inf eliminates the GAMMA1
rows/columns and lifts the datum (the Dirichlet problem, the limit of the
Robin family); finite alpha > 0 keeps all nodes and adds
alpha * (boundary mass).  The choice only fixes the unknown rows, the
factorization, the lift and the constant load.  So each recursion has one
entry taking alpha last, default +inf: solve_parabolic, solve_adjoint and
solve_elliptic_robin (solve_elliptic_dirichlet is its alpha +inf call).
ProblemSpec holds no alpha: one spec poses the Dirichlet and every Robin problem.
The same object alone lumps a lumped system's matrices (ops holds none): the
mass and the GAMMA1 and GAMMA2 boundary masses.  ParabolicStepper reads
the mass and the GAMMA2 load from it, and so does the steady solve for its
flux load (its source term keeps the consistent mass).  Every state,
adjoint, source, target and control is a plain (N+1)-row ndarray (see
fem_core).

The adjoint is the algebraic transpose of the discrete state recursion under
the right-endpoint rectangle pairing, not a separate discretization of the
continuous dual problem.  So with states w driven by a control perturbation
and adjoints p driven by a tracking residual, the pairing identity
(w, r)_time-domain = -(perturbation, trace p)_time-boundary holds to machine
precision, and optimizer correctness is testable at solver tolerance.

Every solve runs in the order of the system's one RCM-banded factor (see
fem_core.spd_solver and _Gamma1Imposition.solve_into): one gather of the
right-hand side's unknown rows in that order, one dpbtrs and one scatter.
That changes no bit of any state or adjoint, so every output is as a solve
in the natural order would give it.

Every solver gets its _Gamma1Imposition from _imposition, which keeps one
per system in ops.systems, so each distinct system is factorized once per
ops.  asymptotics.alpha_sweep drops each system it builds once used (the
reference's before the rows, each row's when the row ends), so a sweep
holds one factorization at a time.  The cache is per ops and unlocked: the
library is single-threaded.  The CLI forks verify's worker processes
only after it has filled the cache, so the workers share the
parent's factors and factorize nothing.  Only the BLAS inside a factorization or solve
may thread; the CLI runs it on one thread unless the environment sets a
count, and a library caller chooses for its own process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fem_core import (
    DiscreteOperators,
    TimeGrid,
    _check_control,
    _check_field,
    _check_shape,
    _lump,
    spd_solver,
)


@dataclass
class ProblemSpec:
    """Data of one control problem instance.

    source         internal energy g, an (N+1, n) trajectory
    boundary_temp  temperature datum on the GAMMA1 nodes
    initial_temp   initial nodal temperature; must equal boundary_temp on GAMMA1
    target         tracking target, an (N+1, n) trajectory
    flux_penalty   weight of the boundary control in the cost (finite, > 0)
    source_penalty weight of the distributed control in the cost (finite, > 0)

    The solvers only read the data, never write them, so they may be
    read-only: build_problem passes time-constant profile data as one row
    broadcast to every time level (profiles.sample).
    """

    source: np.ndarray
    boundary_temp: np.ndarray
    initial_temp: np.ndarray
    target: np.ndarray
    flux_penalty: float = 1.0
    source_penalty: float = 1.0

    def validate(self, ops: DiscreteOperators, grid: TimeGrid):
        _check_field(grid, ops, self.source, "source")
        _check_field(grid, ops, self.target, "target")
        _check_shape("boundary_temp", self.boundary_temp, (ops.dirichlet_nodes.size,))
        _check_shape("initial_temp", self.initial_temp, (ops.n_nodes,))
        if not (math.isfinite(self.flux_penalty) and self.flux_penalty > 0):
            raise ValueError(f"flux_penalty must be finite and > 0, got {self.flux_penalty}")
        if not (math.isfinite(self.source_penalty) and self.source_penalty > 0):
            raise ValueError(f"source_penalty must be finite and > 0, got {self.source_penalty}")
        mismatch = np.max(np.abs(self.initial_temp[ops.dirichlet_nodes] - self.boundary_temp))
        if mismatch != 0.0:
            raise ValueError(
                f"initial_temp disagrees with boundary_temp on GAMMA1 (max {mismatch:.3e})")


class _Gamma1Imposition:
    """One linear system: how the GAMMA1 datum enters it (its unknown rows,
    its factorization, the datum's lift and load) and the matrices it is
    built from: ops' own, or with lumped their lumps, which it alone builds.

    alpha +inf eliminates the GAMMA1 rows and columns; finite alpha > 0
    keeps all nodes and adds alpha * B1, the GAMMA1 boundary mass.  The
    matrix is M + dt * (K [+ alpha B1]) for a backward-Euler step and
    K [+ alpha B1] when steady (dt None).  mass is M and load_gamma2 the
    n x |GAMMA2| block of the GAMMA2 boundary mass that maps flux values to
    the nodal load.
    """

    def __init__(self, ops: DiscreteOperators, alpha, lumped: bool, dt=None):
        # only the node sets, so the cache entry holds no reference to ops
        self.n_nodes, self.dirichlet_nodes = ops.n_nodes, ops.dirichlet_nodes
        self.alpha = alpha
        self.dt = 1.0 if dt is None else dt
        pick = _lump if lumped else lambda consistent: consistent
        self.mass = pick(ops.mass)
        self.load_gamma2 = pick(ops.bmass_gamma2)[:, ops.gamma2_nodes].tocsr()

        def volume(spatial):
            return spatial if dt is None else self.mass + dt * spatial

        if math.isinf(alpha):
            a_full = volume(ops.stiffness).tocsr()
            f, d = ops.free_nodes, ops.dirichlet_nodes
            self._a_fd = a_full[np.ix_(f, d)].tocsr()
            rows = f
            solve = spd_solver(a_full[np.ix_(f, f)].tocsr())
        else:
            self._b1 = pick(ops.bmass_gamma1)
            rows = np.arange(self.n_nodes)
            solve = spd_solver(volume(ops.stiffness + alpha * self._b1).tocsr())
        # the unknown rows in the factor's order, and the one dpbtrs that
        # solves for them from the right-hand side taken in that order
        self._perm, self._order, self._permuted = solve.perm, rows[solve.perm], solve.permuted

    def lift_and_load(self, b):
        """(lift, load) of the GAMMA1 datum b: solve_into subtracts the lift
        from the unknown rows, so it comes in the factor's order; Robin adds
        its transfer load to the whole right-hand side.  The unused one is
        None, since subtracting 0.0 or adding -0.0 would change no bit.
        """
        if math.isinf(self.alpha):
            return (self._a_fd @ b)[self._perm], None
        b_ext = np.zeros(self.n_nodes)
        b_ext[self.dirichlet_nodes] = b
        return None, self.dt * self.alpha * (self._b1 @ b_ext)

    def solve_into(self, out, rhs, lift=None):
        """Write the system's solution for the n-vector rhs (minus lift, as
        lift_and_load gives it) to the unknown rows of out, leaving the
        other rows: one gather of rhs in the factor's order, one dpbtrs and
        one scatter.  A gather and a scatter move numbers without changing
        them, so out has the bits of solving rhs[rows] - lift in the natural
        order.
        """
        c = rhs[self._order]
        if lift is not None:
            c -= lift
        out[self._order] = self._permuted(c)


def _imposition(ops: DiscreteOperators, alpha, lumped: bool,
                dt=None) -> _Gamma1Imposition:
    """The _Gamma1Imposition of one system on ops, built on first use and
    kept in ops.systems under (alpha, lumped, dt); dt None is the steady
    system.  Any alpha not > 0 raises before anything is cached.
    """
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

    Each step is one sparse product per term of its right-hand side and one
    solve_into: a gather in the factor's order, one dpbtrs and one scatter.
    """

    def __init__(self, ops: DiscreteOperators, grid: TimeGrid, alpha=math.inf,
                 lumped: bool = False):
        self._gamma1 = _imposition(ops, alpha, lumped, grid.dt)
        self.ops = ops
        self.grid = grid
        self.alpha = self._gamma1.alpha
        self.lumped = lumped

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
        gamma1 = self._gamma1
        lift, load = gamma1.lift_and_load(b)
        mass, load_gamma2 = gamma1.mass, gamma1.load_gamma2
        for k in range(1, nsteps + 1):
            rhs = mass @ u[k - 1]
            if load is not None:
                rhs += load
            if source_values is not None:
                rhs += dt * (mass @ source_values[k])
            if flux_values is not None:
                rhs -= dt * (load_gamma2 @ flux_values[k])
            gamma1.solve_into(u[k], rhs, lift)
        return u

    def run_adjoint(self, source_values: np.ndarray, columns=None) -> np.ndarray:
        """March the transposed recursion backward from a zero terminal value.

        source_values[k] drives step k for k = 1..N; row 0 is ignored.  With
        columns None the whole (N+1, n) trajectory is returned, and its row 0
        is the homogeneous continuation of the recursion, kept for
        diagnostics only.  With an index array, only those columns of rows
        1..N are kept, bit for bit as in the whole march, and row 0 is left
        zero.
        """
        ops, grid = self.ops, self.grid
        n, dt = ops.n_nodes, grid.dt
        nsteps = grid.n_steps
        keep = slice(None) if columns is None else columns
        p = np.zeros((nsteps + 1, n if columns is None else len(columns)))
        p_k = np.zeros(n)  # the whole adjoint at step k, zero off the unknowns
        gamma1, mass = self._gamma1, self._gamma1.mass
        for k in range(nsteps, 0, -1):
            gamma1.solve_into(p_k, mass @ p_k + dt * (mass @ source_values[k]))
            p[k] = p_k[keep]
        if columns is None:
            gamma1.solve_into(p[0], mass @ p_k)
        return p


def solve_parabolic(ops: DiscreteOperators, spec: ProblemSpec, q: np.ndarray,
                    grid: TimeGrid, alpha=math.inf) -> np.ndarray:
    """Backward-Euler state trajectory with flux q, the GAMMA1 datum imposed
    as alpha says (as in ParabolicStepper)."""
    spec.validate(ops, grid)
    _check_control(grid, ops, q)
    stepper = ParabolicStepper(ops, grid, alpha=alpha)
    return stepper.run(spec.initial_temp, spec.boundary_temp, spec.source, q)


def solve_adjoint(ops: DiscreteOperators, u: np.ndarray, target: np.ndarray,
                  grid: TimeGrid, alpha=math.inf) -> np.ndarray:
    """Backward recursion with terminal value zero and source u_k - target_k,
    homogeneous on GAMMA1 as alpha says (as in ParabolicStepper).

    Index alignment: the cost samples steps k = 1..N, so the adjoint source at
    step k is u_k - target_k and the k = 0 state sample never enters.  Row 0
    of the result is a homogeneous continuation kept for diagnostics; no
    formula consumes it.
    """
    _check_field(grid, ops, u, "state")
    _check_field(grid, ops, target, "target")
    stepper = ParabolicStepper(ops, grid, alpha=alpha)
    return stepper.run_adjoint(u - target)


def solve_elliptic_robin(ops: DiscreteOperators, g: np.ndarray, q: np.ndarray,
                         b: np.ndarray, alpha=math.inf,
                         lumped: bool = False) -> np.ndarray:
    """Steady solution: K u = M g - (GAMMA2 load) q with the datum b on GAMMA1,
    imposed as alpha says (as in ParabolicStepper): (K + alpha B1) u = rhs for
    finite alpha > 0, u = b on GAMMA1 for +inf.

    lumped selects the lumped boundary masses, which keep the Robin system an
    M-matrix on non-obtuse meshes, as the comparison principle needs; the
    source term always uses the consistent mass.
    """
    g = _check_shape("g", g, (ops.n_nodes,))
    q = _check_shape("q", q, (ops.gamma2_nodes.size,))
    b = _check_shape("b", b, (ops.dirichlet_nodes.size,))
    gamma1 = _imposition(ops, alpha, lumped)
    rhs = ops.mass @ g - gamma1.load_gamma2 @ q
    u = np.empty(ops.n_nodes)
    # elimination keeps the datum on GAMMA1; Robin overwrites these entries
    u[ops.dirichlet_nodes] = b
    lift, load = gamma1.lift_and_load(b)
    if load is not None:
        rhs += load
    gamma1.solve_into(u, rhs, lift)
    return u


def solve_elliptic_dirichlet(ops: DiscreteOperators, g: np.ndarray,
                             q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """solve_elliptic_robin with alpha +inf: u = b on GAMMA1.  Kept under its
    own name because perfbench.tracing.ENTRY_POINTS traces it."""
    return solve_elliptic_robin(ops, g, q, b)
