"""The verify property table: the paper's identities, checked on one problem.

table(problem) gives the 11 properties in one order, as (name, check) pairs;
check() returns (passed, worst observed value).  Entry i draws from its own
random stream, np.random.default_rng((2024, i)), so its value does not
depend on which other entries ran, in which order or in which process; what
one check builds is freed when it returns.  spectral-certificates checks the
spectral constants on 1000 random vectors drawn 50 at a time.  Adjoint
duality runs at both boundary conditions: at the config's alpha for Robin, or
at 5 when that alpha is inf, which would repeat the Dirichlet check.
prepare(problem) computes what the checks read from the library's caches (the
three spectral constants, the two stepper systems), so that processes forked
after it share them.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import optimal_control, scalar_control
from .config import Problem
from .fem_core import inner_boundary_time, inner_domain_time, norm_boundary_time
from .profiles import Profile, evaluate
from .state_solvers import ParabolicStepper, solve_adjoint, solve_parabolic

# spectral-certificates checks this many random vectors, drawn and checked a
# block at a time: one (vectors, n) array would grow with the mesh
_CERTIFICATE_VECTORS = 1000
_CERTIFICATE_BLOCK = 50


def _robin_alpha(problem: Problem):
    return 5.0 if math.isinf(problem.alpha) else problem.alpha


def prepare(problem: Problem):
    """Compute the three spectral constants (which the manifest then lists)
    and factorize the two stepper systems every march of the table uses."""
    ops = problem.ops
    ops.lambda0, ops.lambda1, ops.trace_norm
    for alpha in (math.inf, _robin_alpha(problem)):
        ParabolicStepper(ops, problem.grid, alpha)


def table(problem: Problem):
    """The verify properties of problem in table order, as (name, check)
    pairs; check() returns (passed, worst observed value)."""
    ops, spec, grid = problem.ops, problem.spec, problem.grid
    n, m = ops.n_nodes, ops.gamma2_nodes.size
    zero_q = np.zeros((grid.n_steps + 1, m))

    def draw(rng):
        # the next random control
        return rng.standard_normal((grid.n_steps + 1, m))

    def rel(a, b):
        return abs(a - b) / max(abs(a), abs(b), 1e-300)

    def unforced(datum, initial, q=zero_q):
        # the state with no source, a constant GAMMA1 datum and flux q
        bare = replace(spec, source=np.broadcast_to(np.zeros(n), (grid.n_steps + 1, n)),
                       initial_temp=initial,
                       boundary_temp=np.full(ops.dirichlet_nodes.size, datum))
        return solve_parabolic(ops, bare, q, grid)

    def inner_product_symmetry(rng):
        u, v = rng.standard_normal(n), rng.standard_normal(n)
        s1 = abs(float(u @ (ops.mass @ v)) - float(v @ (ops.mass @ u)))
        Q, R = draw(rng), draw(rng)
        s2 = abs(inner_boundary_time(grid, ops, Q, R)
                 - inner_boundary_time(grid, ops, R, Q))
        return max(s1, s2) <= 1e-12, max(s1, s2)

    def spectral_certificates(rng):
        # lambda0, lambda1 and trace_norm bound the forms of random vectors.
        # The forms stay sparse, since a dense n x n copy would cost O(n^2)
        # memory; a block is one C-contiguous (n, block) array, which
        # a_mat @ xs reads without a copy.  Min and max do not depend on the
        # order, so the blocks give the bits of one (1000, n) array
        def forms(a_mat, xs):
            return np.einsum("ij,ij->j", xs, a_mat @ xs)

        V, K1 = ops.v_matrix(), ops.stiffness + ops.bmass_gamma1
        slacks, vq_max = np.full(3, np.inf), -np.inf
        for _ in range(_CERTIFICATE_VECTORS // _CERTIFICATE_BLOCK):
            vs = np.ascontiguousarray(rng.standard_normal((_CERTIFICATE_BLOCK, n)).T)
            vs0 = vs.copy()
            vs0[ops.dirichlet_nodes] = 0.0
            vq0, vq = forms(V, vs0), forms(V, vs)
            slacks = np.minimum(slacks, [
                np.min(forms(ops.stiffness, vs0) - ops.lambda0 * vq0),
                np.min(forms(K1, vs) - ops.lambda1 * vq),
                np.min(ops.trace_norm ** 2 * vq - forms(ops.bmass_gamma2, vs))])
            vq_max = np.maximum(vq_max, np.max(vq))
        worst = np.min(slacks) / max(vq_max, 1.0)
        return worst >= -1e-12, worst

    def solver_superposition(rng):
        # of the forward solver in the flux
        q1, q2 = draw(rng), draw(rng)
        u1 = solve_parabolic(ops, spec, q1, grid)
        du = unforced(0.0, np.zeros(n), q2 - q1)
        u2 = solve_parabolic(ops, spec, q2, grid)
        gap = np.max(np.abs(u1 + du - u2))
        scale = max(np.max(np.abs(u2)), 1.0)
        return gap <= 1e-11 * scale, gap / scale

    def constant_steady_state(rng):
        uc = unforced(1.5, np.full(n, 1.5))
        gap = np.max(np.abs(uc - 1.5))
        return gap <= 1e-12, gap

    def energy_decay(rng):
        # strict energy decay of the homogeneous problem
        bump = evaluate(Profile("sine-bump", (1.0,)), ops.mesh.node_coords, 0.0)
        bump[ops.dirichlet_nodes] = 0.0
        ud = unforced(0.0, bump)
        norms = np.sqrt(np.einsum("kj,kj->k", ud, (ops.mass @ ud.T).T))
        worst = float(np.max(norms[1:] - norms[:-1]))
        return worst < 0.0, worst

    def adjoint_duality(rng, alpha):
        gaps = []
        u_0 = solve_parabolic(ops, spec, zero_q, grid, alpha)
        for _ in range(3):
            q, eta = draw(rng), draw(rng)
            u_q = solve_parabolic(ops, spec, q, grid, alpha)
            u_eta = solve_parabolic(ops, spec, eta, grid, alpha)
            p_q = solve_adjoint(ops, u_q, spec.target, grid, alpha)
            lhs = inner_domain_time(grid, ops, u_eta - u_0, u_q - spec.target)
            rhs = -inner_boundary_time(grid, ops, eta, p_q[:, ops.gamma2_nodes])
            gaps.append(rel(lhs, rhs))
        worst = np.max(gaps)  # a nan gap is the worst, and fails
        return worst <= 1e-10, worst

    def gradient_central_difference(rng):
        # central differences of the quadratic cost
        q = draw(rng)
        grad = optimal_control.tracking_gradient(ops, spec, q, grid)
        gaps = []
        for eps in (1e-2, 1e-4):
            eta = draw(rng)
            fd = (optimal_control.tracking_cost(ops, spec, q + eps * eta, grid)
                  - optimal_control.tracking_cost(ops, spec, q - eps * eta, grid)) / (2 * eps)
            gaps.append(rel(fd, inner_boundary_time(grid, ops, grad, eta)))
        worst = np.max(gaps)
        return worst <= 1e-9, worst

    def convexity_identity(rng):
        q1, q2 = draw(rng), draw(rng)
        t = 0.37
        mix = (1 - t) * q2 + t * q1
        lhs = ((1 - t) * optimal_control.tracking_cost(ops, spec, q2, grid)
               + t * optimal_control.tracking_cost(ops, spec, q1, grid)
               - optimal_control.tracking_cost(ops, spec, mix, grid))
        w1 = solve_parabolic(ops, spec, q1, grid)
        w2 = solve_parabolic(ops, spec, q2, grid)
        dw, dq = w2 - w1, q2 - q1
        rhs = 0.5 * t * (1 - t) * (inner_domain_time(grid, ops, dw, dw)
                                   + spec.flux_penalty
                                   * inner_boundary_time(grid, ops, dq, dq))
        worst = rel(lhs, rhs)
        return worst <= 1e-10, worst

    def building_block_recombination(rng):
        u_b, u_q0, u_g = scalar_control.building_blocks(ops, spec, problem.q0, grid)
        lam = 0.6
        direct = solve_parabolic(ops, spec, lam * problem.q0, grid)
        combo = u_b + lam * u_q0 + u_g
        gap = np.max(np.abs(combo - direct)) / max(np.max(np.abs(direct)), 1.0)
        return gap <= 1e-12, gap

    def optimality_certificate(rng):
        # the boundary optimizer's independently recomputed gradient
        # satisfies the relative stopping rule
        res = optimal_control.optimize_boundary(ops, spec, grid, tol=problem.opt_tol)
        grad = optimal_control.tracking_gradient(ops, spec, res.q_opt, grid)
        gnorm = norm_boundary_time(grid, ops, grad)
        ref = max(1.0, res.residual_history[0])
        return res.converged and gnorm <= problem.opt_tol * ref, gnorm

    robin_alpha = _robin_alpha(problem)
    properties = (
        ("inner-product-symmetry", inner_product_symmetry),
        ("spectral-certificates", spectral_certificates),
        ("solver-superposition", solver_superposition),
        ("constant-steady-state", constant_steady_state),
        ("energy-decay", energy_decay),
        ("adjoint-duality-dirichlet", lambda rng: adjoint_duality(rng, math.inf)),
        ("adjoint-duality-robin", lambda rng: adjoint_duality(rng, robin_alpha)),
        ("gradient-central-difference", gradient_central_difference),
        ("convexity-identity", convexity_identity),
        ("building-block-recombination", building_block_recombination),
        ("optimality-certificate", optimality_certificate),
    )
    return [(name, lambda i=i, prop=prop: prop(np.random.default_rng((2024, i))))
            for i, (name, prop) in enumerate(properties)]
