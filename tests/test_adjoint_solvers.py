import math

import numpy as np
import pytest

from parctrl.fem_core import (
    inner_boundary_time,
    inner_domain_time,
    norm_h1_time,
)
from parctrl.state_solvers import ParabolicStepper, solve_adjoint, solve_parabolic

from conftest import make_spec, random_control, random_field, rel_err


def test_zero_source_gives_zero_adjoint(ops1d, grid, spec1d):
    u = spec1d.target.copy()  # state identical to the target
    p = solve_adjoint(ops1d, u, spec1d.target, grid)
    assert np.max(np.abs(p)) == 0.0
    p = solve_adjoint(ops1d, u, spec1d.target, grid, 5.0)
    assert np.max(np.abs(p)) == 0.0


def test_terminal_value_zero_enters_last_step(ops1d, grid):
    # the recursion at the last step must see a zero terminal value:
    # (M + dt K) p_N = dt M (u_N - z_N) on the free rows
    rng = np.random.default_rng(41)
    u = random_field(rng, grid, ops1d)
    z = random_field(rng, grid, ops1d)
    p = solve_adjoint(ops1d, u, z, grid)
    f = ops1d.free_nodes
    a_mat = (ops1d.mass + grid.dt * ops1d.stiffness).tocsr()
    lhs = (a_mat @ p[grid.n_steps])[f]
    rhs = grid.dt * (ops1d.mass @ (u[grid.n_steps] - z[grid.n_steps]))[f]
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(np.max(np.abs(rhs)), 1.0)
    assert np.max(np.abs(p[:, ops1d.dirichlet_nodes])) == 0.0


@pytest.mark.parametrize("alpha", [math.inf, 5.0], ids=["dirichlet", "robin"])
def test_duality_identity(ops1d, grid, alpha):
    # pairing of the control-to-state map against the adjoint trace:
    # (u_eta - u_0, u_q - z)_time-domain = -(eta, trace p_q)_time-boundary
    rng = np.random.default_rng(43)
    spec = make_spec(ops1d, grid)
    for _ in range(5):
        q = random_control(rng, grid, ops1d)
        eta = random_control(rng, grid, ops1d)
        u_q = solve_parabolic(ops1d, spec, q, grid, alpha)
        u_eta = solve_parabolic(ops1d, spec, eta, grid, alpha)
        u_0 = solve_parabolic(ops1d, spec, np.zeros((grid.n_steps + 1, 1)), grid, alpha)
        p_q = solve_adjoint(ops1d, u_q, spec.target, grid, alpha)
        c_eta = u_eta - u_0
        resid = u_q - spec.target
        lhs = inner_domain_time(grid, ops1d, c_eta, resid)
        rhs = -inner_boundary_time(grid, ops1d, eta, p_q[:, ops1d.gamma2_nodes])
        assert rel_err(lhs, rhs) < 1e-10


def test_exact_operator_adjointness(ops2d, grid):
    # load-bearing invariant: the homogeneous state map and the adjoint trace
    # map are exact transposes under the discrete pairings
    rng = np.random.default_rng(47)
    stepper = ParabolicStepper(ops2d, grid, alpha=math.inf)
    m = ops2d.gamma2_nodes.size
    zeros_b = np.zeros(ops2d.dirichlet_nodes.size)
    for _ in range(5):
        q = random_control(rng, grid, ops2d)
        r = random_field(rng, grid, ops2d)
        w = stepper.run(np.zeros(ops2d.n_nodes), zeros_b, None, q)
        p = stepper.run_adjoint(r)
        lhs = inner_domain_time(grid, ops2d, w, r)
        rhs = -inner_boundary_time(grid, ops2d, q, p[:, ops2d.gamma2_nodes])
        assert rel_err(lhs, rhs) < 1e-11


def test_adjoint_stability_bound(ops1d, grid):
    # adjoints driven by two sources differ by at most (1/lambda0) times the
    # source gap, in the L2-H1 against L2-L2 norms; slack for roundoff only
    rng = np.random.default_rng(53)
    z = random_field(rng, grid, ops1d)
    for _ in range(5):
        u1 = random_field(rng, grid, ops1d)
        u2 = random_field(rng, grid, ops1d)
        p1 = solve_adjoint(ops1d, u1, z, grid)
        p2 = solve_adjoint(ops1d, u2, z, grid)
        lhs = norm_h1_time(grid, ops1d, p1 - p2)
        rhs = math.sqrt(inner_domain_time(grid, ops1d, u1 - u2, u1 - u2))
        assert lhs <= (1.0 / ops1d.lambda0) * rhs * (1.0 + 1e-9)


def test_adjoint_alpha_convergence(ops1d, grid):
    rng = np.random.default_rng(59)
    spec = make_spec(ops1d, grid)
    q = random_control(rng, grid, ops1d)
    u_d = solve_parabolic(ops1d, spec, q, grid)
    p_d = solve_adjoint(ops1d, u_d, spec.target, grid)
    errs = []
    for alpha in (10.0, 100.0, 1000.0, 10000.0):
        u_a = solve_parabolic(ops1d, spec, q, grid, alpha)
        p_a = solve_adjoint(ops1d, u_a, spec.target, grid, alpha)
        errs.append(norm_h1_time(grid, ops1d, p_a - p_d))
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_row_zero_is_homogeneous_continuation(ops1d, grid):
    # row 0 is diagnostic only: it continues the recursion with a zero source,
    # so (M + dt K) p_0 = M p_1 on the free rows
    rng = np.random.default_rng(61)
    u = random_field(rng, grid, ops1d)
    z = random_field(rng, grid, ops1d)
    p = solve_adjoint(ops1d, u, z, grid)
    f = ops1d.free_nodes
    a_mat = (ops1d.mass + grid.dt * ops1d.stiffness).tocsr()
    lhs = (a_mat @ p[0])[f]
    rhs = (ops1d.mass @ p[1])[f]
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(np.max(np.abs(rhs)), 1e-300)


def test_adjoint_rejects_bad_alpha(ops1d, grid, spec1d):
    u = random_field(np.random.default_rng(0), grid, ops1d)
    with pytest.raises(ValueError):
        solve_adjoint(ops1d, u, spec1d.target, grid, -2.0)


def test_grid_mismatch_rejected(ops1d, grid, spec1d):
    from parctrl.fem_core import TimeGrid

    other = TimeGrid(t_final=1.0, n_steps=grid.n_steps + 1)
    u = np.zeros((other.n_steps + 1, ops1d.n_nodes))
    with pytest.raises(ValueError):
        solve_adjoint(ops1d, u, spec1d.target, grid)


@pytest.mark.parametrize("lumped", [False, True], ids=["consistent", "lumped"])
@pytest.mark.parametrize("alpha", [math.inf, 5.0], ids=["dirichlet", "robin"])
def test_trace_only_march_matches_the_whole_march(ops2d, grid, alpha, lumped):
    # the GAMMA2-only adjoint that a flux Hessian application reads: rows
    # 1..N are the whole march's GAMMA2 columns bit for bit; row 0 is not
    # marched and stays zero
    rng = np.random.default_rng(67)
    stepper = ParabolicStepper(ops2d, grid, alpha=alpha, lumped=lumped)
    source = random_field(rng, grid, ops2d)
    whole = stepper.run_adjoint(source)
    trace = stepper.run_adjoint(source, ops2d.gamma2_nodes)
    assert trace.shape == (grid.n_steps + 1, ops2d.gamma2_nodes.size)
    assert np.array_equal(trace[1:], whole[1:, ops2d.gamma2_nodes])
    assert np.max(np.abs(whole[1:, ops2d.gamma2_nodes])) > 0.0
    assert not trace[0].any()
