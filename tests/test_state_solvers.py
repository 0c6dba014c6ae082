import math

import numpy as np
import pytest

from parctrl import fem_core
from parctrl.fem_core import (
    TimeGrid,
    assemble,
    build_interval_mesh,
    inner_domain,
    norm_gamma1_time,
    norm_h1_time,
    spd_solver,
)
from parctrl.state_solvers import (
    ParabolicStepper,
    ProblemSpec,
    solve_adjoint,
    solve_elliptic_dirichlet,
    solve_elliptic_robin,
    solve_parabolic,
)

from conftest import make_spec, random_control, random_field

TRANSFER = 3.0  # the Robin coefficient of the constant-state tests


def constant_spec(ops, grid, c):
    n = ops.n_nodes
    return ProblemSpec(
        source=np.zeros((grid.n_steps + 1, n)),
        boundary_temp=np.full(ops.dirichlet_nodes.size, c),
        initial_temp=np.full(n, c),
        target=np.zeros((grid.n_steps + 1, n)),
    )


def zero_control(ops, grid):
    return np.zeros((grid.n_steps + 1, ops.gamma2_nodes.size))


@pytest.mark.parametrize("alpha", [math.inf, TRANSFER], ids=["dirichlet", "robin"])
def test_constants_are_steady_states(ops1d, grid, alpha):
    spec = constant_spec(ops1d, grid, 2.5)
    u = solve_parabolic(ops1d, spec, zero_control(ops1d, grid), grid, alpha)
    assert np.max(np.abs(u - 2.5)) < 1e-12


def test_constants_2d(ops2d, grid):
    spec = constant_spec(ops2d, grid, -1.0)
    u = solve_parabolic(ops2d, spec, zero_control(ops2d, grid), grid)
    assert np.max(np.abs(u + 1.0)) < 1e-12
    u = solve_parabolic(ops2d, spec, zero_control(ops2d, grid), grid, TRANSFER)
    assert np.max(np.abs(u + 1.0)) < 1e-12


def _manufactured_error(n_cells, n_steps):
    # exact solution u(x,t) = exp(-t) sin(pi x / 2) with u(0,t)=0 and zero
    # flux at x=1; the matching source is (pi^2/4 - 1) exp(-t) sin(pi x/2)
    ops = assemble(build_interval_mesh(n_cells, 0.0, 1.0, "left"))
    grid = TimeGrid(t_final=1.0, n_steps=n_steps)
    x = ops.mesh.node_coords[:, 0]
    times = grid.times()
    exact = np.exp(-times)[:, None] * np.sin(np.pi * x / 2.0)[None, :]
    gval = (np.pi ** 2 / 4.0 - 1.0) * exact
    spec = ProblemSpec(
        source=gval,
        boundary_temp=np.zeros(1),
        initial_temp=exact[0].copy(),
        target=np.zeros((grid.n_steps + 1, ops.n_nodes)),
    )
    u = solve_parabolic(ops, spec, zero_control(ops, grid), grid)
    diff = u - exact
    err = 0.0
    for k in range(grid.n_steps + 1):
        err = max(err, math.sqrt(max(inner_domain(ops, diff[k], diff[k]), 0.0)))
    return err


def test_manufactured_convergence():
    e1 = _manufactured_error(16, 20)
    e2 = _manufactured_error(32, 40)
    assert e2 < e1
    assert e1 / e2 > 1.7  # first order in dt dominates at these sizes


def test_superposition(ops1d, grid, spec1d):
    rng = np.random.default_rng(21)
    q = rng.standard_normal((grid.n_steps + 1, ops1d.gamma2_nodes.size))
    spec = make_spec(ops1d, grid, source_value=0.7, bump=0.5)
    spec.boundary_temp = np.full(ops1d.dirichlet_nodes.size, 0.3)
    spec.initial_temp = spec.initial_temp + 0.3

    full = solve_parabolic(ops1d, spec, q, grid)

    only_b = ProblemSpec(np.zeros((grid.n_steps + 1, ops1d.n_nodes)), spec.boundary_temp,
                         spec.initial_temp, spec.target)
    zero = ProblemSpec(np.zeros((grid.n_steps + 1, ops1d.n_nodes)),
                       np.zeros(ops1d.dirichlet_nodes.size),
                       np.zeros(ops1d.n_nodes), spec.target)
    only_q_spec = ProblemSpec(np.zeros((grid.n_steps + 1, ops1d.n_nodes)), zero.boundary_temp,
                              zero.initial_temp, spec.target)
    only_g_spec = ProblemSpec(spec.source, zero.boundary_temp, zero.initial_temp,
                              spec.target)

    u_b = solve_parabolic(ops1d, only_b, zero_control(ops1d, grid), grid)
    u_q = solve_parabolic(ops1d, only_q_spec, q, grid)
    u_g = solve_parabolic(ops1d, only_g_spec, zero_control(ops1d, grid), grid)

    combo = u_b + u_q + u_g
    scale = np.max(np.abs(full))
    assert np.max(np.abs(combo - full)) < 1e-12 * max(scale, 1.0)


def test_robin_alpha_consistency(ops1d, grid):
    rng = np.random.default_rng(22)
    spec = make_spec(ops1d, grid)
    q = rng.standard_normal((grid.n_steps + 1, ops1d.gamma2_nodes.size))
    u_d = solve_parabolic(ops1d, spec, q, grid)
    errs = []
    for alpha in (10.0, 100.0, 1000.0, 10000.0):
        u_a = solve_parabolic(ops1d, spec, q, grid, alpha=alpha)
        errs.append(norm_h1_time(grid, ops1d, u_a - u_d))
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_robin_boundary_mismatch_bounded(ops1d, grid):
    rng = np.random.default_rng(23)
    spec = make_spec(ops1d, grid)
    q = rng.standard_normal((grid.n_steps + 1, ops1d.gamma2_nodes.size))
    b_ext = np.zeros(ops1d.n_nodes)
    b_ext[ops1d.dirichlet_nodes] = spec.boundary_temp
    vals = []
    for alpha in (2.0, 10.0, 100.0, 1000.0):
        u_a = solve_parabolic(ops1d, spec, q, grid, alpha=alpha)
        mismatch = u_a - b_ext[None, :]
        vals.append(math.sqrt(alpha - 1.0) * norm_gamma1_time(grid, ops1d, mismatch))
    assert max(vals) <= 2.0 * vals[0]


def test_robin_rejects_bad_alpha(ops1d, grid, spec1d):
    # -inf and nan are not > 0 either; only +inf means exact imposition
    for alpha in (-1.0, 0.0, -math.inf, math.nan):
        with pytest.raises(ValueError, match="transfer coefficient"):
            solve_parabolic(ops1d, spec1d, zero_control(ops1d, grid), grid,
                            alpha=alpha)
        with pytest.raises(ValueError, match="transfer coefficient"):
            solve_elliptic_robin(ops1d, np.zeros(ops1d.n_nodes),
                                 np.zeros(ops1d.gamma2_nodes.size), np.zeros(1),
                                 alpha=alpha)


def test_robin_inf_routes_to_dirichlet(ops1d, grid, spec1d):
    q = zero_control(ops1d, grid)
    u_inf = solve_parabolic(ops1d, spec1d, q, grid, alpha=math.inf)
    u_d = solve_parabolic(ops1d, spec1d, q, grid)
    assert np.array_equal(u_inf, u_d)


def test_elliptic_constants(ops1d, ops2d):
    for ops in (ops1d, ops2d):
        c = 1.7
        u = solve_elliptic_dirichlet(ops, np.zeros(ops.n_nodes),
                                     np.zeros(ops.gamma2_nodes.size),
                                     np.full(ops.dirichlet_nodes.size, c))
        assert np.max(np.abs(u - c)) < 1e-12
        u = solve_elliptic_robin(ops, np.zeros(ops.n_nodes),
                                 np.zeros(ops.gamma2_nodes.size),
                                 np.full(ops.dirichlet_nodes.size, c), alpha=2.0)
        assert np.max(np.abs(u - c)) < 1e-12


def test_elliptic_linear_exact(ops1d):
    # -u'' = 0, u(0) = 0, outflux -u'(1) = -1  has solution u = x, and P1 is
    # exact for linear solutions
    q = np.array([-1.0])
    u = solve_elliptic_dirichlet(ops1d, np.zeros(ops1d.n_nodes), q, np.zeros(1))
    assert np.max(np.abs(u - ops1d.mesh.node_coords[:, 0])) < 1e-12


def test_elliptic_robin_linear_exact(ops1d):
    # -u'' = 0 with u'(0) = u(0) and -u'(1) = -1 gives u = x + 1; derived by
    # hand from the transfer condition before the build
    q = np.array([-1.0])
    u = solve_elliptic_robin(ops1d, np.zeros(ops1d.n_nodes), q, np.zeros(1), alpha=1.0)
    assert np.max(np.abs(u - (ops1d.mesh.node_coords[:, 0] + 1.0))) < 1e-12


def _elliptic_2d_error(cells):
    # exact solution sin(pi x / 2) cos(pi y) on the unit square with the
    # temperature datum on the left edge: all flux data vanish and the source
    # is ((pi/2)^2 + pi^2) times the solution
    from parctrl.fem_core import build_rect_mesh, inner_domain

    ops = assemble(build_rect_mesh(cells, cells, {"left"}))
    x, y = ops.mesh.node_coords[:, 0], ops.mesh.node_coords[:, 1]
    exact = np.sin(np.pi * x / 2.0) * np.cos(np.pi * y)
    g = ((np.pi / 2.0) ** 2 + np.pi ** 2) * exact
    u = solve_elliptic_dirichlet(ops, g, np.zeros(ops.gamma2_nodes.size),
                                 np.zeros(ops.dirichlet_nodes.size))
    diff = u - exact
    return math.sqrt(max(inner_domain(ops, diff, diff), 0.0))


def test_elliptic_2d_manufactured_convergence():
    e1 = _elliptic_2d_error(8)
    e2 = _elliptic_2d_error(16)
    assert 3.5 < e1 / e2 < 4.5  # second order in h


def test_elliptic_linearity(ops2d):
    rng = np.random.default_rng(29)
    n, m, nd = ops2d.n_nodes, ops2d.gamma2_nodes.size, ops2d.dirichlet_nodes.size
    g1, g2 = rng.standard_normal(n), rng.standard_normal(n)
    q1, q2 = rng.standard_normal(m), rng.standard_normal(m)
    b1, b2 = rng.standard_normal(nd), rng.standard_normal(nd)
    u_sum = solve_elliptic_dirichlet(ops2d, g1 + g2, q1 + q2, b1 + b2)
    u1 = solve_elliptic_dirichlet(ops2d, g1, q1, b1)
    u2 = solve_elliptic_dirichlet(ops2d, g2, q2, b2)
    assert np.max(np.abs(u_sum - u1 - u2)) < 1e-12 * max(np.max(np.abs(u_sum)), 1.0)


def test_elliptic_robin_alpha_trend(ops1d):
    rng = np.random.default_rng(31)
    g = rng.standard_normal(ops1d.n_nodes)
    q = rng.standard_normal(ops1d.gamma2_nodes.size)
    b = np.array([0.4])
    u_d = solve_elliptic_dirichlet(ops1d, g, q, b)
    V = (ops1d.stiffness + ops1d.mass).tocsr()
    errs = []
    for alpha in (10.0, 100.0, 1000.0, 10000.0):
        u_a = solve_elliptic_robin(ops1d, g, q, b, alpha=alpha)
        d = u_a - u_d
        errs.append(math.sqrt(d @ (V @ d)))
    assert all(b_ < a_ for a_, b_ in zip(errs, errs[1:]))


def test_discrete_energy_decay(ops1d, grid):
    spec = make_spec(ops1d, grid, source_value=0.0)
    u = solve_parabolic(ops1d, spec, zero_control(ops1d, grid), grid)
    norms = [math.sqrt(inner_domain(ops1d, u[k], u[k]))
             for k in range(grid.n_steps + 1)]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_steady_state_fixed_point(ops1d, grid):
    rng = np.random.default_rng(37)
    g = rng.standard_normal(ops1d.n_nodes)
    qv = rng.standard_normal(ops1d.gamma2_nodes.size)
    b = np.array([0.8])
    u_inf = solve_elliptic_dirichlet(ops1d, g, qv, b)
    spec = ProblemSpec(
        source=np.tile(g, (grid.n_steps + 1, 1)),
        boundary_temp=b,
        initial_temp=u_inf,
        target=np.zeros((grid.n_steps + 1, ops1d.n_nodes)),
    )
    q = np.tile(qv, (grid.n_steps + 1, 1))
    u = solve_parabolic(ops1d, spec, q, grid)
    assert np.max(np.abs(u - u_inf[None, :])) < 1e-10


def test_spec_validation_rejects_mismatched_initial(ops1d, grid, spec1d):
    spec1d.initial_temp = spec1d.initial_temp.copy()
    spec1d.initial_temp[ops1d.dirichlet_nodes] += 0.1
    with pytest.raises(ValueError):
        solve_parabolic(ops1d, spec1d, zero_control(ops1d, grid), grid)


def _dense(mat, lumped):
    """mat as a dense array, or with lumped its diagonal of dense row sums,
    so that a lumped reference does not go through the library's lumping."""
    dense = mat.toarray()
    return np.diag(dense.sum(axis=1)) if lumped else dense


def _dense_reference(ops, grid, alpha, lumped, initial, b, g, q, s):
    """Forward and adjoint recursions with dense matrices and
    numpy.linalg.solve; elimination replaces the GAMMA1 rows of the step
    matrix by identity rows carrying the datum (zero for the adjoint)."""
    mass = _dense(ops.mass, lumped)
    b1 = _dense(ops.bmass_gamma1, lumped)
    b2 = _dense(ops.bmass_gamma2, lumped)
    load2 = b2[:, ops.gamma2_nodes]
    n, d, dt = ops.n_nodes, ops.dirichlet_nodes, grid.dt
    b_ext = np.zeros(n)
    b_ext[d] = b
    if math.isinf(alpha):
        a_mat = mass + dt * ops.stiffness.toarray()
        a_mat[d, :] = 0.0
        a_mat[d, d] = 1.0
        const = np.zeros(n)
    else:
        a_mat = mass + dt * (ops.stiffness.toarray() + alpha * b1)
        const = dt * alpha * (b1 @ b_ext)

    def solve(rhs, fixed):
        if math.isinf(alpha):
            rhs = rhs.copy()
            rhs[d] = fixed
        return np.linalg.solve(a_mat, rhs)

    nsteps = grid.n_steps
    u = np.empty((nsteps + 1, n))
    u[0] = initial
    for k in range(1, nsteps + 1):
        rhs = mass @ u[k - 1] + const + dt * (mass @ g[k]) - dt * (load2 @ q[k])
        u[k] = solve(rhs, b)
    p = np.zeros((nsteps + 2, n))
    for k in range(nsteps, 0, -1):
        p[k] = solve(mass @ p[k + 1] + dt * (mass @ s[k]), 0.0)
    p[0] = solve(mass @ p[1], 0.0)
    return u, p[:-1]


@pytest.mark.parametrize("lumped", [False, True], ids=["consistent", "lumped"])
@pytest.mark.parametrize("alpha", [math.inf, 7.5], ids=["elimination", "robin"])
def test_stepper_matches_dense_reference(alpha, lumped):
    # nonzero datum, source, flux and adjoint source on a small 2D mesh
    ops = assemble(fem_core.build_rect_mesh(5, 4, {"left", "bottom"}))
    grid = TimeGrid(t_final=0.5, n_steps=6)
    rng = np.random.default_rng(11)
    n, m = ops.n_nodes, ops.gamma2_nodes.size
    b = 1.0 + rng.random(ops.dirichlet_nodes.size)
    initial = rng.standard_normal(n)
    initial[ops.dirichlet_nodes] = b
    g = rng.standard_normal((grid.n_steps + 1, n))
    q = rng.standard_normal((grid.n_steps + 1, m))
    s = rng.standard_normal((grid.n_steps + 1, n))

    stepper = ParabolicStepper(ops, grid, alpha=alpha, lumped=lumped)
    u = stepper.run(initial, b, g, q)
    p = stepper.run_adjoint(s)
    u_ref, p_ref = _dense_reference(ops, grid, alpha, lumped, initial, b, g, q, s)
    assert np.max(np.abs(u - u_ref)) <= 1e-12 * np.max(np.abs(u_ref))
    assert np.max(np.abs(p - p_ref)) <= 1e-12 * np.max(np.abs(p_ref))


@pytest.mark.parametrize("lumped", [False, True], ids=["consistent", "lumped"])
@pytest.mark.parametrize("alpha", [math.inf, 7.5], ids=["elimination", "robin"])
def test_steady_solve_matches_dense_reference(alpha, lumped):
    # nonzero datum, source and flux on a small 2D mesh; the source pairs with
    # the consistent mass, the boundary terms with the selected boundary masses
    ops = assemble(fem_core.build_rect_mesh(5, 4, {"left", "bottom"}))
    rng = np.random.default_rng(12)
    n, d = ops.n_nodes, ops.dirichlet_nodes
    b = 1.0 + rng.random(d.size)
    g = rng.standard_normal(n)
    q = rng.standard_normal(ops.gamma2_nodes.size)

    b1 = _dense(ops.bmass_gamma1, lumped)
    b2 = _dense(ops.bmass_gamma2, lumped)
    rhs = ops.mass.toarray() @ g - b2[:, ops.gamma2_nodes] @ q
    if math.isinf(alpha):
        # identity rows carry the datum on GAMMA1
        a_mat = ops.stiffness.toarray()
        a_mat[d, :] = 0.0
        a_mat[d, d] = 1.0
        rhs[d] = b
    else:
        b_ext = np.zeros(n)
        b_ext[d] = b
        a_mat = ops.stiffness.toarray() + alpha * b1
        rhs = rhs + alpha * (b1 @ b_ext)
    u_ref = np.linalg.solve(a_mat, rhs)

    u = solve_elliptic_robin(ops, g, q, b, alpha, lumped=lumped)
    assert np.max(np.abs(u - u_ref)) <= 1e-12 * np.max(np.abs(u_ref))


def test_reused_systems_give_the_bits_of_fresh_ones():
    # on one ops every call after the first of its system reuses the cached
    # factorization; each call on a freshly assembled ops factorizes anew
    mesh = fem_core.build_rect_mesh(5, 4, {"left", "bottom"})
    grid = TimeGrid(t_final=0.5, n_steps=6)
    ref = assemble(mesh)
    spec = make_spec(ref, grid)
    rng = np.random.default_rng(13)
    q = random_control(rng, grid, ref)
    u = random_field(rng, grid, ref)
    g, q_row = rng.standard_normal(ref.n_nodes), rng.standard_normal(ref.gamma2_nodes.size)
    b = rng.random(ref.dirichlet_nodes.size)
    calls = [
        lambda ops: solve_parabolic(ops, spec, q, grid),
        lambda ops: solve_parabolic(ops, spec, q, grid, 7.5),
        lambda ops: solve_adjoint(ops, u, spec.target, grid, math.inf),
        lambda ops: solve_adjoint(ops, u, spec.target, grid, 7.5),
        lambda ops: solve_elliptic_robin(ops, g, q_row, b, math.inf),
        lambda ops: solve_elliptic_robin(ops, g, q_row, b, 7.5, lumped=True),
    ]
    fresh = [call(assemble(mesh)).tobytes() for call in calls]
    ops = assemble(mesh)
    for _ in range(2):
        assert [call(ops).tobytes() for call in calls] == fresh
    assert len(ops.systems) == 4


def test_each_system_gets_its_own_entry(monkeypatch):
    from parctrl import state_solvers

    factorized = []
    real = state_solvers.spd_solver
    monkeypatch.setattr(state_solvers, "spd_solver",
                        lambda a_mat: factorized.append(a_mat.shape) or real(a_mat))
    ops = assemble(build_interval_mesh(8, 0.0, 1.0, "left"))
    coarse, fine = TimeGrid(1.0, 4), TimeGrid(1.0, 8)
    first = ParabolicStepper(ops, coarse, alpha=5.0)
    # same dt on a longer horizon: the same system
    assert ParabolicStepper(ops, TimeGrid(2.0, 8), alpha=5.0)._gamma1 is first._gamma1
    ParabolicStepper(ops, coarse, alpha=5.0, lumped=True)
    ParabolicStepper(ops, fine, alpha=5.0)
    ParabolicStepper(ops, coarse, alpha=6.0)
    ParabolicStepper(ops, coarse, alpha=math.inf)
    zeros = (np.zeros(ops.n_nodes), np.zeros(ops.gamma2_nodes.size), np.zeros(1))
    solve_elliptic_robin(ops, *zeros, 5.0)
    solve_elliptic_robin(ops, *zeros, 5.0, lumped=True)
    assert set(ops.systems) == {(5.0, False, 0.25), (5.0, True, 0.25),
                                (5.0, False, 0.125), (6.0, False, 0.25),
                                (math.inf, False, 0.25), (5.0, False, None),
                                (5.0, True, None)}
    assert len(factorized) == len(ops.systems)


def test_bad_alpha_caches_nothing():
    ops = assemble(build_interval_mesh(8, 0.0, 1.0, "left"))
    grid = TimeGrid(1.0, 4)
    zeros = (np.zeros(ops.n_nodes), np.zeros(ops.gamma2_nodes.size), np.zeros(1))
    for alpha in (0.0, math.nan, -math.inf):
        with pytest.raises(ValueError, match="transfer coefficient"):
            ParabolicStepper(ops, grid, alpha=alpha)
        with pytest.raises(ValueError, match="transfer coefficient"):
            solve_elliptic_robin(ops, *zeros, alpha)
    assert ops.systems == {}


def _step_by_step(stepper, initial, b, g, q, s, columns):
    """run and run_adjoint as one step at a time in the natural order: the
    unknown rows gathered, solved by a factorization of the test's own
    through spd_solver's own gather and scatter, and scattered back."""
    ops, grid, gamma1 = stepper.ops, stepper.grid, stepper._gamma1
    n, d, dt, nsteps = ops.n_nodes, ops.dirichlet_nodes, grid.dt, grid.n_steps
    mass, load2 = gamma1.mass, gamma1.load_gamma2
    datum = np.zeros(d.size) if b is None else b
    if math.isinf(stepper.alpha):
        rows, lift, load = ops.free_nodes, gamma1._a_fd @ datum, -0.0
        system = (mass + dt * ops.stiffness).tocsr()[np.ix_(rows, rows)]
    else:
        b_ext = np.zeros(n)
        b_ext[d] = datum
        rows, lift, load = slice(None), 0.0, dt * stepper.alpha * (gamma1._b1 @ b_ext)
        system = mass + dt * (ops.stiffness + stepper.alpha * gamma1._b1)
    solve = spd_solver(system)
    u = np.empty((nsteps + 1, n))
    u[0] = initial
    u[1:, d] = datum
    for k in range(1, nsteps + 1):
        rhs = mass @ u[k - 1] + load
        if g is not None:
            rhs = rhs + dt * (mass @ g[k])
        if q is not None:
            rhs = rhs - dt * (load2 @ q[k])
        u[k, rows] = solve(rhs[rows] - lift)
    p = np.zeros((nsteps + 1, n))
    for k in range(nsteps, 0, -1):
        following = p[k + 1] if k < nsteps else np.zeros(n)
        rhs = mass @ following + dt * (mass @ s[k])
        p[k, rows] = solve(rhs[rows])
    if columns is None:
        p[0, rows] = solve((mass @ p[1])[rows])
        return u, p
    p_cols = p[:, columns]
    p_cols[0] = 0.0
    return u, p_cols


@pytest.mark.parametrize("forcing", ["none", "datum", "source", "flux", "all"])
@pytest.mark.parametrize("lumped", [False, True], ids=["consistent", "lumped"])
@pytest.mark.parametrize("alpha", [math.inf, 5.0], ids=["elimination", "robin"])
@pytest.mark.parametrize("mesh", [build_interval_mesh(16, 0.0, 1.0, "right"),
                                  fem_core.build_rect_mesh(5, 4, {"left", "bottom"})],
                         ids=["1d", "2d"])
def test_march_has_the_bits_of_a_step_by_step_march(mesh, alpha, lumped, forcing):
    # the march in the factor's order changes no bit, signed zeros included
    _check_march_bits(assemble(mesh), TimeGrid(t_final=0.5, n_steps=7), alpha, lumped, forcing)


def _check_march_bits(ops, grid, alpha, lumped, forcing):
    n, m = ops.n_nodes, ops.gamma2_nodes.size
    rng = np.random.default_rng(17)
    b = g = q = None
    if forcing in ("datum", "all"):
        b = 1.0 + rng.random(ops.dirichlet_nodes.size)
    if forcing in ("source", "all"):
        g = rng.standard_normal((grid.n_steps + 1, n))
    if forcing in ("flux", "all"):
        q = rng.standard_normal((grid.n_steps + 1, m))
    initial = rng.standard_normal(n)
    initial[ops.dirichlet_nodes] = 0.0 if b is None else b
    s = rng.standard_normal((grid.n_steps + 1, n))
    s[:, ::3] = -0.0

    stepper = ParabolicStepper(ops, grid, alpha=alpha, lumped=lumped)
    u = stepper.run(initial, b, g, q)
    for columns in (None, ops.gamma2_nodes):
        u_ref, p_ref = _step_by_step(stepper, initial, b, g, q, s, columns)
        assert np.array_equal(u.view(np.int64), u_ref.view(np.int64))
        p = stepper.run_adjoint(s, columns)
        assert np.array_equal(p.view(np.int64), p_ref.view(np.int64))
