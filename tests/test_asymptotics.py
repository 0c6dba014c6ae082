import math

import numpy as np
import pytest

from parctrl.asymptotics import (
    alpha_sweep,
    decay_study,
    decay_with_forcing,
    exp_forcing_quadrature,
)
from parctrl.fem_core import TimeGrid
from parctrl.state_solvers import ProblemSpec, solve_elliptic_dirichlet
from parctrl.optimal_control import optimize_boundary

from conftest import make_spec, random_control

ALPHAS = (10.0, 100.0, 1000.0, 10000.0)


def test_sweep_fixed_control(ops1d, grid):
    rng = np.random.default_rng(101)
    spec = make_spec(ops1d, grid)
    q = random_control(rng, grid, ops1d)
    rows = alpha_sweep(ops1d, spec, grid, ALPHAS, q=q)
    assert [r.alpha for r in rows] == list(ALPHAS)
    states = [r.err_state for r in rows]
    adjoints = [r.err_adjoint for r in rows]
    assert all(b < a + 1e-12 for a, b in zip(states, states[1:]))
    assert all(b < a + 1e-12 for a, b in zip(adjoints, adjoints[1:]))
    assert states[-1] <= states[0] / 10.0
    assert all(r.err_control is None for r in rows)
    assert max(r.boundary_mismatch for r in rows) <= 2.0 * rows[0].boundary_mismatch


def test_sweep_optimize_mode(ops1d, grid):
    spec = make_spec(ops1d, grid)
    rows = alpha_sweep(ops1d, spec, grid, ALPHAS, q="optimize", tol=1e-11)
    assert all(r.converged for r in rows)
    controls = [r.err_control for r in rows]
    assert all(b < a + 1e-12 for a, b in zip(controls, controls[1:]))
    assert controls[-1] <= controls[0] / 10.0


def test_sweep_optimize_trivial_target(ops1d, grid):
    # target the uncontrolled state: the optimal flux is zero for the limit
    # problem, so the control error is the Robin optimum's size and decreasing
    spec = make_spec(ops1d, grid)
    from parctrl.state_solvers import solve_parabolic

    q0 = np.zeros((grid.n_steps + 1, ops1d.gamma2_nodes.size))
    spec.target = solve_parabolic(ops1d, spec, q0, grid)
    ref = optimize_boundary(ops1d, spec, grid, tol=1e-11)
    assert np.max(np.abs(ref.q_opt)) == 0.0
    rows = alpha_sweep(ops1d, spec, grid, ALPHAS, q="optimize", tol=1e-11)
    controls = [r.err_control for r in rows]
    assert all(b < a for a, b in zip(controls, controls[1:]))


def test_sweep_fixed_control_2d(ops2d, grid):
    rng = np.random.default_rng(102)
    spec = make_spec(ops2d, grid)
    q = random_control(rng, grid, ops2d)
    rows = alpha_sweep(ops2d, spec, grid, ALPHAS, q=q)
    states = [r.err_state for r in rows]
    assert all(b < a for a, b in zip(states, states[1:]))
    assert states[-1] <= states[0] / 10.0


@pytest.mark.parametrize("mode", ["fixed", "optimize"])
def test_sweep_releases_the_systems_it_builds(grid, monkeypatch, mode):
    # every alpha's factorization kept to the end raised a 96x96 sweep's peak
    # memory by 42%; the sweep drops what it built, each system once used
    from parctrl import fem_core, state_solvers

    ops = fem_core.assemble(fem_core.build_interval_mesh(16, 0.0, 1.0, "left"))
    spec = make_spec(ops, grid)
    solve_elliptic_dirichlet(ops, spec.source[1],
                             np.zeros(ops.gamma2_nodes.size), spec.boundary_temp)
    before = set(ops.systems)
    factorized = []
    real = state_solvers.spd_solver

    def counting(a_mat):
        # the sweep's systems held when the next one is factorized
        factorized.append(set(ops.systems) - before)
        return real(a_mat)

    monkeypatch.setattr(state_solvers, "spd_solver", counting)
    q = "optimize" if mode == "optimize" else random_control(
        np.random.default_rng(103), grid, ops)
    rows = alpha_sweep(ops, spec, grid, ALPHAS, q=q)
    assert all(r.converged for r in rows)
    assert set(ops.systems) == before
    assert factorized == [set()] * (1 + len(ALPHAS))


def test_sweep_validates_alphas(ops1d, grid, spec1d):
    q = np.zeros((grid.n_steps + 1, ops1d.gamma2_nodes.size))
    with pytest.raises(ValueError):
        alpha_sweep(ops1d, spec1d, grid, (10.0, 10.0), q=q)
    with pytest.raises(ValueError):
        alpha_sweep(ops1d, spec1d, grid, (0.5, 10.0), q=q)


def decay_setup(ops, grid, start_at_steady):
    rng = np.random.default_rng(107)
    g_row = np.full(ops.n_nodes, 0.5)
    q_row = np.full(ops.gamma2_nodes.size, -0.25)
    b = np.zeros(ops.dirichlet_nodes.size)
    u_inf = solve_elliptic_dirichlet(ops, g_row, q_row, b)
    v0 = u_inf.copy()
    if not start_at_steady:
        x = ops.mesh.node_coords[:, 0]
        v0 = v0 + np.sin(np.pi * x)
        v0[ops.dirichlet_nodes] = b
    spec = ProblemSpec(
        source=np.tile(g_row, (grid.n_steps + 1, 1)),
        boundary_temp=b,
        initial_temp=v0,
        target=np.zeros((grid.n_steps + 1, ops.n_nodes)),
    )
    return spec, np.tile(q_row, (grid.n_steps + 1, 1)), u_inf


def test_decay_steady_start(ops1d):
    grid = TimeGrid(t_final=5.0, n_steps=100)
    spec, q, _ = decay_setup(ops1d, grid, start_at_steady=True)
    result = decay_study(ops1d, spec, q, grid)
    assert all(r.err_h <= 1e-12 for r in result.rows)


def test_decay_bound_and_rate(ops1d):
    grid = TimeGrid(t_final=5.0, n_steps=100)
    spec, q, _ = decay_setup(ops1d, grid, start_at_steady=False)
    result = decay_study(ops1d, spec, q, grid)
    assert all(r.err_h <= 1.05 * r.bound for r in result.rows)
    assert result.fitted_rate >= result.coercivity / 2.0


def test_decay_rejects_time_varying_data(ops1d):
    grid = TimeGrid(t_final=5.0, n_steps=100)
    spec, q, _ = decay_setup(ops1d, grid, start_at_steady=False)
    spec.source[3] += 1.0
    with pytest.raises(ValueError):
        decay_study(ops1d, spec, q, grid)


def test_decay_rejects_coarse_grid(ops1d):
    grid = TimeGrid(t_final=5.0, n_steps=10)
    spec, q, _ = decay_setup(ops1d, grid, start_at_steady=False)
    with pytest.raises(ValueError, match="coarse"):
        decay_study(ops1d, spec, q, grid)


def test_forced_decay_reduces_to_constant_case(ops1d):
    grid = TimeGrid(t_final=5.0, n_steps=100)
    spec, q, _ = decay_setup(ops1d, grid, start_at_steady=False)
    plain = decay_study(ops1d, spec, q, grid)
    forced = decay_with_forcing(ops1d, spec, q, grid,
                                g_inf=spec.source[1], q_inf=q[1])
    # constant forcing: the weighted integrals vanish and the bound is the
    # pure exponential on the squared norm
    for pr, fr in zip(plain.rows, forced.rows):
        assert np.isclose(fr.err_h, pr.err_h)
        assert fr.bound <= pr.bound + 1e-12


def test_forced_decay_bound_holds(ops1d):
    # exponentially settling source, constant flux: the squared-distance bound
    # holds at every step with the 5 percent slack
    grid = TimeGrid(t_final=5.0, n_steps=100)
    spec, q, u_inf = decay_setup(ops1d, grid, start_at_steady=False)
    g_inf = spec.source[1].copy()
    times = grid.times()
    spec.source = (g_inf[None, :] + np.exp(-times)[:, None]
                   * np.ones(ops1d.n_nodes)[None, :])
    assert ops1d.lambda0 < 2.0  # the weighted source gap must stay integrable
    result = decay_with_forcing(ops1d, spec, q, grid, g_inf=g_inf, q_inf=q[1])
    for r in result.rows:
        assert r.err_h ** 2 <= 1.05 * r.bound ** 2


def test_exp_forcing_quadrature_limits():
    rec = exp_forcing_quadrature(t_max=10.0, dt=1e-3)
    assert rec["pointwise_value_at_tmax"] <= 1e-8
    assert abs(rec["cumulative_integral_at_tmax"] - 0.5) <= 2e-3
    finer = exp_forcing_quadrature(t_max=10.0, dt=5e-4)
    err = abs(rec["cumulative_integral_at_tmax"] - 0.5)
    err_fine = abs(finer["cumulative_integral_at_tmax"] - 0.5)
    assert 0.4 <= err_fine / err <= 0.6  # first-order quadrature

    with pytest.raises(ValueError):
        exp_forcing_quadrature(t_max=5.0, dt=1e-3)


def test_sweep_deterministic_rerun(ops1d, grid):
    spec = make_spec(ops1d, grid)
    rows1 = alpha_sweep(ops1d, spec, grid, ALPHAS, q="optimize", tol=1e-10)
    rows2 = alpha_sweep(ops1d, spec, grid, ALPHAS, q="optimize", tol=1e-10)
    for a, b in zip(rows1, rows2):
        assert a == b
