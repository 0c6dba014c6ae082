import math

import numpy as np
import pytest

from parctrl.fem_core import (
    inner_boundary_time,
    inner_domain_time,
    norm_boundary_time,
    norm_domain_time,
)
from parctrl.optimal_control import (
    control_gap_estimate,
    optimize_boundary,
    optimize_distributed,
    optimize_simultaneous,
    tracking_cost,
    tracking_gradient,
)
from parctrl.state_solvers import solve_parabolic

from conftest import make_spec, random_control, random_field, rel_err


def zero_q(ops, grid):
    return np.zeros((grid.n_steps + 1, ops.gamma2_nodes.size))


def test_cost_zero_at_perfect_tracking(ops1d, grid):
    spec = make_spec(ops1d, grid)
    spec.target = solve_parabolic(ops1d, spec, zero_q(ops1d, grid), grid)
    assert tracking_cost(ops1d, spec, zero_q(ops1d, grid), grid) == 0.0


def test_cost_dominates_penalty_term(ops1d, grid):
    rng = np.random.default_rng(61)
    spec = make_spec(ops1d, grid, flux_penalty=0.7)
    for _ in range(5):
        q = random_control(rng, grid, ops1d)
        j = tracking_cost(ops1d, spec, q, grid)
        assert j >= 0.5 * 0.7 * inner_boundary_time(grid, ops1d, q, q)


@pytest.mark.parametrize("alpha", [math.inf, 5.0], ids=["dirichlet", "robin"])
def test_convexity_identity(ops1d, grid, alpha):
    # the convex-combination defect of the cost equals the quadratic form of
    # the difference exactly, and is bounded below by the penalty part
    rng = np.random.default_rng(67)
    spec = make_spec(ops1d, grid, flux_penalty=0.9)
    for _ in range(5):
        q1 = random_control(rng, grid, ops1d)
        q2 = random_control(rng, grid, ops1d)
        t = rng.uniform(0.05, 0.95)
        mix = (1 - t) * q2 + t * q1
        lhs = ((1 - t) * tracking_cost(ops1d, spec, q2, grid, alpha)
               + t * tracking_cost(ops1d, spec, q1, grid, alpha)
               - tracking_cost(ops1d, spec, mix, grid, alpha))
        u1 = solve_parabolic(ops1d, spec, q1, grid, alpha)
        u2 = solve_parabolic(ops1d, spec, q2, grid, alpha)
        du = u2 - u1
        dq = q2 - q1
        rhs = 0.5 * t * (1 - t) * (inner_domain_time(grid, ops1d, du, du)
                                   + 0.9 * inner_boundary_time(grid, ops1d, dq, dq))
        assert rel_err(lhs, rhs) < 1e-10
        strict = 0.5 * 0.9 * t * (1 - t) * inner_boundary_time(grid, ops1d, dq, dq)
        assert lhs >= strict - 1e-12 * max(abs(lhs), 1.0)


@pytest.mark.parametrize("alpha", [math.inf, 5.0], ids=["dirichlet", "robin"])
@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_gradient_matches_central_difference(ops1d, grid, alpha, eps):
    # the cost is quadratic, so central differences are exact up to roundoff
    rng = np.random.default_rng(71)
    spec = make_spec(ops1d, grid)
    q = random_control(rng, grid, ops1d)
    grad = tracking_gradient(ops1d, spec, q, grid, alpha)
    for _ in range(3):
        eta = random_control(rng, grid, ops1d)
        plus = q + eps * eta
        minus = q - eps * eta
        fd = (tracking_cost(ops1d, spec, plus, grid, alpha)
              - tracking_cost(ops1d, spec, minus, grid, alpha)) / (2 * eps)
        pairing = inner_boundary_time(grid, ops1d, grad, eta)
        assert rel_err(fd, pairing) < 1e-9


def test_gradient_zero_at_global_minimum(ops1d, grid):
    spec = make_spec(ops1d, grid)
    spec.target = solve_parabolic(ops1d, spec, zero_q(ops1d, grid), grid)
    grad = tracking_gradient(ops1d, spec, zero_q(ops1d, grid), grid)
    assert norm_boundary_time(grid, ops1d, grad) == 0.0


@pytest.mark.parametrize("alpha", [math.inf, 5.0], ids=["dirichlet", "robin"])
def test_optimize_boundary_trivial_target(ops1d, grid, alpha):
    spec = make_spec(ops1d, grid)
    spec.target = solve_parabolic(ops1d, spec, zero_q(ops1d, grid), grid, alpha)
    res = optimize_boundary(ops1d, spec, grid, tol=1e-10, alpha=alpha)
    assert res.converged
    assert np.max(np.abs(res.q_opt)) == 0.0
    assert res.cost == 0.0


def test_optimize_boundary_beats_generating_control(ops1d, grid):
    rng = np.random.default_rng(73)
    spec = make_spec(ops1d, grid)
    q_star = random_control(rng, grid, ops1d)
    spec.target = solve_parabolic(ops1d, spec, q_star, grid)
    res = optimize_boundary(ops1d, spec, grid, tol=1e-10)
    assert res.converged
    assert res.optimality_residual <= 1e-10
    assert res.cost <= tracking_cost(ops1d, spec, q_star, grid)


def test_optimize_boundary_certificates(ops1d, grid):
    rng = np.random.default_rng(79)
    spec = make_spec(ops1d, grid)
    res = optimize_boundary(ops1d, spec, grid, tol=1e-10)
    assert res.converged and res.iterations <= 500
    # global minimality probes
    for _ in range(20):
        q = random_control(rng, grid, ops1d)
        assert res.cost <= tracking_cost(ops1d, spec, q, grid) + 1e-12
    # directional optimality certificate
    grad = tracking_gradient(ops1d, spec, res.q_opt, grid)
    for _ in range(100):
        eta = random_control(rng, grid, ops1d)
        pairing = inner_boundary_time(grid, ops1d, grad, eta)
        assert abs(pairing) <= 1e-9 * norm_boundary_time(grid, ops1d, eta)
    # CG tracks a non-increasing cost
    hist = res.cost_history
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
    # the logged final cost matches a fresh evaluation
    assert rel_err(hist[-1], tracking_cost(ops1d, spec, res.q_opt, grid)) < 1e-9


def test_optimize_boundary_robin_variant(ops1d, grid):
    spec = make_spec(ops1d, grid)
    res = optimize_boundary(ops1d, spec, grid, tol=1e-10, alpha=5.0)
    assert res.converged
    assert res.optimality_residual <= 1e-10
    grad = tracking_gradient(ops1d, spec, res.q_opt, grid, 5.0)
    assert norm_boundary_time(grid, ops1d, grad) <= 1e-10


def test_optimize_boundary_iteration_cap(ops1d, grid):
    spec = make_spec(ops1d, grid)
    res = optimize_boundary(ops1d, spec, grid, tol=1e-13, max_iter=1)
    assert not res.converged
    assert res.iterations == 1
    assert res.q_opt is not None  # best iterate still returned


def test_optimize_distributed(ops1d, grid):
    rng = np.random.default_rng(83)
    spec = make_spec(ops1d, grid)
    q_fixed = random_control(rng, grid, ops1d, scale=0.3)
    res = optimize_distributed(ops1d, spec, grid, q_fixed, tol=1e-10)
    assert res.converged
    assert res.optimality_residual <= 1e-10
    # minimality against random probes of the energy control
    base_cost = res.cost
    for _ in range(10):
        g = random_field(rng, grid, ops1d, scale=0.5)
        from dataclasses import replace

        probe_spec = replace(spec, source=g)
        probe_cost = (tracking_cost(ops1d, probe_spec, q_fixed, grid)
                      + 0.5 * spec.source_penalty * inner_domain_time(grid, ops1d, g, g))
        assert base_cost <= probe_cost + 1e-12


def test_optimize_distributed_trivial_target(ops1d, grid):
    # target the zero-energy state at the same fixed flux: the optimal energy
    # control is exactly zero
    rng = np.random.default_rng(85)
    spec = make_spec(ops1d, grid)
    q_fixed = random_control(rng, grid, ops1d, scale=0.4)
    from dataclasses import replace

    zero_g = np.zeros((grid.n_steps + 1, ops1d.n_nodes))
    spec.target = solve_parabolic(ops1d, replace(spec, source=zero_g), q_fixed, grid)
    res = optimize_distributed(ops1d, spec, grid, q_fixed, tol=1e-10)
    assert res.converged
    assert np.max(np.abs(res.g_opt)) == 0.0


def test_optimize_simultaneous_trivial_target(ops1d, grid):
    from dataclasses import replace

    spec = make_spec(ops1d, grid)
    zero_g = np.zeros((grid.n_steps + 1, ops1d.n_nodes))
    spec.target = solve_parabolic(ops1d, replace(spec, source=zero_g),
                                  zero_q(ops1d, grid), grid)
    res = optimize_simultaneous(ops1d, spec, grid, tol=1e-10)
    assert res.converged
    assert np.max(np.abs(res.q_opt)) == 0.0
    assert np.max(np.abs(res.g_opt)) == 0.0


def test_simultaneous_sandwich_and_fixed_point(ops1d, grid):
    tol = 1e-11
    spec = make_spec(ops1d, grid)
    sim = optimize_simultaneous(ops1d, spec, grid, tol=tol)
    assert sim.converged

    # joint optimum never loses to the fixed-energy boundary optimum
    gap = control_gap_estimate(ops1d, spec, grid, spec.source, tol=tol)
    assert gap["simultaneous_cost"] <= gap["boundary_cost_plus_const"] + 1e-12

    # re-optimizing one control at the other's joint optimum reproduces it
    dist = optimize_distributed(ops1d, spec, grid, sim.q_opt, tol=tol)
    gap_g = norm_domain_time(grid, ops1d, dist.g_opt - sim.g_opt)
    assert gap_g <= 10 * tol * max(1.0, norm_domain_time(grid, ops1d, sim.g_opt))

    from dataclasses import replace

    bnd = optimize_boundary(ops1d, replace(spec, source=sim.g_opt), grid, tol=tol)
    gap_q = norm_boundary_time(grid, ops1d, bnd.q_opt - sim.q_opt)
    assert gap_q <= 10 * tol * max(1.0, norm_boundary_time(grid, ops1d, sim.q_opt))


@pytest.mark.parametrize("alpha", [math.inf, 5.0, 0.5],
                         ids=["dirichlet", "robin-5.0", "robin-0.5"])
def test_control_gap_estimate_holds(ops1d, grid, alpha):
    # alpha below one exercises the scaled coercivity constant of the
    # transfer form
    rng = np.random.default_rng(89)
    spec = make_spec(ops1d, grid)
    for _ in range(3):
        g_fixed = random_field(rng, grid, ops1d, scale=0.5)
        rec = control_gap_estimate(ops1d, spec, grid, g_fixed, tol=1e-11,
                                   alpha=alpha)
        assert rec["holds"]
        assert rec["lhs"] <= rec["rhs"] * (1 + 1e-9)


def test_control_gap_at_joint_energy_vanishes(ops1d, grid):
    tol = 1e-11
    spec = make_spec(ops1d, grid)
    sim = optimize_simultaneous(ops1d, spec, grid, tol=tol)
    rec = control_gap_estimate(ops1d, spec, grid, sim.g_opt, tol=tol)
    # both sides sit at optimizer-noise level here, so only the absolute
    # fixed-point gap is meaningful
    assert rec["lhs"] <= 1e-8


def test_control_gap_shrinks_with_heavier_penalty(ops1d, grid):
    rng = np.random.default_rng(97)
    g_fixed = random_field(rng, grid, ops1d, scale=0.5)
    spec = make_spec(ops1d, grid, flux_penalty=1.0)
    rec1 = control_gap_estimate(ops1d, spec, grid, g_fixed, tol=1e-11)
    spec10 = make_spec(ops1d, grid, flux_penalty=10.0)
    rec10 = control_gap_estimate(ops1d, spec10, grid, g_fixed, tol=1e-11)
    assert rec10["lhs"] <= rec1["lhs"]


def test_optimize_rejects_bad_tol(ops1d, grid, spec1d):
    with pytest.raises(ValueError):
        optimize_boundary(ops1d, spec1d, grid, tol=0.0)


def _optimize_with(control, ops, spec, grid, alpha, q_fixed):
    if control == "boundary":
        return optimize_boundary(ops, spec, grid, tol=1e-10, alpha=alpha)
    if control == "distributed":
        return optimize_distributed(ops, spec, grid, q_fixed, tol=1e-10, alpha=alpha)
    return optimize_simultaneous(ops, spec, grid, tol=1e-10, alpha=alpha)


@pytest.mark.parametrize("alpha", [math.inf, 5.0], ids=["dirichlet", "robin"])
@pytest.mark.parametrize("control", ["boundary", "distributed", "simultaneous"])
def test_optimizer_control_variant_matrix(ops1d, grid, control, alpha):
    from dataclasses import replace

    rng = np.random.default_rng(89)
    spec = make_spec(ops1d, grid)
    q_fixed = random_control(rng, grid, ops1d, scale=0.5)
    res = _optimize_with(control, ops1d, spec, grid, alpha, q_fixed)
    assert res.converged
    assert res.optimality_residual <= 1e-10

    # the reported cost is the cost of the returned controls, recomputed from
    # a fresh forward solve
    g = res.g_opt if res.g_opt is not None else spec.source
    q = res.q_opt if res.q_opt is not None else q_fixed
    u = solve_parabolic(ops1d, replace(spec, source=g), q, grid, alpha)
    misfit = u - spec.target
    fresh = (0.5 * inner_domain_time(grid, ops1d, misfit, misfit)
             + 0.5 * spec.flux_penalty * inner_boundary_time(grid, ops1d, q, q))
    if res.g_opt is not None:
        fresh += 0.5 * spec.source_penalty * inner_domain_time(grid, ops1d, g, g)
    assert rel_err(res.cost, fresh) < 1e-9


@pytest.mark.parametrize("control, alpha, bound", [
    ("simultaneous", 5.0, 10.0),
    ("boundary", math.inf, 5.5),
])
def test_optimizer_memory_is_bounded_in_trajectories(control, alpha, bound):
    # many steps on few nodes, so the (N+1)-row arrays dominate the traced
    # peak.  Besides the problem's data, CG holds x, r, d and hd, and each
    # application its state and adjoint (only a GAMMA2 trace when the source
    # is fixed); an extra gradient, kept state or dropped-too-late temporary
    # crosses the bound (12.8 and 6.5 arrays before the trajectories were cut)
    import tracemalloc

    from parctrl import fem_core
    from parctrl.fem_core import TimeGrid
    from parctrl.state_solvers import ParabolicStepper

    ops = fem_core.assemble(fem_core.build_rect_mesh(10, 10, {"left"}))
    grid = TimeGrid(t_final=1.0, n_steps=300)
    spec = make_spec(ops, grid)
    ParabolicStepper(ops, grid, alpha=alpha)  # the factorization, outside the trace
    tracemalloc.start()
    try:
        res = _optimize_with(control, ops, spec, grid, alpha, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged
    assert peak < bound * (grid.n_steps + 1) * ops.n_nodes * 8
