import math

import numpy as np
import pytest

from parctrl.fem_core import (
    BoundaryControl,
    TimeField,
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
from parctrl.state_solvers import solve_parabolic, variant_alpha

from conftest import make_spec, random_control, random_field, rel_err


def zero_q(ops, grid):
    return BoundaryControl.zeros(grid, ops.gamma2_nodes.size)


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


@pytest.mark.parametrize("variant", ["dirichlet", "robin"])
def test_convexity_identity(ops1d, grid, variant):
    # the convex-combination defect of the cost equals the quadratic form of
    # the difference exactly, and is bounded below by the penalty part
    rng = np.random.default_rng(67)
    spec = make_spec(ops1d, grid, flux_penalty=0.9)
    alpha = variant_alpha(spec, variant)
    for _ in range(5):
        q1 = random_control(rng, grid, ops1d)
        q2 = random_control(rng, grid, ops1d)
        t = rng.uniform(0.05, 0.95)
        mix = BoundaryControl((1 - t) * q2.values + t * q1.values)
        lhs = ((1 - t) * tracking_cost(ops1d, spec, q2, grid, variant)
               + t * tracking_cost(ops1d, spec, q1, grid, variant)
               - tracking_cost(ops1d, spec, mix, grid, variant))
        u1 = solve_parabolic(ops1d, spec, q1, grid, alpha)
        u2 = solve_parabolic(ops1d, spec, q2, grid, alpha)
        du = TimeField(u2.values - u1.values)
        dq = BoundaryControl(q2.values - q1.values)
        rhs = 0.5 * t * (1 - t) * (inner_domain_time(grid, ops1d, du, du)
                                   + 0.9 * inner_boundary_time(grid, ops1d, dq, dq))
        assert rel_err(lhs, rhs) < 1e-10
        strict = 0.5 * 0.9 * t * (1 - t) * inner_boundary_time(grid, ops1d, dq, dq)
        assert lhs >= strict - 1e-12 * max(abs(lhs), 1.0)


@pytest.mark.parametrize("variant", ["dirichlet", "robin"])
@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_gradient_matches_central_difference(ops1d, grid, variant, eps):
    # the cost is quadratic, so central differences are exact up to roundoff
    rng = np.random.default_rng(71)
    spec = make_spec(ops1d, grid)
    q = random_control(rng, grid, ops1d)
    grad = tracking_gradient(ops1d, spec, q, grid, variant)
    for _ in range(3):
        eta = random_control(rng, grid, ops1d)
        plus = BoundaryControl(q.values + eps * eta.values)
        minus = BoundaryControl(q.values - eps * eta.values)
        fd = (tracking_cost(ops1d, spec, plus, grid, variant)
              - tracking_cost(ops1d, spec, minus, grid, variant)) / (2 * eps)
        pairing = inner_boundary_time(grid, ops1d, grad, eta)
        assert rel_err(fd, pairing) < 1e-9


def test_gradient_zero_at_global_minimum(ops1d, grid):
    spec = make_spec(ops1d, grid)
    spec.target = solve_parabolic(ops1d, spec, zero_q(ops1d, grid), grid)
    grad = tracking_gradient(ops1d, spec, zero_q(ops1d, grid), grid)
    assert norm_boundary_time(grid, ops1d, grad) == 0.0


@pytest.mark.parametrize("variant", ["dirichlet", "robin"])
def test_optimize_boundary_trivial_target(ops1d, grid, variant):
    spec = make_spec(ops1d, grid)
    spec.target = solve_parabolic(ops1d, spec, zero_q(ops1d, grid), grid,
                                  variant_alpha(spec, variant))
    res = optimize_boundary(ops1d, spec, grid, tol=1e-10, variant=variant)
    assert res.converged
    assert np.max(np.abs(res.q_opt.values)) == 0.0
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
    spec = make_spec(ops1d, grid, alpha=5.0)
    res = optimize_boundary(ops1d, spec, grid, tol=1e-10, variant="robin")
    assert res.converged
    assert res.optimality_residual <= 1e-10
    grad = tracking_gradient(ops1d, spec, res.q_opt, grid, "robin")
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

    zero_g = TimeField.zeros(grid, ops1d.n_nodes)
    spec.target = solve_parabolic(ops1d, replace(spec, source=zero_g), q_fixed, grid)
    res = optimize_distributed(ops1d, spec, grid, q_fixed, tol=1e-10)
    assert res.converged
    assert np.max(np.abs(res.g_opt.values)) == 0.0


def test_optimize_simultaneous_trivial_target(ops1d, grid):
    from dataclasses import replace

    spec = make_spec(ops1d, grid)
    zero_g = TimeField.zeros(grid, ops1d.n_nodes)
    spec.target = solve_parabolic(ops1d, replace(spec, source=zero_g),
                                  zero_q(ops1d, grid), grid)
    res = optimize_simultaneous(ops1d, spec, grid, tol=1e-10)
    assert res.converged
    assert np.max(np.abs(res.q_opt.values)) == 0.0
    assert np.max(np.abs(res.g_opt.values)) == 0.0


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
    gap_g = norm_domain_time(grid, ops1d,
                             TimeField(dist.g_opt.values - sim.g_opt.values))
    assert gap_g <= 10 * tol * max(1.0, norm_domain_time(grid, ops1d, sim.g_opt))

    from dataclasses import replace

    bnd = optimize_boundary(ops1d, replace(spec, source=sim.g_opt), grid, tol=tol)
    gap_q = norm_boundary_time(grid, ops1d,
                               BoundaryControl(bnd.q_opt.values - sim.q_opt.values))
    assert gap_q <= 10 * tol * max(1.0, norm_boundary_time(grid, ops1d, sim.q_opt))


@pytest.mark.parametrize("variant,alpha", [("dirichlet", 5.0), ("robin", 5.0),
                                           ("robin", 0.5)])
def test_control_gap_estimate_holds(ops1d, grid, variant, alpha):
    # alpha below one exercises the scaled coercivity constant of the
    # transfer form
    rng = np.random.default_rng(89)
    spec = make_spec(ops1d, grid, alpha=alpha)
    for _ in range(3):
        g_fixed = random_field(rng, grid, ops1d, scale=0.5)
        rec = control_gap_estimate(ops1d, spec, grid, g_fixed, tol=1e-11,
                                   variant=variant)
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


def _optimize_with(control, ops, spec, grid, variant, q_fixed):
    if control == "boundary":
        return optimize_boundary(ops, spec, grid, tol=1e-10, variant=variant)
    if control == "distributed":
        return optimize_distributed(ops, spec, grid, q_fixed, tol=1e-10,
                                    variant=variant)
    return optimize_simultaneous(ops, spec, grid, tol=1e-10, variant=variant)


@pytest.mark.parametrize("variant", ["dirichlet", "robin"])
@pytest.mark.parametrize("control", ["boundary", "distributed", "simultaneous"])
def test_optimizer_control_variant_matrix(ops1d, grid, control, variant):
    from dataclasses import replace

    rng = np.random.default_rng(89)
    spec = make_spec(ops1d, grid, alpha=5.0)
    q_fixed = random_control(rng, grid, ops1d, scale=0.5)
    res = _optimize_with(control, ops1d, spec, grid, variant, q_fixed)
    assert res.converged
    assert res.optimality_residual <= 1e-10

    # the reported cost is the cost of the returned controls, recomputed from
    # a fresh forward solve
    g = res.g_opt if res.g_opt is not None else spec.source
    q = res.q_opt if res.q_opt is not None else q_fixed
    u = solve_parabolic(ops1d, replace(spec, source=g), q, grid,
                        variant_alpha(spec, variant))
    misfit = TimeField(u.values - spec.target.values)
    fresh = (0.5 * inner_domain_time(grid, ops1d, misfit, misfit)
             + 0.5 * spec.flux_penalty * inner_boundary_time(grid, ops1d, q, q))
    if res.g_opt is not None:
        fresh += 0.5 * spec.source_penalty * inner_domain_time(grid, ops1d, g, g)
    assert rel_err(res.cost, fresh) < 1e-9

    # an infinite transfer coefficient is the Dirichlet problem, bit for bit
    spec_inf = replace(spec, transfer_coeff=math.inf)
    robin = _optimize_with(control, ops1d, spec_inf, grid, "robin", q_fixed)
    dirichlet = _optimize_with(control, ops1d, spec_inf, grid, "dirichlet", q_fixed)
    for name in ("u_opt", "p_opt", "g_opt", "q_opt"):
        a, b = getattr(robin, name), getattr(dirichlet, name)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.values.tobytes() == b.values.tobytes()
    assert robin.cost == dirichlet.cost

    with pytest.raises(ValueError, match="'neumann'"):
        _optimize_with(control, ops1d, spec, grid, "neumann", q_fixed)
