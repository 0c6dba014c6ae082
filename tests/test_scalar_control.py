import math
from dataclasses import replace

import numpy as np
import pytest

from parctrl import fem_core
from parctrl.fem_core import BoundaryControl, TimeField
from parctrl.optimal_control import optimize_boundary, tracking_cost
from parctrl.scalar_control import (
    building_blocks,
    monotonicity_check,
    scalar_cost,
    scalar_optimum,
)
from parctrl.state_solvers import solve_parabolic

from conftest import make_spec, rel_err


def problems(robin_alpha):
    # (variant, alpha) of S, S_alpha, P and P_alpha
    return [("parabolic", math.inf), ("parabolic", robin_alpha),
            ("elliptic", math.inf), ("elliptic", robin_alpha)]


def over_problems(robin_alpha):
    # parametrized over the four problems, with their config names as ids
    return pytest.mark.parametrize(
        "variant,alpha", problems(robin_alpha),
        ids=["parabolic", "parabolic_robin", "elliptic", "elliptic_robin"])


def unit_q0(ops, grid, value=1.0):
    return BoundaryControl.constant_in_time(
        grid, np.full(ops.gamma2_nodes.size, value))


def fit_vertex(y_minus, y_zero, y_plus):
    # parabola through (-1, y_minus), (0, y_zero), (1, y_plus)
    a = 0.5 * (y_plus + y_minus) - y_zero
    b = 0.5 * (y_plus - y_minus)
    return -b / (2.0 * a)


def test_recombination_matches_direct_solve(ops1d, grid):
    spec = make_spec(ops1d, grid)
    q0 = unit_q0(ops1d, grid)
    u_b, u_q0, u_g = building_blocks(ops1d, spec, q0, grid, "parabolic")
    for lam in (0.0, 1.0, -0.7):
        q = BoundaryControl(lam * q0.values)
        direct = solve_parabolic(ops1d, spec, q, grid)
        combo = u_b.values + lam * u_q0.values + u_g.values
        scale = max(np.max(np.abs(direct.values)), 1.0)
        assert np.max(np.abs(combo - direct.values)) < 1e-12 * scale


def test_flux_block_scales_linearly(ops1d, grid, spec1d):
    q0 = unit_q0(ops1d, grid)
    _, u_q0, _ = building_blocks(ops1d, spec1d, q0, grid, "parabolic")
    q0_double = BoundaryControl(2.0 * q0.values)
    _, u_q0_double, _ = building_blocks(ops1d, spec1d, q0_double, grid, "parabolic")
    assert np.max(np.abs(u_q0_double.values - 2.0 * u_q0.values)) < 1e-12


def test_zero_direction_rejected(ops1d, grid, spec1d):
    q0 = BoundaryControl.zeros(grid, ops1d.gamma2_nodes.size)
    for variant, alpha in problems(5.0):
        with pytest.raises(ValueError):
            building_blocks(ops1d, spec1d, q0, grid, variant, alpha)


def bad_inputs(ops, grid):
    # (spec, q0) pairs that validation rejects: a target with 3 rows where
    # N+1 are due together with an initial state off the GAMMA1 datum, and a
    # 4-row q0
    spec = make_spec(ops, grid)
    initial = spec.initial_temp.copy()
    initial[ops.dirichlet_nodes] = 1.0
    short_target = replace(spec, target=TimeField(spec.target.values[:3]),
                           initial_temp=initial)
    q0 = unit_q0(ops, grid)
    return [(short_target, q0), (spec, BoundaryControl(q0.values[:4]))]


@pytest.mark.parametrize("variant", ["parabolic", "elliptic"])
def test_both_kinds_validate_their_input(ops1d, grid, variant):
    # the steady scalar_cost used to read only the terminal rows and return
    # a cost for these inputs
    for spec, q0 in bad_inputs(ops1d, grid):
        with pytest.raises(ValueError):
            scalar_cost(ops1d, spec, q0, grid, variant, 0.5)
        with pytest.raises(ValueError):
            scalar_optimum(ops1d, spec, q0, grid, variant)
        with pytest.raises(ValueError):
            building_blocks(ops1d, spec, q0, grid, variant)


@pytest.mark.parametrize("function", ["building_blocks", "scalar_optimum",
                                      "scalar_cost", "monotonicity_check"])
def test_checks_come_before_any_factorization(grid, function):
    # an unknown variant is named before the input is validated, and invalid
    # input raises before any system is factorized
    ops = fem_core.assemble(fem_core.build_interval_mesh(16, 0.0, 1.0, "left"))
    spec, q0 = bad_inputs(ops, grid)[0]
    g = TimeField.zeros(grid, ops.n_nodes)
    calls = {
        "building_blocks": lambda v: building_blocks(ops, spec, q0, grid, v),
        "scalar_optimum": lambda v: scalar_optimum(ops, spec, q0, grid, v),
        "scalar_cost": lambda v: scalar_cost(ops, spec, q0, grid, v, 0.5),
        "monotonicity_check": lambda v: monotonicity_check(
            ops, spec, grid, 1.0, 0.0, g, g, q0, v),
    }
    with pytest.raises(ValueError, match="unknown variant 'steady'"):
        calls[function]("steady")
    for variant in ("parabolic", "elliptic"):
        with pytest.raises(ValueError, match="target has shape"):
            calls[function](variant)
    assert ops.systems == {}


@pytest.mark.parametrize("alpha", [math.inf, 5.0])
def test_parabolic_scalar_cost_is_the_tracking_cost(ops1d, grid, spec1d, alpha):
    # the direct route is the tracking cost of the full solve, bit for bit
    rng = np.random.default_rng(11)
    q0 = BoundaryControl(rng.standard_normal((grid.n_steps + 1,
                                              ops1d.gamma2_nodes.size)))
    for lam in (-0.4, 1.3):
        direct = tracking_cost(ops1d, spec1d, BoundaryControl(lam * q0.values),
                               grid, alpha)
        assert scalar_cost(ops1d, spec1d, q0, grid, "parabolic", lam, alpha) == direct


def test_matched_target_gives_zero_minimizer(ops1d, grid):
    spec = make_spec(ops1d, grid)
    q0 = unit_q0(ops1d, grid)
    u_b, _, u_g = building_blocks(ops1d, spec, q0, grid, "parabolic")
    spec.target = TimeField(u_b.values + u_g.values)
    coeffs = scalar_optimum(ops1d, spec, q0, grid, "parabolic")
    assert abs(coeffs.linear) < 1e-13
    assert abs(coeffs.lambda_opt) < 1e-13


@over_problems(3.0)
def test_three_point_fit_matches_closed_form(ops1d, grid, variant, alpha):
    spec = make_spec(ops1d, grid)
    q0 = unit_q0(ops1d, grid)
    coeffs = scalar_optimum(ops1d, spec, q0, grid, variant, alpha)
    ys = [scalar_cost(ops1d, spec, q0, grid, variant, lam, alpha)
          for lam in (-1.0, 0.0, 1.0)]
    vertex = fit_vertex(*ys)
    assert rel_err(vertex, coeffs.lambda_opt) < 1e-10
    # the quadratic evaluated through the coefficients matches the solves too
    for lam, y in zip((-1.0, 0.0, 1.0), ys):
        assert rel_err(coeffs.value(lam), y) < 1e-10


@over_problems(3.0)
def test_minimality_and_discriminant(ops1d, grid, variant, alpha):
    spec = make_spec(ops1d, grid)
    q0 = unit_q0(ops1d, grid)
    coeffs = scalar_optimum(ops1d, spec, q0, grid, variant, alpha)
    best = coeffs.lambda_opt
    h_best = scalar_cost(ops1d, spec, q0, grid, variant, best, alpha)
    assert h_best <= scalar_cost(ops1d, spec, q0, grid, variant, best + 0.1, alpha)
    assert h_best <= scalar_cost(ops1d, spec, q0, grid, variant, best - 0.1, alpha)
    assert coeffs.discriminant < 0.0


def test_restricted_optimum_bounded_by_full_optimum(ops1d, grid):
    spec = make_spec(ops1d, grid)
    q0 = unit_q0(ops1d, grid)
    coeffs = scalar_optimum(ops1d, spec, q0, grid, "parabolic")
    full = optimize_boundary(ops1d, spec, grid, tol=1e-10)
    assert coeffs.value(coeffs.lambda_opt) >= full.cost - 1e-12


def test_minimizer_scaling_invariance(ops1d, grid, spec1d):
    q0 = unit_q0(ops1d, grid)
    coeffs = scalar_optimum(ops1d, spec1d, q0, grid, "parabolic")
    for c in (2.0, -0.5):
        scaled = BoundaryControl(c * q0.values)
        coeffs_c = scalar_optimum(ops1d, spec1d, scaled, grid, "parabolic")
        assert rel_err(coeffs_c.lambda_opt, coeffs.lambda_opt / c) < 1e-12
        # the optimal product lam * q0 is invariant
        assert rel_err(coeffs_c.lambda_opt * c, coeffs.lambda_opt) < 1e-12


def test_monotonicity_identical_inputs(ops1d, grid, spec1d):
    q0 = unit_q0(ops1d, grid)
    g = TimeField.zeros(grid, ops1d.n_nodes)
    rec = monotonicity_check(ops1d, spec1d, grid, 1.0, 1.0, g, g, q0, "parabolic")
    assert rec["holds"]
    assert rec["max_violation"] <= 1e-14


@over_problems(2.0)
def test_monotonicity_ordered_data(ops1d, grid, variant, alpha):
    spec = make_spec(ops1d, grid, source_value=0.0)
    q0 = unit_q0(ops1d, grid)
    g1 = TimeField.zeros(grid, ops1d.n_nodes)
    g2 = TimeField.constant_in_time(grid, np.ones(ops1d.n_nodes))
    rec = monotonicity_check(ops1d, spec, grid, 1.0, 0.0, g1, g2, q0, variant,
                             alpha=alpha)
    assert rec["holds"], rec


def test_monotonicity_2d_lumped(ops2d, grid):
    spec = make_spec(ops2d, grid, source_value=0.0)
    q0 = unit_q0(ops2d, grid)
    g1 = TimeField.zeros(grid, ops2d.n_nodes)
    g2 = TimeField.constant_in_time(grid, np.ones(ops2d.n_nodes))
    for alpha in (math.inf, 50.0):
        rec = monotonicity_check(ops2d, spec, grid, 0.5, -0.5, g1, g2, q0,
                                 "parabolic", alpha=alpha)
        assert rec["holds"], (alpha, rec)


def test_monotonicity_sign_reversed_direction(ops1d, grid):
    # negative flux direction flips the admissible ordering of the scales
    spec = make_spec(ops1d, grid, source_value=0.0)
    q0 = unit_q0(ops1d, grid, value=-1.0)
    g = TimeField.zeros(grid, ops1d.n_nodes)
    rec = monotonicity_check(ops1d, spec, grid, 0.0, 1.0, g, g, q0, "parabolic")
    assert rec["holds"]


def test_monotonicity_robin_ordered_boundary_data(ops1d, grid):
    spec_lo = make_spec(ops1d, grid, source_value=0.0)
    spec_hi = make_spec(ops1d, grid, source_value=0.0)
    spec_hi.boundary_temp = spec_hi.boundary_temp + 0.5
    spec_hi.initial_temp = spec_hi.initial_temp + 0.5
    q0 = unit_q0(ops1d, grid)
    g = TimeField.zeros(grid, ops1d.n_nodes)
    rec = monotonicity_check(ops1d, spec_lo, grid, 1.0, 0.0, g, g, q0,
                             "parabolic", spec_upper=spec_hi, alpha=4.0)
    assert rec["holds"]


def test_monotonicity_names_failing_hypothesis(ops1d, grid, spec1d):
    q0 = unit_q0(ops1d, grid)
    g = TimeField.zeros(grid, ops1d.n_nodes)
    with pytest.raises(ValueError, match="lam2 <= lam1"):
        monotonicity_check(ops1d, spec1d, grid, 0.0, 1.0, g, g, q0, "parabolic")
    g_big = TimeField.constant_in_time(grid, np.ones(ops1d.n_nodes))
    with pytest.raises(ValueError, match="g1 <= g2"):
        monotonicity_check(ops1d, spec1d, grid, 1.0, 0.0, g_big, g, q0, "parabolic")
    mixed = unit_q0(ops1d, grid)
    mixed.values[1] = 0.0
    with pytest.raises(ValueError, match="one strict sign"):
        monotonicity_check(ops1d, spec1d, grid, 1.0, 0.0, g, g, mixed, "parabolic")


def test_coefficient_per_horizon_gaps_shrink(ops1d):
    # for time-constant data the per-unit-time transient coefficients tend to
    # the steady ones as the horizon T grows: doubling T leaves at most 0.6
    # of each gap (measured 0.50-0.56 for the quadratic, 0.22-0.50 for the
    # linear coefficient, tending to the 1/T rate's 0.5)
    from parctrl.fem_core import TimeGrid

    gaps = []
    for t_final in (1.0, 2.0, 4.0, 8.0):
        grid = TimeGrid(t_final=t_final, n_steps=int(40 * t_final))
        spec = make_spec(ops1d, grid, source_value=0.4, bump=0.0)
        q0 = unit_q0(ops1d, grid)
        c_par = scalar_optimum(ops1d, spec, q0, grid, "parabolic")
        c_ell = scalar_optimum(ops1d, spec, q0, grid, "elliptic")
        gaps.append((abs(c_par.quadratic / t_final - c_ell.quadratic),
                     abs(c_par.linear / t_final - c_ell.linear)))
    for (quad, lin), (quad2, lin2) in zip(gaps, gaps[1:]):
        assert quad2 <= 0.6 * quad
        assert lin2 <= 0.6 * lin
