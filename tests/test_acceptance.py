"""Acceptance suite on the desk-scale benchmarks (1D with 256 cells, 2D with
32x32 cells, 200 time steps).  Run with -s to see one pass/fail line per
criterion."""

import json
import math
import os
from contextlib import contextmanager
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from parctrl.asymptotics import alpha_sweep, decay_study, decay_with_forcing, exp_forcing_quadrature
from parctrl.cli import main as cli_main
from parctrl.config import build_problem, load_config
from parctrl.fem_core import (
    BoundaryControl,
    TimeField,
    TimeGrid,
    inner_boundary_time,
    inner_domain_time,
    norm_boundary_time,
)
from parctrl.optimal_control import (
    control_gap_estimate,
    optimize_boundary,
    optimize_simultaneous,
    tracking_cost,
    tracking_gradient,
)
from parctrl.scalar_control import monotonicity_check, scalar_cost, scalar_optimum
from parctrl.state_solvers import (
    ProblemSpec,
    solve_adjoint,
    solve_elliptic_dirichlet,
    solve_parabolic,
)

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROBIN_ALPHA = 5.0


@contextmanager
def criterion(num, name):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"\nACCEPT-{num:02d} {name}: {'pass' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def bench1d():
    return build_problem(load_config(os.path.join(HERE, "configs", "benchmark1d.cfg")))


@pytest.fixture(scope="module")
def bench2d():
    return build_problem(load_config(os.path.join(HERE, "configs", "benchmark2d.cfg")))


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def rand_q(rng, grid, ops, scale=1.0):
    q = BoundaryControl.zeros(grid, ops.gamma2_nodes.size)
    q.values[1:] = scale * rng.standard_normal(q.values[1:].shape)
    return q


def test_criterion_01_adjoint_duality(bench1d, bench2d):
    with criterion(1, "adjoint duality, both variants, both benchmarks"):
        rng = np.random.default_rng(1001)
        for problem in (bench1d, bench2d):
            ops, spec, grid = problem.ops, problem.spec, problem.grid
            m = ops.gamma2_nodes.size
            for variant in ("dirichlet", "robin"):
                if variant == "dirichlet":
                    solve = lambda q: solve_parabolic(ops, spec, q, grid)
                    adjoint = lambda u: solve_adjoint(ops, u, spec.target, grid)
                else:
                    solve = lambda q: solve_parabolic(ops, spec, q, grid, ROBIN_ALPHA)
                    adjoint = lambda u: solve_adjoint(ops, u, spec.target, grid,
                                                      ROBIN_ALPHA)
                u_0 = solve(BoundaryControl.zeros(grid, m))
                for _ in range(20):
                    q, eta = rand_q(rng, grid, ops), rand_q(rng, grid, ops)
                    u_q, u_eta = solve(q), solve(eta)
                    p_q = adjoint(u_q)
                    lhs = inner_domain_time(grid, ops,
                                            TimeField(u_eta.values - u_0.values),
                                            TimeField(u_q.values - spec.target.values))
                    rhs = -inner_boundary_time(grid, ops, eta,
                                               BoundaryControl(p_q.values[:, ops.gamma2_nodes]))
                    assert rel_err(lhs, rhs) < 1e-10


def test_criterion_02_gradient_exactness(bench1d, bench2d):
    with criterion(2, "gradient matches central differences"):
        rng = np.random.default_rng(1002)
        for problem in (bench1d, bench2d):
            ops, spec, grid = problem.ops, problem.spec, problem.grid
            q = rand_q(rng, grid, ops)
            grad = tracking_gradient(ops, spec, q, grid)
            for _ in range(10):
                eta = rand_q(rng, grid, ops)
                pairing = inner_boundary_time(grid, ops, grad, eta)
                for eps in (1e-2, 1e-4):
                    plus = BoundaryControl(q.values + eps * eta.values)
                    minus = BoundaryControl(q.values - eps * eta.values)
                    fd = (tracking_cost(ops, spec, plus, grid)
                          - tracking_cost(ops, spec, minus, grid)) / (2 * eps)
                    assert rel_err(fd, pairing) < 1e-9


def test_criterion_03_optimality(bench1d, bench2d):
    with criterion(3, "boundary optimizer residual and global minimality"):
        rng = np.random.default_rng(1003)
        for problem in (bench1d, bench2d):
            ops, spec, grid = problem.ops, problem.spec, problem.grid
            res = optimize_boundary(ops, spec, grid, tol=1e-10, max_iter=200)
            assert res.converged and res.iterations <= 200
            assert res.optimality_residual <= 1e-10
            for _ in range(100):
                q = rand_q(rng, grid, ops)
                assert res.cost <= tracking_cost(ops, spec, q, grid) + 1e-12


def test_criterion_04_convexity_identity(bench1d, bench2d):
    with criterion(4, "convexity identity on random control pairs"):
        rng = np.random.default_rng(1004)
        for problem in (bench1d, bench2d):
            ops, spec, grid = problem.ops, problem.spec, problem.grid
            weight = spec.flux_penalty
            for _ in range(20):
                q1, q2 = rand_q(rng, grid, ops), rand_q(rng, grid, ops)
                t = rng.uniform(0.05, 0.95)
                mix = BoundaryControl((1 - t) * q2.values + t * q1.values)
                lhs = ((1 - t) * tracking_cost(ops, spec, q2, grid)
                       + t * tracking_cost(ops, spec, q1, grid)
                       - tracking_cost(ops, spec, mix, grid))
                u1 = solve_parabolic(ops, spec, q1, grid)
                u2 = solve_parabolic(ops, spec, q2, grid)
                du = TimeField(u2.values - u1.values)
                dq = BoundaryControl(q2.values - q1.values)
                rhs = 0.5 * t * (1 - t) * (
                    inner_domain_time(grid, ops, du, du)
                    + weight * inner_boundary_time(grid, ops, dq, dq))
                assert rel_err(lhs, rhs) < 1e-10


def test_criterion_05_alpha_convergence(bench1d):
    with criterion(5, "transfer-coefficient limit: states, adjoints, controls"):
        ops, spec, grid = bench1d.ops, bench1d.spec, bench1d.grid
        rows = alpha_sweep(ops, spec, grid, (10.0, 100.0, 1000.0, 10000.0),
                           q="optimize", tol=1e-11)
        assert all(r.converged for r in rows)
        for field in ("err_state", "err_adjoint", "err_control"):
            vals = [getattr(r, field) for r in rows]
            assert all(b < a for a, b in zip(vals, vals[1:])), field
            assert vals[-1] <= vals[0] / 10.0, field
        mismatches = [r.boundary_mismatch for r in rows]
        assert max(mismatches) <= 2.0 * mismatches[0]


def test_criterion_06_control_gap_estimate(bench1d):
    with criterion(6, "gap bound vs the simultaneous optimum and fixed point"):
        ops, spec, grid = bench1d.ops, bench1d.spec, bench1d.grid
        rng = np.random.default_rng(1006)
        for _ in range(5):
            g_fixed = TimeField.zeros(grid, ops.n_nodes)
            g_fixed.values[1:] = 0.5 * rng.standard_normal(g_fixed.values[1:].shape)
            rec = control_gap_estimate(ops, spec, grid, g_fixed, tol=1e-11)
            assert rec["holds"]
            # sandwich: joint optimum cost below the fixed-energy cost
            assert rec["simultaneous_cost"] <= rec["boundary_cost_plus_const"] + 1e-12
        sim = optimize_simultaneous(ops, spec, grid, tol=1e-11)
        rec = control_gap_estimate(ops, spec, grid, sim.g_opt, tol=1e-11)
        assert rec["lhs"] <= 1e-8


def test_criterion_07_closed_form_scalar_control(bench1d):
    with criterion(7, "closed-form scalar optimum in all four variants"):
        ops, spec, grid = bench1d.ops, bench1d.spec, bench1d.grid
        q0 = bench1d.q0
        for variant, alpha in product(("parabolic", "elliptic"), (math.inf, ROBIN_ALPHA)):
            coeffs = scalar_optimum(ops, spec, q0, grid, variant, alpha)
            ys = [scalar_cost(ops, spec, q0, grid, variant, lam, alpha)
                  for lam in (-1.0, 0.0, 1.0)]
            a = 0.5 * (ys[2] + ys[0]) - ys[1]
            b = 0.5 * (ys[2] - ys[0])
            vertex = -b / (2 * a)
            assert rel_err(vertex, coeffs.lambda_opt) < 1e-10, variant
            best = coeffs.lambda_opt
            h_best = scalar_cost(ops, spec, q0, grid, variant, best, alpha)
            assert h_best <= scalar_cost(ops, spec, q0, grid, variant, best + 0.1, alpha)
            assert h_best <= scalar_cost(ops, spec, q0, grid, variant, best - 0.1, alpha)
            assert coeffs.discriminant < 0.0, variant


def test_criterion_08_monotonicity(bench1d, bench2d):
    with criterion(8, "comparison principle under lumped mass"):
        for problem in (bench1d, bench2d):
            ops, grid = problem.ops, problem.grid
            n = ops.n_nodes
            base = ProblemSpec(
                source=TimeField.zeros(grid, n),
                boundary_temp=np.zeros(ops.dirichlet_nodes.size),
                initial_temp=np.zeros(n),
                target=TimeField.zeros(grid, n))
            q0 = BoundaryControl.constant_in_time(
                grid, np.ones(ops.gamma2_nodes.size))
            g1 = TimeField.zeros(grid, n)
            g2 = TimeField.constant_in_time(grid, np.ones(n))
            rec = monotonicity_check(ops, base, grid, 1.0, 0.0, g1, g2, q0,
                                     "parabolic")
            assert rec["holds"] and rec["max_violation"] <= 1e-12

            # ordered boundary data for the transfer-condition variant
            upper = replace(base, boundary_temp=base.boundary_temp + 0.5,
                            initial_temp=base.initial_temp + 0.5)
            rec = monotonicity_check(ops, base, grid, 1.0, 0.0, g1, g2, q0,
                                     "parabolic", spec_upper=upper, alpha=4.0)
            assert rec["holds"] and rec["max_violation"] <= 1e-12

            # negative flux direction with the reversed scale ordering
            q0_neg = BoundaryControl.constant_in_time(
                grid, -np.ones(ops.gamma2_nodes.size))
            rec = monotonicity_check(ops, base, grid, 0.0, 1.0, g1, g2, q0_neg,
                                     "parabolic")
            assert rec["holds"] and rec["max_violation"] <= 1e-12


def _decay_problem(ops, start_offset=True):
    grid = TimeGrid(t_final=5.0, n_steps=200)
    assert grid.dt * ops.lambda0 <= 0.1
    g_row = np.full(ops.n_nodes, 0.5)
    q_row = np.full(ops.gamma2_nodes.size, -0.25)
    b = np.zeros(ops.dirichlet_nodes.size)
    u_inf = solve_elliptic_dirichlet(ops, g_row, q_row, b)
    v0 = u_inf.copy()
    if start_offset:
        x = ops.mesh.node_coords[:, 0]
        v0 = v0 + np.sin(np.pi * x)
        v0[ops.dirichlet_nodes] = b
    spec = ProblemSpec(
        source=TimeField.constant_in_time(grid, g_row),
        boundary_temp=b, initial_temp=v0,
        target=TimeField.zeros(grid, ops.n_nodes))
    return grid, spec, BoundaryControl.constant_in_time(grid, q_row)


def test_criterion_09_exponential_decay(bench1d):
    with criterion(9, "exponential decay bound, plain and forced"):
        ops = bench1d.ops
        grid, spec, q = _decay_problem(ops)
        result = decay_study(ops, spec, q, grid)
        assert all(r.err_h <= 1.05 * r.bound for r in result.rows)
        assert result.fitted_rate >= result.coercivity / 2.0

        g_inf = spec.source.values[1].copy()
        times = grid.times()
        forced_spec = replace(spec, source=TimeField(
            g_inf[None, :] + np.exp(-times)[:, None] * np.ones(ops.n_nodes)[None, :]))
        assert ops.lambda0 < 2.0
        forced = decay_with_forcing(ops, forced_spec, q, grid,
                                    g_inf=g_inf, q_inf=q.values[1])
        assert all(r.err_h ** 2 <= 1.05 * r.bound ** 2 for r in forced.rows)


def test_criterion_10_pointwise_vs_cumulative():
    with criterion(10, "vanishing pointwise gap with persistent time integral"):
        rec = exp_forcing_quadrature(t_max=10.0, dt=1e-3)
        assert rec["pointwise_value_at_tmax"] <= 1e-8
        assert abs(rec["cumulative_integral_at_tmax"] - 0.5) <= 2.0 * 1e-3


def test_criterion_11_spectral_constants(bench1d):
    with criterion(11, "1D spectral constants vs closed forms at h=1/256"):
        ops = bench1d.ops
        mu1 = (math.pi / 2.0) ** 2
        assert abs(ops.lambda0 - mu1 / (1.0 + mu1)) < 1e-3
        assert abs(ops.trace_norm ** 2 - math.cosh(1.0) / math.sinh(1.0)) < 1e-3


def test_criterion_12_determinism(tmp_path):
    with criterion(12, "manifest re-runs reproduce byte-identical CSVs"):
        cfg = os.path.join(HERE, "configs", "benchmark1d.cfg")
        csv_of = {
            "solve": ["u.csv"],
            "optimize": ["q_opt.csv", "u_opt.csv", "p_opt.csv"],
            "lambda": ["lambda.csv"],
            "sweep-alpha": ["sweep.csv"],
            "decay": ["decay.csv"],
        }
        for command, files in csv_of.items():
            first = tmp_path / command.replace("-", "_")
            again = tmp_path / (command.replace("-", "_") + "_rerun")
            assert cli_main([command, "--config", cfg, "--out", str(first)]) == 0
            manifest = str(first / "manifest.json")
            assert cli_main([command, "--config", manifest, "--out", str(again)]) == 0
            for name in files:
                assert (first / name).read_bytes() == (again / name).read_bytes(), (
                    command, name)
