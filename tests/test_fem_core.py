import dataclasses
import json
import math
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp

import assembly_reference
from parctrl import fem_core
from parctrl.fem_core import (
    GAMMA1,
    GAMMA2,
    TimeGrid,
    _lump,
    assemble,
    build_interval_mesh,
    build_rect_mesh,
    coercivity_constant,
    inner_boundary,
    inner_boundary_time,
    inner_domain,
    inner_domain_time,
    lambda_alpha,
    spd_solver,
    trace_norm,
)
from parctrl.state_solvers import _Gamma1Imposition

from conftest import mesh_json_dict

# closed-form 1D limits, derived by hand before the build:
#   smallest eigenvalue of -v'' = mu v, v(0) = 0, v'(1) = 0  is  mu1 = (pi/2)^2,
#   so the coercivity constant against the H1 norm is mu1 / (1 + mu1);
#   the trace maximizer v = cosh(x) gives v(1)^2 / ||v||_H1^2 = coth(1).
MU1 = (np.pi / 2.0) ** 2
LAMBDA0_LIMIT = MU1 / (1.0 + MU1)
TRACE_SQ_LIMIT = np.cosh(1.0) / np.sinh(1.0)


def test_interval_mesh_basic():
    mesh = build_interval_mesh(4, 0.0, 1.0, "left")
    assert np.allclose(mesh.node_coords[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])
    assert mesh.tagged_nodes(GAMMA1).tolist() == [0]
    assert mesh.tagged_nodes(GAMMA2).tolist() == [4]


def test_interval_mesh_gamma1_right():
    mesh = build_interval_mesh(2, 0.0, 2.0, "right")
    assert np.allclose(mesh.node_coords[:, 0], [0.0, 1.0, 2.0])
    assert mesh.tagged_nodes(GAMMA1).tolist() == [2]
    assert mesh.tagged_nodes(GAMMA2).tolist() == [0]


def test_interval_mesh_rejects_bad_input():
    with pytest.raises(fem_core.MeshError):
        build_interval_mesh(1, 0.0, 1.0, "left")
    with pytest.raises(fem_core.MeshError):
        build_interval_mesh(4, 1.0, 1.0, "left")


def test_rect_mesh_counts():
    mesh = build_rect_mesh(2, 2, {"left"})
    assert mesh.n_nodes == 9
    assert mesh.elements.shape[0] == 8
    g1 = [f for f, t in mesh.boundary_facets if t == GAMMA1]
    g2 = [f for f, t in mesh.boundary_facets if t == GAMMA2]
    assert len(g1) == 2 and len(g2) == 6

    mesh = build_rect_mesh(4, 4, {"left", "bottom"})
    assert mesh.n_nodes == 25
    assert mesh.elements.shape[0] == 32


def test_rect_mesh_rejects_degenerate_tagging():
    with pytest.raises(fem_core.MeshError):
        build_rect_mesh(2, 2, set())
    with pytest.raises(fem_core.MeshError):
        build_rect_mesh(2, 2, {"left", "right", "top", "bottom"})


def test_rect_mesh_has_no_obtuse_triangles():
    mesh = build_rect_mesh(3, 5, {"left"})
    for tri in mesh.elements:
        pts = mesh.node_coords[tri]
        for i in range(3):
            a = pts[(i + 1) % 3] - pts[i]
            b = pts[(i + 2) % 3] - pts[i]
            cosang = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            assert cosang >= -1e-12  # all angles <= 90 degrees


def test_assemble_1d_stencils():
    # hand-assembled P1 element matrices for h = 1/4:
    # interior stiffness row (-1/h, 2/h, -1/h) = (-4, 8, -4)
    # interior mass row (h/6, 4h/6, h/6)
    ops = assemble(build_interval_mesh(4, 0.0, 1.0, "left"))
    K = ops.stiffness.toarray()
    M = ops.mass.toarray()
    h = 0.25
    for i in range(1, 4):
        assert np.isclose(K[i, i], 8.0)
        assert np.isclose(K[i, i - 1], -4.0)
        assert np.isclose(K[i, i + 1], -4.0)
        assert np.isclose(M[i, i], 4 * h / 6)
        assert np.isclose(M[i, i - 1], h / 6)


@pytest.mark.parametrize("ops_name", ["ops1d", "ops2d"])
def test_stiffness_kernel_and_mass_total(ops_name, request):
    ops = request.getfixturevalue(ops_name)
    row_sums = np.asarray(ops.stiffness.sum(axis=1)).ravel()
    assert np.max(np.abs(row_sums)) < 1e-12
    assert np.isclose(ops.mass.sum(), 1.0)  # |Omega| = 1 for both meshes
    lumped = _Gamma1Imposition(ops, math.inf, lumped=True)
    assert np.isclose(lumped.mass.sum(), 1.0)


def test_matrices_symmetric_and_boundary_support(ops2d):
    for mat in (ops2d.stiffness, ops2d.mass, ops2d.bmass_gamma1, ops2d.bmass_gamma2):
        assert abs(mat - mat.T).max() < 1e-13
    # boundary mass supported exactly on its boundary nodes
    g2 = set(ops2d.gamma2_nodes.tolist())
    coo = ops2d.bmass_gamma2.tocoo()
    assert set(coo.row.tolist()) <= g2 and set(coo.col.tolist()) <= g2
    g1 = set(ops2d.dirichlet_nodes.tolist())
    coo = ops2d.bmass_gamma1.tocoo()
    assert set(coo.row.tolist()) <= g1 and set(coo.col.tolist()) <= g1


def test_coercivity_constant_1d_limit(ops1d_fine):
    assert abs(ops1d_fine.lambda0 - LAMBDA0_LIMIT) < 1e-3


def test_trace_norm_1d_limit(ops1d_fine):
    assert abs(ops1d_fine.trace_norm ** 2 - TRACE_SQ_LIMIT) < 1e-3


def test_refinement_monotone_toward_limits():
    lam, tr = [], []
    for n in (16, 32, 64, 128, 256):
        ops = assemble(build_interval_mesh(n, 0.0, 1.0, "left"))
        lam.append(ops.lambda0)
        tr.append(ops.trace_norm ** 2)
    lam_err = [abs(v - LAMBDA0_LIMIT) for v in lam]
    tr_err = [abs(v - TRACE_SQ_LIMIT) for v in tr]
    for seq in (lam_err, tr_err):
        for a, b in zip(seq, seq[1:]):
            assert b <= a + 1e-6


def test_robin_coercivity_1d_limit(ops1d_fine):
    # continuous pencil (K + B1) v = lam (K + M) v on (0,1), datum at x=0:
    # (1-lam) u'' + lam u = 0 with u'(1) = 0 and (1-lam) u'(0) = u(0); with
    # kappa^2 = lam/(1-lam) the first root solves tan(k) = (1 + k^2)/k
    def f(k):
        return np.tan(k) - (1 + k * k) / k

    lo, hi = 1.0, 1.4
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    kappa = 0.5 * (lo + hi)
    lam1_limit = kappa ** 2 / (1 + kappa ** 2)
    assert abs(ops1d_fine.lambda1 - lam1_limit) < 1e-5


def test_lambda_alpha_formula(ops1d):
    assert np.isclose(lambda_alpha(ops1d, 0.5), 0.5 * ops1d.lambda1)
    assert np.isclose(lambda_alpha(ops1d, 2.0), ops1d.lambda1)
    assert lambda_alpha(ops1d, np.inf) == ops1d.lambda1
    for bad in (-1.0, 0.0, np.nan, -np.inf):
        with pytest.raises(ValueError, match="alpha must be > 0"):
            lambda_alpha(ops1d, bad)


def test_spectral_certificates(ops1d, ops2d):
    rng = np.random.default_rng(7)
    for ops in (ops1d, ops2d):
        n = ops.n_nodes
        V = (ops.stiffness + ops.mass).toarray()
        vs = rng.standard_normal((1000, n))
        vs0 = vs.copy()
        vs0[:, ops.dirichlet_nodes] = 0.0
        kq = np.einsum("ij,ij->i", vs0, vs0 @ ops.stiffness.toarray())
        vq = np.einsum("ij,ij->i", vs0, vs0 @ V)
        assert np.min(kq - ops.lambda0 * vq) >= -1e-12 * np.max(vq)

        aq = np.einsum("ij,ij->i", vs, vs @ (ops.stiffness + ops.bmass_gamma1).toarray())
        vq = np.einsum("ij,ij->i", vs, vs @ V)
        assert np.min(aq - ops.lambda1 * vq) >= -1e-12 * np.max(vq)

        bq = np.einsum("ij,ij->i", vs, vs @ ops.bmass_gamma2.toarray())
        assert np.min(ops.trace_norm ** 2 * vq - bq) >= -1e-12 * np.max(vq)


def test_recomputed_constants_match_stored(ops1d):
    assert np.isclose(coercivity_constant(ops1d, "v0"), ops1d.lambda0, rtol=1e-9)
    assert np.isclose(coercivity_constant(ops1d, "v_robin"), ops1d.lambda1, rtol=1e-9)
    assert np.isclose(trace_norm(ops1d), ops1d.trace_norm, rtol=1e-9)


def test_trace_bound_vanishes_away_from_gamma2(ops1d):
    v = np.zeros(ops1d.n_nodes)
    v[1] = 3.0  # interior node, away from the flux boundary
    assert v @ (ops1d.bmass_gamma2 @ v) == 0.0


def test_solve_spd_identity_and_manufactured(ops1d):
    rng = np.random.default_rng(3)
    b = rng.standard_normal(5)
    assert np.allclose(spd_solver(sp.eye(5, format="csr"))(b), b)

    A = (ops1d.stiffness + ops1d.mass).tocsr()
    x_true = rng.standard_normal(ops1d.n_nodes)
    x = spd_solver(A)(A @ x_true)
    assert np.linalg.norm(x - x_true) < 1e-9 * np.linalg.norm(x_true)


def test_solve_spd_2d_residual_contract(ops2d):
    rng = np.random.default_rng(5)
    A = (ops2d.stiffness + ops2d.mass).tocsr()
    rhs = rng.standard_normal(ops2d.n_nodes)
    x = spd_solver(A)(rhs)
    assert np.linalg.norm(A @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)


def captured_bands(monkeypatch):
    # the band arrays spd_solver hands to dpbtrf, and what dpbtrf returned
    calls = []
    real = fem_core.dpbtrf

    def capturing(ab, **kwargs):
        factor, info = real(ab, **kwargs)
        calls.append((ab, factor))
        return factor, info

    monkeypatch.setattr(fem_core, "dpbtrf", capturing)
    return calls


@pytest.mark.parametrize("mesh", [build_interval_mesh(16, 0.0, 1.0, "left"),
                                  build_rect_mesh(8, 8, {"left"}),
                                  build_rect_mesh(7, 3, {"left", "bottom"})],
                         ids=["1d", "2d-square", "2d-7x3-left-bottom"])
def test_spd_solver_agrees_with_dense_solve_on_every_system(monkeypatch, mesh):
    # every system _Gamma1Imposition builds: elimination and Robin, lumped
    # and consistent mass, steady and one backward-Euler step
    from parctrl import state_solvers

    ops = assemble(mesh)
    systems = []
    monkeypatch.setattr(state_solvers, "spd_solver",
                        lambda a_mat: systems.append(a_mat) or spd_solver(a_mat))
    for alpha in (np.inf, 5.0):
        for lumped in (False, True):
            for dt in (None, 0.01):
                state_solvers._Gamma1Imposition(ops, alpha, lumped, dt)
    assert len(systems) == 8
    rng = np.random.default_rng(11)
    for a_mat in systems:
        rhs = rng.standard_normal(a_mat.shape[0])
        x = spd_solver(a_mat)(rhs)
        dense = np.linalg.solve(a_mat.toarray(), rhs)
        for y in (x, dense):
            assert np.linalg.norm(a_mat @ y - rhs) <= 1e-12 * np.linalg.norm(rhs)
        assert np.linalg.norm(x - dense) <= 1e-12 * np.linalg.norm(dense)


def test_spd_solver_rejects_indefinite_and_unsymmetric():
    indefinite = sp.diags([1.0, -2.0, 3.0], format="csr")
    with pytest.raises(fem_core.SolverError, match="positive definite"):
        spd_solver(indefinite)
    # only the upper band is read, so an unsymmetric matrix would be solved
    # as another, symmetric one
    unsymmetric = sp.csr_matrix(np.array([[4.0, 1.0, 0.0],
                                          [0.0, 4.0, 1.0],
                                          [0.0, 1.0, 4.0]]))
    with pytest.raises(fem_core.SolverError, match="symmetric"):
        spd_solver(unsymmetric)


def test_spd_solver_band_follows_the_short_side(monkeypatch):
    # natural numbering of a 40 x 3 rectangle puts neighbours 42 apart;
    # reverse Cuthill-McKee numbers across the 4-node short side
    bands = captured_bands(monkeypatch)
    ops = assemble(build_rect_mesh(40, 3, {"left"}))
    a_mat = ops.v_matrix()
    solve = spd_solver(a_mat)
    (band, factor), = bands
    assert band.shape[0] - 1 <= 5 and band.shape[1] == ops.n_nodes
    # Fortran order: dpbtrf factors the band in place rather than a copy
    assert factor is band
    rhs = np.ones(ops.n_nodes)
    assert np.linalg.norm(a_mat @ solve(rhs) - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_spd_solver_diagonal_has_zero_band(monkeypatch):
    bands = captured_bands(monkeypatch)
    b = np.arange(1.0, 6.0)
    assert np.array_equal(spd_solver(sp.eye(5, format="csr"))(b), b)
    (band, _), = bands
    assert band.shape == (1, 5)


def test_inner_products_basics(ops1d, grid):
    ones = np.ones(ops1d.n_nodes)
    assert np.isclose(inner_domain(ops1d, ones, ones), 1.0)

    grid2 = TimeGrid(t_final=2.0, n_steps=20)
    U = np.tile(ones, (grid2.n_steps + 1, 1))
    assert np.isclose(inner_domain_time(grid2, ops1d, U, U), 2.0)

    rng = np.random.default_rng(11)
    q = np.zeros((grid.n_steps + 1, ops1d.gamma2_nodes.size))
    q[1:] = rng.standard_normal(q[1:].shape)
    assert inner_boundary_time(grid, ops1d, q, q) > 0.0
    q0 = np.zeros((grid.n_steps + 1, ops1d.gamma2_nodes.size))
    assert inner_boundary_time(grid, ops1d, q0, q0) == 0.0


def test_inner_product_symmetry(ops2d, grid):
    rng = np.random.default_rng(13)
    n = ops2d.n_nodes
    u, v = rng.standard_normal(n), rng.standard_normal(n)
    a, b = inner_domain(ops2d, u, v), inner_domain(ops2d, v, u)
    assert abs(a - b) <= 1e-14 * max(abs(a), 1.0)

    m = ops2d.gamma2_nodes.size
    q, r = rng.standard_normal(m), rng.standard_normal(m)
    a, b = inner_boundary(ops2d, q, r), inner_boundary(ops2d, r, q)
    assert abs(a - b) <= 1e-14 * max(abs(a), 1.0)

    U = rng.standard_normal((grid.n_steps + 1, n))
    V = rng.standard_normal((grid.n_steps + 1, n))
    a, b = inner_domain_time(grid, ops2d, U, V), inner_domain_time(grid, ops2d, V, U)
    assert abs(a - b) <= 1e-14 * max(abs(a), 1.0)

    Q = rng.standard_normal((grid.n_steps + 1, m))
    R = rng.standard_normal((grid.n_steps + 1, m))
    a, b = inner_boundary_time(grid, ops2d, Q, R), inner_boundary_time(grid, ops2d, R, Q)
    assert abs(a - b) <= 1e-14 * max(abs(a), 1.0)


def test_inner_product_shape_rejection(ops1d, grid):
    with pytest.raises(ValueError):
        inner_domain(ops1d, np.ones(3), np.ones(3))
    bad = np.zeros((grid.n_steps, ops1d.n_nodes))
    good = np.zeros((grid.n_steps + 1, ops1d.n_nodes))
    with pytest.raises(ValueError):
        inner_domain_time(grid, ops1d, bad, good)


def test_assemble_multi_edge_gamma1():
    # opposite datum edges: the shared corner nodes belong to facets of both
    # tags and are treated as datum nodes
    ops = assemble(build_rect_mesh(4, 4, {"left", "right"}))
    assert 0.0 < ops.lambda0 < 1.0
    assert ops.trace_norm > 0.0
    assert np.intersect1d(ops.dirichlet_nodes, ops.gamma2_nodes).size > 0


def test_assemble_rejects_degenerate_element():
    mesh = build_rect_mesh(2, 2, {"left"})
    broken = fem_core.Mesh(
        dim=2,
        node_coords=mesh.node_coords.copy(),
        elements=mesh.elements.copy(),
        boundary_facets=list(mesh.boundary_facets),
    )
    tri = broken.elements[0]
    broken.node_coords[tri[1]] = broken.node_coords[tri[0]]  # collapse one edge
    broken.node_coords[tri[2]] = broken.node_coords[tri[0]]
    with pytest.raises(fem_core.MeshError, match="zero-area"):
        assemble(broken)


@pytest.mark.parametrize("moved_to", [0.25, 0.125], ids=["zero-length", "reversed"])
def test_assemble_rejects_degenerate_interval(moved_to):
    # node 2 sits at 0.5; moving it onto or behind node 1 (at 0.25) makes
    # element 1 of zero or negative length
    mesh = build_interval_mesh(4, 0.0, 1.0, "left")
    mesh.node_coords[2, 0] = moved_to
    with pytest.raises(fem_core.MeshError, match="zero-area"):
        assemble(mesh)


GAMMA1_SUBSETS = [set(edges) for r in (1, 2, 3)
                  for edges in combinations(fem_core.RECT_EDGES, r)]


def assert_same_bits(ops, mesh):
    oracle = assembly_reference.operators(mesh)
    # a lumped (Robin, steady) system lumps the assembled forms itself
    lumped = _Gamma1Imposition(ops, 1.0, lumped=True)
    pairs = [(name, getattr(ops, name), want) for name, want in oracle.items()] + [
        ("lumped mass", lumped.mass, _lump(oracle["mass"])),
        ("lumped _b1", lumped._b1, _lump(oracle["bmass_gamma1"])),
        ("lumped load_gamma2", lumped.load_gamma2,
         _lump(oracle["bmass_gamma2"])[:, ops.gamma2_nodes].tocsr())]
    for name, got, want in pairs:
        for part in ("indptr", "indices", "data"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype and a.shape == b.shape, (name, part)
            assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), (name, part)


@pytest.mark.parametrize("side", ["left", "right"])
def test_assembly_matches_loop_oracle_1d(side):
    for cells in range(2, 41):
        mesh = build_interval_mesh(cells, 0.0, 1.0, side)
        assert_same_bits(assemble(mesh), mesh)


@pytest.mark.parametrize("edges", GAMMA1_SUBSETS,
                         ids=["-".join(sorted(e)) for e in GAMMA1_SUBSETS])
def test_assembly_matches_loop_oracle_2d(edges):
    for nx in range(2, 9):
        for ny in range(2, 9):
            mesh = build_rect_mesh(nx, ny, edges)
            looped = assembly_reference.rect_mesh(nx, ny, edges)
            assert mesh_json_dict(mesh) == mesh_json_dict(looped)
            assert mesh.node_coords.tobytes() == looped.node_coords.tobytes()
            assert mesh.elements.dtype == looped.elements.dtype
            assert_same_bits(assemble(mesh), looped)


def test_assembly_matches_loop_oracle_on_general_triangles():
    # interior nodes moved off the lattice: every triangle has its own shape,
    # while the boundary edges stay axis-aligned
    rng = np.random.default_rng(17)
    for nx, ny in ((3, 2), (5, 7), (8, 8)):
        mesh = build_rect_mesh(nx, ny, {"bottom", "right"})
        x, y = mesh.node_coords[:, 0], mesh.node_coords[:, 1]
        interior = (x > 0) & (x < 1) & (y > 0) & (y < 1)
        step = np.array([1.0 / nx, 1.0 / ny])
        mesh.node_coords[interior] += 0.2 * step * rng.uniform(-1, 1, (interior.sum(), 2))
        assert_same_bits(assemble(mesh), mesh)


@pytest.mark.parametrize("mesh, bound", [
    (lambda: build_rect_mesh(40, 40, {"left"}), 400),
    (lambda: build_rect_mesh(60, 30, {"left", "bottom"}), 400),
    (lambda: build_interval_mesh(4096, 0.0, 1.0, "left"), 200),
], ids=["rect-40x40", "rect-60x30-two-edges", "interval-4096"])
def test_assembly_transient_memory_is_bounded_per_element(mesh, bound):
    # K and M are scattered from one int32 triplet index, one (ne, p, p)
    # local array at a time; an int64 index per matrix and both local arrays
    # alive together peaked at 564, 563 and 268 bytes per element.  The
    # operators kept are about 98-105 bytes per element in 2D, 103 in 1D
    import tracemalloc

    mesh = mesh()
    tracemalloc.start()
    try:
        assemble(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * mesh.elements.shape[0]


@pytest.mark.parametrize("mesh", [
    lambda: build_interval_mesh(4096, 0.0, 1.0, "left"),
    lambda: build_rect_mesh(40, 40, {"left"}),
], ids=["interval-4096", "rect-40x40"])
def test_assembled_matrices_hold_no_slack(mesh):
    # sum_duplicates leaves the summed indices and data views of its unsummed
    # buffers unless they shrink below half: 16,384 long for the 12,289
    # entries of the 1D K and M, 160 for the 121 of the 40x40 GAMMA1 mass
    ops = assemble(mesh())
    for f in dataclasses.fields(ops):
        mat = getattr(ops, f.name)
        if sp.issparse(mat):
            for part in ("indices", "data"):
                array = getattr(mat, part)
                held = array if array.base is None else array.base
                assert held.size == mat.nnz, (f.name, part, held.size, mat.nnz)


def test_ops_keeps_one_copy_of_each_form(ops2d):
    # only a lumped system lumps; a consistent one holds ops' own matrices
    assert not [f.name for f in dataclasses.fields(ops2d) if "lumped" in f.name]
    for dt in (None, 0.1):
        consistent = _Gamma1Imposition(ops2d, 2.0, lumped=False, dt=dt)
        assert consistent.mass is ops2d.mass
        assert consistent._b1 is ops2d.bmass_gamma1
        lumped = _Gamma1Imposition(ops2d, 2.0, lumped=True, dt=dt)
        assert (lumped.mass != _lump(ops2d.mass)).nnz == 0


def test_eigensolver_iteration_cap(ops1d, monkeypatch):
    f = ops1d.free_nodes
    a_mat = ops1d.stiffness[np.ix_(f, f)].tocsc()
    b_mat = (ops1d.stiffness + ops1d.mass)[np.ix_(f, f)].tocsr()
    # one power iteration serves both ends of the spectrum; both stop at the cap
    with monkeypatch.context() as patch:
        patch.setattr(fem_core, "EIG_MAX_ITER", 0)
        with pytest.raises(fem_core.EigenSolverError, match="did not converge in 0"):
            fem_core._pencil_eig(a_mat, b_mat, largest=False)
        with pytest.raises(fem_core.EigenSolverError, match="did not converge in 0"):
            fem_core._pencil_eig(ops1d.bmass_gamma2, ops1d.v_matrix(), largest=True)
    # and with room to run, each end agrees with the dense pencil spectrum
    import scipy.linalg

    lams = scipy.linalg.eigh(a_mat.toarray(), b_mat.toarray(), eigvals_only=True)
    assert fem_core._pencil_eig(a_mat, b_mat, largest=False) == pytest.approx(
        lams[0], rel=1e-8)
    mus = scipy.linalg.eigh(ops1d.bmass_gamma2.toarray(), ops1d.v_matrix().toarray(),
                            eigvals_only=True)
    assert fem_core._pencil_eig(ops1d.bmass_gamma2, ops1d.v_matrix(),
                                largest=True) == pytest.approx(mus[-1], rel=1e-8)


def test_mesh_json_dict_fields():
    # the JSON form written to mesh.json: plain lists, facets as [nodes, tag]
    mesh = build_rect_mesh(3, 2, {"top", "left"})
    d = mesh_json_dict(mesh)
    assert sorted(d) == ["boundary_facets", "dim", "elements", "node_coords"]
    assert d["dim"] == 2
    assert d["node_coords"] == mesh.node_coords.tolist()
    assert d["elements"] == mesh.elements.tolist()
    assert d["boundary_facets"] == [[list(f), t] for f, t in mesh.boundary_facets]
    assert all(t in (fem_core.GAMMA1, fem_core.GAMMA2) for _, t in d["boundary_facets"])
    json.dumps(d)  # serializable as it stands
