"""P1 finite elements on intervals and axis-aligned rectangle triangulations.

Provides mesh construction with two-part boundary tagging (GAMMA1 carries the
temperature datum, GAMMA2 the flux control), assembly of the stiffness, mass
and boundary-mass matrices (each one batched scatter, _scatter, of local
matrices computed for all cells at once; K and M share one int32 triplet
index and hold one (ne, p, p) local array at a time), the discrete
coercivity and trace constants via one pencil power iteration (inverse
iteration for the smallest eigenvalue), the one SPD factorization that every
linear solve and every power iteration uses (spd_solver: banded Cholesky
after a reverse Cuthill-McKee ordering), and the discrete inner products
used by every other module.  A trajectory is a plain float ndarray with one
row per time level, (N+1, n) over the nodes (a field: state, adjoint,
source, target) or (N+1, |GAMMA2|) over the GAMMA2 nodes (a flux control);
row 0 is inert.  Every shape is checked by one _check_shape, and every time
integral of two trajectories goes through one right-endpoint rectangle
pairing, _time_pairing.

The assembled matrices are never modified after assembly.  The spectral
constants are computed on first read and kept, as are the factorized systems
the solvers look up (state_solvers; ops holds only the consistent forms, and
a lumped system's object lumps those it uses); both caches live and die with
their DiscreteOperators, except that asymptotics.alpha_sweep drops the
systems it built.  The library is single-threaded: an ops is not to be
shared between threads.  The CLI forks verify's worker processes only
after it has computed these caches, so every worker reads the
parent's copy and none computes them again.  Assembly and the eigen-iterations are deterministic.
The BLAS under numpy and scipy may run its own threads: the CLI pins OpenBLAS
to one unless the environment sets a count (see cli), and a library caller
chooses for its own process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

GAMMA1 = "gamma1"
GAMMA2 = "gamma2"

LEFT, RIGHT, BOTTOM, TOP = "left", "right", "bottom", "top"
RECT_EDGES = (LEFT, RIGHT, BOTTOM, TOP)

EIG_TOL = 1e-10
EIG_MAX_ITER = 100_000


class MeshError(ValueError):
    pass


class InputError(ValueError):
    """An input a computation cannot run on; key names it as a config sets it
    ("q0", "g", "steps", ...), so a front end can cite it.  Pickles with it."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class SolverError(RuntimeError):
    pass


class EigenSolverError(SolverError):
    pass


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, t_final] with n_steps backward-Euler steps."""

    t_final: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not (np.isfinite(self.t_final) and self.t_final > 0):
            raise ValueError(f"t_final must be finite and > 0, got {self.t_final}")

    @property
    def dt(self) -> float:
        return self.t_final / self.n_steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.n_steps + 1)


@dataclass
class Mesh:
    """Simplicial mesh with every boundary facet tagged GAMMA1 or GAMMA2."""

    dim: int
    node_coords: np.ndarray          # (n, dim)
    elements: np.ndarray             # (ne, dim+1) node indices
    boundary_facets: list            # [(node index tuple, tag)]

    @property
    def n_nodes(self) -> int:
        return self.node_coords.shape[0]

    def tagged_nodes(self, tag: str) -> np.ndarray:
        nodes = sorted({i for facet, t in self.boundary_facets if t == tag for i in facet})
        return np.asarray(nodes, dtype=int)


def build_interval_mesh(n_cells: int, left: float = 0.0, right: float = 1.0,
                        gamma1_side: str = LEFT) -> Mesh:
    """Uniform 1D mesh on [left, right]; one endpoint is GAMMA1, the other GAMMA2."""
    if n_cells < 2:
        raise MeshError(f"interval mesh needs n_cells >= 2, got {n_cells}")
    if not right > left:
        raise MeshError(f"degenerate interval [{left}, {right}]")
    if gamma1_side not in (LEFT, RIGHT):
        raise MeshError(f"gamma1_side must be '{LEFT}' or '{RIGHT}', got {gamma1_side!r}")
    coords = np.linspace(left, right, n_cells + 1).reshape(-1, 1)
    elements = np.column_stack([np.arange(n_cells), np.arange(1, n_cells + 1)])
    if gamma1_side == LEFT:
        facets = [((0,), GAMMA1), ((n_cells,), GAMMA2)]
    else:
        facets = [((n_cells,), GAMMA1), ((0,), GAMMA2)]
    return Mesh(dim=1, node_coords=coords, elements=elements, boundary_facets=facets)


def build_rect_mesh(nx: int, ny: int, gamma1_edges) -> Mesh:
    """Unit square split into axis-aligned right triangles (right isoceles
    when nx == ny); never obtuse, so the lumped-mass comparison principle
    holds.

    gamma1_edges is a nonempty, proper subset of {left, right, bottom, top};
    the remaining edges are tagged GAMMA2 so both boundary parts have positive
    measure.  Nodes where the two parts meet count as datum nodes.
    """
    if nx < 2 or ny < 2:
        raise MeshError(f"rect mesh needs nx, ny >= 2, got ({nx}, {ny})")
    edges = set(gamma1_edges)
    if not edges:
        raise MeshError("gamma1_edges is empty: the temperature part of the boundary "
                        "would have zero measure")
    if not edges <= set(RECT_EDGES):
        raise MeshError(f"unknown edge names: {sorted(edges - set(RECT_EDGES))}")
    if edges == set(RECT_EDGES):
        raise MeshError("gamma1_edges covers the whole boundary: the flux part "
                        "would have zero measure")

    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    # node (i, j) -> j*(nx+1) + i
    coords = np.column_stack([np.tile(xs, ny + 1), np.repeat(ys, nx + 1)])

    def nid(i, j):
        return j * (nx + 1) + i

    ids = np.arange(coords.shape[0]).reshape(ny + 1, nx + 1)
    n00, n10 = ids[:-1, :-1].ravel(), ids[:-1, 1:].ravel()
    n01, n11 = ids[1:, :-1].ravel(), ids[1:, 1:].ravel()
    # two triangles per cell, cells j-major as the nodes; split along the
    # lower-left to upper-right diagonal: both halves are right isoceles, so
    # the lumped-mass maximum principle holds
    elements = np.column_stack([n00, n10, n11, n00, n11, n01]).reshape(-1, 3)

    def tag_for(edge):
        return GAMMA1 if edge in edges else GAMMA2

    facets = []
    for j in range(ny):
        facets.append(((nid(0, j), nid(0, j + 1)), tag_for(LEFT)))
        facets.append(((nid(nx, j), nid(nx, j + 1)), tag_for(RIGHT)))
    for i in range(nx):
        facets.append(((nid(i, 0), nid(i + 1, 0)), tag_for(BOTTOM)))
        facets.append(((nid(i, ny), nid(i + 1, ny)), tag_for(TOP)))
    return Mesh(dim=2, node_coords=coords, elements=elements, boundary_facets=facets)


@dataclass
class DiscreteOperators:
    """Assembled P1 matrices; the discrete spectral constants are computed
    on first read.

    stiffness            K,   houses the gradient form
    mass                 M_H, houses the L2(Omega) product
    bmass_gamma1         boundary mass on the temperature part (Robin term)
    bmass_gamma2         boundary mass on the flux part (control pairing)
    bmass_gamma2_sub     its |GAMMA2| x |GAMMA2| block, the control Gram matrix
    lambda0              coercivity of the gradient form on {v: v=0 on GAMMA1}
    lambda1              coercivity of gradient form + GAMMA1 mass on all of V
    trace_norm           discrete norm of the GAMMA2 trace operator
    systems              factorized linear systems by (alpha, lumped, dt or
                         None when steady), filled by state_solvers
    """

    mesh: Mesh
    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    bmass_gamma1: sp.csr_matrix
    bmass_gamma2: sp.csr_matrix
    dirichlet_nodes: np.ndarray
    gamma2_nodes: np.ndarray
    free_nodes: np.ndarray
    bmass_gamma2_sub: sp.csr_matrix = field(repr=False)
    systems: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return self.mesh.n_nodes

    # each constant costs a factorization and a power iteration, and only
    # the estimates read them
    @cached_property
    def lambda0(self) -> float:
        return coercivity_constant(self, "v0")

    @cached_property
    def lambda1(self) -> float:
        return coercivity_constant(self, "v_robin")

    @cached_property
    def trace_norm(self) -> float:
        return trace_norm(self)

    def constants_read(self) -> dict:
        """The spectral constants computed so far, by name."""
        return {name: self.__dict__[name] for name in ("lambda0", "lambda1", "trace_norm")
                if name in self.__dict__}

    def v_matrix(self) -> sp.csr_matrix:
        """Gram matrix of the H1 norm: gradient part plus mass."""
        return (self.stiffness + self.mass).tocsr()


def _interval_local(coords):
    """Stiffness matrices of P1 intervals, coords (ne, 2, 1) -> (ne, 2, 2),
    and the lengths (ne,)."""
    h = coords[:, 1, 0] - coords[:, 0, 0]
    if np.any(h <= 0.0):
        raise MeshError("zero-area element encountered during assembly")
    return np.array([[1.0, -1.0], [-1.0, 1.0]]) / h[:, None, None], h


def _triangle_local(coords):
    """Stiffness matrices of P1 triangles, coords (ne, 3, 2) -> (ne, 3, 3),
    and the areas (ne,).  The one (ne, 3, 3) array is computed in place."""
    x, y = coords[:, :, 0], coords[:, :, 1]
    area2 = ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
             - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    area = 0.5 * np.abs(area2)
    if np.any(area <= 0.0):
        raise MeshError("zero-area element encountered during assembly")
    b = np.column_stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]])
    c = np.column_stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]])
    b /= area2[:, None]
    c /= area2[:, None]
    k = b[:, :, None] * b[:, None, :]
    for i in range(3):
        k[:, i] += c[:, i, None] * c
    k *= area[:, None, None]
    return k, area


def _simplex_mass(measure, d):
    """Mass matrices of P1 d-simplices, measure (ne,) -> (ne, d+1, d+1):
    measure / ((d+1)(d+2)) * (1 + delta_ij), 1 at a point (d = 0)."""
    return ((measure / ((d + 1) * (d + 2)))[:, None, None]
            * (np.ones((d + 1, d + 1)) + np.eye(d + 1)))


def _triplets(n, cells):
    """The COO (row, col) index of a scatter over cells into an n x n matrix,
    in the index dtype scipy would convert it to (int32 below 2**31 nodes),
    cell by cell, row-major within a cell, which fixes the order in which
    duplicates are summed."""
    cells = cells.astype(sp.get_index_dtype(maxval=n))
    p = cells.shape[1]
    return np.repeat(cells, p, axis=1).ravel(), np.tile(cells, (1, p)).ravel()


def _scatter(n, index, local):
    """n x n matrix summing each cell's (p, p) local matrix into the rows and
    columns of its p nodes, at index = _triplets(n, cells): one int32 index
    that K and M share, so scipy converts none."""
    return sp.csr_matrix((local.ravel(), index), shape=(n, n))


def _facet_mass(mesh, tag):
    cells = np.array([f for f, t in mesh.boundary_facets if t == tag],
                     dtype=int).reshape(-1, mesh.dim)
    if mesh.dim == 1:
        # 1D: the boundary measure is the counting measure
        measure = np.ones(cells.shape[0])
    else:
        edge = mesh.node_coords[cells[:, 1]] - mesh.node_coords[cells[:, 0]]
        measure = np.linalg.norm(edge, axis=1)
    return _scatter(mesh.n_nodes, _triplets(mesh.n_nodes, cells),
                    _simplex_mass(measure, mesh.dim - 1))


def _lump(mat: sp.csr_matrix) -> sp.csr_matrix:
    return sp.diags(np.asarray(mat.sum(axis=1)).ravel(), format="csr")


def assemble(mesh: Mesh) -> DiscreteOperators:
    """Assemble all bilinear forms with exact element quadrature.  K and M
    share one triplet index, and one (ne, p, p) local array lives at a time."""
    n = mesh.n_nodes
    local = _interval_local if mesh.dim == 1 else _triangle_local
    index = _triplets(n, mesh.elements)
    k_loc, measure = local(mesh.node_coords[mesh.elements])
    stiffness = _scatter(n, index, k_loc)
    del k_loc
    mass = _scatter(n, index, _simplex_mass(measure, mesh.dim))
    del index, measure
    b1 = _facet_mass(mesh, GAMMA1)
    b2 = _facet_mass(mesh, GAMMA2)
    for mat in (stiffness, mass, b1, b2):
        # cut to nnz the unsummed buffers sum_duplicates keeps above half
        if mat.data.base is not None and mat.data.base.size > mat.nnz:
            mat.indices, mat.data = mat.indices.copy(), mat.data.copy()

    dirichlet = mesh.tagged_nodes(GAMMA1)
    gamma2 = mesh.tagged_nodes(GAMMA2)
    if dirichlet.size == 0 or gamma2.size == 0:
        raise MeshError("both boundary parts must have positive measure")
    free = np.setdiff1d(np.arange(n), dirichlet)

    return DiscreteOperators(
        mesh=mesh,
        stiffness=stiffness,
        mass=mass,
        bmass_gamma1=b1,
        bmass_gamma2=b2,
        dirichlet_nodes=dirichlet,
        gamma2_nodes=gamma2,
        free_nodes=free,
        bmass_gamma2_sub=b2[np.ix_(gamma2, gamma2)].tocsr(),
    )


def _pencil_eig(a_mat, b_mat, largest):
    """Extreme eigenvalue of A x = lam B x, A PSD and B SPD, by power iteration.

    largest iterates x <- B^-1 A x; otherwise (A SPD) inverse iteration
    x <- A^-1 B x finds the smallest.  Either way the iterate is B-normalized
    and its Rayleigh quotient is the estimate.  It stops when the estimate
    moves by at most EIG_TOL relative, and raises after EIG_MAX_ITER steps.
    """
    factorized, applied = (b_mat, a_mat) if largest else (a_mat, b_mat)
    solve = spd_solver(factorized)
    # deterministic start, not orthogonal to the slowly varying principal modes
    n = b_mat.shape[0]
    x = np.ones(n) + 1e-3 * np.linspace(0.0, 1.0, n)
    x /= np.sqrt(x @ (b_mat @ x))
    lam_old = np.inf
    for _ in range(EIG_MAX_ITER):
        y = solve(applied @ x)
        bn = np.sqrt(y @ (b_mat @ y))
        if bn == 0.0:
            raise EigenSolverError("power iteration produced a null vector")
        y /= bn
        lam = y @ (a_mat @ y)
        if abs(lam - lam_old) <= EIG_TOL * abs(lam):
            return float(lam)
        lam_old = lam
        x = y
    raise EigenSolverError(f"power iteration did not converge in {EIG_MAX_ITER} iterations")


def coercivity_constant(ops: DiscreteOperators, space: str) -> float:
    """Discrete coercivity constant against the H1 Gram matrix.

    space="v0":      inf of vKv / v(K+M)v over v vanishing on GAMMA1
    space="v_robin": inf of v(K+B1)v / v(K+M)v over all v
    """
    v_mat = ops.v_matrix()
    if space == "v0":
        f = ops.free_nodes
        a_mat = ops.stiffness[np.ix_(f, f)].tocsc()
        b_mat = v_mat[np.ix_(f, f)].tocsr()
    elif space == "v_robin":
        a_mat = (ops.stiffness + ops.bmass_gamma1).tocsc()
        b_mat = v_mat
    else:
        raise ValueError(f"unknown space {space!r}, expected 'v0' or 'v_robin'")
    return _pencil_eig(a_mat, b_mat, largest=False)


def trace_norm(ops: DiscreteOperators) -> float:
    """Discrete operator norm of the GAMMA2 trace: sqrt of the largest
    eigenvalue of B2 x = mu (K+M) x over all of V."""
    mu = _pencil_eig(ops.bmass_gamma2, ops.v_matrix(), largest=True)
    return float(np.sqrt(mu))


def lambda_alpha(ops: DiscreteOperators, alpha: float) -> float:
    """Coercivity constant of the Robin form: lambda1 * min(1, alpha)."""
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    return ops.lambda1 * min(1.0, alpha)


def spd_solver(a_mat: sp.spmatrix):
    """Return a deterministic solve callable for an SPD matrix: its banded
    Cholesky factor after a reverse Cuthill-McKee ordering, at every size.

    RCM (Cuthill & McKee, ACM 1969) numbers the unknowns so that every
    nonzero lies within kd of the diagonal; on a rectangle mesh kd is about
    the node count of the shorter side.  LAPACK dpbtrf factors the permuted
    upper band, (kd+1) x n, in place, and each solve is one dpbtrs, so one
    factor serves every right-hand side and, being symmetric, a recursion
    and its transpose alike.  The band grows like n^1.5 on square meshes.
    Only the upper band is read, so a matrix that is not exactly symmetric
    raises SolverError, as does one that is not positive definite.

    The callable also exposes the factor's own order: solve.perm, the RCM
    permutation, and solve.permuted(c), the one dpbtrs that maps c = b[perm]
    to x[perm], overwriting c.  solve(b) is that dpbtrs between a gather and
    a scatter.  Only state_solvers._Gamma1Imposition reads both: its
    solve_into gathers the unknown rows of a right-hand side in the factor's
    order and scatters the solution back, once per step of each march.
    """
    a = sp.csr_matrix(a_mat)
    if (a != a.T).nnz:
        raise SolverError("matrix is not exactly symmetric")
    perm = reverse_cuthill_mckee(a, symmetric_mode=True)
    upper = sp.triu(a[perm][:, perm], format="coo")
    kd = int(np.max(upper.col - upper.row, initial=0))
    # entry (i, j) goes to row kd + i - j of column j, duplicates summed;
    # Fortran order lets dpbtrf factor this array itself, not a copy
    band = np.zeros((kd + 1, a.shape[0]), order="F")
    np.add.at(band, (kd + upper.row - upper.col, upper.col), upper.data)
    factor, info = dpbtrf(band, lower=0, overwrite_ab=1)
    if info != 0:
        raise SolverError(f"matrix is not positive definite (leading minor {info})")

    def permuted(c):
        return dpbtrs(factor, c, lower=0, overwrite_b=1)[0]

    def solve(b):
        x = permuted(np.asarray(b, dtype=float)[perm])
        out = np.empty_like(x)
        out[perm] = x
        return out

    solve.perm, solve.permuted = perm, permuted
    return solve


# ---------------------------------------------------------------------------
# discrete inner products; time integrals use the right-endpoint rectangle
# rule sum_{k=1..N} dt * (.,.) so the backward-Euler adjoint is exact
# ---------------------------------------------------------------------------

def _time_pairing(mat, a: np.ndarray, b: np.ndarray) -> float:
    """sum_{k=1..N} a_k . (mat b_k) over two (N+1)-row trajectories: the
    rectangle-rule pairing before its factor dt; row 0 never enters.  One
    (N, n) buffer holds mat b_k, 16 rows at a time, then a_k * (mat b_k)."""
    out = np.empty((a.shape[0] - 1, a.shape[1]))
    for k in range(0, out.shape[0], 16):
        out[k:k + 16] = (mat @ b[1 + k:17 + k].T).T
    return float(np.sum(np.multiply(a[1:], out, out=out)))


def _check_shape(name, array, shape):
    """array as a float ndarray; ValueError naming it unless its shape is
    shape.  The one shape check of every trajectory and nodal argument."""
    array = np.asarray(array, dtype=float)
    if array.shape != shape:
        raise ValueError(f"{name} has shape {array.shape}, expected {shape}")
    return array


def inner_domain(ops: DiscreteOperators, u: np.ndarray, v: np.ndarray) -> float:
    u = _check_shape("u", u, (ops.n_nodes,))
    v = _check_shape("v", v, (ops.n_nodes,))
    return float(u @ (ops.mass @ v))


def inner_boundary(ops: DiscreteOperators, q: np.ndarray, r: np.ndarray) -> float:
    q = _check_shape("q", q, (ops.gamma2_nodes.size,))
    r = _check_shape("r", r, (ops.gamma2_nodes.size,))
    return float(q @ (ops.bmass_gamma2_sub @ r))


def _check_field(grid, ops, u, name="field"):
    _check_shape(name, u, (grid.n_steps + 1, ops.n_nodes))


def _check_control(grid, ops, q, name="control"):
    _check_shape(name, q, (grid.n_steps + 1, ops.gamma2_nodes.size))


def inner_domain_time(grid: TimeGrid, ops: DiscreteOperators,
                      u: np.ndarray, v: np.ndarray) -> float:
    _check_field(grid, ops, u)
    _check_field(grid, ops, v)
    return grid.dt * _time_pairing(ops.mass, u, v)


def inner_boundary_time(grid: TimeGrid, ops: DiscreteOperators,
                        q: np.ndarray, r: np.ndarray) -> float:
    _check_control(grid, ops, q)
    _check_control(grid, ops, r)
    return grid.dt * _time_pairing(ops.bmass_gamma2_sub, q, r)


def norm_boundary_time(grid, ops, q: np.ndarray) -> float:
    return float(np.sqrt(max(inner_boundary_time(grid, ops, q, q), 0.0)))


def norm_h1_time(grid, ops, u: np.ndarray) -> float:
    """L2-in-time H1-in-space norm: sum_k dt * u_k (K+M) u_k, square-rooted."""
    _check_field(grid, ops, u)
    return float(np.sqrt(max(grid.dt * _time_pairing(ops.v_matrix(), u, u), 0.0)))


def norm_gamma1_time(grid, ops, u: np.ndarray) -> float:
    """L2-in-time L2(GAMMA1)-in-space norm of a full nodal field."""
    _check_field(grid, ops, u)
    return float(np.sqrt(max(grid.dt * _time_pairing(ops.bmass_gamma1, u, u), 0.0)))
