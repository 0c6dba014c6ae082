"""Per-element loop assembly of the P1 operators, kept as the test oracle for
the batched code in parctrl.fem_core.

Each function does the arithmetic of the batched code one element or facet
at a time and emits the COO triplets element by element, row-major within
an element, so the batched matrices must equal these bit for bit.
"""

import numpy as np
import scipy.sparse as sp

from parctrl.fem_core import (
    BOTTOM,
    GAMMA1,
    GAMMA2,
    LEFT,
    RIGHT,
    TOP,
    Mesh,
    MeshError,
)


def rect_mesh(nx, ny, gamma1_edges):
    """The rectangle mesh built with a list comprehension and a double loop."""
    edges = set(gamma1_edges)
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    coords = np.array([[x, y] for y in ys for x in xs])

    def nid(i, j):
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            n00, n10 = nid(i, j), nid(i + 1, j)
            n01, n11 = nid(i, j + 1), nid(i + 1, j + 1)
            tris.append((n00, n10, n11))
            tris.append((n00, n11, n01))
    elements = np.asarray(tris, dtype=int)

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


def _interval_local(h):
    k = np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
    m = np.array([[2.0, 1.0], [1.0, 2.0]]) * (h / 6.0)
    return k, m


def _triangle_local(coords):
    x, y = coords[:, 0], coords[:, 1]
    area2 = (x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0])
    area = 0.5 * abs(area2)
    if area <= 0.0:
        raise MeshError("zero-area element encountered during assembly")
    b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]]) / area2
    c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]]) / area2
    k = area * (np.outer(b, b) + np.outer(c, c))
    m = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
    return k, m


def _facet_mass(mesh, tag):
    n = mesh.n_nodes
    rows, cols, vals = [], [], []
    for facet, t in mesh.boundary_facets:
        if t != tag:
            continue
        if len(facet) == 1:
            rows.append(facet[0]); cols.append(facet[0]); vals.append(1.0)
        else:
            i, j = facet
            length = float(np.linalg.norm(mesh.node_coords[j] - mesh.node_coords[i]))
            loc = np.array([[2.0, 1.0], [1.0, 2.0]]) * (length / 6.0)
            for a, ga in enumerate((i, j)):
                for b_, gb in enumerate((i, j)):
                    rows.append(ga); cols.append(gb); vals.append(loc[a, b_])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def operators(mesh):
    """The assembled matrices of fem_core.assemble by name, without the
    spectral constants."""
    n = mesh.n_nodes
    rows, cols, kvals, mvals = [], [], [], []
    for elem in mesh.elements:
        coords = mesh.node_coords[list(elem)]
        if mesh.dim == 1:
            h = coords[1, 0] - coords[0, 0]
            if h <= 0.0:
                raise MeshError("zero-area element encountered during assembly")
            k_loc, m_loc = _interval_local(h)
        else:
            k_loc, m_loc = _triangle_local(coords)
        for a, ga in enumerate(elem):
            for b, gb in enumerate(elem):
                rows.append(ga); cols.append(gb)
                kvals.append(k_loc[a, b]); mvals.append(m_loc[a, b])

    mass = sp.csr_matrix((mvals, (rows, cols)), shape=(n, n))
    b1 = _facet_mass(mesh, GAMMA1)
    b2 = _facet_mass(mesh, GAMMA2)
    gamma2 = mesh.tagged_nodes(GAMMA2)
    return {
        "stiffness": sp.csr_matrix((kvals, (rows, cols)), shape=(n, n)),
        "mass": mass,
        "bmass_gamma1": b1,
        "bmass_gamma2": b2,
        "bmass_gamma2_sub": b2[np.ix_(gamma2, gamma2)].tocsr(),
    }
