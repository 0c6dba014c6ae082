import numpy as np
import pytest

from parctrl import fem_core
from parctrl.fem_core import TimeGrid
from parctrl.state_solvers import ProblemSpec


@pytest.fixture(scope="session")
def ops1d():
    return fem_core.assemble(fem_core.build_interval_mesh(64, 0.0, 1.0, "left"))


@pytest.fixture(scope="session")
def ops1d_fine():
    return fem_core.assemble(fem_core.build_interval_mesh(256, 0.0, 1.0, "left"))


@pytest.fixture(scope="session")
def ops2d():
    return fem_core.assemble(fem_core.build_rect_mesh(8, 8, {"left"}))


@pytest.fixture(scope="session")
def grid():
    return TimeGrid(t_final=1.0, n_steps=40)


def make_spec(ops, grid, source_value=1.0, target_value=0.25, bump=1.0,
              flux_penalty=1.0, source_penalty=1.0):
    """Small smooth benchmark problem: zero boundary temperature, an interior
    sine bump as initial state, constant source and constant target."""
    x = ops.mesh.node_coords
    if ops.mesh.dim == 1:
        v0 = bump * np.sin(np.pi * x[:, 0])
    else:
        v0 = bump * np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    v0[ops.dirichlet_nodes] = 0.0
    n = ops.n_nodes
    return ProblemSpec(
        source=np.full((grid.n_steps + 1, n), source_value),
        boundary_temp=np.zeros(ops.dirichlet_nodes.size),
        initial_temp=v0,
        target=np.full((grid.n_steps + 1, n), target_value),
        flux_penalty=flux_penalty,
        source_penalty=source_penalty,
    )


@pytest.fixture()
def spec1d(ops1d, grid):
    return make_spec(ops1d, grid)


def random_control(rng, grid, ops, scale=1.0):
    q = np.zeros((grid.n_steps + 1, ops.gamma2_nodes.size))
    q[1:] = scale * rng.standard_normal(q[1:].shape)
    return q


def random_field(rng, grid, ops, scale=1.0):
    f = np.zeros((grid.n_steps + 1, ops.n_nodes))
    f[1:] = scale * rng.standard_normal(f[1:].shape)
    return f


def rel_err(a, b):
    denom = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / denom
