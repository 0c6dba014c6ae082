"""Boundary optimal control of mixed heat-conduction problems.

Library layout:
  fem_core         meshes, P1 assembly, spectral constants, inner products
  state_solvers    backward-Euler state recursion, its exact discrete adjoint
                   and the steady solve, one entry each taking the transfer
                   coefficient alpha (+inf: exact imposition, finite > 0:
                   Robin transfer); the one place alpha becomes a system
  optimal_control  tracking costs, gradients, and one reduced-space CG driver
                   behind the boundary, distributed and simultaneous optimizers,
                   each taking alpha as the solvers do
  scalar_control   closed-form one-parameter controls and comparison checks for
                   the parabolic or elliptic problem at any alpha
  asymptotics      transfer-coefficient sweeps and long-time decay studies
  cli              batch front end (config files, CSV/JSON/SVG output)
"""

from .fem_core import (
    GAMMA1,
    GAMMA2,
    BoundaryControl,
    DiscreteOperators,
    Mesh,
    TimeField,
    TimeGrid,
    assemble,
    build_interval_mesh,
    build_rect_mesh,
)
from .state_solvers import ProblemSpec

__all__ = [
    "GAMMA1",
    "GAMMA2",
    "BoundaryControl",
    "DiscreteOperators",
    "Mesh",
    "TimeField",
    "TimeGrid",
    "ProblemSpec",
    "assemble",
    "build_interval_mesh",
    "build_rect_mesh",
]

__version__ = "0.1.0"
