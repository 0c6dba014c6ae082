"""Boundary optimal control of mixed heat-conduction problems.

Library layout:
  fem_core         meshes, P1 assembly, spectral constants, inner products
  state_solvers    backward-Euler parabolic and elliptic forward solvers; the
                   one place the transfer coefficient alpha becomes a system
                   (+inf: exact imposition, finite > 0: Robin transfer)
  adjoint_solvers  exact discrete adjoints of the state recursions
  optimal_control  tracking costs, gradients, and one reduced-space CG driver
                   behind the boundary, distributed and simultaneous optimizers
  scalar_control   closed-form one-parameter controls and comparison checks
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
