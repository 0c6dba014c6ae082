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
  properties       the verify property table over one configured problem
  cli              batch front end (config files, CSV/JSON/SVG output)

The names below are re-exported lazily (PEP 562): ``import parctrl`` loads
neither numpy nor scipy, so the CLI module is the first to run when
``python -m parctrl.cli`` or the ``parctrl`` script starts, and it sets the
OpenBLAS thread count before the BLAS loads (see cli).  Library callers
choose the thread count for their own process.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    "GAMMA1": "fem_core",
    "GAMMA2": "fem_core",
    "DiscreteOperators": "fem_core",
    "Mesh": "fem_core",
    "TimeGrid": "fem_core",
    "ProblemSpec": "state_solvers",
    "assemble": "fem_core",
    "build_interval_mesh": "fem_core",
    "build_rect_mesh": "fem_core",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
