"""Flat, line-oriented run configuration.

The format is bracketed sections over "key = value" lines:

    [mesh]
    dim = 1
    cells = 256
    gamma1 = left

Chosen over nested formats so every diagnostic can cite a file line and no
parser dependency is implied.  Data entries are either profile expressions
(see profiles.py) or "csv:relative/path" references resolved against the
config file's directory.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import check_alphas
from .fem_core import (
    BoundaryControl,
    TimeField,
    TimeGrid,
    assemble,
    build_interval_mesh,
    build_rect_mesh,
)
from .profiles import (
    ProfileError,
    control_from_profile,
    field_from_profile,
    gamma1_values_from_profile,
    parse_profile,
)
from .state_solvers import ProblemSpec

KNOWN_KEYS = {
    "mesh": {"dim", "cells", "nx", "ny", "gamma1"},
    "grid": {"t_final", "steps"},
    "data": {"g", "b", "v_b", "z_d", "q", "q0", "g_inf", "q_inf", "variant", "control"},
    "weights": {"flux_penalty", "source_penalty", "alpha", "alphas"},
    "tolerances": {"opt_tol"},
    "output": {"plots"},
}


class ConfigError(ValueError):
    """Validation failure with a file/line anchor when one is known."""

    def __init__(self, message, path="<config>", line=None):
        self.path = path
        self.line = line
        anchor = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(anchor + message)


@dataclass
class RawConfig:
    path: str
    text: str
    # section -> key -> (value string, line number)
    entries: dict = field(default_factory=dict)

    def get(self, section, key, default=None):
        return self.entries.get(section, {}).get(key, (default, None))[0]

    def line_of(self, section, key):
        return self.entries.get(section, {}).get(key, (None, None))[1]

    def require(self, section, key):
        value = self.get(section, key)
        if value is None:
            raise ConfigError(f"missing required key '{key}' in section [{section}]",
                              self.path)
        return value


def parse_config_text(text: str, path: str = "<config>") -> RawConfig:
    cfg = RawConfig(path=path, text=text)
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in KNOWN_KEYS:
                raise ConfigError(f"unknown section [{section}]", path, lineno)
            cfg.entries.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", path, lineno)
        if section is None:
            raise ConfigError("key outside of any [section]", path, lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS[section]:
            raise ConfigError(f"unknown key '{key}' in section [{section}]",
                              path, lineno)
        if key in cfg.entries[section]:
            raise ConfigError(f"duplicate key '{key}' in section [{section}]",
                              path, lineno)
        cfg.entries[section][key] = (value, lineno)
    return cfg


def load_config(path: str) -> RawConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path) from exc
    return parse_config_text(text, path)


def _parse_float(cfg, section, key, value):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"key '{key}' must be a number, got {value!r}",
                          cfg.path, cfg.line_of(section, key)) from None


def _parse_positive(cfg, section, key, default):
    value = _parse_float(cfg, section, key, cfg.get(section, key, default))
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"key '{key}' must be finite and > 0, got {value}",
                          cfg.path, cfg.line_of(section, key))
    return value


def _parse_int(cfg, section, key, value):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"key '{key}' must be an integer, got {value!r}",
                          cfg.path, cfg.line_of(section, key)) from None


def _read_csv(path, grid, kind, width):
    """A 'field' (TimeField) or 'control' (BoundaryControl) trajectory from a
    CSV in the layout the CLI writes: step, time, then width value columns."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    values = rows[:, 2:]
    if values.shape != (grid.n_steps + 1, width):
        raise ConfigError(f"CSV {kind} {path} has shape {values.shape}, expected "
                          f"({grid.n_steps + 1}, {width})", path)
    return (TimeField if kind == "field" else BoundaryControl)(values.copy())


@dataclass
class Problem:
    """Everything a command needs, built once from a parsed config."""

    mesh: object
    ops: object
    grid: TimeGrid
    spec: ProblemSpec
    cfg: RawConfig
    q: BoundaryControl | None = None
    q0: BoundaryControl | None = None
    g_inf: np.ndarray | None = None
    q_inf: np.ndarray | None = None
    variant: str = "dirichlet"
    control: str = "boundary"
    alphas: list = field(default_factory=list)
    opt_tol: float = 1e-10
    plots: bool = False
    q_mode: str = "fixed"  # "optimize" runs one optimization per sweep row


def _build_mesh(cfg: RawConfig):
    dim = _parse_int(cfg, "mesh", "dim", cfg.require("mesh", "dim"))
    gamma1 = cfg.require("mesh", "gamma1")
    sides = [s.strip() for s in gamma1.split(",") if s.strip()]
    try:
        if dim == 1:
            cells = _parse_int(cfg, "mesh", "cells", cfg.require("mesh", "cells"))
            if len(sides) != 1:
                raise ConfigError("1D gamma1 must be a single side (left or right)",
                                  cfg.path, cfg.line_of("mesh", "gamma1"))
            return build_interval_mesh(cells, 0.0, 1.0, sides[0])
        if dim == 2:
            nx = _parse_int(cfg, "mesh", "nx", cfg.require("mesh", "nx"))
            ny = _parse_int(cfg, "mesh", "ny", cfg.require("mesh", "ny"))
            return build_rect_mesh(nx, ny, set(sides))
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc), cfg.path, cfg.line_of("mesh", "gamma1")) from exc
    raise ConfigError(f"dim must be 1 or 2, got {dim}", cfg.path,
                      cfg.line_of("mesh", "dim"))


def _data_entry(cfg, key, kind, ops, grid, required=False):
    """kind: 'field' | 'control' | 'gamma1' | 'spatial_field' | 'spatial_control'."""
    value = cfg.get("data", key)
    if value is None:
        if required:
            raise ConfigError(f"missing required key '{key}' in section [data]",
                              cfg.path)
        return None
    line = cfg.line_of("data", key)
    if value.startswith("csv:"):
        rel = value[len("csv:"):].strip()
        base = os.path.dirname(os.path.abspath(cfg.path)) if cfg.path != "<config>" else "."
        full = os.path.join(base, rel)
        if not os.path.exists(full):
            raise ConfigError(f"referenced file does not exist: {full}",
                              cfg.path, line)
        if kind == "field":
            return _read_csv(full, grid, kind, ops.n_nodes)
        if kind == "control":
            return _read_csv(full, grid, kind, ops.gamma2_nodes.size)
        raise ConfigError(f"key '{key}' does not accept CSV references",
                          cfg.path, line)
    try:
        profile = parse_profile(value)
    except ProfileError as exc:
        raise ConfigError(str(exc), cfg.path, line) from exc
    if kind == "field":
        return field_from_profile(profile, ops.mesh, grid)
    if kind == "control":
        return control_from_profile(profile, ops, grid)
    if kind == "gamma1":
        return gamma1_values_from_profile(profile, ops)
    if kind == "spatial_field":
        return field_from_profile(profile, ops.mesh, grid).values[0].copy()
    if kind == "spatial_control":
        return control_from_profile(profile, ops, grid).values[0].copy()
    raise ConfigError(f"internal: unknown data kind {kind!r}", cfg.path, line)


def build_problem(cfg: RawConfig) -> Problem:
    mesh = _build_mesh(cfg)
    # every key that does not need the operators is checked before assembly
    t_final = _parse_float(cfg, "grid", "t_final", cfg.require("grid", "t_final"))
    steps = _parse_int(cfg, "grid", "steps", cfg.require("grid", "steps"))
    if steps < 1:
        raise ConfigError(f"key 'steps' must be >= 1, got {steps}", cfg.path,
                          cfg.line_of("grid", "steps"))
    try:
        grid = TimeGrid(t_final=t_final, n_steps=steps)
    except ValueError as exc:
        raise ConfigError(str(exc), cfg.path, cfg.line_of("grid", "t_final")) from exc

    flux_penalty = _parse_positive(cfg, "weights", "flux_penalty", "1.0")
    source_penalty = _parse_positive(cfg, "weights", "source_penalty", "1.0")
    # an absent alpha imposes the datum exactly, as does an explicit inf
    alpha = _parse_float(cfg, "weights", "alpha", cfg.get("weights", "alpha", "inf"))
    if not alpha > 0:
        raise ConfigError(f"key 'alpha' must be > 0, got {alpha}", cfg.path,
                          cfg.line_of("weights", "alpha"))
    alphas_text = cfg.get("weights", "alphas")
    alphas = []
    if alphas_text is not None:
        for part in alphas_text.split(","):
            part = part.strip()
            if part:
                alphas.append(_parse_float(cfg, "weights", "alphas", part))
        try:
            alphas = check_alphas(alphas)
        except ValueError as exc:
            raise ConfigError(f"key 'alphas': {exc}", cfg.path,
                              cfg.line_of("weights", "alphas")) from exc

    control = cfg.get("data", "control", "boundary")
    if control not in ("boundary", "distributed", "simultaneous"):
        raise ConfigError(f"control must be boundary, distributed or simultaneous, "
                          f"got {control!r}", cfg.path, cfg.line_of("data", "control"))
    opt_tol = _parse_positive(cfg, "tolerances", "opt_tol", "1e-10")

    ops = assemble(mesh)
    g = _data_entry(cfg, "g", "field", ops, grid, required=True)
    z_d = _data_entry(cfg, "z_d", "field", ops, grid, required=True)
    b = _data_entry(cfg, "b", "gamma1", ops, grid, required=True)
    v_b_field = _data_entry(cfg, "v_b", "field", ops, grid, required=True)
    v_b = v_b_field.values[0].copy()
    # profiles evaluate trig at boundary points with roundoff; snap when the
    # mismatch is clearly numerical noise, reject otherwise
    gap = np.abs(v_b[ops.dirichlet_nodes] - b)
    scale = max(float(np.max(np.abs(v_b))), float(np.max(np.abs(b))), 1.0)
    if np.max(gap) > 1e-12 * scale:
        raise ConfigError("v_b disagrees with b on the gamma1 nodes "
                          f"(max gap {np.max(gap):.3e})", cfg.path,
                          cfg.line_of("data", "v_b"))
    v_b[ops.dirichlet_nodes] = b

    spec = ProblemSpec(
        source=g, boundary_temp=b, initial_temp=v_b, target=z_d,
        flux_penalty=flux_penalty, source_penalty=source_penalty,
        transfer_coeff=alpha)
    try:
        spec.validate(ops, grid)
    except ValueError as exc:
        raise ConfigError(str(exc), cfg.path) from exc

    variant = cfg.get("data", "variant", "dirichlet")
    plots = cfg.get("output", "plots", "false").lower() in ("true", "1", "yes")

    q_mode = "fixed"
    q_ctrl = None
    if cfg.get("data", "q") == "optimize":
        q_mode = "optimize"
    else:
        q_ctrl = _data_entry(cfg, "q", "control", ops, grid)

    return Problem(
        mesh=mesh, ops=ops, grid=grid, spec=spec, cfg=cfg,
        q=q_ctrl,
        q0=_data_entry(cfg, "q0", "control", ops, grid),
        g_inf=_data_entry(cfg, "g_inf", "spatial_field", ops, grid),
        q_inf=_data_entry(cfg, "q_inf", "spatial_control", ops, grid),
        variant=variant, control=control, alphas=alphas,
        opt_tol=opt_tol, plots=plots, q_mode=q_mode)
