"""Flat, line-oriented run configuration.

The format is bracketed sections over "key = value" lines:

    [mesh]
    dim = 1
    cells = 256
    gamma1 = left

Chosen over nested formats so every diagnostic can cite a file line and no
parser dependency is implied.  Data entries are either profile expressions
(see profiles.py) or "csv:relative/path" references resolved against the
directory of the config file first read, which a run's manifest records.
This is the one reader of a config (a file, or the one a run's manifest.json
echoes); build_problem resolves every value.  It samples each [data] entry
on the mesh's nodes and assembles the operators last, so every error raised
here, a CSV's or a non-finite value's too, comes before assembly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import OPTIMIZE, check_alphas
from .fem_core import (GAMMA1, GAMMA2, MeshError, TimeGrid, assemble,
                       build_interval_mesh, build_rect_mesh)
from .profiles import parse_profile, sample
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
    """Validation failure with a file/line anchor when one is known.  It
    pickles as its unanchored message, path and line (and its notes), so it
    crosses a process boundary as itself."""

    def __init__(self, message, path="<config>", line=None):
        self.message = message
        self.path = path
        self.line = line
        anchor = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(anchor + message)

    def __reduce__(self):
        return type(self), (self.message, self.path, self.line), self.__dict__


@dataclass
class RawConfig:
    path: str
    text: str
    source: str  # the config file text was first read from; csv: paths start there
    # section -> key -> (value string, line number)
    entries: dict = field(default_factory=dict)
    sections: dict = field(default_factory=dict)  # section -> line of its header

    def get(self, section, key, default=None):
        return self.entries.get(section, {}).get(key, (default, None))[0]

    def error(self, key, message):
        """The ConfigError for message, cited at the line that sets key: each
        key name is in one section of KNOWN_KEYS.  A key the config does not
        set gives no line."""
        section = next((s for s, keys in KNOWN_KEYS.items() if key in keys), None)
        return ConfigError(message, self.path,
                           self.entries.get(section, {}).get(key, (None, None))[1])

    def require(self, section, key):
        value = self.get(section, key)
        if value is None:  # cited at the section's header, when there is one
            raise ConfigError(f"missing required key '{key}' in section [{section}]",
                              self.path, self.sections.get(section))
        return value


def parse_config_text(text: str, path: str = "<config>") -> RawConfig:
    cfg = RawConfig(path=path, text=text, source=path)
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
            cfg.sections.setdefault(section, lineno)
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
    """The config at path, or the config_text a manifest.json echoes; either
    way its source is the config file first read (a manifest's config_path)."""
    manifest = path.endswith(".json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = json.load(fh) if manifest else fh.read()
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {'manifest' if manifest else 'config'}: {exc}",
                          path) from exc
    echo = text if isinstance(text, dict) else {"config_text": None if manifest else text}
    if not isinstance(echo.get("config_text"), str):
        raise ConfigError("manifest carries no config_text string", path)
    cfg = parse_config_text(echo["config_text"], path)
    cfg.source = os.path.abspath(str(echo.get("config_path", path)))
    return cfg


def _parse_float(cfg, key, value):
    try:
        return float(value)
    except ValueError:
        raise cfg.error(key, f"key '{key}' must be a number, got {value!r}") from None


def _parse_positive(cfg, section, key, default):
    value = _parse_float(cfg, key, cfg.get(section, key, default))
    if not (math.isfinite(value) and value > 0):
        raise cfg.error(key, f"key '{key}' must be finite and > 0, got {value}")
    return value


def _parse_int(cfg, section, key, minimum=None):
    """The required integer key, at least minimum when one is given."""
    value = cfg.require(section, key)
    try:
        number = int(value)
    except ValueError:
        raise cfg.error(key, f"key '{key}' must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise cfg.error(key, f"key '{key}' must be >= {minimum}, got {number}")
    return number


_BOOLEANS = {"true": True, "false": False, "1": True, "0": False,
             "yes": True, "no": False}
_REQUIRED = object()  # the _data_entry default of a [data] key that must be set


def _parse_bool(cfg, section, key, default):
    value = cfg.get(section, key, default)
    if value.lower() not in _BOOLEANS:
        raise cfg.error(key, f"key '{key}' must be one of {', '.join(_BOOLEANS)}, "
                             f"got {value!r}")
    return _BOOLEANS[value.lower()]


def _read_csv(path, grid, kind, width):
    """The (N+1, width) trajectory in a CSV in the layout the CLI writes:
    step, time, then width value columns.  A file that cannot be read as one
    raises ValueError naming it a CSV kind ("field" or "control")."""
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read CSV {kind} {path}: {exc}") from exc
    values = rows[:, 2:]
    if values.shape != (grid.n_steps + 1, width):
        raise ValueError(f"CSV {kind} {path} has shape {values.shape}, expected "
                         f"({grid.n_steps + 1}, {width})")
    return values.copy()


@dataclass
class Problem:
    """Everything a command needs, built once from a parsed config; the
    [data] variant gives the problem kind and the alpha it runs with."""

    ops: object
    grid: TimeGrid
    spec: ProblemSpec
    cfg: RawConfig
    q: np.ndarray | str  # or OPTIMIZE, which sweep-alpha reads
    q0: np.ndarray
    g_inf: np.ndarray | None = None
    q_inf: np.ndarray | None = None
    variant: str = "dirichlet"
    alpha: float = math.inf  # [weights] alpha, which the Robin variants run with
    control: str = "boundary"
    alphas: list = field(default_factory=list)
    opt_tol: float = 1e-10
    plots: bool = False

    @property
    def kind(self):
        """'elliptic' for an elliptic variant name, else 'parabolic'."""
        return "elliptic" if self.variant.startswith("elliptic") else "parabolic"

    @property
    def variant_alpha(self):
        """alpha for a variant name ending in robin, else inf."""
        return self.alpha if self.variant.endswith("robin") else math.inf


def _build_mesh(cfg: RawConfig):
    dim = _parse_int(cfg, "mesh", "dim")
    # a size key of the other dimension would be accepted and then ignored
    for key in {1: ("nx", "ny"), 2: ("cells",)}.get(dim, ()):
        if cfg.get("mesh", key) is not None:
            raise cfg.error(key, f"key '{key}' does not apply to a {dim}D mesh")
    gamma1 = cfg.require("mesh", "gamma1")
    sides = [s.strip() for s in gamma1.split(",") if s.strip()]
    if dim == 1:
        cells = _parse_int(cfg, "mesh", "cells", minimum=2)
        if len(sides) != 1:
            raise cfg.error("gamma1", "1D gamma1 must be a single side (left or right)")
        build, args = build_interval_mesh, (cells, 0.0, 1.0, sides[0])
    elif dim == 2:
        nx, ny = (_parse_int(cfg, "mesh", key, minimum=2) for key in ("nx", "ny"))
        build, args = build_rect_mesh, (nx, ny, set(sides))
    else:
        raise cfg.error("dim", f"dim must be 1 or 2, got {dim}")
    # sizes are checked at their own lines; what the builders reject after
    # that is a bad side name, cited at the gamma1 line
    try:
        return build(*args)
    except MeshError as exc:
        raise cfg.error("gamma1", str(exc)) from exc


def _data_entry(cfg, key, grid, points, kind=None, default=None):
    """The [data] entry key (default when absent) sampled at points, or None
    when absent: with kind None the profile's row at t = 0, with kind "field"
    or "control" the (N+1)-row trajectory, from a profile (a time-constant
    one's read-only, see profiles.sample) or a CSV reference.
    A _REQUIRED key's absence, its profile, its CSV path, a CSV that cannot
    be read as one and a value that is not finite raise ConfigError."""
    value = cfg.require("data", key) if default is _REQUIRED else cfg.get("data", key, default)
    if value is None:
        return None
    full = None  # the path of a CSV reference
    if value.startswith("csv:"):
        rel = value[len("csv:"):].strip()
        full = os.path.join(os.path.dirname(os.path.abspath(cfg.source)), rel)
        if not os.path.exists(full):
            raise cfg.error(key, f"referenced file does not exist: {full}")
        if kind is None:
            raise cfg.error(key, f"key '{key}' does not accept CSV references")
    # a nan or inf, written or overflowed, would run into every output
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below
            values = (sample(parse_profile(value), points, grid, kind is not None)
                      if full is None else _read_csv(full, grid, kind, len(points)))
    except ValueError as exc:  # a bad profile, or a CSV that is not one
        raise cfg.error(key, str(exc)) from exc
    # a time-constant profile's trajectory holds one row, repeated by stride 0
    held = values[:1] if values.strides[0] == 0 else values
    finite = np.isfinite(held)
    if not finite.all():
        raise cfg.error(key, f"key '{key}' must be finite, got {held[~finite][0]}")
    return values


def build_problem(cfg: RawConfig) -> Problem:
    # one pass in dependency order: the mesh, the scalar keys, the [data]
    # entries sampled on its nodes, then assembly, which on a large mesh
    # costs seconds; so a bad key fails before it
    mesh = _build_mesh(cfg)
    t_final = _parse_float(cfg, "t_final", cfg.require("grid", "t_final"))
    steps = _parse_int(cfg, "grid", "steps", minimum=1)
    try:
        grid = TimeGrid(t_final=t_final, n_steps=steps)
    except ValueError as exc:
        raise cfg.error("t_final", str(exc)) from exc

    flux_penalty = _parse_positive(cfg, "weights", "flux_penalty", "1.0")
    source_penalty = _parse_positive(cfg, "weights", "source_penalty", "1.0")
    # an absent alpha imposes the datum exactly, as does an explicit inf
    alpha = _parse_float(cfg, "alpha", cfg.get("weights", "alpha", "inf"))
    if not alpha > 0:
        raise cfg.error("alpha", f"key 'alpha' must be > 0, got {alpha}")
    alphas_text = cfg.get("weights", "alphas")
    alphas = []
    if alphas_text is not None:
        for part in alphas_text.split(","):
            part = part.strip()
            if part:
                alphas.append(_parse_float(cfg, "alphas", part))
        try:
            alphas = check_alphas(alphas)
        except ValueError as exc:
            raise cfg.error("alphas", f"key 'alphas': {exc}") from exc

    control = cfg.get("data", "control", "boundary")
    if control not in ("boundary", "distributed", "simultaneous"):
        raise cfg.error("control", "control must be boundary, distributed or "
                        f"simultaneous, got {control!r}")
    opt_tol = _parse_positive(cfg, "tolerances", "opt_tol", "1e-10")
    plots = _parse_bool(cfg, "output", "plots", "false")
    every = mesh.node_coords
    dirichlet = mesh.tagged_nodes(GAMMA1)
    gamma1, gamma2 = every[dirichlet], every[mesh.tagged_nodes(GAMMA2)]
    g = _data_entry(cfg, "g", grid, every, "field", _REQUIRED)
    z_d = _data_entry(cfg, "z_d", grid, every, "field", _REQUIRED)
    b = _data_entry(cfg, "b", grid, gamma1, None, _REQUIRED)
    # v_b is read at t = 0 only: a CSV reference's row 0, a profile sampled there
    v_b_csv = cfg.get("data", "v_b", "").startswith("csv:")
    v_b = _data_entry(cfg, "v_b", grid, every, "field" if v_b_csv else None, _REQUIRED)
    if v_b_csv:
        v_b = v_b[0].copy()
    # an absent q is the zero flux, an absent q0 the unit flux direction
    q = (OPTIMIZE if cfg.get("data", "q") == OPTIMIZE
         else _data_entry(cfg, "q", grid, gamma2, "control", "constant(0)"))
    q0 = _data_entry(cfg, "q0", grid, gamma2, "control", "constant(1)")
    g_inf = _data_entry(cfg, "g_inf", grid, every)
    q_inf = _data_entry(cfg, "q_inf", grid, gamma2)
    # profiles evaluate trig at boundary points with roundoff; snap when the
    # mismatch is clearly numerical noise, reject otherwise
    gap = np.abs(v_b[dirichlet] - b)
    scale = max(float(np.max(np.abs(v_b))), float(np.max(np.abs(b))), 1.0)
    if np.max(gap) > 1e-12 * scale:
        raise cfg.error("v_b", "v_b disagrees with b on the gamma1 nodes "
                        f"(max gap {np.max(gap):.3e})")
    v_b[dirichlet] = b

    ops = assemble(mesh)
    spec = ProblemSpec(
        source=g, boundary_temp=b, initial_temp=v_b, target=z_d,
        flux_penalty=flux_penalty, source_penalty=source_penalty)
    try:
        spec.validate(ops, grid)
    except ValueError as exc:
        raise ConfigError(str(exc), cfg.path) from exc

    return Problem(
        ops=ops, grid=grid, spec=spec, cfg=cfg, q=q, q0=q0, g_inf=g_inf, q_inf=q_inf,
        variant=cfg.get("data", "variant", "dirichlet"), alpha=alpha, control=control,
        alphas=alphas, opt_tol=opt_tol, plots=plots)
