"""Flat, line-oriented run configuration.

The format is bracketed sections over "key = value" lines:

    [mesh]
    dim = 1
    cells = 256
    gamma1 = left

Chosen over nested formats so every diagnostic can cite a file line and no
parser dependency is implied.  Data entries are either profile expressions
(see profiles.py) or "csv:relative/path" references resolved against the
config file's directory.  This is the one reader of a config (a file, or the
one a run's manifest.json echoes); build_problem resolves every value.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import OPTIMIZE, check_alphas
from .fem_core import TimeGrid, assemble, build_interval_mesh, build_rect_mesh
from .profiles import ProfileError, parse_profile, sample
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
    """The config at path, or the config_text a manifest.json echoes."""
    manifest = path.endswith(".json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = json.load(fh) if manifest else fh.read()
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {'manifest' if manifest else 'config'}: {exc}",
                          path) from exc
    if manifest:
        text = text.get("config_text") if isinstance(text, dict) else None
        if not isinstance(text, str):
            raise ConfigError("manifest carries no config_text string", path)
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


def _parse_int(cfg, section, key, minimum=None):
    """The required integer key, at least minimum when one is given."""
    value = cfg.require(section, key)
    try:
        number = int(value)
    except ValueError:
        raise ConfigError(f"key '{key}' must be an integer, got {value!r}",
                          cfg.path, cfg.line_of(section, key)) from None
    if minimum is not None and number < minimum:
        raise ConfigError(f"key '{key}' must be >= {minimum}, got {number}",
                          cfg.path, cfg.line_of(section, key))
    return number


_BOOLEANS = {"true": True, "false": False, "1": True, "0": False,
             "yes": True, "no": False}
_REQUIRED = object()  # the _data_entry default of a [data] key that must be set


def _parse_bool(cfg, section, key, default):
    value = cfg.get(section, key, default)
    if value.lower() not in _BOOLEANS:
        raise ConfigError(f"key '{key}' must be one of {', '.join(_BOOLEANS)}, "
                          f"got {value!r}", cfg.path, cfg.line_of(section, key))
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

    mesh: object
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
            raise ConfigError(f"key '{key}' does not apply to a {dim}D mesh",
                              cfg.path, cfg.line_of("mesh", key))
    gamma1 = cfg.require("mesh", "gamma1")
    sides = [s.strip() for s in gamma1.split(",") if s.strip()]
    # sizes are checked at their own lines; what the builders reject after
    # that is a bad side name, cited at the gamma1 line
    try:
        if dim == 1:
            cells = _parse_int(cfg, "mesh", "cells", minimum=2)
            if len(sides) != 1:
                raise ConfigError("1D gamma1 must be a single side (left or right)",
                                  cfg.path, cfg.line_of("mesh", "gamma1"))
            return build_interval_mesh(cells, 0.0, 1.0, sides[0])
        if dim == 2:
            nx = _parse_int(cfg, "mesh", "nx", minimum=2)
            ny = _parse_int(cfg, "mesh", "ny", minimum=2)
            return build_rect_mesh(nx, ny, set(sides))
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc), cfg.path, cfg.line_of("mesh", "gamma1")) from exc
    raise ConfigError(f"dim must be 1 or 2, got {dim}", cfg.path,
                      cfg.line_of("mesh", "dim"))


def _data_entry(cfg, key, grid, kind=None, default=None):
    """The [data] entry key (default when absent), checked without the
    operators: a _REQUIRED key's absence, its profile and its CSV path raise
    ConfigError here.  Returns a function of the sampling points that gives
    its values there (None when absent):
    with kind None the profile's row at t = 0, with kind "field" or
    "control" the (N+1)-row trajectory, from a profile or a CSV reference.
    That function raises ConfigError when a CSV cannot be read or a value
    is not finite."""
    value = cfg.get("data", key, default)
    if value is _REQUIRED:
        raise ConfigError(f"missing required key '{key}' in section [data]", cfg.path)
    if value is None:
        return lambda points: None
    line = cfg.line_of("data", key)
    if value.startswith("csv:"):
        rel = value[len("csv:"):].strip()
        base = os.path.dirname(os.path.abspath(cfg.path)) if cfg.path != "<config>" else "."
        full = os.path.join(base, rel)
        if not os.path.exists(full):
            raise ConfigError(f"referenced file does not exist: {full}",
                              cfg.path, line)
        if kind is None:
            raise ConfigError(f"key '{key}' does not accept CSV references",
                              cfg.path, line)

        def read(points):
            try:
                return _read_csv(full, grid, kind, len(points))
            except ValueError as exc:
                raise ConfigError(str(exc), cfg.path, line) from exc
    else:
        try:
            profile = parse_profile(value)
        except ProfileError as exc:
            raise ConfigError(str(exc), cfg.path, line) from exc

        def read(points):
            return sample(profile, points, grid, kind is not None)

    def checked(points):
        # a nan or inf, written or overflowed, would run into every output
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below
            values = read(points)
        finite = np.isfinite(values)
        if not finite.all():
            raise ConfigError(f"key '{key}' must be finite, got {values[~finite][0]}",
                              cfg.path, line)
        return values
    return checked


def build_problem(cfg: RawConfig) -> Problem:
    mesh = _build_mesh(cfg)
    # every key that does not need the operators is checked before assembly
    t_final = _parse_float(cfg, "grid", "t_final", cfg.require("grid", "t_final"))
    steps = _parse_int(cfg, "grid", "steps", minimum=1)
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
    plots = _parse_bool(cfg, "output", "plots", "false")
    # so is each [data] entry; they are sampled once the nodes are known
    optimize_q = cfg.get("data", "q") == OPTIMIZE
    # v_b is read at t = 0 only: a CSV reference's row 0, a profile sampled there
    v_b_csv = cfg.get("data", "v_b", "").startswith("csv:")
    # an absent q is the zero flux, an absent q0 the unit flux direction
    data = {key: _data_entry(cfg, key, grid, kind, default)
            for key, kind, default in (
                ("g", "field", _REQUIRED), ("z_d", "field", _REQUIRED),
                ("b", None, _REQUIRED), ("v_b", "field" if v_b_csv else None, _REQUIRED),
                ("q", "control", "constant(0)"), ("q0", "control", "constant(1)"),
                ("g_inf", None, None), ("q_inf", None, None))
            if not (key == "q" and optimize_q)}

    ops = assemble(mesh)
    every = ops.mesh.node_coords
    gamma1, gamma2 = every[ops.dirichlet_nodes], every[ops.gamma2_nodes]
    g, z_d, b = data["g"](every), data["z_d"](every), data["b"](gamma1)
    v_b = data["v_b"](every)
    if v_b_csv:
        v_b = v_b[0].copy()
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
        flux_penalty=flux_penalty, source_penalty=source_penalty)
    try:
        spec.validate(ops, grid)
    except ValueError as exc:
        raise ConfigError(str(exc), cfg.path) from exc

    return Problem(
        mesh=mesh, ops=ops, grid=grid, spec=spec, cfg=cfg,
        q=OPTIMIZE if optimize_q else data["q"](gamma2), q0=data["q0"](gamma2),
        g_inf=data["g_inf"](every), q_inf=data["q_inf"](gamma2),
        variant=cfg.get("data", "variant", "dirichlet"), alpha=alpha, control=control,
        alphas=alphas, opt_tol=opt_tol, plots=plots)
