"""Named analytic data profiles for the batch front end.

A profile is "name(p1,p2,...)" evaluated on node coordinates and time:

  constant(c)        c everywhere, all times
  sine-bump(a)       a * prod_i sin(pi x_i); vanishes on the unit boundary
  exp-decay(c,a,r)   c + a * exp(-r t), spatially uniform
  ramp(a)            a * x (first coordinate), time-constant

sample evaluates one on any points, at t = 0 or per time step into a trajectory.
The registry stays closed on purpose: configs carry no expression language,
and anything not expressible here comes in as a CSV reference instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

PROFILE_ARITY = {
    "constant": 1,
    "sine-bump": 1,
    "exp-decay": 3,
    "ramp": 1,
}

_PROFILE_RE = re.compile(r"^\s*([a-z\-]+)\s*\(([^)]*)\)\s*$")


class ProfileError(ValueError):
    pass


@dataclass(frozen=True)
class Profile:
    name: str
    params: tuple

    @property
    def time_dependent(self) -> bool:
        return self.name == "exp-decay"


def parse_profile(text: str) -> Profile:
    m = _PROFILE_RE.match(text)
    if not m:
        raise ProfileError(f"cannot parse profile {text!r}; expected name(p1,p2,...)")
    name, arg_text = m.group(1), m.group(2)
    if name not in PROFILE_ARITY:
        raise ProfileError(f"unknown profile {name!r}; registry: "
                           f"{sorted(PROFILE_ARITY)}")
    args = [a for a in (s.strip() for s in arg_text.split(",")) if a]
    if len(args) != PROFILE_ARITY[name]:
        raise ProfileError(f"profile {name!r} takes {PROFILE_ARITY[name]} "
                           f"parameter(s), got {len(args)}")
    try:
        params = tuple(float(a) for a in args)
    except ValueError as exc:
        raise ProfileError(f"non-numeric profile parameter in {text!r}") from exc
    return Profile(name=name, params=params)


def evaluate(profile: Profile, points: np.ndarray, t: float) -> np.ndarray:
    """Profile values at an (m, dim) array of points at time t."""
    points = np.atleast_2d(points)
    m = points.shape[0]
    if profile.name == "constant":
        return np.full(m, profile.params[0])
    if profile.name == "sine-bump":
        out = np.full(m, profile.params[0])
        for d in range(points.shape[1]):
            out = out * np.sin(np.pi * points[:, d])
        return out
    if profile.name == "exp-decay":
        c, a, r = profile.params
        return np.full(m, c + a * np.exp(-r * t))
    if profile.name == "ramp":
        return profile.params[0] * points[:, 0]
    raise ProfileError(f"unknown profile {profile.name!r}")


def sample(profile: Profile, points, grid, trajectory=False):
    """The profile at points: its one row at t = 0, or with trajectory the
    (N+1)-row array with one row per time level of grid."""
    if not trajectory:
        return evaluate(profile, points, 0.0)
    if not profile.time_dependent:
        return np.tile(evaluate(profile, points, 0.0), (grid.n_steps + 1, 1))
    return np.vstack([evaluate(profile, points, t) for t in grid.times()])
