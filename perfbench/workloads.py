"""Benchmark workloads and the seeded configs they run on.

Mesh, step count and commands are fixed per workload.  The seed only picks
the data levels (the ``v_b`` amplitude, the ``z_d`` and ``q`` levels and the
flux penalty) from fixed ranges, so every seed exercises the same code paths
with the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# seeded data levels, each drawn uniformly from its range.  The ranges are
# narrow around the shipped configs' levels so that every seed does the same
# work: wider flux penalties change the optimizers' CG iteration counts.
LEVEL_RANGES = {
    "v_b": (0.95, 1.05),
    "z_d": (0.24, 0.26),
    "q": (0.48, 0.52),
    "flux_penalty": (0.96, 1.0),
}

ALPHAS = (10, 100, 1000, 10000)


@dataclass(frozen=True)
class ConfigSpec:
    """One generated config: mesh, time grid and the command-side choices."""

    mesh: tuple          # ("1d", cells) or ("2d", nx, ny)
    steps: int
    variant: str = "dirichlet"
    control: str = "boundary"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: dict        # config name -> ConfigSpec
    invocations: tuple   # (command, config name), run in this order


WORKLOADS = {w.name: w for w in (
    Workload(
        name="batch-1d",
        why="All six commands on the shipped 1D problem, one process each: many "
            "short jobs bound by import and set-up, so cost moved into them shows.",
        configs={"1d": ConfigSpec(mesh=("1d", 256), steps=200)},
        invocations=tuple((c, "1d") for c in (
            "solve", "optimize", "lambda", "sweep-alpha", "decay", "verify")),
    ),
    Workload(
        name="optimize-2d",
        why="Boundary (Dirichlet) then simultaneous (Robin) optimize on 48x48, 100 "
            "steps: long marches on one factorization per run and large field CSVs.",
        configs={
            "2d-boundary": ConfigSpec(mesh=("2d", 48, 48), steps=100),
            "2d-simultaneous": ConfigSpec(mesh=("2d", 48, 48), steps=100,
                                          variant="robin", control="simultaneous"),
        },
        invocations=(("optimize", "2d-boundary"), ("optimize", "2d-simultaneous")),
    ),
    Workload(
        name="verify-2d",
        why="verify on 48x48, 100 steps: 43 stepper factorizations for 2 systems, 62 "
            "marches, both boundary variants, dense spectral certificates; peak "
            "memory, no CSV.",
        configs={"2d": ConfigSpec(mesh=("2d", 48, 48), steps=100)},
        invocations=(("verify", "2d"),),
    ),
    Workload(
        name="solve-2d-150",
        why="solve on 150x150, 10 steps: 22,650 free nodes exceed DIRECT_LIMIT, the "
            "only workload on the Jacobi-CG path and large Python-loop assembly.",
        configs={"2d-150": ConfigSpec(mesh=("2d", 150, 150), steps=10)},
        invocations=(("solve", "2d-150"),),
    ),
)}


def draw_levels(seed: int) -> dict:
    """Data levels for one seed; the same seed always gives the same levels."""
    rng = random.Random(seed)
    return {key: round(rng.uniform(lo, hi), 4)
            for key, (lo, hi) in LEVEL_RANGES.items()}


def config_text(spec: ConfigSpec, levels: dict) -> str:
    if spec.mesh[0] == "1d":
        mesh = f"dim = 1\ncells = {spec.mesh[1]}\n"
    else:
        mesh = f"dim = 2\nnx = {spec.mesh[1]}\nny = {spec.mesh[2]}\n"
    return (
        "[mesh]\n" + mesh + "gamma1 = left\n\n"
        "[grid]\nt_final = 1.0\n"
        f"steps = {spec.steps}\n\n"
        "[data]\n"
        "g = constant(1.0)\n"
        "b = constant(0.0)\n"
        f"v_b = sine-bump({levels['v_b']!r})\n"
        f"z_d = constant({levels['z_d']!r})\n"
        f"q = constant({levels['q']!r})\n"
        "q0 = constant(1.0)\n"
        f"variant = {spec.variant}\n"
        f"control = {spec.control}\n\n"
        "[weights]\n"
        f"flux_penalty = {levels['flux_penalty']!r}\n"
        "source_penalty = 1.0\n"
        "alpha = 5.0\n"
        f"alphas = {', '.join(str(a) for a in ALPHAS)}\n\n"
        "[tolerances]\nopt_tol = 1e-10\n\n"
        "[output]\nplots = false\n"
    )


def write_configs(workload: Workload, seed: int, directory: Path) -> dict:
    """Write the workload's configs for this seed; returns name -> path."""
    levels = draw_levels(seed)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, spec in workload.configs.items():
        path = directory / f"{name}.cfg"
        path.write_text(config_text(spec, levels), encoding="utf-8")
        paths[name] = path
    return paths
