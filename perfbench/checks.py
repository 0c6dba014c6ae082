"""Output checks for one CLI invocation.

An invocation passes when it exits 0, ``verify`` reports that every property
passed, each ``optimize`` result is converged, every CSV it writes has the
header documented in the README and the expected number of rows, and each
CSV is byte-identical to the same file from the first pass of the run.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

VERIFY_OK_LINE = "verify: all properties passed"

SWEEP_HEADER = "alpha,err_state,err_adjoint,err_control,boundary_mismatch,converged"
DECAY_HEADER = "t,err_H,bound,ratio"
LAMBDA_HEADER = "variant,A,B,C,lambda_opt,H_opt"


def expected_csvs(command: str, control: str, steps: int, n_alphas: int) -> dict:
    """CSV file name -> (header kind, data row count) for one command."""
    if command == "solve":
        return {"u.csv": ("field", steps + 1)}
    if command == "optimize":
        files = {"u_opt.csv": ("field", steps + 1), "p_opt.csv": ("field", steps + 1)}
        if control in ("boundary", "simultaneous"):
            files["q_opt.csv"] = ("control", steps + 1)
        if control in ("distributed", "simultaneous"):
            files["g_opt.csv"] = ("field", steps + 1)
        return files
    if command == "lambda":
        return {"lambda.csv": (LAMBDA_HEADER, 1)}
    if command == "sweep-alpha":
        return {"sweep.csv": (SWEEP_HEADER, n_alphas)}
    if command == "decay":
        return {"decay.csv": (DECAY_HEADER, steps + 1)}
    if command == "verify":
        return {}
    raise ValueError(f"unknown command {command!r}")


def header_ok(kind: str, header: str) -> bool:
    """Field files are step,time,n0..n{N-1}; controls step,time,g2n<id>...;
    the rest have a fixed header."""
    cols = header.split(",")
    if kind == "field":
        return (cols[:2] == ["step", "time"] and len(cols) > 2
                and cols[2:] == [f"n{i}" for i in range(len(cols) - 2)])
    if kind == "control":
        return (cols[:2] == ["step", "time"] and len(cols) > 2
                and all(c.startswith("g2n") and c[3:].isdigit() for c in cols[2:]))
    return header == kind


def check_csv(path: Path, kind: str, rows: int) -> tuple[list, str | None]:
    """Returns (problems, sha256 hex digest or None when unreadable)."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        return [f"{path.name}: missing ({exc.strerror})"], None
    problems = []
    lines = data.decode("utf-8", errors="replace").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    else:
        problems.append(f"{path.name}: no final newline")
    if not lines or not header_ok(kind, lines[0]):
        problems.append(f"{path.name}: unexpected header")
    else:
        width = lines[0].count(",")
        if len(lines) - 1 != rows:
            problems.append(f"{path.name}: {len(lines) - 1} rows, expected {rows}")
        if any(line.count(",") != width for line in lines[1:]):
            problems.append(f"{path.name}: ragged rows")
    return problems, hashlib.sha256(data).hexdigest()


def check_invocation(command: str, control: str, steps: int, n_alphas: int,
                     returncode: int, stdout: str, out_dir: Path) -> tuple[list, dict]:
    """Check one finished invocation; returns (problems, {csv name: sha256})."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if command == "verify" and VERIFY_OK_LINE not in stdout.splitlines():
        problems.append(f"verify did not print {VERIFY_OK_LINE!r}")
    if command == "optimize":
        try:
            result = json.loads((out_dir / "result.json").read_text(encoding="utf-8"))
            if result.get("converged") is not True:
                problems.append("result.json: converged is not true")
        except (OSError, ValueError) as exc:
            problems.append(f"result.json unreadable: {exc}")
    hashes = {}
    for name, (kind, rows) in expected_csvs(command, control, steps, n_alphas).items():
        found, digest = check_csv(out_dir / name, kind, rows)
        problems += found
        if digest is not None:
            hashes[name] = digest
    return problems, hashes


class HashLedger:
    """First-seen sha256 per (invocation slot, file); later passes must match."""

    def __init__(self):
        self._first = {}

    def compare(self, slot, hashes: dict) -> list:
        problems = []
        for name, digest in hashes.items():
            first = self._first.setdefault((slot, name), digest)
            if digest != first:
                problems.append(f"{name}: sha256 differs from the first pass")
        return problems
