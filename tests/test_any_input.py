"""Every command on any one-key change of a small config keeps the CLI's
rules: exit 0, 2 or 3 (1 only for a verify FAIL), an exit 2 that cites
path:line:, one line on standard error and nothing else (no warning, no
traceback, no LAPACK text on fd 2), no nan or inf in a written CSV or
result.json, and no build_problem that raises after it has assembled.
Hypothesis (MacIver, Hatfield-Dodds et al., JOSS 2019) draws the change:
one key set to a token of the list below or to a random finite float, or
dropped.  Every input that once broke a rule is an @example."""

import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from parctrl import cli, config
from parctrl.cli import COMMANDS, main

# 8 cells and 40 steps: each command runs in milliseconds
BASE = {
    "mesh": {"dim": "1", "cells": "8", "gamma1": "left"},
    "grid": {"t_final": "1.0", "steps": "40"},
    "data": {"g": "constant(1.0)", "b": "constant(0.0)", "v_b": "sine-bump(1.0)",
             "z_d": "constant(0.25)", "q": "constant(0.5)", "q0": "constant(1.0)"},
    "weights": {"flux_penalty": "1.0", "source_penalty": "1.0", "alpha": "5.0",
                "alphas": "10, 100, 1000, 10000"},
    "tolerances": {"opt_tol": "1e-10"},
    "output": {"plots": "false"},
}
KEYS = [(section, key) for section, entries in BASE.items() for key in entries]
DROPPED = None
TOKENS = ["nan", "inf", "-inf", "0", "-1", "1e308", "1e-308", "5e-324",
          "constant(1e300)", "constant(-1e300)", "constant(nan)", "1.0 @ 2", DROPPED]


def config_text(section_key, value):
    lines = []
    for section, entries in BASE.items():
        lines.append(f"[{section}]")
        for key, base in entries.items():
            if (section, key) != section_key:
                lines.append(f"{key} = {base}")
            elif value is not DROPPED:
                lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def numbers(path):
    # every number a written CSV cell or result.json holds
    if path.suffix == ".json":
        def walk(value):
            if isinstance(value, (list, dict)):
                for item in (value.values() if isinstance(value, dict) else value):
                    yield from walk(item)
            elif isinstance(value, float):
                yield value
        yield from walk(json.loads(path.read_text()))
        return
    with path.open() as fh:
        for row in list(csv.reader(fh))[1:]:
            for cell in row:
                try:
                    yield float(cell)
                except ValueError:  # a variant name, a boolean, an empty cell
                    pass


def strict_json(text):
    # json.loads accepts the NaN and Infinity that json.dump writes by
    # default; neither is JSON
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


def broken_rules(command, cfg, out, code, stdout, stderr):
    """What one run did against the CLI's rules, as a list of reasons."""
    lines = stderr.splitlines()
    broken = []
    if code == 1:
        if command != "verify" or "FAIL  " not in stdout:
            broken.append("exit 1 without a verify FAIL line")
    elif code not in (0, 2, 3):
        broken.append(f"exit {code}")
    if code == 0 and stderr:
        broken.append("output on standard error")
    if code in (1, 2, 3) and (len(lines) != 1 or not stderr.endswith("\n")):
        broken.append("not exactly one line on standard error")
    if "Warning" in stderr or "Traceback" in stderr or "** On entry" in stderr:
        broken.append("a warning, a traceback or LAPACK text on standard error")
    if code == 2 and not re.match(rf"error: {re.escape(str(cfg))}:\d+: ", stderr):
        broken.append("an exit 2 that cites no line")
    if code == 0:
        written = sorted(out.glob("*.csv")) + sorted(out.glob("result.json"))
        broken += [f"{p.name} holds {x}" for p in written for x in numbers(p)
                   if not math.isfinite(x)][:1]
        try:
            strict_json((out / "manifest.json").read_text())
        except ValueError as exc:
            broken.append(f"manifest.json: {exc}")
    return broken


def watch_set_up(patch, events):
    # events gets "assemble" for each assembly and "raised" when build_problem
    # raises, which on a large mesh must not cost an assembly first
    build, assemble = cli.build_problem, config.assemble

    def watched_build(cfg):
        try:
            return build(cfg)
        except Exception:
            events.append("raised")
            raise
    patch.setattr(cli, "build_problem", watched_build)
    patch.setattr(config, "assemble", lambda mesh: events.append("assemble") or assemble(mesh))


def run_all(section_key, value, capfd):
    """{command: reasons} for the commands that broke a rule on the config."""
    found = {}
    events = []
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        watch_set_up(patch, events)
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(config_text(section_key, value))
        for command in COMMANDS:
            out = Path(tmp) / command
            capfd.readouterr()
            events.clear()
            code = main([command, "--config", str(cfg), "--out", str(out)])
            stdout, stderr = capfd.readouterr()
            broken = broken_rules(command, cfg, out, code, stdout, stderr)
            if "raised" in events and "assemble" in events:
                broken.append("build_problem raised after assembly")
            if broken:
                found[command] = broken + [stderr]
    return found


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(section_key=st.sampled_from(KEYS),
       value=st.one_of(st.sampled_from(TOKENS),
                       st.floats(allow_nan=False, allow_infinity=False).map(repr)))
# lambda overflowed with a traceback; sweep-alpha, decay and verify exited 0
# with a nan or an inf in a CSV or printed numpy warnings
@example(section_key=("data", "z_d"), value="constant(1e300)")
@example(section_key=("data", "z_d"), value="constant(-1e300)")
@example(section_key=("data", "g"), value="constant(1e300)")
@example(section_key=("data", "g"), value="constant(-1e300)")
@example(section_key=("data", "q0"), value="constant(1e300)")
@example(section_key=("data", "q0"), value="constant(-1e300)")
@example(section_key=("data", "q"), value="constant(1e300)")
@example(section_key=("data", "q"), value="constant(-1e300)")
@example(section_key=("data", "z_d"), value="constant(1e200)")
@example(section_key=("weights", "flux_penalty"), value="1e308")
# decay's grid too coarse, which cited no line; lambda's manifest held a
# bare NaN discriminant
@example(section_key=("grid", "t_final"), value="1e308")
# LAPACK text on fd 2 from decay's rate fit at a subnormal step, and a bare
# NaN fitted_rate in its manifest
@example(section_key=("grid", "t_final"), value="1e-308")
@example(section_key=("grid", "t_final"), value="5e-324")
# config errors raised after assembly: a non-finite [data] value, v_b off b
@example(section_key=("data", "g"), value="constant(nan)")
@example(section_key=("data", "v_b"), value="constant(1e300)")
# a missing required key, cited at its section's header
@example(section_key=("data", "g"), value=DROPPED)
@example(section_key=("grid", "steps"), value=DROPPED)
def test_every_command_keeps_the_rules_on_any_one_key_change(section_key, value, capfd):
    assert run_all(section_key, value, capfd) == {}


@pytest.mark.parametrize("key", ["z_d", "g", "q0"])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_an_overflowing_lambda_exits_3_naming_lambda_csv(tmp_path, capsys, key, sign):
    # Python's float ** raised OverflowError in the discriminant, a traceback
    # (with t_final = 1e308 too, an @example above, where lambda.csv is finite)
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_text(config_text(("data", key), f"constant({sign}1e300)"))
    assert main(["lambda", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: {re.escape(str(out / 'lambda.csv'))} not written: "
                        r"column \w+ would hold -?(inf|nan)\n", err)
    assert not (out / "lambda.csv").exists()


@pytest.mark.parametrize("t_final", ["1e-308", "5e-324"])
def test_decay_at_a_subnormal_step_keeps_lapack_silent(tmp_path, t_final):
    # OpenBLAS wrote "** On entry to DLASCL ..." to fd 2 itself, from the
    # rate fit, and the run exited 2 with no line: only a subprocess sees fd 2
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_text(config_text(("grid", "t_final"), t_final))
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-m", "parctrl.cli", "decay", "--config", str(cfg),
                           "--out", str(out)], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert all(math.isfinite(x) for x in numbers(out / "decay.csv"))


@pytest.mark.parametrize("command, t_final, key", [
    ("lambda", "1e308", "discriminant"), ("decay", "1e-308", "fitted_rate")])
def test_a_non_finite_diagnostic_is_null_in_the_manifest(tmp_path, command, t_final, key):
    # B * B overflows in the discriminant, and the rate fit cannot scale the
    # subnormal times; the manifest held a bare NaN, which is not JSON
    cfg, out, again = tmp_path / "run.cfg", tmp_path / "out", tmp_path / "again"
    cfg.write_text(config_text(("grid", "t_final"), t_final))
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    manifest = out / "manifest.json"
    assert strict_json(manifest.read_text())["results"][key] is None
    assert main([command, "--config", str(manifest), "--out", str(again)]) == 0
    csv_name = f"{command}.csv"
    assert (again / csv_name).read_bytes() == (out / csv_name).read_bytes()
