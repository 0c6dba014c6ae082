"""The verify property table is the one source of verify's results, and its
known failures on accepted inputs stay visible."""

import functools
from pathlib import Path

import pytest

from parctrl import cli, properties
from parctrl.config import build_problem, parse_config_text

from test_cli import SMALL_CFG, small_2d_problem

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PROBLEMS = {"1d": lambda: build_problem(parse_config_text(SMALL_CFG)),
            "2d": small_2d_problem}
NAMES = [name for name, _ in properties.table(PROBLEMS["1d"]())]


@functools.cache
def verify_results(dim):
    return {c["name"]: (c["passed"], c["detail"].hex())
            for c in cli._verify_battery(PROBLEMS[dim]())}


@pytest.mark.parametrize("dim", ["1d", "2d"])
@pytest.mark.parametrize("name", NAMES)
def test_an_entry_run_alone_gives_its_verify_result(name, dim):
    # on a fresh problem, without prepare: no other entry, cache or process
    # changes a bit of what verify reports
    passed, detail = dict(properties.table(PROBLEMS[dim]()))[name]()
    assert (bool(passed), float(detail).hex()) == verify_results(dim)[name]
    assert list(verify_results(dim)) == NAMES


def run_alone(config, edits, name):
    text = (CONFIGS / config).read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    return dict(properties.table(build_problem(parse_config_text(text))))[name]()


@pytest.mark.xfail(strict=True, reason="an absolute 1e-12 bound on the forward "
                   "error, which rounding exceeds from about 96x96 on")
def test_constant_steady_state_holds_at_96x96():
    passed, detail = run_alone("benchmark2d.cfg", [("nx = 32", "nx = 96"),
                                                   ("ny = 32", "ny = 96"),
                                                   ("steps = 200", "steps = 10")],
                               "constant-steady-state")
    assert passed, detail


@pytest.mark.xfail(strict=True, reason="the squared M-norm underflows to 0 from "
                   "t = 184 on, and 0 - 0 is not a strict decrease")
def test_energy_decays_over_a_long_horizon():
    passed, detail = run_alone("benchmark1d.cfg", [("t_final = 1.0", "t_final = 400"),
                                                   ("steps = 200", "steps = 2000")],
                               "energy-decay")
    assert passed, detail
