import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from parctrl.cli import COMMANDS, main
from parctrl.config import ConfigError, load_config, parse_config_text

from conftest import mesh_json_dict

SMALL_CFG = """\
[mesh]
dim = 1
cells = 32
gamma1 = left

[grid]
t_final = 1.0
steps = 20

[data]
g = constant(1.0)
b = constant(0.0)
v_b = sine-bump(1.0)
z_d = constant(0.25)
q = constant(0.5)
q0 = constant(1.0)

[weights]
flux_penalty = 1.0
source_penalty = 1.0
alpha = 5.0
alphas = 10, 100, 1000, 10000

[tolerances]
opt_tol = 1e-10

[output]
plots = true
"""


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


def run(command, cfg, out):
    return main([command, "--config", cfg, "--out", str(out)])


def test_solve_command(cfg_path, tmp_path):
    out = tmp_path / "out"
    assert run("solve", cfg_path, out) == 0
    u = (out / "u.csv").read_text().splitlines()
    assert u[0].startswith("step,time,n0,")
    assert len(u) == 22  # header + 21 steps
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    # the spectral constants are computed on first read, and solve reads none
    assert manifest["constants"] == {}
    assert manifest["workers"] == 1


FORCED = "q0 = constant(1.0)\ng_inf = constant(1.0)\nq_inf = constant(0.5)"


@pytest.mark.parametrize("command,extra,names", [
    ("verify", None, ["lambda0", "lambda1", "trace_norm"]),
    ("decay", None, ["lambda0"]),
    ("decay", FORCED, ["lambda0", "trace_norm"]),
    ("optimize", None, []),
    ("lambda", None, []),
    ("sweep-alpha", None, []),
], ids=["verify", "decay", "decay-forced", "optimize", "lambda", "sweep-alpha"])
def test_manifest_lists_the_constants_read(tmp_path, command, extra, names):
    from parctrl.fem_core import (assemble, build_interval_mesh, coercivity_constant,
                                  trace_norm)

    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG if extra is None
                   else SMALL_CFG.replace("q0 = constant(1.0)", extra))
    out = tmp_path / "out"
    assert run(command, str(cfg), out) == 0
    constants = json.loads((out / "manifest.json").read_text())["constants"]
    ops = assemble(build_interval_mesh(32, 0.0, 1.0, "left"))
    computed = {"lambda0": coercivity_constant(ops, "v0"),
                "lambda1": coercivity_constant(ops, "v_robin"),
                "trace_norm": trace_norm(ops)}
    assert constants == {name: computed[name] for name in names}


def test_solve_runs_no_power_iteration(cfg_path, tmp_path, monkeypatch):
    from parctrl import fem_core

    def no_power_iteration(*args, **kwargs):
        raise AssertionError("power iteration run")

    monkeypatch.setattr(fem_core, "_pencil_eig", no_power_iteration)
    fem_core.assemble(fem_core.build_rect_mesh(4, 3, {"left"}))
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    assert run("solve", cfg_path, out1) == 0
    assert run("solve", str(out1 / "manifest.json"), out2) == 0
    assert (out1 / "u.csv").read_bytes() == (out2 / "u.csv").read_bytes()


def test_optimize_command(cfg_path, tmp_path):
    out = tmp_path / "out"
    assert run("optimize", cfg_path, out) == 0
    res = json.loads((out / "result.json").read_text())
    assert res["converged"] is True
    assert res["optimality_residual"] <= 1e-9
    assert (out / "q_opt.csv").exists()
    assert (out / "u_opt.csv").exists()
    assert (out / "p_opt.csv").exists()
    # the CG histories: the start, then one entry per iteration
    costs, resids = res["cost_history"], res["residual_history"]
    assert len(costs) == len(resids) == res["iterations"] + 1
    assert all(b <= a for a, b in zip(costs, costs[1:]))
    assert json.loads((out / "manifest.json").read_text())["results"] == res


# the writer's edge values: signed zero, subnormal, huge, and decimals that
# %.17g must not round; and the non-finite ones, which the writers refuse
EDGE_VALUES = [-0.0, 5e-324, 1e308, 0.1, 1 / 3, 10.0]
NON_FINITE = [math.nan, math.inf, -math.inf]


def old_cell(x):
    # the per-value rule of the writer before one row format per file; the
    # oracle the written bytes are compared against
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return ""
    return "{:.17g}".format(float(x))


def test_csv_writer_golden_bytes(tmp_path):
    from types import SimpleNamespace

    from parctrl.cli import _format_floats, _write_csv, write_control_csv, write_field_csv
    from parctrl.fem_core import TimeGrid

    grid = TimeGrid(t_final=1.0, n_steps=3)
    n = len(EDGE_VALUES)
    values = np.array([EDGE_VALUES[k:] + EDGE_VALUES[:k] for k in range(4)])
    times = grid.times()
    body = [",".join([str(k), old_cell(times[k])] + [old_cell(v) for v in values[k]])
            for k in range(4)]

    write_field_csv(str(tmp_path / "u.csv"), grid, values)
    header = "step,time," + ",".join(f"n{i}" for i in range(n))
    assert (tmp_path / "u.csv").read_bytes() == "\n".join([header] + body + [""]).encode()

    ops = SimpleNamespace(gamma2_nodes=np.arange(3, 3 + n))
    write_control_csv(str(tmp_path / "q.csv"), grid, ops, values)
    header = "step,time," + ",".join(f"g2n{i}" for i in range(3, 3 + n))
    assert (tmp_path / "q.csv").read_bytes() == "\n".join([header] + body + [""]).encode()

    # fixed-width rows of numpy and of Python floats, as decay.csv and
    # lambda.csv pass them
    for row in (tuple(np.float64(v) for v in EDGE_VALUES), tuple(EDGE_VALUES)):
        _write_csv(str(tmp_path / "r.csv"), "h", [row, row])
        line = ",".join(old_cell(v) for v in row)
        assert (tmp_path / "r.csv").read_text() == f"h\n{line}\n{line}\n"

    # the writers refuse nan and inf; the kernel writes them as %.17g does
    ends = np.frombuffer(b",,\n", np.uint8)
    assert _format_floats(np.array(NON_FINITE), ends).decode() == (
        ",".join(old_cell(v) for v in NON_FINITE) + "\n")


def _ulps_around(values, ulps):
    # values, and each one to `ulps` doubles below and above it
    out, down, up = [values], values, values
    for _ in range(ulps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return np.concatenate(out)


def test_every_float_is_written_as_percent_17g(tmp_path):
    # the writer's digit kernel against "%.17g" % v, in a field whose rows
    # (step, time and the values) are one and a half blocks long: each row
    # splits across kernel calls, and every second one ends at a block's end.
    # The writers refuse nan and inf, so those go to the kernel directly
    from parctrl.cli import _CSV_BLOCK, _format_floats, write_field_csv
    from parctrl.fem_core import TimeGrid

    rng = np.random.default_rng(28)
    powers = np.array([float(f"1e{k}") for k in range(-8, 19)])
    edges = np.array([1e-7, 1e-6, 1e-5, 1e16, 1e17])
    # 1 + 2**-17, and each c / 2**(p + 1) with c odd and c * 5**p in
    # [2e16, 2e17), lies exactly halfway between two 17-digit decimals:
    # %.17g rounds it half to even
    ties = [1 + 2.0 ** -np.arange(1, 53)]
    for p in range(1, 23):
        low, high = -(-2 * 10 ** 16 // 5 ** p), min(2 * 10 ** 17 // 5 ** p, 2 ** 53)
        ties.append(np.ldexp((rng.integers(low, high, 50) | 1).astype(float), -p - 1))
    dyadic = np.ldexp(rng.integers(1, 2 ** 53, 10 ** 5).astype(float),
                      -rng.integers(0, 80, 10 ** 5))
    special = np.array([0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                        1e-320, np.nan, np.inf, 1.7976931348623157e308])
    signed = np.concatenate([_ulps_around(powers, 2), _ulps_around(edges, 4), *ties,
                             dyadic, special])
    bits = rng.integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64).view(np.float64)
    values = np.concatenate([signed, -signed, bits])
    finite = np.isfinite(values)
    non_finite, values = values[~finite], values[finite]
    cols = _CSV_BLOCK * 3 // 2 - 2
    values = np.resize(values, (-(-values.size // cols), cols))
    grid = TimeGrid(t_final=1.0, n_steps=values.shape[0] - 1)

    write_field_csv(str(tmp_path / "u.csv"), grid, values)
    times = grid.times()
    header = "step,time," + ",".join(f"n{i}" for i in range(cols))
    body = [",".join([str(k), "%.17g" % times[k]] + ["%.17g" % v for v in values[k].tolist()])
            for k in range(values.shape[0])]
    assert (tmp_path / "u.csv").read_bytes() == "\n".join([header] + body + [""]).encode()
    assert non_finite.size > 4
    ends = np.full(non_finite.size, ord(","), np.uint8)
    assert _format_floats(non_finite, ends) == "".join(
        "%.17g," % v for v in non_finite.tolist()).encode()


def test_field_csv_memory_does_not_grow_with_the_field(tmp_path):
    # a 150 x 150 mesh's field: the writer formats _CSV_BLOCK values at a
    # time.  The traced peak, the field itself excluded, is its 22,801
    # column names and header (about 1.4 MB) and one block's temporaries
    # (about 1.8 MB at 4,096 values, 3.3 MB at 8,192)
    import tracemalloc

    from parctrl.cli import write_field_csv
    from parctrl.fem_core import TimeGrid

    values = np.random.default_rng(0).standard_normal((101, 22_801))
    tracemalloc.start()
    try:
        write_field_csv(str(tmp_path / "u.csv"), TimeGrid(t_final=1.0, n_steps=100), values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_sweep_csv_writes_booleans_and_empty_cells(cfg_path, tmp_path, monkeypatch):
    from parctrl import asymptotics

    rows = [asymptotics.SweepRow(10.0, 0.1, 1 / 3, None, -0.0, True),
            asymptotics.SweepRow(100.0, 5e-324, 1e308, 0.1, 1e-300, False)]
    monkeypatch.setattr("parctrl.cli.asymptotics.alpha_sweep",
                        lambda *args, **kwargs: rows)
    out = tmp_path / "out"
    # the unconverged row still reaches the CSV, then exits 3
    assert run("sweep-alpha", cfg_path, out) == 3
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1:] == [",".join(old_cell(v) for v in (
        r.alpha, r.err_state, r.err_adjoint, r.err_control, r.boundary_mismatch,
        r.converged)) for r in rows]
    assert lines[1].split(",")[3] == "" and lines[1].endswith(",true")
    assert lines[2].endswith(",false")


def test_solve_robin_variant(tmp_path):
    # variant = robin runs with the config's alpha, which changes the state
    text = (SMALL_CFG.replace("q0 = constant(1.0)", "q0 = constant(1.0)\nvariant = robin")
            .replace("alpha = 5.0", "alpha = 2.5"))
    cfg = tmp_path / "robin.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run("solve", str(cfg), out) == 0
    assert json.loads((out / "manifest.json").read_text())["command"] == "solve"
    dirichlet = tmp_path / "dirichlet.cfg"
    dirichlet.write_text(text.replace("variant = robin", "variant = dirichlet"))
    assert run("solve", str(dirichlet), tmp_path / "out_d") == 0
    assert (out / "u.csv").read_bytes() != (tmp_path / "out_d" / "u.csv").read_bytes()


def test_lambda_command(cfg_path, tmp_path):
    out = tmp_path / "out"
    assert run("lambda", cfg_path, out) == 0
    lines = (out / "lambda.csv").read_text().splitlines()
    assert lines[0] == "variant,A,B,C,lambda_opt,H_opt"
    assert len(lines) == 2


def test_lambda_command_elliptic_variant(tmp_path):
    text = SMALL_CFG.replace("q0 = constant(1.0)",
                             "q0 = constant(1.0)\nvariant = elliptic")
    cfg = tmp_path / "ell.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run("lambda", str(cfg), out) == 0
    line = (out / "lambda.csv").read_text().splitlines()[1]
    assert line.startswith("elliptic,")


def test_lambda_rejects_zero_direction(cfg_path, tmp_path, capsys):
    text = SMALL_CFG.replace("q0 = constant(1.0)", "q0 = constant(0.0)")
    line = text.splitlines().index("q0 = constant(0.0)") + 1
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    out = tmp_path / "out"
    assert run("lambda", str(bad), out) == 2
    assert f"bad.cfg:{line}: q0 must be nonzero" in capsys.readouterr().err


def test_lambda_rejects_a_q0_zero_on_the_rows_the_variant_reads(tmp_path, capsys):
    # the steady variant reads only the final row of q0, here the zero one
    from parctrl.cli import write_control_csv
    from parctrl.config import build_problem

    problem = build_problem(parse_config_text(SMALL_CFG))
    q0 = np.ones((problem.grid.n_steps + 1, problem.ops.gamma2_nodes.size))
    q0[-1] = 0.0
    write_control_csv(str(tmp_path / "q0.csv"), problem.grid, problem.ops, q0)
    text = SMALL_CFG.replace("q0 = constant(1.0)", "q0 = csv:q0.csv\nvariant = elliptic")
    line = text.splitlines().index("q0 = csv:q0.csv") + 1
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert run("lambda", str(bad), tmp_path / "out") == 2
    assert f"bad.cfg:{line}: q0 must be nonzero" in capsys.readouterr().err


def test_verify_rejects_a_zero_q0_at_its_line(tmp_path, capsys):
    # building-block-recombination reads q0, and cites its line as lambda does
    text = SMALL_CFG.replace("q0 = constant(1.0)", "q0 = constant(0.0)")
    line = text.splitlines().index("q0 = constant(0.0)") + 1
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert run("verify", str(bad), tmp_path / "out") == 2
    assert f"bad.cfg:{line}: q0 must be nonzero" in capsys.readouterr().err


def test_an_overflowing_optimize_prints_only_its_error_line(tmp_path, capsys):
    # the cost overflows at once; numpy's overflow warning would come first
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG.replace("z_d = constant(0.25)", "z_d = constant(1e200)"))
    assert run("optimize", str(cfg), tmp_path / "out") == 3
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'out' / 'result.json'} not written: column cost would hold inf\n")


@pytest.mark.parametrize("key", ["g_inf", "q_inf"])
def test_forced_decay_needs_both_limits_before_assembly(tmp_path, capsys, monkeypatch,
                                                        key):
    # one limit without the other cites the line of the one that is set
    assembled = count_assembly(monkeypatch)
    entry = f"{key} = constant(1.0)"
    text = SMALL_CFG.replace("q0 = constant(1.0)", f"q0 = constant(1.0)\n{entry}")
    line = text.splitlines().index(entry) + 1
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert run("decay", str(bad), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"bad.cfg:{line}: forced decay needs both g_inf and q_inf" in err
    assert assembled == []


@pytest.mark.parametrize("edits,key", [
    ([("steps = 20", "steps = 2")], "steps"),
    ([("g = constant(1.0)", "g = exp-decay(1,0.5,2)")], "g"),
    ([("q = constant(0.5)", "q = exp-decay(0.5,0.1,1)")], "q"),
    ([("t_final = 1.0", "t_final = 1000"),
      ("q0 = constant(1.0)", "q0 = constant(1.0)\ng_inf = constant(1.0)\nq_inf = constant(0.5)")],
     "t_final"),
], ids=["grid-too-coarse", "time-varying-source", "time-varying-flux", "horizon-too-long"])
def test_decay_cites_the_line_of_the_input_it_rejects(tmp_path, capsys, edits, key):
    text = SMALL_CFG
    for old, new in edits:
        text = text.replace(old, new)
    line = next(i for i, t in enumerate(text.splitlines(), 1) if t.startswith(f"{key} ="))
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert run("decay", str(bad), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:{line}: ") and err.count("\n") == 1


def test_a_nan_fails_the_properties_that_fold_their_samples(tmp_path, capsys):
    # max(0.0, nan) is 0.0: a fold that kept it passed on a nan
    text = (Path(__file__).resolve().parents[1] / "configs" / "benchmark1d.cfg").read_text()
    for old, new in (("cells = 256", "cells = 32"), ("steps = 200", "steps = 20"),
                     ("z_d = constant(0.25)", "z_d = constant(1e200)")):
        text = text.replace(old, new)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert run("verify", str(cfg), tmp_path / "out") == 1
    assert "FAIL  gradient-central-difference  (nan)\n" in capsys.readouterr().out


def test_write_names_the_first_non_finite_cell_and_writes_nothing(tmp_path):
    from parctrl.cli import write_field_csv
    from parctrl.fem_core import SolverError, TimeGrid

    values = np.zeros((4, 6))
    values[2, 5], values[3, 1] = -math.inf, math.nan
    with pytest.raises(SolverError) as info:
        write_field_csv(str(tmp_path / "u.csv"), TimeGrid(t_final=1.0, n_steps=3), values)
    assert str(info.value) == f"{tmp_path / 'u.csv'} not written: column n5 would hold -inf"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,old,new,name,column", [
    ("decay", "g = constant(1.0)", "g = constant(1e300)", "decay.csv", "err_H"),
    ("sweep-alpha", "z_d = constant(0.25)", "z_d = constant(1e300)", "sweep.csv",
     "err_adjoint"),
], ids=["decay", "sweep-alpha"])
def test_a_non_finite_output_exits_3_and_is_not_written(tmp_path, capsys, command, old,
                                                        new, name, column):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG.replace(old, new))
    out = tmp_path / "out"
    assert run(command, str(cfg), out) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / name} not written: column {column} would hold ")
    assert err.count("\n") == 1 and not (out / name).exists()


def test_the_named_column_counts_text_and_empty_cells(cfg_path, tmp_path, capsys,
                                                      monkeypatch):
    # a text or an empty cell is one column: the first non-finite value
    # after one is named by its own column, not the one before it
    from parctrl import asymptotics
    from parctrl.cli import _write_csv
    from parctrl.fem_core import SolverError

    rows = [asymptotics.SweepRow(10.0, 0.1, 1 / 3, None, 0.5, True),
            asymptotics.SweepRow(100.0, 0.2, 0.25, None, math.inf, True)]
    monkeypatch.setattr("parctrl.cli.asymptotics.alpha_sweep",
                        lambda *args, **kwargs: rows)
    out = tmp_path / "out"
    assert run("sweep-alpha", cfg_path, out) == 3
    assert capsys.readouterr().err == (
        f"error: {out / 'sweep.csv'} not written: column boundary_mismatch would hold inf\n")
    assert not (out / "sweep.csv").exists()

    path = tmp_path / "lambda.csv"
    with pytest.raises(SolverError) as info:
        _write_csv(str(path), "variant,A,B,C", [("parabolic", 1.0, 2.0, 3.0),
                                                ("elliptic", math.nan, 2.0, 3.0)])
    assert str(info.value) == f"{path} not written: column A would hold nan"
    assert not path.exists()


def test_sweep_command_fixed_q(cfg_path, tmp_path):
    out = tmp_path / "out"
    assert run("sweep-alpha", cfg_path, out) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "alpha,err_state,err_adjoint,err_control,boundary_mismatch,converged"
    assert len(lines) == 5
    assert (out / "sweep.svg").exists()


def test_sweep_command_optimize(tmp_path):
    text = SMALL_CFG.replace("q = constant(0.5)", "q = optimize")
    cfg = tmp_path / "opt.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run("sweep-alpha", str(cfg), out) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    # err_control column filled in optimize mode
    assert lines[1].split(",")[3] != ""


def test_decay_command(cfg_path, tmp_path):
    out = tmp_path / "out"
    assert run("decay", cfg_path, out) == 0
    lines = (out / "decay.csv").read_text().splitlines()
    assert lines[0] == "t,err_H,bound,ratio"
    assert len(lines) == 22
    assert (out / "decay.svg").exists()


def test_verify_command(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run("verify", cfg_path, out) == 0
    captured = capsys.readouterr().out
    assert "all properties passed" in captured
    manifest = json.loads((out / "manifest.json").read_text())
    props = manifest["results"]["properties"]
    assert props and all(p["passed"] for p in props)
    assert manifest["workers"] == min(len(os.sched_getaffinity(0)), len(props))
    # the manifest, workers and all, re-runs as a config
    assert run("verify", str(out / "manifest.json"), tmp_path / "again") == 0


def test_verify_failure_exits_1(cfg_path, tmp_path, capsys, monkeypatch):
    def doomed(problem):
        return [{"name": "always-fails", "passed": False, "detail": 1.0},
                {"name": "fine", "passed": True, "detail": 0.0}]

    monkeypatch.setattr("parctrl.cli._verify_battery", doomed)
    assert run("verify", cfg_path, tmp_path / "out") == 1
    captured = capsys.readouterr()
    assert "always-fails" in captured.err


def test_missing_key_names_it(tmp_path, capsys):
    text = SMALL_CFG.replace("steps = 20\n", "")
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert run("solve", str(bad), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "'steps'" in err and "[grid]" in err


def test_unknown_key_cites_line(tmp_path, capsys):
    text = SMALL_CFG.replace("cells = 32", "cellz = 32")
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert run("solve", str(bad), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "cellz" in err and "bad.cfg:3" in err


@pytest.mark.parametrize("section,key", [("tolerances", "solver_tol"),
                                         ("output", "prefix")])
def test_unread_keys_are_rejected(tmp_path, capsys, section, key):
    # keys no command reads fail like any other unknown key, with file:line
    text = SMALL_CFG.replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n")
    line = text.splitlines().index(f"{key} = 1") + 1
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert run("solve", str(bad), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"unknown key '{key}'" in err and f"bad.cfg:{line}:" in err


@pytest.mark.parametrize("key,value", [("t_final", "nan"), ("t_final", "inf"),
                                       ("flux_penalty", "nan"),
                                       ("source_penalty", "nan"),
                                       ("opt_tol", "nan"),
                                       ("alpha", "nan"), ("alpha", "-inf"),
                                       ("alphas", "10, nan"), ("alphas", "10, inf"),
                                       ("g", "constant(nan)"),
                                       ("q", "exp-decay(0, 1, -1000)"),
                                       ("z_d", "constant(inf)")])
def test_non_finite_values_are_rejected(tmp_path, capsys, key, value):
    # "<= 0" checks let nan through; every one of these must be > 0 and all
    # but alpha finite (alpha = inf imposes the datum exactly; sweep entries
    # must also exceed 1); a [data] entry's sampled values must be finite,
    # also where a profile overflows (exp of 1000 t)
    lines = SMALL_CFG.splitlines()
    line = next(i for i, text in enumerate(lines, 1) if text.startswith(f"{key} ="))
    lines[line - 1] = f"{key} = {value}"
    bad = tmp_path / "bad.cfg"
    bad.write_text("\n".join(lines) + "\n")
    assert run("optimize", str(bad), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert key in err and f"bad.cfg:{line}:" in err


@pytest.mark.parametrize("key,value", [("t_final", "0"), ("t_final", "nan"),
                                       ("steps", "0"), ("steps", "-3"),
                                       ("opt_tol", "-1"), ("opt_tol", "nan"),
                                       ("flux_penalty", "0"), ("alphas", "10, 5"),
                                       ("control", "nowhere"), ("plots", "ture")])
def test_bad_keys_fail_before_assembly(tmp_path, capsys, monkeypatch, key, value):
    # keys that need no operators are checked before assembly, which on a
    # large mesh costs seconds
    def no_assembly(mesh):
        raise AssertionError("assembled before the config was checked")

    monkeypatch.setattr("parctrl.config.assemble", no_assembly)
    lines = SMALL_CFG.splitlines()
    at = next((i for i, text in enumerate(lines) if text.startswith(f"{key} =")), None)
    if at is None:
        at = lines.index("[data]") + 1
        lines.insert(at, "")
    lines[at] = f"{key} = {value}"
    bad = tmp_path / "bad.cfg"
    bad.write_text("\n".join(lines) + "\n")
    assert run("optimize", str(bad), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert key in err and f"bad.cfg:{at + 1}:" in err


TWO_D = ("dim = 1\ncells = 32", "dim = 2\nnx = 4\nny = 4")


@pytest.mark.parametrize("edits,key,message", [
    ([("z_d = constant(0.25)\n", "")], "[data]",
     "missing required key 'z_d' in section [data]"),
    ([("g = constant(1.0)", "g = nope(1)")], "g", "unknown profile 'nope'"),
    ([("g = constant(1.0)", "g = constant()")], "g",
     "profile 'constant' takes 1 parameter(s), got 0"),
    ([("g = constant(1.0)", "g = csv:nothere.csv")], "g", "referenced file does not exist"),
    ([("q0 = constant(1.0)", "q0 = ramp(x)")], "q0",
     "non-numeric profile parameter in 'ramp(x)'"),
    ([("b = constant(0.0)", "b = csv:data.csv")], "b",
     "key 'b' does not accept CSV references"),
    ([("q0 = constant(1.0)", "q0 = constant(1.0)\ng_inf = csv:data.csv")], "g_inf",
     "key 'g_inf' does not accept CSV references"),
    ([("q0 = constant(1.0)", "q0 = constant(1.0)\nq_inf = csv:data.csv")], "q_inf",
     "key 'q_inf' does not accept CSV references"),
    ([("t_final = 1.0", "t_final = soon")], "t_final",
     "key 't_final' must be a number, got 'soon'"),
    ([("cells = 32", "cells = 3.5")], "cells", "key 'cells' must be an integer, got '3.5'"),
    ([("gamma1 = left", "gamma1 = left, right")], "gamma1",
     "1D gamma1 must be a single side (left or right)"),
    ([("dim = 1\ncells = 32", "dim = 3")], "dim", "dim must be 1 or 2, got 3"),
    ([TWO_D, ("gamma1 = left", "gamma1 = diagonal")], "gamma1",
     "unknown edge names: ['diagonal']"),
    ([("q = constant(0.5)", "q = exp-decay(0, 1, -1000)")], "q",
     "key 'q' must be finite, got inf"),
    ([("z_d = constant(0.25)", "z_d = constant(inf)")], "z_d",
     "key 'z_d' must be finite, got inf"),
    ([("g = constant(1.0)", "g = sine-bump(inf)")], "g",  # inf * sin(0) at node 0
     "key 'g' must be finite, got nan"),
    ([("g = constant(1.0)", "g = csv:data.csv")], "g",
     "CSV field {dir}/data.csv has shape (1, 1), expected (21, 33)"),
    ([("g = constant(1.0)", "g = csv:cell.csv")], "g",
     "cannot read CSV field {dir}/cell.csv: "),
    ([("z_d = constant(0.25)", "z_d = csv:nan.csv")], "z_d",
     "key 'z_d' must be finite, got nan"),
    ([("b = constant(0.0)", "b = constant(1.0)")], "v_b",
     "v_b disagrees with b on the gamma1 nodes"),
], ids=["data-missing", "data-unknown-profile", "data-profile-arity",
        "data-missing-csv", "data-non-numeric-parameter", "data-csv-on-b",
        "data-csv-on-g_inf", "data-csv-on-q_inf", "not-a-number", "not-an-integer",
        "1d-two-sides", "dim-3", "2d-bad-edge", "data-overflow", "data-constant-inf",
        "data-first-non-finite", "data-csv-shape",
        "data-csv-cell", "data-csv-nan", "data-v_b-off-b"])
def test_config_input_errors_exit_2_before_assembly(tmp_path, capsys, monkeypatch, edits,
                                                    key, message):
    # every error config raises, a [data] entry's sampled values and the
    # v_b/b check included, comes before assembly, which on a large mesh
    # costs seconds
    assembled = count_assembly(monkeypatch)
    (tmp_path / "data.csv").write_text("step,time,n0\n0,0,1\n")
    (tmp_path / "cell.csv").write_text("step,time,n0\n0,0,x\n")
    rows = [[k, k / 20] + [0.25] * 33 for k in range(21)]  # 21 steps, 33 nodes
    rows[5][7] = math.nan
    (tmp_path / "nan.csv").write_text(
        "header\n" + "".join(",".join(map(str, row)) + "\n" for row in rows))
    text = SMALL_CFG
    for old, new in edits:
        text = text.replace(old, new)
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert run("solve", str(bad), tmp_path / "out") == 2
    err = capsys.readouterr().err
    # cited at the key's line, or a missing key at its section's header
    anchor = "bad.cfg:{}:".format(next(
        i for i, line in enumerate(text.splitlines(), 1) if line.split(" =")[0] == key))
    assert f"{anchor} {message.format(dir=tmp_path)}" in err
    assert assembled == []


@pytest.mark.parametrize("command,edits,key,message", [
    ("solve", [("plots = true", "plots = ture")], "plots",
     "key 'plots' must be one of true, false, 1, 0, yes, no, got 'ture'"),
    ("optimize", [("q0 = constant(1.0)", "q0 = constant(1.0)\ncontrol = nowhere")],
     "control", "control must be boundary, distributed or simultaneous, got 'nowhere'"),
    ("decay", [("q0 = constant(1.0)", "q0 = constant(1.0)\nvariant = robin")], "variant",
     "decay takes variant dirichlet, got 'robin'"),
    ("solve", [("flux_penalty = 1.0", "flux_penalty = 0")], "flux_penalty",
     "key 'flux_penalty' must be finite and > 0, got 0.0"),
    ("solve", [("source_penalty = 1.0", "source_penalty = inf")], "source_penalty",
     "key 'source_penalty' must be finite and > 0, got inf"),
    ("solve", [("opt_tol = 1e-10", "opt_tol = nan")], "opt_tol",
     "key 'opt_tol' must be finite and > 0, got nan"),
    ("solve", [("alpha = 5.0", "alpha = -1")], "alpha", "key 'alpha' must be > 0, got -1.0"),
    ("solve", [TWO_D, ("gamma1 = left", "gamma1 = left, right, bottom, top")], "gamma1",
     "gamma1_edges covers the whole boundary: the flux part would have zero measure"),
    ("decay", [("t_final = 1.0", "t_final = 1000"), ("q0 = constant(1.0)", FORCED)],
     "t_final", "horizon too long: coercivity * t_final must stay below 500 to keep "
     "the weighted integrals finite"),
], ids=["plots", "control", "variant", "flux_penalty", "source_penalty", "opt_tol",
        "alpha", "2d-gamma1-whole-boundary", "decay-horizon-too-long"])
def test_key_errors_print_the_exact_anchored_line(tmp_path, capsys, command, edits, key,
                                                  message):
    # the whole of stderr: "error: <path>:<line of key>: <message>", one line
    text = SMALL_CFG
    for old, new in edits:
        text = text.replace(old, new)
    line = next(i for i, entry in enumerate(text.splitlines(), 1)
                if entry.split(" =")[0] == key)
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert run(command, str(bad), tmp_path / "out") == 2
    assert capsys.readouterr().err == f"error: {bad}:{line}: {message}\n"


@pytest.mark.parametrize("name,content,message", [
    ("missing.cfg", None, "cannot read config: "),
    ("run.json", "not json", "cannot read manifest: "),
    ("run.json", '{"command": "solve"}', "manifest carries no config_text"),
    ("run.json", '{"config_text": 5}', "manifest carries no config_text string"),
    ("run.json", '["config_text"]', "manifest carries no config_text string"),
], ids=["unreadable-config", "manifest-not-json", "manifest-without-config-text",
        "manifest-text-not-a-string", "manifest-not-an-object"])
def test_unreadable_config_or_manifest_exits_2(tmp_path, capsys, name, content, message):
    path = tmp_path / name
    if content is not None:
        path.write_text(content)
    assert run("solve", str(path), tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: {message}")


def test_solve_without_q_is_the_zero_flux(tmp_path):
    for label, q in (("absent", ""), ("zero", "q = constant(0.0)\n")):
        cfg = tmp_path / f"{label}.cfg"
        cfg.write_text(SMALL_CFG.replace("q = constant(0.5)\n", q))
        assert run("solve", str(cfg), tmp_path / label) == 0
    assert ((tmp_path / "absent" / "u.csv").read_bytes()
            == (tmp_path / "zero" / "u.csv").read_bytes())


def test_load_config_reads_a_manifest(cfg_path, tmp_path):
    # a run's manifest gives the entries of the config it was run from
    assert run("solve", cfg_path, tmp_path / "out") == 0
    manifest = str(tmp_path / "out" / "manifest.json")
    cfg = load_config(manifest)
    assert (cfg.path, cfg.text) == (manifest, SMALL_CFG)
    assert cfg.entries == load_config(cfg_path).entries


def test_absent_q_and_q0_are_zeros_and_ones(tmp_path):
    problem = build_with(tmp_path, SMALL_CFG.replace("q = constant(0.5)\n", "")
                         .replace("q0 = constant(1.0)\n", ""))
    shape = (problem.grid.n_steps + 1, problem.ops.gamma2_nodes.size)
    assert np.array_equal(problem.q, np.zeros(shape))
    assert np.array_equal(problem.q0, np.ones(shape))


@pytest.mark.parametrize("variant,kind,robin", [
    ("dirichlet", "parabolic", False), ("robin", "parabolic", True),
    ("parabolic", "parabolic", False), ("parabolic_robin", "parabolic", True),
    ("elliptic", "elliptic", False), ("elliptic_robin", "elliptic", True)],
    ids=["dirichlet", "robin", "parabolic", "parabolic_robin", "elliptic",
         "elliptic_robin"])
def test_variant_gives_the_kind_and_the_alpha_it_runs_with(variant, kind, robin):
    from parctrl.config import build_problem

    text = SMALL_CFG.replace("q0 = constant(1.0)", f"q0 = constant(1.0)\nvariant = {variant}")
    problem = build_problem(parse_config_text(text.replace("alpha = 5.0", "alpha = 2.5")))
    assert (problem.kind, problem.variant_alpha) == (kind, 2.5 if robin else math.inf)
    assert problem.alpha == 2.5  # verify reads the raw alpha


def test_verify_without_q0_passes(tmp_path):
    # building-block-recombination then runs on a unit flux direction
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG.replace("q0 = constant(1.0)\n", ""))
    assert run("verify", str(cfg), tmp_path / "out") == 0


def small_2d_problem(alpha="5.0"):
    from parctrl.config import build_problem

    text = SMALL_CFG.replace("dim = 1\ncells = 32\n", "dim = 2\nnx = 6\nny = 5\n")
    text = text.replace("alpha = 5.0", f"alpha = {alpha}")
    return build_problem(parse_config_text(text.replace("steps = 20", "steps = 8")))


def test_verify_battery_stays_sparse(monkeypatch):
    # a dense n x n copy costs O(n^2) memory; no sparse matrix may be densified
    import scipy.sparse as sp

    from parctrl.cli import _verify_battery

    problem = small_2d_problem()

    def densify(self, *args, **kwargs):
        raise AssertionError("sparse matrix densified")

    for name in dir(sp):
        cls = getattr(sp, name)
        if isinstance(cls, type):
            for klass in cls.__mro__:
                if "toarray" in vars(klass):
                    monkeypatch.setattr(klass, "toarray", densify)
    checks = _verify_battery(problem)
    assert checks and all(c["passed"] for c in checks)


@pytest.mark.parametrize("alpha,robin", [("5.0", 5.0), ("2.5", 2.5), ("inf", 5.0)],
                         ids=["5.0", "2.5", "inf"])
def test_verify_battery_factorizes_each_system_once(monkeypatch, alpha, robin):
    # the battery runs dozens of solves on two systems: exact imposition and
    # Robin with the configured alpha (5 when that is inf), both consistent
    # mass, one dt
    from parctrl import state_solvers
    from parctrl.cli import _verify_battery

    factorized = []
    real = state_solvers.spd_solver

    def counting(a_mat):
        factorized.append(a_mat.shape)
        return real(a_mat)

    monkeypatch.setattr(state_solvers, "spd_solver", counting)
    problem = small_2d_problem(alpha)
    checks = _verify_battery(problem)
    assert checks and all(c["passed"] for c in checks)
    dt = problem.grid.dt
    assert set(problem.ops.systems) == {(math.inf, False, dt), (robin, False, dt)}
    assert len(factorized) == len(problem.ops.systems)


def test_verify_battery_memory_is_bounded(monkeypatch):
    # one property's arrays live at a time and the 1000 certificate vectors
    # are drawn in blocks, so the battery's traced peak stays below one
    # (1000, n) array; the spectral constants are read first, outside it.
    # tracemalloc sees this process only, so the battery runs on one CPU
    import tracemalloc

    from parctrl.cli import _verify_battery

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    problem = small_2d_problem()
    ops = problem.ops
    ops.lambda0, ops.lambda1, ops.trace_norm
    tracemalloc.start()
    try:
        checks = _verify_battery(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1000 * ops.n_nodes * 8
    assert [c["name"] for c in checks] == [
        "inner-product-symmetry", "spectral-certificates", "solver-superposition",
        "constant-steady-state", "energy-decay", "adjoint-duality-dirichlet",
        "adjoint-duality-robin", "gradient-central-difference", "convexity-identity",
        "building-block-recombination", "optimality-certificate"]


def count_assembly(monkeypatch):
    # the list of meshes assemble is called on, while the real call runs
    from parctrl import config

    meshes = []
    real = config.assemble
    monkeypatch.setattr(config, "assemble", lambda mesh: meshes.append(mesh) or real(mesh))
    return meshes


@pytest.mark.parametrize("command", COMMANDS)
def test_unknown_variant_exits_2(tmp_path, capsys, monkeypatch, command):
    # sweep-alpha and verify run both boundary conditions, but a name no
    # command runs is still an error; every command rejects it before assembly
    assembled = count_assembly(monkeypatch)
    text = SMALL_CFG.replace("q0 = constant(1.0)", "q0 = constant(1.0)\nvariant = neumann")
    line = text.splitlines().index("variant = neumann") + 1
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert run(command, str(bad), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"bad.cfg:{line}:" in err and "'neumann'" in err
    assert assembled == []


@pytest.mark.parametrize("command,variant", [("solve", "elliptic"),
                                             ("optimize", "parabolic_robin"),
                                             ("lambda", "robin"),
                                             ("decay", "robin"),
                                             ("decay", "parabolic")])
def test_variant_a_command_does_not_run_exits_2(tmp_path, capsys, monkeypatch, command,
                                                variant):
    # a valid name is still an error for a command that does not run it; decay
    # runs only the Dirichlet problem, so it must not ignore a Robin variant
    assembled = count_assembly(monkeypatch)
    text = SMALL_CFG.replace("q0 = constant(1.0)", f"q0 = constant(1.0)\nvariant = {variant}")
    line = text.splitlines().index(f"variant = {variant}") + 1
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert run(command, str(bad), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"bad.cfg:{line}:" in err and f"'{variant}'" in err
    assert assembled == []


@pytest.mark.parametrize("command,removed,key,section", [
    ("lambda", "q0 = constant(1.0)\n", "q0", "data"),
    ("sweep-alpha", "alphas = 10, 100, 1000, 10000\n", "alphas", "weights"),
    ("sweep-alpha", "q = constant(0.5)\n", "q", "data"),
    ("decay", "q = constant(0.5)\n", "q", "data"),
], ids=["lambda-q0", "sweep-alpha-alphas", "sweep-alpha-q", "decay-q"])
def test_required_keys_are_checked_before_assembly(tmp_path, capsys, monkeypatch,
                                                   command, removed, key, section):
    assembled = count_assembly(monkeypatch)
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_CFG.replace(removed, ""))
    assert run(command, str(bad), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"'{key}'" in err and f"[{section}]" in err
    assert assembled == []


def test_empty_alphas_exits_2_at_its_line(tmp_path, capsys, monkeypatch):
    # present but empty: a sweep of no rows is an error, not a header-only CSV
    assembled = count_assembly(monkeypatch)
    text = SMALL_CFG.replace("alphas = 10, 100, 1000, 10000", "alphas =")
    line = text.splitlines().index("alphas =") + 1
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert run("sweep-alpha", str(bad), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"bad.cfg:{line}: key 'alphas'" in err
    assert assembled == []
    assert not (tmp_path / "out" / "sweep.csv").exists()


@pytest.mark.parametrize("command,extra", [("solve", ""), ("decay", ""),
                                           ("optimize", "\ncontrol = distributed")],
                         ids=["solve", "decay", "optimize-distributed"])
def test_q_optimize_is_read_by_sweep_alpha_only(tmp_path, capsys, monkeypatch, command,
                                                extra):
    # the commands that read q as a fixed flux must not run it as a zero flux,
    # and reject it before assembly
    assembled = count_assembly(monkeypatch)
    text = SMALL_CFG.replace("q = constant(0.5)", "q = optimize" + extra)
    line = text.splitlines().index("q = optimize") + 1
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert run(command, str(bad), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"bad.cfg:{line}: q = optimize is read by sweep-alpha only" in err
    assert assembled == []


def test_sweep_row_needs_the_reference_converged(tmp_path, monkeypatch):
    # the alpha = inf optimization is capped at one iteration; each row's own
    # optimization converges, yet every row is compared with an unconverged
    # reference, so none counts as converged and sweep-alpha exits 3
    from parctrl import asymptotics

    real = asymptotics.optimize_boundary
    results = []

    def capped(*args, alpha=math.inf, **kwargs):
        if math.isinf(alpha):
            kwargs["max_iter"] = 1
        results.append(real(*args, alpha=alpha, **kwargs))
        return results[-1]

    monkeypatch.setattr(asymptotics, "optimize_boundary", capped)
    cfg = tmp_path / "opt.cfg"
    cfg.write_text(SMALL_CFG.replace("q = constant(0.5)", "q = optimize"))
    out = tmp_path / "out"
    assert run("sweep-alpha", str(cfg), out) == 3
    assert [r.converged for r in results] == [False, True, True, True, True]
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 5 and all(line.endswith(",false") for line in lines[1:])


def test_manifest_rerun_reproduces_csv_bytes(cfg_path, tmp_path):
    out1 = tmp_path / "out1"
    assert run("sweep-alpha", cfg_path, out1) == 0
    out2 = tmp_path / "out2"
    assert run("sweep-alpha", str(out1 / "manifest.json"), out2) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    out3 = tmp_path / "out3"
    assert run("optimize", cfg_path, out3) == 0
    out4 = tmp_path / "out4"
    assert run("optimize", str(out3 / "manifest.json"), out4) == 0
    for name in ("q_opt.csv", "u_opt.csv", "p_opt.csv"):
        assert (out3 / name).read_bytes() == (out4 / name).read_bytes()


def test_a_manifest_with_a_relative_csv_reference_reruns(tmp_path, capsys, monkeypatch):
    # csv: paths resolve against the directory of the config first read,
    # which every manifest carries on, not against the manifest's directory
    monkeypatch.chdir(tmp_path)
    Path("base.cfg").write_text(SMALL_CFG)
    assert run("solve", "base.cfg", "gen") == 0
    Path("cfgdir").mkdir()
    Path("cfgdir/ref.cfg").write_text(
        SMALL_CFG.replace("g = constant(1.0)", "g = csv:../gen/u.csv")
        .replace("v_b = sine-bump(1.0)", "v_b = csv:../gen/u.csv"))
    assert run("solve", "cfgdir/ref.cfg", "deep/er/run1") == 0
    assert run("solve", "deep/er/run1/manifest.json", "run2") == 0
    Path("elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert run("solve", "../run2/manifest.json", "x/y/run3") == 0
    want = (tmp_path / "deep" / "er" / "run1" / "u.csv").read_bytes()
    assert (tmp_path / "run2" / "u.csv").read_bytes() == want
    assert Path("x/y/run3/u.csv").read_bytes() == want
    # an unreadable reference is still cited at the manifest's line
    (tmp_path / "gen" / "u.csv").unlink()
    capsys.readouterr()
    assert run("solve", "x/y/run3/manifest.json", "run4") == 2
    line = SMALL_CFG.splitlines().index("g = constant(1.0)") + 1
    assert capsys.readouterr().err.startswith(
        f"error: x/y/run3/manifest.json:{line}: referenced file does not exist")


def test_optimizer_nonconvergence_exits_3(cfg_path, tmp_path, capsys, monkeypatch):
    # the genuine cap is exercised at the library level; here only the exit
    # code plumbing matters
    from parctrl import optimal_control

    real = optimal_control.optimize_boundary

    def stalled(*args, **kwargs):
        res = real(*args, **kwargs)
        res.converged = False
        res.optimality_residual = 1.0
        return res

    monkeypatch.setattr("parctrl.cli.optimal_control.optimize_boundary", stalled)
    assert run("optimize", str(cfg_path), tmp_path / "out") == 3
    assert "did not converge" in capsys.readouterr().err


def test_mesh_json_written(cfg_path, tmp_path):
    out = tmp_path / "out"
    assert run("solve", cfg_path, out) == 0
    mesh = json.loads((out / "mesh.json").read_text())
    assert mesh["dim"] == 1 and len(mesh["node_coords"]) == 33


def test_mesh_json_streamed_in_chunks_is_the_whole_dump(tmp_path):
    # more element and node rows than one chunk: the streamed text and the
    # manifest hash are those of the whole mesh serialized at once
    import hashlib

    from parctrl import cli
    from parctrl.fem_core import build_rect_mesh

    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG.replace("dim = 1\ncells = 32\n", "dim = 2\nnx = 70\nny = 70\n")
                   .replace("steps = 20", "steps = 2"))
    out = tmp_path / "out"
    assert run("solve", str(cfg), out) == 0
    mesh = build_rect_mesh(70, 70, {"left"})
    assert min(mesh.elements.shape[0], mesh.n_nodes) > cli._MESH_JSON_ROWS
    text = json.dumps(mesh_json_dict(mesh), sort_keys=True)
    assert (out / "mesh.json").read_text() == text + "\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["mesh"]["hash"] == hashlib.sha256(text.encode()).hexdigest()


def test_config_parser_diagnostics():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config_text("[bogus]\nx = 1\n", "p.cfg")
    with pytest.raises(ConfigError, match="p.cfg:2"):
        parse_config_text("[mesh]\nnot a pair\n", "p.cfg")
    with pytest.raises(ConfigError, match="outside"):
        parse_config_text("dim = 1\n", "p.cfg")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("[mesh]\ndim = 1\ndim = 2\n", "p.cfg")


@pytest.mark.parametrize("mesh,key,line", [("dim = 1\ncells = 0", "cells", 3),
                                           ("dim = 2\nnx = 1\nny = 4", "nx", 3),
                                           ("dim = 2\nnx = 4\nny = 1", "ny", 4)],
                         ids=["cells", "nx", "ny"])
def test_mesh_size_error_cites_its_own_line(tmp_path, capsys, mesh, key, line):
    # a mesh size below 2 is cited at its own line, not at gamma1's
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_CFG.replace("dim = 1\ncells = 32", mesh))
    assert run("solve", str(bad), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"bad.cfg:{line}: key '{key}' must be >= 2" in err


@pytest.mark.parametrize("mesh,key,line", [("dim = 1\ncells = 32\nnx = 0", "nx", 4),
                                           ("dim = 2\nnx = 4\nny = 4\ncells = -3",
                                            "cells", 5)],
                         ids=["nx-in-1d", "cells-in-2d"])
def test_mesh_key_of_the_other_dimension_rejected(tmp_path, capsys, mesh, key, line):
    # a size key the mesh of this dim does not read is not silently ignored
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_CFG.replace("dim = 1\ncells = 32", mesh))
    assert run("solve", str(bad), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"bad.cfg:{line}: key '{key}' does not apply to a" in err


def build_with(tmp_path, text):
    from parctrl.config import build_problem

    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return build_problem(load_config(str(cfg)))


def test_exp_decay_source_is_sampled_per_step(tmp_path):
    problem = build_with(tmp_path, SMALL_CFG.replace(
        "g = constant(1.0)", "g = exp-decay(1,0.5,2)\ng_inf = exp-decay(1,0.5,2)"))
    t = problem.grid.times()
    rows = problem.spec.source
    assert rows.shape == (t.size, problem.ops.n_nodes)
    for k, t_k in enumerate(t):
        np.testing.assert_allclose(rows[k], 1.0 + 0.5 * math.exp(-2.0 * t_k),
                                   rtol=1e-15, atol=0.0)
    # a spatial datum is the profile's row at t = 0
    assert problem.g_inf.shape == (problem.ops.n_nodes,)
    assert np.array_equal(problem.g_inf, rows[0])
    assert np.all(problem.g_inf == 1.5)


def test_ramp_flux_is_sampled_on_gamma2(tmp_path):
    text = SMALL_CFG.replace("dim = 1\ncells = 32\n", "dim = 2\nnx = 6\nny = 5\n")
    problem = build_with(tmp_path, text.replace("q = constant(0.5)", "q = ramp(0.5)"))
    ops = problem.ops
    x = ops.mesh.node_coords[ops.gamma2_nodes, 0]
    assert np.unique(x).size > 1
    assert problem.q.shape == (problem.grid.n_steps + 1, ops.gamma2_nodes.size)
    for row in problem.q:
        assert np.array_equal(row, 0.5 * x)


@pytest.mark.parametrize("key,old", [("b", "b = constant(0.0)"),
                                     ("g_inf", "q0 = constant(1.0)")])
def test_spatial_keys_reject_csv_references(tmp_path, capsys, key, old):
    # b and g_inf are one nodal row each; a CSV holds a trajectory
    (tmp_path / "data.csv").write_text("step,time,n0\n0,0,1\n")
    new = f"{key} = csv:data.csv" if key == "b" else f"{old}\n{key} = csv:data.csv"
    text = SMALL_CFG.replace(old, new)
    line = text.splitlines().index(f"{key} = csv:data.csv") + 1
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert run("solve", str(bad), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"bad.cfg:{line}: key '{key}' does not accept CSV references" in err


def test_malformed_csv_reference_cites_the_key(cfg_path, tmp_path, capsys):
    # a CSV the CLI wrote, with one cell that is not a number, fails at the
    # line of the key that references it
    out = tmp_path / "out"
    assert run("optimize", cfg_path, out) == 0
    rows = (out / "q_opt.csv").read_text().splitlines()
    cells = rows[3].split(",")
    cells[2] = "abc"
    rows[3] = ",".join(cells)
    (tmp_path / "bad.csv").write_text("\n".join(rows) + "\n")
    text = SMALL_CFG.replace("q = constant(0.5)", "q = csv:bad.csv")
    line = text.splitlines().index("q = csv:bad.csv") + 1
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert run("solve", str(bad), tmp_path / "out2") == 2
    err = capsys.readouterr().err
    assert f"bad.cfg:{line}: cannot read CSV control" in err and "'abc'" in err


def test_a_nan_in_a_csv_reference_cites_the_key(tmp_path, capsys):
    # like a profile's nan or inf, it would run into every output file
    rows = [",".join(["%d" % k, "%g" % (k / 20)] + ["1.0"] * 33) for k in range(21)]
    rows[7] = rows[7][:-3] + "nan"
    (tmp_path / "data.csv").write_text("\n".join(["step,time," + ",".join(
        f"n{i}" for i in range(33))] + rows) + "\n")
    text = SMALL_CFG.replace("g = constant(1.0)", "g = csv:data.csv")
    line = text.splitlines().index("g = csv:data.csv") + 1
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert run("solve", str(bad), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.endswith(f"bad.cfg:{line}: key 'g' must be finite, got nan\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value,written", [("TRUE", True), ("0", False)])
def test_plots_takes_booleans_in_any_case(tmp_path, value, written):
    # a value that is not one of these is rejected (test_bad_keys_fail_before_assembly)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG.replace("plots = true", f"plots = {value}"))
    out = tmp_path / "out"
    assert run("decay", str(cfg), out) == 0
    assert (out / "decay.svg").exists() is written


def test_v_b_boundary_mismatch_rejected(tmp_path, capsys):
    text = SMALL_CFG.replace("v_b = sine-bump(1.0)", "v_b = constant(0.7)")
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert run("solve", str(bad), tmp_path / "out") == 2
    assert "v_b disagrees" in capsys.readouterr().err


def _trajectory_entries(problem):
    # every [data] entry build_problem samples as a trajectory, with the
    # points it samples it on
    ops = problem.ops
    every, gamma2 = ops.mesh.node_coords, ops.mesh.node_coords[ops.gamma2_nodes]
    return {"g": (problem.spec.source, every), "z_d": (problem.spec.target, every),
            "q": (problem.q, gamma2), "q0": (problem.q0, gamma2)}


@pytest.mark.parametrize("profile", ["constant(1.5)", "sine-bump(0.5)", "ramp(2.0)"])
def test_time_constant_entries_hold_one_read_only_row(tmp_path, profile):
    # a time-constant profile's trajectory is its t = 0 row, broadcast to
    # every time level: the shape of a trajectory, the memory of one row
    from parctrl.config import build_problem
    from parctrl.profiles import evaluate, parse_profile

    text = SMALL_CFG
    for key in ("g", "z_d", "q", "q0"):
        text = text.replace(next(line for line in text.splitlines()
                                 if line.startswith(f"{key} =")), f"{key} = {profile}")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    problem = build_problem(load_config(str(cfg)))
    rows = problem.grid.n_steps + 1
    for key, (values, points) in _trajectory_entries(problem).items():
        assert values.shape == (rows, len(points)), key
        assert not values.flags.writeable and values.strides[0] == 0, key
        row = evaluate(parse_profile(profile), points, 0.0)
        assert values[0].tobytes() == row.tobytes(), key
        with pytest.raises(ValueError, match="read-only"):
            values[-1, 0] = 0.0


def test_time_dependent_and_csv_entries_are_full_writable_arrays(tmp_path):
    # exp-decay varies in time and a csv: reference may: each time level
    # has a row of its own
    from parctrl.cli import write_control_csv, write_field_csv
    from parctrl.config import build_problem

    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG)
    plain = build_problem(load_config(str(cfg)))
    grid, ops = plain.grid, plain.ops
    rng = np.random.default_rng(3)
    field = rng.standard_normal((grid.n_steps + 1, ops.n_nodes))
    control = rng.standard_normal((grid.n_steps + 1, ops.gamma2_nodes.size))
    write_field_csv(str(tmp_path / "g.csv"), grid, field)
    write_control_csv(str(tmp_path / "q0.csv"), grid, ops, control)
    cfg.write_text(SMALL_CFG.replace("g = constant(1.0)", "g = csv:g.csv")
                   .replace("z_d = constant(0.25)", "z_d = exp-decay(0.25,1.0,2.0)")
                   .replace("q = constant(0.5)", "q = exp-decay(0.5,0.5,1.0)")
                   .replace("q0 = constant(1.0)", "q0 = csv:q0.csv"))
    problem = build_problem(load_config(str(cfg)))
    for key, (values, points) in _trajectory_entries(problem).items():
        assert values.shape == (grid.n_steps + 1, len(points)), key
        assert values.flags.writeable and values.flags.c_contiguous, key
        assert values[0].tobytes() != values[-1].tobytes(), key
    assert problem.spec.source.tobytes() == field.tobytes()
    assert problem.q0.tobytes() == control.tobytes()


def test_build_problem_memory_does_not_grow_with_the_steps(tmp_path):
    # time-constant [data] profiles hold one row each, so nothing build_problem
    # keeps or makes on the way grows with the step count
    import tracemalloc

    from parctrl.config import build_problem

    def peak(steps):
        cfg = tmp_path / f"run{steps}.cfg"
        cfg.write_text(SMALL_CFG.replace("cells = 32", "cells = 64")
                       .replace("steps = 20", f"steps = {steps}"))
        raw = load_config(str(cfg))
        tracemalloc.start()
        try:
            build_problem(raw)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # first calls fill caches no later call grows
    assert peak(100_000) <= peak(10) + 64_000


@pytest.mark.parametrize("profile, b", [("sine-bump(1.0)", "constant(0.0)"),
                                        ("exp-decay(0.5,0.25,3.0)", "constant(0.75)")])
def test_v_b_is_read_at_t0(tmp_path, profile, b):
    # a profile is sampled at t = 0 only, bit for bit its trajectory's row 0;
    # a CSV reference is still read whole, and its row 0 kept
    from parctrl.cli import write_field_csv
    from parctrl.config import build_problem
    from parctrl.profiles import parse_profile, sample

    def build(v_b):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG.replace("v_b = sine-bump(1.0)", f"v_b = {v_b}")
                       .replace("b = constant(0.0)", f"b = {b}"))
        return build_problem(load_config(str(cfg)))

    problem = build(profile)
    grid, ops = problem.grid, problem.ops
    row0 = sample(parse_profile(profile), ops.mesh.node_coords, grid, True)[0].copy()
    row0[ops.dirichlet_nodes] = problem.spec.boundary_temp
    assert problem.spec.initial_temp.tobytes() == row0.tobytes()

    field = np.random.default_rng(7).standard_normal((grid.n_steps + 1, ops.n_nodes))
    field[0, ops.dirichlet_nodes] = problem.spec.boundary_temp
    write_field_csv(str(tmp_path / "v_b.csv"), grid, field)
    assert build("csv:v_b.csv").spec.initial_temp.tobytes() == field[0].tobytes()


def test_distributed_and_simultaneous_commands(tmp_path):
    for control in ("distributed", "simultaneous"):
        text = SMALL_CFG.replace("q0 = constant(1.0)",
                                 f"q0 = constant(1.0)\ncontrol = {control}")
        cfg = tmp_path / f"{control}.cfg"
        cfg.write_text(text)
        out = tmp_path / f"out_{control}"
        assert run("optimize", str(cfg), out) == 0
        res = json.loads((out / "result.json").read_text())
        assert res["converged"] is True
        if control == "simultaneous":
            assert (out / "g_opt.csv").exists() and (out / "q_opt.csv").exists()


def test_data_csv_references_round_trip(tmp_path):
    # a [data] trajectory read back from the CSV the CLI wrote for it keeps
    # every bit; a CSV of the wrong width is named by the kind it was read as
    from parctrl.cli import write_control_csv, write_field_csv
    from parctrl.config import build_problem

    small = tmp_path / "small.cfg"
    small.write_text(SMALL_CFG)
    problem = build_problem(load_config(str(small)))
    grid, ops = problem.grid, problem.ops
    rng = np.random.default_rng(5)
    g = rng.standard_normal((grid.n_steps + 1, ops.n_nodes))
    q = rng.standard_normal((grid.n_steps + 1, ops.gamma2_nodes.size))
    write_field_csv(str(tmp_path / "g.csv"), grid, g)
    write_control_csv(str(tmp_path / "q.csv"), grid, ops, q)

    def build(g_ref, q_ref):
        text = (SMALL_CFG.replace("g = constant(1.0)", f"g = csv:{g_ref}")
                .replace("q = constant(0.5)", f"q = csv:{q_ref}"))
        cfg = tmp_path / "refs.cfg"
        cfg.write_text(text)
        return build_problem(load_config(str(cfg)))

    read = build("g.csv", "q.csv")
    assert read.spec.source.shape == g.shape
    assert read.spec.source.tobytes() == g.tobytes()
    assert read.q.shape == q.shape
    assert read.q.tobytes() == q.tobytes()
    with pytest.raises(ConfigError, match=r"CSV field .*q\.csv has shape"):
        build("q.csv", "q.csv")
    with pytest.raises(ConfigError, match=r"CSV control .*g\.csv has shape"):
        build("g.csv", "g.csv")


def test_shipped_benchmark_config_loads():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = load_config(os.path.join(here, "configs", "benchmark1d.cfg"))
    from parctrl.config import build_problem

    problem = build_problem(cfg)
    assert problem.ops.n_nodes == 257
    assert problem.grid.n_steps == 200


@pytest.fixture()
def two_cpus(monkeypatch):
    # _worker_count sees two CPUs, so _run_tasks forks its workers on any host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.mark.usefixtures("two_cpus")
@pytest.mark.parametrize("error,code", [("SolverError", 3), ("ValueError", 2)])
def test_a_worker_error_keeps_its_exit_code(cfg_path, tmp_path, capsys, monkeypatch,
                                            error, code):
    # a property that raises in a forked worker exits as it would in the
    # parent, with its message, and every worker is reaped when main returns
    import time

    from parctrl import cli, properties

    raised = {"SolverError": cli.SolverError, "ValueError": ValueError}[error]
    parent, real = os.getpid(), properties.solve_parabolic

    def in_a_worker_only(*args, **kwargs):
        if os.getpid() != parent:
            raise raised("no convergence in a worker")
        time.sleep(0.05)  # leaves tasks for the worker to claim
        return real(*args, **kwargs)

    monkeypatch.setattr(properties, "solve_parabolic", in_a_worker_only)
    assert run("verify", cfg_path, tmp_path / "out") == code
    err = capsys.readouterr().err
    assert "no convergence in a worker" in err and "Traceback" not in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("two_cpus")
def test_a_worker_exception_keeps_its_type_message_and_attributes():
    # unpickling would call ConfigError(message) and anchor the message twice
    import time

    from parctrl.cli import _run_tasks

    parent = os.getpid()

    def task():
        if os.getpid() != parent:
            raise ConfigError("bad value", "run.cfg", 7)
        time.sleep(0.2)

    with pytest.raises(ConfigError) as caught:
        _run_tasks([task] * 3, range(3))
    assert str(caught.value) == "run.cfg:7: bad value"
    assert (caught.value.path, caught.value.line) == ("run.cfg", 7)
    # the worker's traceback, formatted there, is the cause
    assert 'raise ConfigError("bad value", "run.cfg", 7)' in str(caught.value.__cause__)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_config_error_pickles_as_itself():
    # what _run_tasks sends from a worker: the anchor is not added twice
    import pickle

    sent = ConfigError("bad value", "run.cfg", 7)
    sent.add_note("raised in a worker process")
    received = pickle.loads(pickle.dumps(sent))
    assert type(received) is ConfigError
    assert str(received) == "run.cfg:7: bad value"
    assert (received.path, received.line) == ("run.cfg", 7)
    assert received.__notes__ == ["raised in a worker process"]
    assert str(pickle.loads(pickle.dumps(ConfigError("no line", "run.cfg")))) == \
        "run.cfg: no line"


@pytest.mark.usefixtures("two_cpus")
def test_run_tasks_reaps_its_workers_when_a_worker_task_raises():
    # raised at once: the workers still running a task are terminated, not
    # waited for, and every worker is reaped
    import time

    from parctrl.cli import _run_tasks

    parent = os.getpid()

    def raises():
        if os.getpid() != parent:
            raise KeyError("raised in a worker")

    def sleeps():
        time.sleep(30)

    start = time.monotonic()
    with pytest.raises(KeyError, match="raised in a worker"):
        _run_tasks([raises, sleeps, sleeps, sleeps], range(4))
    assert time.monotonic() - start < 10
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_error_while_workers_send_results_never_stalls():
    # the workers still busy when a task raises are terminated, some while
    # they send a 1 MB result; a thread holding the GIL delays the caller's
    # own threads, as a loaded host does.  A multiprocessing.Pool stalled
    # here in about one run in three: a worker terminated while it held the
    # result queue's lock left the pool's task handler waiting forever
    import signal
    import subprocess
    import sys

    import parctrl

    src = os.path.dirname(os.path.dirname(os.path.abspath(parctrl.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    script = ("import os, threading\n"
              "os.sched_getaffinity = lambda pid: {0, 1}\n"
              "from parctrl.cli import _run_tasks\n"
              "parent = os.getpid()\n"
              "def big():\n"
              "    return bytes(1 << 20)\n"
              "def raises():\n"
              "    if os.getpid() != parent:\n"
              "        raise KeyError('raised in a worker')\n"
              "def spin():\n"
              "    while True:\n"
              "        pass\n"
              "threading.Thread(target=spin, daemon=True).start()\n"
              "for _ in range(10):\n"
              "    try:\n"
              "        _run_tasks([big] * 4 + [raises] + [big] * 4, range(9))\n"
              "    except KeyError:\n"
              "        pass\n"
              "    else:\n"
              "        raise SystemExit('no KeyError')\n"
              "try:\n"
              "    os.waitpid(-1, os.WNOHANG)\n"
              "except ChildProcessError:\n"
              "    print('reaped')\n")
    proc = subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("_run_tasks stalled after a worker task raised")
    assert proc.returncode == 0, err
    assert out == "reaped\n"


@pytest.mark.usefixtures("two_cpus")
@pytest.mark.parametrize("how", ["SIGKILL", "os._exit"])
def test_a_worker_that_dies_fails_at_once(how):
    # a worker killed by a signal or leaving through os._exit sends no
    # result: the call raises, and every worker is reaped
    import signal
    import time

    from parctrl.cli import _run_tasks

    parent = os.getpid()

    def task():
        if os.getpid() != parent:
            if how == "SIGKILL":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(1)
        time.sleep(0.2)

    start = time.monotonic()
    with pytest.raises(RuntimeError, match="a worker process exited"):
        _run_tasks([task] * 3, range(3))
    assert time.monotonic() - start < 10
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("two_cpus")
def test_forked_workers_inherit_the_callers_errstate():
    # main's one np.errstate covers verify's and optimize's workers too
    from parctrl.cli import _run_tasks

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        states = _run_tasks([np.geterr] * 4, range(4))
    assert all(state["over"] == state["invalid"] == state["divide"] == "ignore"
               for state in states)


@pytest.mark.usefixtures("two_cpus")
def test_an_unpicklable_worker_exception_names_the_pickling_failure():
    # the exception cannot be sent back, so what failed to pickle is raised
    from multiprocessing.pool import MaybeEncodingError

    from parctrl.cli import _run_tasks

    def task():
        exc = ValueError("odd value")
        exc.hook = lambda: None
        raise exc

    with pytest.raises(MaybeEncodingError,
                       match=r"Can't pickle local object '.*task\.<locals>\.<lambda>'"):
        _run_tasks([task] * 2, range(2))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def alive(pid):
    # a zombie has exited; only its parent has not reaped it yet
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_a_killed_parent_leaves_no_worker():
    # the workers of a parent killed by SIGKILL, which runs no clean-up,
    # exit by themselves
    import select
    import signal
    import subprocess
    import sys
    import time

    import parctrl

    src = os.path.dirname(os.path.dirname(os.path.abspath(parctrl.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    script = ("import os, time\n"
              "os.sched_getaffinity = lambda pid: {0, 1}\n"
              "from parctrl.cli import _run_tasks\n"
              "def task():\n"
              "    print(os.getpid(), flush=True)\n"
              "    time.sleep(1.5)\n"
              "_run_tasks([task] * 4, range(4))\n")
    proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    text, deadline = b"", time.monotonic() + 30
    try:
        # until the two processes running the first tasks have printed
        while text.count(b"\n") < 2 and time.monotonic() < deadline:
            if select.select([proc.stdout], [], [], 1.0)[0]:
                chunk = os.read(proc.stdout.fileno(), 1024)
                if not chunk:
                    break
                text += chunk
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    workers = {int(pid) for pid in text.split()} - {proc.pid}
    deadline = time.monotonic() + 5
    while any(map(alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.1)
    left = [pid for pid in workers if alive(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert workers and left == []


@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_verify_battery_is_the_same_on_one_cpu(monkeypatch, dim):
    # each property draws from its own stream, so which process ran it
    # changes no name, flag or detail bit
    from parctrl.cli import _verify_battery
    from parctrl.config import build_problem

    def battery():
        problem = (small_2d_problem() if dim == "2d"
                   else build_problem(parse_config_text(SMALL_CFG)))
        return [(c["name"], c["passed"], c["detail"].hex()) for c in _verify_battery(problem)]

    on_all = battery()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert battery() == on_all
    assert all(passed for _, passed, _ in on_all)


def pinned_to_one_cpu():
    # runs in the child before it starts: only that process is pinned
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.mark.parametrize("control,variant", [("boundary", "dirichlet"),
                                             ("simultaneous", "robin")])
def test_optimize_csvs_are_the_same_pinned_to_one_cpu(tmp_path, control, variant):
    import subprocess
    import sys

    import parctrl

    src = os.path.dirname(os.path.dirname(os.path.abspath(parctrl.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    text = SMALL_CFG.replace("dim = 1\ncells = 32\n", "dim = 2\nnx = 6\nny = 5\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text.replace("q0 = constant(1.0)", f"q0 = constant(1.0)\n"
                                f"control = {control}\nvariant = {variant}"))
    outs = {"all": tmp_path / "all", "one": tmp_path / "one"}
    for label, preexec in (("all", None), ("one", pinned_to_one_cpu)):
        subprocess.run([sys.executable, "-m", "parctrl.cli", "optimize", "--config",
                        str(cfg), "--out", str(outs[label])],
                       env=env, check=True, capture_output=True, preexec_fn=preexec)
    names = sorted(p.name for p in outs["all"].glob("*.csv"))
    assert names == sorted(p.name for p in outs["one"].glob("*.csv"))
    assert len(names) == (4 if control == "simultaneous" else 3)
    for name in names + ["result.json", "mesh.json"]:
        assert (outs["all"] / name).read_bytes() == (outs["one"] / name).read_bytes(), name
    workers = {label: json.loads((out / "manifest.json").read_text())["workers"]
               for label, out in outs.items()}
    assert workers == {"all": 1, "one": 1}


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
def test_an_out_that_cannot_be_created_exits_2(cfg_path, tmp_path, capsys, below):
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    out = taken / "out" if below else taken
    reason = "Not a directory" if below else "File exists"
    assert run("solve", cfg_path, out) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot create output directory {out}: {reason}\n"


@pytest.mark.parametrize("name", ["u.csv", "manifest.json"])
def test_an_output_that_cannot_be_written_exits_2(cfg_path, tmp_path, capsys, name):
    # a directory where the output goes: one error line, not a traceback
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert run("solve", cfg_path, out) == 2
    assert capsys.readouterr().err == f"error: cannot write {out / name}: Is a directory\n"


def test_verify_battery_computes_the_cached_values_before_forking(monkeypatch):
    # a worker that computed a constant or factorized a system would do it
    # again in every process, and the parent's manifest would miss the constant
    from parctrl import cli

    problem = small_2d_problem()
    real, seen = cli._run_tasks, {}

    def check_caches(tasks, order):
        seen["constants"] = sorted(problem.ops.constants_read())
        seen["systems"] = set(problem.ops.systems)
        return real(tasks, order)

    monkeypatch.setattr(cli, "_run_tasks", check_caches)
    cli._verify_battery(problem)
    dt = problem.grid.dt
    assert seen == {"constants": ["lambda0", "lambda1", "trace_norm"],
                    "systems": {(math.inf, False, dt), (5.0, False, dt)}}
