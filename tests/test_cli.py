import json
import math
import os

import numpy as np
import pytest

from parctrl.cli import main
from parctrl.config import ConfigError, load_config, parse_config_text

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


# the writer's edge values: signed zero, non-finite, subnormal, huge, and
# decimals that %.17g must not round
EDGE_VALUES = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, 0.1, 1 / 3, 10.0]


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

    from parctrl.cli import _write_csv, write_control_csv, write_field_csv
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
        _write_csv(str(tmp_path / "r.csv"), "h", ",".join(["%.17g"] * n), [row, row])
        line = ",".join(old_cell(v) for v in row)
        assert (tmp_path / "r.csv").read_text() == f"h\n{line}\n{line}\n"


def test_sweep_csv_writes_booleans_and_empty_cells(cfg_path, tmp_path, monkeypatch):
    from parctrl import asymptotics

    rows = [asymptotics.SweepRow(10.0, 0.1, 1 / 3, None, -0.0, True),
            asymptotics.SweepRow(100.0, 5e-324, math.inf, 0.1, math.nan, False)]
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
    text = SMALL_CFG.replace("q0 = constant(1.0)", "q0 = constant(1.0)\nvariant = robin")
    cfg = tmp_path / "robin.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run("solve", str(cfg), out) == 0
    assert json.loads((out / "manifest.json").read_text())["command"] == "solve"


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
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    out = tmp_path / "out"
    assert run("lambda", str(bad), out) == 2
    assert "q0 must be nonzero" in capsys.readouterr().err


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
                                       ("alphas", "10, nan"), ("alphas", "10, inf")])
def test_non_finite_values_are_rejected(tmp_path, capsys, key, value):
    # "<= 0" checks let nan through; every one of these must be > 0 and all
    # but alpha finite (alpha = inf imposes the datum exactly; sweep entries
    # must also exceed 1)
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
                                       ("control", "nowhere")])
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


def small_2d_problem():
    from parctrl.config import build_problem

    text = SMALL_CFG.replace("dim = 1\ncells = 32\n", "dim = 2\nnx = 6\nny = 5\n")
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


def test_verify_battery_factorizes_each_system_once(monkeypatch):
    # the battery runs dozens of solves on two systems: exact imposition and
    # Robin with the configured alpha, both consistent mass, one dt
    from parctrl import state_solvers
    from parctrl.cli import _verify_battery

    factorized = []
    real = state_solvers.spd_solver

    def counting(a_mat):
        factorized.append(a_mat.shape)
        return real(a_mat)

    monkeypatch.setattr(state_solvers, "spd_solver", counting)
    problem = small_2d_problem()
    checks = _verify_battery(problem)
    assert checks and all(c["passed"] for c in checks)
    dt = problem.grid.dt
    assert set(problem.ops.systems) == {(math.inf, False, dt), (5.0, False, dt)}
    assert len(factorized) == len(problem.ops.systems)


@pytest.mark.parametrize("command", ["solve", "optimize", "lambda"])
def test_unknown_variant_exits_2(tmp_path, capsys, command):
    text = SMALL_CFG.replace("q0 = constant(1.0)", "q0 = constant(1.0)\nvariant = neumann")
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert run(command, str(bad), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "bad.cfg" in err and "'neumann'" in err


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


def test_config_parser_diagnostics():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config_text("[bogus]\nx = 1\n", "p.cfg")
    with pytest.raises(ConfigError, match="p.cfg:2"):
        parse_config_text("[mesh]\nnot a pair\n", "p.cfg")
    with pytest.raises(ConfigError, match="outside"):
        parse_config_text("dim = 1\n", "p.cfg")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("[mesh]\ndim = 1\ndim = 2\n", "p.cfg")


def test_v_b_boundary_mismatch_rejected(tmp_path, capsys):
    text = SMALL_CFG.replace("v_b = sine-bump(1.0)", "v_b = constant(0.7)")
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert run("solve", str(bad), tmp_path / "out") == 2
    assert "v_b disagrees" in capsys.readouterr().err


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
    from parctrl.fem_core import BoundaryControl, TimeField

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
    assert type(read.spec.source) is TimeField
    assert read.spec.source.values.tobytes() == g.tobytes()
    assert type(read.q) is BoundaryControl
    assert read.q.values.tobytes() == q.tobytes()
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
