"""The package imports lazily, the CLI sets the OpenBLAS thread count
before numpy loads, and the CLI alone freezes the collector's heap at
import; all are checked in child processes, whose imports, environment and
collector this test process does not share."""

import json
import os
import subprocess
import sys

import pytest

import parctrl

SRC = os.path.dirname(os.path.dirname(os.path.abspath(parctrl.__file__)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# a 40x40 mesh has band width kd > 32, where dpbtrf takes the blocked,
# threaded path
CFG_2D = """\
[mesh]
dim = 2
nx = 40
ny = 40
gamma1 = left

[grid]
t_final = 0.5
steps = 5

[data]
g = constant(1.0)
b = constant(0.0)
v_b = sine-bump(1.0)
z_d = constant(0.25)
q = constant(0.5)
"""


def child_env(**thread_vars):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [env.get("PYTHONPATH")])])
    env.update(thread_vars)
    return env


def test_import_parctrl_loads_no_numpy():
    script = """
import sys
import parctrl
assert "numpy" not in sys.modules, "import parctrl loaded numpy"
assert parctrl.__version__
for name in parctrl.__all__:
    getattr(parctrl, name)
try:
    parctrl.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
"""
    subprocess.run([sys.executable, "-c", script], env=child_env(), check=True)


def test_only_the_cli_freezes_the_heap():
    script = """
import gc
import parctrl.config, parctrl.optimal_control, parctrl.properties
assert gc.get_freeze_count() == 0, gc.get_freeze_count()
import parctrl.cli
assert gc.get_freeze_count() > 0
"""
    subprocess.run([sys.executable, "-c", script], env=child_env(), check=True)


@pytest.fixture(scope="module")
def solve_runs(tmp_path_factory):
    # one solve with no thread variable set, one with two OpenBLAS threads
    root = tmp_path_factory.mktemp("threads")
    cfg = root / "run.cfg"
    cfg.write_text(CFG_2D)
    outs = {}
    for label, env in (("default", child_env()),
                       ("two", child_env(OPENBLAS_NUM_THREADS="2"))):
        outs[label] = root / label
        subprocess.run([sys.executable, "-m", "parctrl.cli", "solve", "--config",
                        str(cfg), "--out", str(outs[label])],
                       env=env, check=True)
    return outs


def test_manifest_records_the_thread_setting(solve_runs):
    def blas_threads(label):
        manifest = json.loads((solve_runs[label] / "manifest.json").read_text())
        return manifest["blas_threads"]

    assert blas_threads("default") == {"OPENBLAS_NUM_THREADS": "1",
                                       "OMP_NUM_THREADS": None, "set_by": "cli"}
    assert blas_threads("two") == {"OPENBLAS_NUM_THREADS": "2",
                                   "OMP_NUM_THREADS": None, "set_by": "environment"}


def test_solve_bytes_do_not_depend_on_thread_count(solve_runs):
    default = (solve_runs["default"] / "u.csv").read_bytes()
    assert default == (solve_runs["two"] / "u.csv").read_bytes()


def test_cli_imported_after_numpy_sets_nothing(tmp_path):
    # numpy has started its OpenBLAS pool by then: the CLI leaves the
    # environment, which children inherit, alone and records that it did
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG_2D.replace("nx = 40\nny = 40", "nx = 4\nny = 4"))
    out = tmp_path / "out"
    script = f"""
import os
import numpy, parctrl.cli
assert "OPENBLAS_NUM_THREADS" not in os.environ
assert parctrl.cli.main(["solve", "--config", {str(cfg)!r}, "--out", {str(out)!r}]) == 0
assert "OPENBLAS_NUM_THREADS" not in os.environ
"""
    subprocess.run([sys.executable, "-c", script], env=child_env(), check=True)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["blas_threads"] == {"OPENBLAS_NUM_THREADS": None,
                                        "OMP_NUM_THREADS": None, "set_by": "none"}
