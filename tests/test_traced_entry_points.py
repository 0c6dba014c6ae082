"""Every layer entry point perfbench/tracing.py wraps exists on the package,
so a refactor that renames or removes one fails here instead of silently
dropping that layer from a traced benchmark run; and a traced run records
its layers with their attributes, which tracing.py would otherwise replace
by an attrs_error without failing."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli import SMALL_CFG

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _entry_points():
    # tracing.py imports only the standard library; load it by path so the
    # test does not depend on the repository root being importable
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


def test_every_traced_entry_point_resolves():
    missing = []
    for module_name, path, _ in _entry_points():
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{path}")
    assert missing == []


def test_a_traced_optimize_run_records_its_layers(tmp_path):
    # the per-layer benchmark's own entry, run as the benchmark runs it: from
    # the repository root, with the package from src
    cfg, spans = tmp_path / "run.cfg", tmp_path / "spans.json"
    cfg.write_text(SMALL_CFG)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-m", "perfbench.traced_cli", str(spans),
                           "optimize", "--config", str(cfg), "--out", str(tmp_path / "out")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    record = json.loads(spans.read_text())
    assert record["missing"] == []
    assert [span for span in record["spans"] if "attrs_error" in span[4]] == []
    names = {span[0] for span in record["spans"]}
    assert {"fem_core.factorize", "state_solvers.march", "adjoint_solvers.march"} <= names
