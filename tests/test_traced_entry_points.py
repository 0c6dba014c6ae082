"""Every layer entry point perfbench/tracing.py wraps exists on the package,
so a refactor that renames or removes one fails here instead of silently
dropping that layer from a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
