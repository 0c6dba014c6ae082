"""Self-test of the benchmark's statistics, output checks, config generation
and span arithmetic.  Runs in well under a second; no CLI process is started."""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

from perfbench import checks, run, stats, tracing
from perfbench.workloads import LEVEL_RANGES, WORKLOADS, config_text, draw_levels

ROOT = Path(__file__).resolve().parent.parent


# --- statistics -------------------------------------------------------------

def test_quartiles_follow_statistics_quantiles():
    assert stats.quartiles([5, 1, 4, 2, 3]) == (1.5, 3, 4.5)
    assert stats.summary([5, 1, 4, 2, 3])["spread"] == pytest.approx(1.0)


def test_single_sample_has_zero_spread():
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert stats.summary([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1,
                                    "spread": 0.0}


def test_no_samples_is_an_error():
    with pytest.raises(ValueError):
        stats.quartiles([])


# --- output checks ----------------------------------------------------------

def _field_csv(path, steps, nodes=3):
    header = "step,time," + ",".join(f"n{i}" for i in range(nodes))
    rows = [",".join([str(k), str(k / steps)] + ["0.5"] * nodes) for k in range(steps + 1)]
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def test_headers():
    assert checks.header_ok("field", "step,time,n0,n1,n2")
    assert not checks.header_ok("field", "step,time,n0,n2")
    assert checks.header_ok("control", "step,time,g2n7,g2n12")
    assert not checks.header_ok("control", "step,time,n0")
    assert checks.header_ok(checks.DECAY_HEADER, "t,err_H,bound,ratio")
    assert not checks.header_ok(checks.DECAY_HEADER, "t,err_H,bound")


def test_csv_row_count_shape_and_hash(tmp_path):
    path = tmp_path / "u.csv"
    _field_csv(path, steps=4)
    problems, digest = checks.check_csv(path, "field", rows=5)
    assert problems == [] and len(digest) == 64
    problems, _ = checks.check_csv(path, "field", rows=4)
    assert problems == ["u.csv: 5 rows, expected 4"]
    path.write_text("step,time,n0\n0,0,1\n1,0.5\n", encoding="utf-8")
    assert checks.check_csv(path, "field", rows=2)[0] == ["u.csv: ragged rows"]
    path.write_text("step,time,n0\n0,0,1", encoding="utf-8")
    assert "u.csv: no final newline" in checks.check_csv(path, "field", rows=1)[0]
    problems, digest = checks.check_csv(tmp_path / "absent.csv", "field", rows=1)
    assert digest is None and problems[0].startswith("absent.csv: missing")


def test_invocation_checks(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    problems, _ = checks.check_invocation("verify", "boundary", 4, 4, 0,
                                          "pass  energy-decay\n", out)
    assert problems == [f"verify did not print {checks.VERIFY_OK_LINE!r}"]
    problems, _ = checks.check_invocation("verify", "boundary", 4, 4, 1,
                                          checks.VERIFY_OK_LINE + "\n", out)
    assert problems == ["exit code 1"]

    for name in ("u_opt.csv", "p_opt.csv"):
        _field_csv(out / name, steps=4)
    (out / "q_opt.csv").write_text(
        "step,time,g2n3\n" + "".join(f"{k},0,1\n" for k in range(5)), encoding="utf-8")
    (out / "result.json").write_text(json.dumps({"converged": False}), encoding="utf-8")
    problems, hashes = checks.check_invocation("optimize", "boundary", 4, 4, 0, "", out)
    assert problems == ["result.json: converged is not true"]
    assert sorted(hashes) == ["p_opt.csv", "q_opt.csv", "u_opt.csv"]
    (out / "result.json").write_text(json.dumps({"converged": True}), encoding="utf-8")
    assert checks.check_invocation("optimize", "boundary", 4, 4, 0, "", out)[0] == []
    # simultaneous control also writes g_opt.csv
    problems, _ = checks.check_invocation("optimize", "simultaneous", 4, 4, 0, "", out)
    assert problems == ["g_opt.csv: missing (No such file or directory)"]


def test_hash_ledger_flags_changed_bytes():
    ledger = checks.HashLedger()
    assert ledger.compare(0, {"u.csv": "aa"}) == []
    assert ledger.compare(0, {"u.csv": "aa"}) == []
    assert ledger.compare(1, {"u.csv": "bb"}) == []
    assert ledger.compare(0, {"u.csv": "bb"}) == ["u.csv: sha256 differs from the first pass"]


# --- generated configs ------------------------------------------------------

def test_levels_are_seeded_and_in_range():
    assert draw_levels(7) == draw_levels(7)
    assert draw_levels(7) != draw_levels(8)
    for seed in range(20):
        for key, value in draw_levels(seed).items():
            lo, hi = LEVEL_RANGES[key]
            assert lo <= value <= hi


def test_generated_configs_parse():
    from parctrl.config import parse_config_text

    for workload in WORKLOADS.values():
        for spec in workload.configs.values():
            cfg = parse_config_text(config_text(spec, draw_levels(3)))
            assert cfg.get("grid", "steps") == str(spec.steps)
            assert cfg.get("data", "control") == spec.control


# --- spans ------------------------------------------------------------------

def test_self_time_and_outermost_totals():
    spans = [
        ["cli.verify_battery", 0.0, 10.0, None, {}],
        ["state_solvers.stepper_init", 1.0, 3.0, 0, {"system": [1, 0.1, None, False]}],
        ["fem_core.factorize", 1.5, 2.5, 1, {"path": "direct"}],
        ["state_solvers.march", 3.0, 4.0, 0, {"steps": 10}],
        ["state_solvers.elliptic", 5.0, 7.0, 0, {}],
        ["state_solvers.elliptic", 5.5, 6.5, 4, {}],   # robin(inf) -> dirichlet
        ["state_solvers.stepper_init", 7.0, 8.0, 0, {"system": [1, 0.1, None, False]}],
    ]
    raw = tracing.invocation_totals(spans)
    assert raw["cli.verify_battery_s"] == 10.0
    assert raw["cli.verify_self_s"] == 10.0 - 2.0 - 1.0 - 2.0 - 1.0
    assert raw["state_solvers.elliptic_s"] == 2.0
    assert raw["state_solvers.stepper_init_count"] == 2
    assert raw["state_solvers.distinct_systems"] == 1
    assert raw["fem_core.factorize_count"] == 1 and raw["fem_core.cg_path_count"] == 0
    layers = tracing.pass_metrics([raw, raw])
    assert layers["state_solvers.factorization_reuse"] == 0.5
    assert layers["state_solvers.step_us"] == pytest.approx(1e5)
    assert layers["optimal_control.iteration_s"] == 0.0
    assert set(layers) | {"trace_overhead", "trace.traced_wall_s",
                          "trace.untraced_wall_s"} == set(tracing.PER_LAYER)


def test_install_reports_missing_entry_points(monkeypatch):
    fake = types.ModuleType("parctrl._benchfake")
    fake.f = lambda x: 2 * x
    monkeypatch.setitem(sys.modules, fake.__name__, fake)
    monkeypatch.setattr(tracing, "ENTRY_POINTS", (
        (fake.__name__, "f", "fake.f"), (fake.__name__, "renamed", "fake.g")))
    recorder = tracing.Recorder()
    assert tracing.install(recorder) == ["parctrl._benchfake.renamed"]
    assert fake.f(3) == 6
    assert [s[0] for s in recorder.spans] == ["fake.f"]


# --- BENCHMARK.json matches the code ----------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
