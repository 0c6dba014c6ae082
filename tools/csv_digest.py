"""Digest every CSV the CLI writes on the shipped configs.

    python tools/csv_digest.py
    python tools/csv_digest.py --compare <other checkout>

Runs, into a temporary directory and for configs/benchmark1d.cfg and
configs/benchmark2d.cfg: solve, sweep-alpha and decay; lambda with no
variant key, so lambda.csv calls the default variant parabolic; sweep-alpha
with q = optimize, so the err_control column is filled; decay with g_inf and
q_inf set, so the forced rows are written; solve and forced decay with
g = exp-decay(...) and q = ramp(...), so a time-dependent and a non-constant
boundary profile are sampled; solve with v_b = csv: the u.csv of the plain
solve run, so a CSV reference is read; lambda for each scalar
variant (parabolic, parabolic_robin, elliptic, elliptic_robin), so the steady
solves are reached too; optimize for each control (boundary, distributed,
simultaneous) with each variant (dirichlet, robin); and verify.  Then, with
[weights] alpha = 2.5, under alpha-2.5/: solve with variant = robin, optimize
boundary/robin, lambda parabolic_robin and elliptic_robin, and verify; and
with alpha = inf, under alpha-inf/: verify.  The shipped alpha = 5.0 is also
verify's stand-in for an infinite alpha, so these runs are what tell the
config's alpha from that stand-in and from inf.  Prints one
"sha256  <name>" line per CSV and per run's mesh.json, named
<config>/<run>/<file>, then "<hash>  <config>/<run>/manifest.json:mesh.hash"
with the mesh hash the run's manifest records, followed by each verify run's
lines: its standard output, which rounds each detail to %.3e, then one
"manifest <property> passed=<bool> detail=<repr>" line per property of its
manifest's results, exact to the bit; all prefixed "<config>:" for the
shipped alpha and "<config>/<run>:" for the others.  Last come the assembled
operators of both configs and of a 150x150 rectangle mesh with GAMMA1 on the
left edge, the size of the solve-2d-150 benchmark: one
"sha256  operators/<mesh>/<field>.<part>:<dtype>" line per array (the mesh's
node_coords and elements, each sparse matrix's indptr, indices and data, the
node index sets), then "repr" lines of lambda0, lambda1 and trace_norm.
Each verify run, whose properties run on forked worker processes, and each
optimize run is made a second time with the CLI pinned to one CPU, so that
verify forks none and optimize's bytes are checked not to depend on the CPU
count; a digest or verify line that differs between the two goes to
standard error and the exit status is 1.  Nothing printed depends on the temporary
directory, on wall time or on the CPU count, so the
output of two checkouts is equal exactly when their CSVs, mesh files, mesh
hashes, verify results and operators are, bit for bit.  Use it as the
byte-identity check of a refactor: run it before and after, and diff.

The CLI runs in subprocesses; the operators are assembled in this process.
Either way the package comes from the src/ directory next to this script.
Like the CLI, this script runs OpenBLAS on one thread unless the environment
sets OPENBLAS_NUM_THREADS or OMP_NUM_THREADS: it sets the first before numpy
loads, so the assembled operators' constants do not depend on the CPU count.

--compare is the check of a declared value change.  It makes the same runs,
on this tree's configs, with this tree's package and with the package in
<other checkout>/src, and prints one line per file: "identical", or for a
CSV "max|d| <x> / max|value| <y> = <relative change>, <rows> rows in both"
(or which row count, column count or text cell differs), for mesh.json
"identical" or "differs", and for result.json "iterations <here> vs
<other>", each followed by <config>/<run>/<file>.  Then come each verify
run's lines (standard output and manifest properties) from both trees,
prefixed "here " and "other", and a summary with the CSV count and the
largest relative change.  It exits 1 when a CSV differs in shape or text, a
mesh.json differs or an iteration count does, or when a pinned run of either
tree differs from its unpinned run.  The operators are not
compared.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile

if not any(os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads: see the docstring

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = ("benchmark1d", "benchmark2d")
PLAIN_COMMANDS = ("solve", "sweep-alpha", "decay", "lambda")
CONTROLS = ("boundary", "distributed", "simultaneous")
VARIANTS = ("dirichlet", "robin")
SCALAR_VARIANTS = ("parabolic", "parabolic_robin", "elliptic", "elliptic_robin")
# the limits of the shipped configs' own (time-constant) g and q
FORCED_DECAY = {"g_inf": "constant(1.0)", "q_inf": "constant(0.5)"}
# a time-dependent source and a non-constant flux, with their limits
PROFILES = {"g": "exp-decay(1.0,0.5,2.0)", "q": "ramp(0.5)"}
PROFILE_LIMITS = {"g_inf": "constant(1.0)", "q_inf": "ramp(0.5)"}
# [weights] alpha -> the runs at it, as (command, run name, [data] keys)
ALPHA_RUNS = {
    "2.5": [("solve", "solve-robin", {"variant": "robin"}),
            ("optimize", "optimize-boundary-robin",
             {"control": "boundary", "variant": "robin"}),
            ("lambda", "lambda-parabolic_robin", {"variant": "parabolic_robin"}),
            ("lambda", "lambda-elliptic_robin", {"variant": "elliptic_robin"}),
            ("verify", "verify", {})],
    "inf": [("verify", "verify", {})],
}


def _with_keys(text, sections):
    """Config text with each "key = value" of sections[section] set in that
    section: a key already there is replaced (the parser rejects a duplicate
    key), a new one is added at the top of the section."""
    lines = text.splitlines()
    for section, keys in sections.items():
        at = lines.index(f"[{section}]") + 1
        end = next((i for i in range(at, len(lines)) if lines[i].startswith("[")),
                   len(lines))
        rest = dict(keys)
        for i in range(at, end):
            key = lines[i].split("=", 1)[0].strip()
            if key in rest:
                lines[i] = f"{key} = {rest.pop(key)}"
        lines[at:at] = [f"{key} = {value}" for key, value in rest.items()]
    return "\n".join(lines) + "\n"


def _one_cpu():
    # runs in the CLI's process before it starts: one CPU, so it forks no worker
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _run(root, command, config_path, out_dir, pinned=False):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "parctrl.cli", command, "--config", config_path,
         "--out", out_dir],
        env=env, capture_output=True, text=True, preexec_fn=_one_cpu if pinned else None)
    if proc.returncode != 0:
        sys.exit(f"{command} on {config_path} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def _run_all(root, tmp):
    """Run every run with the package under root/src, into tmp, and each
    verify run (whose properties run on forked workers) and optimize run
    once more pinned to one CPU.  Returns one (run label, verify label or None, output
    directory, stdout) per unpinned run, and the digest lines on which a
    pinned run differs from its unpinned run, as "<line>  vs pinned
    <line>"."""
    done, differing = [], []
    for cfg in CONFIGS:
        with open(os.path.join(ROOT, "configs", cfg + ".cfg"), encoding="utf-8") as fh:
            text = fh.read()
        runs = [(command, command, {}) for command in PLAIN_COMMANDS]
        runs += [("sweep-alpha", "sweep-alpha-optimize", {"data": {"q": "optimize"}}),
                 ("decay", "decay-forced", {"data": FORCED_DECAY}),
                 ("solve", "solve-profiles", {"data": PROFILES}),
                 ("decay", "decay-profiles-forced",
                  {"data": {**PROFILES, **PROFILE_LIMITS}}),
                 # relative to this run's config: the plain solve run's output
                 ("solve", "solve-csv-v_b", {"data": {"v_b": "csv:../solve/out/u.csv"}})]
        runs += [("lambda", f"lambda-{variant}", {"data": {"variant": variant}})
                 for variant in SCALAR_VARIANTS]
        runs += [("optimize", f"optimize-{control}-{variant}",
                  {"data": {"control": control, "variant": variant}})
                 for control in CONTROLS for variant in VARIANTS]
        runs.append(("verify", "verify", {}))
        runs += [(command, f"alpha-{alpha}/{name}",
                  {"data": keys, "weights": {"alpha": alpha}})
                 for alpha, alpha_runs in ALPHA_RUNS.items()
                 for command, name, keys in alpha_runs]
        for command, name, keys in runs:
            run_dir = os.path.join(tmp, cfg, name)
            os.makedirs(run_dir)
            config_path = os.path.join(run_dir, "run.cfg")
            with open(config_path, "w", encoding="utf-8") as fh:
                fh.write(_with_keys(text, keys))
            out_dir = os.path.join(run_dir, "out")
            stdout = _run(root, command, config_path, out_dir)
            verify = None
            if command == "verify":
                verify = cfg if name == "verify" else f"{cfg}/{name}"
            label = f"{cfg}/{name}"
            done.append((label, verify, out_dir, stdout))
            if command in ("verify", "optimize"):
                pinned_dir = os.path.join(run_dir, "out-1cpu")
                pinned_stdout = _run(root, command, config_path, pinned_dir, pinned=True)
                lines = _run_lines(label, verify, out_dir, stdout)
                pinned = _run_lines(label, verify, pinned_dir, pinned_stdout)
                differing += [f"{a}  vs pinned  {b}" for a, b in zip(lines, pinned) if a != b]
                if len(lines) != len(pinned):
                    differing.append(f"{label}: {len(lines)} lines vs pinned {len(pinned)}")
    return done, differing


def _run_lines(label, verify, out_dir, stdout):
    # what the digest prints of one run: its files, and its verify lines
    return _digests(label, out_dir) + (_verify_lines(out_dir, stdout) if verify else [])


def _report_pinned(differing):
    """Print the pinned-run differences to standard error; 1 if any."""
    for line in differing:
        print(f"pinned to one CPU, differs: {line}", file=sys.stderr)
    return 1 if differing else 0


def _digests(name, out_dir):
    lines = []
    for fname in sorted(os.listdir(out_dir)):
        if fname.endswith(".csv") or fname == "mesh.json":
            with open(os.path.join(out_dir, fname), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append(f"{digest}  {name}/{fname}")
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        mesh_hash = json.load(fh)["mesh"]["hash"]
    lines.append(f"{mesh_hash}  {name}/manifest.json:mesh.hash")
    return lines


def _verify_lines(out_dir, stdout):
    """A verify run's standard output lines, then one line per property of
    its manifest with the repr of its detail, which stdout rounds."""
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        properties = json.load(fh)["results"]["properties"]
    return stdout.splitlines() + [
        f"manifest {p['name']} passed={p['passed']} detail={p['detail']!r}"
        for p in properties]


def _operator_lines(label, ops):
    arrays = [("mesh.node_coords", ops.mesh.node_coords),
              ("mesh.elements", ops.mesh.elements)]
    for f in dataclasses.fields(ops):
        value = getattr(ops, f.name)
        if hasattr(value, "indptr"):
            arrays += [(f"{f.name}.{part}", getattr(value, part))
                       for part in ("indptr", "indices", "data")]
        elif hasattr(value, "dtype"):
            arrays.append((f.name, value))
    lines = [f"{hashlib.sha256(a.tobytes()).hexdigest()}  operators/{label}/{name}:{a.dtype}"
             for name, a in arrays]
    # by name: the constants may be computed on first read rather than be fields
    return lines + [f"operators/{label}/{name} = {getattr(ops, name)!r}"
                    for name in ("lambda0", "lambda1", "trace_norm")]


def _operators():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from parctrl.config import build_problem, load_config
    from parctrl.fem_core import LEFT, assemble, build_rect_mesh

    lines = []
    for cfg in CONFIGS:
        problem = build_problem(load_config(os.path.join(ROOT, "configs", cfg + ".cfg")))
        lines += _operator_lines(cfg, problem.ops)
    return lines + _operator_lines("rect150-left", assemble(build_rect_mesh(150, 150, {LEFT})))


def _csv_change(path, other_path):
    """(text, relative change) of one CSV against its other-tree copy: text
    "identical", or max |delta| / max |value| over the numeric cells with
    the row count; rows, columns or text cells that differ are named, with
    relative change inf."""
    with open(path, encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    with open(other_path, encoding="utf-8") as fh:
        other_rows = fh.read().splitlines()
    if rows == other_rows:
        return "identical", 0.0
    if len(rows) != len(other_rows):
        return f"row counts differ: {len(rows)} vs {len(other_rows)}", math.inf
    delta = scale = 0.0
    for k, (row, other_row) in enumerate(zip(rows, other_rows)):
        cells, other_cells = row.split(","), other_row.split(",")
        if len(cells) != len(other_cells):
            return f"column counts differ in row {k}", math.inf
        for a, b in zip(cells, other_cells):
            try:
                x, y = float(a), float(b)
            except ValueError:
                if a == b:
                    continue
                return f"text differs in row {k}: {a!r} vs {b!r}", math.inf
            if a != b and not (math.isfinite(x) and math.isfinite(y)):
                return f"non-finite value differs in row {k}: {a} vs {b}", math.inf
            if math.isfinite(x):
                delta = max(delta, abs(x - y))
                scale = max(scale, abs(x), abs(y))
    rel = delta / scale if scale else (0.0 if delta == 0.0 else math.inf)
    return (f"max|d| {delta:.3e} / max|value| {scale:.3e} = {rel:.3e}, "
            f"{len(rows)} rows in both"), rel


def compare(other):
    """Run every run in this tree and in the checkout at other, on this
    tree's configs, and print how each CSV, mesh.json and result.json
    iteration count differs, then both trees' verify lines.  Returns 1 when
    a CSV's shape or text, a mesh.json or an iteration count differs."""
    other = os.path.abspath(other)
    if not os.path.isdir(os.path.join(other, "src", "parctrl")):
        sys.exit(f"{other} has no src/parctrl")
    lines, verify_lines = [], []
    worst, worst_name, changed, broken = 0.0, None, 0, 0
    with tempfile.TemporaryDirectory() as tmp:
        here, differing = _run_all(ROOT, os.path.join(tmp, "here"))
        there, other_differing = _run_all(other, os.path.join(tmp, "other"))
        for (label, verify, out_dir, stdout), (*_, other_dir, other_stdout) in zip(here, there):
            for fname in sorted(os.listdir(out_dir)):
                path = os.path.join(out_dir, fname)
                other_path = os.path.join(other_dir, fname)
                name = f"{label}/{fname}"
                if fname.endswith(".csv"):
                    text, rel = _csv_change(path, other_path)
                    changed += rel > 0.0
                    broken += math.isinf(rel)
                    if rel > worst:
                        worst, worst_name = rel, name
                elif fname == "mesh.json":
                    with open(path, "rb") as fh, open(other_path, "rb") as other_fh:
                        same = fh.read() == other_fh.read()
                    text = "identical" if same else "differs"
                    broken += not same
                elif fname == "result.json":
                    with open(path, encoding="utf-8") as fh, \
                            open(other_path, encoding="utf-8") as other_fh:
                        its = json.load(fh)["iterations"], json.load(other_fh)["iterations"]
                    text = f"iterations {its[0]} vs {its[1]}"
                    broken += its[0] != its[1]
                else:
                    continue
                lines.append(f"{text}  {name}")
            if verify is not None:
                verify_lines += [f"here  {verify}: {line}"
                                 for line in _verify_lines(out_dir, stdout)]
                verify_lines += [f"other {verify}: {line}"
                                 for line in _verify_lines(other_dir, other_stdout)]
    n_csv = sum(line.endswith(".csv") for line in lines)
    summary = f"{n_csv} CSVs: {n_csv - changed} identical, {changed} changed"
    if worst_name is not None:
        summary += f"; largest relative change {worst:.3e} in {worst_name}"
    print("\n".join(lines + verify_lines + [summary]))
    pinned = _report_pinned(differing + [f"other {line}" for line in other_differing])
    return 1 if broken else pinned


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", metavar="CHECKOUT",
                        help="compare every run's outputs with another checkout's")
    args = parser.parse_args()
    if args.compare is not None:
        return compare(args.compare)
    digests, verify_lines = [], []
    with tempfile.TemporaryDirectory() as tmp:
        done, differing = _run_all(ROOT, tmp)
        for label, verify, out_dir, stdout in done:
            digests += _digests(label, out_dir)
            if verify is not None:
                verify_lines += [f"{verify}: {line}"
                                 for line in _verify_lines(out_dir, stdout)]
    print("\n".join(digests + verify_lines + _operators()))
    return _report_pinned(differing)


if __name__ == "__main__":
    sys.exit(main())
