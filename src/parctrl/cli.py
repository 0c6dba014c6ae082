"""Batch front end.

    parctrl <command> --config <path> [--out <dir>]

Commands: solve | optimize | lambda | sweep-alpha | decay | verify.  config
reads the config (or a run's manifest) and resolves every value a command
reads; this module checks the command, runs it and writes its outputs.  One
table, _COMMANDS, gives each command its runner, the [data] variant names it
runs and the keys it requires; both are checked before the mesh is assembled,
as are q = optimize, which only sweep-alpha reads, and decay's g_inf without
q_inf or the reverse.  verify runs the table in properties.  An input the
library rejects (a q0 zero on the rows lambda or verify reads, a decay grid
too coarse, time-varying decay data) exits 2 at the line that sets it.

Outputs: main runs the command under one np.errstate, so numpy warns of no
overflow, and hands its runner the output directory.  Each file has one
writer, which checks the numbers it writes: a nan or an inf bound for a CSV
or result.json exits 3 naming the file and its column, and that file is not
written.  An output that cannot be written exits 2 naming it.  A run that
exits 0 or 1 also writes, once its runner has returned, a manifest echoing
the config text, the mesh hash, the spectral constants the command read and
wall time, with null for a diagnostic that is not finite; passed as
--config it reproduces byte-identical CSVs.
_write_csv writes every CSV: floats as the bytes of %.17g, laid out from
exact integer digits by one numpy kernel a block at a time (the rare value
outside its range through %.17g itself), text cells such as true/false as
they are, a missing value as an empty cell.  Exit codes: 0 success, 1
failed verify properties, 2 validation errors or an unwritable output, 3
solver non-convergence or a non-finite number in an output.

BLAS threads: the CLI runs OpenBLAS on one thread unless the environment
sets OPENBLAS_NUM_THREADS or OMP_NUM_THREADS.  This module sets the first
before numpy loads the BLAS; the package __init__ re-exports lazily, so every
CLI entry point gets here first.  The manifest's blas_threads holds both
variables as they stood once this module was imported, and set_by: "cli",
"environment", or "none" when numpy was loaded first.

Processes: verify's properties are independent tasks that _run_tasks runs
on a forked pool of one worker per CPU this process may use, costliest
first, once what they share is computed; no other command forks.  The
manifest's workers is the number of processes the command ran on: 1 for
every command but verify, and for verify with one CPU.  This module calls
gc.freeze() once, after its imports: the ~42,000 objects they leave live
until exit, so no later collection walks them, in this process or a forked
worker, and the final collections at exit skip them.  Skipped by the
collector, their GC headers stay unwritten, so a worker copies fewer of their
pages; reading an object still writes its reference count and copies its
page.  It is the one freeze: the library modules never freeze, so a process
that imports only them keeps its collector as it was.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import multiprocessing
import os
import sys
import time

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
if any(os.environ.get(var) for var in _BLAS_THREAD_VARS):
    _blas_set_by = "environment"
elif "numpy" in sys.modules:  # too late: numpy has loaded OpenBLAS
    _blas_set_by = "none"
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    _blas_set_by = "cli"
_BLAS_THREADS = {**{var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
                 "set_by": _blas_set_by}

# numpy, and scipy through the package modules, load OpenBLAS from here on
import numpy as np  # noqa: E402

from . import asymptotics, optimal_control, properties, scalar_control  # noqa: E402
from .config import ConfigError, Problem, build_problem, load_config  # noqa: E402
from .fem_core import InputError, SolverError  # noqa: E402
from .state_solvers import solve_parabolic  # noqa: E402

# what the imports made lives until exit: frozen, it is skipped by later
# collections, here, in the forked workers and at interpreter exit (see
# "Processes" above)
gc.freeze()

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3


# Each value's 32 source bytes in _format_floats: its first digit, its end,
# "-.", its other 16 digits in four groups, then "e-0123456789"
_SIGN_POINT = np.frombuffer(b"-.", np.uint16)
_EXPONENT_CHARS = np.frombuffer(b"e-0123456789", np.uint32)
_END, _MINUS, _POINT, _E, _ZERO = 1, 2, 3, 20, 22
_LAYOUT_WIDTH = 25
_LAYOUT_COLUMNS = np.arange(_LAYOUT_WIDTH, dtype=np.uint8)
_SPLIT = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves


def _layouts():
    """For each (sign, exponent -6..16, significant digits 1..17), in that
    order: the source byte of each of the up to 25 output bytes, and how
    many of them are written."""
    neg = np.arange(2, dtype=np.int8)[:, None, None, None]
    exp = np.arange(-6, 17, dtype=np.int8)[None, :, None, None]
    digits = np.arange(1, 18, dtype=np.int8)[None, None, :, None]
    t = np.arange(_LAYOUT_WIDTH, dtype=np.int8)[None, None, None, :] - neg  # after the sign
    sci = exp < -4  # %g's exponent notation: 1.2345e-05
    pad = np.where(sci, 0, np.maximum(-exp, 0))  # zeros before the digits: 0.00012345
    point = np.where(sci | (exp < 0), 1, exp + 1)  # characters before the point
    shown = np.maximum(pad + digits, point)  # digits or padding zeros, point excluded
    fraction = shown > point
    mantissa = shown + fraction
    i = t - (t > point)  # index into the padded digits
    digit = np.where(i < pad, _ZERO, np.where(i == pad, 0, 3 + i - pad))
    u = t - mantissa
    suffix = np.where(u < 3, _E + u, _ZERO - exp)  # "e-0", then the exponent's digit
    source = np.where(t < 0, _MINUS, np.where((t == point) & fraction, _POINT, np.where(
        t < mantissa, digit, np.where(u < 4 * sci, suffix, _END))))
    length = neg + mantissa + 4 * sci + 1
    return (source.reshape(-1, _LAYOUT_WIDTH).astype(np.uint8),
            length.ravel().astype(np.uint8))


@functools.cache
def _tables():
    """_format_floats' tables, built with numpy arithmetic on its first call,
    so that a process writing no CSV never builds them: 10**p and its
    Veltkamp halves for p <= 22 (the exact powers of ten), one row each; for
    each 4-digit group its ASCII digits, one uint32 per group, and its
    trailing zeros; and the _layouts."""
    pow10 = np.array([float(10 ** p) for p in range(23)])
    pow10_hi = _SPLIT * pow10 - (_SPLIT * pow10 - pow10)
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # those of 0..9999
    zeros = np.zeros(10_000, np.uint8)
    for zero in digits == 0:
        zeros = zero * (1 + zeros)
    return (np.stack([pow10, pow10_hi, pow10 - pow10_hi]),
            np.ascontiguousarray((digits + ord("0")).T).view(np.uint32).ravel(), zeros,
            *_layouts())


def _times_pow10(a, p, pow10):
    """a * 10**p as hi + lo, exactly: Dekker's product, pow10 the rows of
    10**p and its two halves."""
    b, b_hi, b_lo = pow10[:, p]
    hi = a * b
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _outside(hi, lo):
    # -1 where hi + lo < 1e16, +1 where hi + lo >= 1e17, else 0: exact compares
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    return above.astype(np.intp) - below


def _format_floats(x, ends):
    """The bytes of "%.17g" % v followed by the byte end, for each value v of
    the float64 array x and end of the uint8 array ends, without a bignum.

    For 1e-6 <= |v| < 1e17 the exponent e of v's 17 digits lies in -6..16,
    so p = 16 - e <= 22 and 10**p is a double.  Dekker's product gives
    |v| * 10**p = hi + lo exactly; hi >= 1e16 > 2**53 is an even integer, so
    hi + rint(lo) is the 17-digit integer, rounded half to even.  e comes
    from log10 and is fixed by exact compares of hi + lo with 1e16 and 1e17.
    The integer never rounds up to 10**17 here: no double in that range lies
    within 5e-18 (relative) below a power of ten.  The digits are laid out by
    %g's rules through _layouts; zero and -0 are laid out the same way.  Any
    other value (nan, inf, a subnormal, |v| < 1e-6 or >= 1e17) is written
    with "%.17g" % v.
    """
    pow10, group_digits, group_zeros, layout_source, layout_length = _tables()
    a = np.abs(x)
    ok = (a >= 1e-6) & (a < 1e17)  # false for nan; the exact compares settle the ends
    a = np.where(ok, a, 1.0)
    p = np.clip(16 - np.floor(np.log10(a)).astype(np.intp), 0, 22)
    hi, lo = _times_pow10(a, p, pow10)
    step = _outside(hi, lo)
    if step.any():  # log10 was one off, next to a power of ten
        p -= step
        ok &= (p >= 0) & (p <= 22)
        p = np.clip(p, 0, 22)
        hi, lo = _times_pow10(a, p, pow10)
        ok &= _outside(hi, lo) == 0
    n = np.where(ok, hi.astype(np.int64) + np.rint(lo).astype(np.int64), 0)
    exp = np.where(ok, 16 - p, 0)
    lead, rest = np.divmod(n, 10 ** 16)
    groups = []
    for scale in (10 ** 12, 10 ** 8, 10 ** 4):
        group, rest = np.divmod(rest, scale)
        groups.append(group)
    groups.append(rest)
    zeros = 0
    for group in groups:  # the trailing zeros of the 16 digits after the first
        zeros = group_zeros[group] + (group == 0) * zeros
    layout = (np.signbit(x) * 23 + exp + 6) * 17 + 16 - zeros
    source = np.empty((x.size, 8), np.uint32)
    for i, group in enumerate(groups, 1):
        source[:, i] = group_digits.take(group)
    source[:, 5:] = _EXPONENT_CHARS
    source = source.view(np.uint8)
    source.view(np.uint16)[:, 1] = _SIGN_POINT
    source[:, 0] = ord("0") + lead
    source[:, _END] = ends
    index = layout_source.take(layout, axis=0)
    length = layout_length.take(layout)
    for i in np.flatnonzero(~ok & (x != 0)):
        text = b"%.17g%c" % (x[i], ends[i])
        source[i, 4:4 + len(text)] = np.frombuffer(text, np.uint8)
        index[i] = 4 + _LAYOUT_COLUMNS
        length[i] = len(text)
    flat = np.repeat(np.arange(0, source.size, 32), length)
    flat += index[_LAYOUT_COLUMNS < length[:, None]]
    return source.ravel().take(flat).tobytes()


_CSV_BLOCK = 4096  # values per _format_floats call: see _write_csv


def _write_csv(path, header, rows):
    """The one CSV writer, and the one check of a CSV's numbers: the header
    line, then one line per row.

    Each cell's kind is its type: a str is text, joined in as it is; None
    is an empty cell; anything else is a float, or a 1D float array with a
    cell per value (a field's values at one time).  rows is read twice.
    First, the first value that is not finite, in row order, raises
    SolverError naming path and the value's column in header, and the file
    is not opened.  Then the floats go through _format_floats, which writes
    the bytes "%.17g" % v writes: exact 17-digit integers laid out by numpy
    for 1e-6 <= |v| < 1e17 and for zero, "%.17g" % v itself for the rare
    other value (a subnormal).  It takes _CSV_BLOCK values a call, a row
    wider than that over several calls: a whole field's text at once would
    sit next to the factorization that stays cached on ops.
    """
    for row in rows:
        column = 0
        for cell in row:
            if cell is None or isinstance(cell, str):
                column += 1
                continue
            values = np.ravel(cell)
            finite = np.isfinite(values)
            if not finite.all():
                bad = finite.argmin()
                name = header.split(",")[column + bad]
                raise SolverError(f"{path} not written: column {name} would hold "
                                  f"{values[bad]}")
            column += values.size
    block = np.empty(_CSV_BLOCK)
    ends = np.full(_CSV_BLOCK, ord(","), np.uint8)
    size = 0
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")

        def flush():
            nonlocal size
            fh.write(_format_floats(block[:size], ends[:size]))
            ends[:size] = ord(",")
            size = 0

        for row in rows:
            final = len(row) - 1
            for i, cell in enumerate(row):
                if cell is None or isinstance(cell, str):
                    if size:
                        flush()
                    fh.write((cell or "").encode() + (b"\n" if i == final else b","))
                    continue
                values, done = np.ravel(cell), 0
                while done < values.size:
                    if size == _CSV_BLOCK:
                        flush()
                    take = min(_CSV_BLOCK - size, values.size - done)
                    block[size:size + take] = values[done:done + take]
                    size, done = size + take, done + take
                if i == final:
                    ends[size - 1] = ord("\n")
        if size:
            flush()


def _trajectory_rows(grid, values):
    # a field's or a control's rows, one per time level: the step, written
    # as a float, whose %.17g is its %d, the time, then the values
    times = grid.times()
    return [(k, times[k], values[k]) for k in range(values.shape[0])]


def write_field_csv(path, grid, values):
    """A field: "step,time,n0,n1,...", a column per node."""
    _write_csv(path, "step,time," + ",".join(f"n{i}" for i in range(values.shape[1])),
               _trajectory_rows(grid, values))


def write_control_csv(path, grid, ops, values):
    """A boundary control: "step,time,g2n<i>,...", a column per GAMMA2 node."""
    _write_csv(path, "step,time," + ",".join(f"g2n{i}" for i in ops.gamma2_nodes),
               _trajectory_rows(grid, values))


def _write_json(path, data):
    """JSON, with the CSVs' rule for the numbers of data's top-level values
    and lists: the first one that is not finite raises SolverError naming
    path and its key, and the file is not opened."""
    for key, value in data.items():
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, float) and not np.isfinite(v):
                raise SolverError(f"{path} not written: column {key} would hold {v}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _worker_count(n_tasks):
    """How many processes _run_tasks runs n_tasks on: one per CPU this
    process may run on, and no more than there are tasks."""
    return min(len(os.sched_getaffinity(0)), n_tasks)


class _WorkerTraceback(Exception):
    """The traceback of a task that raised in a worker, formatted there: the
    __cause__ of the exception _run_tasks raises for it."""

    def __str__(self):
        return f'\n"""\n{self.args[0]}"""'


def _serve(conn, inherited, tasks):
    """A worker's loop: run the task of each index read from conn and send
    back (True, result, None), or (False, exception, its formatted
    traceback), until conn reads end of file."""
    import traceback
    from multiprocessing.pool import MaybeEncodingError

    for other in inherited:  # the caller's ends of the pipes: see _run_tasks
        other.close()
    while True:
        try:
            index = conn.recv()
        except EOFError:
            return
        try:
            result = (True, tasks[index](), None)
        except Exception as exc:
            result = (False, exc, "".join(traceback.format_exception(exc)))
        try:
            conn.send(result)
        except OSError:  # the caller is gone
            return
        except Exception as exc:  # the result or exception does not pickle
            conn.send((False, MaybeEncodingError(exc, result[1]), None))


def _run_tasks(tasks, order):
    """Run the zero-argument callables in tasks on _worker_count processes
    and return their results in task order.

    The tasks run in order, a permutation of the task indices (costliest
    first): in the caller with one CPU or one task, else handed out one at a
    time to forked workers, each over a pipe of its own.  The workers see
    what the caller built before the call, copy-on-write; only task indices
    and results are sent between processes.  A task that raises in a worker
    is raised here with its type, message and attributes, and the worker's
    traceback as its __cause__; one whose exception does not pickle raises
    MaybeEncodingError.  A worker that dies without its result raises
    RuntimeError at once.  On return every worker has been reaped: idle ones
    leave at the end of their pipe, busy ones (after an error) are
    terminated.  No lock is shared between processes, so a worker stopped
    at any point cannot stall the caller, as it can stall a
    multiprocessing.Pool terminated while the worker sends a result.
    """
    order = list(order)
    workers = _worker_count(len(tasks))
    if workers <= 1:
        results = {i: tasks[i]() for i in order}
    else:
        # forked, not spawned: the tasks are closures over the caller's
        # arrays, handed to each worker unpickled, and the caller runs no
        # other thread.  multiprocessing.pool (_serve's MaybeEncodingError
        # and traceback) is loaded once, here, for every worker
        import multiprocessing.connection
        import multiprocessing.pool  # noqa: F401

        context, pending, results = multiprocessing.get_context("fork"), iter(order), {}
        pool, busy = {}, {}  # the caller's end of each pipe -> its worker, task index
        try:
            for _ in range(workers):
                ours, theirs = context.Pipe()
                # each worker closes the caller's ends it inherits, so it
                # reads end of file once the caller closes its end or dies
                worker = context.Process(target=_serve,
                                         args=(theirs, [*pool, ours], tasks), daemon=True)
                worker.start()
                theirs.close()
                pool[ours] = worker
                busy[ours] = next(pending)
                ours.send(busy[ours])
            while busy:
                for conn in multiprocessing.connection.wait(list(busy)):
                    try:
                        ok, value, trace = conn.recv()
                    except EOFError:
                        pool[conn].join()
                        raise RuntimeError(f"a worker process exited with code "
                                           f"{pool[conn].exitcode} before the tasks "
                                           "were done") from None
                    if not ok:
                        raise value from (None if trace is None else _WorkerTraceback(trace))
                    results[busy.pop(conn)] = value
                    index = next(pending, None)
                    if index is not None:
                        busy[conn] = index
                        conn.send(index)
        finally:
            for conn, worker in pool.items():
                conn.close()
                if conn in busy:
                    worker.terminate()
            for worker in pool.values():
                worker.join()
    return [results[i] for i in range(len(tasks))]


def write_svg_lines(path, series, title, logx=False):
    """Minimal deterministic line plot, log y: fixed canvas, fixed palette."""
    width, height, pad = 640, 440, 60
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")

    def tf(vals, log):
        vals = np.asarray(vals, dtype=float)
        return np.log10(np.where(vals > 0, vals, np.nan)) if log else vals

    def span(vals):  # the range of the finite values, never empty
        vals = vals[np.isfinite(vals)]
        lo, hi = (float(vals.min()), float(vals.max())) if vals.size else (0, 1)
        return lo, hi if hi != lo else lo + 1.0

    x_lo, x_hi = span(np.concatenate([tf(x, logx) for _, x, _ in series]))
    y_lo, y_hi = span(np.concatenate([tf(y, True) for _, _, y in series]))

    def px(x):
        return pad + (x - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def py(y):
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width // 2}" y="24" text-anchor="middle" '
             f'font-size="14">{title}</text>',
             f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
             f'y2="{height - pad}" stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
             f'stroke="black"/>']
    for idx, (label, xs, ys) in enumerate(series):
        txs, tys = tf(xs, logx), tf(ys, True)
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(txs, tys)
                       if np.isfinite(a) and np.isfinite(b))
        color = colors[idx % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{color}" points="{pts}"/>')
        parts.append(f'<text x="{width - pad + 4}" y="{pad + 16 * idx + 10}" '
                     f'font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


_MESH_JSON_ROWS = 4096  # rows of elements or node_coords serialized at a time


def _mesh_json_pieces(mesh):
    """The mesh as one JSON object with sorted keys, the text json.dumps
    gives it, in pieces: boundary_facets as [nodes, tag] pairs, dim, then
    elements and node_coords as nested lists, a block of rows at a time, so
    neither is ever a whole Python list or string."""
    facets = [[list(f), t] for f, t in mesh.boundary_facets]
    yield f'{{"boundary_facets": {json.dumps(facets)}, "dim": {json.dumps(mesh.dim)}'
    for key in ("elements", "node_coords"):
        rows = getattr(mesh, key)
        yield f', "{key}": ['
        for start in range(0, rows.shape[0], _MESH_JSON_ROWS):
            text = json.dumps(rows[start:start + _MESH_JSON_ROWS].tolist())[1:-1]
            yield text if start == 0 else ", " + text
        yield "]"
    yield "}"


def _write_manifest(out_dir, command, problem, outputs, results, workers, wall_time):
    # serialized once, in pieces: mesh.json holds this text and the manifest
    # its hash
    mesh_hash = hashlib.sha256()
    with open(os.path.join(out_dir, "mesh.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        for piece in _mesh_json_pieces(problem.ops.mesh):
            fh.write(piece)
            mesh_hash.update(piece.encode())
        fh.write("\n")
    manifest = {
        "command": command,
        "config_path": problem.cfg.source,
        "config_text": problem.cfg.text,
        "mesh": {
            "dim": problem.ops.mesh.dim,
            "n_nodes": problem.ops.n_nodes,
            "hash": mesh_hash.hexdigest(),
            "file": "mesh.json",
        },
        "grid": {"t_final": problem.grid.t_final, "steps": problem.grid.n_steps},
        "constants": problem.ops.constants_read(),
        "blas_threads": _BLAS_THREADS,
        "workers": workers,
        "outputs": outputs,
        "results": results,
        "wall_time_s": wall_time,
    }
    # JSON has no nan or inf: a diagnostic that is not finite (a discriminant
    # that overflows, a rate fit that cannot scale) is written as null
    manifest = json.loads(json.dumps(manifest), parse_constant=lambda token: None)
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _check_command(cfg, command):
    """Before any operator is assembled: a [data] variant name that command
    does not run is a ConfigError at the variant line, and each key it
    requires must be present.  q = optimize, where q is read as a fixed flux,
    and decay's g_inf without q_inf or the reverse are ConfigErrors at the
    line of the key set."""
    _, variants, required = _COMMANDS[command]
    name = cfg.get("data", "variant", "dirichlet")
    if name not in variants:
        raise cfg.error("variant", f"{command} takes variant {' | '.join(variants)}, "
                                   f"got {name!r}")
    for section, key in required:
        cfg.require(section, key)
    if cfg.get("data", "q") == asymptotics.OPTIMIZE and (
            command in ("solve", "decay")
            or command == "optimize" and cfg.get("data", "control") == "distributed"):
        raise cfg.error("q", "q = optimize is read by sweep-alpha only")
    limits = [key for key in ("g_inf", "q_inf") if cfg.get("data", key) is not None]
    if command == "decay" and len(limits) == 1:
        raise cfg.error(limits[0], "forced decay needs both g_inf and q_inf")


def _cmd_solve(problem: Problem, out_dir):
    u = solve_parabolic(problem.ops, problem.spec, problem.q, problem.grid,
                        problem.variant_alpha)
    write_field_csv(os.path.join(out_dir, "u.csv"), problem.grid, u)
    return ["u.csv"], {
        "u_file": "u.csv", "final_max": float(np.max(u[-1])), "final_min": float(np.min(u[-1]))}, 1


def _cmd_optimize(problem: Problem, out_dir):
    ops, spec, grid = problem.ops, problem.spec, problem.grid
    alpha = problem.variant_alpha
    if problem.control == "boundary":
        res = optimal_control.optimize_boundary(ops, spec, grid, tol=problem.opt_tol,
                                                alpha=alpha)
    elif problem.control == "distributed":
        res = optimal_control.optimize_distributed(ops, spec, grid, problem.q,
                                                   tol=problem.opt_tol, alpha=alpha)
    else:
        res = optimal_control.optimize_simultaneous(ops, spec, grid,
                                                    tol=problem.opt_tol, alpha=alpha)
    files = {name: f"{name}.csv" for name in ("q_opt", "g_opt", "u_opt", "p_opt")
             if getattr(res, name) is not None}
    for name, file in files.items():
        path = os.path.join(out_dir, file)
        if name == "q_opt":  # a column per GAMMA2 node; a field has one per node
            write_control_csv(path, grid, ops, res.q_opt)
        else:
            write_field_csv(path, grid, getattr(res, name))
    summary = {
        "control": problem.control,
        "variant": problem.variant,
        "cost": res.cost,
        "optimality_residual": res.optimality_residual,
        "iterations": res.iterations,
        "converged": res.converged,
        "cost_history": res.cost_history,
        "residual_history": res.residual_history,
        "files": files,
    }
    _write_json(os.path.join(out_dir, "result.json"), summary)
    if not res.converged:
        raise SolverError(f"optimizer did not converge within the iteration cap "
                          f"(residual {res.optimality_residual:.3e})")
    return [*files.values(), "result.json"], summary, 1


def _cmd_lambda(problem: Problem, out_dir):
    # lambda.csv calls the default variant, dirichlet, by its problem kind
    variant = problem.variant if problem.variant != "dirichlet" else problem.kind
    coeffs = scalar_control.scalar_optimum(problem.ops, problem.spec, problem.q0,
                                           problem.grid, problem.kind,
                                           problem.variant_alpha)
    results = {"variant": variant, "A": coeffs.quadratic, "B": coeffs.linear,
               "C": coeffs.constant, "lambda_opt": coeffs.lambda_opt,
               "H_opt": coeffs.value(coeffs.lambda_opt)}
    _write_csv(os.path.join(out_dir, "lambda.csv"), ",".join(results),
               [tuple(results.values())])
    results["discriminant"] = coeffs.discriminant
    return ["lambda.csv"], results, 1


def _cmd_sweep_alpha(problem: Problem, out_dir):
    rows = asymptotics.alpha_sweep(problem.ops, problem.spec, problem.grid,
                                   problem.alphas, q=problem.q, tol=problem.opt_tol)
    # err_control is None, an empty cell, for a fixed flux
    _write_csv(os.path.join(out_dir, "sweep.csv"),
               "alpha,err_state,err_adjoint,err_control,boundary_mismatch,converged",
               [(r.alpha, r.err_state, r.err_adjoint, r.err_control, r.boundary_mismatch,
                 "true" if r.converged else "false") for r in rows])
    outputs = ["sweep.csv"]
    if problem.plots:
        series = [("err_state", [r.alpha for r in rows], [r.err_state for r in rows]),
                  ("err_adjoint", [r.alpha for r in rows], [r.err_adjoint for r in rows])]
        if rows and rows[0].err_control is not None:
            series.append(("err_control", [r.alpha for r in rows],
                           [r.err_control for r in rows]))
        # a plot draws only the finite points: nothing to check
        write_svg_lines(os.path.join(out_dir, "sweep.svg"), series,
                        "transfer-coefficient sweep", logx=True)
        outputs.append("sweep.svg")
    if any(not r.converged for r in rows):
        raise SolverError("one or more sweep rows did not converge")
    return outputs, {"rows": len(rows)}, 1


def _cmd_decay(problem: Problem, out_dir):
    # _check_command has rejected g_inf without q_inf and the reverse
    forced = problem.g_inf is not None
    if forced:
        result = asymptotics.decay_with_forcing(problem.ops, problem.spec, problem.q,
                                                problem.grid, problem.g_inf,
                                                problem.q_inf)
    else:
        result = asymptotics.decay_study(problem.ops, problem.spec, problem.q,
                                         problem.grid)
    rows = result.rows
    _write_csv(os.path.join(out_dir, "decay.csv"), "t,err_H,bound,ratio",
               [(r.t, r.err_h, r.bound, r.ratio) for r in rows])
    outputs = ["decay.csv"]
    if problem.plots:
        write_svg_lines(os.path.join(out_dir, "decay.svg"),
                        [("err_H", [r.t for r in rows], [r.err_h for r in rows]),
                         ("bound", [r.t for r in rows], [r.bound for r in rows])],
                        "decay toward the steady state")
        outputs.append("decay.svg")
    return outputs, {"fitted_rate": result.fitted_rate,
                     "coercivity": result.coercivity,
                     "forced": forced}, 1


def _verify_battery(problem: Problem):
    """The properties.table entries run on problem, as (name, passed, worst
    observed value) dicts in table order.  The cached values are computed
    first, then _run_tasks runs the table, last entry first: the optimizer
    and the marching properties cost most, the first entries least."""
    properties.prepare(problem)
    entries = properties.table(problem)
    outcomes = _run_tasks([check for _, check in entries], reversed(range(len(entries))))
    return [{"name": name, "passed": bool(passed), "detail": float(detail)}
            for (name, _), (passed, detail) in zip(entries, outcomes)]


def _cmd_verify(problem: Problem, out_dir):
    checks = _verify_battery(problem)
    results = {"properties": checks, "all_passed": all(c["passed"] for c in checks)}
    return [], results, _worker_count(len(checks))


# command -> (runner, the [data] variant names it runs, the (section, key) pairs
# it requires); sweep-alpha and verify take any name another command runs
_BOUNDARY = ("dirichlet", "robin")
_SCALAR = ("dirichlet", "parabolic", "parabolic_robin", "elliptic", "elliptic_robin")
_ANY = _BOUNDARY + _SCALAR[1:]
_COMMANDS = {
    "solve": (_cmd_solve, _BOUNDARY, ()),
    "optimize": (_cmd_optimize, _BOUNDARY, ()),
    "lambda": (_cmd_lambda, _SCALAR, (("data", "q0"),)),
    "sweep-alpha": (_cmd_sweep_alpha, _ANY, (("weights", "alphas"), ("data", "q"))),
    "decay": (_cmd_decay, ("dirichlet",), (("data", "q"),)),
    "verify": (_cmd_verify, _ANY, ()),
}
COMMANDS = tuple(_COMMANDS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="parctrl",
        description="boundary optimal control of mixed heat-conduction problems")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True,
                        help="run configuration (or a manifest.json to re-run)")
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    try:
        cfg = load_config(args.config)
        # a nan or an inf is not warned of but refused by the file's writer;
        # verify's forked workers inherit this state
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            _check_command(cfg, args.command)
            problem = build_problem(cfg)
            try:
                os.makedirs(args.out, exist_ok=True)
            except OSError as exc:
                print(f"error: cannot create output directory {args.out}: "
                      f"{exc.strerror or exc}", file=sys.stderr)
                return EXIT_VALIDATION
            outputs, results, workers = _COMMANDS[args.command][0](problem, args.out)
        _write_manifest(args.out, args.command, problem, outputs, results, workers,
                        time.perf_counter() - t0)
    except InputError as exc:  # cited at the line that sets the input it names
        print(f"error: {cfg.error(exc.key, str(exc))}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {args.config}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except OSError as exc:
        if exc.filename is None:  # not an output file: a failed fork, say
            raise
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.command == "verify":
        for c in results["properties"]:
            status = "pass" if c["passed"] else "FAIL"
            print(f"{status}  {c['name']}  ({c['detail']:.3e})")
        if not results["all_passed"]:
            failed = [c["name"] for c in results["properties"] if not c["passed"]]
            print(f"verify failed: {', '.join(failed)}", file=sys.stderr)
            return EXIT_VERIFY_FAILED
        print("verify: all properties passed")
    else:
        print(f"{args.command}: wrote {', '.join(outputs) or 'manifest only'} "
              f"to {args.out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
