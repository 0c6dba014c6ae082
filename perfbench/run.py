"""parctrl benchmark: fresh CLI processes, one at a time, from one parent process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from any directory of a checkout; the CLI is imported from ``src/``.
The seed picks the data levels of the generated configs (see workloads.py).
A run repeats rounds until the next one would end after ``--seconds``, with
at least two rounds untraced and one traced:

* ``--trace 0``: a round is one timed pass of the workload's invocations
  plus one set-up probe per distinct config.  It reports the end-to-end
  metrics, each the median over rounds.
* ``--trace 1``: a round is one untraced and one traced pass, in
  alternating order.  It reports the per-layer metrics (medians over traced
  passes) and ``trace_overhead``, the traced over the untraced median pass
  wall time.

Every invocation's outputs are checked (checks.py).  Human-readable lines,
the environment and the seed go to standard output and to a JSON file under
``perfbench/results/``; the last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, stats, tracing  # noqa: E402
from perfbench.workloads import ALPHAS, WORKLOADS, draw_levels, write_configs  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# counts that a pure speed change leaves fixed
FIXED_COUNTS = ("fem_core.n_nodes", "fem_core.factorize_count", "fem_core.cg_path_count",
                "state_solvers.stepper_init_count", "state_solvers.distinct_systems",
                "state_solvers.march_count", "state_solvers.steps_marched",
                "adjoint_solvers.march_count", "optimal_control.cg_iterations",
                "cli.csv_bytes")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "PARCTRL_THREADS")

MIN_ROUNDS = {0: 2, 1: 1}
# no new round starts after this; a child still running at the deadline is killed
LAST_ROUND_S = 120.0
DEADLINE_S = 165.0


@dataclass
class Proc:
    returncode: int
    wall: float
    cpu: float
    rss_mb: float


@dataclass
class Pass:
    wall: float
    cpu: float
    rss_mb: float
    layers: list = field(default_factory=list)   # raw totals per invocation


class Runner:
    def __init__(self, workload, seed, work: Path):
        self.workload = workload
        self.work = work
        self.started = time.perf_counter()
        self.config_paths = write_configs(workload, seed, work / "configs")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.ledger = checks.HashLedger()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.warnings = []
        self.missing = set()
        self.passes = 0

    def spawn(self, args, stdout_path: Path) -> Proc:
        """Run one child to completion; wall, CPU and max RSS come from wait4."""
        with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.work, env=self.env,
                                    stdout=out, stderr=err)
            remaining = self.started + DEADLINE_S - t0
            timer = threading.Timer(max(remaining, 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: stop the child before leaving
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0)

    def fail(self, where, problems, err_path=None):
        tail = ""
        if err_path is not None and err_path.exists():
            lines = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
            tail = f" | stderr: {lines[-1]}" if lines else ""
        self.failed += 1
        self.failures.append(f"{where}: {'; '.join(problems)}{tail}")

    def run_pass(self, traced: bool) -> Pass:
        self.passes += 1
        pass_dir = self.work / f"pass{self.passes}"
        pass_dir.mkdir()
        procs = []
        t0 = time.perf_counter()
        for i, (command, cfg) in enumerate(self.workload.invocations):
            argv = [command, "--config", str(self.config_paths[cfg]),
                    "--out", str(pass_dir / f"out{i}")]
            if traced:
                args = ["-m", "perfbench.traced_cli", str(pass_dir / f"{i}.spans.json"), *argv]
            else:
                args = ["-m", "parctrl.cli", *argv]
            procs.append(self.spawn(args, pass_dir / f"{i}.out"))
        result = Pass(wall=time.perf_counter() - t0, cpu=sum(p.cpu for p in procs),
                      rss_mb=max(p.rss_mb for p in procs))

        for i, ((command, cfg), proc) in enumerate(zip(self.workload.invocations, procs)):
            self.attempted += 1
            spec = self.workload.configs[cfg]
            stdout = (pass_dir / f"{i}.out").read_text(encoding="utf-8", errors="replace")
            problems, hashes = checks.check_invocation(
                command, spec.control, spec.steps, len(ALPHAS), proc.returncode,
                stdout, pass_dir / f"out{i}")
            problems += self.ledger.compare(i, hashes)
            if problems:
                self.fail(f"pass {self.passes} {'traced ' if traced else ''}{command} "
                          f"({cfg})", problems, pass_dir / f"{i}.err")
            if traced:
                try:
                    trace = json.loads((pass_dir / f"{i}.spans.json").read_text(encoding="utf-8"))
                except (OSError, ValueError):
                    trace = {"spans": [], "missing": []}
                self.missing.update(trace["missing"])
                result.layers.append(tracing.invocation_totals(trace["spans"]))
        shutil.rmtree(pass_dir)
        return result

    def probe(self, arg) -> Proc:
        """Set-up probe for a config name, or "--env" for import and versions only."""
        path = self.config_paths.get(arg, arg)
        out = self.work / f"probe{arg}.out"
        proc = self.spawn(["-m", "perfbench.setup_probe", str(path)], out)
        self.attempted += 1
        if proc.returncode != 0:
            self.fail(f"set-up probe {arg}", [f"exit code {proc.returncode}"],
                      out.with_suffix(".err"))
        return proc

    def setup_sample(self) -> float:
        """One probe per distinct config; the sample sums, over the pass's
        invocations, the probe time of each invocation's config."""
        times = {cfg: self.probe(cfg).wall for cfg in self.config_paths}
        return sum(times[cfg] for _, cfg in self.workload.invocations)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started


def environment(probe_json: Path) -> dict:
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or None,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": None,
        "git_dirty": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), env["cpu_model"])
    except OSError:
        pass
    try:
        env.update(json.loads(probe_json.read_text(encoding="utf-8").strip().splitlines()[-1]))
    except (OSError, ValueError, IndexError):
        pass
    # a checkout that is not a repository must not report an enclosing one
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                              capture_output=True, text=True, timeout=20)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, env=git_env,
                                capture_output=True, text=True, timeout=20)
        if head.returncode == 0 and status.returncode == 0:
            env["git_commit"] = head.stdout.strip()
            env["git_dirty"] = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    return env


def measure(runner: Runner, trace: int, seconds: float) -> tuple[dict, dict]:
    """Rounds until the next one would end after `seconds`; returns
    (metric -> value, metric -> summary of its samples)."""
    untraced, traced, setup = [], [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        if not trace:
            untraced.append(runner.run_pass(traced=False))
            setup.append(runner.setup_sample())
        else:  # alternate which pass goes first
            for traced_first in ((False, True) if rounds % 2 else (True, False)):
                (traced if traced_first else untraced).append(runner.run_pass(traced_first))
        rounds += 1
        elapsed = time.perf_counter() - start
        if runner.elapsed() > LAST_ROUND_S or (
                rounds >= MIN_ROUNDS[trace] and elapsed * (rounds + 1) / rounds > seconds):
            break

    if not trace:
        samples = {"wall_s": [p.wall for p in untraced], "setup_s": setup,
                   "cpu_s": [p.cpu for p in untraced],
                   "peak_rss_mb": [p.rss_mb for p in untraced]}
    else:
        per_pass = [tracing.pass_metrics(p.layers) for p in traced]
        samples = {name: [m[name] for m in per_pass] for name in per_pass[0]}
        samples["trace.traced_wall_s"] = [p.wall for p in traced]
        samples["trace.untraced_wall_s"] = [p.wall for p in untraced]
    summaries = {name: stats.summary(vals) for name, vals in samples.items()}
    values = {name: s["median"] for name, s in summaries.items()}
    if trace:
        values["trace_overhead"] = values["trace.traced_wall_s"] / values["trace.untraced_wall_s"]
        for name in FIXED_COUNTS:
            if len(set(samples[name])) > 1:
                runner.warnings.append(f"count {name} varied across passes: {samples[name]}")
    return values, summaries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "parctrl" / "cli.py").is_file():
        print(f"error: no parctrl sources under {ROOT / 'src'}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2

    # a terminated run still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    work = ROOT / "perfbench" / "_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = Runner(workload, args.seed, work)
        # untimed warm-up: compiles bytecode, fills the file cache, reads versions
        runner.probe("--env")
        if runner.failures:
            print("error: " + "; ".join(runner.failures), file=sys.stderr)
            return 2
        env = environment(work / "probe--env.out")
        runner.attempted = 0
        values, summaries = measure(runner, args.trace, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's work directory is still there
            pass

    table = ({name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
             if args.trace else END_TO_END)
    failed = runner.failed
    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "levels": draw_levels(args.seed), "environment": env,
        "attempted": runner.attempted, "failed": failed,
        "fail_ratio": failed / runner.attempted if runner.attempted else 1.0,
        "failures": runner.failures, "warnings": runner.warnings,
        "missing_entry_points": sorted(runner.missing), "samples": summaries,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table.items()},
    }
    results = ROOT / "perfbench" / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    out_path = results / (f"{workload.name}-seed{args.seed}-trace{args.trace}"
                          f"-{stamp}-{os.getpid()}.json")
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} levels={report['levels']}")
    print(f"  env: python {env['python']}, numpy {env.get('numpy')}, scipy {env.get('scipy')}, "
          f"blas {env.get('blas', {}).get('name')} {env.get('blas', {}).get('version')}, "
          f"nproc {env['nproc']}, cpu {env['cpu_model']!r}, git {env['git_commit']} "
          f"dirty={env['git_dirty']}, threads {env['thread_env']}")
    for name, unit in table.items():
        s = summaries.get(name)
        detail = ""
        if s:
            spread = "-" if s["spread"] is None else f"{s['spread']:.3g}"
            detail = f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {spread}  n={s['n']}"
        print(f"  {name:36s} {values[name]:.6g} {unit}{detail}")
    print(f"  fail_ratio {failed}/{runner.attempted} = {report['fail_ratio']:.3g}")
    if args.trace:
        print(f"  missing entry points: {', '.join(sorted(runner.missing)) or 'none'}")
    for failure in runner.failures:
        print(f"  FAIL {failure}")
    for warning in runner.warnings:
        print(f"  WARNING {warning}")
    print(f"  results: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
