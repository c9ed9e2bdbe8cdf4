"""Benchmark of the ``tic-contracts`` command line, end to end and per layer.

Usage (from anywhere; paths are resolved from this file):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a fixed list of ``python -m tic_contracts.cli`` jobs, run one
after another from this process: a closed loop with one client.  Every job
starts a fresh interpreter, so the import cost a user pays is counted, and
each child is reaped with ``os.wait4`` so that its CPU time and peak RSS are
its own.  The workload seed is passed to the jobs that take one (``verify``
and ``check-constraint``); every other input is a JSON config under
``perfbench/configs``.

``--trace 0`` measures the end-to-end metrics.  The job list runs as whole
passes: at least ``MIN_PASSES``, and more while the passes, the next one at
the length of the last, still take at most ``--seconds`` in all.  Each pass
also starts ``SETUP_PER_PASS`` fresh processes that only run ``import
tic_contracts.cli``, spread over the pass, and before every child process
this process times ``REFERENCE_PER_SPAWN`` samples of a fixed piece of
reference work.  ``setup_s`` is the mean import time, and ``wall_s`` the
sum over jobs of each job's mean wall time, spawn to exit.  Both are scaled
by ``REFERENCE_S`` over the reference work's mean time in the same run: on
a shared host the speed of the moment drifts by a third over minutes, and
the scaling takes that drift out.  The unscaled figures are in the details
line.
``peak_rss_mb`` is the largest peak RSS of any job.  ``pass_ratio`` is the
share of operations (jobs and robustness probes) that passed their output
checks; the probes reproduce open defects and run outside the timed passes.

``--trace 1`` gives the per-layer metrics.  The job list runs
``TRACE_PAIRS`` times, each job once untraced and once under
``perfbench/trace.py``, which wraps the layer functions inside the job's
own process.  Layer figures come from the first traced pass.  The tracing
overhead is the sum over jobs of the fastest traced CPU time minus the
fastest untraced one, and the outputs of traced and untraced runs must
match byte for byte.

Every job's outputs are checked: the exit code, no traceback on stderr,
strict JSON (no NaN or Infinity), agreement within 1e-9 with the reference
outputs in ``perfbench/reference.json``, and identical bytes whenever a job
runs more than once with the same seed.  The last line of stdout is the
result object; the line before it holds the details (machine facts, sample
counts, per-job records and probe outcomes).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = BENCH / "configs"
OUTPUT = ROOT / ".perfbench"

SETUP_PER_PASS = 2  # fresh ``import tic_contracts.cli`` processes in each pass
REFERENCE_PER_SPAWN = 3  # reference samples taken before each child process
IMPORTTIME_SAMPLES = 3
MIN_PASSES = 2
TRACE_PAIRS = 2
JOB_TIMEOUT_S = 120.0
VALUE_TOL = 1e-9
STDERR_TAIL = 400

# wall_s and setup_s are scaled to a host on which reference_work takes
# REFERENCE_S; see measure_end_to_end.
REFERENCE_S = 0.05
_REFERENCE_DATA = np.random.default_rng(0).standard_normal(1_000_000)


def reference_work():
    """Time a fixed piece of work that does not use tic_contracts.

    numpy sorts and an exponential over an 8 MB array, run in this process
    between the jobs.  Array work of this kind slows with the host as the
    jobs and the imports do; a pure Python loop follows the numpy-bound
    verify job less well.
    """
    start = time.perf_counter()
    for _ in range(4):
        np.sort(_REFERENCE_DATA)
    np.exp(_REFERENCE_DATA).sum()
    return time.perf_counter() - start


SOLVE_CONFIGS = ("separable_hyp04", "discounted_income", "first_best_nonseparable")
FIGURE_ARGS = ("figures", "--steps", "151")
FIGURE_PANELS = ("effort_left.csv", "effort_center.csv", "effort_right.csv")

WORKLOADS = ("solve_sweep", "verify_mc", "volterra_check")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
)

PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.import_scipy_s", "s"),
    ("cli.cpu_s", "s"),
    ("cli.jobs", "count"),
    ("cli.jobs_failed", "count"),
    ("closed_form.solve.calls", "count"),
    ("closed_form.solve.self_s", "s"),
    ("closed_form.z_argmax.calls", "count"),
    ("closed_form.z_argmax.self_s", "s"),
    ("closed_form.objective_evals", "count"),
    ("hamiltonian.stars_on_grid.calls", "count"),
    ("hamiltonian.stars_on_grid.points", "count"),
    ("hamiltonian.stars_on_grid.self_s", "s"),
    ("hamiltonian.maximize.calls", "count"),
    ("hamiltonian.maximize.self_s", "s"),
    ("hamiltonian.search_max.calls", "count"),
    ("discounting.calls", "count"),
    ("discounting.points", "count"),
    ("discounting.self_s", "s"),
    ("dynamics.simulate.calls", "count"),
    ("dynamics.simulate.path_steps", "count"),
    ("dynamics.simulate.self_s", "s"),
    ("dynamics.simulate.bytes", "bytes_computed"),
    ("dynamics.path_steps_per_s", "1/s"),
    ("dynamics.contract_payoff.calls", "count"),
    ("dynamics.contract_payoff.self_s", "s"),
    ("dynamics.payoff_reuse", "ratio"),
    ("dynamics.verify_contract.self_s", "s"),
    ("dynamics.spike_deviation_check.calls", "count"),
    ("dynamics.spike_deviation_check.self_s", "s"),
    ("fsvie.picard_solve.calls", "count"),
    ("fsvie.picard_solve.self_s", "s"),
    ("fsvie.picard_sweeps", "count"),
    ("fsvie.field_bytes", "bytes_computed"),
    ("fsvie.target_constraint_residual.self_s", "s"),
    ("trace_overhead_s", "s"),
)

# counts that must repeat exactly between traced runs (checked by report.py)
EXACT_COUNTS = (
    "closed_form.z_argmax.calls", "hamiltonian.stars_on_grid.calls",
    "dynamics.contract_payoff.calls", "fsvie.picard_sweeps",
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# -- output checks ----------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json(path):
    """Parse a JSON file, rejecting NaN and Infinity."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def _reference():
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def _compare(label, got, want, problems):
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{label}: length differs from the reference")
            return
        worst = max((abs(g - w) for g, w in zip(got, want)), default=0.0)
    else:
        worst = abs(got - want)
    if not worst <= VALUE_TOL:
        problems.append(f"{label}: differs from the reference by {worst:.3e}")


def check_solution(config):
    def check(run, outputs, reference):
        problems = []
        if run.rc != 0:
            return [f"exit code {run.rc}, expected 0"]
        sol = outputs["solution.json"]
        want = reference["solve"][config]
        for key in ("constant_term", "value_principal", "value_agent"):
            _compare(key, sol[key], want[key], problems)
        _compare("z_star", sol["z_star"]["values"], want["z_star"], problems)
        _compare("loading", sol["loading"]["values"], want["loading"], problems)
        return problems
    return check


def _read_csv_columns(path):
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    return {name: [float(row[i]) for row in rows[1:]] for i, name in enumerate(rows[0])}


def check_figures(run, outputs, reference):
    if run.rc != 0:
        return [f"exit code {run.rc}, expected 0"]
    problems = []
    for panel in FIGURE_PANELS:
        if panel not in outputs:
            problems.append(f"{panel} missing")
            continue
        columns = outputs[panel]
        for name, want in reference["figures"][panel].items():
            if name not in columns:
                problems.append(f"{panel}: column {name} missing")
            else:
                _compare(f"{panel}:{name}", columns[name], want, problems)
    return problems


def check_verify(config):
    def check(run, outputs, reference):
        report = outputs.get("report.json")
        if report is None:
            return [f"exit code {run.rc} and no report.json"]
        problems = []
        # the 3-standard-error verdict is statistical: exit 3 is legitimate
        # when the report says so, and the bench checks the estimates at 5
        expected = 0 if report["pass"] else 3
        if run.rc != expected:
            problems.append(f"exit code {run.rc}, report implies {expected}")
        want = reference["solve"][config]
        _compare("principal_value.target", report["principal_value"]["target"],
                 want["value_principal"], problems)
        _compare("participation.target", report["participation"]["target"],
                 want["value_agent"], problems)
        for key in ("participation", "principal_value"):
            row = report[key]
            if not abs(row["mean"] - row["target"]) <= 5.0 * row["se"]:
                problems.append(f"{key}: mean {row['mean']} is over 5 se from the target")
        if not report["delta_residuals"] or not report["spike_tests"]:
            problems.append("correction-identity or spike checks missing")
        for row in report["delta_residuals"] + report["spike_tests"]:
            if not row["pass"]:
                problems.append(f"deterministic check failed: {row}")
        return problems
    return check


def check_constraint(paths, should_pass):
    def check(run, outputs, reference):
        report = outputs.get("constraint.json")
        if report is None:
            return [f"exit code {run.rc} and no constraint.json"]
        problems = []
        expected = 0 if should_pass else 3
        if run.rc != expected:
            problems.append(f"exit code {run.rc}, expected {expected}")
        below = report["residual"] < report["threshold"]
        if below != should_pass or report["pass"] != should_pass:
            problems.append(f"residual {report['residual']} against threshold "
                            f"{report['threshold']}: pass={report['pass']}")
        if len(report["per_path"]) != paths:
            problems.append(f"{len(report['per_path'])} paths reported, expected {paths}")
        return problems
    return check


def check_robust(run, outputs, reference):
    """A probe passes when the CLI keeps its contract on a bad input."""
    if run.rc not in (0, 1, 2, 3):
        return [f"undocumented exit code {run.rc}"]
    return []


# -- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    name: str
    args: tuple
    check: Callable


def _cfg(name):
    return str(CONFIGS / f"{name}.json")


def workload_jobs(workload, seed):
    """(timed jobs, robustness probes) of one workload."""
    s = ("--seed", str(seed))
    if workload == "solve_sweep":
        jobs = [Job(f"solve:{c}", ("solve", "--config", _cfg(c)), check_solution(c))
                for c in SOLVE_CONFIGS]
        jobs.append(Job("figures", FIGURE_ARGS, check_figures))
        probes = [Job("probe:solve_nan_x0", ("solve", "--config", _cfg("probe_nan_x0")),
                      check_robust)]
    elif workload == "verify_mc":
        jobs = [Job("verify:separable_hyp04",
                    ("verify", "--config", _cfg("separable_hyp04"), "--paths", "50000",
                     "--threads", "1") + s,
                    check_verify("separable_hyp04"))]
        probes = [Job("probe:verify_hyp4_paths1000",
                      ("verify", "--config", _cfg("probe_hyp4"), "--paths", "1000",
                       "--threads", "1") + s, check_robust)]
    elif workload == "volterra_check":
        jobs = [
            Job("check:optimal_3000x2",
                ("check-constraint", "--config", _cfg("separable_hyp04"),
                 "--steps", "3000", "--paths", "2") + s, check_constraint(2, True)),
            Job("check:s_constant_1000x3",
                ("check-constraint", "--config", _cfg("s_constant_hyp04"),
                 "--steps", "1000") + s, check_constraint(3, False)),
        ]
        probes = [Job("probe:check_hyp4_paths1",
                      ("check-constraint", "--config", _cfg("probe_hyp4"),
                       "--paths", "1") + s, check_robust)]
    else:
        raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return jobs, probes


# -- running children ---------------------------------------------------------


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("TIC_CONTRACTS_THREADS", None)
    return env


@dataclass
class Run:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    rc: int
    stderr: str


def spawn(cmd, workdir, env):
    """Run cmd to completion; wall time is spawn to exit, usage is the child's own."""
    with open(workdir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
               rss_mb=usage.ru_maxrss / 1024.0, rc=proc.returncode,
               stderr=(workdir / "stderr.txt").read_text(errors="replace"))


@dataclass
class Execution:
    job: str
    run: Run
    problems: list
    digests: dict
    trace: dict = field(default=None, repr=False)

    @property
    def ok(self):
        return not self.problems

    def record(self):
        return {"job": self.job, "wall_s": self.run.wall_s, "cpu_s": self.run.cpu_s,
                "rss_mb": self.run.rss_mb, "rc": self.run.rc, "problems": self.problems,
                "stderr_tail": self.run.stderr[-STDERR_TAIL:]}


class Runner:
    """Runs jobs in fresh directories under one work area and checks them."""

    def __init__(self, workdir, reference):
        self.workdir = workdir
        self.reference = reference
        self.env = _child_env()
        self.count = 0

    def _fresh_dir(self, name):
        self.count += 1
        path = self.workdir / f"{self.count:04d}-{name.replace(':', '_')}"
        (path / "out").mkdir(parents=True)
        return path

    def execute(self, job, traced=False):
        path = self._fresh_dir(job.name)
        out = path / "out"
        if traced:
            cmd = [sys.executable, str(BENCH / "trace.py"), str(path / "trace.json")]
        else:
            cmd = [sys.executable, "-m", "tic_contracts.cli"]
        run = spawn(cmd + list(job.args) + ["--out", str(out)], path, self.env)
        problems, outputs, digests = [], {}, {}
        if "Traceback" in run.stderr:
            problems.append("traceback on stderr")
        for item in sorted(out.iterdir()):
            digests[item.name] = hashlib.sha256(item.read_bytes()).hexdigest()
            try:
                if item.suffix == ".json":
                    outputs[item.name] = strict_json(item)
                elif item.suffix == ".csv":
                    outputs[item.name] = _read_csv_columns(item)
            except ValueError as exc:
                problems.append(f"{item.name}: {exc}")
        if not problems:
            try:
                problems += job.check(run, outputs, self.reference)
            except (KeyError, TypeError, ValueError) as exc:
                problems.append(f"unexpected output: {exc!r}")
        trace = None
        if traced:
            try:
                trace = strict_json(path / "trace.json")
            except (OSError, ValueError) as exc:
                problems.append(f"trace missing: {exc}")
        shutil.rmtree(path)
        return Execution(job.name, run, problems, digests, trace)

    def python(self, *args):
        path = self._fresh_dir("python")
        run = spawn([sys.executable, *args], path, self.env)
        shutil.rmtree(path)
        if run.rc != 0:
            raise BenchError(f"python {' '.join(args)} exited {run.rc}: "
                             f"{run.stderr[-STDERR_TAIL:]}")
        return run


def check_repeats(executions):
    """Flag executions of one job whose output bytes differ from its first."""
    first = executions[0].digests
    for ex in executions[1:]:
        if ex.digests != first:
            ex.problems.append("output bytes differ between runs with the same seed")


# -- metrics ------------------------------------------------------------------


def _importtime_tree(text):
    """Parse ``-X importtime`` output into (name, cumulative_us, children) roots."""
    stack = []  # (depth, node) of nodes still waiting for their parent
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        children = []
        while stack and stack[-1][0] > depth:
            children.insert(0, stack.pop()[1])
        stack.append((depth, (name.strip(), int(cumulative), children)))
    return [node for _, node in stack]


def _outermost_us(nodes, package):
    """Cumulative import microseconds of the outermost modules of a package."""
    total = 0
    for name, cumulative, children in nodes:
        if name == package or name.startswith(package + "."):
            total += cumulative
        else:
            total += _outermost_us(children, package)
    return total


def import_breakdown(runner):
    cli_s, scipy_s = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        run = runner.python("-X", "importtime", "-c", "import tic_contracts.cli")
        tree = _importtime_tree(run.stderr)
        cli_s.append(_outermost_us(tree, "tic_contracts") / 1e6)
        scipy_s.append(_outermost_us(tree, "scipy") / 1e6)
    return statistics.median(cli_s), statistics.median(scipy_s)


def layer_metrics(traced, overall):
    """Per-layer metrics from one traced pass; overall holds the cli.* and overhead figures."""
    timers, counts = {}, {}
    for ex in traced:
        if ex.trace is None:
            continue
        for name, stat in ex.trace["timers"].items():
            acc = timers.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += stat["calls"]
            acc["self_s"] += stat["self_s"]
        for name, amount in ex.trace["counts"].items():
            counts[name] = counts.get(name, 0) + amount

    def calls(name):
        return timers.get(name, {}).get("calls", 0)

    def self_s(name):
        return timers.get(name, {}).get("self_s", 0.0)

    simulate_s = self_s("dynamics.simulate")
    path_steps = counts.get("dynamics.simulate.path_steps", 0)
    payoffs = calls("dynamics.contract_payoff")
    values = dict(overall)
    values.update({
        # computed from the simulated shape (float64 increments), not measured
        "dynamics.simulate.bytes": 8 * path_steps,
        "dynamics.path_steps_per_s": path_steps / simulate_s if simulate_s > 0 else 0.0,
        "dynamics.payoff_reuse": calls("dynamics.simulate") / payoffs if payoffs else 0.0,
    })
    # the rest are a layer's calls or self time, or a count its wrapper kept
    # (fsvie.field_bytes is computed from the returned field's array size)
    for name, _unit in PER_LAYER:
        if name in values:
            continue
        layer, suffix = name.rsplit(".", 1)
        if suffix == "calls":
            values[name] = calls(layer)
        elif suffix == "self_s":
            values[name] = self_s(layer)
        else:
            values[name] = counts.get(name, 0)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# -- machine facts ------------------------------------------------------------


def _cache_sizes():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def machine_facts():
    caches = _cache_sizes()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
    }


# -- the two modes ------------------------------------------------------------


def _per_job(passes, attr, statistic):
    """Per job, a statistic of a Run attribute over passes of the job list."""
    return [statistic([getattr(ex.run, attr) for ex in runs]) for runs in zip(*passes)]


def measure_end_to_end(runner, jobs, probes, seconds):
    # The host's speed changes from second to second and drifts over
    # minutes.  The reference work is timed before every child process, so
    # its mean over the run sees the same host as the jobs' and set-up's
    # means, and dividing by it takes the drift out.  Set-up samples are
    # spread over the pass, before the first jobs.
    setup_before = [len(range(k, SETUP_PER_PASS, len(jobs))) for k in range(len(jobs))]
    runner.python("-c", "import tic_contracts.cli")  # fill the bytecode cache
    setup, reference, passes, spent, last = [], [], [], 0.0, 0.0

    def sampled(spawn_child):
        reference.extend(reference_work() for _ in range(REFERENCE_PER_SPAWN))
        return spawn_child()

    while len(passes) < MIN_PASSES or spent + last <= seconds:
        begun = time.perf_counter()
        one_pass = []
        for job, setups in zip(jobs, setup_before):
            for _ in range(setups):
                setup.append(sampled(
                    lambda: runner.python("-c", "import tic_contracts.cli")).wall_s)
            one_pass.append(sampled(lambda: runner.execute(job)))
        passes.append(one_pass)
        last = time.perf_counter() - begun
        spent += last
    for runs in zip(*passes):
        check_repeats(runs)
    probe_runs = [runner.execute(probe) for probe in probes]

    timed = [ex for one_pass in passes for ex in one_pass]
    ops_ok = sum(all(ex.ok for ex in runs) for runs in zip(*passes))
    ops_ok += sum(ex.ok for ex in probe_runs)
    ops = len(jobs) + len(probes)
    raw = {"setup_s": statistics.fmean(setup),
           "wall_s": sum(_per_job(passes, "wall_s", statistics.fmean)),
           "reference_s": statistics.fmean(reference)}
    scale = REFERENCE_S / raw["reference_s"]
    metrics = {
        "setup_s": raw["setup_s"] * scale,
        "wall_s": raw["wall_s"] * scale,
        "peak_rss_mb": max(ex.run.rss_mb for ex in timed),
        "pass_ratio": ops_ok / ops,
    }
    details = {
        "samples": {"setup_s": len(setup), "wall_s": len(passes),
                    "peak_rss_mb": len(passes), "pass_ratio": ops,
                    "reference_s": len(reference)},
        "unscaled": raw,
        "setup_samples_s": setup,
        "pass_wall_s": [sum(ex.run.wall_s for ex in one_pass) for one_pass in passes],
        "failed_ratio": 1.0 - ops_ok / ops,
        "jobs": [ex.record() for ex in timed],
        "probes": [ex.record() for ex in probe_runs],
    }
    units = dict(END_TO_END)
    result = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    return timed, result, details


def measure_layers(runner, jobs, trace_path):
    import_s, import_scipy_s = import_breakdown(runner)
    untraced, traced = [], []
    for _ in range(TRACE_PAIRS):
        pairs = [(runner.execute(job), runner.execute(job, traced=True)) for job in jobs]
        untraced.append([plain for plain, _ in pairs])
        traced.append([layered for _, layered in pairs])
    executions = [ex for one_pass in untraced + traced for ex in one_pass]
    # traced and untraced runs of a job must write the same bytes
    for runs in zip(*untraced, *traced):
        check_repeats(runs)
    plain_cpu = _per_job(untraced, "cpu_s", min)
    overall = {
        "cli.import_s": import_s,
        "cli.import_scipy_s": import_scipy_s,
        "cli.cpu_s": sum(plain_cpu),
        "cli.jobs": len(executions),
        "cli.jobs_failed": sum(not ex.ok for ex in executions),
        # CPU time, not wall time: the wrappers add work, not waiting
        "trace_overhead_s": sum(_per_job(traced, "cpu_s", min)) - sum(plain_cpu),
    }
    result = layer_metrics(traced[0], overall)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump([{"trace_id": i, "job": ex.job, "wall_s": ex.run.wall_s,
                    "trace": ex.trace} for i, ex in enumerate(traced[0])], fh)
    samples = {name: 1 for name, _ in PER_LAYER}
    samples.update({"cli.import_s": IMPORTTIME_SAMPLES, "cli.import_scipy_s": IMPORTTIME_SAMPLES,
                    "cli.cpu_s": TRACE_PAIRS, "trace_overhead_s": TRACE_PAIRS})
    details = {
        "samples": samples,
        "trace_file": str(trace_path.relative_to(ROOT)),
        "jobs": [ex.record() for ex in executions],
    }
    return executions, result, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (SRC / "tic_contracts" / "cli.py").is_file():
            raise BenchError(f"no tic_contracts sources under {SRC}")
        jobs, probes = workload_jobs(args.workload, args.seed)
        reference = _reference()
        OUTPUT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUTPUT))
        try:
            runner = Runner(workdir, reference)
            if args.trace:
                trace_path = OUTPUT / f"trace-{args.workload}.json"
                executions, metrics, details = measure_layers(runner, jobs, trace_path)
            else:
                executions, metrics, details = measure_end_to_end(
                    runner, jobs, probes, args.seconds)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (BenchError, OSError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2

    failed = sum(not ex.ok for ex in executions)
    details.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "seconds": args.seconds, "machine": machine_facts()})
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(executions),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
