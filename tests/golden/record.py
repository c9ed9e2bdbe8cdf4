"""Record the output corpus that tests/test_golden.py holds the CLI to.

Usage: PYTHONPATH=src python3 tests/golden/record.py

Runs every job of JOBS once through ``cli.main`` in process and writes, per
job, its exit code, its stdout and stderr (the output directory written as
``<out>``) and the SHA-256 of every file it writes, to tests/golden/corpus.json,
together with the platform the bytes were recorded on (see ``platform_key``).
Re-record only for an intended change of outputs, and list the jobs that
moved where the change is described.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import platform
import sys
import tempfile

import numpy as np

from tic_contracts import cli

GOLDEN = pathlib.Path(__file__).resolve().parent
CORPUS = GOLDEN / "corpus.json"
CONFIGS = GOLDEN.parent.parent / "perfbench" / "configs"

EXP10 = {"variant": "exponential", "gamma": 10.0}


def bench_config(name, drop=(), discount=None, **changes):
    """A bench config by name, without the keys in drop, with a new
    discount curve and top-level keys if given."""
    cfg = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
    for key in drop:
        del cfg[key]
    if discount is not None:
        cfg["preferences"]["discount"] = discount
    cfg.update(changes)
    return cfg


def _job(command, config=None, *flags):
    return {"argv": [command, *flags], "config": config}


_MC = ("--paths", "20000", "--steps", "500", "--seed", "7")

# name: argv after the subcommand and the config (a dict, written to a file
# and passed as --config, or None); every job also gets --out
JOBS = {
    **{f"solve:{name}": _job("solve", bench_config(name))
       for name in ("separable_hyp04", "s_constant_hyp04", "discounted_income",
                    "first_best_nonseparable", "probe_hyp4", "probe_nan_x0")},
    "figures:151": _job("figures", None, "--steps", "151"),
    "figures:defaults": _job("figures"),
    "discount:defaults": _job("discount"),
    "verify:separable_hyp04_50k": _job("verify", bench_config("separable_hyp04"),
                                       "--paths", "50000", "--seed", "7"),
    **{f"verify:{name}_20kx500": _job("verify", bench_config(name), *_MC)
       for name in ("separable_hyp04", "discounted_income", "first_best_nonseparable",
                    "probe_hyp4")},
    "verify:discounted_income_antithetic": _job(
        "verify", bench_config("discounted_income", antithetic=True), *_MC),
    **{f"check:separable_hyp04_{steps}x2": _job(
        "check-constraint", bench_config("separable_hyp04"), "--steps", steps, "--paths", "2")
       for steps in ("1", "3000", "3001", "80000")},
    **{f"check:s_constant_hyp04_{steps}x3": _job(
        "check-constraint", bench_config("s_constant_hyp04"), "--steps", steps)
       for steps in ("1000", "999")},
    "check:defaults": _job("check-constraint",
                           bench_config("separable_hyp04", drop=("grid_points",))),
    "check:probe_hyp4_paths1": _job("check-constraint", bench_config("probe_hyp4"),
                                    "--paths", "1"),
    **{f"check:exp10_{family}_{steps}x2": _job(
        "check-constraint",
        bench_config("separable_hyp04", discount=EXP10, grid_points=201, family=family),
        "--steps", steps, "--paths", "2")
       for family in ("optimal", "s_constant") for steps in ("300", "400")},
    "check:exp10_optimal_20000x2": _job(
        "check-constraint",
        bench_config("separable_hyp04", discount=EXP10, grid_points=201, family="optimal"),
        "--steps", "20000", "--paths", "2"),
    "check:usage_discounted_income": _job("check-constraint", bench_config("discounted_income")),
}


def platform_key():
    """What the bytes depend on besides the code: the numpy and Python
    versions, the machine, and the SIMD targets numpy dispatches to at run
    time (its exp and log, for one, round differently per target)."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    features = getattr(umath, "__cpu_features__", {})
    return {"numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine(),
            "simd": [f for f in getattr(umath, "__cpu_dispatch__", ()) if features.get(f)]}


def run(job, workdir):
    """{"exit", "stdout", "stderr", "files"} of one job run in workdir."""
    workdir = pathlib.Path(workdir)
    out = workdir / "out"
    argv = list(job["argv"])
    if job["config"] is not None:
        path = workdir / "config.json"
        path.write_text(json.dumps(job["config"]), encoding="utf-8")
        argv[1:1] = ["--config", str(path)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, "--out", str(out)])
    files = {}
    for path in sorted(out.rglob("*")) if out.exists() else ():
        if path.is_file():
            files[path.relative_to(out).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"exit": code, "stdout": stdout.getvalue().replace(str(out), "<out>"),
            "stderr": stderr.getvalue().replace(str(out), "<out>"), "files": files}


def main():
    jobs = {}
    for name, job in JOBS.items():
        with tempfile.TemporaryDirectory() as workdir:
            jobs[name] = run(job, workdir)
        print(f"{name}: exit {jobs[name]['exit']}", file=sys.stderr)
    CORPUS.write_text(json.dumps({"platform": platform_key(), "jobs": jobs}, indent=1,
                                 sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
