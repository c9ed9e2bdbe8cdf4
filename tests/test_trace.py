"""The per-layer tracer binds the package's layer functions by name."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_trace_hooks_see_the_solve_layers(tmp_path):
    # a separable solve takes its exposure in closed form; the CARA one
    # still searches it
    trace = tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace.py"), str(trace), "solve",
         "--config", str(ROOT / "perfbench" / "configs" / "discounted_income.json"),
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    timers = json.loads(trace.read_text())["timers"]
    for name in ("closed_form.solve", "hamiltonian.stars_on_grid", "hamiltonian.search_max"):
        assert timers[name]["calls"] > 0, name


def _traced_timers(tmp_path, *cli_args):
    trace = tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace.py"), str(trace), *cli_args,
         "--config", str(ROOT / "perfbench" / "configs" / "separable_hyp04.json"),
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(trace.read_text())["timers"]


def test_trace_hooks_see_the_lazily_imported_layers(tmp_path):
    # the command modules import dynamics and fsvie inside their subcommands;
    # the tracer must still wrap the functions those subcommands call
    timers = _traced_timers(tmp_path, "verify", "--paths", "512", "--steps", "50")
    for name in ("dynamics.simulate", "dynamics.verify_contract"):
        assert timers[name]["calls"] > 0, name
    timers = _traced_timers(tmp_path, "check-constraint", "--paths", "2", "--steps", "200")
    for name in ("dynamics.simulate", "fsvie.target_constraint_residual"):
        assert timers[name]["calls"] > 0, name
