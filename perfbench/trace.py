"""Run one ``tic-contracts`` command in this process with every layer traced.

Usage: python perfbench/trace.py TRACE_OUT.json <cli arguments...>

The layers' public functions are replaced, at every module binding of the
``tic_contracts`` package that refers to them, by wrappers that time each
call.  Coarse calls (one solve, one simulation, one Picard solve) are kept
as spans; per-grid-point calls (exposure searches, best responses, discount
evaluations) only add to a count and to accumulated time.  A call's self
time is its duration minus the time spent in the wrapped calls beneath it.
Spans and counters stay in memory and are written to TRACE_OUT.json when
the command returns; the exit code is the command's own.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class Tracer:
    """Call stack, spans and per-name counters of one traced command."""

    def __init__(self):
        self.spans = []
        self.timers = {}  # name -> calls, total and self seconds
        self.counts = {}  # name -> plain count of work done
        self._stack = []  # per active call: [span id or None, child seconds]
        self._next_id = 0

    def add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name, fn, span=False, after=None):
        """Return fn timed under name; after(args, kwargs, result) may add counts."""
        tracer = self
        stat = self.timers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

        def traced(*args, **kwargs):
            span_id = None
            if span:
                span_id = tracer._next_id
                tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                stat["calls"] += 1
                stat["total_s"] += duration
                stat["self_s"] += duration - frame[1]
                if span:
                    tracer.spans.append({"id": span_id, "parent": parent, "name": name,
                                         "start": start, "end": end,
                                         "self_s": duration - frame[1]})
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rebind(modules, original, replacement):
    """Point every module-level name bound to original at replacement."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer):
    """Wrap the layer functions of an imported tic_contracts package."""
    import numpy as np

    import tic_contracts
    from tic_contracts import cli, closed_form, discounting, dynamics, fsvie, hamiltonian, model

    modules = (tic_contracts, cli, closed_form, discounting, dynamics, fsvie, hamiltonian, model)

    def rebind(name, fn, **kw):
        _rebind(modules, fn, tracer.wrap(name, fn, **kw))

    rebind("closed_form.solve", closed_form.solve, span=True)

    search = tracer.wrap("closed_form.z_argmax", closed_form.z_argmax)

    def z_argmax(objective, *args, **kwargs):
        def counted(zs):
            tracer.add("closed_form.objective_evals", 1)
            return objective(zs)
        return search(counted, *args, **kwargs)

    _rebind(modules, closed_form.z_argmax, z_argmax)

    def grid_points(args, kwargs, _result):
        tracer.add("hamiltonian.stars_on_grid.points",
                   int(np.size(_arg(args, kwargs, 2, "z_values"))))

    rebind("hamiltonian.stars_on_grid", hamiltonian.stars_on_grid, after=grid_points)
    rebind("hamiltonian.maximize", hamiltonian.maximize)
    rebind("hamiltonian.search_max", hamiltonian.search_max)

    # all three evaluators share one layer name; the wrapper sits on the class
    def discount_points(args, kwargs, _result):
        tracer.add("discounting.points", int(np.size(_arg(args, kwargs, 1, "t"))))

    for method in ("value", "idr", "value_extended"):
        setattr(discounting.DiscountSpec, method,
                tracer.wrap("discounting", getattr(discounting.DiscountSpec, method),
                            after=discount_points))

    def path_steps(args, kwargs, _result):
        tracer.add("dynamics.simulate.path_steps",
                   int(_arg(args, kwargs, 2, "n_paths")) * int(_arg(args, kwargs, 3, "n_steps")))

    rebind("dynamics.simulate", dynamics.simulate, span=True, after=path_steps)
    rebind("dynamics.contract_payoff", dynamics.contract_payoff, span=True)
    rebind("dynamics.verify_contract", dynamics.verify_contract, span=True)
    rebind("dynamics.spike_deviation_check", dynamics.spike_deviation_check, span=True)

    def sweeps(_args, _kwargs, result):
        field, diffs = result
        tracer.add("fsvie.picard_sweeps", sum(len(d) for d in diffs))
        tracer.add("fsvie.field_bytes", int(field.values.nbytes))

    rebind("fsvie.picard_solve", fsvie.picard_solve, span=True, after=sweeps)
    rebind("fsvie.target_constraint_residual", fsvie.target_constraint_residual, span=True)


def main(argv):
    if len(argv) < 2:
        sys.stderr.write("usage: trace.py TRACE_OUT.json <cli arguments...>\n")
        return 2
    out_path, cli_args = argv[0], argv[1:]
    sys.path.insert(0, str(SRC))
    from tic_contracts import cli

    tracer = Tracer()
    install(tracer)
    start = time.perf_counter()
    try:
        code = cli.main(cli_args)
    finally:
        elapsed = time.perf_counter() - start
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"command_s": elapsed, "spans": tracer.spans,
                       "timers": tracer.timers, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
