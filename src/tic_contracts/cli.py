"""Command-line front end.

Subcommands: discount, solve, verify, figures, check-constraint.  Input
is a JSON config file; output is JSON reports and CSV curve tables meant
for external plotting.  Exit codes: 0 success, 1 usage or parse error,
2 model infeasibility or validation failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import collections
import csv
import json
import math
import os
import sys

import numpy as np

# dynamics and fsvie load inside the subcommands that run them, so the
# closed-form jobs pay no import for the Monte Carlo or Volterra code
from . import closed_form
from .discounting import DiscountSpec, _number
from .model import MarketModel, Preferences, validate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY = 3

FIGURE_HORIZON = 50.0
FIGURE1_SPECS = (
    ("exponential", DiscountSpec.exponential(0.0576)),
    ("hyperbolic", DiscountSpec.hyperbolic(1.0, 4.0)),
    ("quasi_hyperbolic", DiscountSpec.quasi_hyperbolic(0.0387, 0.7, 2.197)),
)
FIGURE2_GAMMA = 0.0575
FIGURE2_ALPHAS = (4.0, 0.4, 0.04, 0.004)
FIGURE2_BETAS = (0.1, 0.19, 0.343, 0.569)
FIGURE2_LAMBDA = 0.439
FIGURE2_BETA_RIGHT = 0.3
FIGURE2_LAMBDAS = (0.439, 0.1927, 0.0371, 0.0013)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; remap to the usage code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _fail_usage(message: str):
    sys.stderr.write(f"error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _report_infeasible(problems) -> int:
    if isinstance(problems, str):
        problems = [problems]
    sys.stderr.write(json.dumps({"error": "; ".join(problems), "problems": list(problems)},
                                sort_keys=True) + "\n")
    return EXIT_INFEASIBLE


def _fail_infeasible(problems):
    raise SystemExit(_report_infeasible(problems))


def _plain(obj):
    """The json `default` hook: numpy arrays and scalars as plain Python
    values; TypeError for anything else, as the hook must raise."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _ensure_outdir(path):
    path = path or "."
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        _fail_usage(f"cannot create output directory: {exc}")
    if not os.access(path, os.W_OK):
        _fail_usage(f"output directory not writable: {path}")
    return path


def _write_json(path, payload):
    # strict JSON: a NaN or infinity raises ValueError before the file opens
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False, default=_plain)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _write_csv(path, header, columns):
    # csv writes a float as its repr
    columns = [np.asarray(c, dtype=float).tolist() for c in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


def _non_finite(value, where):
    """Locations of the NaN and infinite numbers in a parsed JSON value,
    counting integers beyond the float range as infinite."""
    if isinstance(value, int) and not isinstance(value, bool):
        return [] if abs(value) <= sys.float_info.max else [where]
    if isinstance(value, float):
        return [] if math.isfinite(value) else [where]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _non_finite(v, f"{where}.{k}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _non_finite(v, f"{where}[{i}]")]
    return []


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            _fail_usage("config must be a JSON object")
        # Python's json reads NaN, Infinity, overflowing literals such as 1e400
        # and integers too large for a float; no model, curve or option accepts them
        bad = _non_finite(cfg, "config")
    except RecursionError:
        # json.load and _non_finite both recurse once per nesting level
        _fail_usage("cannot read config: nested too deeply")
    except (OSError, json.JSONDecodeError) as exc:
        _fail_usage(f"cannot read config: {exc}")
    if bad:
        _fail_infeasible([f"{where} must be finite" for where in bad])
    return cfg


def _build_problem(cfg):
    if "model" not in cfg or "preferences" not in cfg:
        _fail_usage("config needs 'model' and 'preferences' sections")
    try:
        model = MarketModel.from_json(cfg["model"])
        prefs = Preferences.from_json(cfg["preferences"])
    except (KeyError, TypeError, ValueError) as exc:
        _fail_usage(f"bad config: {exc}")
    problems = validate(model, prefs)
    if problems:
        _fail_infeasible(problems)
    return model, prefs


def _integer(value):
    """An int, or a float with an integral value; not a bool or a string."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("not an integer")
    return value


def _numbers(values):
    if not isinstance(values, (list, tuple)):
        raise TypeError("not a list")
    return tuple(_number(v) for v in values)


def _flag(value):
    if not isinstance(value, bool):
        raise TypeError("not a boolean")
    return value


_KINDS = {_integer: "an integer", _number: "a number", _numbers: "a list of numbers",
          _flag: "true or false"}


# a run setting: its config key (None for a flag only), its reader
# (_integer, _number, _numbers or _flag), default, the flag that replaces
# it, and its range rules
_Setting = collections.namedtuple("_Setting", "key kind default flag rules",
                                  defaults=(None, ()))
_POSITIVE = ((lambda n: n > 0, "positive"),)


def _config_value(cfg, row, flag):
    """cfg[row.key] read by row.kind, or row.default when absent, unless
    the flag's value, if given, replaces it.  The config value must pass
    the reader and the range rules, (test, what the value must be) pairs,
    and then the flag's value the rules, so a flag hides no bad config
    value; a value that fails is a parse error."""
    name = row.key or row.flag
    value = row.default
    if row.key in cfg:
        try:
            value = row.kind(cfg[row.key])
        except (TypeError, ValueError):
            _fail_usage(f"{name} must be {_KINDS[row.kind]}")
    for v in (value, flag):
        for test, needs in row.rules:
            if v is not None and not test(v):
                _fail_usage(f"{name} must be {needs}")
    return value if flag is None else flag


def _at_least(least):
    return _POSITIVE + ((lambda n: n >= least, f"at least {least}"),)


_GRID = _Setting("grid_points", _integer, closed_form.DEFAULT_GRID_POINTS, None, _at_least(3))
_HORIZON = _Setting("horizon", _number, FIGURE_HORIZON, None, _POSITIVE)
_N_STEPS = _Setting("n_steps", _integer, 2000, "steps", _POSITIVE)
_SEED = _Setting("seed", _integer, 7, "seed",
                 ((lambda n: -2**63 <= n < 2**63, "a signed 64-bit integer"),))
# each subcommand's settings, in the order they are read and checked
_SETTINGS = {
    "discount": (_HORIZON, _Setting("points", _integer, 501, "steps", _at_least(2))),
    "solve": (_GRID._replace(flag="steps"),),
    "verify": (_GRID, _Setting("n_paths", _integer, 100_000, "paths", _POSITIVE), _N_STEPS,
               # --threads is validated but changes no work; its removal waits for a
               # benchmark that measures the code again (ROADMAP D9)
               _Setting(None, _integer, None, "threads", _POSITIVE), _SEED,
               _Setting("perturb_constant_term", _number, 0.0),
               _Setting("antithetic", _flag, False)),
    "figures": (_HORIZON, _Setting("points", _integer, 501, "steps", _at_least(3)),
                _Setting("gamma", _number, FIGURE2_GAMMA),
                _Setting("alphas", _numbers, FIGURE2_ALPHAS),
                _Setting("betas", _numbers, FIGURE2_BETAS),
                _Setting("lambda", _number, FIGURE2_LAMBDA),
                _Setting("beta", _number, FIGURE2_BETA_RIGHT),
                _Setting("lambdas", _numbers, FIGURE2_LAMBDAS)),
    "check-constraint": (_GRID, _Setting("n_paths", _integer, 3, "paths", _POSITIVE), _N_STEPS,
                         _SEED, _Setting("threshold", _number, 0.01, "tol", (
                             (lambda x: 0.0 < x < math.inf, "positive and finite"),))),
}


def _settings(cfg, args):
    """The settings of args.command in use, keyed by config key (the
    keyless --threads by its flag)."""
    return {row.key or row.flag: _config_value(cfg, row, row.flag and getattr(args, row.flag))
            for row in _SETTINGS[args.command]}


def cmd_discount(args) -> int:
    cfg = _load_config(args.config)
    s = _settings(cfg, args)
    entries = cfg.get("discounts")
    if entries is None:
        named = list(FIGURE1_SPECS)
    elif not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
        _fail_usage("discounts must be a list of objects")
    else:
        named = []
        for entry in entries:
            try:
                spec = DiscountSpec.from_json(entry)
            except (KeyError, TypeError, ValueError) as exc:
                _fail_usage(f"bad discount entry: {exc}")
            name = str(entry.get("name", spec.variant))
            # encoded as open encodes it, a file name holds at most 255 bytes
            try:
                plain = (os.path.basename(name) == name and "\0" not in name
                         and len(os.fsencode(f"discount_{name}.csv")) <= 255)
            except UnicodeEncodeError:
                plain = False
            if not plain:
                _fail_usage(f"bad discount entry: name {name!r} is not a plain file name")
            if any(name == seen for seen, _ in named):
                _fail_usage(f"bad discount entry: two entries write discount_{name}.csv")
            named.append((name, spec))
    outdir = _ensure_outdir(args.out)
    t = np.linspace(0.0, s["horizon"], s["points"])
    written = []
    for name, spec in named:
        path = os.path.join(outdir, f"discount_{name}.csv")
        _write_csv(path, ["t", "f", "idr"], [t, spec.value(t), spec.idr(t)])
        written.append(path)
    for path in written:
        print(path)
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    model, prefs = _build_problem(cfg)
    grid = closed_form.default_grid(model.horizon, _settings(cfg, args)["grid_points"])
    sol = closed_form.solve(model, prefs, grid)
    outdir = _ensure_outdir(args.out)
    sol_path = os.path.join(outdir, "solution.json")
    csv_path = os.path.join(outdir, "curves.csv")
    _write_json(sol_path, sol.to_json())
    _write_csv(csv_path, ["t", "z_star", "loading", "effort"],
               [sol.grid, sol.z_star, sol.loading_values, sol.effort_values])
    print(sol_path)
    print(csv_path)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import dynamics

    cfg = _load_config(args.config)
    model, prefs = _build_problem(cfg)
    s = _settings(cfg, args)
    try:
        dynamics._check_estimator_units(s["n_paths"], s["antithetic"])
    except ValueError as exc:
        _fail_usage(str(exc))
    sol = closed_form.solve(model, prefs, closed_form.default_grid(model.horizon,
                                                                   s["grid_points"]))
    if s["perturb_constant_term"]:
        sol = sol.shifted(s["perturb_constant_term"])
    report = dynamics.verify_contract(
        model, prefs, sol, n_paths=s["n_paths"], n_steps=s["n_steps"], seed=s["seed"],
        antithetic=s["antithetic"])
    _write_json(os.path.join(_ensure_outdir(args.out), "report.json"), report)

    def verdict(ok):
        return "pass" if ok else "FAIL"

    for key in ("participation", "principal_value"):
        p = report[key]
        print(f"{key}: {verdict(p['pass'])} "
              f"(mean={p['mean']:.6g}, target={p['target']:.6g}, se={p['se']:.3g})")
    for row in report["delta_residuals"]:
        print(f"correction_identity s={row['s']:g}: {verdict(row['pass'])} "
              f"(mean={row['mean']:.3g}, allowance={row['allowance']:.3g})")
    for row in report["spike_tests"]:
        print(f"spike t={row['t']:g} alt={row['alt']}: {verdict(row['pass'])} "
              f"(gain={row['gain']:.3g}, bound={row['bound']:.3g})")
    print(f"overall: {verdict(report['pass'])}")
    return EXIT_OK if report["pass"] else EXIT_VERIFY


def cmd_figures(args) -> int:
    s = _settings(_load_config(args.config), args)
    horizon, gamma = s["horizon"], s["gamma"]
    base = ("exp", DiscountSpec.exponential(gamma))
    panels = {
        "left": [base] + [(f"alpha_{a:g}", DiscountSpec.hyperbolic(gamma, a))
                          for a in s["alphas"]],
        "center": [base] + [(f"beta_{b:g}", DiscountSpec.quasi_hyperbolic(gamma, b, s["lambda"]))
                            for b in s["betas"]],
        "right": [base] + [(f"lambda_{l:g}", DiscountSpec.quasi_hyperbolic(gamma, s["beta"], l))
                           for l in s["lambdas"]],
    }
    for panel, specs in panels.items():
        labels = [label for label, _ in specs]
        clash = next((label for label in labels if labels.count(label) > 1), None)
        if clash:
            _fail_usage(f"two curves of the {panel} panel share the label {clash}")
    # every curve is solved, once (the exponential base curve sits in every
    # panel), before any file is written
    model = MarketModel.quadratic(0.0, horizon, 1.0, action=(0.0, 10.0))
    t = closed_form.default_grid(horizon, s["points"])
    efforts = {}
    for spec in dict.fromkeys(spec for specs in panels.values() for _, spec in specs):
        prefs = Preferences(agent_utility="risk_neutral", principal_utility="risk_neutral",
                            gamma_a=0.0, gamma_p=0.0, r0=0.0, discount=spec,
                            spec_tag="separable_rn")
        efforts[spec] = closed_form.solve(model, prefs, t).effort_values
    tables = {}
    for panel, specs in panels.items():
        header, columns = ["t"], [t]
        for label, spec in specs:
            header += [f"f_{label}", f"idr_{label}", f"effort_{label}"]
            columns += [spec.value(t), spec.idr(t), efforts[spec]]
        tables[f"effort_{panel}.csv"] = header, columns
    outdir = _ensure_outdir(args.out)
    for name, (header, columns) in tables.items():
        path = os.path.join(outdir, name)
        _write_csv(path, header, columns)
        print(path)
    return EXIT_OK


def cmd_check_constraint(args) -> int:
    from . import dynamics, fsvie

    cfg = _load_config(args.config)
    model, prefs = _build_problem(cfg)
    if prefs.spec_tag != "separable_rn":
        _fail_usage("check-constraint covers the separable risk-neutral spec")
    s = _settings(cfg, args)
    family_name = str(cfg.get("family", "optimal"))
    families = {"optimal": fsvie.separable_optimal_family,
                "s_constant": fsvie.s_constant_family}
    if family_name not in families:
        _fail_usage(f"unknown family {family_name!r}")
    # the Volterra generator and the family's initial profile evaluate
    # f(r - s) down to r - s = -T; a curve undefined there raises here
    prefs.discount.value_extended(-model.horizon)
    sol = closed_form.solve(model, prefs, closed_form.default_grid(model.horizon,
                                                                   s["grid_points"]))
    y0_family, z_family = families[family_name](model, prefs, sol)
    ensemble = dynamics.simulate(model, sol.effort, s["n_paths"], s["n_steps"], s["seed"])
    field = fsvie.march(model, prefs, y0_family, z_family, ensemble)
    residuals = fsvie.target_constraint_residual(field, prefs)
    worst = float(np.max(residuals))
    ok = worst < s["threshold"]
    report = {"family": family_name, "residual": worst, "per_path": residuals,
              "threshold": s["threshold"], "pass": ok}
    _write_json(os.path.join(_ensure_outdir(args.out), "constraint.json"), report)
    print(f"target constraint residual {worst:.3e} "
          f"(threshold {s['threshold']:g}): {'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY


def _build_parser() -> _Parser:
    parser = _Parser(prog="tic-contracts",
                     description="Optimal contracts under non-exponential discounting")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, blurb in (
            ("discount", cmd_discount, "tabulate discount curves and their rates"),
            ("solve", cmd_solve, "solve a contracting problem in closed form"),
            ("verify", cmd_verify, "Monte Carlo verification of a solved contract"),
            ("figures", cmd_figures, "effort/discount tables behind the headline figures"),
            ("check-constraint", cmd_check_constraint,
             "Volterra target-constraint residual of a contract family")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (default: current)")
        for row in _SETTINGS[name]:
            if row.flag:
                where = f"config key {row.key}" if row.key else "no config key"
                p.add_argument(f"--{row.flag}", type=int if row.kind is _integer else float,
                               help=f"{where}, default {json.dumps(row.default)}")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_USAGE
    except (ValueError, MemoryError) as exc:
        # the one place where solver errors become exit codes: infeasible
        # models (InfeasibleError is a ValueError), curves undefined where a
        # check needs them, exposure objectives that are not finite and
        # sizes too large for memory all exit 2
        return _report_infeasible(str(exc))


if __name__ == "__main__":
    sys.exit(main())
