"""Command-line front end.

Subcommands: discount, solve, verify, figures, check-constraint.  Input
is a JSON config file; output is JSON reports and CSV curve tables meant
for external plotting.  Exit codes: 0 success, 1 usage or parse error,
2 model infeasibility or validation failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

# dynamics and fsvie load inside the subcommands that run them, so the
# closed-form jobs pay no import for the Monte Carlo or Volterra code
from . import closed_form
from .discounting import DiscountSpec, _number
from .model import MarketModel, Preferences, UnboundedLoadingError, validate

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
    """obj with numpy values and tuples made plain Python, for JSON; raises
    TypeError for what JSON cannot hold, as a json `default` hook must."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if obj is None or isinstance(obj, (str, int)):
        return obj
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


def _json_text(obj, indent=""):
    """The text of json.dumps(obj, indent=2, sort_keys=True, allow_nan=False,
    default=_plain) at the given indent.  json indents in pure Python; here
    a list of floats is one join, and scalars and empty containers, which
    the compact C encoder spells alike, go through it."""
    if isinstance(obj, np.ndarray):
        obj = _plain(obj)
    if not isinstance(obj, (list, tuple, dict)) or not obj:
        return json.dumps(obj, allow_nan=False, default=_plain)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        items = []
        for key, value in sorted(obj.items()):
            if not (key is None or isinstance(key, (str, int, float))):
                raise TypeError("keys must be str, int, float, bool or None, "
                                f"not {type(key).__name__}")
            name = key if isinstance(key, str) else json.dumps(key, allow_nan=False)
            items.append(encode_basestring_ascii(name) + ": " + _json_text(value, inner))
        return "{\n" + inner + sep.join(items) + "\n" + indent + "}"
    try:  # the repr of a finite float has no "n"
        text = sep.join(map(float.__repr__, obj))
    except TypeError:  # not all floats
        text = "n"
    if "n" in text:
        text = sep.join(_json_text(value, inner) for value in obj)
    return "[\n" + inner + text + "\n" + indent + "]"


def _write_json(path, payload):
    # strict JSON: a NaN or infinity raises ValueError before the file opens
    text = _json_text(payload)
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
    except (OSError, json.JSONDecodeError) as exc:
        _fail_usage(f"cannot read config: {exc}")
    if not isinstance(cfg, dict):
        _fail_usage("config must be a JSON object")
    # Python's json reads NaN, Infinity, overflowing literals such as 1e400
    # and integers too large for a float; no model, curve or option accepts them
    bad = _non_finite(cfg, "config")
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


def _config_value(cfg, key, default, kind, flag=None, rules=()):
    """cfg[key], or default when absent, read by kind (_integer, _number,
    _numbers or _flag), unless the flag's value, if given, replaces it.
    The config value must pass kind and the range rules, (test, what the
    value must be) pairs, and then the flag's value the rules, so a flag
    hides no bad config value; a value that fails is a parse error."""
    try:
        value = kind(cfg.get(key, default))
    except (TypeError, ValueError):
        _fail_usage(f"{key} must be {_KINDS[kind]}")
    for v in (value, flag):
        for test, needs in rules:
            if v is not None and not test(v):
                _fail_usage(f"{key} must be {needs}")
    return value if flag is None else flag


def _positive_int(cfg, args, flag_name, cfg_key, default, least=1):
    """A positive integer, at least least, from the flag or the config."""
    flag = getattr(args, flag_name, None) if flag_name else None
    return _config_value(cfg, cfg_key, default, _integer, flag,
                         [(lambda n: n > 0, "positive"),
                          (lambda n: n >= least, f"at least {least}")])


def _solver_grid(cfg, args, flag_name, horizon):
    """The closed-form solver's grid on [0, horizon], of grid_points points
    (from the flag flag_name when given, else the config)."""
    n = _positive_int(cfg, args, flag_name, "grid_points", closed_form.DEFAULT_GRID_POINTS, 3)
    return closed_form.default_grid(horizon, n)


def _seed(cfg, args):
    """The stream seed, from the flag or the config: a signed 64-bit integer."""
    return _config_value(cfg, "seed", 7, _integer, args.seed,
                         [(lambda n: -2**63 <= n < 2**63, "a signed 64-bit integer")])


def cmd_discount(args) -> int:
    cfg = _load_config(args.config)
    horizon = _config_value(cfg, "horizon", FIGURE_HORIZON, _number,
                            rules=[(lambda x: x > 0.0, "positive")])
    points = _positive_int(cfg, args, "steps", "points", 501, 2)
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
            if os.path.basename(name) != name or "\0" in name:
                _fail_usage(f"bad discount entry: name {name!r} is not a plain file name")
            named.append((name, spec))
    outdir = _ensure_outdir(args.out)
    t = np.linspace(0.0, horizon, points)
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
    sol = closed_form.solve(model, prefs, _solver_grid(cfg, args, "steps", model.horizon))
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
    grid = _solver_grid(cfg, args, None, model.horizon)
    n_paths = _positive_int(cfg, args, "paths", "n_paths", 100_000)
    n_steps = _positive_int(cfg, args, "steps", "n_steps", 2000)
    if args.threads is not None and args.threads < 1:
        _fail_usage("threads must be positive")
    seed = _seed(cfg, args)
    perturb = _config_value(cfg, "perturb_constant_term", 0.0, _number)
    antithetic = _config_value(cfg, "antithetic", False, _flag)
    try:
        dynamics._check_estimator_units(n_paths, antithetic)
    except ValueError as exc:
        _fail_usage(str(exc))
    sol = closed_form.solve(model, prefs, grid)
    if perturb:
        sol = sol.shifted(perturb)
    report = dynamics.verify_contract(
        model, prefs, sol, n_paths=n_paths, n_steps=n_steps, seed=seed,
        antithetic=antithetic, threads=args.threads)
    report = _plain(report)
    outdir = _ensure_outdir(args.out)
    path = os.path.join(outdir, "report.json")
    _write_json(path, report)

    def verdict(ok):
        return "pass" if ok else "FAIL"

    p = report["participation"]
    print(f"participation: {verdict(p['pass'])} "
          f"(mean={p['mean']:.6g}, target={p['target']:.6g}, se={p['se']:.3g})")
    v = report["principal_value"]
    print(f"principal_value: {verdict(v['pass'])} "
          f"(mean={v['mean']:.6g}, target={v['target']:.6g}, se={v['se']:.3g})")
    for row in report["delta_residuals"]:
        print(f"correction_identity s={row['s']:g}: {verdict(row['pass'])} "
              f"(mean={row['mean']:.3g}, allowance={row['allowance']:.3g})")
    for row in report["spike_tests"]:
        print(f"spike t={row['t']:g} alt={row['alt']}: {verdict(row['pass'])} "
              f"(gain={row['gain']:.3g}, bound={row['bound']:.3g})")
    print(f"overall: {verdict(report['pass'])}")
    return EXIT_OK if report["pass"] else EXIT_VERIFY


def cmd_figures(args) -> int:
    cfg = _load_config(args.config)
    horizon = _config_value(cfg, "horizon", FIGURE_HORIZON, _number,
                            rules=[(lambda x: x > 0.0, "positive")])
    points = _positive_int(cfg, args, "steps", "points", 501, 3)
    gamma = _config_value(cfg, "gamma", FIGURE2_GAMMA, _number)
    alphas = _config_value(cfg, "alphas", FIGURE2_ALPHAS, _numbers)
    betas = _config_value(cfg, "betas", FIGURE2_BETAS, _numbers)
    lam_center = _config_value(cfg, "lambda", FIGURE2_LAMBDA, _number)
    beta_right = _config_value(cfg, "beta", FIGURE2_BETA_RIGHT, _number)
    lambdas = _config_value(cfg, "lambdas", FIGURE2_LAMBDAS, _numbers)

    base = ("exp", DiscountSpec.exponential(gamma))
    panels = {
        "left": [base] + [(f"alpha_{a:g}", DiscountSpec.hyperbolic(gamma, a))
                          for a in alphas],
        "center": [base] + [(f"beta_{b:g}", DiscountSpec.quasi_hyperbolic(gamma, b, lam_center))
                            for b in betas],
        "right": [base] + [(f"lambda_{l:g}", DiscountSpec.quasi_hyperbolic(gamma, beta_right, l))
                           for l in lambdas],
    }
    # every curve is solved, once (the exponential base curve sits in every
    # panel), in one batched search before any file is written
    curves = list(dict.fromkeys(spec for specs in panels.values() for _, spec in specs))
    model = MarketModel.quadratic(0.0, horizon, 1.0, action=(0.0, 10.0))
    prefs = [Preferences(agent_utility="risk_neutral", principal_utility="risk_neutral",
                         gamma_a=0.0, gamma_p=0.0, r0=0.0, discount=spec,
                         spec_tag="separable_rn") for spec in curves]
    t = closed_form.default_grid(horizon, points)
    efforts = dict(zip(curves, closed_form.separable_efforts(model, prefs, t)))
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
    grid = _solver_grid(cfg, args, None, model.horizon)
    n_paths = _positive_int(cfg, args, "paths", "n_paths", 3)
    n_steps = _positive_int(cfg, args, "steps", "n_steps", 2000)
    seed = _seed(cfg, args)
    threshold = _config_value(cfg, "threshold", 0.01, _number, args.tol,
                              [(lambda x: 0.0 < x < math.inf, "positive and finite")])
    family_name = str(cfg.get("family", "optimal"))
    families = {"optimal": fsvie.separable_optimal_family,
                "s_constant": fsvie.s_constant_family}
    if family_name not in families:
        _fail_usage(f"unknown family {family_name!r}")
    # the Volterra generator and the family's initial profile evaluate
    # f(r - s) down to r - s = -T; a curve undefined there raises here
    prefs.discount.value_extended(-model.horizon)
    sol = closed_form.solve(model, prefs, grid)
    y0_family, z_family = families[family_name](model, prefs, sol)
    ensemble = dynamics.simulate(model, sol.effort, n_paths, n_steps, seed)
    field = fsvie.march(model, prefs, y0_family, z_family, ensemble)
    residuals = fsvie.target_constraint_residual(field, prefs)
    worst = float(np.max(residuals))
    ok = worst < threshold
    report = {
        "family": family_name, "residual": worst,
        "per_path": [float(r) for r in residuals],
        "threshold": threshold, "pass": ok,
    }
    if args.out:
        _write_json(os.path.join(_ensure_outdir(args.out), "constraint.json"), report)
    print(f"target constraint residual {worst:.3e} "
          f"(threshold {threshold:g}): {'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY


# every flag, in the order usage lines list them: (type, help)
_FLAGS = {
    "config": (str, "JSON config file"),
    "out": (str, "output directory (default: current)"),
    "seed": (int, "stream seed"),
    "paths": (int, "Monte Carlo paths"),
    "steps": (int, "time steps / table points"),
    "threads": (int, "worker threads for the path fill (default 1)"),
    "tol": (float, "pass threshold"),
}
_TABLE_FLAGS = ("config", "out", "steps")
_MC_FLAGS = _TABLE_FLAGS + ("seed", "paths")


def _build_parser() -> _Parser:
    parser = _Parser(prog="tic-contracts",
                     description="Optimal contracts under non-exponential discounting")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, flags, blurb in (
            ("discount", cmd_discount, _TABLE_FLAGS, "tabulate discount curves and their rates"),
            ("solve", cmd_solve, _TABLE_FLAGS, "solve a contracting problem in closed form"),
            ("verify", cmd_verify, _MC_FLAGS + ("threads",),
             "Monte Carlo verification of a solved contract"),
            ("figures", cmd_figures, _TABLE_FLAGS,
             "effort/discount tables behind the headline figures"),
            ("check-constraint", cmd_check_constraint, _MC_FLAGS + ("tol",),
             "Volterra target-constraint residual of a contract family")):
        p = sub.add_parser(name, help=blurb)
        for flag, (kind, text) in _FLAGS.items():
            if flag in flags:
                p.add_argument(f"--{flag}", type=kind, help=text)
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
    except (ValueError, UnboundedLoadingError) as exc:
        # the one place where solver errors become exit codes: infeasible
        # models (InfeasibleError is a ValueError), runaway loadings, curves
        # undefined where a check needs them, and objectives without a
        # finite maximum all exit 2
        return _report_infeasible(str(exc))


if __name__ == "__main__":
    sys.exit(main())
