"""Property tests of the command line on hostile `solve`,
`check-constraint`, `figures` and `discount` configs.

Whatever the config holds (non-finite or huge numbers, extreme horizons and
curve parameters, cost exponents near 1 with large volatility, inverted or
huge action bounds, values of the wrong type, unknown contract families,
hostile pass thresholds), each command returns one of the documented exit
codes, raises nothing, emits no RuntimeWarning, and writes only strict JSON.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tic_contracts.cli import main

# an overflow or invalid operation must be handled where it happens
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SPECS = {
    "discounted_utility": [("exponential", "exponential"), ("exponential", "risk_neutral")],
    "separable_rn": [("risk_neutral", "risk_neutral")],
    "discounted_income": [("exponential", "exponential"), ("exponential", "risk_neutral"),
                          ("risk_neutral", "exponential"), ("risk_neutral", "risk_neutral")],
    "first_best_nonseparable": [("exponential", "exponential")],
    "first_best_separable": [("risk_neutral", "risk_neutral")],
}
WRONG_TYPES = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                        st.lists(st.integers(-2, 2), max_size=2), st.builds(dict))
HOSTILE = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-308, 0.0, -1.0,
                     10 ** 400]),
    WRONG_TYPES)
# every leaf a mutation may replace; "params" entries are whole dicts
LEAVES = [("grid_points",), ("model",), ("preferences",),
          ("model", "x0"), ("model", "T"), ("model", "sigma"), ("model", "drift"),
          ("model", "cost"), ("model", "action"), ("model", "drift", "family"),
          ("model", "cost", "family"), ("model", "cost", "params"), ("model", "action", 0),
          ("preferences", "agent"), ("preferences", "principal"), ("preferences", "gamma_a"),
          ("preferences", "gamma_p"), ("preferences", "r0"), ("preferences", "spec"),
          ("preferences", "discount"), ("preferences", "discount", "variant"),
          ("preferences", "discount", "gamma"), ("preferences", "discount", "alpha")]


def extreme(lo, hi):
    """A float in [lo, hi] spread over its orders of magnitude."""
    if lo > 0.0:
        return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)
    return st.floats(lo, hi)


@st.composite
def families(draw):
    name = draw(st.sampled_from(["quadratic", "hm_linear", "power"]))
    if name == "hm_linear":
        return {"family": name, "params": {"k": draw(extreme(1e-3, 1e3))}}
    if name == "power":
        p = draw(st.one_of(st.floats(1.0, 1.001, exclude_min=True), st.floats(1.001, 8.0)))
        return {"family": name, "params": {"p": p}}
    return {"family": name, "params": {}}


@st.composite
def configs(draw, specs=tuple(sorted(SPECS))):
    """A well-formed config of one of specs at extreme values, with up to
    two hostile leaves."""
    spec = draw(st.sampled_from(specs))
    agent, principal = draw(st.sampled_from(SPECS[spec]))
    fam = draw(families())
    lo, hi = sorted(draw(st.lists(st.one_of(extreme(-1e300, 1e300), extreme(-10.0, 10.0)),
                                  min_size=2, max_size=2)))
    if draw(st.booleans()):
        lo, hi = 0.0, 10.0
    elif draw(st.booleans()):
        lo, hi = hi, lo
    variant = draw(st.sampled_from(["exponential", "hyperbolic", "quasi_hyperbolic"]))
    discount = {"variant": variant, "gamma": draw(extreme(0.0, 50.0))}
    if variant == "hyperbolic":
        discount["alpha"] = draw(st.one_of(extreme(1e-9, 1e4), st.just(0.0)))
    if variant == "quasi_hyperbolic":
        discount["beta"] = draw(st.floats(0.0, 1.0))
        discount["lambda"] = draw(extreme(1e-6, 1e3))
    cfg = {
        "grid_points": draw(st.integers(3, 51)),
        "model": {"x0": draw(extreme(-1e3, 1e3)),
                  "T": draw(st.one_of(extreme(1e-300, 1e300), extreme(0.1, 10.0))),
                  "sigma": draw(st.one_of(extreme(1e-3, 1e3), extreme(1e-300, 1e300))),
                  "drift": fam, "cost": dict(fam, params=dict(fam["params"])),
                  "action": [lo, hi]},
        "preferences": {
            "agent": agent, "principal": principal,
            "gamma_a": draw(extreme(1e-3, 1e2)) if agent == "exponential" else 0.0,
            "gamma_p": draw(extreme(1e-3, 1e2)) if principal == "exponential" else 0.0,
            "r0": -draw(extreme(1e-3, 1e3)) if agent == "exponential"
            else draw(extreme(-1e3, 1e3)),
            "discount": discount, "spec": spec},
    }
    for path in draw(st.lists(st.sampled_from(LEAVES), max_size=2)):
        node = cfg
        for key in path[:-1]:
            node = node.get(key) if isinstance(node, dict) else None
        last = path[-1]
        if isinstance(node, dict) or (isinstance(node, list) and isinstance(last, int)
                                      and last < len(node)):
            node[last] = draw(HOSTILE)
    return cfg


# a power cost with p near 1 at large volatility: the closed-form best
# response overflows to an infinite action before the clamp
OVERFLOW = {
    "grid_points": 51,
    "model": {"x0": 0.1, "T": 2.0, "sigma": 3.0,
              "drift": {"family": "power", "params": {"p": 1.0001}},
              "cost": {"family": "power", "params": {"p": 1.0001}},
              "action": [0.0, 10.0]},
    "preferences": {"agent": "exponential", "principal": "exponential",
                    "gamma_a": 1.0, "gamma_p": 0.5, "r0": -0.8,
                    "discount": {"variant": "hyperbolic", "gamma": 1.0, "alpha": 0.4},
                    "spec": "first_best_nonseparable"},
}

# an action entry that is not a pair
SHORT_ACTION = json.loads(json.dumps(OVERFLOW))
SHORT_ACTION["model"]["action"] = [0.0]

# a horizon so long that the terminal discount factor underflows to zero
UNDERFLOW = json.loads(json.dumps(OVERFLOW))
UNDERFLOW["model"]["T"] = 1e300
UNDERFLOW["preferences"].update(agent="risk_neutral", principal="risk_neutral",
                                gamma_a=0.0, gamma_p=0.0, r0=0.05,
                                spec="first_best_separable")


def _strict(text):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(cfg=OVERFLOW)
@example(cfg=SHORT_ACTION)
@example(cfg=UNDERFLOW)
@given(cfg=configs())
def test_solve_survives_hostile_configs(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)  # NaN and Infinity are written as Python's json reads them
        out = os.path.join(tmp, "out")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["solve", "--config", path, "--out", out])
        assert code in (0, 1, 2, 3)
        written = os.path.join(out, "solution.json")
        if code == 0:
            assert os.path.exists(written)
        if os.path.exists(written):
            with open(written, encoding="utf-8") as fh:
                _strict(fh.read())


@st.composite
def constraint_configs(draw):
    """A separable config as above plus check-constraint's run options."""
    cfg = draw(configs(specs=("separable_rn",)))
    cfg.update(family=draw(st.sampled_from(["optimal", "s_constant", "junk"])),
               threshold=draw(st.one_of(HOSTILE, extreme(1e-12, 1e3))),
               n_steps=draw(st.integers(1, 60)), n_paths=draw(st.integers(1, 2)))
    return cfg


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=constraint_configs())
def test_check_constraint_survives_hostile_configs(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out = os.path.join(tmp, "out")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["check-constraint", "--config", path, "--out", out])
        assert code in (0, 1, 2, 3)
        written = os.path.join(out, "constraint.json")
        if code in (0, 3):
            assert os.path.exists(written)
        if os.path.exists(written):
            with open(written, encoding="utf-8") as fh:
                _strict(fh.read())


# a figures setting across the float range or between 0 and 1
FIGURE_NUMBER = st.one_of(st.floats(0.0, 1.0), extreme(1e-300, 1e300))


@st.composite
def figure_configs(draw):
    """A figures config whose settings and list entries are each absent,
    extreme or (one time in eight) hostile, with at most 41 points."""
    def hostile_or(good, bad=HOSTILE):
        return draw(bad) if draw(st.sampled_from(range(8))) == 7 else draw(good)

    cfg = {}
    for key in ("horizon", "gamma", "lambda", "beta"):
        if draw(st.booleans()):
            cfg[key] = hostile_or(FIGURE_NUMBER)
    for key in ("alphas", "betas", "lambdas"):
        if draw(st.booleans()):
            size = hostile_or(st.integers(0, 3), st.just(None))
            cfg[key] = (draw(HOSTILE) if size is None
                        else [hostile_or(FIGURE_NUMBER) for _ in range(size)])
    # no 1e308 points: that grid is a memory error, not a config error
    cfg["points"] = hostile_or(st.integers(3, 41), st.one_of(
        WRONG_TYPES, st.sampled_from([2, 0, -1, math.nan, math.inf, 10 ** 400, 2.9, 41.5])))
    return cfg


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(cfg={"points": 2})
@example(cfg={"points": 41, "lambda": 1e308})
@example(cfg={"points": 41, "beta": 0.0, "lambdas": [800.0]})
@given(cfg=figure_configs())
def test_figures_survive_hostile_configs(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out = os.path.join(tmp, "out")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["figures", "--config", path, "--out", out])
        assert code in (0, 1, 2)
        written = sorted(os.listdir(out)) if os.path.isdir(out) else []
        if code == 0:
            assert written == ["effort_center.csv", "effort_left.csv", "effort_right.csv"]
        else:
            assert written == []



VARIANT_KEYS = {"exponential": ("gamma",), "hyperbolic": ("gamma", "alpha"),
                "quasi_hyperbolic": ("gamma", "beta", "lambda")}


@st.composite
def discount_configs(draw):
    """A discount config whose horizon, points, curve entries and their
    parameters and names are each absent, extreme or (one time in eight)
    hostile, with at most 41 points."""
    def hostile_or(good, bad=HOSTILE):
        return draw(bad) if draw(st.sampled_from(range(8))) == 7 else draw(good)

    def entry():
        variant = draw(st.sampled_from(sorted(VARIANT_KEYS)))
        keys = VARIANT_KEYS[variant] + hostile_or(st.just(()), st.sampled_from(
            [("alpha",), ("beta",), ("lambda",), ("junk",)]))
        out = {"variant": hostile_or(st.just(variant))}
        out.update((key, hostile_or(FIGURE_NUMBER)) for key in keys)
        if draw(st.booleans()):
            out["name"] = hostile_or(st.sampled_from(["a", "b", "", "..", "a/b", "/", "x\0y"]))
        return out

    cfg = {}
    if draw(st.booleans()):
        cfg["horizon"] = hostile_or(FIGURE_NUMBER)
    if draw(st.booleans()):
        size = hostile_or(st.integers(0, 3), st.just(None))
        cfg["discounts"] = draw(HOSTILE) if size is None else [entry() for _ in range(size)]
    cfg["points"] = hostile_or(st.integers(2, 41), st.one_of(
        WRONG_TYPES, st.sampled_from([1, 0, -1, math.nan, math.inf, 10 ** 400, 1.9, 41.5])))
    return cfg


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(cfg={"horizon": 1e300, "points": 5,
              "discounts": [{"variant": "hyperbolic", "gamma": 1, "alpha": 1e300}]})
@example(cfg={"points": 5, "discounts": [{"variant": "exponential", "gamma": 1, "name": "a/b"}]})
@example(cfg={"points": 1})
@given(cfg=discount_configs())
def test_discount_survives_hostile_configs(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out = os.path.join(tmp, "out")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["discount", "--config", path, "--out", out])
        assert code in (0, 1, 2)
        written = sorted(os.listdir(out)) if os.path.isdir(out) else []
        if code == 0:
            names = ({str(e.get("name", e["variant"])) for e in cfg["discounts"]}
                     if cfg.get("discounts") is not None else set(VARIANT_KEYS))
            assert written == sorted(f"discount_{name}.csv" for name in names)
        else:
            assert written == []
