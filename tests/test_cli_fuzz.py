"""Property test of the command line on hostile `solve` configs.

Whatever the config holds (non-finite or huge numbers, extreme horizons and
curve parameters, cost exponents near 1 with large volatility, inverted or
huge action bounds, values of the wrong type), `solve` returns one of the
documented exit codes, raises nothing, and writes only strict JSON.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tic_contracts.cli import main

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
def configs(draw):
    """A well-formed config at extreme values, with up to two hostile leaves."""
    spec = draw(st.sampled_from(sorted(SPECS)))
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
