"""Market primitives, preference bundles, and cross-field validation.

A :class:`MarketModel` collects the state-equation data: initial value,
horizon, volatility, a drift family b(t, a), an effort-cost family, and a
compact action interval.  A :class:`Preferences` bundle fixes the two
utilities, the reservation level, a discount curve, and the contracting
regime tag that tells the solvers which closed form applies.

The builtin drift/cost families are the ones the solvers know closed-form
maximizers for.  Custom callables are accepted everywhere: each is called
once on numpy arrays (see :func:`pointwise`).  They force the search-based
best response.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .discounting import DiscountSpec, _number

SPEC_TAGS = (
    "discounted_utility",
    "separable_rn",
    "discounted_income",
    "first_best_nonseparable",
    "first_best_separable",
)

SECOND_BEST_TAGS = ("discounted_utility", "separable_rn", "discounted_income")

UTILITIES = ("exponential", "risk_neutral")


class InfeasibleError(ValueError):
    """Raised when no admissible contract attains the reservation level."""


def pointwise(fn, *arrays):
    """fn evaluated at every point of the broadcast arrays, as a float array.

    One call on the arrays as given, which may differ in shape; the result
    must broadcast to their common shape, as a constant's 0-d result does.
    Any other shape raises ValueError; an error fn raises propagates as is.
    """
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    out = np.asarray(fn(*arrays), dtype=float)
    if out.shape == shape:
        return out
    try:
        return np.broadcast_to(out, shape).copy()
    except ValueError:
        raise ValueError(f"a callable returned shape {out.shape} for arguments of broadcast "
                         f"shape {shape}: custom callables must take numpy arrays and "
                         "return their broadcast shape") from None


@dataclass(frozen=True)
class Families:
    """The builtin families a model was built from: the drift's slope with
    sigma b(a) = slope * a, and stationary(s), the stationary point of
    s a - c(a).
    """

    slope: float
    stationary: Callable


@dataclass
class MarketModel:
    """Controlled state dynamics dX = sigma(t) b(t, a) dt + sigma(t) dW.

    sigma(t), drift(t, a) and cost(t, a) are callables that take numpy
    arrays and act elementwise (see :func:`pointwise`).  Models built by
    the family constructors carry their ``families`` descriptor, which
    gives the closed-form best response; it is None for custom callables.
    """

    x0: float
    horizon: float
    sigma: Callable
    drift: Callable
    cost: Callable
    action_lo: float
    action_hi: float
    families: Optional[Families] = None

    @classmethod
    def from_families(
        cls,
        x0: float,
        horizon: float,
        sigma: float,
        drift: tuple,
        cost: tuple,
        action: tuple,
    ) -> "MarketModel":
        """Build a model from builtin family descriptors.

        drift and cost are (family_name, params_dict) pairs; action is the
        (lo, hi) interval.
        """
        sigma = float(sigma)
        if not sigma > 0.0:
            raise ValueError("sigma must be positive")
        dict(drift[1])  # no builtin drift reads params, but they must be a mapping
        cost_params = dict(cost[1])
        drift_fn, slope = _make_drift(drift[0], sigma)
        cost_fn, stationary = _make_cost(cost[0], cost_params)
        return cls(
            x0=float(x0),
            horizon=float(horizon),
            sigma=lambda t, s=sigma: np.full(np.shape(t), s),
            drift=drift_fn,
            cost=cost_fn,
            action_lo=float(action[0]),
            action_hi=float(action[1]),
            families=Families(slope, stationary),
        )

    @classmethod
    def hm_linear(cls, x0, horizon, sigma, k, action=(0.0, 10.0)) -> "MarketModel":
        """Linear-drift model: b(a) = a / sigma, cost k a^2 / 2."""
        return cls.from_families(
            x0, horizon, sigma,
            ("hm_linear", {"k": float(k)}),
            ("hm_linear", {"k": float(k)}),
            action,
        )

    @classmethod
    def quadratic(cls, x0, horizon, sigma, action=(0.0, 10.0)) -> "MarketModel":
        """b(a) = a with cost a^2 / 2."""
        return cls.from_families(
            x0, horizon, sigma,
            ("quadratic", {}),
            ("quadratic", {}),
            action,
        )

    @classmethod
    def power(cls, x0, horizon, sigma, p, action=(0.0, 10.0)) -> "MarketModel":
        """b(a) = a with cost a^p / p for p > 1."""
        return cls.from_families(
            x0, horizon, sigma,
            ("power", {"p": float(p)}),
            ("power", {"p": float(p)}),
            action,
        )

    def sigma_at(self, t) -> np.ndarray:
        """sigma at the times t, as an array of their shape."""
        return pointwise(self.sigma, t)

    def closed_response(self, z):
        """(lam, cost, argmax) arrays of the builtin families at exposures z.

        Every builtin drift makes sigma b(a) = m a with a constant slope m,
        so the agent maximizes m a z - c(a): the stationary point of the
        cost family, clamped to the action interval.  Builtin families do
        not depend on time.
        """
        fam = self.families
        a = np.clip(fam.stationary(fam.slope * np.asarray(z, dtype=float)),
                    self.action_lo, self.action_hi)
        return fam.slope * a, self.cost(0.0, a), a

    @classmethod
    def from_json(cls, obj) -> "MarketModel":
        if isinstance(obj, str):
            obj = json.loads(obj)
        drift = obj["drift"]
        cost = obj["cost"]
        action = tuple(_number(v, "action bound") for v in obj["action"])
        if len(action) != 2:
            raise ValueError("action must be a [lo, hi] pair")
        return cls.from_families(
            _number(obj["x0"], "x0"),
            _number(obj["T"], "T"),
            _number(obj["sigma"], "sigma"),
            (drift["family"], drift.get("params", {})),
            (cost["family"], cost.get("params", {})),
            action,
        )


def _make_drift(name, sigma):
    """(b(t, a), m) of a builtin drift family, where sigma b(a) = m a."""
    if name == "hm_linear":
        return (lambda t, a: a / sigma), 1.0
    if name in ("quadratic", "power"):
        return (lambda t, a: a), sigma
    raise ValueError(f"unknown drift family {name!r}")


def _make_cost(name, params):
    """(c(t, a), the stationary point of s a - c(a)) of a builtin cost family."""
    if name == "hm_linear":
        k = _number(params["k"], "k")
        if not k > 0.0:
            raise ValueError("hm_linear needs k > 0")
        return (lambda t, a: 0.5 * k * a * a), (lambda s: s / k)
    if name == "quadratic":
        return (lambda t, a: 0.5 * a * a), (lambda s: s)
    if name == "power":
        p = _number(params["p"], "p")
        if not p > 1.0:
            raise ValueError("power cost needs p > 1")
        # with p near 1 the power overflows to infinity for large |s|; the
        # clamp in closed_response turns that into the action bound
        return (lambda t, a: abs(a) ** p / p), np.errstate(over="ignore")(
            lambda s: np.sign(s) * np.abs(s) ** (1.0 / (p - 1.0)))
    raise ValueError(f"unknown cost family {name!r}")


@dataclass(frozen=True)
class Preferences:
    """Utilities, reservation level, discount curve, and regime tag."""

    agent_utility: str
    principal_utility: str
    gamma_a: float
    gamma_p: float
    r0: float
    discount: DiscountSpec
    spec_tag: str

    def __post_init__(self):
        if self.agent_utility not in UTILITIES:
            raise ValueError(f"unknown agent utility {self.agent_utility!r}")
        if self.principal_utility not in UTILITIES:
            raise ValueError(f"unknown principal utility {self.principal_utility!r}")
        if self.spec_tag not in SPEC_TAGS:
            raise ValueError(f"unknown spec tag {self.spec_tag!r}")
        if self.agent_utility == "exponential" and not self.gamma_a > 0.0:
            raise ValueError("exponential agent utility needs gamma_a > 0")
        if self.principal_utility == "exponential" and not self.gamma_p > 0.0:
            raise ValueError("exponential principal utility needs gamma_p > 0")
        if self.agent_utility == "risk_neutral" and self.gamma_a != 0.0:
            raise ValueError("risk-neutral agent must have gamma_a == 0")
        if self.principal_utility == "risk_neutral" and self.gamma_p != 0.0:
            raise ValueError("risk-neutral principal must have gamma_p == 0")

    def agent_u(self, x):
        """Terminal agent utility applied to a wealth-like argument."""
        if self.agent_utility == "risk_neutral":
            return x
        g = self.gamma_a
        return -np.exp(-g * np.asarray(x, dtype=float)) / g

    def agent_u_inv(self, y):
        """Inverse of agent_u; defined on y < 0 for the exponential agent."""
        if self.agent_utility == "risk_neutral":
            return y
        g = self.gamma_a
        y = np.asarray(y, dtype=float)
        if np.any(y >= 0.0):
            raise ValueError("exponential agent utility takes values below zero")
        # a tiny gamma_a overflows to inf, and the solvers reject what follows
        with np.errstate(over="ignore"):
            out = -np.log(-g * y) / g
        return float(out) if out.ndim == 0 else out

    def cost_weight(self, lags):
        """The running cost's weight at the lags: f(lag), extended to
        negative lags, or ones, without reading the curve, where the
        discount sits outside the utility (discounted_utility).  It is
        also the curve inside the utility: the payment's weight g(T - s)
        seen from s, and the g of the second-best exposure problem."""
        if self.spec_tag == "discounted_utility":
            return np.ones(np.shape(lags))
        return self.discount.value_extended(lags)

    def running_cost(self, lags, cost, dt):
        """Left-point sum of the cost rate over steps dt, each weighed by
        cost_weight(lags)."""
        return float(np.sum(self.cost_weight(lags) * cost) * dt)

    def reward(self, weight, pay, running):
        """The agent's reward from the payment pay, net of the running
        cost, with the terminal discount weight f(T - s) seen from time s."""
        tag = self.spec_tag
        if tag in ("separable_rn", "first_best_separable"):
            return weight * pay - running
        if tag == "discounted_utility":
            return weight * self.agent_u(pay - running)
        if tag == "discounted_income":
            return self.agent_u(weight * pay - running)
        return weight * self.agent_u(weight * pay - running)

    def decode(self, weight, value):
        """The payment whose reward with no running cost is value: the
        inverse of reward(weight, ., 0) for the second-best regimes."""
        tag = self.spec_tag
        if tag == "separable_rn":
            return value / weight
        if tag == "discounted_utility":
            return self.agent_u_inv(value / weight)
        if tag == "discounted_income":
            return self.agent_u_inv(value) / weight
        raise ValueError(f"no terminal decoding for spec {tag!r}")

    def principal_u(self, x):
        if self.principal_utility == "risk_neutral":
            return x
        g = self.gamma_p
        return -np.exp(-g * np.asarray(x, dtype=float)) / g

    @classmethod
    def from_json(cls, obj) -> "Preferences":
        if isinstance(obj, str):
            obj = json.loads(obj)
        return cls(
            agent_utility=obj["agent"],
            principal_utility=obj["principal"],
            gamma_a=_number(obj.get("gamma_a", 0.0), "gamma_a"),
            gamma_p=_number(obj.get("gamma_p", 0.0), "gamma_p"),
            r0=_number(obj["r0"], "r0"),
            discount=DiscountSpec.from_json(obj["discount"]),
            spec_tag=obj["spec"],
        )


# Which (agent, principal) utility pairs each regime supports.  Risk-neutral
# entries on an exponential-utility regime are the vanishing-risk-aversion
# limits; the solvers carry the limit formulas explicitly.
_ALLOWED_UTILITIES = {
    "discounted_utility": {("exponential", "exponential"), ("exponential", "risk_neutral")},
    "separable_rn": {("risk_neutral", "risk_neutral")},
    "discounted_income": {
        ("exponential", "exponential"),
        ("exponential", "risk_neutral"),
        ("risk_neutral", "exponential"),
        ("risk_neutral", "risk_neutral"),
    },
    "first_best_nonseparable": {("exponential", "exponential")},
    "first_best_separable": {("risk_neutral", "risk_neutral")},
}


def validate(model: MarketModel, prefs: Preferences) -> list:
    """Return a list of human-readable violations; empty means usable."""
    problems = []
    horizon_ok = 0.0 < model.horizon < math.inf
    if not horizon_ok:
        problems.append("horizon must be positive and finite")
    if not (math.isfinite(model.action_lo) and math.isfinite(model.action_hi)):
        problems.append("action interval must be bounded")
    elif not model.action_lo <= model.action_hi:
        problems.append("empty action set: action_lo exceeds action_hi")
    for name, value in (("x0", model.x0), ("r0", prefs.r0),
                        ("gamma_a", prefs.gamma_a), ("gamma_p", prefs.gamma_p)):
        if not math.isfinite(value):
            problems.append(f"{name} must be finite")

    if horizon_ok:
        ts = np.linspace(0.0, model.horizon, 33)
        try:
            sig = model.sigma_at(ts)
            if np.any(sig <= 0.0) or not np.all(np.isfinite(sig)):
                problems.append("sigma must be positive and finite on [0, T]")
        except Exception as exc:
            problems.append(f"sigma evaluation failed: {exc}")
        # every regime divides by the terminal discount factor
        if not prefs.discount.value(model.horizon) > 0.0:
            problems.append("discount factor f(T) underflows to zero at the horizon")

    pair = (prefs.agent_utility, prefs.principal_utility)
    if pair not in _ALLOWED_UTILITIES[prefs.spec_tag]:
        problems.append(
            f"spec/utility mismatch: {prefs.spec_tag} does not support "
            f"agent={prefs.agent_utility}, principal={prefs.principal_utility}"
        )

    if prefs.agent_utility == "exponential" and not prefs.r0 < 0.0:
        problems.append("reservation utility must be negative for an exponential agent")

    if prefs.spec_tag in ("first_best_nonseparable", "first_best_separable"):
        if model.action_lo < model.action_hi and horizon_ok:
            grid = np.linspace(model.action_lo, model.action_hi, 65)
            ts = np.array([[0.0], [0.5 * model.horizon], [model.horizon]])
            c = pointwise(model.cost, ts, grid)
            scale = np.maximum(1.0, np.abs(c).max(axis=1, keepdims=True))
            if np.any(np.diff(c, 2, axis=1) < -1e-9 * scale):
                problems.append("cost not convex on A, first-best solver unsupported")

    return problems
