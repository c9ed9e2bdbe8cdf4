"""Market primitives, preference bundles, and cross-field validation.

A :class:`MarketModel` collects the state-equation data: initial value,
horizon, volatility, a drift family b(t, a), an effort-cost family, and a
compact action interval.  A :class:`Preferences` bundle fixes the two
utilities, the reservation level, a discount curve, and the contracting
regime tag that tells the solvers which closed form applies.

The builtin drift/cost families are the ones the solvers know closed-form
maximizers for; custom callables are accepted everywhere but force the
search-based code paths and cannot be serialized.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .discounting import DiscountSpec

SPEC_TAGS = (
    "discounted_utility",
    "separable_rn",
    "discounted_income",
    "first_best_nonseparable",
    "first_best_separable",
)

SECOND_BEST_TAGS = ("discounted_utility", "separable_rn", "discounted_income")

UTILITIES = ("exponential", "risk_neutral")

DRIFT_FAMILIES = ("hm_linear", "quadratic", "power")
COST_FAMILIES = ("hm_linear", "quadratic", "power")


class InfeasibleError(ValueError):
    """Raised when no admissible contract attains the reservation level."""


class UnboundedLoadingError(RuntimeError):
    """Raised when the optimal volatility loading runs away past the cap."""


@dataclass
class MarketModel:
    """Controlled state dynamics dX = sigma(t) b(t, a) dt + sigma(t) dW.

    sigma may be a positive constant or a callable of time.  drift and cost
    are callables (t, a) -> float; when built through one of the family
    constructors the family name and parameters are retained so that
    closed-form maximizers and JSON serialization stay available.
    """

    x0: float
    horizon: float
    sigma: Callable[[float], float]
    drift: Callable[[float, float], float]
    cost: Callable[[float, float], float]
    action_lo: float
    action_hi: float
    drift_family: Optional[str] = None
    cost_family: Optional[str] = None
    drift_params: dict = field(default_factory=dict)
    cost_params: dict = field(default_factory=dict)
    sigma_const: Optional[float] = None

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
        drift_name, drift_params = drift
        cost_name, cost_params = cost
        drift_fn = _make_drift(drift_name, drift_params, sigma)
        cost_fn = _make_cost(cost_name, cost_params)
        return cls(
            x0=float(x0),
            horizon=float(horizon),
            sigma=lambda t, s=sigma: s,
            drift=drift_fn,
            cost=cost_fn,
            action_lo=float(action[0]),
            action_hi=float(action[1]),
            drift_family=drift_name,
            cost_family=cost_name,
            drift_params=dict(drift_params),
            cost_params=dict(cost_params),
            sigma_const=sigma,
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
        if not p > 1.0:
            raise ValueError("power cost needs p > 1")
        return cls.from_families(
            x0, horizon, sigma,
            ("power", {"p": float(p)}),
            ("power", {"p": float(p)}),
            action,
        )

    def sigma_at(self, t) -> float:
        if self.sigma_const is not None:
            if np.ndim(t):
                return np.full(np.shape(t), self.sigma_const)
            return self.sigma_const
        if np.ndim(t):
            return np.asarray([self.sigma(float(u)) for u in np.asarray(t).ravel()]).reshape(np.shape(t))
        return float(self.sigma(t))

    def to_json(self) -> dict:
        if self.drift_family is None or self.cost_family is None or self.sigma_const is None:
            raise ValueError("only builtin-family models serialize to JSON")
        return {
            "x0": self.x0,
            "T": self.horizon,
            "sigma": self.sigma_const,
            "drift": {"family": self.drift_family, "params": dict(self.drift_params)},
            "cost": {"family": self.cost_family, "params": dict(self.cost_params)},
            "action": [self.action_lo, self.action_hi],
        }

    @classmethod
    def from_json(cls, obj) -> "MarketModel":
        if isinstance(obj, str):
            obj = json.loads(obj)
        drift = obj["drift"]
        cost = obj["cost"]
        if drift["family"] not in DRIFT_FAMILIES:
            raise ValueError(f"unknown drift family {drift['family']!r}")
        if cost["family"] not in COST_FAMILIES:
            raise ValueError(f"unknown cost family {cost['family']!r}")
        return cls.from_families(
            obj["x0"],
            obj["T"],
            obj["sigma"],
            (drift["family"], drift.get("params", {})),
            (cost["family"], cost.get("params", {})),
            tuple(obj["action"]),
        )


def _make_drift(name, params, sigma):
    if name == "hm_linear":
        return lambda t, a: a / sigma
    if name == "quadratic":
        return lambda t, a: a
    if name == "power":
        return lambda t, a: a
    raise ValueError(f"unknown drift family {name!r}")


def _make_cost(name, params):
    if name == "hm_linear":
        k = float(params["k"])
        if not k > 0.0:
            raise ValueError("hm_linear needs k > 0")
        return lambda t, a: 0.5 * k * a * a
    if name == "quadratic":
        return lambda t, a: 0.5 * a * a
    if name == "power":
        p = float(params["p"])
        if not p > 1.0:
            raise ValueError("power cost needs p > 1")
        return lambda t, a: abs(a) ** p / p
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
        out = -np.log(-g * y) / g
        return float(out) if out.ndim == 0 else out

    def principal_u(self, x):
        if self.principal_utility == "risk_neutral":
            return x
        g = self.gamma_p
        return -np.exp(-g * np.asarray(x, dtype=float)) / g

    def to_json(self) -> dict:
        return {
            "agent": self.agent_utility,
            "principal": self.principal_utility,
            "gamma_a": self.gamma_a,
            "gamma_p": self.gamma_p,
            "r0": self.r0,
            "discount": self.discount.to_json(),
            "spec": self.spec_tag,
        }

    @classmethod
    def from_json(cls, obj) -> "Preferences":
        if isinstance(obj, str):
            obj = json.loads(obj)
        return cls(
            agent_utility=obj["agent"],
            principal_utility=obj["principal"],
            gamma_a=float(obj.get("gamma_a", 0.0)),
            gamma_p=float(obj.get("gamma_p", 0.0)),
            r0=float(obj["r0"]),
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
            sig = np.asarray([model.sigma_at(float(t)) for t in ts], dtype=float)
            if np.any(sig <= 0.0) or not np.all(np.isfinite(sig)):
                problems.append("sigma must be positive and finite on [0, T]")
        except Exception as exc:
            problems.append(f"sigma evaluation failed: {exc}")

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
            for t in (0.0, 0.5 * model.horizon, model.horizon):
                c = np.asarray([model.cost(t, float(a)) for a in grid])
                d2 = np.diff(c, 2)
                if np.any(d2 < -1e-9 * max(1.0, np.abs(c).max())):
                    problems.append("cost not convex on A, first-best solver unsupported")
                    break

    return problems
