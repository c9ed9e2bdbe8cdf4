"""Discount curves and their instantaneous rates.

Three parametric families are supported:

* exponential        f(t) = exp(-gamma * t)
* hyperbolic         f(t) = (1 + alpha * t) ** (-gamma / alpha)
* quasi-hyperbolic   f(t) = (1 - beta) * exp(-t * (lam + gamma)) + beta * exp(-gamma * t)

All three satisfy f(0) = 1 and f > 0, and each comes with a closed-form
derivative and instantaneous discount rate idr(t) = -f'(t) / f(t).  The
exponential family has constant idr; the other two do not, which is what
makes an agent discounting with them time-inconsistent.  The exponential
curve is evaluated as the hyperbolic one at alpha = 0.

The public evaluators reject negative times.  Generator code that needs
f(r - s) for r < s goes through :meth:`DiscountSpec.value_extended`, which
accepts any argument for which the closed form is defined (for the
hyperbolic family that means 1 + alpha * t > 0).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

# the parameters each variant reads beside gamma: field name -> JSON key
_PARAMETERS = {"exponential": {}, "hyperbolic": {"alpha": "alpha"},
               "quasi_hyperbolic": {"beta": "beta", "lam": "lambda"}}


def _number(value, name="value"):
    """An int or a float as a float; not a bool, a string or anything else.
    The rule for every number a config holds, in every section."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number")
    return float(value)


@dataclass(frozen=True)
class DiscountSpec:
    """Immutable description of one discount curve.

    The constructor reads each parameter by from_json's number rule and
    refuses one that the variant does not read unless it is at its
    default, so every spec survives its JSON round trip; the factory
    classmethods build each variant.
    """

    variant: str
    gamma: float
    alpha: float = 0.0
    beta: float = 1.0
    lam: float = 0.0

    def __post_init__(self):
        if self.variant not in _PARAMETERS:
            raise ValueError(f"unknown discount variant {self.variant!r}")
        for field in fields(self)[1:]:  # gamma, alpha, beta, lam, stored as floats
            object.__setattr__(self, field.name, _number(getattr(self, field.name), field.name))
        if self.gamma < 0.0 or not math.isfinite(self.gamma):
            raise ValueError("gamma must be nonnegative and finite")
        for field in fields(self)[2:]:  # alpha, beta, lam
            if (field.name not in _PARAMETERS[self.variant]
                    and getattr(self, field.name) != field.default):
                owner = next(v for v, names in _PARAMETERS.items() if field.name in names)
                raise ValueError(f"{field.name} applies to the {owner} variant only")
        if self.variant == "hyperbolic":
            if self.alpha < 0.0 or not math.isfinite(self.alpha):
                raise ValueError("alpha must be nonnegative and finite")
        if self.variant == "quasi_hyperbolic":
            if not (0.0 <= self.beta <= 1.0):
                raise ValueError("beta must lie in [0, 1]")
            if self.lam < 0.0 or not math.isfinite(self.lam):
                raise ValueError("lambda must be nonnegative and finite")

    @classmethod
    def exponential(cls, gamma: float) -> "DiscountSpec":
        return cls("exponential", float(gamma))

    @classmethod
    def hyperbolic(cls, gamma: float, alpha: float) -> "DiscountSpec":
        return cls("hyperbolic", float(gamma), alpha=float(alpha))

    @classmethod
    def quasi_hyperbolic(cls, gamma: float, beta: float, lam: float) -> "DiscountSpec":
        return cls("quasi_hyperbolic", float(gamma), beta=float(beta), lam=float(lam))

    # -- evaluation ------------------------------------------------------

    def value(self, t):
        """f(t) for t >= 0 (scalar or array)."""
        t = _check_nonnegative(t)
        return self._value_raw(t)

    def derivative(self, t):
        """Closed-form f'(t) for t >= 0."""
        t = _check_nonnegative(t)
        g, a = self.gamma, self.alpha
        # a huge rate times t overflows to infinity, where f' is 0
        with np.errstate(over="ignore"):
            if self.variant == "quasi_hyperbolic":
                b, lam = self.beta, self.lam
                return -(lam + g) * (1.0 - b) * np.exp(-t * (lam + g)) - g * b * np.exp(-g * t)
            if a == 0.0:
                return -g * np.exp(-g * t)
            # f' = -gamma * (1 + alpha t)^(-gamma/alpha - 1)
            return -g * self._value_raw(t) / (1.0 + a * t)

    def idr(self, t):
        """Instantaneous discount rate -f'(t)/f(t), from its own closed form.

        Computed from the per-variant formula rather than as a quotient of
        value() and derivative(), so it stays stable for large t where both
        f and f' underflow.
        """
        t = _check_nonnegative(t)
        g = self.gamma
        if self.variant != "quasi_hyperbolic":
            a = self.alpha
            if a == 0.0:
                return np.broadcast_to(np.float64(g), np.shape(t)).copy() if np.ndim(t) else g
            with np.errstate(over="ignore"):  # a huge alpha t: the rate is 0
                return g / (1.0 + a * t)
        b, lam = self.beta, self.lam
        if b == 0.0:
            extra = np.broadcast_to(np.float64(lam), np.shape(t)).copy() if np.ndim(t) else lam
        elif b == 1.0:
            extra = np.zeros(np.shape(t)) if np.ndim(t) else 0.0
        else:
            # lam (1-b) / ((1-b) + b e^{t lam}), rearranged with e^{-t lam}
            # so the denominator never overflows; a huge lam * t gives decay 0.
            with np.errstate(over="ignore"):
                decay = (np.exp(-lam * np.asarray(t, dtype=float)) if np.ndim(t)
                         else math.exp(-lam * t))
            extra = lam * (1.0 - b) * decay / ((1.0 - b) * decay + b)
        return g + extra

    def value_extended(self, t):
        """f(t) for possibly negative t, used by Volterra generators.

        The exponential and quasi-hyperbolic forms extend to all reals; the
        hyperbolic form requires 1 + alpha * t > 0 and raises otherwise, as
        every form does where its value passes the float range.
        """
        t = np.asarray(t, dtype=float)
        if self.alpha > 0.0:
            if np.any(1.0 + self.alpha * t <= 0.0):
                raise ValueError(
                    "hyperbolic discount undefined at 1 + alpha*t <= 0; "
                    "shrink the horizon or alpha"
                )
        out = self._value_raw(t)
        if not np.all(np.isfinite(out)):
            raise ValueError("discount overflows at negative times; shrink the horizon or rates")
        return float(out) if out.ndim == 0 else out

    def _value_raw(self, t):
        t = np.asarray(t, dtype=float)
        g = self.gamma
        # a rate times a huge |t| overflows: for t >= 0 exp then gives the
        # curve's limit 0; value_extended rejects what is not finite
        with np.errstate(over="ignore", invalid="ignore"):
            if self.variant == "quasi_hyperbolic":
                b, lam = self.beta, self.lam
                return (1.0 - b) * np.exp(-t * (lam + g)) + b * np.exp(-g * t)
            a = self.alpha
            if a == 0.0:
                return np.exp(-g * t)
            return np.exp((-g / a) * np.log1p(a * t))

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        out = {"variant": self.variant, "gamma": self.gamma}
        for name, key in _PARAMETERS[self.variant].items():
            out[key] = getattr(self, name)
        return out

    @classmethod
    def from_json(cls, obj) -> "DiscountSpec":
        if isinstance(obj, str):
            obj = json.loads(obj)
        variant = obj["variant"]
        gamma = _number(obj["gamma"], "gamma")
        return cls(variant, gamma, **{name: _number(obj[key], key)
                                      for name, key in _PARAMETERS.get(variant, {}).items()})


def _check_nonnegative(t):
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("discount functions are defined for t >= 0 only")
    if arr.ndim == 0:
        return float(arr)
    return arr
