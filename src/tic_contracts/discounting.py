"""Discount curves and their instantaneous rates.

Three parametric families are supported:

* exponential        f(t) = exp(-gamma * t)
* hyperbolic         f(t) = (1 + alpha * t) ** (-gamma / alpha)
* quasi-hyperbolic   f(t) = (1 - beta) * exp(-t * (lam + gamma)) + beta * exp(-gamma * t)

All three satisfy f(0) = 1 and f > 0, and each comes with a closed-form
instantaneous discount rate idr(t) = -f'(t) / f(t).  The exponential
family has constant idr; the other two do not, which is what makes an
agent discounting with them time-inconsistent.  The exponential curve is
evaluated as the hyperbolic one at alpha = 0.

The public evaluators reject negative times.  Generator code that needs
f(r - s) for r < s goes through :meth:`DiscountSpec.value_extended`, which
accepts any argument for which the closed form is defined (for the
hyperbolic family that means 1 + alpha * t > 0).
"""

from __future__ import annotations

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
    default, so every spec is one that from_json can build; the factory
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
            if not math.isfinite(self.lam + self.gamma):  # f(0) would be exp(0 * inf)
                raise ValueError("lambda + gamma must be finite")

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
        """f(t) for t >= 0, elementwise: float64 of t's shape."""
        return self._value_raw(_check_nonnegative(t))

    def idr(self, t):
        """Instantaneous discount rate -f'(t)/f(t), elementwise, by its closed form.

        Computed from the per-variant formula rather than as a quotient of
        f' and f, so it stays stable for large t where both underflow.
        """
        t = _check_nonnegative(t)
        g = self.gamma
        if self.variant != "quasi_hyperbolic":
            a = self.alpha
            if a == 0.0:
                return np.full(t.shape, g)
            with np.errstate(over="ignore"):  # a huge alpha t: the rate is 0
                return g / (1.0 + a * t)
        b, lam = self.beta, self.lam
        if b == 0.0:
            return np.full(t.shape, g + lam)
        # lam (1-b) / ((1-b) + b e^{t lam}), rearranged with e^{-t lam}
        # so the denominator never overflows; a huge lam * t gives decay 0,
        # and b = 1 gives exactly 0, since decay lies in [0, 1]
        with np.errstate(over="ignore"):
            decay = np.exp(-lam * t)
        return g + lam * (1.0 - b) * decay / ((1.0 - b) * decay + b)

    def value_extended(self, t):
        """f(t) elementwise for any t, negative too, used by Volterra generators.

        The exponential, quasi-hyperbolic and flat forms extend to all reals;
        the hyperbolic form requires 1 + alpha * t > 0 and raises otherwise,
        as every form does where its value passes the float range.
        """
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):  # an overflow reads +inf, inside the domain
            if self.alpha > 0.0 and self.gamma > 0.0 and np.any(1.0 + self.alpha * t <= 0.0):
                raise ValueError(
                    "hyperbolic discount undefined at 1 + alpha*t <= 0; "
                    "shrink the horizon or alpha"
                )
        out = self._value_raw(t)
        if not np.all(np.isfinite(out)):
            raise ValueError("discount overflows at negative times; shrink the horizon or rates")
        return out

    def _value_raw(self, t):
        """f at the float array t, unchecked."""
        g = self.gamma
        # a rate times a huge |t| overflows: for t >= 0 exp then gives the
        # curve's limit 0; value_extended rejects what is not finite
        with np.errstate(over="ignore", invalid="ignore"):
            if self.variant == "quasi_hyperbolic":
                b, lam = self.beta, self.lam
                return (1.0 - b) * np.exp(-t * (lam + g)) + b * np.exp(-g * t)
            a = self.alpha
            if g == 0.0:  # flat: 1, also where a * t overflows
                return np.ones(t.shape)
            if a == 0.0:
                return np.exp(-g * t)
            return np.exp((-g / a) * np.log1p(a * t))

    # -- JSON input ------------------------------------------------------

    @classmethod
    def from_json(cls, obj) -> "DiscountSpec":
        variant = obj["variant"]
        gamma = _number(obj["gamma"], "gamma")
        return cls(variant, gamma, **{name: _number(obj[key], key)
                                      for name, key in _PARAMETERS.get(variant, {}).items()})


def _check_nonnegative(t):
    """t as a float array (0-d for a scalar), refused where it is negative."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("discount functions are defined for t >= 0 only")
    return t
