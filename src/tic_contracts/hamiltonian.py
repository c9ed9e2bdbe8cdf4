"""Pointwise maximization of the agent's effort trade-off.

For a volatility exposure z at time t the agent picks the action maximizing
sigma(t) * b(t, a) * z - cost(t, a) over the compact action interval.
:func:`stars_on_grid` is the one best response: the builtin drift/cost
families have an explicit stationary point that only needs clamping
(``MarketModel.closed_response``); anything custom goes through a coarse
scan plus golden-section refinement with a parabolic polish, per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import MarketModel, pointwise

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

ACTION_TOL = 1e-10
_COARSE = 64


@dataclass(frozen=True)
class HamiltonianResult:
    value: float
    argmax: float
    at_boundary: bool


def search_max(fn, lo, hi):
    """Maximize fn on [lo, hi]; ties resolve to the smaller argument.

    Coarse scan locates the best cell, golden-section shrinks it to
    ACTION_TOL, then two centered parabolic steps polish the point below
    the flat-top noise floor of the direct comparisons.
    """
    lo = float(lo)
    hi = float(hi)
    if hi <= lo:
        return lo, float(fn(lo))
    # plain floats: custom callables run much slower on numpy scalars
    xs = np.linspace(lo, hi, _COARSE).tolist()
    vals = np.asarray([float(fn(x)) for x in xs])
    best = int(np.argmax(vals))
    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, _COARSE - 1)]

    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = float(fn(c))
    fd = float(fn(d))
    while b - a > ACTION_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = float(fn(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = float(fn(d))
    if fc >= fd:
        x_best, f_best = c, fc
    else:
        x_best, f_best = d, fd

    span = hi - lo
    for h in (1e-5 * max(span, 1.0), 1e-6 * max(span, 1.0)):
        xm, xp = x_best - h, x_best + h
        if xm < lo or xp > hi:
            continue
        vm, v0, vp = float(fn(xm)), float(fn(x_best)), float(fn(xp))
        denom = vm - 2.0 * v0 + vp
        # require curvature clearly above the rounding noise of the sum
        if not denom < -1e-12 * (abs(vm) + 2.0 * abs(v0) + abs(vp)):
            continue
        step = 0.5 * h * (vm - vp) / denom
        cand = min(max(x_best + step, xm), xp)
        fcand = float(fn(cand))
        # near the flat top the improvement is below rounding; the vertex of
        # a concave fit is still the better point, so accept any value tie
        if fcand >= f_best - 1e-12 * (1.0 + abs(f_best)):
            x_best, f_best = cand, fcand
    return x_best, f_best


def stars_on_grid(model: MarketModel, t, z_values):
    """Best response (lam, cost, argmax) at every exposure in z_values.

    t is one time for every exposure, or an array of times broadcast
    against z_values (a column of one time per row pairs each time with
    its own row).  Returns arrays of the broadcast shape: lam = sigma(t)
    b(t, argmax) and cost = cost(t, argmax).  Builtin families use their
    closed form; custom callables get search_max at each point.
    """
    times, z_values = np.broadcast_arrays(np.asarray(t, dtype=float),
                                          np.asarray(z_values, dtype=float))
    if model.families is not None:
        return model.closed_response(z_values)
    sig = model.sigma_at(times)
    arg = np.empty(z_values.shape)
    for i, (s, u, z) in enumerate(zip(sig.ravel().tolist(), times.ravel().tolist(),
                                      z_values.ravel().tolist())):
        arg.flat[i] = search_max(lambda a: s * model.drift(u, a) * z - model.cost(u, a),
                                 model.action_lo, model.action_hi)[0]
    return sig * pointwise(model.drift, times, arg), pointwise(model.cost, times, arg), arg


def stars_at(model: MarketModel, t: float, z: float):
    """(lam, cost, argmax) at one time and exposure: the one-point stars_on_grid."""
    return tuple(float(v) for v in stars_on_grid(model, t, z))


def maximize(model: MarketModel, t: float, z: float,
             spec_tag: str = "separable_rn") -> HamiltonianResult:
    """Best effort response and its value at exposure z.

    The trade-off has the same shape for every second-best regime (the
    diagonal cost weight is one); first-best tags have no agent
    Hamiltonian and are rejected.
    """
    if spec_tag in ("first_best_nonseparable", "first_best_separable"):
        raise ValueError(f"{spec_tag} has no agent-side maximization")
    if not np.isfinite(z):
        raise ValueError("exposure z must be finite")
    lam, cost, a_star = stars_at(model, t, z)
    edge = max(1e-9, 1e-12 * (model.action_hi - model.action_lo))
    at_boundary = (a_star - model.action_lo) < edge or (model.action_hi - a_star) < edge
    return HamiltonianResult(value=lam * float(z) - cost, argmax=a_star, at_boundary=at_boundary)
