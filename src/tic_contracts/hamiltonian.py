"""Pointwise maximization of the agent's effort trade-off.

For a volatility exposure z at time t the agent picks the action maximizing
sigma(t) * b(t, a) * z - cost(t, a) over the compact action interval.
:func:`stars_on_grid` is the one best response: the builtin drift/cost
families have an explicit stationary point that only needs clamping
(``MarketModel.closed_response``); anything custom goes through
:func:`search_max`, one batched bounded search over every point at once,
whose candidates are evaluated on whole arrays through
:func:`~tic_contracts.model.pointwise`, one call per candidate array.
The principal's exposure search in
:mod:`tic_contracts.closed_form` is the same :func:`search_max`, on a
fixed bracket of the relative exposure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import MarketModel, pointwise

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

SEARCH_TOL = 1e-10
_ACTION_SCAN = 64


@dataclass(frozen=True)
class HamiltonianResult:
    value: float
    argmax: float
    at_boundary: bool


def search_max(evaluate, lo, hi, points):
    """Row-wise maximum on [lo, hi]; ties resolve to the smaller argument.

    evaluate(xs, rows) receives an (m, k) array of candidates for the rows
    ``rows`` (an integer index array of length m) and returns their values
    as an (m, k) array; lo and hi are float arrays with one bound per row.
    A ``points``-point scan picks the best cell pair, golden section
    shrinks it to SEARCH_TOL (rows drop out as they converge) and one
    Newton step polishes the point below the flat-top noise floor of the
    direct comparisons.  Its slope and curvature come from five-point
    central differences at h = 1e-4 max(hi - lo, 1), wide enough that the
    values' rounding noise barely moves them; the step is clipped to 2h
    and taken where the curvature stands clearly above that noise (never
    where the stencil overflows) and the value does not fall beyond a tie.

    Returns (argmax, value) arrays with one entry per row.
    """
    every = np.arange(lo.size)
    xs = np.linspace(lo, hi, points, axis=1)
    best = np.argmax(evaluate(xs, every), axis=1)
    a = xs[every, np.maximum(best - 1, 0)]
    b = xs[every, np.minimum(best + 1, points - 1)]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = evaluate(np.stack([c, d], axis=1), every).T
    active = np.flatnonzero(b - a > SEARCH_TOL)
    while active.size:
        left = fc[active] >= fd[active]
        a_i = np.where(left, a[active], c[active])
        b_i = np.where(left, d[active], b[active])
        x = np.where(left, b_i - _INVPHI * (b_i - a_i), a_i + _INVPHI * (b_i - a_i))
        fx = evaluate(x[:, None], active)[:, 0]
        c_i = np.where(left, x, d[active])
        d_i = np.where(left, c[active], x)
        fc_i = np.where(left, fx, fd[active])
        fd_i = np.where(left, fc[active], fx)
        a[active], b[active], c[active], d[active] = a_i, b_i, c_i, d_i
        fc[active], fd[active] = fc_i, fd_i
        active = active[b_i - a_i > SEARCH_TOL]
    x_best = np.where(fc >= fd, c, d)
    f_best = np.where(fc >= fd, fc, fd)

    h = 1e-4 * np.maximum(hi - lo, 1.0)
    rows = np.flatnonzero((x_best - 2.0 * h >= lo) & (x_best + 2.0 * h <= hi))
    if rows.size:
        h = h[rows]
        stencil = x_best[rows, None] + h[:, None] * np.arange(-2.0, 3.0)
        f2m, f1m, f0, f1p, f2p = evaluate(stencil, rows).T
        # the five-point slope and curvature, times 12 h and 12 h^2
        with np.errstate(over="ignore", invalid="ignore"):
            slope = f2m - 8.0 * f1m + 8.0 * f1p - f2p
            curve = -f2m + 16.0 * f1m - 30.0 * f0 + 16.0 * f1p - f2p
            # require curvature clearly above the rounding noise of the sum
            curved = curve < -1e-12 * (np.abs(f2m) + 16.0 * np.abs(f1m) + 30.0 * np.abs(f0)
                                       + 16.0 * np.abs(f1p) + np.abs(f2p))
        rows, h = rows[curved], h[curved]
        step = -h * slope[curved] / curve[curved]
    if rows.size:
        cand = x_best[rows] + np.clip(step, -2.0 * h, 2.0 * h)
        fcand = evaluate(cand[:, None], rows)[:, 0]
        # near the flat top the improvement is below rounding; the vertex of
        # a concave fit is still the better point, so accept any value tie
        take = fcand >= f_best[rows] - 1e-12 * (1.0 + np.abs(f_best[rows]))
        x_best[rows[take]] = cand[take]
        f_best[rows[take]] = fcand[take]
    return x_best, f_best


def stars_on_grid(model: MarketModel, t, z_values):
    """Best response (lam, cost, argmax) at every exposure in z_values.

    t is one time for every exposure, or an array of times broadcast
    against z_values (a column of one time per row pairs each time with
    its own row).  Returns arrays of the broadcast shape: lam = sigma(t)
    b(t, argmax) and cost = cost(t, argmax).  Builtin families use their
    closed form; custom callables get one search_max over all points,
    evaluating sigma b z - cost on its candidate arrays through pointwise.
    """
    times, z_values = np.broadcast_arrays(np.asarray(t, dtype=float),
                                          np.asarray(z_values, dtype=float))
    if model.families is not None:
        return model.closed_response(z_values)
    sig = model.sigma_at(times)
    s, u, z = (v.reshape(-1, 1) for v in (sig, times, z_values))

    def evaluate(xs, rows):
        t = u[rows]
        return s[rows] * pointwise(model.drift, t, xs) * z[rows] - pointwise(model.cost, t, xs)

    n = z.size
    arg = search_max(evaluate, np.full(n, model.action_lo), np.full(n, model.action_hi),
                     _ACTION_SCAN)[0].reshape(z_values.shape)
    return sig * pointwise(model.drift, times, arg), pointwise(model.cost, times, arg), arg


def maximize(model: MarketModel, t: float, z: float) -> HamiltonianResult:
    """Best effort response and its value at one time and exposure z: the
    one-point :func:`stars_on_grid`.

    The trade-off has the same shape for every second-best regime (the
    diagonal cost weight is one), so no regime is read.
    """
    if not np.isfinite(z):
        raise ValueError("exposure z must be finite")
    lam, cost, a_star = (float(v) for v in stars_on_grid(model, t, z))
    edge = max(1e-9, 1e-12 * (model.action_hi - model.action_lo))
    at_boundary = (a_star - model.action_lo) < edge or (model.action_hi - a_star) < edge
    return HamiltonianResult(value=lam * float(z) - cost, argmax=a_star, at_boundary=at_boundary)
