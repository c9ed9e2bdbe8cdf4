"""Pointwise maximization of the agent's effort trade-off.

For a volatility exposure z at time t the agent picks the action maximizing
sigma(t) * b(t, a) * z - cost(t, a) over the compact action interval.
:func:`stars_on_grid` is the one best response: the builtin drift/cost
families have an explicit stationary point that only needs clamping
(``MarketModel.closed_response``); anything custom goes through
:func:`search_max`, one batched bounded search over every point at once.
The principal's exposure search in :mod:`tic_contracts.closed_form` is
the same :func:`search_max`, on a fixed bracket of the relative exposure.
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
    shrinks it to SEARCH_TOL (rows drop out as they converge) and two
    centered parabolic steps polish the point below the flat-top noise
    floor of the direct comparisons.

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

    span = np.maximum(hi - lo, 1.0)
    for scale in (1e-5, 1e-6):
        h = scale * span
        xm, xp = x_best - h, x_best + h
        rows = np.flatnonzero((xm >= lo) & (xp <= hi))
        if rows.size == 0:
            continue
        vm, v0, vp = evaluate(np.stack([xm[rows], x_best[rows], xp[rows]], axis=1), rows).T
        denom = vm - 2.0 * v0 + vp
        # require curvature clearly above the rounding noise of the sum
        curved = denom < -1e-12 * (np.abs(vm) + 2.0 * np.abs(v0) + np.abs(vp))
        rows, vm, vp, denom = rows[curved], vm[curved], vp[curved], denom[curved]
        if rows.size == 0:
            continue
        step = 0.5 * h[rows] * (vm - vp) / denom
        cand = np.minimum(np.maximum(x_best[rows] + step, xm[rows]), xp[rows])
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
    closed form; custom callables get one search_max over all points.
    """
    times, z_values = np.broadcast_arrays(np.asarray(t, dtype=float),
                                          np.asarray(z_values, dtype=float))
    if model.families is not None:
        return model.closed_response(z_values)
    sig = model.sigma_at(times)
    s, u, z = (v.ravel().tolist() for v in (sig, times, z_values))
    drift, cost = model.drift, model.cost

    def evaluate(xs, rows):
        # plain floats, one call per point: custom callables run much
        # slower on numpy scalars
        pts = zip(np.repeat(rows, xs.shape[1]).tolist(), xs.ravel().tolist())
        vals = np.fromiter((s[r] * drift(u[r], a) * z[r] - cost(u[r], a) for r, a in pts),
                           dtype=float, count=xs.size)
        return vals.reshape(xs.shape)

    n = len(z)
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
