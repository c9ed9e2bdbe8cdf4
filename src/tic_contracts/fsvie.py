"""Forward Volterra field solver and admissibility checks.

A restricted contract is carried by a family of processes Y^s indexed by
the evaluation time s, coupled through the diagonal (s = t): the action
entering every row's generator is the one optimal for the diagonal
exposure.  With left-endpoint time stepping on a square (s, t) grid,

    Y^s_{t_{j+1}} = Y^s_{t_j} - h(s, t_j, Y^s_{t_j}, Y^{t_j}_{t_j}) dt + Z^s_{t_j} dX_j,

every row's step reads only values at t_j, so :func:`march` solves it
in one forward pass over t.  Its state holds every path's rows, paths
along the first axis; the exposures Z^s_t are evaluated for a tile of
TILE times at once.  On the uniform grid the weights f(t - s) depend only
on the lag t - s, so both solvers read them from one table of 2N lags.
The separable generator's action depends on the diagonal exposure alone,
so one batched best response over the grid serves the whole solve; the
exponential regimes' action reads each path's diagonal value and is
solved per step.  The stochastic integral uses each path's own
increments, so Volterra and Monte Carlo checks share noise.
For a separable :class:`ProductFamily` z(s, t) = a(s) b(t), as both
shipped families are, Y^s_T = y0(s) + a(s) sum_j b_j (dX_j - lam_j dt)
+ dt sum_j f(t_j - s) cost_j: one cumulative sum per path and one
convolution of the cost with the lag table (its negative lags for the
diagonal), with no step loop.
:func:`picard_solve` iterates the same scheme to its fixed point: the
contraction diagnostic, and the reference the march is tested against.

The admissibility (stochastic target) test decodes every row's terminal
value through the s-dependent utility inverse and measures the spread: an
admissible family decodes to one payment, so the spread vanishes with the
step size; an inadmissible one leaves an O(1) residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dynamics import PathEnsemble, _shift_correction
from .hamiltonian import stars_on_grid
from .model import SECOND_BEST_TAGS, MarketModel, Preferences, pointwise

# times per tile of the march's exposures; a 5 MB block at 20000 steps
TILE = 32


class ConvergenceError(RuntimeError):
    """Picard iteration failed to contract within the iteration budget."""

    def __init__(self, message, diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass
class VolterraField:
    """Solved field per path: terminal[p, i] = Y^{s_i}_T,
    diagonal[p, j] = Y^{t_j}_{t_j} and z_diag[j] = Z^{t_j}_{t_j}."""

    grid: np.ndarray
    terminal: np.ndarray
    diagonal: np.ndarray
    z_diag: np.ndarray
    spec_tag: str


def _initial_rows(prefs: Preferences, y0_family, ensemble: PathEnsemble):
    """(grid, dt, y0 on the grid) after checking the regime has a generator."""
    if prefs.spec_tag not in SECOND_BEST_TAGS:
        raise ValueError(f"no Volterra generator for spec {prefs.spec_tag!r}")
    grid = ensemble.grid
    return grid, float(grid[1] - grid[0]), pointwise(y0_family, grid)


def _lag_table(prefs: Preferences, n: int, dt: float):
    """f(m dt) for m = n-1 down to -n (extended where m < 0; checked once)."""
    return prefs.discount.value_extended(np.arange(n - 1, -n - 1, -1) * dt)


def _lag_weights(prefs: Preferences, n: int, dt: float):
    """(n, n+1) weights w[j, i] = f(t_j - s_i) for the n step times t_j and
    the rows s_i; None for discounted_utility, whose cost the discount
    does not weigh.

    On the uniform grid f(t_j - s_i) depends only on the lag j - i, so the
    curve is evaluated once, on the lag table.  The table runs from the
    largest lag down, so every row is a window of it read forward: a view,
    no (n, n+1) array.
    """
    if prefs.spec_tag == "discounted_utility":
        return None
    return sliding_window_view(_lag_table(prefs, n, dt), n + 1)[::-1]


@dataclass(frozen=True)
class ProductFamily:
    """An exposure family z(s, t) = s_factor(s) * t_factor(t), callable as
    z(s, t); :func:`march` sums a separable field of one in closed form."""

    s_factor: Callable
    t_factor: Callable

    def __call__(self, s, t):
        return self.s_factor(s) * self.t_factor(t)


def _product_field(prefs, z_family, grid, dt, y0, dx, lam, cost, z_diag):
    """The separable field of a ProductFamily: a (paths, steps) cumulative
    sum, and the cost convolved with the lag table (see the module doc)."""
    n = grid.size - 1
    a = pointwise(z_family.s_factor, grid)
    path = np.cumsum(pointwise(z_family.t_factor, grid[:-1]) * (dx - lam * dt), axis=1)
    table = _lag_table(prefs, n, dt)
    terminal = y0 + a * path[:, -1:] + dt * np.convolve(table, cost, "valid")
    diagonal = np.empty_like(terminal)
    diagonal[:, 0] = y0[0]
    diagonal[:, 1:] = y0[1:] + a[1:] * path + dt * np.convolve(cost, table[n:])[:n]
    diagonal[:, -1] = terminal[:, -1]
    return VolterraField(grid=grid.copy(), terminal=terminal, diagonal=diagonal,
                         z_diag=z_diag, spec_tag=prefs.spec_tag)


def _separable_drift(lam, cost, z, w, dt):
    """The separable generator times the step, (lam z - w cost) dt, for
    the rows' exposures z and weights w; lam and cost are the agent's
    best response to the diagonal exposure, shared by every row."""
    out = lam * z
    out -= w * cost
    out *= dt
    return out


def _generator(model: MarketModel, prefs: Preferences, t, w, z, y, z_diag, diag):
    """Drift h of the exponential regimes' rows (weights w = f(t - s);
    exposures z; values y) at t.

    The action reads each path's diagonal value, so it is solved per step;
    the diagonal exposure and value broadcast against t, and the row
    arrays against the action.
    """
    if np.any(diag >= 0.0):
        raise ValueError("diagonal left the exponential utility's range (Y >= 0)")
    ga = prefs.gamma_a
    lam, cost, _ = stars_on_grid(model, t, -z_diag / (ga * diag))
    if prefs.spec_tag == "discounted_utility":
        return lam * z + ga * cost * y
    return lam * z + ga * w * cost * y


def march(model: MarketModel, prefs: Preferences, y0_family, z_family,
          ensemble: PathEnsemble) -> VolterraField:
    """Solve the field for every path in the ensemble, marching t forward.

    y0_family maps s to the initial row value; z_family maps (s, t) to the
    row's exposure (vectorized over arrays when possible).  The state holds
    paths along the first axis and rows s along the second.  The exposures
    are evaluated for TILE times at once, a (TILE, s) block, and the
    weights f(t - s) are read from one table of lags, so no (s, t) array is
    formed; each step then does the same arithmetic as one Picard sweep's
    column.  The separable generator does not read Y: its action depends
    on the diagonal exposures alone, so one batched best response serves
    the whole march, and a :class:`ProductFamily` skips the steps for one
    closed sum per row.
    """
    grid, dt, y0 = _initial_rows(prefs, y0_family, ensemble)
    dx = ensemble.increments
    n = grid.size - 1
    z_diag = pointwise(z_family, grid, grid)
    separable = prefs.spec_tag == "separable_rn"
    if separable:
        lam, cost, _ = stars_on_grid(model, grid[:-1], z_diag[:-1])
        if isinstance(z_family, ProductFamily):
            return _product_field(prefs, z_family, grid, dt, y0, dx, lam, cost, z_diag)
    weights = _lag_weights(prefs, n, dt)
    diagonal = np.empty((ensemble.n_paths, grid.size))
    # summing the increments apart from y0, as the Picard sweep does, gives
    # its field bit for bit when the generator does not read Y (separable_rn)
    acc = np.zeros((ensemble.n_paths, grid.size))
    step = np.empty_like(acc)
    for start in range(0, n, TILE):
        stop = min(start + TILE, n)
        zt = pointwise(z_family, grid[None, :], grid[start:stop, None])
        wt = None if weights is None else weights[start:stop]
        for k in range(stop - start):
            j = start + k
            w = None if wt is None else wt[k]
            diagonal[:, j] = y0[j] + acc[:, j]
            np.multiply(zt[k], dx[:, j:j + 1], out=step)
            if separable:
                step -= _separable_drift(lam[j], cost[j], zt[k], w, dt)
            else:
                step -= _generator(model, prefs, grid[j], w, zt[k], y0 + acc, z_diag[j],
                                   diagonal[:, j:j + 1]) * dt
            acc += step
    diagonal[:, -1] = y0[-1] + acc[:, -1]
    return VolterraField(grid=grid.copy(), terminal=y0 + acc, diagonal=diagonal,
                         z_diag=z_diag, spec_tag=prefs.spec_tag)


def picard_solve(model: MarketModel, prefs: Preferences, y0_family, z_family,
                 ensemble: PathEnsemble, tol: float = 1e-10, max_iter: int = 60):
    """Solve the field for every path by Picard iteration from Y^{s,0} = y0(s),

        Y^{s,n+1}_t = y0(s) - sum_{r<t} h(s, r, Y^n) dt + sum_{r<t} Z^s_r dX_r,

    one path's (s, t) iterate at a time.  The fixed point is the field
    :func:`march` computes; the families and the weights f(t - s) are as
    there.

    Returns (VolterraField, diagnostics) where diagnostics is a list, per
    path, of successive sup-norm differences.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    grid, dt, y0 = _initial_rows(prefs, y0_family, ensemble)
    s = grid[:, None]
    zmat = pointwise(z_family, s, grid[None, :])
    z_left = zmat[:, :-1]
    z_diag = np.diagonal(zmat).copy()
    weights = _lag_weights(prefs, grid.size - 1, dt)
    w = None if weights is None else weights.T
    separable = prefs.spec_tag == "separable_rn"
    if separable:
        lam, cost, _ = stars_on_grid(model, grid[:-1], z_diag[:-1])
        drift_dt = _separable_drift(lam, cost, z_left, w, dt)

    terminal, diagonal, all_diffs = [], [], []
    for p in range(ensemble.n_paths):
        mart = z_left * ensemble.increments[p][None, :]
        y = np.tile(y0[:, None], (1, grid.size))
        diffs = []
        for _ in range(max_iter):
            if not separable:
                drift_dt = _generator(model, prefs, grid[:-1], w, z_left, y[:, :-1],
                                      z_diag[:-1], np.diagonal(y)[:-1]) * dt
            y_new = np.empty_like(y)
            y_new[:, 0] = y0
            np.cumsum(mart - drift_dt, axis=1, out=y_new[:, 1:])
            y_new[:, 1:] += y0[:, None]
            diffs.append(float(np.max(np.abs(y_new - y))))
            y = y_new
            if diffs[-1] < tol:
                break
        else:
            raise ConvergenceError(
                f"Picard iteration did not reach tol={tol:g} in {max_iter} sweeps "
                f"(last diff {diffs[-1]:.3e})", diffs)
        terminal.append(y[:, -1].copy())
        diagonal.append(np.diagonal(y).copy())
        all_diffs.append(diffs)

    field = VolterraField(grid=grid.copy(), terminal=np.array(terminal),
                          diagonal=np.array(diagonal), z_diag=z_diag, spec_tag=prefs.spec_tag)
    return field, all_diffs


def target_constraint_residual(field: VolterraField, prefs: Preferences) -> np.ndarray:
    """Per-path spread of the decoded terminal payment across s rows."""
    T = float(field.grid[-1])
    fTs = np.asarray(prefs.discount.value(T - field.grid), dtype=float)
    decoded = prefs.decode(fTs[None, :], field.terminal)
    return np.max(decoded, axis=1) - np.min(decoded, axis=1)


def diagonal_bsde_check(field: VolterraField, model: MarketModel, prefs: Preferences,
                        ensemble: PathEnsemble) -> np.ndarray:
    """Per-path sup distance between the field diagonal and the scalar
    recursion it should satisfy.

    The diagonal of an admissible discounted-utility field follows a
    scalar equation whose drift is the effort trade-off plus a discounting
    tilt (f'(T-t)/f(T-t)) Y.  The tilt is removed exactly with the
    integrating factor f(T-t), so the reported residual is purely the
    discretization error of the trade-off term.  The recursion runs on all
    paths at once.
    """
    if prefs.spec_tag != "discounted_utility" or field.spec_tag != "discounted_utility":
        raise ValueError("the diagonal recursion check covers the discounted-utility spec")
    grid = field.grid
    T = float(grid[-1])
    dt = float(grid[1] - grid[0])
    ga = prefs.gamma_a
    fTt = np.asarray(prefs.discount.value(T - grid), dtype=float)
    d = field.diagonal
    dx = ensemble.increments
    w = np.empty_like(d)
    w[:, 0] = d[:, 0] / fTt[0]
    for j in range(grid.size - 1):
        y_here = w[:, j] * fTt[j]
        z_here = float(field.z_diag[j])
        if np.any(y_here >= 0.0):
            raise ValueError("diagonal left the exponential utility's range")
        lam, cost, _ = stars_on_grid(model, grid[j], -z_here / (ga * y_here))
        big_h = lam * z_here + ga * cost * y_here
        w[:, j + 1] = w[:, j] + (-big_h * dt + z_here * dx[:, j]) / fTt[j]
    return np.max(np.abs(w * fTt - d), axis=1)


def separable_optimal_family(model: MarketModel, prefs: Preferences, solution):
    """(y0_family, z_family) carrying the solved separable contract.

    The exposure family is the product Z^s_t = f(T-s) * loading(t); the
    initial row values f(T-s) / f(T) * r0 - I(s) correct the discounted
    reservation profile by the s-shift correction I(s) of the equilibrium
    cost, the one the Monte Carlo identity check uses.
    """
    f = prefs.discount
    T = model.horizon
    fT = float(f.value(T))

    def y0_family(s_values):
        s = np.atleast_1d(np.asarray(s_values, dtype=float))
        ratio = np.asarray(f.value(T - s), dtype=float) / fT
        out = ratio * prefs.r0 - _shift_correction(model, prefs, solution, s)
        return float(out[0]) if np.isscalar(s_values) else out

    return y0_family, ProductFamily(lambda s: np.asarray(f.value(T - np.asarray(s, dtype=float))),
                                    solution.loading)


def s_constant_family(model: MarketModel, prefs: Preferences, solution):
    """Same initial profile, but an exposure family with no s dependence.

    Under a non-exponential curve this family cannot decode to a single
    payment, which is what the residual check is meant to catch.
    """
    y0_family, _ = separable_optimal_family(model, prefs, solution)
    f = prefs.discount
    T = model.horizon

    def t_factor(t):
        t = np.asarray(t, dtype=float)
        return solution.loading(t) * np.asarray(f.value(T - t))

    return y0_family, ProductFamily(np.ones_like, t_factor)
