"""Forward Volterra field solver and admissibility checks.

A restricted contract is carried by a family of processes Y^s indexed by
the evaluation time s, coupled through the diagonal (s = t): the action
entering every row's generator is the one optimal for the diagonal
exposure.  With left-endpoint time stepping on a square (s, t) grid,

    Y^s_{t_{j+1}} = Y^s_{t_j} - h(s, t_j, Y^s_{t_j}, Y^{t_j}_{t_j}) dt + Z^s_{t_j} dX_j,

every row's step reads only values at t_j, so :func:`march` solves it
in one forward pass over t.  The stochastic integral uses each path's own
increments, so Volterra and Monte Carlo checks share noise.
:func:`picard_solve` iterates the same scheme to its fixed point: the
contraction diagnostic, and the reference the march is tested against.

The admissibility (stochastic target) test decodes every row's terminal
value through the s-dependent utility inverse and measures the spread: an
admissible family decodes to one payment, so the spread vanishes with the
step size; an inadmissible one leaves an O(1) residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_form import simpson
from .dynamics import PathEnsemble
from .hamiltonian import stars_on_grid
from .model import SECOND_BEST_TAGS, MarketModel, Preferences, pointwise


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


def _generator(model: MarketModel, prefs: Preferences, t, s, z, y, z_diag, diag):
    """Drift h of the rows (times s, a column; exposures z; values y) at t.

    t and the diagonal exposure and value, which fix the agent's action
    for every row, vary along the last axis.  A discounted cost is weighed
    by f(t - s), on the curve's analytic extension where t < s.
    """
    tag = prefs.spec_tag
    if tag == "separable_rn":
        lam, cost, _ = stars_on_grid(model, t, z_diag)
        return lam * z - prefs.discount.value_extended(t - s) * cost
    if np.any(diag >= 0.0):
        raise ValueError("diagonal left the exponential utility's range (Y >= 0)")
    ga = prefs.gamma_a
    lam, cost, _ = stars_on_grid(model, t, -z_diag / (ga * diag))
    if tag == "discounted_utility":
        return lam * z + ga * cost * y
    return lam * z + ga * prefs.discount.value_extended(t - s) * cost * y


def march(model: MarketModel, prefs: Preferences, y0_family, z_family,
          ensemble: PathEnsemble) -> VolterraField:
    """Solve the field for every path in the ensemble, marching t forward.

    y0_family maps s to the initial row value; z_family maps (s, t) to the
    row's exposure (vectorized over arrays when possible).  Both are
    evaluated one time at a time, so no (s, t) array is formed.
    """
    grid, dt, y0 = _initial_rows(prefs, y0_family, ensemble)
    s = grid[:, None]
    dx = ensemble.increments
    z_diag = pointwise(z_family, grid, grid)
    diagonal = np.empty((ensemble.n_paths, grid.size))
    # summing the increments apart from y0, as the Picard sweep does, gives
    # its field bit for bit when the generator does not read Y (separable_rn)
    acc = np.zeros((grid.size, ensemble.n_paths))
    y = y0[:, None] + acc
    for j, t in enumerate(grid[:-1]):
        diagonal[:, j] = y[j]
        z = pointwise(z_family, grid, t)[:, None]
        drift = _generator(model, prefs, t, s, z, y, z_diag[j], y[j])
        acc += z * dx[:, j] - drift * dt
        np.add(y0[:, None], acc, out=y)
    diagonal[:, -1] = y[-1]
    return VolterraField(grid=grid.copy(), terminal=y.T.copy(), diagonal=diagonal,
                         z_diag=z_diag, spec_tag=prefs.spec_tag)


def picard_solve(model: MarketModel, prefs: Preferences, y0_family, z_family,
                 ensemble: PathEnsemble, tol: float = 1e-10, max_iter: int = 60):
    """Solve the field for every path by Picard iteration from Y^{s,0} = y0(s),

        Y^{s,n+1}_t = y0(s) - sum_{r<t} h(s, r, Y^n) dt + sum_{r<t} Z^s_r dX_r,

    one path's (s, t) iterate at a time.  The fixed point is the field
    :func:`march` computes; the families are as there.

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

    terminal, diagonal, all_diffs = [], [], []
    for p in range(ensemble.n_paths):
        mart = z_left * ensemble.increments[p][None, :]
        y = np.tile(y0[:, None], (1, grid.size))
        diffs = []
        for _ in range(max_iter):
            drift = _generator(model, prefs, grid[:-1], s, z_left, y[:, :-1],
                               z_diag[:-1], np.diagonal(y)[:-1])
            y_new = np.empty_like(y)
            y_new[:, 0] = y0
            np.cumsum(mart - drift * dt, axis=1, out=y_new[:, 1:])
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

    The exposure family is Z^s_t = f(T-s) * loading(t); the initial row
    values correct the discounted reservation profile by the s-shift
    integral of the equilibrium cost.
    """
    f = prefs.discount
    T = model.horizon
    fT = float(f.value(T))
    sg = solution.grid
    cost_eq = pointwise(model.cost, sg, solution.effort_values)
    f_sg = np.asarray(f.value(sg), dtype=float)

    def y0_family(s_values):
        s = np.atleast_1d(np.asarray(s_values, dtype=float))
        fTs = np.asarray(f.value(T - s), dtype=float)
        shifted = np.asarray(f.value_extended(sg[None, :] - s[:, None]), dtype=float)
        delta = cost_eq[None, :] * (shifted - (fTs / fT)[:, None] * f_sg[None, :])
        integ = simpson(delta, sg, axis=1)
        out = (fTs / fT) * prefs.r0 - integ
        return float(out[0]) if np.isscalar(s_values) else out

    def z_family(s, t):
        return np.asarray(f.value(T - np.asarray(s, dtype=float))) * solution.loading(t)

    return y0_family, z_family


def s_constant_family(model: MarketModel, prefs: Preferences, solution):
    """Same initial profile, but an exposure family with no s dependence.

    Under a non-exponential curve this family cannot decode to a single
    payment, which is what the residual check is meant to catch.
    """
    y0_family, _ = separable_optimal_family(model, prefs, solution)
    f = prefs.discount
    T = model.horizon

    def z_family(s, t):
        t = np.asarray(t, dtype=float)
        return solution.loading(t) * np.asarray(f.value(T - t)) \
            * np.ones_like(np.asarray(s, dtype=float))

    return y0_family, z_family
