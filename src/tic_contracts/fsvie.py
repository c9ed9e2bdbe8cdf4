"""Forward Volterra field solver and admissibility checks.

A restricted contract is carried by a family of processes Y^s indexed by
the evaluation time s, coupled through the diagonal (s = t): the action
entering every row's generator is the one optimal for the diagonal
exposure.  A solved field is its terminal rows Y^s_T, the values that must
all decode to one payment; the diagonal is only read on the way, as the
input of the agent's best response.  With left-endpoint time stepping on
a square (s, t) grid,

    Y^s_{t_{j+1}} = Y^s_{t_j} - h(s, t_j, Y^s_{t_j}, Y^{t_j}_{t_j}) dt + Z^s_{t_j} dX_j,

every row's step reads only values at t_j, so :func:`march` solves it
in one forward pass over t.  Its state holds every path's rows, paths
along the first axis; each step evaluates its column of exposures
Z^s_{t_j}.  On the uniform grid the weights f(t - s) depend only on the
lag t - s, so both solvers read them from one table of 2N lags.
A risk-neutral agent's action answers the diagonal exposure alone, so
one batched best response over the grid serves the whole march, and
h = lam z - w cost does not read Y.  An exponential agent's action
answers the exposure over the marginal utility -gamma_a Y, so it reads
each path's diagonal value and is solved per step; h = lam z + gamma_a w cost Y.
The cost weight w is f(t - s), or 1 where the discount sits outside the
utility.  The stochastic integral uses each path's own increments, so a
path's payment is constant_term + sum_j loading(t_j) dX_j on the march
grid; contract_payoff draws its payments from a stream of its own, which
the march does not share.
For a risk-neutral agent and a :class:`ProductFamily` z(s, t) = a(s) b(t),
as both shipped families are, Y^s_T = y0(s) + a(s) sum_j b_j (dX_j - lam_j dt)
+ dt sum_j f(t_j - s) cost_j: one cumulative sum per path and one
convolution of the cost with the lag table, with no step loop.
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


class ConvergenceError(RuntimeError):
    """Picard iteration failed to contract within the iteration budget."""

    def __init__(self, message, diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass
class VolterraField:
    """Solved field per path: terminal[p, i] = Y^{s_i}_T, the row values
    the stochastic target constraint decodes."""

    grid: np.ndarray
    terminal: np.ndarray
    spec_tag: str


def _initial_rows(prefs: Preferences, y0_family, ensemble: PathEnsemble):
    """(grid, dt, y0 on the grid) after checking the regime has a generator."""
    if prefs.spec_tag not in SECOND_BEST_TAGS:
        raise ValueError(f"no Volterra generator for spec {prefs.spec_tag!r}")
    grid = ensemble.grid
    return grid, float(grid[1] - grid[0]), pointwise(y0_family, grid)


def _lag_table(prefs: Preferences, n: int, dt: float):
    """The cost weights at the lags m dt for m = n-1 down to -n."""
    return prefs.cost_weight(np.arange(n - 1, -n - 1, -1) * dt)


def _lag_weights(prefs: Preferences, n: int, dt: float):
    """(n, n+1) cost weights w[j, i] at the lags t_j - s_i, for the n step
    times t_j and the rows s_i.

    On the uniform grid a weight depends only on the lag j - i, so the
    curve is evaluated once, on the lag table.  The table runs from the
    largest lag down, so every row is a window of it read forward: a view,
    no (n, n+1) array.
    """
    return sliding_window_view(_lag_table(prefs, n, dt), n + 1)[::-1]


@dataclass(frozen=True)
class ProductFamily:
    """An exposure family z(s, t) = s_factor(s) * t_factor(t), callable as
    z(s, t); :func:`march` sums a risk-neutral agent's field of one in
    closed form."""

    s_factor: Callable
    t_factor: Callable

    def __call__(self, s, t):
        return self.s_factor(s) * self.t_factor(t)


def _product_field(prefs, z_family, grid, dt, y0, dx, lam, cost):
    """A risk-neutral agent's field of a ProductFamily: each path's sum,
    and the cost convolved with the lag table (see the module doc)."""
    a = pointwise(z_family.s_factor, grid)
    # the last cumulative sum, not np.sum, whose pairwise order differs
    path = np.cumsum(pointwise(z_family.t_factor, grid[:-1]) * (dx - lam * dt), axis=1)[:, -1:]
    table = _lag_table(prefs, grid.size - 1, dt)
    terminal = y0 + a * path + dt * np.convolve(table, cost, "valid")
    return VolterraField(grid=grid.copy(), terminal=terminal, spec_tag=prefs.spec_tag)


def _diagonal_stars(model: MarketModel, prefs: Preferences, t, z_diag, diag):
    """(lam, cost) of the agent's best response at t to the diagonal
    exposure z_diag and value diag: the exposure itself for a risk-neutral
    agent, the exposure over the marginal utility -gamma_a diag for an
    exponential one.  Every argument broadcasts against t."""
    if prefs.agent_utility == "risk_neutral":
        return stars_on_grid(model, t, z_diag)[:2]
    if np.any(diag >= 0.0):
        raise ValueError("diagonal left the exponential utility's range (Y >= 0)")
    return stars_on_grid(model, t, -z_diag / (prefs.gamma_a * diag))[:2]


def _generator(prefs: Preferences, lam, cost, w, z, y):
    """The drift h of rows with cost weights w, exposures z and values y,
    under the best response (lam, cost): lam z - w cost for a risk-neutral
    agent, lam z + gamma_a w cost y for an exponential one."""
    if prefs.agent_utility == "risk_neutral":
        return lam * z - w * cost
    return lam * z + prefs.gamma_a * w * cost * y


def march(model: MarketModel, prefs: Preferences, y0_family, z_family,
          ensemble: PathEnsemble) -> VolterraField:
    """Solve every path's terminal rows Y^s_T, marching t forward.

    y0_family maps s to the initial row value; z_family maps (s, t) to the
    row's exposure; both take numpy arrays (see
    :func:`~tic_contracts.model.pointwise`).  The state holds
    paths along the first axis and rows s along the second.  Each step
    evaluates its column of exposures z(s, t_j) and reads the weights
    f(t_j - s) from one table of lags, so no (s, t) array is formed, and
    does the same arithmetic as one Picard sweep's column.  A risk-neutral
    agent's generator does not read Y: its action depends on the diagonal
    exposures alone, so one batched best response serves the whole march,
    and a :class:`ProductFamily` skips the steps for one closed sum per
    row.  An exponential agent's action reads each path's diagonal value
    Y^{t_j}_{t_j}, which the state holds at step j, so the step loop
    solves it per step.
    """
    grid, dt, y0 = _initial_rows(prefs, y0_family, ensemble)
    dx = ensemble.increments
    n = grid.size - 1
    z_diag = pointwise(z_family, grid, grid)
    risk_neutral = prefs.agent_utility == "risk_neutral"
    if risk_neutral:
        lam, cost = _diagonal_stars(model, prefs, grid[:-1], z_diag[:-1], None)
        if isinstance(z_family, ProductFamily):
            return _product_field(prefs, z_family, grid, dt, y0, dx, lam, cost)
    weights = _lag_weights(prefs, n, dt)
    # summing the increments apart from y0, as the Picard sweep does, gives
    # its field bit for bit when the generator does not read Y (risk neutral)
    acc = np.zeros((ensemble.n_paths, grid.size))
    for j in range(n):
        z = pointwise(z_family, grid, grid[j])
        stars = (lam[j], cost[j]) if risk_neutral else _diagonal_stars(
            model, prefs, grid[j], z_diag[j], y0[j] + acc[:, j:j + 1])
        step = z * dx[:, j:j + 1]
        step -= _generator(prefs, *stars, weights[j], z, y0 + acc) * dt
        acc += step
    return VolterraField(grid=grid.copy(), terminal=y0 + acc, spec_tag=prefs.spec_tag)


def picard_solve(model: MarketModel, prefs: Preferences, y0_family, z_family,
                 ensemble: PathEnsemble, tol: float = 1e-10, max_iter: int = 60):
    """Solve the field for every path by Picard iteration from Y^{s,0} = y0(s),

        Y^{s,n+1}_t = y0(s) - sum_{r<t} h(s, r, Y^n) dt + sum_{r<t} Z^s_r dX_r,

    one path's (s, t) iterate at a time.  The fixed point is the field
    :func:`march` computes; the families, the weights and the generator
    are as there.  Every sweep takes the agent's best response to its
    iterate's diagonal; a risk-neutral agent's does not read it, so the
    second sweep reproduces the first.

    Returns (VolterraField, diagnostics) where diagnostics is a list, per
    path, of successive sup-norm differences.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    grid, dt, y0 = _initial_rows(prefs, y0_family, ensemble)
    s = grid[:, None]
    zmat = pointwise(z_family, s, grid[None, :])
    z_left = zmat[:, :-1]
    z_diag = np.diagonal(zmat)
    w = _lag_weights(prefs, grid.size - 1, dt).T
    dx = ensemble.increments

    terminal, all_diffs = [], []
    for p in range(ensemble.n_paths):
        mart = z_left * dx[p][None, :]
        y = np.tile(y0[:, None], (1, grid.size))
        diffs = []
        for _ in range(max_iter):
            lam, cost = _diagonal_stars(model, prefs, grid[:-1], z_diag[:-1],
                                        np.diagonal(y)[:-1])
            drift_dt = _generator(prefs, lam, cost, w, z_left, y[:, :-1]) * dt
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
        all_diffs.append(diffs)

    field = VolterraField(grid=grid.copy(), terminal=np.array(terminal),
                          spec_tag=prefs.spec_tag)
    return field, all_diffs


def target_constraint_residual(field: VolterraField, prefs: Preferences) -> np.ndarray:
    """Per-path spread of the decoded terminal payment across s rows."""
    if field.spec_tag != prefs.spec_tag:
        raise ValueError("preferences and field disagree on the spec tag")
    T = float(field.grid[-1])
    fTs = np.asarray(prefs.discount.value(T - field.grid), dtype=float)
    decoded = prefs.decode(fTs[None, :], field.terminal)
    return np.max(decoded, axis=1) - np.min(decoded, axis=1)


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

    def y0_family(rows):
        s = np.atleast_1d(np.asarray(rows, dtype=float))
        ratio = np.asarray(f.value(T - s), dtype=float) / fT
        out = ratio * prefs.r0 - _shift_correction(model, prefs, solution, s)
        return float(out[0]) if np.isscalar(rows) else out

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
