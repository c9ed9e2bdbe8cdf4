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
lag t - s, so both solvers read them and f(T - s) from one LagTable of 2N + 1 lags,
which this module owns with its lag sums.
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
+ dt sum_j f(t_j - s) cost_j: one cumulative sum per path and one lag sum
of the cost against the lag table, an FFT on a narrow table, and no step loop.
The optimal family's initial profile is one more lag sum over the table
(:func:`_lag_correction`) where the march grid nests the solver grid.
:func:`picard_solve` iterates the same scheme to its fixed point: the
contraction diagnostic, and the reference the march is tested against.

The admissibility (stochastic target) test decodes every row's terminal
value through the s-dependent utility inverse and measures the spread: an
admissible family decodes to one payment, so the spread vanishes with the
step size; an inadmissible one leaves an O(1) residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .closed_form import ContractSolution, default_grid, simpson_weights
from .dynamics import PathEnsemble, _shift_correction
from .hamiltonian import stars_on_grid
from .model import SECOND_BEST_TAGS, DiscountSpec, MarketModel, Preferences, pointwise

LAG_RANGE = 1e3  # the widest max / min of a lag table whose lag sums take an FFT


class ConvergenceError(RuntimeError):
    """Picard iteration failed to contract within the iteration budget."""

    def __init__(self, message, diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


def _narrow(table) -> bool:
    return bool(np.max(np.abs(table)) <= LAG_RANGE * np.min(np.abs(table)))


def _lag_sum(table, weights):
    """np.convolve(table, weights, "valid"), by real FFTs of a power-of-two
    length at least the table's, whose wrap spares that part, if the table is
    narrow: the FFT rounds every sum to about eps times the largest entry."""
    if not _narrow(table):
        return np.convolve(table, weights, "valid")
    size = 1 << (table.size - 1).bit_length()
    product = np.fft.rfft(table, size) * np.fft.rfft(weights, size)
    return np.fft.irfft(product, size)[weights.size - 1:table.size]


@dataclass(frozen=True)
class LagTable:
    """The cost weights w = prefs.cost_weight on the lags of a uniform grid
    0 = s_0 < ... < s_N = T, the curve's one evaluation in a march: values[k]
    = w((N - k) T / N), k = 0..2N, and the views rows[i] = w(T - s_i) and
    windows[j, i] = values[N + i - j] = w(t_j - s_i).  curve is the f they
    are, or None for the ones of a discount outside the utility."""

    grid: np.ndarray
    values: np.ndarray
    curve: Optional[DiscountSpec]

    @classmethod
    def of(cls, prefs: Preferences, grid: np.ndarray) -> "LagTable":
        n = grid.size - 1
        curve = None if prefs.spec_tag == "discounted_utility" else prefs.discount
        return cls(grid, prefs.cost_weight(np.arange(n, -n - 1, -1) * (grid[-1] / n)), curve)

    @property
    def rows(self) -> np.ndarray:
        return self.values[:self.grid.size]

    @property
    def windows(self) -> np.ndarray:
        return sliding_window_view(self.values[1:], self.grid.size)[::-1]


def _lag_correction(model: MarketModel, prefs: Preferences, solution: ContractSolution,
                    table: LagTable) -> np.ndarray:
    """The s-shift correction I(s) of :func:`~tic_contracts.dynamics._shift_correction`
    on the grid of a LagTable of f: where the grid passes through every
    solver point and the table is narrow, one lag sum over the table of the
    Simpson-weighted cost at the solver points; the row blocks otherwise."""
    sg, values, n = solution.grid, table.values, table.grid.size - 1
    g = sg.size - 1
    if not (n % g == 0 and np.array_equal(sg, default_grid(model.horizon, g + 1))
            and _narrow(values)):
        return _shift_correction(model, prefs, solution, table.grid)
    load = np.zeros(n + 1)  # the weighted cost at the solver points, 0 between them
    load[::n // g] = simpson_weights(sg) * pointwise(model.cost, sg, solution.effort_values)
    return _lag_sum(values, load) - values[:n + 1] / values[0] * (load @ values[n::-1])


@dataclass
class VolterraField:
    """Solved field per path: terminal[p, i] = Y^{s_i}_T, the row values
    the stochastic target constraint decodes by decode_weights[i] = f(T - s_i)."""

    grid: np.ndarray
    terminal: np.ndarray
    decode_weights: np.ndarray
    spec_tag: str


@dataclass(frozen=True)
class RemainingCurve:
    """fn(s) = form(s, f(T - s), s), f(T - s) by default: it reads the curve f only
    as f(T - s), so on a LagTable of f :func:`_on_grid` reads form(grid, rows, table)."""

    curve: DiscountSpec
    horizon: float
    form: Callable = lambda s, remaining, at: remaining

    def __call__(self, s):
        return self.form(s, self.curve.value(self.horizon - s), s)


def _on_grid(fn, table: LagTable):
    """fn on the table's grid: its table form where fn reads the table's own
    curve (compared by value) over its horizon, pointwise otherwise."""
    if isinstance(fn, RemainingCurve) and (fn.curve, fn.horizon) == (table.curve, table.grid[-1]):
        return fn.form(table.grid, table.rows, table)
    return pointwise(fn, table.grid)


def _initial_rows(prefs: Preferences, y0_family, ensemble: PathEnsemble):
    """(LagTable, dt, y0, decode weights f(T - s)) on the march grid of a second-best regime."""
    if prefs.spec_tag not in SECOND_BEST_TAGS:
        raise ValueError(f"no Volterra generator for spec {prefs.spec_tag!r}")
    table = LagTable.of(prefs, ensemble.grid)
    return (table, float(table.grid[1] - table.grid[0]), _on_grid(y0_family, table),
            _on_grid(RemainingCurve(prefs.discount, table.grid[-1]), table))


@dataclass(frozen=True)
class ProductFamily:
    """An exposure family z(s, t) = s_factor(s) * t_factor(t), callable as
    z(s, t); :func:`march` sums a risk-neutral agent's field of one in
    closed form."""

    s_factor: Callable
    t_factor: Callable

    def __call__(self, s, t):
        return self.s_factor(s) * self.t_factor(t)


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
    f(t_j - s) from the march's LagTable, so no (s, t) array is formed, and
    does the same arithmetic as one Picard sweep's column.  A risk-neutral
    agent's generator does not read Y: its action depends on the diagonal
    exposures alone, so one batched best response serves the whole march,
    and a :class:`ProductFamily` skips the steps for one closed sum per
    row.  An exponential agent's action reads each path's diagonal value
    Y^{t_j}_{t_j}, which the state holds at step j, so the step loop
    solves it per step.
    """
    table, dt, y0, decode = _initial_rows(prefs, y0_family, ensemble)
    grid = table.grid
    dx = ensemble.increments
    product = isinstance(z_family, ProductFamily)
    if product:
        a, b = _on_grid(z_family.s_factor, table), _on_grid(z_family.t_factor, table)
    z_diag = a * b if product else pointwise(z_family, grid, grid)
    risk_neutral = prefs.agent_utility == "risk_neutral"
    if risk_neutral:
        lam, cost = _diagonal_stars(model, prefs, grid[:-1], z_diag[:-1], None)
        if product:  # see the module doc: the cost's lag sum before the paths' temporaries
            lagged = dt * _lag_sum(table.values[1:], cost)
            # the last cumulative sum, not np.sum, whose pairwise order differs
            path = np.cumsum(b[:-1] * (dx - lam * dt), axis=1)[:, -1:]
            return VolterraField(grid.copy(), y0 + a * path + lagged, decode, prefs.spec_tag)
    weights = table.windows
    # summing the increments apart from y0, as the Picard sweep does, gives
    # its field bit for bit when the generator does not read Y (risk neutral)
    acc = np.zeros((ensemble.n_paths, grid.size))
    for j in range(grid.size - 1):
        z = a * b[j] if product else pointwise(z_family, grid, grid[j])
        stars = (lam[j], cost[j]) if risk_neutral else _diagonal_stars(
            model, prefs, grid[j], z_diag[j], y0[j] + acc[:, j:j + 1])
        step = z * dx[:, j:j + 1]
        step -= _generator(prefs, *stars, weights[j], z, y0 + acc) * dt
        acc += step
    return VolterraField(grid.copy(), y0 + acc, decode, prefs.spec_tag)


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
    table, dt, y0, decode = _initial_rows(prefs, y0_family, ensemble)
    grid = table.grid
    zmat = pointwise(z_family, grid[:, None], grid[None, :])
    z_left = zmat[:, :-1]
    z_diag = np.diagonal(zmat)
    w = table.windows.T
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

    return VolterraField(grid.copy(), np.array(terminal), decode, prefs.spec_tag), all_diffs


def target_constraint_residual(field: VolterraField, prefs: Preferences) -> np.ndarray:
    """Per-path spread of the payment the terminal rows decode to, by the field's f(T - s)."""
    if field.spec_tag != prefs.spec_tag:
        raise ValueError("preferences and field disagree on the spec tag")
    decoded = prefs.decode(field.decode_weights[None, :], field.terminal)
    return np.max(decoded, axis=1) - np.min(decoded, axis=1)


def separable_optimal_family(model: MarketModel, prefs: Preferences, solution):
    """(y0_family, z_family) carrying the solved separable contract.

    The exposure family is the product Z^s_t = f(T-s) * loading(t); the
    initial row values f(T-s) / f(T) * r0 - I(s) correct the discounted
    reservation profile by the s-shift correction I(s) of the equilibrium
    cost, the one the Monte Carlo identity check uses (:func:`_lag_correction`
    on a march's LagTable).  y0_family takes 1-D rows s.
    """
    f, T = prefs.discount, model.horizon
    fT = float(f.value(T))

    def y0(s, remaining, at):  # at: s, or its LagTable
        correction = _lag_correction if isinstance(at, LagTable) else _shift_correction
        return remaining / fT * prefs.r0 - correction(model, prefs, solution, at)

    return RemainingCurve(f, T, y0), ProductFamily(RemainingCurve(f, T), solution.loading)


def s_constant_family(model: MarketModel, prefs: Preferences, solution):
    """Same initial profile, but an exposure family with no s dependence.

    Under a non-exponential curve this family cannot decode to a single
    payment, which is what the residual check is meant to catch.
    """
    y0_family, _ = separable_optimal_family(model, prefs, solution)
    t_factor = RemainingCurve(prefs.discount, model.horizon,
                              lambda t, remaining, at: solution.loading(t) * remaining)
    return y0_family, ProductFamily(np.ones_like, t_factor)
