"""Forward Volterra field solver and admissibility checks.

A restricted contract is carried by a family of processes Y^s indexed by
the evaluation time s, coupled through the diagonal (s = t): the action
entering every row's generator is the one optimal for the diagonal
exposure.  On a square (s, t) grid and per simulated path, the field is
computed by explicit Picard iteration,

    Y^{s,n+1}_t = y0(s) - sum_{r<t} h(s, r, Y^n) dt + sum_{r<t} Z^s_r dX_r,

with left-endpoint time stepping and the path's own increments for the
stochastic integral, so Volterra checks and Monte Carlo checks share
noise.

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
from .hamiltonian import stars_at, stars_on_grid
from .model import MarketModel, Preferences

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 60


class ConvergenceError(RuntimeError):
    """Picard iteration failed to contract within the iteration budget."""

    def __init__(self, message, diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass
class VolterraField:
    """Solved field per path: values[p, i, j] = Y^{s_i}_{t_j}."""

    s_grid: np.ndarray
    t_grid: np.ndarray
    values: np.ndarray
    diagonal: np.ndarray
    z_diag: np.ndarray
    z_family: object
    z_label: str
    spec_tag: str

    def export_csv(self, path: str):
        """Write the field as long-form rows (path, s, t, Y)."""
        n_paths, ns, nt = self.values.shape
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("path,s,t,Y\n")
            for p in range(n_paths):
                for i in range(ns):
                    s = repr(float(self.s_grid[i]))
                    row = self.values[p, i]
                    for j in range(nt):
                        fh.write(f"{p},{s},{float(self.t_grid[j])!r},{float(row[j])!r}\n")


# what a scalar-only family raises on arrays: float() of an array or a
# math function (TypeError), or an ambiguous truth value (ValueError)
_SCALAR_ONLY = (TypeError, ValueError)


def _family_matrix(fn, s_grid, t_grid):
    smat, tmat = np.meshgrid(s_grid, t_grid, indexing="ij")
    try:
        out = np.asarray(fn(smat, tmat), dtype=float)
        if out.shape == smat.shape:
            return out
    except _SCALAR_ONLY:
        pass
    out = np.empty_like(smat)
    for i, s in enumerate(s_grid):
        for j, t in enumerate(t_grid):
            out[i, j] = fn(float(s), float(t))
    return out


def _y0_vector(y0_family, s_grid):
    try:
        out = np.asarray(y0_family(s_grid), dtype=float)
        if out.shape == s_grid.shape:
            return out
    except _SCALAR_ONLY:
        pass
    return np.asarray([float(y0_family(float(s))) for s in s_grid])


def picard_solve(model: MarketModel, prefs: Preferences, y0_family, z_family,
                 ensemble: PathEnsemble, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER, init: str = "flat"):
    """Solve the field for every path in the ensemble.

    y0_family maps s to the initial row value; z_family maps (s, t) to the
    row's exposure (vectorized over meshgrids when possible).  init picks
    the Picard starting point: "flat" starts every row at y0(s), "zero"
    at zero (the two must meet at the same fixed point).

    Returns (VolterraField, diagnostics) where diagnostics is a list, per
    path, of successive sup-norm differences.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if init not in ("flat", "zero"):
        raise ValueError("init must be 'flat' or 'zero'")
    tag = prefs.spec_tag
    if tag not in ("separable_rn", "discounted_utility", "discounted_income"):
        raise ValueError(f"no Volterra generator for spec {tag!r}")
    grid = ensemble.grid
    n_nodes = grid.size
    t_left = grid[:-1]
    dt = float(grid[1] - grid[0])
    ga = prefs.gamma_a
    f = prefs.discount

    zmat = _family_matrix(z_family, grid, grid)
    y0 = _y0_vector(y0_family, grid)
    z_left = zmat[:, :-1]
    z_diag_left = np.diagonal(zmat)[:-1].copy()

    shift = None
    if tag in ("separable_rn", "discounted_income"):
        # f(r - s) on the (s, r) rectangle; negative arguments use the
        # curve's analytic extension
        shift = np.asarray(
            f.value_extended(t_left[None, :] - grid[:, None]), dtype=float)

    fields = np.empty((ensemble.n_paths, n_nodes, n_nodes), dtype=np.float64)
    all_diffs = []
    for p in range(ensemble.n_paths):
        dx = ensemble.increments[p]
        mart = z_left * dx[None, :]
        y = np.tile(y0[:, None], (1, n_nodes)) if init == "flat" \
            else np.zeros((n_nodes, n_nodes))
        diffs = []
        converged = False
        for _ in range(max_iter):
            d = np.diagonal(y)[:-1]
            if tag == "separable_rn":
                lam, cost, _ = stars_on_grid(model, t_left, z_diag_left)
                drift = lam * z_left - shift * cost
            else:
                if np.any(d >= 0.0):
                    raise ValueError(
                        "diagonal left the exponential utility's range (Y >= 0)")
                z_eff = -z_diag_left / (ga * d)
                lam, cost, _ = stars_on_grid(model, t_left, z_eff)
                if tag == "discounted_utility":
                    drift = lam * z_left + ga * cost * y[:, :-1]
                else:
                    drift = lam * z_left + ga * shift * cost * y[:, :-1]
            incr = mart - drift * dt
            y_new = np.empty_like(y)
            y_new[:, 0] = y0
            np.cumsum(incr, axis=1, out=y_new[:, 1:])
            y_new[:, 1:] += y0[:, None]
            diff = float(np.max(np.abs(y_new - y)))
            diffs.append(diff)
            y = y_new
            if diff < tol:
                converged = True
                break
        if not converged:
            raise ConvergenceError(
                f"Picard iteration did not reach tol={tol:g} in {max_iter} sweeps "
                f"(last diff {diffs[-1]:.3e})", diffs)
        fields[p] = y
        all_diffs.append(diffs)

    diag = np.asarray([np.diagonal(fields[p]).copy() for p in range(ensemble.n_paths)])
    field = VolterraField(
        s_grid=grid.copy(), t_grid=grid.copy(), values=fields, diagonal=diag,
        z_diag=np.diagonal(zmat).copy(), z_family=z_family,
        z_label=getattr(z_family, "__name__", "z_family"), spec_tag=tag,
    )
    return field, all_diffs


def target_constraint_residual(field: VolterraField, prefs: Preferences) -> np.ndarray:
    """Per-path spread of the decoded terminal payment across s rows."""
    T = float(field.t_grid[-1])
    f = prefs.discount
    fTs = np.asarray(f.value(T - field.s_grid), dtype=float)
    term = field.values[:, :, -1]
    tag = field.spec_tag
    if tag == "separable_rn":
        decoded = term / fTs[None, :]
    elif tag == "discounted_utility":
        decoded = prefs.agent_u_inv(term / fTs[None, :])
    elif tag == "discounted_income":
        decoded = prefs.agent_u_inv(term) / fTs[None, :]
    else:
        raise ValueError(f"no terminal decoding for spec {tag!r}")
    return np.max(decoded, axis=1) - np.min(decoded, axis=1)


def diagonal_bsde_check(field: VolterraField, model: MarketModel, prefs: Preferences,
                        ensemble: PathEnsemble) -> np.ndarray:
    """Per-path sup distance between the field diagonal and the scalar
    recursion it should satisfy.

    The diagonal of an admissible discounted-utility field follows a
    scalar equation whose drift is the effort trade-off plus a discounting
    tilt (f'(T-t)/f(T-t)) Y.  The tilt is removed exactly with the
    integrating factor f(T-t), so the reported residual is purely the
    discretization error of the trade-off term.
    """
    if prefs.spec_tag != "discounted_utility" or field.spec_tag != "discounted_utility":
        raise ValueError("the diagonal recursion check covers the discounted-utility spec")
    grid = field.t_grid
    T = float(grid[-1])
    dt = float(grid[1] - grid[0])
    ga = prefs.gamma_a
    f = prefs.discount
    fTt = np.asarray(f.value(T - grid), dtype=float)
    out = np.empty(field.values.shape[0])
    for p in range(field.values.shape[0]):
        d = field.diagonal[p]
        dx = ensemble.increments[p]
        w = np.empty_like(d)
        w[0] = d[0] / fTt[0]
        for j in range(grid.size - 1):
            y_here = w[j] * fTt[j]
            z_here = float(field.z_diag[j])
            if y_here >= 0.0:
                raise ValueError("diagonal left the exponential utility's range")
            z_eff = -z_here / (ga * y_here)
            lam, cost, _ = stars_at(model, float(grid[j]), z_eff)
            big_h = lam * z_here + ga * cost * y_here
            w[j + 1] = w[j] + (-big_h * dt + z_here * dx[j]) / fTt[j]
        out[p] = float(np.max(np.abs(w * fTt - d)))
    return out


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
    cost_eq = np.asarray([float(model.cost(float(t), float(a)))
                          for t, a in zip(sg, solution.effort_values)])
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
