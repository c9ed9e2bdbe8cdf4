"""Contract solvers for the five supported regimes.

Every solver reduces to a family of pointwise scalar maximizations plus
quadrature.  The agent-side action maximization is delegated to
:mod:`tic_contracts.hamiltonian`; the outer exposure search (over z, which
ranges over all reals) runs on every grid point at once, as array
operations over the grid (:func:`z_argmax_grid`).  Per point, a bracket
doubles outward from [-1, 1] until the maximum is interior, with a hard
cap that flags runaway models instead of silently clamping; a geometric
ladder of candidates near zero resolves maxima narrower than the scan's
cells; hamiltonian.search_max, the golden-section search with a parabolic
polish that also finds the agent's action, finishes the point.

The separable regime's search takes a stack of cost weights f(t)/f(T),
one row per discount curve, and searches every (curve, t) row at once:
:func:`solve` passes one row, :func:`separable_efforts` (behind the
figure tables) one per curve, each row's result bit for bit its own.

Values are integrated with composite Simpson on the solution grid; the
default grid has 2001 points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .hamiltonian import search_max, stars_on_grid
from .model import MarketModel, Preferences, UnboundedLoadingError, InfeasibleError, validate

DEFAULT_GRID_POINTS = 2001
Z_CAP = 1e3

_SCAN = 64
_REFINE_SCAN = 8
_LADDER = np.concatenate([-np.logspace(0.0, -9.0, 10), [0.0], np.logspace(-9.0, 0.0, 10)])


def default_grid(horizon: float, n: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    return np.linspace(0.0, float(horizon), n)


def simpson(y, x, axis=-1):
    """Composite Simpson's rule for samples y at the points x along axis.

    x is 1-D with distinct points, one per sample of y along axis.  Each
    pair of intervals gets the parabola through its three points, with its
    own spacings.  With an even number of points the last interval is
    closed by Cartwright's correction (two points give the trapezoid).

    The arithmetic follows the widely used reference implementation of this
    rule step for step (the same per-interval weights and the same pairwise
    sum), and the tests require bitwise agreement with it where it is
    installed.  The textbook dx/3 (y0 + 4 y1 + y2) form rounds differently
    and would move outputs in their last bits.
    """
    y = np.asarray(y)
    nd = y.ndim
    axis %= nd
    n = y.shape[axis]
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != n:
        raise ValueError("x must be 1-D with one point per sample of y along axis")
    # the weights multiply two spacings, which overflow past about 1e154;
    # scaling x by a power of two is exact, and the result is scaled back
    _, scale = np.frexp(np.max(np.abs(x)))
    x = np.ldexp(x, -scale).reshape([n if k == axis else 1 for k in range(nd)])
    h = np.diff(x, axis=axis)

    def at(index):
        return (slice(None),) * axis + (index,)

    if n == 2:
        return np.ldexp(0.5 * h[at(0)] * (y[at(1)] + y[at(0)]), scale)

    def pairs(stop):
        # Simpson over the interval pairs that start at 0, 2, ..., stop - 1
        h0 = h[at(slice(0, stop, 2))]
        h1 = h[at(slice(1, stop + 1, 2))]
        hsum = h0 + h1
        hprod = h0 * h1
        h0divh1 = h0 / h1
        tmp = hsum / 6.0 * (y[at(slice(0, stop, 2))] * (2.0 - 1.0 / h0divh1)
                            + y[at(slice(1, stop + 1, 2))] * (hsum * (hsum / hprod))
                            + y[at(slice(2, stop + 2, 2))] * (2.0 - h0divh1))
        return np.sum(tmp, axis=axis)

    if n % 2:
        return np.ldexp(pairs(n - 2), scale)
    result = pairs(n - 3)
    h0 = np.squeeze(h[at(slice(-2, -1))], axis=axis)
    h1 = np.squeeze(h[at(slice(-1, None))], axis=axis)
    alpha = (2 * h1 ** 2 + 3 * h0 * h1) / (6 * (h1 + h0))
    beta = (h1 ** 2 + 3.0 * h0 * h1) / (6 * h0)
    eta = h1 ** 3 / (6 * h0 * (h0 + h1))
    result += alpha * y[at(-1)] + beta * y[at(-2)] - eta * y[at(-3)]
    return np.ldexp(result, scale)


def _solution_grid(model: MarketModel, grid) -> np.ndarray:
    if grid is None:
        return default_grid(model.horizon)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise ValueError("grid must be a 1-D array with at least 3 points")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    if abs(grid[0]) > 1e-12 or abs(grid[-1] - model.horizon) > 1e-12:
        raise ValueError("grid must start at 0 and end at the horizon")
    return grid


def z_argmax_grid(objective, n: int):
    """Maximize n scalar objectives over all reals at once, one per grid row.

    objective(zs, rows) receives an (m, k) array of candidate exposures for
    the grid rows ``rows`` (an integer index array of length m) and returns
    their values as an (m, k) array.  Each row runs the same steps, as array
    operations over the rows that still need them:

    * a 64-point scan of the start bracket [-1, 1] that doubles outward
      only while an edge strictly dominates every interior sample; an edge
      that merely ties the interior is a plateau (clamped action), not
      growth, and growth past |z| <= Z_CAP raises UnboundedLoadingError;
    * a zoom scan of the two cells around the best sample;
    * hamiltonian.search_max on the zoom's best cell pair: an 8-point scan,
      golden-section search to 1e-10, then two centered parabolic steps
      that polish the point below the flat-top noise floor of the
      comparisons.

    Narrow maxima, such as the bump of width f(T)/f(t) that long horizons
    put next to the plateau of clamped actions, fall between the linear
    scan's samples.  The first scan therefore also samples a signed
    geometric ladder +-10**-j (j = 0..9) plus zero; when the ladder's best
    interior point beats every linear sample, the zoom brackets on the
    ladder's neighbours of that point instead.

    Returns (argmax, value) arrays of length n.
    """
    every = np.arange(n)

    def evaluate(zs, rows):
        return np.asarray(objective(zs, rows), dtype=float)

    def scan(zs, rows):
        vals = evaluate(zs, rows)
        if not np.all(np.isfinite(vals)):
            raise ValueError("exposure objective produced non-finite values")
        return vals

    lo = np.full(n, -1.0)
    hi = np.full(n, 1.0)
    xs = np.linspace(lo, hi, _SCAN, axis=1)
    vals = scan(np.concatenate([xs, np.tile(_LADDER, (n, 1))], axis=1), every)
    vals, ladder_vals = vals[:, :_SCAN], vals[:, _SCAN:]
    while True:
        best = np.argmax(vals, axis=1)
        inner = 1 + np.argmax(vals[:, 1:-1], axis=1)
        v_inner = vals[every, inner]
        edge = (best == 0) | (best == _SCAN - 1)
        grow = np.flatnonzero(
            edge & (vals[every, best] > v_inner + 1e-12 * (1.0 + np.abs(v_inner))))
        if grow.size == 0:
            break
        width = hi[grow] - lo[grow]
        down = best[grow] == 0
        lo[grow] -= np.where(down, width, 0.0)
        hi[grow] += np.where(down, 0.0, width)
        if np.any(np.maximum(np.abs(lo[grow]), np.abs(hi[grow])) > Z_CAP):
            raise UnboundedLoadingError(
                f"unbounded loading: exposure search escaped |z| <= {Z_CAP:g}"
            )
        xs[grow] = np.linspace(lo[grow], hi[grow], _SCAN, axis=1)
        vals[grow] = scan(xs[grow], grow)
    best = np.where(edge, inner, best)

    rung = np.argmax(ladder_vals, axis=1)
    v_lin = np.max(vals, axis=1)
    on_ladder = ((rung > 0) & (rung < _LADDER.size - 1)
                 & (ladder_vals[every, rung] > v_lin + 1e-12 * (1.0 + np.abs(v_lin))))
    rung = np.clip(rung, 1, _LADDER.size - 2)
    a = np.where(on_ladder, _LADDER[rung - 1], xs[every, best - 1])
    b = np.where(on_ladder, _LADDER[rung + 1], xs[every, best + 1])

    # zoom once into the bracketing cells before the golden-section search
    xs = np.linspace(a, b, _SCAN, axis=1)
    best = np.argmax(scan(xs, every), axis=1)
    a = xs[every, np.maximum(best - 1, 0)]
    b = xs[every, np.minimum(best + 1, _SCAN - 1)]
    return search_max(evaluate, a, b, _REFINE_SCAN)


def z_argmax(objective):
    """Maximize a scalar objective over all reals: the one-row z_argmax_grid.

    objective must accept a numpy array of candidate exposures and return
    an array of values.  See z_argmax_grid for the search's steps.

    Returns (argmax, value).
    """
    def one_row(zs, rows):
        return np.reshape(np.asarray(objective(zs[0]), dtype=float), zs.shape)

    z, value = z_argmax_grid(one_row, 1)
    return float(z[0]), float(value[0])


@dataclass
class ContractSolution:
    """Solved contract: constant part, loading curve, effort curve, values.

    The contract pays constant_term + integral of loading(t) dX_t at the
    horizon.  constant_term = constant_reservation + constant_adjustment,
    splitting the reservation-level part from the cost/drift integral part.
    """

    spec_tag: str
    y0: float
    constant_term: float
    constant_reservation: float
    constant_adjustment: float
    value_principal: float
    value_agent: float
    grid: np.ndarray
    z_star: np.ndarray
    loading_values: np.ndarray
    effort_values: np.ndarray
    label: str = ""

    def loading(self, t):
        return np.interp(t, self.grid, self.loading_values)

    def effort(self, t):
        return np.interp(t, self.grid, self.effort_values)

    def shifted(self, delta: float) -> "ContractSolution":
        """Copy with the constant payment moved by delta (a broken contract
        on purpose; the participation check should flag it)."""
        return replace(self, constant_term=self.constant_term + float(delta))

    def to_json(self) -> dict:
        return {
            "spec": self.spec_tag,
            "y0": self.y0,
            "constant_term": self.constant_term,
            "constant_reservation": self.constant_reservation,
            "constant_adjustment": self.constant_adjustment,
            "value_principal": self.value_principal,
            "value_agent": self.value_agent,
            "z_star": {"grid": self.grid.tolist(), "values": self.z_star.tolist()},
            "loading": {"grid": self.grid.tolist(), "values": self.loading_values.tolist()},
            "effort": {"grid": self.grid.tolist(), "values": self.effort_values.tolist()},
            "label": self.label,
        }


def _exponential_value(gp: float, wealth: float, integral: float) -> float:
    """The principal's exponential-utility value -exp(-gp (wealth + integral)) / gp.

    Raises InfeasibleError when it diverges, as it does for extreme
    volatilities.
    """
    try:
        value = -(1.0 / gp) * math.exp(-gp * wealth) * math.exp(-gp * integral)
    except OverflowError:
        value = -math.inf
    if not math.isfinite(value):
        raise InfeasibleError("infeasible: principal value diverged")
    return value


def _discounted_utility(model: MarketModel, prefs: Preferences, grid):
    """Exponential-utility agent with discounted terminal utility.

    The exposure trade-off does not involve the discount curve, which is
    why the principal's value factorizes into an f(T) power times an
    f-independent exponential of the integrated trade-off.
    """
    ga, gp = prefs.gamma_a, prefs.gamma_p
    f = prefs.discount
    T = model.horizon
    fT = float(f.value(T))

    sig = model.sigma_at(grid)
    # builtin families and their constant sigma do not depend on time, so
    # the objective is the same at every t: search its first row only
    rows = 1 if model.families is not None else grid.size
    t_col, sig_col = grid[:rows, None], sig[:rows, None]

    def objective(zs, r):
        lam, cost, _ = stars_on_grid(model, t_col[r], zs)
        s = sig_col[r]
        return (lam - cost
                - 0.5 * ga * s * s * zs * zs
                - 0.5 * gp * s * s * (1.0 - zs) ** 2)

    z_star = np.broadcast_to(z_argmax_grid(objective, rows)[0], grid.shape).copy()

    lam, cost, eff = stars_on_grid(model, grid, z_star)
    trade = lam - cost - 0.5 * ga * sig ** 2 * z_star ** 2 \
        - 0.5 * gp * sig ** 2 * (1.0 - z_star) ** 2
    ham = lam * z_star - cost

    r0_hat = prefs.agent_u_inv(prefs.r0)
    y0_hat = r0_hat + math.log(fT) / ga
    const_adj = -float(simpson(ham - 0.5 * ga * sig ** 2 * z_star ** 2, grid))
    integral = float(simpson(trade, grid))
    if gp > 0.0:
        value_p = _exponential_value(gp, model.x0 - y0_hat, integral)
    else:
        value_p = model.x0 - y0_hat + integral
    return y0_hat, const_adj, value_p, z_star, z_star.copy(), eff


def _separable_z(model: MarketModel, grid, weights) -> np.ndarray:
    """z* of the separable regime, shaped like weights: a (curves, points)
    stack of cost weights f(t)/f(T).  One z_argmax_grid searches every
    (curve, t) row; rows do not interact.  Long horizons make the maximum
    a narrow bump of width ~ f(T)/f(t) beside the clamped-action plateau,
    which the search's geometric ladder resolves."""
    t_col = np.tile(grid, weights.shape[0])[:, None]
    w_col = weights.reshape(-1, 1)

    def objective(zs, r):
        lam, cost, _ = stars_on_grid(model, t_col[r], zs)
        return lam - w_col[r] * cost

    return z_argmax_grid(objective, w_col.size)[0].reshape(weights.shape)


def _separable_rn(model: MarketModel, prefs: Preferences, grid):
    """Risk-neutral agent and principal with discounted separable cost."""
    f = prefs.discount
    T = model.horizon
    fT = float(f.value(T))
    f_t = np.asarray(f.value(grid), dtype=float)
    f_Tt = np.asarray(f.value(T - grid), dtype=float)

    z_star = _separable_z(model, grid, (f_t / fT)[None, :])[0]
    lam, cost, eff = stars_on_grid(model, grid, z_star)
    loading = z_star / f_Tt
    gain = lam - (f_t / fT) * cost
    value_p = model.x0 - prefs.r0 / fT + float(simpson(gain, grid))
    const_adj = -float(simpson(loading * lam - f_t * cost / fT, grid))
    return prefs.r0 / fT, const_adj, value_p, z_star, loading, eff


def _discounted_income(model: MarketModel, prefs: Preferences, grid):
    """Exponential-utility agent with the cost discounted inside the utility.

    Risk-neutral entries are the vanishing-risk-aversion limits; at
    gamma_a = gamma_p = 0 the output agrees with the separable solver with
    the same curve.
    """
    g = prefs.discount
    ga, gp = prefs.gamma_a, prefs.gamma_p
    T = model.horizon
    gT = float(g.value(T))
    g_t = np.asarray(g.value(grid), dtype=float)
    g_Tt = np.asarray(g.value(T - grid), dtype=float)

    sig = model.sigma_at(grid)
    t_col, sig_col, gTt_col = grid[:, None], sig[:, None], g_Tt[:, None]
    wc_col = (g_t / gT)[:, None]
    wa_col = (0.5 * ga * gT / (g_Tt ** 2))[:, None]

    def objective(zs, r):
        lam, cost, _ = stars_on_grid(model, t_col[r], zs)
        s = sig_col[r]
        return (lam - wc_col[r] * cost - wa_col[r] * s * s * zs * zs
                - 0.5 * gp * s * s * (1.0 - zs / gTt_col[r]) ** 2)

    z_star, _ = z_argmax_grid(objective, grid.size)

    lam, cost, eff = stars_on_grid(model, grid, z_star)
    loading = z_star / g_Tt
    z0 = gT * loading
    big_g = (lam - (g_t / gT) * cost
             - 0.5 * ga * gT * sig ** 2 * z_star ** 2 / g_Tt ** 2
             - 0.5 * gp * sig ** 2 * (1.0 - z_star / g_Tt) ** 2)

    r0_hat = prefs.agent_u_inv(prefs.r0)
    const_adj = -float(simpson(lam * z0 - g_t * cost - 0.5 * ga * sig ** 2 * z0 ** 2, grid)) / gT
    integral = float(simpson(big_g, grid))
    if gp > 0.0:
        value_p = _exponential_value(gp, model.x0 - r0_hat / gT, integral)
    else:
        value_p = model.x0 - r0_hat / gT + integral
    return r0_hat / gT, const_adj, value_p, z_star, loading, eff


def _first_best_separable(model: MarketModel, prefs: Preferences, grid):
    """Risk-sharing benchmark for the separable risk-neutral regime.

    The principal dictates effort and pays a deterministic amount, so the
    loading is identically zero.  The pointwise maximand carries the
    1/f(T) weight on the cost that the binding participation constraint
    induces, which is what makes this value coincide with the second-best
    one.
    """
    f = prefs.discount
    T = model.horizon
    fT = float(f.value(T))
    f_t = np.asarray(f.value(grid), dtype=float)

    # argmax of sigma b - w c equals the agent maximizer at exposure 1/w
    lam, cost, eff = stars_on_grid(model, grid, 1.0 / (f_t / fT))

    value_p = model.x0 - prefs.r0 / fT + float(simpson(lam - f_t * cost / fT, grid))
    const_adj = float(simpson(f_t * cost, grid)) / fT
    return prefs.r0 / fT, const_adj, value_p, np.zeros_like(grid), np.zeros_like(grid), eff


def _first_best_nonseparable(model: MarketModel, prefs: Preferences, grid):
    """Risk-sharing benchmark for two exponential utilities.

    The single discount curve plays both of its roles here: terminal
    factor at the horizon and running weight on the effort cost.  The
    contract is linear in terminal output with a constant loading.
    """
    ga, gp = prefs.gamma_a, prefs.gamma_p
    curve = prefs.discount
    T = model.horizon
    gT = float(curve.value(T))
    g_t = np.asarray(curve.value(grid), dtype=float)
    gbar = ga * gp * gT / (ga * gT + gp)
    sig = model.sigma_at(grid)
    lam, cost, eff = stars_on_grid(model, grid, gT / g_t)

    phi = lam - (g_t / gT) * cost - 0.5 * gbar * sig ** 2
    big_phi = model.x0 + float(simpson(phi, grid))
    try:
        e_star = math.exp(-gbar * big_phi)
        base = gT * e_star / (-ga * prefs.r0)
        if not math.isfinite(base) or base <= 0.0:
            raise InfeasibleError(
                "infeasible: risk-sharing certainty equivalent diverged")
        expo = gp / (ga * gT)
        value_p = -(1.0 / gp) * base ** expo * e_star
    except OverflowError:
        raise InfeasibleError("infeasible: principal value diverged") from None
    if not math.isfinite(value_p):
        raise InfeasibleError("infeasible: principal value diverged")

    denom = gT * ga + gp
    loading_const = gp / denom
    k0 = float(simpson(g_t * cost, grid))
    big_lam = float(simpson(lam, grid))
    big_sig = float(simpson(sig ** 2, grid))
    # binding participation under the dictated effort pins the constant:
    # the reservation part absorbs the terminal discount twice (outside
    # the utility and inside the income), the adjustment part undoes the
    # loading's share of drift and adds cost and risk compensation
    c0 = -math.log(-ga * prefs.r0) / ga
    const_res = (c0 + math.log(gT) / ga) / gT
    const_adj = (-loading_const * big_lam + k0 / gT
                 + 0.5 * ga * gT * loading_const ** 2 * big_sig)
    return (const_res, const_adj, value_p, np.full_like(grid, loading_const),
            np.full_like(grid, loading_const), eff)


# each regime maps (model, prefs, checked grid) to its constant's reservation
# and adjustment parts, the principal's value, z*, the loading and the effort
_SOLVERS = {
    "discounted_utility": _discounted_utility,
    "separable_rn": _separable_rn,
    "discounted_income": _discounted_income,
    "first_best_separable": _first_best_separable,
    "first_best_nonseparable": _first_best_nonseparable,
}


def solve(model: MarketModel, prefs: Preferences, grid=None) -> ContractSolution:
    """Solve the contract of the regime prefs.spec_tag on grid (default:
    DEFAULT_GRID_POINTS points on [0, T]).

    Raises ValueError when validate() finds a problem or the grid is not
    an increasing cover of [0, T], InfeasibleError when no admissible
    contract attains the reservation level, and UnboundedLoadingError when
    the exposure search runs away.
    """
    problems = validate(model, prefs)
    if problems:
        raise ValueError("; ".join(problems))
    grid = _solution_grid(model, grid)
    reservation, adjustment, value_p, z_star, loading, effort = \
        _SOLVERS[prefs.spec_tag](model, prefs, grid)
    return ContractSolution(
        spec_tag=prefs.spec_tag,
        y0=prefs.r0,
        constant_term=reservation + adjustment,
        constant_reservation=reservation,
        constant_adjustment=adjustment,
        value_principal=value_p,
        value_agent=prefs.r0,
        grid=grid,
        z_star=z_star,
        loading_values=loading,
        effort_values=effort,
    )


def separable_efforts(model: MarketModel, prefs, grid=None) -> np.ndarray:
    """Equilibrium effort of the separable regime for several discount curves.

    prefs is a sequence of separable_rn Preferences on the one model.  Row
    k of the returned (len(prefs), points) array equals
    solve(model, prefs[k], grid).effort_values bit for bit, but all rows
    come from one exposure search.  Raises as solve does, before any
    search, for the first curve that fails validation.
    """
    for p in prefs:
        if p.spec_tag != "separable_rn":
            raise ValueError(f"separable_efforts solves separable_rn, not {p.spec_tag}")
        problems = validate(model, p)
        if problems:
            raise ValueError("; ".join(problems))
    grid = _solution_grid(model, grid)
    weights = np.array([np.asarray(p.discount.value(grid), dtype=float)
                        / float(p.discount.value(model.horizon)) for p in prefs])
    z_star = _separable_z(model, grid, weights)
    _, _, effort = stars_on_grid(model, np.tile(grid, len(prefs)), z_star.ravel())
    return effort.reshape(z_star.shape)
