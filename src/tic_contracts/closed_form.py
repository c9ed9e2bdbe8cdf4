"""Contract solvers for the five supported regimes.

Every solver reduces to a family of pointwise scalar maximizations plus
quadrature.  The agent-side action maximization is delegated to
:mod:`tic_contracts.hamiltonian`.

The three second-best regimes are one exposure problem in the curve g
inside the agent's utility.  With a risk-neutral agent and principal it
has a closed form (Cvitanic, Possamai & Touzi's pointwise maximizer): the
maximizer of lam(z) - wc cost(z), wc = g(t)/g(T), is the agent's best
response at z* = g(T)/g(t), one best response over the whole grid; the
figure tables are such solves.  The CARA regimes search the relative
exposure u = wc z on every grid point at once, as array operations over
the grid (:func:`z_argmax_grid`).  Their maximizer lies in u in [0, 1]
(proved at :func:`_exposure`), so every point is one bounded
hamiltonian.search_max, the golden-section search with a five-point
Newton polish that also finds the agent's action.  With builtin families
and weights constant in t, only the first point is searched.

Values are integrated with composite Simpson on the solution grid; the
default grid has 2001 points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .hamiltonian import search_max, stars_on_grid
from .model import MarketModel, Preferences, InfeasibleError, pointwise, validate

DEFAULT_GRID_POINTS = 2001

# the exposure search scans [0, 1] and one step beyond either end: 64
# points 1/61 apart, with 0 and 1 among them
_SCAN = 64
_STEP = 1.0 / (_SCAN - 3)


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
    """Maximize n scalar objectives on [-1/61, 62/61] at once, one per row.

    objective(us, rows) receives an (m, k) array of candidate relative
    exposures for the grid rows ``rows`` (an integer index array of length
    m) and returns their values as an (m, k) array.  One
    hamiltonian.search_max runs every row: a 64-point scan, golden section
    to 1e-10 and one Newton step from five-point central differences.  The
    solvers' maximizer lies in [0, 1] (see _exposure); the step beyond
    either end leaves the polish's stencil room.  The scan is no global
    guarantee: a row may keep the lower of two peaks when the higher is
    narrower than a scan step.  A value that is not finite raises
    ValueError.

    Returns (argmax, value) arrays of length n.
    """
    def evaluate(us, rows):
        # what overflows here is refused just below
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(objective(us, rows), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("exposure objective produced non-finite values")
        return vals

    return search_max(evaluate, np.full(n, -_STEP), np.full(n, 1.0 + _STEP), _SCAN)


def z_argmax(objective):
    """Maximize a scalar objective on [-1/61, 62/61]: the one-row z_argmax_grid.

    objective must accept a numpy array of candidates and return an array
    of values.

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
            "label": "",
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


def _exposure(model: MarketModel, grid, gp: float, wc, wa, gTt) -> np.ndarray:
    """z* of the exposure problem with a risk-averse (CARA) party at every
    grid point, the maximizer of

        O(z) = lam - wc cost - wa sigma^2 z^2 - (gp / 2) sigma^2 (1 - z / gTt)^2

    with the cost weight wc = g(t)/g(T), the agent's risk weight
    wa = (gamma_a / 2) g(T)/g(T-t)^2 and gTt = g(T-t), one array each over
    the grid.  The search runs in u = wc z on the objective times wc and
    returns u* / wc.  The maximizer lies in u in [0, 1], on every drift and
    cost family and every shipped curve:

    1. The agent's value V(z) = max_a [sigma b(a) z - c(a)] is a maximum of
       lines in z, so it is convex, and lam = sigma b(a*(z)) is its
       subgradient: V(z2) - V(z1) >= lam1 (z2 - z1), and lam rises with z.
    2. cost = lam z - V, so lam - wc cost = lam (1 - wc z) + wc V, and for
       z1 < z2 step 1 gives (lam - wc cost)(z2) - (lam - wc cost)(z1)
       >= (lam2 - lam1)(1 - wc z2) >= 0 while z2 <= 1/wc.  The mirror
       bound V(z2) - V(z1) <= lam2 (z2 - z1) gives a difference
       <= (lam2 - lam1)(1 - wc z1) <= 0 once z1 >= 1/wc.
    3. The risk terms (wa, gp >= 0, gTt > 0) rise for z <= 0 and fall for
       z >= gTt.  So O rises up to z = 0 and falls beyond
       max(1/wc, gTt); in u, beyond max(1, g(t) g(T-t)/g(T)).
    4. Every shipped curve has g(0) = 1 and is log-convex (exponential,
       hyperbolic, a mixture of exponentials, or flat), so log g(t) +
       log g(T-t) <= log g(0) + log g(T), that is g(t) g(T-t) <= g(T),
       and u* lies in [0, 1].

    z_argmax_grid searches [0, 1] and a step beyond either end.  In u a
    steep curve, where z* is as small as g(T)/g(t), puts the maximum
    neither in a narrow bump beside the clamped-action plateau nor below
    the search's absolute tolerances.
    """
    cols = grid.size
    # builtin families and their constant sigma do not depend on time
    if model.families is not None and all(np.all(w == w[0]) for w in (wc, wa, gTt)):
        cols = 1
    t_col = grid[:cols, None]
    sig_col = model.sigma_at(t_col)
    wc_col, wa_col, gTt_col = (w[:cols, None] for w in (wc, wa, gTt))

    def objective(us, r):
        w, s = wc_col[r], sig_col[r]
        zs = us / w
        lam, cost, _ = stars_on_grid(model, t_col[r], zs)
        return w * (lam - w * cost - wa_col[r] * s * s * zs * zs
                    - 0.5 * gp * s * s * (1.0 - zs / gTt_col[r]) ** 2)

    u_star = z_argmax_grid(objective, cols)[0]
    return np.broadcast_to(u_star / wc_col[:, 0], grid.shape).copy()


def _second_best(model: MarketModel, prefs: Preferences, grid):
    """separable_rn, discounted_utility and discounted_income: the exposure
    problem in g = prefs.cost_weight, the discount or the flat curve.  Only
    the wealth level y0 depends on the regime.  For discounted_utility the
    trade-off does not involve the discount curve, which is why the
    principal's value factorizes into an f(T) power times an f-independent
    exponential of the integrated trade-off.
    """
    ga, gp = prefs.gamma_a, prefs.gamma_p
    T = model.horizon
    gT = float(prefs.cost_weight(T))
    g_t, g_Tt = prefs.cost_weight(grid), prefs.cost_weight(T - grid)
    sig = model.sigma_at(grid)

    if ga or gp:
        # a risk-neutral agent's risk term is not formed: on a steep curve
        # it would be 0 / 0 or 0 * inf where it is zero; the search refuses
        # a weight that is not finite, as where g(T-t)^2 underflows
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            wa = 0.5 * ga * gT / (g_Tt ** 2) if ga else np.zeros_like(grid)
        z_star = _exposure(model, grid, gp, g_t / gT, wa, g_Tt)
    else:
        # the maximizer of lam - wc cost is the agent's best response at
        # 1/wc, on a plateau of clamped actions too
        z_star = 1.0 / (g_t / gT)
    lam, cost, eff = stars_on_grid(model, grid, z_star)
    loading = z_star / g_Tt
    z0 = gT * loading
    big_g = lam - (g_t / gT) * cost
    if ga:
        big_g = big_g - 0.5 * ga * gT * sig ** 2 * z_star ** 2 / g_Tt ** 2
    if gp:
        big_g = big_g - 0.5 * gp * sig ** 2 * (1.0 - z_star / g_Tt) ** 2

    r0_hat = prefs.agent_u_inv(prefs.r0)
    y0 = (r0_hat + math.log(float(prefs.discount.value(T))) / ga
          if prefs.spec_tag == "discounted_utility" else r0_hat / gT)
    running = lam * z0 - g_t * cost
    if ga:
        running = running - 0.5 * ga * sig ** 2 * z0 ** 2
    const_adj = -float(simpson(running, grid)) / gT
    integral = float(simpson(big_g, grid))
    if gp > 0.0:
        value_p = _exponential_value(gp, model.x0 - y0, integral)
    else:
        value_p = model.x0 - y0 + integral
    return y0, const_adj, value_p, z_star, loading, eff


def _first_best_separable(model: MarketModel, prefs: Preferences, grid):
    """Risk-sharing benchmark for the separable risk-neutral regime.

    The principal dictates effort and pays a deterministic amount, so z*
    and the loading are zero.  Binding participation weighs the cost by
    1/f(T), which makes the maximand, effort, reservation part and value
    the separable second-best's; the adjustment pays the discounted cost.
    """
    reservation, _, value_p, _, _, eff = _second_best(model, prefs, grid)
    weighted_cost = prefs.cost_weight(grid) * pointwise(model.cost, grid, eff)
    const_adj = float(simpson(weighted_cost, grid)) / float(prefs.cost_weight(model.horizon))
    return reservation, const_adj, value_p, np.zeros_like(grid), np.zeros_like(grid), eff


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
    "discounted_utility": _second_best,
    "separable_rn": _second_best,
    "discounted_income": _second_best,
    "first_best_separable": _first_best_separable,
    "first_best_nonseparable": _first_best_nonseparable,
}


def solve(model: MarketModel, prefs: Preferences, grid=None) -> ContractSolution:
    """Solve the contract of the regime prefs.spec_tag on grid (default:
    DEFAULT_GRID_POINTS points on [0, T]).

    Raises ValueError when validate() finds a problem, the grid is not an
    increasing cover of [0, T] or the exposure objective is not finite, and
    InfeasibleError when no admissible contract attains the reservation
    level.
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
