"""Path simulation, contract evaluation, and Monte Carlo verification.

Simulation uses the weak formulation: the output process is Euler-stepped
with the drift implied by the equilibrium effort policy,

    X_{i+1} = X_i + sigma(t_i) b(t_i, a(t_i)) dt + sigma(t_i) sqrt(dt) N(0,1).

Randomness comes from counter-based Philox streams keyed by (seed, path),
so any chunking reproduces the same ensemble bit for bit; the seed is a
signed 64-bit integer.  An ensemble is a recipe that draws no normal
until read.  The payment and X_T are linear in a path's normals, so with
a deterministic loading they are one bivariate Gaussian per path:
_outcomes draws that pair exactly, two normals per path from one stream
of its own, in O(paths) time and memory, and never forms the increments
(which the Volterra march reads, on few paths).

The checkers cover: participation (agent Monte Carlo value vs the
reservation level) and the principal's value, each judged against its
exact mean on the run's grid; the s-shift correction identity for the
separable regime; and spike deviations of the equilibrium effort for
every second-best regime.  The exact grid means and the spike gains,
which have no sampling error, come from one evaluator, _exact_means.
The s-shift correction reduces its rows here, in blocks; the march grid's
lag table and its lag sums belong to fsvie, which no check here reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .closed_form import ContractSolution, simpson
from .model import SECOND_BEST_TAGS, MarketModel, Preferences, pointwise

# values of s per block of the s-shift correction's (s, solver grid) arrays
SHIFT_ROWS = 32
_ROUNDING = float(16 * np.finfo(float).eps)  # verify's rounding slack, relative


@dataclass
class McEstimate:
    mean: float
    std_error: float


@dataclass
class PathEnsemble:
    """Output paths on a uniform grid, as the recipe of their unit normals.

    Row p is the Philox stream keyed (seed, p); antithetic paths 2j and
    2j + 1 are the stream keyed (seed, j) and its negative.  The increment
    on [grid[i], grid[i+1]) is normals[p][i] * scale[i] + shift[i] (sigma
    sqrt(dt) and sigma b dt).  normals is filled anew on every read and
    kept nowhere; _outcomes keeps its last (load, result).
    """

    n_paths: int
    grid: np.ndarray
    scale: np.ndarray
    shift: np.ndarray
    x0: float
    seed: int
    antithetic: bool = False
    reduced: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @property
    def normals(self) -> np.ndarray:
        out = np.empty((self.n_paths, self.scale.size))
        _normal_rows(out[0::2] if self.antithetic else out, self.seed)
        if self.antithetic:
            np.negative(out[0::2], out=out[1::2])
        return out

    @property
    def increments(self) -> np.ndarray:
        return self.normals * self.scale + self.shift

    @property
    def terminal(self) -> np.ndarray:
        # X_T is column 1 of a reduction, whatever its load
        if self.reduced is None:
            _outcomes(self, np.zeros_like(self.scale))
        return self.reduced[1][:, 1]


def _check_actions(model: MarketModel, actions, what: str):
    """Raise ValueError unless every action lies in the action interval,
    up to a rounding slack of 1e-9 max(1, hi - lo)."""
    lo, hi = model.action_lo, model.action_hi
    slack = 1e-9 * max(1.0, hi - lo)
    if np.any(actions < lo - slack) or np.any(actions > hi + slack):
        raise ValueError(f"{what} leaves the action interval")


def _check_regime(prefs: Preferences, solution: ContractSolution):
    """Raise ValueError unless the solution was solved for the preferences' regime."""
    if prefs.spec_tag != solution.spec_tag:
        raise ValueError("preferences and solution disagree on the spec tag")


def _effort_fn(effort) -> Callable[[float], float]:
    if callable(effort):
        return effort
    a = float(effort)
    return lambda t: np.full(np.shape(t), a)


def _stream(seed: int, key: int) -> np.random.Generator:
    """The Philox stream keyed (seed, key).  Philox is counter-based (Salmon
    et al., SC'11): a stream is its key and a counter, so a path's numbers
    do not depend on which other streams are drawn.  The seed keys modulo
    2**64, so -1 keys as 2**64 - 1."""
    return np.random.Generator(np.random.Philox(
        key=np.array([int(seed) % 2**64, key], dtype=np.uint64)))


def _normal_rows(out: np.ndarray, seed: int):
    """Fill each row p of out from the stream keyed (seed, p)."""
    for p in range(out.shape[0]):
        _stream(seed, p).standard_normal(out=out[p])


def simulate(model: MarketModel, effort, n_paths: int, n_steps: int, seed: int,
             antithetic: bool = False) -> PathEnsemble:
    """The recipe of n_paths output paths under the given effort policy.

    effort is a callable of time or a constant action, evaluated and checked
    here; no normal is drawn.
    """
    if n_steps < 1 or n_paths < 1:
        raise ValueError("need n_steps >= 1 and n_paths >= 1")
    if not -2**63 <= seed < 2**63:
        raise ValueError("seed must be a signed 64-bit integer")
    if antithetic and n_paths % 2:
        raise ValueError("antithetic sampling needs even n_paths")
    grid = np.linspace(0.0, model.horizon, n_steps + 1)
    dt = model.horizon / n_steps
    t_left = grid[:-1]
    actions = pointwise(_effort_fn(effort), t_left)
    _check_actions(model, actions, "effort policy")
    sig = model.sigma_at(t_left)
    drift = sig * pointwise(model.drift, t_left, actions)
    return PathEnsemble(n_paths=n_paths, grid=grid, scale=sig * math.sqrt(dt), shift=drift * dt,
                        x0=model.x0, seed=seed, antithetic=antithetic)


def _estimate(values: np.ndarray, antithetic: bool) -> McEstimate:
    if antithetic:
        units = 0.5 * (values[0::2] + values[1::2])
    else:
        units = values
    n = units.size
    mean = float(np.mean(units))
    # the squared deviations overflow past about 1e154; scaling the units by
    # a power of two is exact, and the result is scaled back
    _, scale = np.frexp(np.max(np.abs(units)))
    std = np.ldexp(np.std(np.ldexp(units, -scale), ddof=1), scale) if n > 1 else 0.0
    se = float(std / math.sqrt(n))
    return McEstimate(mean=mean, std_error=se)


def _factor(u: np.ndarray, v: np.ndarray) -> tuple:
    """(a, beta a, c), F = (a, 0; beta a, c) with F F^T the Gram matrix of u
    and v, by Gram-Schmidt.  Scaling each vector by a power of two is exact
    and keeps every square finite; np.sum adds pairwise, without BLAS."""
    (_, ku), (_, kv) = np.frexp(np.max(np.abs(u))), np.frexp(np.max(np.abs(v)))
    u, v = np.ldexp(u, -ku), np.ldexp(v, -kv)
    uu = np.sum(u * u)
    beta = np.sum(u * v) / uu if uu else 0.0
    c = np.sqrt(np.sum((v - beta * u) ** 2))
    return np.ldexp(np.sqrt(uu), ku), np.ldexp(beta * np.sqrt(uu), kv), np.ldexp(c, kv)


def _pair_normals(seed: int, units: int) -> np.ndarray:
    """(units, 2) standard normals: row p is entries 2p and 2p + 1 of the
    stream keyed (seed, 2**64 - 1), a key no path stream reaches, so
    a unit's pair does not depend on the unit count."""
    return _stream(seed, 2**64 - 1).standard_normal((units, 2))


def _outcomes(ensemble: PathEnsemble, load: np.ndarray) -> np.ndarray:
    """Per-path columns (sum_i load_i dX_i, X_T), kept on the ensemble for a
    repeat of the load.  Both are linear in the path's normals, so exactly
    Gaussian: with (a, beta a, c) = _factor(scale, scale load) and (g1, g2)
    the unit's _pair_normals, X_T = m_X + a g1 and the payment part is
    m + beta a g1 + c g2 (m_X, m the shift's shares).  An antithetic
    pair's second path takes the negated pair."""
    if ensemble.reduced is not None and np.array_equal(ensemble.reduced[0], load):
        return ensemble.reduced[1]
    n = ensemble.n_paths
    g = _pair_normals(ensemble.seed, n // 2 if ensemble.antithetic else n)
    if ensemble.antithetic:
        g = np.stack([g, -g], axis=1).reshape(n, 2)
    a, beta_a, c = _factor(ensemble.scale, ensemble.scale * load)
    out = np.empty((n, 2))
    out[:, 0] = np.sum(ensemble.shift * load) + beta_a * g[:, 0] + c * g[:, 1]
    out[:, 1] = ensemble.x0 + np.sum(ensemble.shift) + a * g[:, 0]
    out.flags.writeable = False  # shared by every later reader of the ensemble
    ensemble.reduced = (np.array(load), out)
    return out


def contract_payoff(solution: ContractSolution, ensemble: PathEnsemble) -> np.ndarray:
    """Per-path terminal payment: constant term plus the loading integral."""
    load = solution.loading(ensemble.grid[:-1])
    return solution.constant_term + _outcomes(ensemble, load)[:, 0]


def _cost_at_equilibrium(model: MarketModel, solution: ContractSolution, t_left):
    return pointwise(model.cost, t_left, solution.effort(t_left))


def _rewards(model: MarketModel, prefs: Preferences, solution: ContractSolution,
             xi: np.ndarray, grid: np.ndarray, s: float) -> np.ndarray:
    """The agent's realized reward per path from the payments xi, seen from
    time s: weight f(T - s), running cost at the lags t - s."""
    t_left = grid[:-1]
    dt = float(grid[1] - grid[0])
    cost = _cost_at_equilibrium(model, solution, t_left)
    w = float(prefs.discount.value(model.horizon - s))
    return prefs.reward(w, xi, prefs.running_cost(t_left - s, cost, dt))


def agent_value_mc(model: MarketModel, prefs: Preferences, solution: ContractSolution,
                   ensemble: PathEnsemble) -> McEstimate:
    """Monte Carlo estimate of the agent's time-0 value under the contract."""
    _check_regime(prefs, solution)
    xi = contract_payoff(solution, ensemble)
    return _estimate(_rewards(model, prefs, solution, xi, ensemble.grid, 0.0),
                     ensemble.antithetic)


def principal_value_mc(model: MarketModel, prefs: Preferences, solution: ContractSolution,
                       ensemble: PathEnsemble) -> McEstimate:
    """Monte Carlo estimate of the principal's value under the contract."""
    _check_regime(prefs, solution)
    xi = contract_payoff(solution, ensemble)
    return _estimate(prefs.principal_u(ensemble.terminal - xi), ensemble.antithetic)


def _shift_correction(model: MarketModel, prefs: Preferences, solution: ContractSolution,
                      s: np.ndarray) -> np.ndarray:
    """I(s) = int_0^T c(r) [f(r - s) - f(T - s) f(r) / f(T)] dr, the s-shift
    correction, for a 1-D array of s: Simpson on the solver grid at the
    equilibrium cost, each row reduced alone, in blocks, so any block gives
    the same bits."""
    f, T, sg = prefs.discount, model.horizon, solution.grid
    cost = pointwise(model.cost, sg, solution.effort_values)
    f_sg = f.value(sg)
    ratio = f.value(T - s) / float(f.value(T))
    out = np.empty_like(s)
    for lo in range(0, s.size, SHIFT_ROWS):
        rows = slice(lo, lo + SHIFT_ROWS)
        shifted = f.value_extended(sg[None, :] - s[rows, None])
        out[rows] = simpson(cost[None, :] * (shifted - ratio[rows, None] * f_sg[None, :]), sg)
    return out


def _correction_sides(model: MarketModel, prefs: Preferences, solution: ContractSolution,
                      ensemble: PathEnsemble, s: float) -> tuple:
    """Per-path (lhs, rhs) of the s-shift correction identity at time 0: the
    s-shifted reward, and the unshifted one times f(T - s)/f(T) less the
    correction on the solver grid, an independent quadrature route.  Both
    read the same paths, so the payoff noise cancels and what remains is
    the quadrature-vs-Riemann discrepancy, O(dt)."""
    xi = contract_payoff(solution, ensemble)
    f, T = prefs.discount, model.horizon
    rhs = (float(f.value(T - s)) / float(f.value(T))
           * _rewards(model, prefs, solution, xi, ensemble.grid, 0.0)
           - float(_shift_correction(model, prefs, solution, np.array([s]))[0]))
    return _rewards(model, prefs, solution, xi, ensemble.grid, s), rhs


def _risk(gamma: float, weight: float, variance: Callable[[], float]) -> float:
    """gamma weight v / 2, v = variance(): a CARA utility (risk aversion
    gamma) of weight N(p, v) has the mean of its value at weight (p less
    this), formed so as exp((gamma weight)^2 v / 2) alone can overflow.  A
    zero gamma never forms v, which may overflow where it weighs nothing."""
    return 0.5 * gamma * weight * variance() if gamma else 0.0


def _exact_means(model: MarketModel, prefs: Preferences, solution: ContractSolution, s: float,
                 r_left: np.ndarray, actions: np.ndarray, paid: float, sign: float = 0.0) -> tuple:
    """Exact means under _outcomes' law, on the uniform left-point grid
    r_left of [s, T] at the actions there, of the agent's reward seen from
    s and the principal's utility (time-0 at s = 0): each party's utility
    at its Gaussian mean (for the payment, paid, the part realized by s,
    plus sum load sigma b dt) less _risk; a reward that is not finite
    raises ValueError.  With sign +-1 each left-point sum moves by its
    spread (its terms' total variation plus the largest, which bounds its
    O(dt) gap to the integral) so as to move both means by sign."""
    T = model.horizon
    dt = (T - s) / r_left.size
    sig = model.sigma_at(r_left)
    load = solution.loading(r_left)

    def total(terms, up):
        spread = np.sum(np.abs(np.diff(terms))) + np.max(np.abs(terms)) if sign else 0.0
        return float(np.sum(terms) + up * sign * spread) * dt

    with np.errstate(over="ignore", invalid="ignore"):
        drift = sig * pointwise(model.drift, r_left, actions)
        cost = prefs.cost_weight(r_left - s) * pointwise(model.cost, r_left, actions)
        pay = paid + total(drift * load, 1) - _risk(
            prefs.gamma_a, float(prefs.cost_weight(T - s)), lambda: total((sig * load) ** 2, -1))
        net = model.x0 - paid + total(drift * (1.0 - load), 1) - _risk(
            prefs.gamma_p, 1.0, lambda: total((sig * (1.0 - load)) ** 2, -1))
        reward = float(prefs.reward(float(prefs.discount.value(T - s)), pay, total(cost, -1)))
        utility = float(prefs.principal_u(net))
    if not math.isfinite(reward):
        raise ValueError(f"the agent's mean reward seen from t = {s:g} is not finite")
    return reward, utility


def spike_deviation_check(model: MarketModel, prefs: Preferences,
                          solution: ContractSolution, t: float, ell: float, alt_effort,
                          n_steps: int = 2000) -> McEstimate:
    """Value gain from deviating to alt_effort on [t, t+ell), std_error 0.

    alt_effort may be a constant or a callable of time.  The gain is the
    difference of _exact_means' rewards seen from t under the deviating and
    the equilibrium actions, exact on the m-step left-point tail grid of
    [t, T] that n_steps steps on [0, T] give it, from the contract part w_t
    realized along the mean path up to t, for the separable and the
    exponential-utility regimes alike; a reward that is not finite raises
    ValueError.  Only constant and policy-valued deviations are explored,
    so a pass is a necessary condition for equilibrium, not a proof.
    """
    T = model.horizon
    if not (math.isfinite(t) and math.isfinite(ell) and t >= 0.0 and ell > 0.0
            and t + ell <= T + 1e-12):
        raise ValueError("spike window [t, t+ell) must fit inside [0, T]")
    if n_steps < 1:
        raise ValueError("need n_steps >= 1")
    alt = _effort_fn(alt_effort)
    _check_actions(model, pointwise(alt, np.linspace(t, min(t + ell, T), 7)), "alt_effort")
    if prefs.spec_tag not in SECOND_BEST_TAGS + ("first_best_separable",):
        raise ValueError(f"no spike deviation check for spec {prefs.spec_tag!r}")

    m = max(2, int(round((T - t) / T * n_steps)))
    r_left = np.linspace(t, T, m + 1)[:-1]
    a_eq = solution.effort(r_left)
    a_dev = np.where(r_left < t + ell, pointwise(alt, r_left), a_eq)

    # realized contract part on [0, t], taken along the mean path: the grid
    # points before t, closed at t itself
    head = np.append(solution.grid[solution.grid < t], t)
    lam_head = model.sigma_at(head) * pointwise(model.drift, head, solution.effort(head)) \
        * solution.loading(head)
    w_t = solution.constant_term + (float(simpson(lam_head, head)) if head.size >= 2 else 0.0)

    try:
        dev, eq = (_exact_means(model, prefs, solution, t, r_left, a, w_t)[0]
                   for a in (a_dev, a_eq))
    except ValueError as exc:
        raise ValueError(f"spike check: {exc}") from None
    return McEstimate(mean=dev - eq, std_error=0.0)


def _check_estimator_units(n_paths: int, antithetic: bool):
    """Raise ValueError unless the paths give two estimator units for a
    standard error: two paths, or two antithetic pairs (an odd antithetic
    count simulates one more path)."""
    if ((n_paths + 1) // 2 if antithetic else n_paths) < 2:
        raise ValueError("n_paths must be at least 2, and at least 3 when antithetic: "
                         "a standard error needs two samples")


def verify_contract(model: MarketModel, prefs: Preferences, solution: ContractSolution,
                    n_paths: int = 100_000, n_steps: int = 2000, seed: int = 7,
                    antithetic: bool = False) -> dict:
    """Run the full Monte Carlo verification suite and return a report.

    Every regime gets participation and the principal's value; every
    second-best regime also gets eight spike deviations (t in {0, T/4, T/2,
    3T/4}, alt in {action_lo, mid}, each exact on the tail grid of [t, T]
    that n_steps gives it), and the separable one the correction identity
    at s = T/4 and T/2 (spike_deviation_check takes any other spike).

    One simulate gives the recipe of all paths; _outcomes draws their
    payments and X_T once for agent_value_mc, principal_value_mc and the
    correction identity.  An antithetic run with odd n_paths simulates
    one more path.  Participation and the principal's value pass within 3
    standard errors of their exact grid means (_exact_means at s = 0),
    whose gaps to the closed-form targets must lie within their O(dt)
    allowances, each comparison up to _ROUNDING of its magnitudes; the
    correction identity adds an O(dt) allowance to its 3 standard errors,
    and _ROUNDING of the mean magnitude of the rewards it compares.
    Fewer than two estimator units (paths, or antithetic pairs) raise
    ValueError.
    """
    if n_steps < 1 or n_paths < 1:
        raise ValueError("need n_steps >= 1 and n_paths >= 1")
    _check_estimator_units(n_paths, antithetic)
    if antithetic and "risk_neutral" in (prefs.agent_utility, prefs.principal_utility):
        # a risk-neutral reward is linear in the paths, so every antithetic
        # pair averages to the same number: the standard error is rounding
        # and cannot cover the O(dt) discretization gap of the mean
        raise ValueError("antithetic sampling needs exponential utilities for both "
                         "parties: a risk-neutral reward has no noise left to estimate")
    _check_regime(prefs, solution)
    shifts = (0.25 * model.horizon, 0.5 * model.horizon) \
        if prefs.spec_tag == "separable_rn" else ()
    for s in shifts:
        # the identity evaluates f(t - s) down to t - s = -s; a curve
        # undefined there raises ValueError before any path is simulated
        prefs.discount.value_extended(-s)

    total = n_paths + n_paths % 2 if antithetic else n_paths
    ensemble = simulate(model, solution.effort, total, n_steps, seed, antithetic=antithetic)
    t_left = ensemble.grid[:-1]
    exact, *corners = [_exact_means(model, prefs, solution, 0.0, t_left, solution.effort(t_left),
                                    solution.constant_term, sign) for sign in (0.0, 1.0, -1.0)]

    def estimated(k, est, target):
        allowance = max(abs(corner[k] - exact[k]) for corner in corners)
        rounding = _ROUNDING * max(abs(est.mean), abs(exact[k]), abs(target))
        return {"mean": est.mean, "se": est.std_error, "target": target,
                "grid_mean": exact[k], "gap": exact[k] - target, "allowance": allowance,
                "pass": (abs(est.mean - exact[k]) <= 3.0 * est.std_error + rounding
                         and abs(exact[k] - target) <= allowance + rounding)}

    report = {
        "participation": estimated(0, agent_value_mc(model, prefs, solution, ensemble),
                                   prefs.r0),
        "principal_value": estimated(1, principal_value_mc(model, prefs, solution, ensemble),
                                     solution.value_principal),
        "spike_tests": [], "delta_residuals": [],
    }

    dt = model.horizon / n_steps
    for s in shifts:
        lhs, rhs = _correction_sides(model, prefs, solution, ensemble, s)
        est = _estimate(lhs - rhs, ensemble.antithetic)
        rounding = _ROUNDING * max(float(np.mean(np.abs(lhs))), float(np.mean(np.abs(rhs))))
        cmax = float(np.max(np.abs(_cost_at_equilibrium(model, solution, t_left))))
        fmax = float(np.max(np.abs(prefs.discount.value_extended(t_left - s))))
        allowance = 2.0 * dt * cmax * (fmax + 1.0)
        report["delta_residuals"].append({
            "s": float(s), "mean": est.mean, "se": est.std_error,
            "allowance": allowance,
            "pass": abs(est.mean) <= 3.0 * est.std_error + allowance + rounding,
        })

    ell = 0.1 * model.horizon
    alts = (model.action_lo, 0.5 * (model.action_lo + model.action_hi))
    ts = np.linspace(0.0, 0.75 * model.horizon, 4).tolist() \
        if prefs.spec_tag in SECOND_BEST_TAGS else []
    for t, alt in [(t, alt) for t in ts for alt in alts]:
        est = spike_deviation_check(model, prefs, solution, t, ell, alt, n_steps=n_steps)
        bound = 10.0 * ell * ell + 3.0 * est.std_error
        report["spike_tests"].append({
            "t": t, "ell": ell, "alt": alt,
            "gain": est.mean, "se": est.std_error, "bound": bound,
            "pass": est.mean <= bound,
        })

    rows = [report["participation"], report["principal_value"],
            *report["delta_residuals"], *report["spike_tests"]]
    report["pass"] = bool(all(row["pass"] for row in rows))
    return report
