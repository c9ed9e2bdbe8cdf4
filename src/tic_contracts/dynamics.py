"""Path simulation, contract evaluation, and Monte Carlo verification.

Simulation uses the weak formulation: the output process is Euler-stepped
with the drift implied by the equilibrium effort policy,

    X_{i+1} = X_i + sigma(t_i) b(t_i, a(t_i)) dt + sigma(t_i) sqrt(dt) N(0,1).

Randomness comes from counter-based Philox streams keyed by (seed, path),
so any blocking or thread schedule reproduces the same ensemble bit for
bit; the seed is a signed 64-bit integer.  The payoff's matrix-vector
product runs over fixed groups of paths and the estimator reductions go
through numpy's pairwise summation over per-path vectors, so they are
likewise schedule-independent.

verify_contract streams: it keeps two numbers per path (the payment and
X_T) and drops each block of paths, so its memory is O(block x steps +
paths), not O(paths x steps).

The checkers cover: participation (agent Monte Carlo value vs the
reservation level), the principal's value, the s-shift correction identity
for the separable regime, and spike deviations of the equilibrium effort
for every second-best regime.  A spike gain has no sampling error: Simpson
quadrature for the separable regime, and for the exponential-utility
regimes the closed-form mean of a CARA reward of Gaussian output noise.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .closed_form import ContractSolution, simpson
from .model import SECOND_BEST_TAGS, MarketModel, Preferences, pointwise

# paths per simulated block in verify_contract (rounded up to whole payoff
# groups); 256 x 2000 steps is a 4 MB block
BLOCK_PATHS = 256
# rows per matrix-vector product in contract_payoff
PAYOFF_ROWS = 8
# values of s per block of the s-shift correction's (s, solver grid) arrays
SHIFT_ROWS = 32


@dataclass
class McEstimate:
    mean: float
    std_error: float
    n: int


@dataclass
class PathEnsemble:
    """Simulated output increments on a uniform grid.

    increments[p][i] covers [grid[i], grid[i+1]); the verification
    estimators only ever need the increments and X_T.
    """

    n_paths: int
    grid: np.ndarray
    increments: np.ndarray
    x0: float
    antithetic: bool = False

    @property
    def terminal(self) -> np.ndarray:
        return self.x0 + np.sum(self.increments, axis=1)


def _thread_count(threads: Optional[int]) -> int:
    """Worker threads for the RNG fill: the flag, else one; never more
    than the machine's CPUs (asked only for a count above one).  A count
    below one raises ValueError."""
    count = 1 if threads is None else int(threads)
    if count < 1:
        raise ValueError("threads must be positive")
    return 1 if count == 1 else min(count, os.cpu_count() or 1)


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


def _normal_rows(out: np.ndarray, seed: int, first_key: int, threads: int):
    """Fill each row p of out from the Philox stream keyed (seed, first_key+p).

    Philox is counter-based (Salmon et al., SC'11): a stream is its key and
    a counter.  Each worker builds one generator and re-keys it for every
    row (key (seed, first_key + p), counter 0, empty buffer), which draws
    the same numbers as a new Generator(Philox(key=[seed, first_key + p]))
    without building one per row.  The seed keys as Philox's constructor
    reads it: modulo 2**64, so -1 keys as 2**64 - 1.  The thread pool is
    imported here, and only when more than one thread fills, so a
    one-thread run never loads concurrent.futures.
    """
    seed_word = int(seed) % 2**64

    def fill(lo, hi):
        bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        gen = np.random.Generator(bits)
        state = bits.state  # counter 0, empty buffer, no spare 32-bit word
        key = state["state"]["key"]
        key[0] = seed_word
        for p in range(lo, hi):
            key[1] = first_key + p
            bits.state = state
            gen.standard_normal(out=out[p])

    n = out.shape[0]
    if threads <= 1 or n < 2 * threads:
        fill(0, n)
        return
    from concurrent.futures import ThreadPoolExecutor

    bounds = np.linspace(0, n, threads + 1).astype(int)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fill, bounds[i], bounds[i + 1]) for i in range(threads)]
        for f in futures:
            f.result()


def simulate(model: MarketModel, effort, n_paths: int, n_steps: int, seed: int,
             antithetic: bool = False, threads: Optional[int] = None,
             path_offset: int = 0) -> PathEnsemble:
    """Simulate n_paths output paths under the given effort policy.

    effort is a callable of time or a constant action.  path_offset shifts
    the per-path stream keys so that chunked generation concatenates to
    the same ensemble as a single call.
    """
    if n_steps < 1 or n_paths < 1:
        raise ValueError("need n_steps >= 1 and n_paths >= 1")
    if not -2**63 <= seed < 2**63:
        raise ValueError("seed must be a signed 64-bit integer")
    if antithetic and (n_paths % 2 or path_offset % 2):
        raise ValueError("antithetic sampling needs even n_paths and even path_offset")
    eff = _effort_fn(effort)
    T = model.horizon
    grid = np.linspace(0.0, T, n_steps + 1)
    dt = T / n_steps
    t_left = grid[:-1]
    actions = pointwise(eff, t_left)
    _check_actions(model, actions, "effort policy")
    sig = model.sigma_at(t_left)
    drift = sig * pointwise(model.drift, t_left, actions)

    threads = _thread_count(threads)
    z = np.empty((n_paths, n_steps), dtype=np.float64)
    if antithetic:
        half = np.empty((n_paths // 2, n_steps), dtype=np.float64)
        _normal_rows(half, seed, path_offset // 2, threads)
        z[0::2] = half
        z[1::2] = -half
        del half
    else:
        _normal_rows(z, seed, path_offset, threads)

    z *= sig * math.sqrt(dt)
    z += drift * dt
    return PathEnsemble(n_paths=n_paths, grid=grid, increments=z, x0=model.x0,
                        antithetic=antithetic)


def _estimate(values: np.ndarray, antithetic: bool) -> McEstimate:
    if antithetic:
        units = 0.5 * (values[0::2] + values[1::2])
    else:
        units = values
    n = units.size
    mean = float(np.mean(units))
    se = float(np.std(units, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return McEstimate(mean=mean, std_error=se, n=n)


def contract_payoff(solution: ContractSolution, ensemble: PathEnsemble) -> np.ndarray:
    """Per-path terminal payment: constant term plus the loading integral.

    The matrix-vector product runs over fixed groups of PAYOFF_ROWS paths.
    A BLAS kernel's summation order for one row depends on the rows around
    it (their count and the thread split), so fixed groups make a path's
    payment independent of how the ensemble was blocked.
    """
    load = solution.loading(ensemble.grid[:-1])
    inc = ensemble.increments
    out = np.empty(inc.shape[0])
    for lo in range(0, inc.shape[0], PAYOFF_ROWS):
        np.matmul(inc[lo:lo + PAYOFF_ROWS], load, out=out[lo:lo + PAYOFF_ROWS])
    return solution.constant_term + out


def _cost_at_equilibrium(model: MarketModel, solution: ContractSolution, t_left):
    return pointwise(model.cost, t_left, solution.effort(t_left))


def _agent_values(model: MarketModel, prefs: Preferences, solution: ContractSolution,
                  xi: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The agent's realized reward per path, from the payments xi."""
    t_left = grid[:-1]
    dt = float(grid[1] - grid[0])
    cost = _cost_at_equilibrium(model, solution, t_left)
    fT = float(prefs.discount.value(model.horizon))
    return prefs.reward(fT, xi, prefs.running_cost(t_left, cost, dt))


def agent_value_mc(model: MarketModel, prefs: Preferences, solution: ContractSolution,
                   ensemble: PathEnsemble) -> McEstimate:
    """Monte Carlo estimate of the agent's time-0 value under the contract."""
    _check_regime(prefs, solution)
    xi = contract_payoff(solution, ensemble)
    return _estimate(_agent_values(model, prefs, solution, xi, ensemble.grid),
                     ensemble.antithetic)


def _principal_values(prefs: Preferences, xi: np.ndarray, terminal: np.ndarray) -> np.ndarray:
    return prefs.principal_u(terminal - xi)


def principal_value_mc(model: MarketModel, prefs: Preferences, solution: ContractSolution,
                       ensemble: PathEnsemble) -> McEstimate:
    """Monte Carlo estimate of the principal's value under the contract."""
    _check_regime(prefs, solution)
    xi = contract_payoff(solution, ensemble)
    return _estimate(_principal_values(prefs, xi, ensemble.terminal), ensemble.antithetic)


def _shift_correction(model: MarketModel, prefs: Preferences, solution: ContractSolution,
                      s: np.ndarray) -> np.ndarray:
    """I(s) = int_0^T c(r) [f(r - s) - f(T - s) f(r) / f(T)] dr, the s-shift
    correction, for a 1-D array of s: Simpson on the solver grid at the
    equilibrium cost, which reduces each row alone, so any block gives the
    same bits."""
    f = prefs.discount
    sg = solution.grid
    cost = pointwise(model.cost, sg, solution.effort_values)
    f_sg = np.asarray(f.value(sg), dtype=float)
    ratio = np.asarray(f.value(model.horizon - s), dtype=float) / float(f.value(model.horizon))
    out = np.empty_like(s)
    for lo in range(0, s.size, SHIFT_ROWS):
        rows = slice(lo, lo + SHIFT_ROWS)
        shifted = np.asarray(f.value_extended(sg[None, :] - s[rows, None]), dtype=float)
        out[rows] = simpson(cost[None, :] * (shifted - ratio[rows, None] * f_sg[None, :]),
                            sg, axis=1)
    return out


def _delta_residuals(model: MarketModel, prefs: Preferences, solution: ContractSolution,
                     xi: np.ndarray, grid: np.ndarray, s: float) -> np.ndarray:
    f = prefs.discount
    T = model.horizon
    fT = float(f.value(T))
    fTs = float(f.value(T - s))
    t_left = grid[:-1]
    dt = float(grid[1] - grid[0])
    cost = _cost_at_equilibrium(model, solution, t_left)

    lhs = prefs.reward(fTs, xi, prefs.running_cost(t_left - s, cost, dt))
    rhs_mc = (fTs / fT) * prefs.reward(fT, xi, prefs.running_cost(t_left, cost, dt))
    # the correction on the solver grid, an independent quadrature route
    rhs = rhs_mc - float(_shift_correction(model, prefs, solution, np.array([s]))[0])
    return lhs - rhs


def delta_correction_check(model: MarketModel, prefs: Preferences,
                           solution: ContractSolution, ensemble: PathEnsemble,
                           s: float) -> McEstimate:
    """Residual of the s-shift correction identity at time 0.

    The left side evaluates the s-shifted reward directly; the right side
    combines the unshifted reward with the correction integral.  Both use
    the same paths, so the payoff noise cancels and what remains is the
    quadrature-vs-Riemann discrepancy, O(dt).
    """
    if prefs.spec_tag != "separable_rn":
        raise ValueError("the correction identity check covers the separable regime")
    if not 0.0 <= s <= model.horizon:
        raise ValueError("s must lie in [0, T]")
    xi = contract_payoff(solution, ensemble)
    return _estimate(_delta_residuals(model, prefs, solution, xi, ensemble.grid, s),
                     ensemble.antithetic)


def _spike_quadrature(model: MarketModel, prefs: Preferences, solution: ContractSolution,
                      t: float, ell: float, alt) -> McEstimate:
    f = prefs.discount
    T = model.horizon
    fTt = float(f.value(T - t))
    n_nodes = 257
    rs = np.linspace(t, t + ell, n_nodes)
    a_eq = solution.effort(rs)
    a_dev = pointwise(_effort_fn(alt), rs)
    drift_diff = model.sigma_at(rs) * (pointwise(model.drift, rs, a_dev)
                                       - pointwise(model.drift, rs, a_eq))
    cost_diff = pointwise(model.cost, rs, a_dev) - pointwise(model.cost, rs, a_eq)
    vals = fTt * solution.loading(rs) * drift_diff \
        - np.asarray(f.value_extended(rs - t)) * cost_diff
    vals[a_dev == a_eq] = 0.0
    gain = float(simpson(vals, rs))
    if np.all(vals == 0.0):
        gain = 0.0
    return McEstimate(mean=gain, std_error=0.0, n=n_nodes)


def _spike_cara(model: MarketModel, prefs: Preferences, solution: ContractSolution,
                t: float, ell: float, alt, n_steps: int) -> McEstimate:
    """The exact mean gain on the m-step left-point tail grid of [t, T].

    Seen from t, the payment is w_t + sum load sigma b(a) dt + N with
    N ~ N(0, v), v = sum load^2 sigma^2 dt, whatever the action; a CARA
    reward of that has the mean reward(w, p, k) exp((gamma_a b)^2 v / 2),
    with b the weight the payment carries inside the utility (1, or w for
    discounted income).  That is the reward at the payment less
    gamma_a b v / 2, which is how it is formed: the factor alone can
    overflow where the product is finite.
    """
    T = model.horizon
    m = max(2, int(round((T - t) / T * n_steps)))
    r_left = np.linspace(t, T, m + 1)[:-1]
    dt = (T - t) / m
    sig = model.sigma_at(r_left)
    load = solution.loading(r_left)
    a_eq = solution.effort(r_left)
    a_dev = np.where(r_left < t + ell, pointwise(_effort_fn(alt), r_left), a_eq)

    # realized contract part on [0, t], taken along the mean path
    head = solution.grid[solution.grid <= t]
    lam_head = model.sigma_at(head) * pointwise(model.drift, head, solution.effort(head)) \
        * solution.loading(head)
    w_t = solution.constant_term + (float(simpson(lam_head, head)) if head.size >= 3 else 0.0)

    w = float(prefs.discount.value(T - t))
    b = 1.0 if prefs.spec_tag == "discounted_utility" else w
    risk = 0.5 * prefs.gamma_a * b * float(np.sum(load * load * sig * sig) * dt)

    def value(actions):
        pay = w_t - risk + float(np.sum(load * (sig * pointwise(model.drift, r_left, actions))) * dt)
        running = prefs.running_cost(r_left - t, pointwise(model.cost, r_left, actions), dt)
        return float(prefs.reward(w, pay, running))

    return McEstimate(mean=value(a_dev) - value(a_eq), std_error=0.0, n=m)


def spike_deviation_check(model: MarketModel, prefs: Preferences,
                          solution: ContractSolution, t: float, ell: float, alt_effort,
                          n_steps: int = 2000) -> McEstimate:
    """Value gain from deviating to alt_effort on [t, t+ell), std_error 0.

    alt_effort may be a constant or a callable of time.  For the separable
    regimes both values are deterministic integrals given the loading, so
    the gain is Simpson quadrature on the window.  For the exponential-
    utility regimes the gain is the exact expectation over the output noise
    after t, on the tail grid of [t, T] that n_steps steps on [0, T] give
    it, from the contract part realized along the mean path up to t.  Only
    constant and policy-valued deviations are explored, so a pass is a
    necessary condition for equilibrium, not a proof.
    """
    if t + ell > model.horizon + 1e-12:
        raise ValueError("spike window [t, t+ell) must fit inside [0, T]")
    probe = pointwise(_effort_fn(alt_effort), np.linspace(t, min(t + ell, model.horizon), 7))
    _check_actions(model, probe, "alt_effort")
    if prefs.spec_tag in ("separable_rn", "first_best_separable"):
        return _spike_quadrature(model, prefs, solution, t, ell, alt_effort)
    if prefs.spec_tag in ("discounted_utility", "discounted_income"):
        return _spike_cara(model, prefs, solution, t, ell, alt_effort, n_steps)
    raise ValueError(f"no spike deviation check for spec {prefs.spec_tag!r}")


def _check_estimator_units(n_paths: int, antithetic: bool):
    """Raise ValueError unless the paths give two estimator units for a
    standard error: two paths, or two antithetic pairs (an odd antithetic
    count simulates one more path)."""
    if ((n_paths + 1) // 2 if antithetic else n_paths) < 2:
        raise ValueError("n_paths must be at least 2, and at least 3 when antithetic: "
                         "a standard error needs two samples")


def verify_contract(model: MarketModel, prefs: Preferences, solution: ContractSolution,
                    n_paths: int = 100_000, n_steps: int = 2000, seed: int = 7,
                    antithetic: bool = False, threads: Optional[int] = None) -> dict:
    """Run the full Monte Carlo verification suite and return a report.

    Every regime gets participation and the principal's value; every
    second-best regime also gets eight spike deviations (t in {0, T/4, T/2,
    3T/4}, alt in {action_lo, mid}, on the n_steps grid), and the
    separable one the correction identity at s = T/4 and T/2
    (delta_correction_check and spike_deviation_check take any other s or
    spike).

    Paths are simulated in blocks of BLOCK_PATHS, rounded up to whole
    groups of PAYOFF_ROWS.  Each block is reduced to its payments and
    terminal outputs, then dropped, so memory stays O(block x steps +
    paths).  Stream keys depend only on the global path index and the
    payoff groups line up with the blocks, so blocking and threads never
    change the numbers: the estimates equal agent_value_mc and
    principal_value_mc on one simulate of all paths, bit for bit.  An
    antithetic run with odd n_paths simulates one more path.  Checks pass
    at 3 standard errors; the correction-identity check adds an explicit
    O(dt) discretization allowance on top.  A standard error needs two
    estimator units (paths, or antithetic pairs); fewer raise ValueError.
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

    threads = _thread_count(threads)  # once per run, not once per block
    block_paths = -(-BLOCK_PATHS // PAYOFF_ROWS) * PAYOFF_ROWS
    total = n_paths + n_paths % 2 if antithetic else n_paths
    xi = np.empty(total)
    terminal = np.empty(total)
    for done in range(0, total, block_paths):
        block = simulate(model, solution.effort, min(block_paths, total - done), n_steps,
                         seed, antithetic=antithetic, threads=threads, path_offset=done)
        xi[done:done + block.n_paths] = contract_payoff(solution, block)
        terminal[done:done + block.n_paths] = block.terminal
    grid = block.grid

    anti = antithetic
    agent = _estimate(_agent_values(model, prefs, solution, xi, grid), anti)
    principal = _estimate(_principal_values(prefs, xi, terminal), anti)

    report = {
        "participation": {
            "mean": agent.mean, "se": agent.std_error, "target": prefs.r0,
            "pass": abs(agent.mean - prefs.r0) <= 3.0 * agent.std_error,
        },
        "principal_value": {
            "mean": principal.mean, "se": principal.std_error,
            "target": solution.value_principal,
            "pass": abs(principal.mean - solution.value_principal)
                    <= 3.0 * principal.std_error,
        },
        "spike_tests": [],
        "delta_residuals": [],
    }

    dt = model.horizon / n_steps
    t_left = grid[:-1]
    for s in shifts:
        est = _estimate(_delta_residuals(model, prefs, solution, xi, grid, s), anti)
        cmax = float(np.max(np.abs(_cost_at_equilibrium(model, solution, t_left))))
        fmax = float(np.max(np.abs(prefs.discount.value_extended(t_left - s))))
        allowance = 2.0 * dt * cmax * (fmax + 1.0)
        report["delta_residuals"].append({
            "s": float(s), "mean": est.mean, "se": est.std_error,
            "allowance": allowance,
            "pass": abs(est.mean) <= 3.0 * est.std_error + allowance,
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

    checks = [report["participation"]["pass"], report["principal_value"]["pass"]]
    checks += [r["pass"] for r in report["delta_residuals"]]
    checks += [r["pass"] for r in report["spike_tests"]]
    report["pass"] = bool(all(checks))
    return report
