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
for the separable regime, and spike deviations of the equilibrium effort.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .closed_form import ContractSolution, simpson
from .model import MarketModel, Preferences, pointwise

# paths per simulated block in verify_contract (rounded up to whole payoff
# groups); 256 x 2000 steps is a 4 MB block
BLOCK_PATHS = 256
# rows per matrix-vector product in contract_payoff
PAYOFF_ROWS = 8
# values of s per block of the s-shift correction's (s, solver grid) arrays
SHIFT_ROWS = 32
INNER_SPIKE_PATHS = 10_000


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
    lo, hi = model.action_lo, model.action_hi
    slack = 1e-9 * max(1.0, hi - lo)
    if np.any(actions < lo - slack) or np.any(actions > hi + slack):
        raise ValueError("effort policy leaves the action interval")
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
    if prefs.spec_tag != solution.spec_tag:
        raise ValueError("preferences and solution disagree on the spec tag")
    xi = contract_payoff(solution, ensemble)
    return _estimate(_agent_values(model, prefs, solution, xi, ensemble.grid),
                     ensemble.antithetic)


def _principal_values(prefs: Preferences, xi: np.ndarray, terminal: np.ndarray) -> np.ndarray:
    return prefs.principal_u(terminal - xi)


def principal_value_mc(model: MarketModel, prefs: Preferences, solution: ContractSolution,
                       ensemble: PathEnsemble) -> McEstimate:
    """Monte Carlo estimate of the principal's value under the contract."""
    if prefs.spec_tag != solution.spec_tag:
        raise ValueError("preferences and solution disagree on the spec tag")
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


def _spike_nested_mc(model: MarketModel, prefs: Preferences, solution: ContractSolution,
                     t: float, ell: float, alt, n_inner: int, n_steps: int,
                     seed: int) -> McEstimate:
    if prefs.spec_tag not in ("discounted_utility", "discounted_income"):
        raise ValueError(f"no nested Monte Carlo spike check for spec {prefs.spec_tag!r}")
    if n_inner < 2:
        raise ValueError("the nested Monte Carlo spike check needs n_inner >= 2 "
                         "for a standard error")
    T = model.horizon
    alt_fn = _effort_fn(alt)
    m = max(2, int(round((T - t) / T * n_steps)))
    rs = np.linspace(t, T, m + 1)
    r_left = rs[:-1]
    dt = (T - t) / m
    sig = model.sigma_at(r_left)
    load = solution.loading(r_left)

    a_eq = solution.effort(r_left)
    a_dev = np.where(r_left < t + ell, pointwise(alt_fn, r_left), a_eq)
    drift_eq = sig * pointwise(model.drift, r_left, a_eq)
    drift_dev = sig * pointwise(model.drift, r_left, a_dev)
    cost_eq = pointwise(model.cost, r_left, a_eq)
    cost_dev = pointwise(model.cost, r_left, a_dev)

    # realized contract part on [0, t], taken along the mean path
    sg = solution.grid
    head = sg[sg <= t]
    if head.size >= 3:
        lam_head = model.sigma_at(head) * pointwise(model.drift, head, solution.effort(head)) \
            * solution.loading(head)
        w_t = solution.constant_term + float(simpson(lam_head, head))
    else:
        w_t = solution.constant_term

    gen = np.random.Generator(np.random.Philox(key=[seed, 0]))
    gains = np.empty(n_inner)
    block = 2000
    k_tail_dev = prefs.running_cost(r_left - t, cost_dev, dt)
    k_tail_eq = prefs.running_cost(r_left - t, cost_eq, dt)
    fTt = float(prefs.discount.value(T - t))
    for lo in range(0, n_inner, block):
        hi = min(lo + block, n_inner)
        z = gen.standard_normal((hi - lo, m))
        noise = (z * (sig * math.sqrt(dt))) @ load
        tail_dev = noise + float(np.sum(load * drift_dev) * dt)
        tail_eq = noise + float(np.sum(load * drift_eq) * dt)
        gains[lo:hi] = (prefs.reward(fTt, w_t + tail_dev, k_tail_dev)
                        - prefs.reward(fTt, w_t + tail_eq, k_tail_eq))
    return _estimate(gains, antithetic=False)


def spike_deviation_check(model: MarketModel, prefs: Preferences,
                          solution: ContractSolution, t: float, ell: float, alt_effort,
                          n_inner: int = INNER_SPIKE_PATHS, n_steps: int = 2000,
                          seed: int = 977) -> McEstimate:
    """Value gain from deviating to alt_effort on [t, t+ell).

    For the separable regime both values are deterministic integrals given
    the loading, so the gain is closed-form quadrature (std_error 0).  The
    exponential-utility regimes use nested Monte Carlo with common random
    numbers across the deviation and equilibrium branches, evaluated at the
    mean realized state; alt_effort may be a constant or a callable of
    time.  Only constant and policy-valued deviations are explored, so a
    pass is a necessary condition for equilibrium, not a proof.
    """
    if t + ell > model.horizon + 1e-12:
        raise ValueError("spike window [t, t+ell) must fit inside [0, T]")
    probe = pointwise(_effort_fn(alt_effort), np.linspace(t, min(t + ell, model.horizon), 7))
    if np.any(probe < model.action_lo - 1e-12) or np.any(probe > model.action_hi + 1e-12):
        raise ValueError("alt_effort leaves the action interval")
    if prefs.spec_tag in ("separable_rn", "first_best_separable"):
        return _spike_quadrature(model, prefs, solution, t, ell, alt_effort)
    return _spike_nested_mc(model, prefs, solution, t, ell, alt_effort,
                            n_inner, n_steps, seed)


def _check_estimator_units(n_paths: int, antithetic: bool):
    """Raise ValueError unless the paths give two estimator units for a
    standard error: two paths, or two antithetic pairs (an odd antithetic
    count simulates one more path)."""
    if ((n_paths + 1) // 2 if antithetic else n_paths) < 2:
        raise ValueError("n_paths must be at least 2, and at least 3 when antithetic: "
                         "a standard error needs two samples")


def verify_contract(model: MarketModel, prefs: Preferences, solution: ContractSolution,
                    n_paths: int = 100_000, n_steps: int = 2000, seed: int = 7,
                    antithetic: bool = False, threads: Optional[int] = None,
                    s_values=None, spike_tests=None) -> dict:
    """Run the full Monte Carlo verification suite and return a report.

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
    if s_values is None:
        s_values = (0.25 * model.horizon, 0.5 * model.horizon) \
            if prefs.spec_tag == "separable_rn" else ()
    if len(s_values) and prefs.spec_tag != "separable_rn":
        raise ValueError("the correction identity check covers the separable regime")
    for s in s_values:
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
    for s in s_values:
        est = _estimate(_delta_residuals(model, prefs, solution, xi, grid, s), anti)
        cmax = float(np.max(np.abs(_cost_at_equilibrium(model, solution, t_left))))
        fmax = float(np.max(np.abs(prefs.discount.value_extended(t_left - s))))
        allowance = 2.0 * dt * cmax * (fmax + 1.0)
        report["delta_residuals"].append({
            "s": float(s), "mean": est.mean, "se": est.std_error,
            "allowance": allowance,
            "pass": abs(est.mean) <= 3.0 * est.std_error + allowance,
        })

    if spike_tests is None and prefs.spec_tag == "separable_rn":
        ts = np.linspace(0.0, 0.75 * model.horizon, 4)
        alts = (model.action_lo,
                0.5 * (model.action_lo + model.action_hi))
        spike_tests = [(float(t), 0.1 * model.horizon, a) for t in ts for a in alts]
    for (t, ell, alt) in (spike_tests or []):
        est = spike_deviation_check(model, prefs, solution, t, ell, alt, seed=seed + 1)
        bound = 10.0 * ell * ell + 3.0 * est.std_error
        report["spike_tests"].append({
            "t": t, "ell": ell, "alt": alt if not callable(alt) else "policy",
            "gain": est.mean, "se": est.std_error, "bound": bound,
            "pass": est.mean <= bound,
        })

    checks = [report["participation"]["pass"], report["principal_value"]["pass"]]
    checks += [r["pass"] for r in report["delta_residuals"]]
    checks += [r["pass"] for r in report["spike_tests"]]
    report["pass"] = bool(all(checks))
    return report
