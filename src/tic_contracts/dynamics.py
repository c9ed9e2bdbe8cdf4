"""Path simulation, contract evaluation, and Monte Carlo verification.

Simulation uses the weak formulation: the output process is Euler-stepped
with the drift implied by the equilibrium effort policy,

    X_{i+1} = X_i + sigma(t_i) b(t_i, a(t_i)) dt + sigma(t_i) sqrt(dt) N(0,1).

Randomness comes from counter-based Philox streams keyed by (seed, path),
so any chunking or thread schedule reproduces the same ensemble bit for
bit.  Estimator reductions go through numpy's pairwise summation, which is
likewise schedule-independent.

The checkers cover: participation (agent Monte Carlo value vs the
reservation level), the principal's value, the s-shift correction identity
for the separable regime, and spike deviations of the equilibrium effort.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .closed_form import ContractSolution, simpson
from .model import MarketModel, Preferences

CHUNK_PATHS = 16384
INNER_SPIKE_PATHS = 10_000


@dataclass
class McEstimate:
    mean: float
    std_error: float
    n: int


@dataclass
class PathEnsemble:
    """Simulated output increments on a uniform grid.

    increments[p][i] covers [grid[i], grid[i+1]).  The cumulative paths
    (including x0 at the first node) are materialized lazily since the
    verification estimators only ever need increments and X_T.
    """

    n_paths: int
    grid: np.ndarray
    increments: np.ndarray
    seed: int
    effort_label: str
    x0: float
    antithetic: bool = False
    _paths: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def paths(self) -> np.ndarray:
        if self._paths is None:
            n, m = self.increments.shape
            out = np.empty((n, m + 1), dtype=np.float64)
            out[:, 0] = self.x0
            np.cumsum(self.increments, axis=1, out=out[:, 1:])
            out[:, 1:] += self.x0
            self._paths = out
        return self._paths

    @property
    def terminal(self) -> np.ndarray:
        return self.x0 + np.sum(self.increments, axis=1)


def _thread_count(threads: Optional[int]) -> int:
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("TIC_CONTRACTS_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def _effort_fn(effort) -> Callable[[float], float]:
    if callable(effort):
        return effort
    a = float(effort)
    return lambda t: a


def _normal_rows(out: np.ndarray, seed: int, first_key: int, threads: int):
    """Fill each row p of out from the Philox stream keyed (seed, first_key+p)."""

    def fill(lo, hi):
        m = out.shape[1]
        for p in range(lo, hi):
            gen = np.random.Generator(np.random.Philox(key=[seed, first_key + p]))
            out[p] = gen.standard_normal(m)

    n = out.shape[0]
    if threads <= 1 or n < 2 * threads:
        fill(0, n)
        return
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
    if antithetic and (n_paths % 2 or path_offset % 2):
        raise ValueError("antithetic sampling needs even n_paths and even path_offset")
    eff = _effort_fn(effort)
    T = model.horizon
    grid = np.linspace(0.0, T, n_steps + 1)
    dt = T / n_steps
    t_left = grid[:-1]
    actions = np.asarray([float(eff(float(t))) for t in t_left])
    lo, hi = model.action_lo, model.action_hi
    slack = 1e-9 * max(1.0, hi - lo)
    if np.any(actions < lo - slack) or np.any(actions > hi + slack):
        raise ValueError("effort policy leaves the action interval")
    sig = np.asarray([float(model.sigma_at(float(t))) for t in t_left])
    drift = np.asarray([sig[i] * float(model.drift(float(t), actions[i]))
                        for i, t in enumerate(t_left)])

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
    label = getattr(effort, "__name__", None) or (
        f"constant:{float(effort):g}" if not callable(effort) else "callable")
    return PathEnsemble(
        n_paths=n_paths, grid=grid, increments=z, seed=seed,
        effort_label=label, x0=model.x0, antithetic=antithetic,
    )


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
    """Per-path terminal payment: constant term plus the loading integral."""
    load = solution.loading(ensemble.grid[:-1])
    return solution.constant_term + ensemble.increments @ load


def _cost_at_equilibrium(model: MarketModel, solution: ContractSolution, t_left):
    a = solution.effort(t_left)
    return np.asarray([float(model.cost(float(t), float(a[i])))
                       for i, t in enumerate(t_left)])


def _agent_values(model: MarketModel, prefs: Preferences, solution: ContractSolution,
                  ensemble: PathEnsemble) -> np.ndarray:
    t_left = ensemble.grid[:-1]
    dt = float(ensemble.grid[1] - ensemble.grid[0])
    xi = contract_payoff(solution, ensemble)
    cost = _cost_at_equilibrium(model, solution, t_left)
    f = prefs.discount
    T = model.horizon
    fT = float(f.value(T))
    tag = prefs.spec_tag
    if tag in ("separable_rn", "first_best_separable"):
        running = float(np.sum(np.asarray(f.value(t_left)) * cost) * dt)
        return fT * xi - running
    if tag == "discounted_utility":
        running = float(np.sum(cost) * dt)
        return fT * prefs.agent_u(xi - running)
    if tag == "discounted_income":
        running = float(np.sum(np.asarray(f.value(t_left)) * cost) * dt)
        return prefs.agent_u(fT * xi - running)
    if tag == "first_best_nonseparable":
        running = float(np.sum(np.asarray(f.value(t_left)) * cost) * dt)
        return fT * prefs.agent_u(fT * xi - running)
    raise ValueError(f"no agent reward defined for spec {tag!r}")


def agent_value_mc(model: MarketModel, prefs: Preferences, solution: ContractSolution,
                   ensemble: PathEnsemble) -> McEstimate:
    """Monte Carlo estimate of the agent's time-0 value under the contract."""
    if prefs.spec_tag != solution.spec_tag:
        raise ValueError("preferences and solution disagree on the spec tag")
    return _estimate(_agent_values(model, prefs, solution, ensemble), ensemble.antithetic)


def _principal_values(prefs: Preferences, solution: ContractSolution,
                      ensemble: PathEnsemble) -> np.ndarray:
    xi = contract_payoff(solution, ensemble)
    return prefs.principal_u(ensemble.terminal - xi)


def principal_value_mc(model: MarketModel, prefs: Preferences, solution: ContractSolution,
                       ensemble: PathEnsemble) -> McEstimate:
    """Monte Carlo estimate of the principal's value under the contract."""
    if prefs.spec_tag != solution.spec_tag:
        raise ValueError("preferences and solution disagree on the spec tag")
    return _estimate(_principal_values(prefs, solution, ensemble), ensemble.antithetic)


def _delta_residuals(model: MarketModel, prefs: Preferences, solution: ContractSolution,
                     ensemble: PathEnsemble, s: float) -> np.ndarray:
    f = prefs.discount
    T = model.horizon
    fT = float(f.value(T))
    fTs = float(f.value(T - s))
    t_left = ensemble.grid[:-1]
    dt = float(ensemble.grid[1] - ensemble.grid[0])
    xi = contract_payoff(solution, ensemble)
    cost = _cost_at_equilibrium(model, solution, t_left)
    f_shift = np.asarray(f.value_extended(t_left - s))
    f_plain = np.asarray(f.value(t_left))

    lhs = fTs * xi - float(np.sum(f_shift * cost) * dt)
    rhs_mc = (fTs / fT) * (fT * xi - float(np.sum(f_plain * cost) * dt))
    # delta integral on the solver grid, an independent quadrature route
    sg = solution.grid
    cg = np.asarray([float(model.cost(float(t), float(a)))
                     for t, a in zip(sg, solution.effort_values)])
    delta = cg * (np.asarray(f.value_extended(sg - s)) - (fTs / fT) * np.asarray(f.value(sg)))
    rhs = rhs_mc - float(simpson(delta, sg))
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
    return _estimate(_delta_residuals(model, prefs, solution, ensemble, s),
                     ensemble.antithetic)


def _spike_quadrature(model: MarketModel, prefs: Preferences, solution: ContractSolution,
                      t: float, ell: float, alt) -> McEstimate:
    f = prefs.discount
    T = model.horizon
    fTt = float(f.value(T - t))
    n_nodes = 257
    rs = np.linspace(t, t + ell, n_nodes)
    alt_fn = _effort_fn(alt)
    vals = np.empty(n_nodes)
    for i, r in enumerate(rs):
        r = float(r)
        a_eq = float(solution.effort(r))
        a_dev = float(alt_fn(r))
        sig = float(model.sigma_at(r))
        if a_dev == a_eq:
            vals[i] = 0.0
            continue
        drift_diff = sig * (model.drift(r, a_dev) - model.drift(r, a_eq))
        cost_diff = model.cost(r, a_dev) - model.cost(r, a_eq)
        load = float(solution.loading(r))
        vals[i] = fTt * load * drift_diff - float(f.value_extended(r - t)) * cost_diff
    gain = float(simpson(vals, rs))
    if np.all(vals == 0.0):
        gain = 0.0
    return McEstimate(mean=gain, std_error=0.0, n=n_nodes)


def _spike_nested_mc(model: MarketModel, prefs: Preferences, solution: ContractSolution,
                     t: float, ell: float, alt, n_inner: int, n_steps: int,
                     seed: int) -> McEstimate:
    f = prefs.discount
    T = model.horizon
    tag = prefs.spec_tag
    alt_fn = _effort_fn(alt)
    m = max(2, int(round((T - t) / T * n_steps)))
    rs = np.linspace(t, T, m + 1)
    r_left = rs[:-1]
    dt = (T - t) / m
    sig = np.asarray([float(model.sigma_at(float(r))) for r in r_left])
    load = solution.loading(r_left)

    a_eq = np.asarray([float(solution.effort(float(r))) for r in r_left])
    a_dev = np.asarray([float(alt_fn(float(r))) if r < t + ell else a_eq[i]
                        for i, r in enumerate(r_left)])
    drift_eq = np.asarray([sig[i] * float(model.drift(float(r), a_eq[i]))
                           for i, r in enumerate(r_left)])
    drift_dev = np.asarray([sig[i] * float(model.drift(float(r), a_dev[i]))
                            for i, r in enumerate(r_left)])
    cost_eq = np.asarray([float(model.cost(float(r), a_eq[i])) for i, r in enumerate(r_left)])
    cost_dev = np.asarray([float(model.cost(float(r), a_dev[i])) for i, r in enumerate(r_left)])

    # realized contract part on [0, t], taken along the mean path
    sg = solution.grid
    head = sg[sg <= t]
    if head.size >= 3:
        lam_head = np.empty(head.size)
        for i, u in enumerate(head):
            a_u = float(solution.effort(float(u)))
            lam_head[i] = float(model.sigma_at(float(u)) * model.drift(float(u), a_u)) \
                * float(solution.loading(float(u)))
        w_t = solution.constant_term + float(simpson(lam_head, head))
    else:
        w_t = solution.constant_term

    gen = np.random.Generator(np.random.Philox(key=[seed, 0]))
    gains = np.empty(n_inner)
    block = 2000
    k_tail_dev = float(np.sum((np.asarray(f.value(r_left - t)) if tag == "discounted_income"
                               else 1.0) * cost_dev) * dt)
    k_tail_eq = float(np.sum((np.asarray(f.value(r_left - t)) if tag == "discounted_income"
                              else 1.0) * cost_eq) * dt)
    fTt = float(f.value(T - t))
    for lo in range(0, n_inner, block):
        hi = min(lo + block, n_inner)
        z = gen.standard_normal((hi - lo, m))
        noise = (z * (sig * math.sqrt(dt))) @ load
        tail_dev = noise + float(np.sum(load * drift_dev) * dt)
        tail_eq = noise + float(np.sum(load * drift_eq) * dt)
        if tag == "discounted_utility":
            v_dev = fTt * prefs.agent_u(w_t + tail_dev - k_tail_dev)
            v_eq = fTt * prefs.agent_u(w_t + tail_eq - k_tail_eq)
        elif tag == "discounted_income":
            v_dev = prefs.agent_u(fTt * (w_t + tail_dev) - k_tail_dev)
            v_eq = prefs.agent_u(fTt * (w_t + tail_eq) - k_tail_eq)
        else:
            raise ValueError(f"no nested Monte Carlo spike check for spec {tag!r}")
        gains[lo:hi] = v_dev - v_eq
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
    alt_fn = _effort_fn(alt_effort)
    probe = np.linspace(t, min(t + ell, model.horizon), 7)
    for r in probe:
        a = float(alt_fn(float(r)))
        if a < model.action_lo - 1e-12 or a > model.action_hi + 1e-12:
            raise ValueError("alt_effort leaves the action interval")
    if prefs.spec_tag in ("separable_rn", "first_best_separable"):
        return _spike_quadrature(model, prefs, solution, t, ell, alt_effort)
    return _spike_nested_mc(model, prefs, solution, t, ell, alt_effort,
                            n_inner, n_steps, seed)


def verify_contract(model: MarketModel, prefs: Preferences, solution: ContractSolution,
                    n_paths: int = 100_000, n_steps: int = 2000, seed: int = 7,
                    antithetic: bool = False, threads: Optional[int] = None,
                    s_values=None, spike_tests=None) -> dict:
    """Run the full Monte Carlo verification suite and return a report.

    Paths are simulated in chunks (stream keys depend only on the global
    path index, so chunking never changes the numbers).  Checks pass at 3
    standard errors; the correction-identity check adds an explicit O(dt)
    discretization allowance on top.
    """
    agent_vals = []
    principal_vals = []
    delta_vals = {}
    if s_values is None:
        s_values = (0.25 * model.horizon, 0.5 * model.horizon) \
            if prefs.spec_tag == "separable_rn" else ()
    for s in s_values:
        # the identity evaluates f(t - s) down to t - s = -s; a curve
        # undefined there raises ValueError before any path is simulated
        prefs.discount.value_extended(-s)
        delta_vals[s] = []

    done = 0
    while done < n_paths:
        count = min(CHUNK_PATHS, n_paths - done)
        if antithetic and count % 2:
            count += 1
        chunk = simulate(model, solution.effort, count, n_steps, seed,
                         antithetic=antithetic, threads=threads, path_offset=done)
        agent_vals.append(_agent_values(model, prefs, solution, chunk))
        principal_vals.append(_principal_values(prefs, solution, chunk))
        for s in s_values:
            delta_vals[s].append(_delta_residuals(model, prefs, solution, chunk, s))
        done += count

    anti = antithetic
    agent = _estimate(np.concatenate(agent_vals), anti)
    principal = _estimate(np.concatenate(principal_vals), anti)

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
    for s in s_values:
        est = _estimate(np.concatenate(delta_vals[s]), anti)
        t_left = np.linspace(0.0, model.horizon, n_steps + 1)[:-1]
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
