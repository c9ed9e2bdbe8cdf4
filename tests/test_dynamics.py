"""Simulation and Monte Carlo verification tests.

The estimator checks run at reduced scale (tens of thousands of paths)
and assert agreement within three standard errors, the same rule the
verification report applies.  Determinism checks compare arrays exactly:
the path streams are keyed by (seed, global path index) and a path's
payment and X_T by the entries of its own pair of normals, so neither
chunking nor the path count may change a single bit.
"""

import dataclasses
import math

import numpy as np
import pytest

from tic_contracts import (
    DiscountSpec,
    MarketModel,
    Preferences,
    agent_value_mc,
    contract_payoff,
    default_grid,
    delta_correction_check,
    principal_value_mc,
    simulate,
    solve,
    spike_deviation_check,
    verify_contract,
)
from tic_contracts import dynamics
from tic_contracts.closed_form import simpson
from tic_contracts.dynamics import _cost_at_equilibrium, _normal_rows, _stream
from tic_contracts.hamiltonian import stars_on_grid


def _cara(ga, gp, r0, disc, tag):
    return Preferences(agent_utility="exponential", principal_utility="exponential",
                       gamma_a=ga, gamma_p=gp, r0=r0, discount=disc, spec_tag=tag)


def _rn(r0, disc, tag):
    return Preferences(agent_utility="risk_neutral", principal_utility="risk_neutral",
                       gamma_a=0.0, gamma_p=0.0, r0=r0, discount=disc, spec_tag=tag)


HYP = DiscountSpec.hyperbolic(1.0, 0.4)


@pytest.fixture(scope="module")
def separable():
    m = MarketModel.quadratic(0.1, 2.0, 1.0)
    p = _rn(0.05, HYP, "separable_rn")
    return m, p, solve(m, p, default_grid(2.0, 201))


@pytest.fixture(scope="module")
def discounted_utility():
    m = MarketModel.hm_linear(0.3, 2.0, 1.0, 1.0)
    p = _cara(1.0, 0.5, -0.8, HYP, "discounted_utility")
    return m, p, solve(m, p, default_grid(2.0, 201))


@pytest.fixture(scope="module")
def discounted_income():
    m = MarketModel.hm_linear(0.3, 2.0, 1.0, 1.0)
    p = _cara(0.5, 0.5, -0.8, HYP, "discounted_income")
    return m, p, solve(m, p, default_grid(2.0, 201))


# ---------------------------------------------------------------------------
# path generation


def test_simulate_is_deterministic_and_chunkable():
    m = MarketModel.quadratic(0.0, 2.0, 1.0)
    full = simulate(m, 0.7, 40, 16, seed=3)
    again = simulate(m, 0.7, 40, 16, seed=3)
    np.testing.assert_array_equal(full.increments, again.increments)
    # each row is keyed by its own path index, so a smaller ensemble is the
    # first rows of the whole one
    for n_paths in (1, 7, 16, 39):
        np.testing.assert_array_equal(simulate(m, 0.7, n_paths, 16, seed=3).normals,
                                      full.normals[:n_paths])
    other_seed = simulate(m, 0.7, 40, 16, seed=4)
    assert not np.array_equal(full.increments, other_seed.increments)


def test_reading_the_increments_keeps_no_path_array():
    # an ensemble keeps its recipe only: each read fills the normals anew
    m = MarketModel.quadratic(0.0, 2.0, 1.0)
    ens = simulate(m, 0.7, 12, 16, seed=3)
    np.testing.assert_array_equal(ens.increments, ens.increments)
    kept = [k for k, v in vars(ens).items() if isinstance(v, np.ndarray) and v.size >= 12 * 16]
    assert kept == []


@pytest.mark.parametrize("calls", [1, 2])
@pytest.mark.parametrize("first_key", [0, 5, 2**40])
@pytest.mark.parametrize("seed", [0, 7, -1, -2**63, 2**63 - 1])
def test_normal_rows_are_the_per_path_philox_streams(seed, first_key, calls):
    # the definition: row p is a new generator keyed (seed, p), however many
    # fills came before it, and the stream at any key past the rows is the
    # same Philox generator keyed (seed, key)
    def philox(key):
        return np.random.Generator(np.random.Philox(key=[seed, key])).standard_normal(33)

    out = np.empty((5, 33))
    for _ in range(calls):
        _normal_rows(out, seed)
    m = MarketModel.quadratic(0.0, 2.0, 1.0)
    normals = simulate(m, 0.7, 5, 33, seed=seed).normals
    for p in range(5):
        np.testing.assert_array_equal(out[p], philox(p))
        np.testing.assert_array_equal(normals[p], philox(p))
        np.testing.assert_array_equal(_stream(seed, first_key + p).standard_normal(33),
                                      philox(first_key + p))


def test_simulate_antithetic_pairs_mirror_the_noise():
    m = MarketModel.quadratic(0.0, 2.0, 1.0)
    ens = simulate(m, 0.7, 8, 16, seed=3, antithetic=True)
    dt = 2.0 / 16
    # each pair sums to twice the deterministic drift increment
    pair_sum = ens.increments[0::2] + ens.increments[1::2]
    np.testing.assert_allclose(pair_sum, 2.0 * 0.7 * dt, atol=1e-14)
    with pytest.raises(ValueError, match="even n_paths"):
        simulate(m, 0.7, 7, 16, seed=3, antithetic=True)


def test_simulate_validates_inputs():
    m = MarketModel.quadratic(0.0, 2.0, 1.0)
    with pytest.raises(ValueError, match="n_steps"):
        simulate(m, 0.5, 4, 0, seed=1)
    with pytest.raises(ValueError, match="action interval"):
        simulate(m, 11.0, 4, 8, seed=1)
    for seed in (2**63, -2**63 - 1):
        with pytest.raises(ValueError, match="signed 64-bit"):
            simulate(m, 0.5, 4, 8, seed=seed)
    ens = simulate(m, 0.5, 4, 8, seed=1)
    # X_T is the verifier's own, bit for bit; the payment part and X_T are
    # the mean plus the recorded pair times the factor's rows, and the
    # factor times its transpose is the Gram matrix of [scale load, scale]
    load = np.linspace(0.5, 1.5, 8)
    out = dynamics._outcomes(ens, load)
    np.testing.assert_array_equal(ens.terminal, out[:, 1])
    g = dynamics._pair_normals(1, 4)
    a, beta_a, c = dynamics._factor(ens.scale, ens.scale * load)
    np.testing.assert_array_equal(out[:, 0], np.sum(ens.shift * load) + beta_a * g[:, 0]
                                  + c * g[:, 1])
    np.testing.assert_array_equal(out[:, 1], ens.x0 + np.sum(ens.shift) + a * g[:, 0])
    f = np.array([[beta_a, c], [a, 0.0]])
    cols = np.stack([ens.scale * load, ens.scale])
    np.testing.assert_allclose(f @ f.T, cols @ cols.T, rtol=1e-15, atol=0.0)


def test_increments_are_the_scaled_and_shifted_normals():
    # the Volterra march reads these bytes
    m = MarketModel.quadratic(0.1, 2.0, 1.0)
    effort = lambda t: 0.5 + 0.2 * t  # noqa: E731
    ens = simulate(m, effort, 6, 40, seed=3)
    t_left = ens.grid[:-1]
    dt = 2.0 / 40
    sig = m.sigma_at(t_left)
    drift = sig * m.drift(t_left, effort(t_left))
    np.testing.assert_array_equal(ens.increments,
                                  ens.normals * (sig * math.sqrt(dt)) + drift * dt)


def test_verify_contract_forms_no_increments(separable, discounted_income, monkeypatch):
    # the payments and X_T are drawn from their law, and that X_T is the
    # ensemble's terminal, bit for bit
    def no_increments(self):
        raise AssertionError("formed the increments")

    seen = []
    principal_value_mc = dynamics.principal_value_mc

    def recording(model, prefs, solution, ensemble):
        seen.append(ensemble.terminal.copy())
        return principal_value_mc(model, prefs, solution, ensemble)

    monkeypatch.setattr(dynamics.PathEnsemble, "increments", property(no_increments))
    monkeypatch.setattr(dynamics, "principal_value_mc", recording)
    for (m, p, sol), antithetic in ((separable, False), (discounted_income, True)):
        verify_contract(m, p, sol, n_paths=300, n_steps=30, seed=5, antithetic=antithetic)
        ens = simulate(m, sol.effort, 300, 30, seed=5, antithetic=antithetic)
        np.testing.assert_array_equal(seen.pop(), ens.terminal)


def test_standard_error_of_huge_units_is_finite():
    # the squared deviations of units near 1e154 overflow, and the suite
    # turns the overflow warning into an error
    units = np.array([1.0, -1.0, 2.0, 0.5, -0.25, 1.5]) * 1e154
    for antithetic in (False, True):
        huge = dynamics._estimate(units, antithetic)
        unit = dynamics._estimate(units / 1e154, antithetic)
        assert math.isfinite(huge.std_error)
        assert huge.std_error == pytest.approx(unit.std_error * 1e154, rel=1e-15)
    # the power-of-two scaling is exact: ordinary units keep their bits
    values = np.random.default_rng(3).normal(2.0, 3.0, 1001)
    assert dynamics._estimate(values, False).std_error == \
        float(np.std(values, ddof=1) / math.sqrt(values.size))


def test_terminal_moments_match_the_gaussian_law():
    m = MarketModel.quadratic(0.4, 2.0, 1.0)
    n = 20000
    ens = simulate(m, 0.7, n, 64, seed=9)
    term = ens.terminal
    mean_target = 0.4 + 0.7 * 2.0
    sd = math.sqrt(2.0)
    assert abs(float(np.mean(term)) - mean_target) < 3.5 * sd / math.sqrt(n)
    assert float(np.var(term)) == pytest.approx(2.0, rel=0.05)


def test_contract_payoff_is_the_loading_integral(separable):
    m, p, _ = separable
    # exponential discounting gives a flat unit loading, which turns the
    # payoff into constant + (X_T - x0) exactly
    pe = _rn(0.05, DiscountSpec.exponential(0.25), "separable_rn")
    sol = solve(m, pe, default_grid(2.0, 201))
    ens = simulate(m, sol.effort, 50, 32, seed=2)
    pay = contract_payoff(sol, ens)
    ref = sol.constant_term + (ens.terminal - 0.1)
    np.testing.assert_allclose(pay, ref, atol=1e-8)


def test_contract_payoff_does_not_depend_on_the_blocking(separable, discounted_income):
    # path p reads entries 2p and 2p + 1 of the pair stream: its payment and
    # X_T are a function of its index alone, whatever the path count
    for (m, _, sol), antithetic in ((separable, False), (discounted_income, True)):
        n_steps = 1000
        want = simulate(m, sol.effort, 902, n_steps, seed=4, antithetic=antithetic)
        pay, terminal = contract_payoff(sol, want), want.terminal
        for n_paths in (2, 64, 256, 900):
            got = simulate(m, sol.effort, n_paths, n_steps, seed=4, antithetic=antithetic)
            np.testing.assert_array_equal(contract_payoff(sol, got), pay[:n_paths])
            np.testing.assert_array_equal(got.terminal, terminal[:n_paths])


def test_a_flat_loading_makes_the_payment_affine_in_x_t():
    # scale load is a power-of-two multiple of scale, so Gram-Schmidt leaves
    # no orthogonal part, and payment and X_T share one normal
    m = MarketModel.quadratic(0.1, 2.0, 1.0)
    ens = simulate(m, lambda t: 0.5 + 0.2 * t, 500, 64, seed=8)
    for k in (1.0, 0.75, 0.0):
        load = np.full(64, k)
        pay, terminal = dynamics._outcomes(ens, load).T
        a, beta_a, c = dynamics._factor(ens.scale, ens.scale * load)
        assert c == 0.0 and beta_a == k * a
        g = (terminal - ens.x0 - np.sum(ens.shift)) / a
        np.testing.assert_allclose(pay, np.sum(ens.shift * load) + beta_a * g,
                                   rtol=0.0, atol=1e-14)
        assert float(np.ptp(pay - k * terminal)) <= 1e-14


def test_antithetic_pairs_mirror_the_payment_and_x_t(discounted_income):
    m, _, sol = discounted_income
    ens = simulate(m, sol.effort, 400, 50, seed=6, antithetic=True)
    load = sol.loading(ens.grid[:-1])
    out = dynamics._outcomes(ens, load)
    mean = np.array([np.sum(ens.shift * load), ens.x0 + np.sum(ens.shift)])
    np.testing.assert_allclose(out[0::2] + out[1::2], np.tile(2.0 * mean, (200, 1)),
                               rtol=0.0, atol=1e-13)
    # unit j is the plain run's path j, and its mirror the negated pair
    plain = dynamics._outcomes(simulate(m, sol.effort, 200, 50, seed=6), load)
    np.testing.assert_array_equal(out[0::2], plain)
    np.testing.assert_allclose(out[1::2], 2.0 * mean - plain, rtol=0.0, atol=1e-13)


def test_an_ensemble_fills_each_path_once(separable, discounted_income, monkeypatch):
    # simulate only checks the recipe; the estimators, the payments and X_T
    # then share one draw of a pair per estimator unit, and no path stream
    # is filled
    fills, pairs = [], []

    def recording(out, seed):
        fills.append(out.shape[0])
        _normal_rows(out, seed)

    def recording_pairs(seed, units):
        pairs.append(units)
        return pair_normals(seed, units)

    pair_normals = dynamics._pair_normals
    monkeypatch.setattr(dynamics, "_normal_rows", recording)
    monkeypatch.setattr(dynamics, "_pair_normals", recording_pairs)
    total = 614
    for (m, p, sol), antithetic in ((separable, False), (discounted_income, True)):
        pairs.clear()
        ens = simulate(m, sol.effort, total, 20, seed=5, antithetic=antithetic)
        assert fills == [] and pairs == []
        agent = agent_value_mc(m, p, sol, ens)
        principal = principal_value_mc(m, p, sol, ens)
        pay, terminal = contract_payoff(sol, ens), ens.terminal
        # an antithetic pair of paths is one unit
        assert fills == [] and pairs == [total // 2 if antithetic else total]
        np.testing.assert_array_equal(pay, contract_payoff(sol, dataclasses.replace(ens)))
        np.testing.assert_array_equal(terminal, dataclasses.replace(ens).terminal)
        rep = verify_contract(m, p, sol, n_paths=total, n_steps=20, seed=5,
                              antithetic=antithetic)
        assert (rep["participation"]["mean"], rep["participation"]["se"]) == \
            (agent.mean, agent.std_error)
        assert (rep["principal_value"]["mean"], rep["principal_value"]["se"]) == \
            (principal.mean, principal.std_error)


# ---------------------------------------------------------------------------
# participation and principal value, three second-best regimes


def _check_three_se(model, prefs, sol, n_paths=20000, n_steps=500):
    ens = simulate(model, sol.effort, n_paths, n_steps, seed=7)
    agent = agent_value_mc(model, prefs, sol, ens)
    principal = principal_value_mc(model, prefs, sol, ens)
    assert abs(agent.mean - prefs.r0) <= 3.0 * agent.std_error
    assert abs(principal.mean - sol.value_principal) <= 3.0 * principal.std_error


def test_mc_agrees_separable(separable):
    _check_three_se(*separable)


def test_mc_agrees_discounted_utility(discounted_utility):
    _check_three_se(*discounted_utility)


def test_mc_agrees_discounted_income(discounted_income):
    _check_three_se(*discounted_income)


def test_mc_agrees_first_best_risk_sharing():
    m = MarketModel.hm_linear(0.2, 1.5, 1.0, 2.0)
    p = _cara(1.2, 0.9, -0.6, DiscountSpec.exponential(0.0),
              "first_best_nonseparable")
    _check_three_se(m, p, solve(m, p, default_grid(1.5, 201)))
    # a curved discount exercises both of its roles in the constant term
    m2 = MarketModel.hm_linear(0.2, 2.0, 1.0, 1.5)
    p2 = _cara(0.8, 0.6, -0.7, HYP, "first_best_nonseparable")
    _check_three_se(m2, p2, solve(m2, p2, default_grid(2.0, 201)),
                    n_paths=40000)


def test_mc_tag_mismatch_rejected(separable, discounted_utility):
    m, p, sol = separable
    _, p_other, _ = discounted_utility
    ens = simulate(m, sol.effort, 10, 8, seed=1)
    with pytest.raises(ValueError, match="spec tag"):
        agent_value_mc(m, p_other, sol, ens)
    with pytest.raises(ValueError, match="spec tag"):
        principal_value_mc(m, p_other, sol, ens)
    # the verifier applies the same check: first-best preferences with the
    # second-best separable solution share every number but the regime
    first_best = _rn(p.r0, p.discount, "first_best_separable")
    for prefs in (p_other, first_best):
        with pytest.raises(ValueError, match="spec tag"):
            verify_contract(m, prefs, sol, n_paths=10, n_steps=8)


# ---------------------------------------------------------------------------
# s-shift correction identity


def test_delta_identity_exact_under_exponential_discount():
    m = MarketModel.quadratic(0.1, 2.0, 1.0)
    p = _rn(0.05, DiscountSpec.exponential(0.3), "separable_rn")
    sol = solve(m, p, default_grid(2.0, 201))
    ens = simulate(m, sol.effort, 200, 500, seed=3)
    est = delta_correction_check(m, p, sol, ens, 1.0)
    # the correction integrand vanishes identically, so only float
    # rounding remains
    assert abs(est.mean) < 1e-12
    assert est.std_error < 1e-12


def test_delta_residual_is_first_order_in_dt(separable):
    m, p, sol = separable
    res = {}
    for steps in (500, 1000):
        ens = simulate(m, sol.effort, 200, steps, seed=3)
        res[steps] = delta_correction_check(m, p, sol, ens, 1.0)
        # payoff noise cancels between the two sides
        assert res[steps].std_error < 1e-12
    assert abs(res[1000].mean) < 0.6 * abs(res[500].mean)


def test_delta_check_validation(separable, discounted_utility):
    m, p, sol = separable
    ens = simulate(m, sol.effort, 10, 8, seed=1)
    with pytest.raises(ValueError, match="separable"):
        mu, pu, solu = discounted_utility
        delta_correction_check(mu, pu, solu, ens, 0.5)
    with pytest.raises(ValueError, match="s must lie"):
        delta_correction_check(m, p, sol, ens, 3.0)


@pytest.mark.parametrize("rows", [1, 7, dynamics.SHIFT_ROWS])
def test_shift_correction_rows_match_single_calls(separable, monkeypatch, rows):
    # the identity check asks for one s at a time, the Volterra family's
    # initial profile for the whole grid; a grid of several blocks with a
    # partial last one must give each s the same bits either way
    m, p, sol = separable
    s = default_grid(2.0, 3 * dynamics.SHIFT_ROWS + 5)
    one_by_one = np.array([dynamics._shift_correction(m, p, sol, np.array([v]))[0]
                           for v in s])
    monkeypatch.setattr(dynamics, "SHIFT_ROWS", rows)
    np.testing.assert_array_equal(dynamics._shift_correction(m, p, sol, s), one_by_one)


def test_shift_correction_is_the_integral_it_names(separable):
    # I(s) = int_0^T c(r) [f(r - s) - f(T - s) f(r) / f(T)] dr by the
    # trapezoid rule on a fine grid of the equilibrium effort; it is zero at
    # s = 0.  Simpson on the 201-point solver grid differs by about 5e-6.
    m, p, sol = separable
    f, T = p.discount, m.horizon
    r = np.linspace(0.0, T, 20001)
    cost = 0.5 * sol.effort(r) ** 2
    s = np.array([0.0, 0.3, 1.0, 2.0])
    got = dynamics._shift_correction(m, p, sol, s)
    for v, value in zip(s, got):
        integrand = cost * (f.value_extended(r - v) - f.value(T - v) * f.value(r) / f.value(T))
        want = float(np.sum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(r)))
        assert value == pytest.approx(want, abs=2e-5)
    assert got[0] == 0.0


# ---------------------------------------------------------------------------
# spike deviations


def test_spike_gain_is_zero_at_the_policy(separable):
    m, p, sol = separable
    est = spike_deviation_check(m, p, sol, 0.5, 0.2, sol.effort)
    assert est.mean == 0.0
    assert est.std_error == 0.0


def test_spike_deviations_lose_for_separable(separable):
    m, p, sol = separable
    for t in (0.0, 0.6, 1.2):
        for alt in (0.0, 5.0):
            est = spike_deviation_check(m, p, sol, t, 0.2, alt)
            assert est.std_error == 0.0
            assert est.mean < 0.0
            assert est.mean <= 10.0 * 0.2 ** 2


@pytest.mark.parametrize("points,t", [(5, 0.5), (7, 1.5)])
def test_spike_gain_realizes_the_contract_on_all_of_zero_to_t(discounted_income, points, t):
    # the contract part realized by t integrates the solution over [0, t]:
    # on 5 points the head at t = 0.5 has two points, on 7 points t = 1.5
    # falls between them; either way the gain is near the 501-point one
    m, p, _ = discounted_income
    fine = solve(m, p, default_grid(2.0, 501))
    coarse = solve(m, p, default_grid(2.0, points))
    want = spike_deviation_check(m, p, fine, t, 0.2, 0.0).mean
    got = spike_deviation_check(m, p, coarse, t, 0.2, 0.0).mean
    assert got == pytest.approx(want, rel=6e-3)


def _window_integral(m, p, sol, t, ell, alt, n_nodes=2049):
    """Simpson on the window of the separable spike gain's integrand,
    f(T - t) load sigma (b(alt) - b(a)) - f(r - t) (c(alt) - c(a))."""
    f = p.discount
    r = np.linspace(t, t + ell, n_nodes)
    a_eq = sol.effort(r)
    alt = np.full_like(r, alt)
    vals = (float(f.value(m.horizon - t)) * sol.loading(r) * m.sigma_at(r)
            * (m.drift(r, alt) - m.drift(r, a_eq))
            - f.value_extended(r - t) * (m.cost(r, alt) - m.cost(r, a_eq)))
    return float(simpson(vals, r))


@pytest.mark.parametrize("tag", ["separable_rn", "first_best_separable"])
def test_separable_spike_gain_converges_to_the_window_integral(separable, tag):
    # the left-point gain is first order in the step: within 2e-3 of the
    # window integral at 2000 steps, and the gap about halves at 4000
    m, p, _ = separable
    p = dataclasses.replace(p, spec_tag=tag)
    sol = solve(m, p, default_grid(2.0, 201))
    for t in (0.0, 0.5, 1.0, 1.5):
        for alt in (0.0, 1.0, 5.0):
            want = _window_integral(m, p, sol, t, 0.2, alt)
            gap = {n: abs(spike_deviation_check(m, p, sol, t, 0.2, alt, n_steps=n).mean - want)
                   for n in (2000, 4000)}
            assert gap[2000] <= 2e-3, (tag, t, alt)
            assert gap[4000] <= 0.6 * gap[2000], (tag, t, alt)


# inner paths and steps on [0, T] of the test-side nested Monte Carlo
INNER_PATHS = 200_000
ORACLE_STEPS = 40


def _nested_mc_spike(m, p, sol, t, ell, alt, n_steps, n_inner=INNER_PATHS):
    """(mean, se, lognormal) of the spike gain.  mean and se are a nested
    Monte Carlo: n_inner Gaussian tails on the left-point grid of [t, T]
    that n_steps steps on [0, T] give it, common to both branches, after
    the contract part realized along the mean path up to t, with draws
    from their own Philox key.  lognormal is the gain at no noise times
    exp((gamma_a b)^2 v / 2), v the tail variance, b = 1 for discounted
    utility and f(T - t) for discounted income."""
    T = m.horizon
    steps = max(2, int(round((T - t) / T * n_steps)))
    r_left = np.linspace(t, T, steps + 1)[:-1]
    dt = (T - t) / steps
    sig = m.sigma_at(r_left)
    load = sol.loading(r_left)
    a_eq = sol.effort(r_left)
    a_dev = np.where(r_left < t + ell, alt, a_eq)

    head = sol.grid[sol.grid <= t]
    w_t = sol.constant_term
    if head.size >= 3:
        lam_head = m.sigma_at(head) * m.drift(head, sol.effort(head)) * sol.loading(head)
        w_t += float(simpson(lam_head, head))

    gen = np.random.Generator(np.random.Philox(key=[977, 0]))
    noise = np.concatenate([(gen.standard_normal((20_000, steps)) * (sig * math.sqrt(dt))) @ load
                            for _ in range(n_inner // 20_000)])
    w = float(p.discount.value(T - t))

    def rewards(actions, noise):
        pay = w_t + noise + float(np.sum(load * sig * m.drift(r_left, actions)) * dt)
        return p.reward(w, pay, p.running_cost(r_left - t, m.cost(r_left, actions), dt))

    gains = rewards(a_dev, noise) - rewards(a_eq, noise)
    b = 1.0 if p.spec_tag == "discounted_utility" else w
    factor = math.exp((p.gamma_a * b) ** 2 * float(np.sum(load ** 2 * sig ** 2) * dt) / 2)
    return (float(np.mean(gains)), float(np.std(gains, ddof=1) / math.sqrt(gains.size)),
            factor * float(rewards(a_dev, 0.0) - rewards(a_eq, 0.0)))


def test_spike_nested_mc_for_utility_regimes(discounted_utility, discounted_income):
    # the exact CARA gain is the mean of what the nested Monte Carlo samples
    for m, p, sol in (discounted_utility, discounted_income):
        at_policy = spike_deviation_check(m, p, sol, 0.5, 0.25, sol.effort,
                                          n_steps=ORACLE_STEPS)
        assert at_policy.mean == 0.0
        assert at_policy.std_error == 0.0
        for t in (0.0, 1.0, 1.5):
            for alt in (m.action_lo, 0.5 * (m.action_lo + m.action_hi)):
                est = spike_deviation_check(m, p, sol, t, 0.2, alt, n_steps=ORACLE_STEPS)
                assert est.std_error == 0.0
                mean, se, lognormal = _nested_mc_spike(m, p, sol, t, 0.2, alt, ORACLE_STEPS)
                assert abs(est.mean - mean) <= 3.0 * se, (p.spec_tag, t, alt)
                assert est.mean == pytest.approx(lognormal, rel=1e-12, abs=0.0)
                assert est.mean <= 10.0 * 0.2 ** 2


def test_spike_gain_of_a_risk_neutral_income_agent_is_its_mean():
    # gamma_a = 0: the noise leaves a linear reward's mean unchanged
    m = MarketModel.hm_linear(0.3, 2.0, 1.0, 1.0)
    p = Preferences(agent_utility="risk_neutral", principal_utility="exponential",
                    gamma_a=0.0, gamma_p=0.5, r0=0.2, discount=HYP,
                    spec_tag="discounted_income")
    sol = solve(m, p, default_grid(2.0, 201))
    est = spike_deviation_check(m, p, sol, 1.0, 0.2, 0.0, n_steps=ORACLE_STEPS)
    mean, se, lognormal = _nested_mc_spike(m, p, sol, 1.0, 0.2, 0.0, ORACLE_STEPS)
    assert est.std_error == 0.0
    assert se < 1e-12
    assert est.mean == pytest.approx(mean, rel=1e-9) and est.mean == lognormal


@pytest.mark.parametrize("action,inside", [
    (10.0 + 1e-10, True), (10.0 + 5e-9, True), (-1e-10, True),
    (10.0 + 2e-8, False), (-2e-8, False), (11.0, False),
])
def test_simulate_and_spike_check_share_the_action_interval(separable, action, inside):
    # one slack for both: 1e-9 max(1, hi - lo), 1e-8 on the interval [0, 10]
    m, p, sol = separable
    for run in (lambda: simulate(m, action, 2, 4, seed=1),
                lambda: spike_deviation_check(m, p, sol, 0.5, 0.2, action)):
        if inside:
            run()
        else:
            with pytest.raises(ValueError, match="leaves the action interval"):
                run()


def test_spike_validation(separable, discounted_utility):
    m, p, sol = separable
    with pytest.raises(ValueError, match="action interval"):
        spike_deviation_check(m, p, sol, 0.5, 0.2, -1.0)
    # a window off [0, T], empty, reversed or not finite, on either kind of
    # regime; and a tail grid of no steps
    windows = [(1.95, 0.2), (0.5, 0.0), (0.5, -0.2), (-0.5, 0.2), (math.nan, 0.2),
               (0.5, math.nan), (math.inf, 0.2), (-math.inf, 0.2), (0.5, math.inf)]
    for m, p, sol in (separable, discounted_utility):
        for t, ell in windows:
            with pytest.raises(ValueError,
                               match=r"spike window \[t, t\+ell\) must fit inside \[0, T\]"):
                spike_deviation_check(m, p, sol, t, ell, 0.0)
        for n_steps in (0, -3):
            with pytest.raises(ValueError, match="need n_steps >= 1"):
                spike_deviation_check(m, p, sol, 0.5, 0.2, 0.0, n_steps=n_steps)
    m3 = MarketModel.hm_linear(0.2, 1.5, 1.0, 2.0)
    p3 = _cara(1.2, 0.9, -0.6, DiscountSpec.exponential(0.0),
               "first_best_nonseparable")
    s3 = solve(m3, p3, default_grid(1.5, 201))
    with pytest.raises(ValueError,
                       match="no spike deviation check for spec 'first_best_nonseparable'"):
        spike_deviation_check(m3, p3, s3, 0.2, 0.1, 0.0, n_steps=50)


# ---------------------------------------------------------------------------
# the assembled report


def test_verify_contract_report(separable):
    m, p, sol = separable
    rep = verify_contract(m, p, sol, n_paths=12000, n_steps=400, seed=7)
    assert rep["pass"] is True
    assert rep["participation"]["pass"] and rep["principal_value"]["pass"]
    assert len(rep["delta_residuals"]) == 2
    assert len(rep["spike_tests"]) == 8
    for row in rep["delta_residuals"]:
        assert abs(row["mean"]) <= 3.0 * row["se"] + row["allowance"]
    again = verify_contract(m, p, sol, n_paths=12000, n_steps=400, seed=7)
    assert rep == again


def test_verify_contract_spikes_every_second_best_regime(discounted_utility,
                                                        discounted_income):
    # the same eight spikes as the separable report, on the run's own grid
    for m, p, sol in (discounted_utility, discounted_income):
        rep = verify_contract(m, p, sol, n_paths=200, n_steps=60, seed=3)
        assert rep["delta_residuals"] == []
        rows = rep["spike_tests"]
        assert [(row["t"], row["alt"]) for row in rows] == [
            (t, alt) for t in (0.0, 0.5, 1.0, 1.5) for alt in (0.0, 5.0)]
        for row in rows:
            est = spike_deviation_check(m, p, sol, row["t"], row["ell"], row["alt"],
                                        n_steps=60)
            assert (row["gain"], row["se"]) == (est.mean, 0.0)
            assert row["pass"]
    m = MarketModel.hm_linear(0.2, 1.5, 1.0, 2.0)
    p = _cara(1.2, 0.9, -0.6, DiscountSpec.exponential(0.0), "first_best_nonseparable")
    rep = verify_contract(m, p, solve(m, p, default_grid(1.5, 201)), n_paths=200, n_steps=60)
    assert rep["spike_tests"] == [] and rep["delta_residuals"] == []


def test_verify_contract_chunking_is_invisible(separable, discounted_income):
    n_paths, n_steps, seed = 901, 1000, 5
    # antithetic sampling needs exponential utilities on both sides, so
    # that leg runs on the exp/exp discounted-income contract
    for (m, p, sol), antithetic in ((separable, False), (discounted_income, True)):
        rep = verify_contract(m, p, sol, n_paths=n_paths, n_steps=n_steps, seed=seed,
                              antithetic=antithetic)
        # the same estimates from one ensemble of all paths (an antithetic
        # run rounds an odd path count up to the next pair)
        total = n_paths + 1 if antithetic else n_paths
        ens = simulate(m, sol.effort, total, n_steps, seed=seed, antithetic=antithetic)
        agent = agent_value_mc(m, p, sol, ens)
        principal = principal_value_mc(m, p, sol, ens)
        assert (rep["participation"]["mean"], rep["participation"]["se"]) == \
            (agent.mean, agent.std_error)
        assert (rep["principal_value"]["mean"], rep["principal_value"]["se"]) == \
            (principal.mean, principal.std_error)
        for row in rep["delta_residuals"]:
            est = delta_correction_check(m, p, sol, ens, row["s"])
            assert (row["mean"], row["se"]) == (est.mean, est.std_error)


def test_verify_contract_refuses_antithetic_sampling_of_a_linear_reward(separable,
                                                                       monkeypatch):
    m, p, sol = separable

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before refusing")

    monkeypatch.setattr(dynamics, "simulate", no_simulation)
    with pytest.raises(ValueError, match="antithetic sampling needs exponential utilities"):
        verify_contract(m, p, sol, n_paths=900, n_steps=120, seed=5, antithetic=True)
    du_prefs = dataclasses.replace(p, agent_utility="exponential", gamma_a=1.0, r0=-0.8,
                                   spec_tag="discounted_utility")
    with pytest.raises(ValueError, match="antithetic"):
        verify_contract(m, du_prefs, sol, n_paths=900, n_steps=120, seed=5, antithetic=True)


@pytest.mark.parametrize("n_paths,antithetic", [(1, False), (1, True), (2, True)])
def test_verify_contract_needs_two_estimator_units(discounted_income, monkeypatch,
                                                   n_paths, antithetic):
    # one path, or one antithetic pair, gives se = 0, and the 3-se rule
    # would then fail a sound contract
    m, p, sol = discounted_income

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before refusing")

    monkeypatch.setattr(dynamics, "simulate", no_simulation)
    with pytest.raises(ValueError, match="n_paths must be at least 2"):
        verify_contract(m, p, sol, n_paths=n_paths, n_steps=20, antithetic=antithetic)


@pytest.mark.parametrize("n_paths,antithetic", [(2, False), (3, True)])
def test_verify_contract_runs_on_two_estimator_units(discounted_income, n_paths, antithetic):
    m, p, sol = discounted_income
    report = verify_contract(m, p, sol, n_paths=n_paths, n_steps=20, antithetic=antithetic)
    assert report["participation"]["se"] > 0.0
    assert report["principal_value"]["se"] > 0.0


def test_verify_contract_flags_a_shifted_constant(separable):
    m, p, sol = separable
    ok = verify_contract(m, p, sol, n_paths=12000, n_steps=400, seed=7)
    bad = verify_contract(m, p, sol.shifted(1.0), n_paths=12000, n_steps=400,
                          seed=7)
    assert bad["participation"]["pass"] is False
    assert bad["pass"] is False
    f_T = float(HYP.value(2.0))
    # same paths, so the agent mean moves by exactly f(T) times the shift
    shift = bad["participation"]["mean"] - ok["participation"]["mean"]
    assert shift == pytest.approx(f_T, abs=1e-12)


@pytest.mark.parametrize("builtin", [
    MarketModel.quadratic(0.1, 2.0, 0.7),
    MarketModel.hm_linear(0.1, 2.0, 0.7, 1.5),
    MarketModel.power(0.1, 2.0, 0.7, 3.0),
], ids=["quadratic", "hm_linear", "power"])
def test_custom_copy_of_a_builtin_family_matches_it(builtin):
    # the same lambdas without the family descriptor: evaluated on arrays,
    # best responses by search instead of the closed form
    custom = dataclasses.replace(builtin, families=None)
    sol = solve(builtin, _rn(0.05, HYP, "separable_rn"), default_grid(2.0, 41))
    want = simulate(builtin, sol.effort, 4, 50, seed=3)
    got = simulate(custom, sol.effort, 4, 50, seed=3)
    np.testing.assert_array_equal(got.increments, want.increments)
    t_left = want.grid[:-1]
    np.testing.assert_array_equal(_cost_at_equilibrium(custom, sol, t_left),
                                  _cost_at_equilibrium(builtin, sol, t_left))
    ts = np.array([[0.0], [0.7], [2.0]])
    zs = np.concatenate([[-0.5, 0.0, 0.3, 0.9, 4.0, 25.0], np.linspace(0.5, 60.0, 400)])
    for got_part, want_part in zip(stars_on_grid(custom, ts, zs), stars_on_grid(builtin, ts, zs)):
        np.testing.assert_allclose(got_part, want_part, rtol=0.0, atol=1e-9)
