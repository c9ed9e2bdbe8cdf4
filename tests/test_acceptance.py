"""Acceptance checklist: ten headline guarantees, one test per criterion.

Each test is self-contained and states its tolerance inline.  Run with
``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
criterion.
"""

import csv
import time

import numpy as np
import pytest

from tic_contracts import closed_form, dynamics, fsvie
from tic_contracts.cli import main
from tic_contracts.discounting import DiscountSpec
from tic_contracts.model import MarketModel, Preferences

HYP = DiscountSpec.hyperbolic(1.0, 0.4)

SEPARABLE_MODEL = MarketModel.quadratic(0.1, 2.0, 1.0)
SEPARABLE_PREFS = Preferences(
    agent_utility="risk_neutral", principal_utility="risk_neutral",
    gamma_a=0.0, gamma_p=0.0, r0=0.05, discount=HYP, spec_tag="separable_rn")

HM_MODEL = MarketModel.hm_linear(0.3, 2.0, 1.0, 1.0)
DU_PREFS = Preferences(
    agent_utility="exponential", principal_utility="exponential",
    gamma_a=1.0, gamma_p=0.5, r0=-0.8, discount=HYP,
    spec_tag="discounted_utility")
INCOME_PREFS = Preferences(
    agent_utility="exponential", principal_utility="exponential",
    gamma_a=0.5, gamma_p=0.5, r0=-0.8, discount=HYP,
    spec_tag="discounted_income")


def rn_prefs(discount, spec_tag, r0=0.05):
    return Preferences(
        agent_utility="risk_neutral", principal_utility="risk_neutral",
        gamma_a=0.0, gamma_p=0.0, r0=r0, discount=discount, spec_tag=spec_tag)


def read_panel(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return {name: data[:, i] for i, name in enumerate(rows[0])}


def test_criterion_01_constant_loading_matches_grid_search():
    """sigma = k = gamma_a = 1 with a risk-neutral principal: z* = 1/2."""
    prefs = Preferences(
        agent_utility="exponential", principal_utility="risk_neutral",
        gamma_a=1.0, gamma_p=0.0, r0=-0.8, discount=HYP,
        spec_tag="discounted_utility")
    start = time.perf_counter()
    sol = closed_form.solve(HM_MODEL, prefs, closed_form.default_grid(2.0))
    elapsed = time.perf_counter() - start
    assert np.max(np.abs(sol.z_star - 0.5)) <= 1e-6
    # independent oracle: the agent's best response to exposure z is a = z/k,
    # so with participation binding the principal's rate is
    # z/k - z^2/(2k) - gamma_a z^2 sigma^2 / 2; brute-force its argmax
    z = np.linspace(0.0, 1.0, 2_000_001)
    rate = z - 0.5 * z ** 2 - 0.5 * z ** 2
    assert abs(z[np.argmax(rate)] - 0.5) <= 1e-6
    assert elapsed < 1.0


def test_criterion_02_exponential_discount_gives_linear_contract():
    grid = closed_form.default_grid(2.0, 1001)
    start = time.perf_counter()
    flat = closed_form.solve(
        SEPARABLE_MODEL, rn_prefs(DiscountSpec.exponential(0.3), "separable_rn"),
        grid)
    curved = closed_form.solve(
        SEPARABLE_MODEL, rn_prefs(DiscountSpec.hyperbolic(1.0, 4.0), "separable_rn"),
        grid)
    elapsed = time.perf_counter() - start
    assert np.max(np.abs(flat.loading_values - 1.0)) <= 1e-8
    relative_variation = np.ptp(curved.loading_values) / np.mean(curved.loading_values)
    assert relative_variation > 0.10
    assert elapsed < 1.0


def test_criterion_03_principal_value_factorizes_over_the_discount():
    rng = np.random.default_rng(42)
    for _ in range(5):
        k = rng.uniform(0.5, 3.0)
        sigma = rng.uniform(0.5, 2.0)
        horizon = rng.uniform(1.0, 3.0)
        x0 = rng.uniform(-0.5, 0.5)
        gamma_a = rng.uniform(0.5, 2.0)
        gamma_p = rng.uniform(0.2, 1.5)
        r0 = -rng.uniform(0.3, 1.5)
        discount = DiscountSpec.hyperbolic(rng.uniform(0.3, 1.5), rng.uniform(0.1, 4.0))
        model = MarketModel.hm_linear(x0, horizon, sigma, k)
        grid = closed_form.default_grid(horizon, 201)

        def du_prefs(d):
            return Preferences(
                agent_utility="exponential", principal_utility="exponential",
                gamma_a=gamma_a, gamma_p=gamma_p, r0=r0, discount=d,
                spec_tag="discounted_utility")

        value = closed_form.solve(model, du_prefs(discount), grid).value_principal
        undiscounted = closed_form.solve(
            model, du_prefs(DiscountSpec.exponential(0.0)), grid).value_principal
        target = float(discount.value(horizon)) ** (gamma_p / gamma_a)
        assert abs(value / undiscounted - target) <= 1e-10


def test_criterion_04_first_best_equals_second_best_when_risk_neutral():
    rng = np.random.default_rng(5)
    for _ in range(5):
        horizon = rng.uniform(1.0, 3.0)
        model = MarketModel.quadratic(rng.uniform(-0.5, 0.5), horizon,
                                      rng.uniform(0.5, 2.0))
        r0 = rng.uniform(-0.5, 0.5)
        discount = DiscountSpec.quasi_hyperbolic(
            rng.uniform(0.1, 1.0), rng.uniform(0.2, 0.9), rng.uniform(0.5, 3.0))
        grid = closed_form.default_grid(horizon, 201)
        second = closed_form.solve(
            model, rn_prefs(discount, "separable_rn", r0), grid).value_principal
        first = closed_form.solve(
            model, rn_prefs(discount, "first_best_separable", r0), grid).value_principal
        assert abs(first - second) <= 1e-10


def test_criterion_05_income_spec_collapses_to_its_two_limits():
    grid = closed_form.default_grid(2.0, 201)
    # no discounting of income: the exposure family loses its s dependence
    # and lands on the constant-coefficient linear contract
    flat_g = Preferences(
        agent_utility="exponential", principal_utility="exponential",
        gamma_a=0.5, gamma_p=0.5, r0=-0.8,
        discount=DiscountSpec.exponential(0.0), spec_tag="discounted_income")
    sol = closed_form.solve(HM_MODEL, flat_g, grid)
    hm_coefficient = (1.0 + 0.5 * 1.0) / (1.0 + 1.0 * (0.5 + 0.5))
    assert np.ptp(sol.z_star) <= 1e-8
    assert np.max(np.abs(sol.z_star - hm_coefficient)) <= 1e-8
    # vanishing risk aversion: agrees with the separable risk-neutral solver
    income = closed_form.solve(
        SEPARABLE_MODEL, rn_prefs(HYP, "discounted_income"), grid)
    separable = closed_form.solve(
        SEPARABLE_MODEL, rn_prefs(HYP, "separable_rn"), grid)
    assert abs(income.value_principal - separable.value_principal) <= 1e-8
    assert np.max(np.abs(income.loading_values - separable.loading_values)) <= 1e-8


@pytest.mark.parametrize("tag", ["separable_rn", "discounted_utility",
                                 "discounted_income"])
def test_criterion_06_monte_carlo_agrees_with_closed_form(tag):
    model, prefs = {
        "separable_rn": (SEPARABLE_MODEL, SEPARABLE_PREFS),
        "discounted_utility": (HM_MODEL, DU_PREFS),
        "discounted_income": (HM_MODEL, INCOME_PREFS),
    }[tag]
    start = time.perf_counter()
    sol = closed_form.solve(model, prefs, closed_form.default_grid(model.horizon))
    ensemble = dynamics.simulate(model, sol.effort, 100_000, 2000, seed=7)
    agent = dynamics.agent_value_mc(model, prefs, sol, ensemble)
    principal = dynamics.principal_value_mc(model, prefs, sol, ensemble)
    elapsed = time.perf_counter() - start
    assert abs(agent.mean - prefs.r0) < 3.0 * agent.std_error
    assert abs(principal.mean - sol.value_principal) < 3.0 * principal.std_error
    assert elapsed < 60.0


def test_criterion_07_no_spike_deviation_beats_the_policy():
    sol = closed_form.solve(SEPARABLE_MODEL, SEPARABLE_PREFS,
                            closed_form.default_grid(2.0, 201))
    for t in (0.0, 0.375, 0.75, 1.125, 1.5):
        for alt in (0.0, 0.25, 0.75, 1.5):
            for ell in (0.5, 0.25, 0.125):
                est = dynamics.spike_deviation_check(
                    SEPARABLE_MODEL, SEPARABLE_PREFS, sol, t, ell, alt)
                assert est.mean <= 10.0 * ell ** 2 + 3.0 * est.std_error
        at_policy = dynamics.spike_deviation_check(
            SEPARABLE_MODEL, SEPARABLE_PREFS, sol, t, 0.25, sol.effort)
        assert at_policy.mean == 0.0
        assert at_policy.std_error == 0.0


def test_criterion_08_target_constraint_residual_and_contraction():
    sol = closed_form.solve(SEPARABLE_MODEL, SEPARABLE_PREFS,
                            closed_form.default_grid(2.0))
    y0_family, z_family = fsvie.separable_optimal_family(
        SEPARABLE_MODEL, SEPARABLE_PREFS, sol)
    residuals = {}
    for n_steps in (2000, 4000):
        ensemble = dynamics.simulate(SEPARABLE_MODEL, sol.effort, 2, n_steps, seed=13)
        field = fsvie.march(SEPARABLE_MODEL, SEPARABLE_PREFS,
                            y0_family, z_family, ensemble)
        residuals[n_steps] = fsvie.target_constraint_residual(field, SEPARABLE_PREFS)
        del field, ensemble
    assert np.max(residuals[2000]) < 0.01
    assert np.max(residuals[4000]) <= 0.6 * np.max(residuals[2000])

    ensemble = dynamics.simulate(SEPARABLE_MODEL, sol.effort, 2, 2000, seed=13)
    frozen_y0, frozen_z = fsvie.s_constant_family(
        SEPARABLE_MODEL, SEPARABLE_PREFS, sol)
    field = fsvie.march(SEPARABLE_MODEL, SEPARABLE_PREFS,
                        frozen_y0, frozen_z, ensemble)
    frozen = fsvie.target_constraint_residual(field, SEPARABLE_PREFS)
    assert np.min(frozen) > 10.0 * np.max(residuals[2000])
    del field, ensemble

    # contraction of the sweep map on the exponential-utility generator
    horizon = HM_MODEL.horizon

    def y0_prop(s):
        return -0.5 * HYP.value(horizon - np.asarray(s))

    def z_prop(s, t):
        return 0.05 * HYP.value(horizon - np.asarray(s)) \
            * np.ones_like(np.asarray(t, dtype=float))

    ensemble = dynamics.simulate(HM_MODEL, 0.5, 2, 400, seed=13)
    _, diffs = fsvie.picard_solve(HM_MODEL, INCOME_PREFS, y0_prop, z_prop, ensemble)
    for per_path in diffs:
        steps = np.asarray(per_path)
        ratios = steps[1:] / steps[:-1]
        assert np.all(ratios[1:] <= 0.75)


def test_criterion_09_effort_tables_reproduce_the_qualitative_story(tmp_path):
    start = time.perf_counter()
    assert main(["figures", "--out", str(tmp_path)]) == 0
    elapsed = time.perf_counter() - start
    left = read_panel(tmp_path / "effort_left.csv")
    center = read_panel(tmp_path / "effort_center.csv")

    baseline = left["effort_exp"]
    assert np.all(np.diff(baseline) > 0.0)
    assert np.all(np.diff(baseline, 2) > 0.0)

    starts = [left[f"effort_alpha_{a:g}"][0] for a in (0.004, 0.04, 0.4, 4.0)]
    assert all(lo < hi for lo, hi in zip(starts, starts[1:]))

    base = center["effort_exp"]
    gaps = [np.max(np.abs(center[f"effort_beta_{b:g}"] - base))
            for b in (0.1, 0.19, 0.343, 0.569)]
    assert all(hi > lo for hi, lo in zip(gaps, gaps[1:]))
    assert elapsed < 10.0


def test_criterion_10_discount_limits_and_rate_identities():
    t = np.linspace(0.0, 50.0, 2001)
    flat = DiscountSpec.exponential(0.3).value(t)
    nearly_flat_alpha = DiscountSpec.hyperbolic(0.3, 1e-8).value(t)
    assert np.max(np.abs(nearly_flat_alpha - flat)) < 1e-6
    nearly_flat_beta = DiscountSpec.quasi_hyperbolic(0.3, 1.0 - 1e-9, 2.0).value(t)
    assert np.max(np.abs(nearly_flat_beta - flat)) < 1e-6

    h = 1e-4
    interior = np.linspace(h, 50.0 - h, 1001)
    for spec in (DiscountSpec.exponential(0.0576),
                 DiscountSpec.hyperbolic(1.0, 4.0),
                 DiscountSpec.quasi_hyperbolic(0.0387, 0.7, 2.197)):
        slope = (np.log(spec.value(interior - h))
                 - np.log(spec.value(interior + h))) / (2.0 * h)
        assert np.max(np.abs(slope - spec.idr(interior))) < 1e-6
