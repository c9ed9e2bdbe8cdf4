"""Solver tests against independently computed reference values.

Every frozen literal below was produced by a separate numerical route:
scipy bounded Brent for pointwise exposure optima, adaptive quadrature
(scipy.integrate.quad) for integrated trade-offs, and a dense 2-D grid
search refined by Nelder-Mead for the flat-discount risk-sharing
benchmark.  Tolerances reflect how each number was obtained.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tic_contracts import (
    ContractSolution,
    DiscountSpec,
    InfeasibleError,
    MarketModel,
    Preferences,
    UnboundedLoadingError,
    default_grid,
    solve,
)
from tic_contracts.cli import (
    FIGURE2_ALPHAS,
    FIGURE2_BETA_RIGHT,
    FIGURE2_BETAS,
    FIGURE2_GAMMA,
    FIGURE2_LAMBDA,
    FIGURE2_LAMBDAS,
)
from tic_contracts.closed_form import (
    DEFAULT_GRID_POINTS,
    _separable_z,
    separable_efforts,
    z_argmax,
    z_argmax_grid,
)


def _prefs(agent, principal, ga, gp, r0, disc, tag):
    return Preferences(agent_utility=agent, principal_utility=principal,
                       gamma_a=ga, gamma_p=gp, r0=r0, discount=disc,
                       spec_tag=tag)


def _cara(ga, gp, r0, disc, tag):
    return _prefs("exponential", "exponential", ga, gp, r0, disc, tag)


def _rn(r0, disc, tag):
    return _prefs("risk_neutral", "risk_neutral", 0.0, 0.0, r0, disc, tag)


# ---------------------------------------------------------------------------
# exponential-utility agent, discounted terminal utility


def test_hm_exposure_risk_neutral_principal():
    # sigma = k = gamma_a = 1 with a risk-neutral principal puts the
    # optimal exposure exactly at one half
    m = MarketModel.hm_linear(0.0, 1.0, 1.0, 1.0)
    p = _prefs("exponential", "risk_neutral", 1.0, 0.0, -1.0,
               DiscountSpec.exponential(0.1), "discounted_utility")
    sol = solve(m, p, default_grid(1.0, 51))
    assert np.max(np.abs(sol.z_star - 0.5)) < 1e-6


def test_discounted_utility_reference_values():
    # scipy Brent on z/k - z^2/2k - ga z^2/2 - gp (1-z)^2 / 2 gave
    # z* = 0.44444444444444464 (the exact ratio is 4/9); the value and
    # constant term follow from the certainty-equivalent assembly checked
    # with mpmath at the optimum
    m = MarketModel.hm_linear(0.3, 2.0, 1.0, 2.0)
    p = _cara(1.5, 0.7, -0.8, DiscountSpec.hyperbolic(1.0, 0.4),
              "discounted_utility")
    sol = solve(m, p, default_grid(2.0, 201))
    assert np.max(np.abs(sol.z_star - 4.0 / 9.0)) < 1e-9
    assert sol.value_principal == pytest.approx(-0.6020029751249015, abs=1e-10)
    assert sol.constant_term == pytest.approx(-0.9036612818353038, abs=1e-9)
    assert sol.value_agent == -0.8
    assert sol.constant_term == pytest.approx(
        sol.constant_reservation + sol.constant_adjustment, abs=1e-12)


def test_discount_curve_only_scales_the_value():
    m = MarketModel.hm_linear(0.3, 2.0, 1.0, 2.0)
    grid = default_grid(2.0, 101)
    flat = solve(m, _cara(1.5, 0.7, -0.8, DiscountSpec.exponential(0.0),
                          "discounted_utility"), grid)
    tilted = solve(m, _cara(1.5, 0.7, -0.8, DiscountSpec.exponential(0.3),
                            "discounted_utility"), grid)
    # the exposure curve does not react to the discount at all
    np.testing.assert_allclose(tilted.z_star, flat.z_star, atol=1e-12)
    ratio = tilted.value_principal / flat.value_principal
    f_T = math.exp(-0.3 * 2.0)
    assert ratio == pytest.approx(f_T ** (0.7 / 1.5), abs=1e-10)


def test_time_varying_sigma_against_pointwise_brent():
    # sigma(t) = 1 + t/4 with quadratic cost; reference exposures from
    # scipy Brent per time point and the value from adaptive quadrature
    # of the envelope
    m = MarketModel(x0=0.3, horizon=2.0,
                    sigma=lambda t: 1.0 + 0.25 * t,
                    drift=lambda t, a: a / (1.0 + 0.25 * t),
                    cost=lambda t, a: a * a,
                    action_lo=0.0, action_hi=10.0)
    p = _cara(1.0, 0.5, -0.8, DiscountSpec.hyperbolic(1.0, 0.4),
              "discounted_utility")
    sol = solve(m, p, default_grid(2.0, 101))
    assert sol.z_star[0] == pytest.approx(0.5, abs=5e-7)
    assert sol.z_star[-1] == pytest.approx(0.41935483870967616, abs=5e-7)
    assert sol.value_principal == pytest.approx(-1.0252619318370078, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    k=st.floats(0.25, 4.0),
    ga=st.floats(0.1, 3.0),
    # a subnormal gp makes the principal's value -exp(...)/gp overflow
    gp=st.floats(0.0, 3.0, allow_subnormal=False),
)
def test_hm_exposure_formula(k, ga, gp):
    principal = "risk_neutral" if gp == 0.0 else "exponential"
    m = MarketModel.hm_linear(0.0, 1.0, 1.0, k)
    p = _prefs("exponential", principal, ga, gp, -0.5,
               DiscountSpec.exponential(0.1), "discounted_utility")
    sol = solve(m, p, default_grid(1.0, 5))
    expected = (1.0 + gp * k) / (1.0 + k * (ga + gp))
    assert sol.z_star[0] == pytest.approx(expected, abs=1e-8)


# ---------------------------------------------------------------------------
# risk-neutral separable regime


def test_separable_loading_flat_for_exponential_discount():
    m = MarketModel.quadratic(0.1, 2.0, 1.0)
    p = _rn(0.05, DiscountSpec.exponential(0.25), "separable_rn")
    sol = solve(m, p, default_grid(2.0, 201))
    assert np.max(np.abs(sol.loading_values - 1.0)) < 1e-8


def test_separable_exposure_is_discount_ratio():
    f = DiscountSpec.hyperbolic(1.0, 0.4)
    m = MarketModel.quadratic(0.1, 2.0, 1.0)
    sol = solve(m, _rn(0.05, f, "separable_rn"), default_grid(2.0, 201))
    ref = float(f.value(2.0)) / np.asarray(f.value(sol.grid), dtype=float)
    assert np.max(np.abs(sol.z_star - ref)) < 1e-9
    # time-inconsistent discounting forces a visibly non-constant loading
    load = sol.loading_values
    assert float(np.ptp(load)) / float(np.mean(load)) > 0.10


def test_separable_reference_values():
    # value 0.4433512833608376 and constant -0.5149852359307835 were
    # computed with scipy quad over Brent-optimized exposures; the
    # midpoint exposure is f(2)/f(1) = 0.5335054084039708
    m = MarketModel.quadratic(0.1, 2.0, 1.0)
    p = _rn(0.05, DiscountSpec.hyperbolic(1.0, 0.4), "separable_rn")
    sol = solve(m, p, default_grid(2.0, 201))
    assert sol.z_star[100] == pytest.approx(0.5335054084039708, abs=1e-9)
    assert sol.value_principal == pytest.approx(0.4433512833608376, abs=1e-9)
    assert sol.constant_term == pytest.approx(-0.5149852359307835, abs=1e-9)
    assert sol.value_agent == 0.05


def test_separable_survives_a_long_horizon_plateau():
    # at T = 50 the exposure target f(50)/f(t) starts near 0.0056 and the
    # objective is flat for clamped actions; the search must stay on the
    # interior bump instead of chasing the plateau edge
    f = DiscountSpec.quasi_hyperbolic(0.0575, 0.1, 0.439)
    m = MarketModel.quadratic(0.0, 50.0, 1.0)
    sol = solve(m, _rn(0.0, f, "separable_rn"), default_grid(50.0, 201))
    ref = float(f.value(50.0)) / np.asarray(f.value(sol.grid), dtype=float)
    assert np.max(np.abs(sol.z_star - ref)) < 1e-9


def _assert_stack_equals_each_solve(m, curves, grid):
    prefs = [_rn(0.0, f, "separable_rn") for f in curves]
    weights = np.array([np.asarray(f.value(grid), dtype=float) / float(f.value(m.horizon))
                        for f in curves])
    z_rows = _separable_z(m, grid, weights)
    effort_rows = separable_efforts(m, prefs, grid)
    assert z_rows.shape == effort_rows.shape == (len(curves), grid.size)
    for p, z, effort in zip(prefs, z_rows, effort_rows):
        sol = solve(m, p, grid)
        assert z.tobytes() == sol.z_star.tobytes()
        assert effort.tobytes() == sol.effort_values.tobytes()


FIGURE_CURVES = (
    [DiscountSpec.exponential(FIGURE2_GAMMA)]
    + [DiscountSpec.hyperbolic(FIGURE2_GAMMA, a) for a in FIGURE2_ALPHAS]
    + [DiscountSpec.quasi_hyperbolic(FIGURE2_GAMMA, b, FIGURE2_LAMBDA) for b in FIGURE2_BETAS]
    + [DiscountSpec.quasi_hyperbolic(FIGURE2_GAMMA, FIGURE2_BETA_RIGHT, lam)
       for lam in FIGURE2_LAMBDAS])


@pytest.mark.parametrize("points", [41, 151])
def test_stacked_search_equals_each_figure_solve(points):
    assert len(set(FIGURE_CURVES)) == 13
    m = MarketModel.quadratic(0.0, 50.0, 1.0, action=(0.0, 10.0))
    _assert_stack_equals_each_solve(m, FIGURE_CURVES, default_grid(50.0, points))


def test_stacked_search_keeps_the_long_horizon_bump():
    # the plateau setup above, stacked between curves without the bump
    f = DiscountSpec.quasi_hyperbolic(0.0575, 0.1, 0.439)
    m = MarketModel.quadratic(0.0, 50.0, 1.0)
    grid = default_grid(50.0, 201)
    curves = [DiscountSpec.exponential(0.0575), f, DiscountSpec.hyperbolic(1.0, 4.0)]
    _assert_stack_equals_each_solve(m, curves, grid)
    ref = float(f.value(50.0)) / np.asarray(f.value(grid), dtype=float)
    weights = np.array([np.asarray(c.value(grid)) / float(c.value(50.0)) for c in curves])
    assert np.max(np.abs(_separable_z(m, grid, weights)[1] - ref)) < 1e-9


def test_stacked_efforts_refuse_what_solve_refuses():
    m = MarketModel.quadratic(0.0, 50.0, 1.0)
    ok = _rn(0.0, DiscountSpec.exponential(0.1), "separable_rn")
    underflow = _rn(0.0, DiscountSpec.quasi_hyperbolic(0.0575, 0.0, 800.0), "separable_rn")
    with pytest.raises(ValueError, match="underflows to zero") as caught:
        separable_efforts(m, [ok, underflow])
    with pytest.raises(ValueError) as alone:
        solve(m, underflow)
    assert str(caught.value) == str(alone.value)
    with pytest.raises(ValueError, match="separable_rn"):
        separable_efforts(m, [ok, _rn(0.0, DiscountSpec.exponential(0.1),
                                      "first_best_separable")])


@settings(max_examples=15, deadline=None)
@given(alpha=st.floats(0.05, 3.0), gamma=st.floats(0.1, 2.0))
def test_separable_exposure_ratio_property(alpha, gamma):
    f = DiscountSpec.hyperbolic(gamma, alpha)
    m = MarketModel.quadratic(0.0, 1.5, 1.0)
    sol = solve(m, _rn(0.0, f, "separable_rn"), default_grid(1.5, 21))
    ref = float(f.value(1.5)) / np.asarray(f.value(sol.grid), dtype=float)
    assert np.max(np.abs(sol.z_star - ref)) < 1e-8


# ---------------------------------------------------------------------------
# discounted-income regime


def test_income_flat_discount_reduces_to_constant_exposure():
    m = MarketModel.hm_linear(0.0, 2.0, 1.0, 1.0)
    p = _cara(1.0, 0.5, -0.5, DiscountSpec.exponential(0.0),
              "discounted_income")
    sol = solve(m, p, default_grid(2.0, 101))
    expected = (1.0 + 0.5 * 1.0) / (1.0 + 1.0 * (1.0 + 0.5))
    assert np.max(np.abs(sol.z_star - expected)) < 1e-8


def test_income_risk_neutral_limit_matches_separable():
    disc = DiscountSpec.hyperbolic(1.0, 0.4)
    m = MarketModel.quadratic(0.1, 2.0, 1.0)
    grid = default_grid(2.0, 201)
    inc = solve(m, _rn(0.05, disc, "discounted_income"), grid)
    sep = solve(m, _rn(0.05, disc, "separable_rn"), grid)
    assert inc.value_principal == pytest.approx(sep.value_principal, abs=1e-8)
    np.testing.assert_allclose(inc.loading_values, sep.loading_values,
                               atol=1e-8)
    assert inc.constant_term == pytest.approx(sep.constant_term, abs=1e-8)


def test_income_reference_values():
    # endpoint exposures 0.19873594065892597 and 0.9287787254409602 from
    # scipy Brent; value -74.21594511643234 from quad over the envelope
    m = MarketModel.hm_linear(0.3, 2.0, 1.0, 1.0)
    p = _cara(0.5, 0.5, -0.8, DiscountSpec.hyperbolic(1.0, 0.4),
              "discounted_income")
    sol = solve(m, p, default_grid(2.0, 201))
    assert sol.z_star[0] == pytest.approx(0.19873594065892597, abs=1e-9)
    assert sol.z_star[-1] == pytest.approx(0.9287787254409602, abs=1e-9)
    assert sol.value_principal == pytest.approx(-74.21594511643234, abs=5e-9)


def test_income_exposure_closed_expression():
    # for quadratic-cost linear-drift models the pointwise optimum has a
    # rational closed form in the discount weights; the numeric search
    # must agree with it on the whole grid
    k, ga, gp, T = 1.0, 0.5, 0.5, 2.0
    disc = DiscountSpec.hyperbolic(1.0, 0.4)
    m = MarketModel.hm_linear(0.3, T, 1.0, k)
    sol = solve(m, _cara(ga, gp, -0.8, disc, "discounted_income"),
                default_grid(T, 201))
    g_t = np.asarray(disc.value(sol.grid), dtype=float)
    g_Tt = np.asarray(disc.value(T - sol.grid), dtype=float)
    g_T = float(disc.value(T))
    ref = g_T * g_Tt * (g_Tt + gp * k) / (g_t * g_Tt ** 2
                                          + k * g_T * (ga * g_T + gp))
    assert np.max(np.abs(sol.z_star - ref)) < 1e-9


# ---------------------------------------------------------------------------
# first-best benchmarks


def test_first_best_separable_flat_discount_exact():
    # quadratic family with no discounting: dictated effort is 1 and the
    # value is x0 - r0 + T/2 exactly
    m = MarketModel.quadratic(0.4, 3.0, 1.0)
    p = _rn(0.1, DiscountSpec.exponential(0.0), "first_best_separable")
    sol = solve(m, p, default_grid(3.0, 301))
    assert sol.value_principal == pytest.approx(0.4 - 0.1 + 1.5, abs=1e-12)
    np.testing.assert_allclose(sol.effort_values, 1.0, atol=1e-10)
    np.testing.assert_allclose(sol.loading_values, 0.0, atol=0.0)


def test_first_best_matches_second_best_separable():
    disc = DiscountSpec.hyperbolic(1.0, 0.4)
    m = MarketModel.quadratic(0.1, 2.0, 1.0)
    grid = default_grid(2.0, 201)
    fb = solve(m, _rn(0.05, disc, "first_best_separable"), grid)
    sb = solve(m, _rn(0.05, disc, "separable_rn"), grid)
    assert fb.value_principal == pytest.approx(sb.value_principal, abs=1e-10)
    np.testing.assert_allclose(fb.effort_values, sb.effort_values, atol=1e-8)


def test_first_best_risk_sharing_flat_discount():
    # reference from an 801x801 grid over (effort, share) refined with
    # Nelder-Mead on the Gaussian closed form: effort 0.5, share 3/7,
    # value -1.198872369627655
    m = MarketModel.hm_linear(0.2, 1.5, 1.0, 2.0)
    p = _cara(1.2, 0.9, -0.6, DiscountSpec.exponential(0.0),
              "first_best_nonseparable")
    sol = solve(m, p, default_grid(1.5, 201))
    np.testing.assert_allclose(sol.loading_values, 0.9 / 2.1, atol=1e-10)
    np.testing.assert_allclose(sol.effort_values, 0.5, atol=1e-10)
    assert sol.value_principal == pytest.approx(-1.198872369627655, abs=5e-9)
    assert sol.value_agent == -0.6


def test_first_best_dominates_income_second_best():
    rng = np.random.default_rng(5)
    for _ in range(4):
        k = float(rng.uniform(0.5, 3.0))
        ga = float(rng.uniform(0.3, 2.0))
        gp = float(rng.uniform(0.3, 2.0))
        r0 = float(-rng.uniform(0.2, 1.5))
        alpha = float(rng.uniform(0.1, 2.0))
        m = MarketModel.hm_linear(0.2, 2.0, 1.0, k)
        disc = DiscountSpec.hyperbolic(1.0, alpha)
        grid = default_grid(2.0, 201)
        sb = solve(m, _cara(ga, gp, r0, disc, "discounted_income"), grid)
        fb = solve(m, _cara(ga, gp, r0, disc, "first_best_nonseparable"), grid)
        assert fb.value_principal >= sb.value_principal
        # dictating effort removes any time variation from the share
        assert float(np.ptp(fb.loading_values)) == 0.0
        assert fb.value_agent == r0


# ---------------------------------------------------------------------------
# error paths and plumbing


def test_unbounded_exposure_raises():
    with pytest.raises(UnboundedLoadingError, match="unbounded loading"):
        z_argmax(lambda zs: zs)


def test_z_argmax_rejects_bad_inputs():
    with pytest.raises(ValueError, match="non-finite"):
        z_argmax(lambda zs: np.where(zs > 0.2, np.nan, -zs ** 2))


def test_z_argmax_quadratic():
    x, v = z_argmax(lambda zs: -(zs - 0.37) ** 2 + 1.5)
    assert x == pytest.approx(0.37, abs=1e-9)
    assert v == pytest.approx(1.5, abs=1e-12)


def test_z_argmax_grid_matches_one_row_searches():
    # rows: smooth maxima inside, below and above the first bracket, and
    # clamped-action rows whose narrow bump at 1/k sits beside a plateau
    peaks = np.array([0.37, -2.5, 7.0, 0.0, 0.0, 0.0])
    curv = np.array([1.0, 3.0, 0.5, 130.0, 1e4, 0.5])
    clamped = np.array([False, False, False, True, True, True])

    def objective(zs, rows):
        k = curv[rows, None]
        a = np.clip(zs, 0.0, 10.0)
        return np.where(clamped[rows, None], a - 0.5 * k * a * a,
                        -k * (zs - peaks[rows, None]) ** 2)

    z, v = z_argmax_grid(objective, peaks.size)
    expected = np.where(clamped, 1.0 / curv, peaks)
    np.testing.assert_allclose(z, expected, rtol=0.0, atol=1e-9)
    for i in range(peaks.size):
        row = np.array([i])
        zi, vi = z_argmax(lambda zs: objective(zs[None, :], row)[0])
        assert (zi, vi) == (z[i], v[i])


def test_z_argmax_grid_raises_when_any_row_runs_away():
    with pytest.raises(UnboundedLoadingError, match="unbounded loading"):
        z_argmax_grid(lambda zs, rows: np.where(rows[:, None] == 1, zs, -zs * zs), 3)


def test_infeasible_when_risk_sharing_diverges():
    m = MarketModel.quadratic(0.0, 1.0, 1.0)
    p = _cara(1.0, 3.0, -1e-300, DiscountSpec.exponential(0.0),
              "first_best_nonseparable")
    with pytest.raises(InfeasibleError, match="diverged"):
        solve(m, p, default_grid(1.0, 11))


def test_solution_grid_validation():
    m = MarketModel.quadratic(0.0, 1.0, 1.0)
    p = _rn(0.0, DiscountSpec.exponential(0.1), "separable_rn")
    with pytest.raises(ValueError, match="at least 3"):
        solve(m, p, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="strictly increasing"):
        solve(m, p, np.array([0.0, 0.6, 0.5, 1.0]))
    with pytest.raises(ValueError, match="horizon"):
        solve(m, p, np.array([0.0, 0.5, 0.9]))


def test_default_grid_shape():
    g = default_grid(2.0)
    assert g.size == DEFAULT_GRID_POINTS
    assert g[0] == 0.0 and g[-1] == 2.0
    assert default_grid(1.0, 11).size == 11


def test_solution_shift_and_json_round_trip():
    m = MarketModel.quadratic(0.1, 2.0, 1.0)
    sol = solve(m, _rn(0.05, DiscountSpec.exponential(0.2), "separable_rn"),
                default_grid(2.0, 21))
    moved = sol.shifted(1.0)
    assert isinstance(moved, ContractSolution)
    assert moved.constant_term == pytest.approx(sol.constant_term + 1.0)
    assert moved.value_principal == sol.value_principal
    blob = sol.to_json()
    json.dumps(blob)
    assert blob["spec"] == "separable_rn"
    assert blob["loading"]["grid"] == list(sol.grid)
    assert blob["value_principal"] == sol.value_principal
