import json
import math

import numpy as np
import pytest

from tic_contracts import DiscountSpec, MarketModel, Preferences, validate


def exp_prefs(**kw):
    base = dict(agent_utility="exponential", principal_utility="exponential",
                gamma_a=1.0, gamma_p=0.5, r0=-0.5,
                discount=DiscountSpec.exponential(0.3),
                spec_tag="discounted_utility")
    base.update(kw)
    return Preferences(**base)


def test_hm_linear_family_shapes():
    m = MarketModel.hm_linear(0.0, 1.0, 2.0, 3.0)
    # sigma * b(a) = a regardless of sigma
    assert math.isclose(m.sigma_at(0.3) * m.drift(0.3, 1.7), 1.7)
    assert math.isclose(m.cost(0.0, 2.0), 3.0 * 2.0 ** 2 / 2.0)


def test_quadratic_and_power_families():
    q = MarketModel.quadratic(0.0, 1.0, 1.5)
    assert math.isclose(q.drift(0.2, 0.8), 0.8)
    assert math.isclose(q.cost(0.2, 0.8), 0.32)
    p = MarketModel.power(0.0, 1.0, 1.0, 3.0)
    assert math.isclose(p.cost(0.0, 2.0), 8.0 / 3.0)
    with pytest.raises(ValueError):
        MarketModel.power(0.0, 1.0, 1.0, 1.0)


BUILTIN_PARAMS = {"hm_linear": {"k": 2.5}, "quadratic": {}, "power": {"p": 3.0}}


def _independent_drift(name, sigma, a):
    return a / sigma if name == "hm_linear" else a


def _independent_cost(name, a):
    if name == "hm_linear":
        return 2.5 * a * a / 2.0
    if name == "quadratic":
        return a * a / 2.0
    return np.abs(a) ** 3 / 3.0


@pytest.mark.parametrize("drift", sorted(BUILTIN_PARAMS))
@pytest.mark.parametrize("cost", sorted(BUILTIN_PARAMS))
def test_closed_response_is_the_clamped_maximizer(drift, cost):
    # every drift x cost pair, mixed ones included: the action maximizes
    # sigma b(a) z - c(a) over the action interval, here on a grid of
    # spacing 1e-5 with the families written out independently
    sigma, lo, hi = 1.5, -0.5, 2.0
    m = MarketModel.from_families(0.0, 1.0, sigma, (drift, BUILTIN_PARAMS[drift]),
                                  (cost, BUILTIN_PARAMS[cost]), (lo, hi))
    z = np.array([-3.0, -0.2, 0.0, 0.1, 0.7, 1.3, 4.0, 40.0])
    lam, c, a = m.closed_response(z)
    grid = np.linspace(lo, hi, 250001)
    gain = (sigma * _independent_drift(drift, sigma, grid)[None, :] * z[:, None]
            - _independent_cost(cost, grid)[None, :])
    np.testing.assert_allclose(a, grid[np.argmax(gain, axis=1)], rtol=0.0, atol=1e-5)
    assert a.min() == lo and a.max() == hi
    np.testing.assert_allclose(lam, sigma * _independent_drift(drift, sigma, a),
                               rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(c, _independent_cost(cost, a), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("drift,cost,message", [
    (("cubic", {}), ("quadratic", {}), "unknown drift family 'cubic'"),
    (("quadratic", {}), ("cubic", {}), "unknown cost family 'cubic'"),
    (("power", {"p": 3.0}), ("power", {"p": 1.0}), "power cost needs p > 1"),
    (("hm_linear", {"k": 1.0}), ("hm_linear", {"k": 0.0}), "hm_linear needs k > 0"),
])
def test_family_makers_name_the_fault(drift, cost, message):
    obj = {"x0": 0.0, "T": 1.0, "sigma": 1.0, "action": [0.0, 1.0],
           "drift": {"family": drift[0], "params": drift[1]},
           "cost": {"family": cost[0], "params": cost[1]}}
    with pytest.raises(ValueError, match=message):
        MarketModel.from_json(obj)


def test_sigma_must_be_positive():
    with pytest.raises(ValueError):
        MarketModel.quadratic(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        MarketModel.quadratic(0.0, 1.0, -2.0)


def test_sigma_at_accepts_arrays():
    m = MarketModel.quadratic(0.0, 2.0, 1.5)
    out = m.sigma_at(np.array([0.0, 1.0, 2.0]))
    np.testing.assert_allclose(out, 1.5)


def test_validate_flags_bad_geometry():
    m = MarketModel.quadratic(0.0, 1.0, 1.0, action=(2.0, 1.0))
    msgs = validate(m, exp_prefs())
    assert any("empty action set" in msg for msg in msgs)

    m2 = MarketModel.from_families(0.0, -1.0, 1.0,
                                   drift=("quadratic", {}), cost=("quadratic", {}),
                                   action=(0.0, 1.0))
    assert any("horizon" in msg for msg in validate(m2, exp_prefs()))

    m3 = MarketModel.quadratic(0.0, 1.0, 1.0, action=(0.0, math.inf))
    assert any("bounded" in msg for msg in validate(m3, exp_prefs()))


def test_validate_rejects_non_finite_fields():
    nan, inf = math.nan, math.inf
    cases = [
        (MarketModel.quadratic(nan, 1.0, 1.0), exp_prefs(), "x0 must be finite"),
        (MarketModel.quadratic(0.0, inf, 1.0), exp_prefs(), "horizon must be positive and finite"),
        (MarketModel.quadratic(0.0, 1.0, inf), exp_prefs(), "sigma must be positive and finite"),
        (MarketModel.quadratic(0.0, 1.0, 1.0, action=(nan, 1.0)), exp_prefs(), "bounded"),
        (MarketModel.quadratic(0.0, 1.0, 1.0), exp_prefs(r0=-inf), "r0 must be finite"),
        (MarketModel.quadratic(0.0, 1.0, 1.0), exp_prefs(gamma_a=inf), "gamma_a must be finite"),
        (MarketModel.quadratic(0.0, 1.0, 1.0), exp_prefs(gamma_p=inf), "gamma_p must be finite"),
    ]
    for model, prefs, message in cases:
        assert any(message in msg for msg in validate(model, prefs)), message
    # a NaN bound is reported as unbounded, not as an empty interval
    msgs = validate(MarketModel.quadratic(0.0, 1.0, 1.0, action=(0.0, nan)), exp_prefs())
    assert not any("empty action set" in msg for msg in msgs)


def test_validate_spec_utility_matrix():
    m = MarketModel.quadratic(0.0, 1.0, 1.0)
    rn = Preferences(agent_utility="risk_neutral", principal_utility="risk_neutral",
                     gamma_a=0.0, gamma_p=0.0, r0=0.1,
                     discount=DiscountSpec.exponential(0.3), spec_tag="separable_rn")
    assert validate(m, rn) == []

    wrong = exp_prefs(spec_tag="separable_rn")
    assert any("spec/utility mismatch" in msg for msg in validate(m, wrong))

    du_rn_principal = exp_prefs(principal_utility="risk_neutral", gamma_p=0.0)
    assert validate(m, du_rn_principal) == []


def test_validate_reservation_sign_for_exponential_agent():
    m = MarketModel.quadratic(0.0, 1.0, 1.0)
    msgs = validate(m, exp_prefs(r0=0.25))
    assert any("reservation utility must be negative" in msg for msg in msgs)


def test_validate_cost_convexity_for_first_best():
    def concave_cost(t, a):
        return np.sqrt(np.abs(a) + 1e-9)

    m = MarketModel(x0=0.0, horizon=1.0, sigma=lambda t: 1.0,
                    drift=lambda t, a: a, cost=concave_cost,
                    action_lo=0.0, action_hi=4.0)
    p = exp_prefs(spec_tag="first_best_nonseparable")
    assert any("convex" in msg for msg in validate(m, p))


def test_preferences_reject_inconsistent_utilities():
    with pytest.raises(ValueError):
        exp_prefs(gamma_a=0.0)
    with pytest.raises(ValueError):
        Preferences(agent_utility="risk_neutral", principal_utility="risk_neutral",
                    gamma_a=0.5, gamma_p=0.0, r0=0.1,
                    discount=DiscountSpec.exponential(0.3), spec_tag="separable_rn")
    with pytest.raises(ValueError):
        exp_prefs(spec_tag="third_best")


def test_utility_round_trip():
    p = exp_prefs(gamma_a=2.0)
    for x in (-1.0, 0.0, 0.7, 3.0):
        u = p.agent_u(x)
        assert u < 0.0
        assert math.isclose(p.agent_u_inv(u), x, abs_tol=1e-12)
    with pytest.raises(ValueError):
        p.agent_u_inv(0.0)
    rn = Preferences(agent_utility="risk_neutral", principal_utility="risk_neutral",
                     gamma_a=0.0, gamma_p=0.0, r0=0.1,
                     discount=DiscountSpec.exponential(0.3), spec_tag="separable_rn")
    assert rn.agent_u(1.7) == 1.7
    assert rn.principal_u(-0.4) == -0.4


def test_model_from_json_builds_the_family_model():
    m = MarketModel.hm_linear(0.25, 2.0, 1.5, 0.8, action=(0.0, 5.0))
    family = {"family": "hm_linear", "params": {"k": 0.8}}
    obj = {"x0": 0.25, "T": 2, "sigma": 1.5, "drift": family, "cost": family,
           "action": [0.0, 5]}
    for again in (MarketModel.from_json(obj), MarketModel.from_json(json.dumps(obj))):
        assert (again.x0, again.horizon, again.action_lo, again.action_hi) == (0.25, 2.0, 0.0, 5.0)
        assert again.families.slope == m.families.slope
        for t, a in ((0.0, 0.3), (1.0, 2.0)):
            assert math.isclose(again.drift(t, a), m.drift(t, a))
            assert math.isclose(again.cost(t, a), m.cost(t, a))
            assert again.sigma_at(t) == m.sigma_at(t)

    # only the builtin families have a JSON form
    with pytest.raises(ValueError, match="unknown cost family 'custom'"):
        MarketModel.from_json(dict(obj, cost={"family": "custom"}))


def test_preferences_from_json():
    text = ('{"agent": "exponential", "principal": "exponential", "gamma_a": 1, '
            '"gamma_p": 0.5, "r0": -0.5, "discount": {"variant": "exponential", "gamma": 0.3}, '
            '"spec": "discounted_utility"}')
    assert Preferences.from_json(text) == exp_prefs()
    assert Preferences.from_json(json.loads(text)) == exp_prefs()


@pytest.mark.parametrize("tag", ["separable_rn", "discounted_utility", "discounted_income"])
def test_decode_inverts_the_reward_without_running_cost(tag):
    if tag == "separable_rn":
        prefs = exp_prefs(agent_utility="risk_neutral", principal_utility="risk_neutral",
                          gamma_a=0.0, gamma_p=0.0, r0=0.1, spec_tag=tag)
    else:
        prefs = exp_prefs(gamma_a=0.7, spec_tag=tag)
    weights = np.array([1e-3, 0.05, 0.37, 0.8, 1.0])[:, None]
    pays = np.array([-4.0, -0.6, 0.02, 0.9, 3.5])[None, :]
    got = prefs.decode(weights, prefs.reward(weights, pays, 0.0))
    np.testing.assert_allclose(got, np.broadcast_to(pays, got.shape), rtol=1e-12, atol=0.0)


def test_first_best_rewards_have_no_decoding():
    for tag, prefs in (
            ("first_best_separable", exp_prefs(
                agent_utility="risk_neutral", principal_utility="risk_neutral",
                gamma_a=0.0, gamma_p=0.0, r0=0.1, spec_tag="first_best_separable")),
            ("first_best_nonseparable", exp_prefs(spec_tag="first_best_nonseparable"))):
        with pytest.raises(ValueError, match=f"no terminal decoding for spec '{tag}'"):
            prefs.decode(0.5, prefs.reward(0.5, 1.0, 0.0))


def test_cost_weight_reads_no_curve_outside_the_utility():
    # hyperbolic(1, 4) is undefined from lag -0.25 down; the discounted-utility
    # cost weights are ones without reading it
    curve = DiscountSpec.hyperbolic(1.0, 4.0)
    lags = np.linspace(-2.0, 2.0, 9)
    with pytest.raises(ValueError):
        curve.value_extended(lags)
    weights = exp_prefs(discount=curve).cost_weight(lags)
    assert weights.shape == lags.shape
    assert np.all(weights == 1.0)
    rn = exp_prefs(agent_utility="risk_neutral", principal_utility="risk_neutral",
                   gamma_a=0.0, gamma_p=0.0, r0=0.1, discount=curve, spec_tag="separable_rn")
    np.testing.assert_array_equal(rn.cost_weight(lags[4:]), curve.value_extended(lags[4:]))


def test_running_cost_keeps_the_bits_of_both_sums():
    # the ones of discounted_utility leave its plain sum's bits, and the
    # separable regimes sum the curve-weighted cost
    curve = DiscountSpec.hyperbolic(1.0, 0.4)
    utility = exp_prefs(discount=curve)
    separable = exp_prefs(agent_utility="risk_neutral", principal_utility="risk_neutral",
                          gamma_a=0.0, gamma_p=0.0, r0=0.1, discount=curve,
                          spec_tag="separable_rn")
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 9, 300, 2001):
        lags = np.linspace(-1.5, 2.0, n)
        cost = rng.random(n)
        for dt in (1e-3, 0.013, 0.5):
            assert utility.running_cost(lags, cost, dt) == float(np.sum(cost) * dt)
            assert separable.running_cost(lags, cost, dt) == float(
                np.sum(curve.value_extended(lags) * cost) * dt)
