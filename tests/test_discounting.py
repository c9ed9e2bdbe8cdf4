"""Discount-curve values, rates, and the family limit relations.

Reference numbers were produced with mpmath at 40 digits from the
defining formulas and are pasted here as literals.
"""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tic_contracts import DiscountSpec


def test_exponential_value_and_rate():
    spec = DiscountSpec.exponential(0.3)
    t = np.array([0.0, 0.5, 2.0, 10.0])
    assert_allclose(spec.value(t), np.exp(-0.3 * t), rtol=0, atol=1e-15)
    assert_allclose(spec.idr(t), 0.3, rtol=0, atol=0)
    assert spec.value(0.0) == 1.0


def test_hyperbolic_reference_values():
    spec = DiscountSpec.hyperbolic(1.0, 4.0)
    assert_allclose(spec.value(0.7), 0.71623262704415879, rtol=1e-15)
    assert_allclose(spec.value(3.0), 0.52664038784792661, rtol=1e-15)
    assert_allclose(spec.value(50.0), 0.26558343620387892, rtol=1e-15)
    assert_allclose(spec.idr(0.7), 0.26315789473684212, rtol=1e-15)
    assert_allclose(spec.idr(3.0), 0.076923076923076923, rtol=1e-15)
    assert_allclose(spec.idr(50.0), 0.0049751243781094527, rtol=1e-15)
    # small-alpha regime exercises the log1p evaluation path
    flat = DiscountSpec.hyperbolic(0.0575, 0.04)
    assert_allclose(flat.value(50.0), 0.20612857282485187, rtol=1e-14)


def test_quasi_hyperbolic_reference_values():
    spec = DiscountSpec.quasi_hyperbolic(0.0387, 0.7, 2.197)
    assert_allclose(spec.value(0.7), 0.74401858128737679, rtol=1e-15)
    assert_allclose(spec.value(3.0), 0.62363698717316029, rtol=1e-15)
    assert_allclose(spec.value(50.0), 0.10109698817647939, rtol=1e-15)
    assert_allclose(spec.idr(0.7), 0.22392559927205178, rtol=1e-14)
    assert_allclose(spec.idr(3.0), 0.039991703770508253, rtol=1e-14)
    # far past the transient the rate settles at gamma
    assert_allclose(spec.idr(50.0), 0.0387, rtol=1e-12)


def test_value_extended_negative_arguments():
    hyp = DiscountSpec.hyperbolic(1.0, 4.0)
    assert_allclose(hyp.value_extended(-0.2), 1.4953487812212205, rtol=1e-15)
    quasi = DiscountSpec.quasi_hyperbolic(0.0387, 0.7, 2.197)
    assert_allclose(quasi.value_extended(-0.2), 1.1745889880451379, rtol=1e-15)
    t = np.linspace(0.0, 3.0, 7)
    assert_allclose(hyp.value_extended(t), hyp.value(t), rtol=0, atol=0)
    with pytest.raises(ValueError):
        hyp.value_extended(-0.3)  # 1 + alpha*t hits zero at t = -0.25
    with pytest.raises(ValueError):
        hyp.value(-0.1)


def test_quasi_degenerate_betas_match_exponentials():
    t = np.linspace(0.0, 20.0, 101)
    one = DiscountSpec.quasi_hyperbolic(0.3, 1.0, 2.0)
    assert_allclose(one.value(t), DiscountSpec.exponential(0.3).value(t), rtol=0, atol=0)
    assert_allclose(one.idr(t), 0.3, rtol=0, atol=1e-15)
    zero = DiscountSpec.quasi_hyperbolic(0.3, 0.0, 2.0)
    assert_allclose(zero.value(t), DiscountSpec.exponential(2.3).value(t), rtol=1e-15)
    assert_allclose(zero.idr(t), 2.3, rtol=1e-14)


def test_family_limits():
    t = np.linspace(0.0, 50.0, 501)
    exp_curve = DiscountSpec.exponential(0.0575).value(t)
    near_exp = DiscountSpec.hyperbolic(0.0575, 1e-8).value(t)
    assert np.max(np.abs(near_exp - exp_curve)) < 1e-6
    near_one = DiscountSpec.quasi_hyperbolic(0.0575, 1.0 - 1e-9, 0.439).value(t)
    assert np.max(np.abs(near_one - exp_curve)) < 1e-6


def test_idr_matches_log_derivative():
    t = np.linspace(0.01, 30.0, 97)
    h = 1e-6
    for spec in (DiscountSpec.exponential(0.21),
                 DiscountSpec.hyperbolic(0.8, 2.5),
                 DiscountSpec.quasi_hyperbolic(0.05, 0.4, 1.3)):
        fd = -(np.log(spec.value(t + h)) - np.log(spec.value(t - h))) / (2.0 * h)
        assert_allclose(spec.idr(t), fd, rtol=0, atol=1e-6)


def test_zero_gamma_is_flat():
    for spec in (DiscountSpec.exponential(0.0),
                 DiscountSpec.hyperbolic(0.0, 2.0)):
        t = np.linspace(0.0, 9.0, 11)
        assert_allclose(spec.value(t), 1.0, rtol=0, atol=0)
        assert_allclose(spec.idr(t), 0.0, rtol=0, atol=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_gamma_is_flat_where_alpha_t_overflows():
    # exp(-0 / alpha * log1p(alpha t)) would be exp(-0 * inf) = nan; a flat
    # curve is 1 at every t, negative ones too, where 1 + alpha t <= 0
    t = np.array([0.0, 1.0, 1e300, 1e308, np.inf])
    for spec in (DiscountSpec.exponential(0.0), DiscountSpec.hyperbolic(0.0, 1e10)):
        assert spec.value(t).tolist() == [1.0] * t.size
        assert spec.value_extended(np.concatenate([-t, t])).tolist() == [1.0] * (2 * t.size)
    assert DiscountSpec.hyperbolic(0.0, 1e10).value(1e300) == 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("beta", [0.1, 0.3, 0.569])
def test_huge_quasi_rate_reaches_its_limits_quietly(beta):
    # lambda * t overflows for t > 1, and exp(-inf) = 0 is the right limit
    gamma, lam = 0.0575, 1e308
    spec = DiscountSpec.quasi_hyperbolic(gamma, beta, lam)
    t = np.linspace(0.0, 50.0, 11)
    rate = spec.idr(t)
    assert rate[0] == spec.idr(0.0) == gamma + lam * (1.0 - beta)
    assert np.all(rate[1:] == gamma) and spec.idr(50.0) == gamma


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_rate_times_t_reaches_its_limits_quietly():
    # 1 + alpha t overflows to infinity, where the hyperbolic rate is 0
    t = np.array([0.0, 1e300, 1e308])
    hyperbolic = DiscountSpec.hyperbolic(1.0, 1e300)
    assert hyperbolic.idr(t).tolist() == [1.0, 0.0, 0.0]
    assert hyperbolic.idr(1e308) == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extended_domain_check_reads_an_overflow_as_inside():
    # 1 + alpha t overflows to +inf, which lies inside 1 + alpha t > 0
    hyperbolic = DiscountSpec.hyperbolic(1.0, 4.0)
    assert hyperbolic.value_extended(1e308) == 0.0
    assert hyperbolic.value_extended(np.array([0.0, 1e308])).tolist() == [1.0, 0.0]
    with pytest.raises(ValueError, match="undefined"):
        hyperbolic.value_extended(np.array([1e308, -1e308]))


ARRAY_CONTRACT_SPECS = [
    DiscountSpec.exponential(0.3),
    DiscountSpec.hyperbolic(1.0, 0.0),
    DiscountSpec.hyperbolic(1.0, 4.0),
    DiscountSpec.quasi_hyperbolic(0.0387, 0.0, 2.197),
    DiscountSpec.quasi_hyperbolic(0.0387, 0.7, 2.197),
    DiscountSpec.quasi_hyperbolic(0.0387, 1.0, 2.197),
]
ARRAY_CONTRACT_TIMES = [1.5, np.array([0.0, 0.25, 1.5, 7.0, 40.0]),
                        np.array([[0.0, 0.5, 3.0], [20.0, 300.0, 1e3]])]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", ["value", "idr", "value_extended"])
@pytest.mark.parametrize("spec", ARRAY_CONTRACT_SPECS,
                         ids=lambda d: f"{d.variant}-alpha{d.alpha:g}-beta{d.beta:g}")
@pytest.mark.parametrize("t", ARRAY_CONTRACT_TIMES, ids=lambda t: str(np.shape(t)))
def test_evaluators_return_float64_of_the_input_shape(method, spec, t):
    # one path for every shape: each entry is what the entry alone gives
    out = getattr(spec, method)(t)
    assert isinstance(out, (np.ndarray, np.generic)) and out.dtype == np.float64
    assert out.shape == np.shape(t)
    alone = [getattr(spec, method)(float(v)) for v in np.ravel(t)]
    assert np.ravel(out).tobytes() == np.array(alone, dtype=float).tobytes()


def test_quasi_hyperbolic_rate_at_beta_one_is_gamma():
    spec = DiscountSpec.quasi_hyperbolic(0.0387, 1.0, 2.197)
    t = np.array([0.0, 0.25, 1.5, 40.0, 1e3, 1e308])
    assert np.all(spec.idr(t) == spec.gamma)
    assert spec.idr(0.7) == spec.gamma


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    gamma=st.floats(0.01, 3.0),
    alpha=st.floats(0.001, 10.0),
    t=st.floats(0.0, 40.0),
    dt=st.floats(0.01, 5.0),
)
def test_hyperbolic_decreasing_and_positive(gamma, alpha, t, dt):
    spec = DiscountSpec.hyperbolic(gamma, alpha)
    a, b = spec.value(t), spec.value(t + dt)
    assert 0.0 < b < a <= 1.0
    assert spec.idr(t) > 0.0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    gamma=st.floats(0.01, 2.0),
    beta=st.floats(0.0, 1.0),
    lam=st.floats(0.0, 5.0),
    t=st.floats(0.0, 40.0),
)
def test_quasi_idr_between_gamma_and_gamma_plus_lambda(gamma, beta, lam, t):
    spec = DiscountSpec.quasi_hyperbolic(gamma, beta, lam)
    rate = float(spec.idr(t))
    assert gamma - 1e-12 <= rate <= gamma + lam + 1e-12


@pytest.mark.parametrize("gamma", [0.0, 0.3, 700.0])
def test_exponential_is_the_hyperbolic_alpha_zero_curve(gamma):
    exponential = DiscountSpec("exponential", gamma)
    hyperbolic = DiscountSpec.hyperbolic(gamma, 0.0)
    t = np.array([0.0, 1e-9, 0.5, 3.0, 1e3])
    for name in ("value", "idr"):
        for arg in (t, 0.7, 0.0):
            got, want = getattr(exponential, name)(arg), getattr(hyperbolic, name)(arg)
            assert type(got) is type(want), name
            np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(exponential.value_extended(-t[:3]),
                                  hyperbolic.value_extended(-t[:3]))


@pytest.mark.parametrize("variant", ["exponential", "quasi_hyperbolic"])
@pytest.mark.parametrize("alpha", [0.4, -0.1, float("nan"), float("inf")])
def test_alpha_belongs_to_the_hyperbolic_curve(variant, alpha):
    with pytest.raises(ValueError, match="alpha applies to the hyperbolic variant only"):
        DiscountSpec(variant, 0.3, alpha=alpha)


@pytest.mark.parametrize("variant", ["exponential", "hyperbolic"])
@pytest.mark.parametrize("name,value", [("beta", 0.5), ("beta", 0.0), ("lam", 2.0),
                                        ("lam", float("nan"))])
def test_beta_and_lambda_belong_to_the_quasi_hyperbolic_curve(variant, name, value):
    # from_json never reads an unused parameter, and a spec holding one
    # would compare unequal to the curve it evaluates as
    with pytest.raises(ValueError, match=f"{name} applies to the quasi_hyperbolic variant only"):
        DiscountSpec(variant, 0.3, alpha=0.4 if variant == "hyperbolic" else 0.0,
                     **{name: value})


def test_validation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        DiscountSpec.exponential(-0.1)
    with pytest.raises(ValueError):
        DiscountSpec.hyperbolic(1.0, -0.5)
    with pytest.raises(ValueError):
        DiscountSpec.quasi_hyperbolic(0.5, 1.5, 1.0)
    with pytest.raises(ValueError):
        DiscountSpec.quasi_hyperbolic(0.5, 0.5, -1.0)
    with pytest.raises(ValueError):
        DiscountSpec(variant="gaussian", gamma=1.0)
    # exp(-t (lam + gamma)) at t = 0 would be exp(0 * inf) = nan
    with pytest.raises(ValueError, match=r"lambda \+ gamma must be finite"):
        DiscountSpec.quasi_hyperbolic(1e308, 0.5, 1e308)


@pytest.mark.parametrize("obj,spec", [
    ({"variant": "exponential", "gamma": 0.3}, DiscountSpec.exponential(0.3)),
    ({"variant": "hyperbolic", "gamma": 1, "alpha": 4.0}, DiscountSpec.hyperbolic(1.0, 4.0)),
    ({"variant": "quasi_hyperbolic", "gamma": 0.0387, "beta": 0.7, "lambda": 2.197},
     DiscountSpec.quasi_hyperbolic(0.0387, 0.7, 2.197)),
])
def test_from_json_reads_each_variants_keys(obj, spec):
    assert DiscountSpec.from_json(obj) == spec
    # every key the variant reads is required
    for key in obj:
        with pytest.raises(KeyError, match=key):
            DiscountSpec.from_json({k: v for k, v in obj.items() if k != key})


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(variant=st.sampled_from(["exponential", "hyperbolic", "quasi_hyperbolic"]),
       gamma=st.floats(0.0, 1e300), alpha=st.floats(0.0, 1e300),
       beta=st.floats(0.0, 1.0), lam=st.floats(0.0, 1e300),
       keep=st.lists(st.booleans(), min_size=3, max_size=3))
def test_from_json_builds_every_constructible_spec(variant, gamma, alpha, beta, lam, keep):
    params = {name: value for name, value, use in
              zip(("alpha", "beta", "lam"), (alpha, beta, lam), keep) if use}
    try:
        spec = DiscountSpec(variant, gamma, **params)
    except ValueError:
        return
    # the variant's own keys, at the values the spec holds
    obj = {"variant": variant, "gamma": gamma, "alpha": spec.alpha, "beta": spec.beta,
           "lambda": spec.lam}
    assert DiscountSpec.from_json(obj) == spec


@pytest.mark.parametrize("key,value", [("gamma", True), ("gamma", "0.3"), ("alpha", None),
                                       ("alpha", [0.4])])
def test_json_numbers_are_read_strictly(key, value):
    with pytest.raises(TypeError, match=f"{key} must be a number"):
        DiscountSpec.from_json({"variant": "hyperbolic", "gamma": 0.3, "alpha": 0.4,
                                key: value})


@pytest.mark.parametrize("variant,key,value", [
    ("exponential", "gamma", True), ("exponential", "gamma", np.int64(1)),
    ("hyperbolic", "alpha", False), ("hyperbolic", "alpha", np.int64(1)),
    ("quasi_hyperbolic", "beta", True), ("quasi_hyperbolic", "lam", np.int64(1)),
])
def test_constructor_reads_numbers_by_the_json_rule(variant, key, value):
    # what from_json refuses the constructor refuses, with the same message
    params = {"gamma": 0.3, **{"hyperbolic": {"alpha": 0.4},
                               "quasi_hyperbolic": {"beta": 0.5, "lam": 2.0}}.get(variant, {})}
    params[key] = value
    with pytest.raises(TypeError, match=f"^{key} must be a number$"):
        DiscountSpec(variant, **params)


def test_constructor_stores_plain_floats():
    spec = DiscountSpec("quasi_hyperbolic", 1, beta=np.float64(0.5), lam=2)
    assert spec == DiscountSpec.quasi_hyperbolic(1.0, 0.5, 2.0)
    assert all(type(getattr(spec, name)) is float for name in ("gamma", "alpha", "beta", "lam"))
    assert DiscountSpec.from_json(
        {"variant": "quasi_hyperbolic", "gamma": 1, "beta": 0.5, "lambda": 2}) == spec
