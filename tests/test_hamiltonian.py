"""Action search against bounded-Brent / dense-grid oracle values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tic_contracts import MarketModel, maximize, search_max
from tic_contracts.hamiltonian import stars_on_grid


# one batched call: each row has its own function and interval, and the
# rows converge at different golden-section iterations
_ROWS = [
    (lambda a: 0.8 * a - a * a, 0.0, 10.0),         # argmax 0.4, value 0.16
    (lambda a: 2.0 * math.sin(a) - a, 0.0, 3.0),    # argmax arccos(1/2)
    (lambda a: a, 0.0, 3.0),                        # maximum on the boundary
    (lambda a: 1.0, 0.0, 3.0),                      # plateau
    (lambda a: a * a, 2.0, 2.0),                    # degenerate interval
]


def _search(rows):
    def evaluate(xs, idx):
        return np.array([[float(rows[r][0](a)) for a in line]
                         for r, line in zip(idx.tolist(), xs.tolist())])

    lo = np.array([row[1] for row in rows])
    hi = np.array([row[2] for row in rows])
    return search_max(evaluate, lo, hi, 64)


@pytest.fixture(scope="module")
def batched():
    return _search(_ROWS)


def test_search_max_quadratic_oracle(batched):
    x, v = batched
    assert abs(x[0] - 0.4) < 1e-9
    assert abs(v[0] - 0.16) < 1e-12


def test_search_max_trig_oracle(batched):
    x, v = batched
    assert abs(x[1] - 1.0471975511965976) < 1e-8
    assert abs(v[1] - 0.6848532563722796) < 1e-12


def test_search_max_boundary_and_plateau(batched):
    x, v = batched
    assert abs(x[2] - 3.0) < 1e-9
    # constant function: ties collapse to the small end, within tol
    assert abs(x[3]) < 1e-9 and v[3] == 1.0
    assert x[4] == 2.0 and v[4] == 4.0


def test_search_max_rows_do_not_interact(batched):
    for i, row in enumerate(_ROWS):
        x, v = _search([row])
        assert x[0] == batched[0][i] and v[0] == batched[1][i]


def test_maximize_hm_linear_matches_oracle():
    m = MarketModel.hm_linear(0.0, 1.0, 1.0, 2.0)
    res = maximize(m, 0.0, 0.8)
    assert abs(res.argmax - 0.4) < 1e-10
    assert abs(res.value - 0.16) < 1e-12
    assert not res.at_boundary


def test_maximize_power_matches_oracle():
    m = MarketModel.power(0.0, 1.0, 1.5, 3.0)
    res = maximize(m, 0.0, 0.9)
    assert abs(res.argmax - 1.161895003862225) < 1e-10
    assert abs(res.value - 1.0457055034760026) < 1e-11


def test_maximize_clamps_to_action_interval():
    m = MarketModel.quadratic(0.0, 1.0, 1.0, action=(0.0, 3.0))
    res = maximize(m, 0.0, 20.0)
    assert res.argmax == 3.0
    assert res.at_boundary
    down = maximize(m, 0.0, -0.7)
    assert down.argmax == 0.0
    assert down.at_boundary


def test_maximize_rejects_bad_z():
    m = MarketModel.quadratic(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        maximize(m, 0.0, float("nan"))


def test_custom_families_go_through_search():
    m = MarketModel(x0=0.0, horizon=1.0, sigma=lambda t: 1.0,
                    drift=lambda t, a: 2.0 * np.sin(a) / 1.0,
                    cost=lambda t, a: a,
                    action_lo=0.0, action_hi=3.0)
    res = maximize(m, 0.0, 1.0)
    assert abs(res.argmax - 1.0471975511965976) < 1e-8


def test_stars_on_grid_matches_scalar_route():
    m = MarketModel.power(0.0, 1.0, 1.5, 3.0)
    zs = np.array([-0.5, 0.0, 0.3, 0.9, 4.0])
    lam_g, cost_g, arg_g = stars_on_grid(m, 0.0, zs)
    for i, z in enumerate(zs):
        lam_s, cost_s, arg_s = stars_on_grid(m, 0.0, float(z))
        assert abs(lam_g[i] - lam_s) < 1e-9
        assert abs(cost_g[i] - cost_s) < 1e-9
        assert abs(arg_g[i] - arg_s) < 1e-9


def test_stars_on_grid_pairs_each_time_with_its_row():
    custom = MarketModel(x0=0.0, horizon=2.0, sigma=lambda t: 1.0 + 0.25 * t,
                         drift=lambda t, a: a / (1.0 + 0.25 * t),
                         cost=lambda t, a: (1.0 + t) * a * a,
                         action_lo=0.0, action_hi=10.0)
    builtin = MarketModel.power(0.0, 2.0, 1.5, 3.0)
    ts = np.array([0.0, 0.5, 2.0])
    zs = np.array([[-0.5, 0.3, 0.9], [0.1, 1.0, 4.0], [0.2, 0.4, 0.6]])
    for m in (custom, builtin):
        lam, cost, arg = stars_on_grid(m, ts[:, None], zs)
        for i, t in enumerate(ts):
            for j, z in enumerate(zs[i]):
                got = (lam[i, j], cost[i, j], arg[i, j])
                assert got == tuple(stars_on_grid(m, float(t), float(z)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(z=st.floats(-3.0, 3.0), k=st.floats(0.2, 4.0), sig=st.floats(0.3, 3.0))
def test_hm_linear_argmax_is_clamped_ratio(z, k, sig):
    m = MarketModel.hm_linear(0.0, 1.0, sig, k, action=(0.0, 5.0))
    res = maximize(m, 0.5, z)
    expect = min(max(z / k, 0.0), 5.0)
    assert abs(res.argmax - expect) < 1e-9


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(z=st.floats(-2.0, 2.0))
def test_envelope_value_dominates_grid(z):
    # the reported max must beat every sampled candidate
    m = MarketModel.quadratic(0.0, 1.0, 1.3, action=(-1.0, 2.0))
    res = maximize(m, 0.0, z)
    a = np.linspace(-1.0, 2.0, 501)
    vals = 1.3 * a * z - a * a / 2.0
    assert res.value >= vals.max() - 1e-9
