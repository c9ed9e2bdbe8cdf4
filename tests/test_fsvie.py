"""Volterra-field solver tests.

Grid-refinement oracles drive the admissibility checks: an admissible
exposure family must show a target residual that at least halves when the
step count doubles, while an inadmissible family's residual stays O(1).
A field is its terminal rows, so every oracle reads those: the Picard
fixed point for the march, and for the exponential agents' step loop two
exact solutions, rows proportional to the remaining discount (which decode
to one payment up to rounding) and rows with no exposure (which stay at
their initial values).
"""

import dataclasses
import math

import numpy as np
import pytest

from tic_contracts import (
    ConvergenceError,
    DiscountSpec,
    MarketModel,
    Preferences,
    default_grid,
    march,
    picard_solve,
    s_constant_family,
    separable_optimal_family,
    simulate,
    solve,
    target_constraint_residual,
)
from tic_contracts import dynamics, fsvie
from tic_contracts.closed_form import simpson
from tic_contracts.hamiltonian import stars_on_grid
from tic_contracts.model import pointwise

HYP = DiscountSpec.hyperbolic(1.0, 0.4)


def _cara(ga, gp, r0, disc, tag):
    return Preferences(agent_utility="exponential", principal_utility="exponential",
                       gamma_a=ga, gamma_p=gp, r0=r0, discount=disc, spec_tag=tag)


def _rn(r0, disc, tag):
    return Preferences(agent_utility="risk_neutral", principal_utility="risk_neutral",
                       gamma_a=0.0, gamma_p=0.0, r0=r0, discount=disc, spec_tag=tag)


def _zeros(s, t):
    return np.zeros(np.broadcast(np.asarray(s), np.asarray(t)).shape)


def _proportional_family(disc, horizon, scale, level):
    """Rows scaled by the remaining discount: y0(s), z(s, t)."""

    def y0(s):
        return level * np.asarray(disc.value_extended(horizon - np.asarray(s)))

    def zf(s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        return scale * np.asarray(disc.value_extended(horizon - s)) * np.ones_like(t)

    return y0, zf


def _plain(zf):
    """The family as a plain callable, so that march takes its step loop."""
    return lambda s, t: zf(s, t)


@pytest.fixture(scope="module")
def separable_setup():
    m = MarketModel.quadratic(0.1, 2.0, 1.0)
    p = _rn(0.05, HYP, "separable_rn")
    return m, p, solve(m, p, default_grid(2.0, 201))


# ---------------------------------------------------------------------------
# Picard iteration


def test_separable_generator_converges_in_one_extra_sweep(separable_setup):
    m, p, sol = separable_setup
    ens = simulate(m, sol.effort, 2, 300, seed=11)
    y0f, zf = separable_optimal_family(m, p, sol)
    field, diffs = picard_solve(m, p, y0f, zf, ens)
    for per_path in diffs:
        assert len(per_path) == 2
        # the drift never reads Y, so sweep two reproduces sweep one
        assert per_path[1] < 1e-14
    assert field.terminal.shape == (2, 301)


def test_zero_exposure_zero_generator_keeps_the_field_flat():
    m = MarketModel.quadratic(0.1, 2.0, 1.0)
    p = _rn(0.05, HYP, "separable_rn")
    ens = simulate(m, 0.6, 2, 120, seed=4)
    field, diffs = picard_solve(m, p, lambda s: 0.3 + 0.1 * np.asarray(s),
                                _zeros, ens)
    expected_rows = np.broadcast_to((0.3 + 0.1 * field.grid)[None, :], (2, 121))
    np.testing.assert_allclose(field.terminal, expected_rows, atol=0.0)
    assert all(len(d) == 1 for d in diffs)


def test_exponential_utility_generators_contract_geometrically():
    m = MarketModel.quadratic(0.1, 2.0, 1.0)
    ens = simulate(m, 0.6, 2, 200, seed=4)
    y0f, zf = _proportional_family(HYP, 2.0, 0.05, -0.5)
    for tag, prefs in (
        ("discounted_utility", _cara(1.0, 0.5, -0.8, HYP, "discounted_utility")),
        ("discounted_income", _cara(0.5, 0.5, -0.8, HYP, "discounted_income")),
    ):
        _, diffs = picard_solve(m, prefs, y0f, zf, ens)
        for per_path in diffs:
            assert len(per_path) >= 3, tag
            for j in range(1, len(per_path) - 1):
                if per_path[j] > 0.0:
                    assert per_path[j + 1] <= 0.75 * per_path[j], tag


def test_zero_start_is_outside_the_exponential_domain():
    # the hatted generator divides by gamma_a * Y, so rows starting at or
    # above zero are outside the exponential-utility regimes
    m = MarketModel.quadratic(0.1, 2.0, 1.0)
    p = _cara(1.0, 0.5, -0.8, HYP, "discounted_utility")
    ens = simulate(m, 0.6, 2, 60, seed=4)
    _, zf = _proportional_family(HYP, 2.0, 0.05, -0.5)
    for level in (0.0, 0.5):
        y0f, _ = _proportional_family(HYP, 2.0, 0.05, level)
        with pytest.raises(ValueError, match="range"):
            march(m, p, y0f, zf, ens)
        with pytest.raises(ValueError, match="range"):
            picard_solve(m, p, y0f, zf, ens)


def test_picard_validation_and_nonconvergence():
    m = MarketModel.quadratic(0.1, 2.0, 1.0)
    p = _cara(0.5, 0.5, -0.8, HYP, "discounted_income")
    ens = simulate(m, 0.6, 2, 60, seed=4)
    y0f, zf = _proportional_family(HYP, 2.0, 0.05, -0.5)
    with pytest.raises(ValueError, match="tol"):
        picard_solve(m, p, y0f, zf, ens, tol=0.0)
    for tol in (-1e-10, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            picard_solve(m, p, y0f, zf, ens, tol=tol)
    for max_iter in (0, -1):
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            picard_solve(m, p, y0f, zf, ens, max_iter=max_iter)
    for solver in (march, picard_solve):
        with pytest.raises(ValueError, match="no Volterra generator"):
            solver(m, _rn(0.05, HYP, "first_best_separable"),
                   lambda s: 0.0 * np.asarray(s), _zeros, ens)
    with pytest.raises(ConvergenceError, match="Picard") as info:
        picard_solve(m, p, y0f, zf, ens, tol=1e-30, max_iter=2)
    assert len(info.value.diagnostics) == 2


def _sin_of(s, t):
    return math.sin(s) + 0.2 * t  # math.sin of an array raises TypeError


def _bug_on_arrays(s, t):
    raise RuntimeError("bug in the array path")


REFUSAL = "custom callables must take numpy arrays"

# (fn, error): pointwise calls fn once on the arrays as given, unbroadcast;
# None means the result broadcasts, else (type, message) of what must be
# raised: fn's own error unchanged, or the refusal of a result that does
# not broadcast
POINTWISE_CASES = {
    "array": (lambda s, t: 0.2 * t + 0.1 * s, None),
    "constant": (lambda s, t: 0.5, None),
    "ignores_s": (lambda s, t: 0.2 * t, None),
    "runtime_error": (_bug_on_arrays, (RuntimeError, "array path")),
    "scalar_only": (_sin_of, (TypeError, "converted to Python scalars")),
    "flattens": (lambda s, t: np.ravel(s) + 0.2, (ValueError, REFUSAL)),
}


@pytest.mark.parametrize("case", sorted(POINTWISE_CASES))
def test_pointwise_calls_each_callable_once(case):
    fn, error = POINTWISE_CASES[case]
    calls = []

    def counted(s, t):
        calls.append((np.shape(s), np.shape(t)))
        return fn(s, t)

    s_col = np.array([[0.0], [0.5], [1.0]])
    t_row = np.array([0.25, 2.0])
    if error is None:
        got = pointwise(counted, s_col, t_row)
        assert got.shape == (3, 2)
        assert got.flags.writeable and got.flags.c_contiguous
        want = [[fn(float(s), float(t)) for t in t_row] for s in s_col[:, 0]]
        np.testing.assert_array_equal(got, want)
    else:
        with pytest.raises(error[0], match=error[1]) as info:
            pointwise(counted, s_col, t_row)
        # only a result that does not broadcast is refused; fn's errors are not rewrapped
        assert (REFUSAL in str(info.value)) == (case == "flattens")
    assert calls == [((3, 1), (2,))]


def test_solvers_refuse_families_that_do_not_take_arrays():
    m = MarketModel.quadratic(0.1, 2.0, 1.0)
    p = _rn(0.05, HYP, "separable_rn")
    ens = simulate(m, 0.6, 2, 40, seed=4)

    def y0_vec(s):
        return 0.3 + 0.1 * np.asarray(s)

    def z_vec(s, t):
        return 0.2 * np.asarray(t) + 0.1 * np.asarray(s)

    def y0_scalar(s):
        return 0.3 + 0.1 * float(s)  # float() of an array raises TypeError

    def z_scalar(s, t):
        return 0.2 * t + 0.1 * s if t >= 0.0 else 0.0  # truth of an array: ValueError

    def y0_grows(s):
        return np.append(s, 0.3)  # one value too many: does not broadcast

    def z_array_bug(s, t):
        if np.ndim(s):
            raise RuntimeError("bug in the array path")
        return z_vec(s, t)

    def y0_array_bug(s):
        if np.ndim(s):
            raise RuntimeError("bug in the array path")
        return y0_vec(s)

    def y0_full(s):
        return np.full(np.shape(s), 0.3)

    def z_full(s, t):
        return np.full(np.broadcast_shapes(np.shape(s), np.shape(t)), 0.2)

    for solver in (march, lambda *args: picard_solve(*args)[0]):
        want = solver(m, p, y0_full, z_full, ens)
        got = solver(m, p, lambda s: 0.3, lambda s, t: 0.2, ens)
        np.testing.assert_array_equal(got.terminal, want.terminal)
        with pytest.raises(TypeError, match="converted to Python scalars"):
            solver(m, p, y0_scalar, z_vec, ens)
        with pytest.raises(ValueError, match="truth value") as info:
            solver(m, p, y0_vec, z_scalar, ens)
        assert REFUSAL not in str(info.value)
        with pytest.raises(ValueError, match=REFUSAL):
            solver(m, p, y0_grows, z_vec, ens)
        with pytest.raises(RuntimeError, match="array path"):
            solver(m, p, y0_vec, z_array_bug, ens)
        with pytest.raises(RuntimeError, match="array path"):
            solver(m, p, y0_array_bug, z_vec, ens)


def test_initial_profile_blocks_match_single_rows(separable_setup):
    """The block route of the initial profile: 101 rows (100 steps) against
    the solver's 200 steps, so no lag table, give every row its own call's bits."""
    m, p, sol = separable_setup
    y0f, _ = separable_optimal_family(m, p, sol)
    grid = default_grid(2.0, 3 * dynamics.SHIFT_ROWS + 5)
    want = np.array([y0f(grid[i:i + 1])[0] for i in range(grid.size)])
    np.testing.assert_array_equal(y0f(grid), want)
    # y0(s) = f(T - s) / f(T) r0 - I(s), with the identity check's I(s)
    f = p.discount
    ratio = f.value(2.0 - grid) / float(f.value(2.0))
    np.testing.assert_array_equal(
        want, ratio * p.r0 - dynamics._shift_correction(m, p, sol, grid))


def _profile_grids(setup, steps, points, curve=HYP):
    """(model, prefs with the curve, solution on `points` solver points, the
    march grid of `steps` steps), from the separable fixture's problem."""
    m, p, _ = setup
    p = dataclasses.replace(p, discount=curve)
    return m, p, solve(m, p, default_grid(2.0, points)), default_grid(2.0, steps + 1)


def _single_rows(m, p, sol, s):
    """I at each s by its own call, the block route."""
    return np.array([dynamics._shift_correction(m, p, sol, s[i:i + 1])[0] for i in range(s.size)])


# exponential 10 over T = 2: lag tables from f(-2) = e^20 to f(2) = e^-20
STEEP = DiscountSpec.exponential(10.0)


@pytest.mark.parametrize("curve", [HYP, DiscountSpec.exponential(1.5)])
@pytest.mark.parametrize("steps, points", [(2000, 2001), (1000, 501), (3000, 501), (400, 201)])
def test_shift_correction_on_a_nesting_march_grid_is_one_lag_sum(separable_setup, monkeypatch,
                                                                 curve, steps, points):
    """The lag-table route: every solver point is a march point and the
    table spans at most LAG_RANGE (243 and 403 here), so I(s) on the whole
    march grid is one FFT lag sum.  It never reads the blocks, and each row
    agrees with its single call up to rounding of that row's own terms,
    int c(r) [f(r - s) + f(T - s) f(r) / f(T)] dr."""
    m, p, sol, s = _profile_grids(separable_setup, steps, points, curve)
    one_by_one = _single_rows(m, p, sol, s)
    f, T, sg = p.discount, m.horizon, sol.grid
    cost = pointwise(m.cost, sg, sol.effort_values)
    terms = np.array([simpson(cost * (f.value_extended(sg - v) + f.value(T - v) / f.value(T)
                                      * f.value(sg)), sg) for v in s])
    monkeypatch.setattr(dynamics, "simpson", None)  # the block route's quadrature
    got = fsvie._lag_correction(m, p, sol, fsvie.LagTable.of(p, s))
    assert np.all(np.abs(got - one_by_one) <= 1e-13 * terms)


@pytest.mark.parametrize("steps, points, curve", [(300, 201, HYP), (2999, 501, HYP),
                                                  (150, 201, HYP), (400, 201, STEEP),
                                                  (3000, 501, STEEP)])
def test_shift_correction_off_a_nesting_grid_keeps_the_blocks(separable_setup, steps, points,
                                                              curve):
    """The block route, bit for bit, from the march's table wherever some
    solver point is no march point (steps not a multiple of the solver's, or
    fewer of them), and on a nesting grid whose lag table spans more than
    LAG_RANGE (e^40 here)."""
    m, p, sol, s = _profile_grids(separable_setup, steps, points, curve)
    table = fsvie.LagTable.of(p, s)
    np.testing.assert_array_equal(fsvie._lag_correction(m, p, sol, table),
                                  _single_rows(m, p, sol, s))


def test_march_reproduces_the_picard_fixed_point(separable_setup):
    m, p, sol = separable_setup
    ens = simulate(m, sol.effort, 2, 300, seed=11)
    (y0f, zf), (y0c, zc) = separable_optimal_family(m, p, sol), s_constant_family(m, p, sol)
    cases = [
        (p, (y0f, _plain(zf))),
        (p, (y0c, _plain(zc))),
        (p, (y0f, zf)),
        (p, (y0c, zc)),
        (_cara(1.0, 0.5, -0.8, HYP, "discounted_utility"),
         _proportional_family(HYP, 2.0, 0.05, -0.5)),
        (_cara(0.5, 0.5, -0.8, HYP, "discounted_income"),
         _proportional_family(HYP, 2.0, 0.05, -0.5)),
    ]
    for prefs, (y0f, zf) in cases:
        marched = march(m, prefs, y0f, zf, ens)
        swept, _ = picard_solve(m, prefs, y0f, zf, ens)
        assert marched.spec_tag == prefs.spec_tag
        np.testing.assert_array_equal(marched.grid, swept.grid)
        if prefs.spec_tag == "separable_rn" and not isinstance(zf, fsvie.ProductFamily):
            # the drift does not read Y: the step loop sums the sweep's
            # increments in the sweep's order
            np.testing.assert_array_equal(marched.terminal, swept.terminal)
        np.testing.assert_allclose(marched.terminal, swept.terminal, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("shift", [0.0, 0.5, -10.0], ids=["solved", "positive", "negative"])
def test_risk_neutral_income_agent_marches_like_the_separable_regime(separable_setup, shift):
    # the agent's utility picks the generator, not the regime tag: a
    # risk-neutral income agent weighs its cost by f(t - s), as the
    # separable agent does, and its rows may take either sign
    m, p, sol = separable_setup
    income = dataclasses.replace(p, spec_tag="discounted_income")
    ens = simulate(m, sol.effort, 2, 300, seed=11)
    y0f, zf = separable_optimal_family(m, p, sol)

    def y0(s):
        return y0f(s) + shift

    if shift > 0.0:
        assert np.all(y0(ens.grid) > 0.0)
    solved = []
    for prefs in (p, income):
        swept, diffs = picard_solve(m, prefs, y0, zf, ens)
        marched = [march(m, prefs, y0, family, ens) for family in (zf, _plain(zf))]
        solved.append((marched + [swept], diffs))
    (want, want_diffs), (got, diffs) = solved
    for expected, field in zip(want, got):
        assert field.spec_tag == "discounted_income"
        np.testing.assert_array_equal(field.terminal, expected.terminal)
    assert diffs == want_diffs
    assert all(len(per_path) == 2 for per_path in diffs)


@pytest.mark.parametrize("disc", [
    DiscountSpec.exponential(0.3),
    HYP,
    DiscountSpec.quasi_hyperbolic(0.5, 0.6, 2.0),
], ids=["exponential", "hyperbolic", "quasi_hyperbolic"])
def test_lag_table_rows_match_direct_weights(disc):
    # the table holds f(m dt); a row evaluated directly holds f(t_j - s_i),
    # whose lags differ from m dt by rounding (at most 8 ulp seen; 1e-14
    # leaves a margin of about five)
    steps = 300
    grid = default_grid(2.0, steps + 1)
    table = fsvie.LagTable.of(_rn(0.05, disc, "separable_rn"), grid)
    assert table.curve == disc and table.values.shape == (2 * steps + 1,)
    weights = table.windows
    assert weights.shape == (steps, steps + 1)
    for j in range(steps):
        np.testing.assert_allclose(weights[j], disc.value_extended(grid[j] - grid),
                                   rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(table.rows, disc.value(2.0 - grid), rtol=1e-14, atol=0.0)
    ones = fsvie.LagTable.of(_cara(1.0, 0.5, -0.8, disc, "discounted_utility"), grid)
    assert ones.curve is None and np.all(ones.values == 1.0)


def _separable_oracle(m, p, y0f, zf, ens):
    """Terminal rows as y0 + sum over t of z dX - (lam z - f(t - s) cost) dt,
    every weight evaluated directly."""
    grid = ens.grid
    dt = float(grid[1] - grid[0])
    t = grid[:-1]
    z = pointwise(zf, grid[:, None], t[None, :])
    z_diag = pointwise(zf, grid, grid)
    lam, cost, _ = stars_on_grid(m, t, z_diag[:-1])
    w = p.discount.value_extended(t[None, :] - grid[:, None])
    y0 = pointwise(y0f, grid)
    terminal = []
    for dx in ens.increments:
        field = np.zeros((grid.size, grid.size))
        field[:, 1:] = np.cumsum(z * dx - (lam * z - w * cost) * dt, axis=1)
        field += y0[:, None]
        terminal.append(field[:, -1])
    return np.array(terminal)


def test_march_matches_a_directly_weighted_field(separable_setup):
    m, p, sol = separable_setup
    ens = simulate(m, sol.effort, 2, 300, seed=11)
    for y0f, zf in (separable_optimal_family(m, p, sol), s_constant_family(m, p, sol)):
        field = march(m, p, y0f, zf, ens)
        terminal = _separable_oracle(m, p, y0f, zf, ens)
        np.testing.assert_allclose(field.terminal, terminal, rtol=0.0, atol=1e-12)


def test_separable_march_does_its_work_once(separable_setup, monkeypatch):
    # 400 steps nest in the 201 solver points, so the initial profile is one
    # lag sum over the march's own table, and evaluates no curve of its own
    m, p, sol = separable_setup
    ens = simulate(m, sol.effort, 2, 400, seed=11)
    y0f, zf = separable_optimal_family(m, p, sol)
    calls = {"stars_on_grid": 0, "value_extended": 0, "lag_sum": 0}
    stars, extended, lag_sum = fsvie.stars_on_grid, DiscountSpec.value_extended, fsvie._lag_sum

    def counted_stars(*args):
        calls["stars_on_grid"] += 1
        return stars(*args)

    def counted_extended(self, t):
        calls["value_extended"] += 1
        return extended(self, t)

    def counted_lag_sum(*args):
        calls["lag_sum"] += 1
        return lag_sum(*args)

    monkeypatch.setattr(fsvie, "stars_on_grid", counted_stars)
    monkeypatch.setattr(DiscountSpec, "value_extended", counted_extended)
    monkeypatch.setattr(fsvie, "_lag_sum", counted_lag_sum)
    fields = []
    # one value_extended call, the march's LagTable.  The profile is one lag
    # sum over it; the product route sums the cost against it once more, for
    # the terminal rows, where the step loop reads the table row by row
    for family, lag_sums in ((zf, 2), (_plain(zf), 1)):
        fields.append(march(m, p, y0f, family, ens))
        assert calls == {"stars_on_grid": 1, "value_extended": 1, "lag_sum": lag_sums}
        calls.update(stars_on_grid=0, value_extended=0, lag_sum=0)
    monkeypatch.undo()
    np.testing.assert_array_equal(fields[0].terminal, march(m, p, y0f, zf, ens).terminal)
    np.testing.assert_array_equal(fields[1].terminal,
                                  march(m, p, y0f, _plain(zf), ens).terminal)


def test_exponential_march_reads_a_product_family_from_the_table(separable_setup, monkeypatch):
    # the step loop's exposures are a(s) b(t_j), both read on the table once:
    # the curve is evaluated on the table's 2N + 1 lags alone, where every
    # step evaluating the row factor took N (N + 1) points more
    m, p, sol = separable_setup
    income = _cara(0.5, 0.5, -0.8, HYP, "discounted_income")
    _, zf = separable_optimal_family(m, p, sol)
    ens = simulate(m, sol.effort, 2, 400, seed=11)
    plain = march(m, income, lambda s: -0.5 + 0.0 * s, _plain(zf), ens)
    raw, points = DiscountSpec._value_raw, []

    def counted(self, t):
        points.append(t.size)
        return raw(self, t)

    monkeypatch.setattr(DiscountSpec, "_value_raw", counted)
    field = march(m, income, lambda s: -0.5 + 0.0 * s, zf, ens)
    assert points == [2 * 400 + 1]
    np.testing.assert_allclose(field.terminal, plain.terminal, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("family", [separable_optimal_family, s_constant_family])
def test_family_table_forms_match_their_callable_forms(separable_setup, family):
    # on a march grid through every solver point (400 steps on 201 points)
    # the profile is one lag sum over the table against the callable's
    # blocks, which round the correction's terms, int c(r) [f(r - s) +
    # f(T - s) f(r) / f(T)] dr, up to about 1.8, where y0 is at most 0.46
    # (about 4 eps of the sum of both seen); the factors differ only by the
    # lags' rounding, (N - i) dt against T - s_i
    m, p, sol = separable_setup
    grid = default_grid(2.0, 401)
    y0f, zf = family(m, p, sol)
    table = fsvie.LagTable.of(p, grid)
    y0 = pointwise(y0f, grid)
    f, sg = p.discount, sol.grid
    cost = pointwise(m.cost, sg, sol.effort_values)
    terms = simpson(cost * (f.value_extended(sg[None, :] - grid[:, None])
                            + (f.value(2.0 - grid) / f.value(2.0))[:, None] * f.value(sg)), sg)
    bound = 16 * np.finfo(float).eps * (np.max(terms) + np.max(np.abs(y0)))
    assert np.max(np.abs(fsvie._on_grid(y0f, table) - y0)) <= bound
    for factor in (zf.s_factor, zf.t_factor):
        np.testing.assert_allclose(fsvie._on_grid(factor, table), pointwise(factor, grid),
                                   rtol=1e-14, atol=0.0)
    # a table of another curve, of ones, or over another horizon lends the
    # family nothing: every form is its callable's, bit for bit
    other_curve = dataclasses.replace(p, discount=DiscountSpec.exponential(0.3))
    ones = _cara(1.0, 0.5, -0.8, HYP, "discounted_utility")
    for prefs, other in ((other_curve, grid), (ones, grid), (p, default_grid(1.5, 401))):
        table = fsvie.LagTable.of(prefs, other)
        for fn in (y0f, zf.s_factor, zf.t_factor):
            np.testing.assert_array_equal(fsvie._on_grid(fn, table), pointwise(fn, other))
    # so a march under another curve gives the bits of the family's plain callables
    ens = simulate(m, sol.effort, 2, 400, seed=11)
    plain = fsvie.ProductFamily(lambda s: zf.s_factor(s), lambda t: zf.t_factor(t))
    np.testing.assert_array_equal(march(m, other_curve, y0f, zf, ens).terminal,
                                  march(m, other_curve, lambda s: y0f(s), plain, ens).terminal)


@pytest.mark.parametrize("curve", [HYP, DiscountSpec.exponential(10.0)])
@pytest.mark.parametrize("family", [separable_optimal_family, s_constant_family])
@pytest.mark.parametrize("steps", [1, 300, 3000])
def test_fft_lag_sum_is_the_direct_convolution(separable_setup, curve, family, steps):
    # the product route's cost against the lag table, on each shipped
    # family's diagonal best response: every sum equals the direct one up to
    # rounding of its own size, by FFT where the table spans at most
    # LAG_RANGE (243 for HYP) and directly where it spans e^40
    m, p, _ = separable_setup
    p = dataclasses.replace(p, discount=curve)
    sol = solve(m, p, default_grid(2.0, 201))
    grid = default_grid(2.0, steps + 1)
    _, zf = family(m, p, sol)
    _, cost = fsvie._diagonal_stars(m, p, grid[:-1], pointwise(zf, grid, grid)[:-1], None)
    table = fsvie.LagTable.of(p, grid).values[1:]  # the march's lags, N - 1 down to -N
    want = np.convolve(table, cost, "valid")
    np.testing.assert_allclose(fsvie._lag_sum(table, cost), want, rtol=1e-13, atol=0.0)


def test_batched_best_response_on_custom_callables(separable_setup):
    m, p, sol = separable_setup
    custom = dataclasses.replace(m, families=None)
    ens = simulate(m, sol.effort, 2, 300, seed=11)
    y0f, zf = separable_optimal_family(m, p, sol)
    grid = ens.grid
    z_diag = pointwise(zf, grid, grid)
    batched = stars_on_grid(custom, grid[:-1], z_diag[:-1])
    for j in (0, 1, 150, 299):
        for got, want in zip(batched, stars_on_grid(custom, grid[j], z_diag[j])):
            np.testing.assert_array_equal(got[j], want)
    marched = march(custom, p, y0f, _plain(zf), ens)
    swept, _ = picard_solve(custom, p, y0f, zf, ens)
    np.testing.assert_array_equal(marched.terminal, swept.terminal)
    summed = march(custom, p, y0f, zf, ens)
    np.testing.assert_allclose(summed.terminal, swept.terminal, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("steps", [1, 2, 300])
def test_product_route_matches_the_tiled_march(separable_setup, steps):
    m, p, sol = separable_setup
    ens = simulate(m, sol.effort, 3, steps, seed=11)
    for y0f, zf in (separable_optimal_family(m, p, sol), s_constant_family(m, p, sol)):
        assert isinstance(zf, fsvie.ProductFamily)
        summed = march(m, p, y0f, zf, ens)
        tiled = march(m, p, y0f, _plain(zf), ens)
        np.testing.assert_array_equal(summed.grid, tiled.grid)
        np.testing.assert_allclose(summed.terminal, tiled.terminal, rtol=0.0, atol=1e-12)


def test_product_families_keep_the_closure_formulas(separable_setup):
    m, p, sol = separable_setup
    f, T = p.discount, m.horizon

    def optimal(s, t):
        return np.asarray(f.value(T - np.asarray(s, dtype=float))) * sol.loading(t)

    def s_constant(s, t):
        t = np.asarray(t, dtype=float)
        return sol.loading(t) * np.asarray(f.value(T - t)) \
            * np.ones_like(np.asarray(s, dtype=float))

    s_col = np.linspace(0.0, T, 37)[:, None]
    t_row = np.linspace(0.0, T, 53)
    for (_, zf), want in ((separable_optimal_family(m, p, sol), optimal),
                          (s_constant_family(m, p, sol), s_constant)):
        got = zf(s_col, t_row)
        assert got.shape == (37, 53)
        np.testing.assert_array_equal(got, want(s_col, t_row))
        np.testing.assert_array_equal(zf(t_row, t_row), want(t_row, t_row))
        assert zf(0.3, 1.7) == want(0.3, 1.7)


# ---------------------------------------------------------------------------
# stochastic target constraint


def test_optimal_family_residual_halves_under_refinement(separable_setup):
    m, p, sol = separable_setup
    y0f, zf = separable_optimal_family(m, p, sol)
    res = {}
    for steps in (300, 600):
        ens = simulate(m, sol.effort, 2, steps, seed=11)
        field, _ = picard_solve(m, p, y0f, zf, ens)
        res[steps] = target_constraint_residual(field, p)
        assert np.all(res[steps] < 0.02)
    assert np.all(res[600] <= 0.6 * res[300])


def test_constant_in_s_family_violates_the_constraint(separable_setup):
    m, p, sol = separable_setup
    ens = simulate(m, sol.effort, 2, 300, seed=11)
    y0c, zc = s_constant_family(m, p, sol)
    field, _ = picard_solve(m, p, y0c, zc, ens)
    bad = target_constraint_residual(field, p)
    y0f, zf = separable_optimal_family(m, p, sol)
    good_field, _ = picard_solve(m, p, y0f, zf, ens)
    good = target_constraint_residual(good_field, p)
    assert np.min(bad) > 10.0 * np.max(good)


@pytest.mark.parametrize("gamma", [0.3, 10.0])
@pytest.mark.parametrize("steps", [300, 400])
def test_exponential_discount_family_is_exactly_admissible(gamma, steps):
    # exact up to rounding of the payment (about 3 and 2.4e7 here), also on
    # a steep curve whose lag tables span e^(2 gamma T) = e^40 and whose rows
    # at small s are divided by f(T) = e^-20; 400 steps nest in the 201
    # solver points, 300 do not
    m = MarketModel.quadratic(0.1, 2.0, 1.0)
    p = _rn(0.05, DiscountSpec.exponential(gamma), "separable_rn")
    sol = solve(m, p, default_grid(2.0, 201))
    ens = simulate(m, sol.effort, 2, steps, seed=11)
    y0f, zf = separable_optimal_family(m, p, sol)
    for field in (march(m, p, y0f, zf, ens), picard_solve(m, p, y0f, zf, ens)[0]):
        paid = p.decode(p.discount.value(2.0 - field.grid), field.terminal)
        assert np.all(target_constraint_residual(field, p) < 1e-13 * np.max(np.abs(paid)))


def test_target_decode_for_the_utility_regimes():
    # rows proportional to the remaining discount decode to the same
    # terminal certainty equivalent for every s: an exact solution the
    # exponential agents' step loop is checked against
    m = MarketModel.quadratic(0.1, 2.0, 1.0)
    y0f, zf = _proportional_family(HYP, 2.0, 0.05, -0.5)
    regimes = (_cara(1.0, 0.5, -0.8, HYP, "discounted_utility"),
               _cara(0.5, 0.5, -0.8, HYP, "discounted_income"))
    for steps in (200, 2000):
        ens = simulate(m, 0.6, 2, steps, seed=4)
        for prefs in regimes:
            for field in (march(m, prefs, y0f, zf, ens),
                          picard_solve(m, prefs, y0f, zf, ens)[0]):
                res = target_constraint_residual(field, prefs)
                if prefs.spec_tag == "discounted_utility":
                    assert np.all(res < 1e-12)
                else:
                    # the income decode divides by the remaining discount
                    # after inverting the utility, which the proportional
                    # rows do not satisfy exactly; the residual just has to
                    # be finite here
                    assert np.all(np.isfinite(res))


def test_zero_exposure_rows_keep_their_initial_values():
    # with no exposure the agent's optimum costs nothing, so every row
    # keeps its initial value: the terminal rows solve the ODE
    # y(s) = c f(T - s) on both solvers
    m = MarketModel.quadratic(0.1, 2.0, 1.0)
    p = _cara(1.0, 0.5, -0.8, HYP, "discounted_utility")
    ens = simulate(m, 0.6, 2, 200, seed=4)
    y0f, _ = _proportional_family(HYP, 2.0, 0.0, -0.5)
    for field in (march(m, p, y0f, _zeros, ens), picard_solve(m, p, y0f, _zeros, ens)[0]):
        ref = -0.5 * np.asarray(HYP.value(2.0 - field.grid))
        assert float(np.max(np.abs(field.terminal - ref[None, :]))) < 1e-8


def test_residual_refuses_a_field_of_another_regime():
    m = MarketModel.quadratic(0.1, 2.0, 1.0)
    ens = simulate(m, 0.6, 2, 200, seed=4)
    y0f, zf = _proportional_family(HYP, 2.0, 0.05, -0.5)
    utility = _cara(1.0, 0.5, -0.8, HYP, "discounted_utility")
    income = _cara(1.0, 0.5, -0.8, HYP, "discounted_income")
    field, _ = picard_solve(m, utility, y0f, zf, ens)
    assert np.all(target_constraint_residual(field, utility) < 1e-12)
    with pytest.raises(ValueError, match="disagree on the spec tag"):
        target_constraint_residual(field, income)
