"""Composite Simpson rule: exactness, bitwise agreement with
scipy.integrate.simpson (when scipy is installed), its weights in O(n),
and a command-line import that loads no scipy."""

import os
import subprocess
import sys

import numpy as np
import pytest

import tic_contracts
from tic_contracts.closed_form import simpson, simpson_weights


def _nonuniform(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.uniform(0.05, 1.0, n)) - 0.4


@pytest.mark.parametrize("n", [3, 5, 11, 201])
def test_exact_for_cubics_on_uniform_odd_grids(n):
    x = np.linspace(-1.0, 2.0, n)
    y = 2.0 * x ** 3 - x ** 2 + 0.5 * x - 3.0
    exact = 0.5 * (2.0 ** 4 - 1.0) - (2.0 ** 3 + 1.0) / 3.0 + 0.25 * (4.0 - 1.0) - 9.0
    assert simpson(y, x) == pytest.approx(exact, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("n", [3, 4, 6, 7, 50, 51])
def test_exact_for_quadratics_on_nonuniform_grids_and_even_counts(n):
    for x in (_nonuniform(n), np.linspace(0.0, 3.0, n)):
        y = 1.5 * x ** 2 - 2.0 * x + 0.25
        a, b = x[0], x[-1]
        exact = 0.5 * (b ** 3 - a ** 3) - (b ** 2 - a ** 2) + 0.25 * (b - a)
        assert simpson(y, x) == pytest.approx(exact, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 500, 501])
@pytest.mark.parametrize("span", [1e200, 1e300, 1.7e308])
def test_huge_spans_do_not_overflow(n, span):
    # the weights multiply two spacings, which overflow past about 1e154
    x = np.linspace(0.0, span, n)
    u = x / span
    assert simpson(np.ones(n), x) / span == pytest.approx(1.0, rel=1e-12)
    assert simpson(u, x) / span == pytest.approx(0.5, rel=1e-12)
    if n > 2:
        assert simpson(u ** 2, x) / span == pytest.approx(1.0 / 3.0, rel=1e-12)


@pytest.mark.parametrize("n", [3, 4, 151, 2000, 2001])
def test_scaling_the_points_by_a_power_of_two_scales_the_result_exactly(n):
    rng = np.random.default_rng(n)
    y = rng.normal(size=n)
    for x in (np.linspace(0.0, 2.0, n), _nonuniform(n, seed=n)):
        for k in (-60, 60):
            assert simpson(y, np.ldexp(x, k)) == np.ldexp(simpson(y, x), k)


def test_simpson_weights_are_simpson_on_unit_rows():
    # O(n) weights; the identity matrix is the O(n^2) way to the same numbers
    for n in (3, 4, 5, 8, 201, 500):
        for x in (np.linspace(0.0, 2.0, n), _nonuniform(n, seed=n), np.linspace(0.0, 1e300, n)):
            np.testing.assert_allclose(simpson_weights(x), simpson(np.eye(n), x),
                                       rtol=1e-15, atol=0.0)


def test_two_points_give_the_trapezoid():
    assert simpson(np.array([1.0, 3.0]), np.array([0.5, 2.5])) == 4.0


def test_integrates_along_an_axis():
    x = _nonuniform(8)
    rows = np.vstack([x ** 2, 3.0 * x, np.ones_like(x)])
    got = simpson(rows, x)
    assert got.shape == (3,)
    for i in range(3):
        assert got[i] == simpson(rows[i], x)


def test_rejects_mismatched_points():
    with pytest.raises(ValueError, match="one point per sample"):
        simpson(np.ones(5), np.linspace(0.0, 1.0, 4))
    with pytest.raises(ValueError, match="one point per sample"):
        simpson(np.ones((4, 5)), np.linspace(0.0, 1.0, 4))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 151, 256, 257, 2000, 2001])
@pytest.mark.parametrize("spacing", ["uniform", "nonuniform"])
def test_bitwise_equal_to_the_reference_rule(n, spacing):
    integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(n)
    x = np.linspace(0.0, 2.0, n) if spacing == "uniform" else _nonuniform(n, seed=n)
    y = rng.normal(size=n)
    got, want = simpson(y, x), integrate.simpson(y, x=x)
    assert np.shape(got) == np.shape(want)
    assert got == want
    block = rng.normal(size=(4, n))
    got, want = simpson(block, x), integrate.simpson(block, x=x, axis=1)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def test_cli_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(tic_contracts.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, tic_contracts.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"
