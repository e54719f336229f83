"""The rotor layer's PCHIP and Simpson rules equal scipy's, bit for bit.

``rotor`` carries its own monotone cubic interpolant and Simpson rules so
that no rotor operation imports scipy; they follow scipy's
``PchipInterpolator`` (with ``PPoly`` evaluation), ``simpson``,
``cumulative_simpson`` and ``cumulative_trapezoid`` op for op.  scipy is the
reference here only.
"""

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, cumulative_trapezoid, simpson
from scipy.interpolate import PchipInterpolator

from spinrad import DomainError
from spinrad.rotor import (
    _column_interpolant,
    _cumulative_simpson,
    _cumulative_trapezoid,
    _log_log_pchip,
    _moment_interpolants,
    _pchip,
    _simpson,
)

NAN = float("nan")
GRID = np.geomspace(2e-4, 2.0, 33)  # a tabulation grid: >= 17 nodes, log-spaced


def same(a, b):
    """Equal bytes, NaN payloads and signed zeros included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def points(x):
    """Every breakpoint (the last one too), points inside and both extrapolations."""
    rng = np.random.default_rng(11)
    span = x[-1] - x[0]
    return np.concatenate([
        x,
        rng.uniform(x[0], x[-1], 400),
        rng.uniform(x[0] - 0.5 * span, x[0], 20),
        rng.uniform(x[-1], x[-1] + 0.5 * span, 20),
    ])


def two_column_vals(grid):
    return np.column_stack([grid**5 + 0.3 * grid**3, 2.0 * grid**5 / (1.0 + grid)])


class TestPchip:
    def test_two_column_log_log(self):
        vals = two_column_vals(GRID)
        mine = _log_log_pchip(GRID, vals)
        tiny = np.max(vals, axis=0) * 1e-290 + 1e-300
        ref = PchipInterpolator(np.log(GRID), np.log(np.maximum(vals, tiny)))
        t = points(np.log(GRID))
        same(mine(t), ref(t).T)

    @pytest.mark.parametrize("kind", ["rising", "bumpy", "flat-runs"])
    def test_single_column(self, kind):
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(-2.0, 3.0, 23))  # uneven nodes
        y = {"rising": np.cumsum(rng.uniform(0.0, 1.0, 23)),
             "bumpy": rng.standard_normal(23),
             "flat-runs": np.repeat(rng.standard_normal(8), 3)[:23]}[kind]
        t = points(x)
        same(_pchip(x, y)(t), PchipInterpolator(x, y)(t))

    def test_scalar_point_gives_a_0d_array(self):
        x = np.linspace(0.0, 1.0, 5)
        y = np.array([0.0, 1.0, 0.5, 2.0, 2.5])
        for t in (0.0, 0.25, 0.6, 1.0, 1.7):
            got = _pchip(x, y)(t)
            assert got.shape == ()
            same(got, PchipInterpolator(x, y)(t))

    def test_sign_changing_linear_column(self):
        vals = GRID**3 - 0.25 * GRID  # changes sign: stays in linear space
        lin = _column_interpolant(GRID, vals)
        ref = PchipInterpolator(GRID, vals)
        t = points(GRID)
        same(lin(t), ref(np.clip(t, GRID[0], GRID[-1])))

    def test_nan_in_nan_out_on_the_signed_column(self):
        lin = _column_interpolant(GRID, GRID**3 - 0.25 * GRID)
        out = lin(np.array([0.3, NAN, 1.1]))
        assert np.isnan(out[1]) and np.isfinite(out[[0, 2]]).all()
        same(out, PchipInterpolator(GRID, GRID**3 - 0.25 * GRID)(np.array([0.3, NAN, 1.1])))

    def test_moment_interpolants_equal_exp_of_scipy_pchip(self):
        vals = two_column_vals(GRID)
        moments = _moment_interpolants(GRID, vals)
        tiny = np.max(vals, axis=0) * 1e-290 + 1e-300
        ref = PchipInterpolator(np.log(GRID), np.log(np.maximum(vals, tiny)))
        w = np.exp(points(np.log(GRID)))
        pair = moments(w)
        assert pair.shape == (2, len(w)) and pair.flags.c_contiguous
        same(pair, np.exp(ref(np.log(w))).T)
        assert moments(0.7) == np.exp(ref(np.log(0.7))).tolist()

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_too_few_nodes(self, n):
        with pytest.raises(DomainError):
            _pchip(np.arange(float(n)), np.ones(n))

    def test_non_finite_values(self):
        with pytest.raises(DomainError):
            _pchip(np.arange(4.0), np.array([0.0, 1.0, NAN, 2.0]))


def uneven_grid(n, seed=5):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.uniform(0.2, 1.8, n))


class TestSimpson:
    @pytest.mark.parametrize("n", [3, 5, 17, 401])
    def test_odd_uneven_grid(self, n):
        x = uneven_grid(n)
        y = np.sin(x) * np.exp(-0.1 * x)
        same(_simpson(y, x), simpson(y, x=x))

    def test_even_spacing(self):
        x = np.linspace(0.3, 2.0, 4001)
        y = np.exp(-((x - 1.0) ** 2) * 50.0)
        same(_simpson(y, x), simpson(y, x=x))
        same(_simpson(y[::2], x[::2]), simpson(y[::2], x=x[::2]))

    @pytest.mark.parametrize("n", [0, 1, 2, 4, 10])
    def test_even_or_short_grid_raises(self, n):
        x = np.linspace(0.0, 1.0, n)
        with pytest.raises(DomainError):
            _simpson(np.ones(n), x)

    def test_non_increasing_grid_raises(self):
        with pytest.raises(DomainError):
            _simpson(np.ones(3), np.array([0.0, 1.0, 1.0]))


class TestCumulative:
    @pytest.mark.parametrize("n", [3, 4, 5, 18, 401])
    def test_cumulative_simpson_uneven(self, n):
        x = uneven_grid(n, seed=n)
        y = np.cos(x) + 0.1 * x**2
        same(_cumulative_simpson(y, x), cumulative_simpson(y, x=x, initial=0.0))

    def test_cumulative_simpson_even_spacing(self):
        x = np.linspace(0.5, 1.5, 4001)
        y = (x**5 - 1.0) / x**5
        same(_cumulative_simpson(y, x), cumulative_simpson(y, x=x, initial=0.0))

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_cumulative_simpson_short_grid_raises(self, n):
        with pytest.raises(DomainError):
            _cumulative_simpson(np.ones(n), np.linspace(0.0, 1.0, n))

    @pytest.mark.parametrize("n", [2, 3, 18, 401])
    def test_cumulative_trapezoid(self, n):
        x = uneven_grid(n, seed=n + 1)
        y = np.exp(-x) * x
        same(_cumulative_trapezoid(y, x), cumulative_trapezoid(y, x, initial=0.0))
