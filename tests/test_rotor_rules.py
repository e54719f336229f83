"""The rotor layer's PCHIP equals scipy's bit for bit; its Simpson rule is exact where it must be.

``rotor`` carries its own monotone cubic interpolant, trapezoid rule and
running Simpson rule so that no rotor operation imports scipy.  The PCHIP
and the trapezoid rule follow scipy's ``PchipInterpolator`` (with ``PPoly``
evaluation) and ``cumulative_trapezoid`` op for op and are pinned to them
bit for bit.  The Simpson rule serves the evenly spaced grids of the
stationary density: it is checked for exactness on polynomials, against the
composite Simpson sum and against scipy's ``cumulative_simpson`` to roundoff.
scipy is the reference here only.
"""

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, cumulative_trapezoid
from scipy.interpolate import PchipInterpolator

from spinrad import DomainError
from spinrad.rotor import (
    _column_interpolant,
    _cumulative_simpson,
    _cumulative_trapezoid,
    _log_log_pchip,
    _moment_interpolants,
    _pchip,
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

    def test_one_piece_arrays(self):
        # every t of an array in one piece (the end pieces extrapolating): the
        # evaluator takes that piece's coefficients without a per-point search
        vals = two_column_vals(GRID)
        tiny = np.max(vals, axis=0) * 1e-290 + 1e-300
        x = np.log(GRID)
        mine = _log_log_pchip(GRID, vals)
        ref = PchipInterpolator(x, np.log(np.maximum(vals, tiny)))
        signed = GRID**3 - 0.25 * GRID
        lin, lin_ref = _pchip(GRID, signed), PchipInterpolator(GRID, signed)
        rng = np.random.default_rng(13)
        for nodes, a, b in ((x, mine, lambda t: ref(t).T), (GRID, lin, lin_ref)):
            span = nodes[-1] - nodes[0]
            bands = [(nodes[p], nodes[p + 1]) for p in range(len(nodes) - 1)]
            bands += [(nodes[0] - span, nodes[0]), (nodes[-1], nodes[-1] + span)]
            for lo, hi in bands:
                t = np.append(rng.uniform(lo, hi, 64), lo)
                same(a(t), b(t))

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


class TestCumulative:
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 33, 400, 401])
    def test_cumulative_simpson_exact_for_quadratics_and_even_node_cubics(self, n):
        x = np.linspace(0.0, 2.0, n)  # from 0, so the exact integrals carry no cancellation
        quad = _cumulative_simpson(1.0 + 2.0 * x + 3.0 * x**2, x)
        np.testing.assert_allclose(quad[1:], (x + x**2 + x**3)[1:], rtol=1e-14, atol=0)
        cubic = _cumulative_simpson(1.0 + x - 0.5 * x**2 + 2.0 * x**3, x)
        exact = x + x**2 / 2 - x**3 / 6 + x**4 / 2
        np.testing.assert_allclose(cubic[2::2], exact[2::2], rtol=1e-14, atol=0)
        assert quad[0] == cubic[0] == 0.0

    @pytest.mark.parametrize("n", [3, 5, 9, 33, 101])
    def test_cumulative_simpson_ends_at_the_composite_simpson_sum(self, n):
        x = np.linspace(0.2, 1.7, n)
        y = np.random.default_rng(n).uniform(0.5, 2.0, n)
        h = (x[-1] - x[0]) / (n - 1)
        ref = h / 3 * (y[0] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum() + y[-1])
        assert _cumulative_simpson(y, x)[-1] == pytest.approx(ref, rel=1e-15, abs=0)

    @pytest.mark.parametrize("n", [3, 4, 5, 18, 401])
    def test_cumulative_simpson_agrees_with_scipy_on_even_grids(self, n):
        # scipy weighs each pair of intervals by their spacing ratio, so the
        # roundoff of linspace's spacings (relative eps * x/h) enters its values
        x = np.linspace(0.5, 1.5, n)
        y = np.exp(-((x - 1.0) ** 2) * 50.0) + 0.5 * np.cos(x)
        np.testing.assert_allclose(_cumulative_simpson(y, x)[1:],
                                   cumulative_simpson(y, x=x, initial=0.0)[1:],
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_cumulative_simpson_short_grid_raises(self, n):
        with pytest.raises(DomainError):
            _cumulative_simpson(np.ones(n), np.linspace(0.0, 1.0, n))

    @pytest.mark.parametrize("n", [2, 3, 18, 401])
    def test_cumulative_trapezoid(self, n):
        x = uneven_grid(n, seed=n + 1)
        y = np.exp(-x) * x
        same(_cumulative_trapezoid(y, x), cumulative_trapezoid(y, x, initial=0.0))
