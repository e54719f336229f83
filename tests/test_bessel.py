"""Special-function layer: series/asymptotic oracles, Wronskian, recurrences."""

import math

import numpy as np
import pytest

from spinrad import DomainError
from spinrad.bessel import (
    bessel_j_and_deriv,
    hankel,
    hankel_and_deriv,
    wronskian_h1h2,
)

EULER_GAMMA = 0.57721566490153286060651209008240243


def j_series(m, x, terms=120):
    """Independent power-series oracle for J_m.

    Summed in 40-digit arithmetic: the alternating series loses ~2x/ln(10)
    digits before converging, which float64 cannot absorb beyond x ~ 15.
    """
    import mpmath as mp

    with mp.workdps(40):
        half = mp.mpf(x) / 2
        s = mp.mpf(0)
        for k in range(terms):
            s += (-1) ** k * half ** (m + 2 * k) / (
                mp.factorial(k) * mp.factorial(k + m)
            )
        return float(s)


def y0_series(x, terms=80):
    """Independent series oracle for Y_0."""
    s, H = 0.0, 0.0
    for k in range(1, terms):
        H += 1.0 / k
        s += (-1) ** (k + 1) * H * (x * x / 4.0) ** k / math.factorial(k) ** 2
    return (2.0 / math.pi) * ((math.log(x / 2.0) + EULER_GAMMA) * j_series(0, x) + s)


class TestBesselJ:
    def test_at_origin(self):
        assert bessel_j_and_deriv(0, 0)[0] == 1.0
        assert bessel_j_and_deriv(1, 0)[0] == 0.0
        assert bessel_j_and_deriv(7, 0)[0] == 0.0

    def test_series_oracle_j1_of_2(self):
        # frozen from the power-series summation: J_1(2) = 0.5767248077568736
        assert bessel_j_and_deriv(1, 2.0)[0] == pytest.approx(0.5767248077568736, rel=1e-12)
        assert j_series(1, 2.0) == pytest.approx(0.5767248077568736, rel=1e-12)

    @pytest.mark.parametrize("m", [0, 1, 2, 5, 11])
    @pytest.mark.parametrize("x", [1e-3, 0.1, 1.0, 7.5, 30.0])
    def test_series_cross_validation(self, m, x):
        J = complex(bessel_j_and_deriv(m, x)[0])
        assert J.real == pytest.approx(j_series(m, x), rel=1e-10, abs=1e-280)

    def test_negative_order_reflection(self):
        for m in range(1, 6):
            J_minus, J_plus = bessel_j_and_deriv(-m, 1.7)[0], bessel_j_and_deriv(m, 1.7)[0]
            assert J_minus == pytest.approx((-1) ** m * J_plus, rel=1e-14)

    def test_complex_argument(self):
        z = 1.3 + 0.4j
        # J_0(z)^2 + 2 sum_k J_k(z)^2 = 1 holds for complex arguments too
        J = [bessel_j_and_deriv(k, z)[0] for k in range(25)]
        total = J[0] ** 2 + 2 * sum(j**2 for j in J[1:])
        assert total == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_order_cap(self):
        with pytest.raises(DomainError):
            bessel_j_and_deriv(201, 1.0)
        with pytest.raises(DomainError):
            bessel_j_and_deriv(2, 1e5)


class TestHankel:
    def test_conjugation_symmetry(self):
        for m in (0, 1, 3, 10, 25):
            for x in (0.05, 1.0, 12.0):
                h1 = hankel(1, m, x)
                h2 = hankel(2, m, x)
                assert h2 == pytest.approx(h1.conjugate(), rel=1e-14)

    def test_h1_is_j_plus_iy_series_oracle(self):
        val = hankel(1, 0, 1.0)
        assert val.real == pytest.approx(j_series(0, 1.0), rel=1e-12)
        assert val.imag == pytest.approx(y0_series(1.0), rel=1e-12)

    def test_large_argument_asymptote(self):
        # two-term asymptotic series sqrt(2/pi x) e^{i(x - pi/4)} (1 - i/(8x))
        x = 50.0
        lead = math.sqrt(2.0 / (math.pi * x)) * np.exp(1j * (x - math.pi / 4.0))
        asym = lead * (1.0 - 1j / (8.0 * x))
        assert abs(hankel(1, 0, x) - asym) / abs(asym) < 1e-3

    def test_zero_argument_raises(self):
        with pytest.raises(DomainError):
            hankel(1, 0, 0.0)

    def test_overflow_is_domain_error_not_nan(self):
        with pytest.raises(DomainError):
            hankel(1, 200, 0.01)

    def test_bad_kind(self):
        with pytest.raises(DomainError):
            hankel(3, 0, 1.0)


class TestWronskian:
    @pytest.mark.parametrize("m", list(range(0, 51, 5)))
    @pytest.mark.parametrize("x", [0.01, 0.1, 1.0, 10.0, 100.0])
    def test_identity_on_grid(self, m, x):
        expected = -4j / (math.pi * x)
        assert abs(wronskian_h1h2(m, x) - expected) / abs(expected) < 1e-10

    def test_order_independence(self):
        assert wronskian_h1h2(0, 1.0) == pytest.approx(-4j / math.pi, rel=1e-12)
        assert wronskian_h1h2(5, 10.0) == pytest.approx(-4j / (10 * math.pi), rel=1e-12)
        assert wronskian_h1h2(1, 0.01) == pytest.approx(-400j / math.pi, rel=1e-12)

    def test_positive_argument_required(self):
        with pytest.raises(DomainError):
            wronskian_h1h2(0, -1.0)


class TestRecurrences:
    @pytest.mark.parametrize("x", [0.01, 0.1, 1.0, 10.0, 100.0])
    def test_three_term_recurrence_j_downward(self, x):
        # downward is the stable direction for J: J_{m-1} = (2m/x) J_m - J_{m+1}
        for m in range(1, 30):
            direct, J, J_next = (bessel_j_and_deriv(k, x)[0] for k in (m - 1, m, m + 1))
            rec = (2 * m / x) * J - J_next
            if abs(direct) > 1e-250:
                assert abs(rec - direct) / abs(direct) < 1e-8

    @pytest.mark.parametrize("x", [0.01, 0.1, 1.0, 10.0, 100.0])
    def test_three_term_recurrence_h_upward(self, x):
        # upward is the stable direction for H (the Y part grows with order)
        for m in range(1, 30):
            direct = hankel(1, m + 1, x)
            rec = (2 * m / x) * hankel(1, m, x) - hankel(1, m - 1, x)
            assert abs(rec - direct) / abs(direct) < 1e-8

    def test_derivative_consistency(self):
        # C'_m from the recurrence equals a high-order finite difference
        for fn, dfn in ((lambda m, z: bessel_j_and_deriv(m, z)[0],
                         lambda m, z: bessel_j_and_deriv(m, z)[1]),
                        (lambda m, z: hankel(1, m, z), lambda m, z: hankel_and_deriv(1, m, z)[1])):
            for m in (0, 1, 4):
                z = 2.3
                h = 1e-5
                fd = (
                    -fn(m, z + 2 * h) + 8 * fn(m, z + h) - 8 * fn(m, z - h) + fn(m, z - 2 * h)
                ) / (12 * h)
                assert dfn(m, z) == pytest.approx(fd, rel=1e-9)

    def test_derivative_at_origin(self):
        assert bessel_j_and_deriv(0, 0)[1] == 0.0
        assert bessel_j_and_deriv(1, 0)[1] == 0.5
        assert bessel_j_and_deriv(3, 0)[1] == 0.0
