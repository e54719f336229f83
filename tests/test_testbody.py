"""Two-body transfer: translation identity, torque/force closed forms, falloff."""

import math

import numpy as np
import pytest

from spinrad import (
    ConstantEpsilon,
    DomainError,
    Drude,
    TwoBodyConfig,
    tangential_force_3d,
    torque_on_test_2d,
    torque_on_test_3d,
    translation_2d,
)
from spinrad.bessel import bessel_j, hankel
from spinrad.testbody import ProximityWarning, torque_vs_distance


def drude_pair(d, s1=1.0, s2=1.0, R=0.01, a=0.01):
    return TwoBodyConfig(d, Drude(s1), R, Drude(s2), a)


class TestTranslation2D:
    def test_diagonal_coefficient(self):
        assert translation_2d(3, 3, 1.2, 5.0) == hankel(1, 0, 6.0)

    def test_reconstruction_identity(self):
        # H^(1)_m(w r1) e^{i m phi1} = sum_n H^(1)_{n-m}(w d) J_n(w r2) e^{i n phi2}
        # with the wave origin at (+d, 0) from the expansion origin, r2 < d
        w, d, m = 1.3, 5.0, 1
        rng = np.random.default_rng(3)
        for _ in range(6):
            r2 = rng.uniform(0.2, 0.8) * d
            phi2 = rng.uniform(0.0, 2 * math.pi)
            # point relative to the wave origin, which sits at (+d, 0) in the
            # expansion frame: r1 e^{i phi1} = -d + r2 e^{i phi2}
            x = -d + r2 * math.cos(phi2)
            y = r2 * math.sin(phi2)
            r1 = math.hypot(x, y)
            phi1 = math.atan2(y, x)
            lhs = hankel(1, m, w * r1) * np.exp(1j * m * phi1)
            rhs = sum(
                translation_2d(n, m, w, d) * bessel_j(n, w * r2) * np.exp(1j * n * phi2)
                for n in range(-40, 41)
            )
            assert abs(lhs - rhs) < 1e-6

    def test_large_distance_magnitude(self):
        w = 1.0
        for d in (200.0, 800.0):
            coeff = translation_2d(1, 1, w, d)
            assert abs(coeff) == pytest.approx(math.sqrt(2 / (math.pi * w * d)), rel=2e-3)


class TestTorque2D:
    def test_lossless_test_body_silent(self):
        cfg = TwoBodyConfig(5.0, Drude(1.0), 0.01, ConstantEpsilon(4.0), 0.01)
        assert torque_on_test_2d(cfg, 1.0) == 0.0

    def test_static_source_silent(self):
        assert torque_on_test_2d(drude_pair(5.0), 0.0) == 0.0

    def test_positive_for_drude_pair(self):
        assert torque_on_test_2d(drude_pair(5.0), 1.0) > 0.0

    def test_inverse_distance_slope(self):
        ds = np.geomspace(50.0, 500.0, 7)
        Ms = torque_vs_distance(drude_pair(50.0), 1.0, ds, mode="2d")
        slope = np.polyfit(np.log(ds), np.log(Ms), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.02)

    def test_thermal_source_limits(self):
        cfg = drude_pair(5.0)
        cold = torque_on_test_2d(cfg, 1.0)
        tepid = torque_on_test_2d(cfg, 1.0, T=1e-3)
        warm = torque_on_test_2d(cfg, 1.0, T=0.5)
        assert tepid == pytest.approx(cold, rel=1e-2)  # T -> 0 recovers the window
        assert warm > 0.0 and warm != cold
        # a hot but non-rotating source exerts no net torque: the +-1
        # channels balance exactly
        assert abs(torque_on_test_2d(cfg, 0.0, T=0.5)) < 1e-12 * warm


class TestTorque3D:
    def test_lossless_test_body_silent(self):
        cfg = TwoBodyConfig(5.0, Drude(1.0), 0.01, ConstantEpsilon(4.0), 0.01)
        assert torque_on_test_3d(cfg, 1.0) == 0.0

    def test_small_particle_closed_form(self):
        # integrand w^5 (Omega - w) over (0, Omega): Omega^7/42
        s1 = s2 = 1e3
        R = a = 1e-3
        d, Omega = 1.0, 1.0
        cfg = TwoBodyConfig(d, Drude(s1), R, Drude(s2), a)
        got = torque_on_test_3d(cfg, Omega, small_particle=True)
        pref = (8 / (9 * math.pi * d**2)) * (3 * R**3 / (4 * math.pi * s1)) * (
            3 * a**3 / (4 * math.pi * s2)
        )
        assert got == pytest.approx(pref * Omega**7 / 42.0, rel=1e-5)

    def test_routes_agree_for_dipoles(self):
        cfg = drude_pair(3.0, s1=20.0, s2=5.0)
        a = torque_on_test_3d(cfg, 1.0)
        b = torque_on_test_3d(cfg, 1.0, small_particle=True)
        assert a == pytest.approx(b, rel=1e-6)

    def test_inverse_square_distance(self):
        cfg = drude_pair(2.0)
        M1 = torque_on_test_3d(cfg, 1.0)
        M2 = torque_on_test_3d(drude_pair(4.0), 1.0)
        assert M2 == pytest.approx(M1 / 4.0, rel=1e-9)

    def test_slope_fit(self):
        ds = np.geomspace(2.0, 20.0, 6)
        Ms = torque_vs_distance(drude_pair(2.0), 1.0, ds, mode="3d")
        slope = np.polyfit(np.log(ds), np.log(Ms), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.02)


class TestTangentialForce:
    def test_vacuum_test_body_silent(self):
        from spinrad import Vacuum

        cfg = TwoBodyConfig(5.0, Drude(1.0), 0.01, Vacuum(), 0.01)
        assert tangential_force_3d(cfg, 1.0) == pytest.approx(0.0, abs=1e-300)

    def test_small_particle_closed_form(self):
        # integrand w^7 (Omega - w) over (0, Omega): Omega^9 * B(8,2) = Omega^9/72
        s1 = s2 = 1e3
        R = a = 1e-3
        d, Omega = 1.0, 1.0
        cfg = TwoBodyConfig(d, Drude(s1), R, Drude(s2), a)
        got = tangential_force_3d(cfg, Omega, small_particle=True)
        pref = (1 / (9 * math.pi * d)) * (3 * R**3 / (4 * math.pi * s1)) * (
            3 * a**3 / (4 * math.pi * s2)
        )
        assert got == pytest.approx(pref * Omega**9 / 72.0, rel=1e-5)

    def test_routes_agree_for_dipoles(self):
        cfg = drude_pair(3.0, s1=20.0, s2=5.0)
        a = tangential_force_3d(cfg, 1.0)
        b = tangential_force_3d(cfg, 1.0, small_particle=True)
        assert a == pytest.approx(b, rel=1e-6)

    def test_inverse_distance(self):
        F1 = tangential_force_3d(drude_pair(2.0), 1.0)
        F2 = tangential_force_3d(drude_pair(4.0), 1.0)
        assert F2 == pytest.approx(F1 / 2.0, rel=1e-9)

    def test_positive_sign_convention(self):
        assert tangential_force_3d(drude_pair(3.0), 1.0) > 0.0


class TestConfigValidation:
    def test_overlap_rejected(self):
        with pytest.raises(DomainError):
            TwoBodyConfig(0.015, Drude(1.0), 0.01, Drude(1.0), 0.01)

    def test_proximity_warning(self):
        with pytest.warns(ProximityWarning):
            TwoBodyConfig(0.025, Drude(1.0), 0.01, Drude(1.0), 0.01)
