"""Radiation integrals: closed forms, bookkeeping, truncation, equilibrium nulls."""

import math

import numpy as np
import pytest

from spinrad import (
    ConstantEpsilon,
    ConvergenceError,
    CylinderTable,
    DiskTable,
    Drude,
    MSumPolicy,
    SphereTable,
    ThermalState,
    UserTable,
    integrate_power,
    kirchhoff_power,
    mode_flux,
)
from spinrad.radiation import spectral_rows

from reference_routes import ExactCylinderTable, integrate_one


def _const_flux_table(gain, omega_hi, m=1):
    """Synthetic one-channel table with |S|^2 = 1 + gain over (0, omega_hi]."""
    om = np.array([1e-9, omega_hi])
    S = np.full(2, complex(math.sqrt(1.0 + gain)))
    return UserTable({(m, None, "scalar"): (om, S)})


class TestModeFlux:
    def test_equilibrium_zero(self):
        t = DiskTable(Drude(1.0), 0.2)
        st = ThermalState(T_object=0.7, T_env=0.7, Omega=0.0)
        for w in (0.3, 1.0, 2.5):
            assert mode_flux(t, st, w, 1) == pytest.approx(0.0, abs=1e-14)

    def test_zero_T_outside_window(self):
        t = DiskTable(Drude(1.0), 0.2)
        st = ThermalState(Omega=1.0)
        assert mode_flux(t, st, 1.7, 1) == 0.0

    def test_arithmetic_in_window(self):
        t = _const_flux_table(0.2, 2.0)
        st = ThermalState(Omega=1.0)
        assert mode_flux(t, st, 0.5, 1) == pytest.approx(0.2, rel=1e-12)

    def test_zero_T_flux_nonnegative_grid(self):
        t = DiskTable(Drude(1.0), 0.1)
        st = ThermalState(Omega=1.0)
        for m in (1, 2, 3):
            for w in np.linspace(0.01, 3.5, 40):
                N = mode_flux(t, st, float(w), m)
                assert N >= 0.0
                if w >= st.Omega * m:
                    assert N == 0.0

    def test_removable_singularity_product_limit(self):
        # at omega = Omega*m the occupation diverges but the flux vanishes;
        # the product limit for a Drude disk is finite and smooth
        model, R, Omega, T = Drude(1.0), 0.01, 1.0, 0.5
        t = DiskTable(model, R)
        st = ThermalState(T_object=T, T_env=0.0, Omega=Omega)
        at = mode_flux(t, st, Omega, 1)
        near = mode_flux(t, st, Omega * (1 + 1e-7), 1)
        assert math.isfinite(at)
        assert at == pytest.approx(near, rel=1e-4)


class TestSphereClosedForms:
    def test_drude_power_and_torque(self):
        sigma_ratio, Omega, R = 1e3, 1.0, 1e-3
        table = SphereTable(Drude(sigma_ratio * Omega), R)
        res = integrate_power(table, ThermalState(Omega=Omega))
        P_ref = R**3 * Omega**6 / (30 * math.pi**2 * sigma_ratio * Omega)
        M_ref = R**3 * Omega**5 / (20 * math.pi**2 * sigma_ratio * Omega)
        assert res.P / P_ref == pytest.approx(1.0, abs=1e-6)
        assert res.M / M_ref == pytest.approx(1.0, abs=1e-6)

    def test_heat_bookkeeping(self):
        table = SphereTable(Drude(10.0), 1e-2)
        res = integrate_power(table, ThermalState(Omega=1.0))
        assert res.Q == pytest.approx(1.0 * res.M - res.P, abs=1e-18 + 1e-12 * abs(res.P))

    def test_positivity(self):
        res = integrate_power(SphereTable(Drude(10.0), 1e-2), ThermalState(Omega=1.0))
        assert res.P > 0 and res.M > 0 and res.Q > 0
        for c in res.per_mode:
            assert c.Q >= 0

    def test_lossless_silent(self):
        res = integrate_power(SphereTable(ConstantEpsilon(4.0), 1e-2), ThermalState(Omega=1.0))
        assert res.P == 0 and res.M == 0 and res.Q == 0


def _cylinder(model, R, L, Omega, exact=False):
    table = (ExactCylinderTable if exact else CylinderTable)(model, R, L)
    return integrate_power(table, ThermalState(Omega=Omega))


class TestCylinderClosedForms:
    def test_drude_high_conductivity(self):
        Omega, sigma, R, L = 1.0, 1e3, 1e-3, 1.0
        res = _cylinder(Drude(sigma), R, L, Omega)
        assert res.P / (L * R**2 * Omega**6 / (90 * math.pi**2 * sigma)) == pytest.approx(
            1.0, abs=2e-6
        )
        assert res.M / (L * R**2 * Omega**5 / (60 * math.pi**2 * sigma)) == pytest.approx(
            1.0, abs=2e-6
        )

    def test_exact_block_close_to_truncated(self):
        Omega, sigma, R, L = 1.0, 1e3, 1e-4, 1.0
        a = _cylinder(Drude(sigma), R, L, Omega)
        b = _cylinder(Drude(sigma), R, L, Omega, exact=True)
        # P ~ 1.1e-14; the exact block differs by 3.0e-4, the O(R^4)/Im r
        # difference exact_cylinder_flux_block warns of
        assert b.P == pytest.approx(a.P, rel=1e-3, abs=0)

    def test_low_conductivity_leading_log(self):
        # derived oracle: the trace formula gives
        # P = (4/3) L R^2 Omega^4 sigma [log(Omega/2 pi sigma) - 25/12]
        # at leading log (verified against direct quadrature to <2% at 1e-4)
        Omega, R, L = 1.0, 1e-4, 1.0
        sigma = 1e-4 * Omega
        res = _cylinder(Drude(sigma), R, L, Omega)
        lead = (4.0 / 3.0) * L * R**2 * Omega**4 * sigma * (
            math.log(Omega / (2 * math.pi * sigma)) - 25.0 / 12.0
        )
        assert res.P == pytest.approx(lead, rel=0.02)

    def test_heat_bookkeeping(self):
        res = _cylinder(Drude(1e3), 1e-3, 2.0, 1.0)
        assert res.Q == pytest.approx(res.M - res.P, abs=1e-18 + 1e-12 * abs(res.P))

    def test_lossless_silent(self):
        res = _cylinder(ConstantEpsilon(4.0), 1e-3, 1.0, 1.0)
        assert res.P == 0 and res.M == 0


class TestDiskRadiation:
    def test_smallvel_closed_form(self):
        # P -> (hbar R^4/16) int w^3 (w-Omega)^2 |Im eps| dw = pi sigma R^4 Omega^5/80
        sigma, Omega = 1.0, 1.0
        R = 0.01 / Omega
        res = integrate_power(DiskTable(Drude(sigma), R), ThermalState(Omega=Omega))
        P_ref = math.pi * sigma * R**4 * Omega**5 / 80.0
        assert res.P == pytest.approx(P_ref, rel=2e-3)

    def test_heat_bookkeeping_and_positivity(self):
        res = integrate_power(DiskTable(Drude(1.0), 0.05), ThermalState(Omega=1.0))
        assert res.Q == pytest.approx(res.M - res.P, abs=1e-18 + 1e-12 * abs(res.P))
        assert res.P > 0 and res.Q > 0

    def test_m_convergence_monotone_tail(self):
        model, R, Omega = Drude(1.0), 0.05, 1.0
        lenient = dict(raise_on_tail=False)
        p2 = integrate_power(
            DiskTable(model, R), ThermalState(Omega=Omega), MSumPolicy(m_max=2, **lenient)
        )
        p4 = integrate_power(
            DiskTable(model, R), ThermalState(Omega=Omega), MSumPolicy(m_max=4, **lenient)
        )
        assert p4.P >= p2.P
        assert p4.P - p2.P <= p2.truncation_tail * 1.5
        assert p4.truncation_tail < p2.truncation_tail

    def test_tail_violation_raises_with_m(self):
        model, R, Omega = Drude(1.0), 0.45, 1.0
        with pytest.raises(ConvergenceError) as exc:
            integrate_power(
                DiskTable(model, R),
                ThermalState(Omega=Omega),
                MSumPolicy(m_max=1, tail_tol=1e-14),
            )
        assert exc.value.m == 1

    def test_auto_extend_reaches_tolerance(self):
        model, R, Omega = Drude(1.0), 0.45, 1.0
        res = integrate_power(
            DiskTable(model, R),
            ThermalState(Omega=Omega),
            MSumPolicy(m_max=1, tail_tol=1e-9, auto_extend=True),
        )
        assert res.truncation_tail <= 1e-9 * res.P
        assert max(c.m for c in res.per_mode) > 1

    def test_auto_extend_shells_keep_their_corotation_point(self):
        # each added shell |m| = k is cut at Omega*k + 40T, past its breakpoint
        # at omega = Omega*k; cut at the block's Omega*1 + 40T instead, the
        # grown sum fell 5.8% short of the fixed sum here
        table = DiskTable(Drude(1.0), 0.3)
        st = ThermalState(T_object=0.02, Omega=1.0)
        grown = integrate_power(
            table, st, MSumPolicy(m_max=1, auto_extend=True, tail_tol=1e-6, raise_on_tail=False)
        )
        m_used = max(abs(c.m) for c in grown.per_mode)
        fixed = integrate_power(table, st, MSumPolicy(m_max=m_used, raise_on_tail=False))
        assert m_used > 1
        assert grown.P == pytest.approx(fixed.P, rel=1e-8)

    def test_finite_temperature_runs_and_balances(self):
        st = ThermalState(T_object=0.8, T_env=0.2, Omega=1.0)
        res = integrate_power(DiskTable(Drude(1.0), 0.05), st, MSumPolicy(m_max=3))
        assert math.isfinite(res.P)
        assert res.Q == pytest.approx(st.Omega * res.M - res.P, abs=1e-15 + 1e-10 * abs(res.P))

    def test_flags_report_regime(self):
        res = integrate_power(DiskTable(Drude(1.0), 0.05), ThermalState(Omega=1.0))
        assert res.flags["omega_R_over_c"] == pytest.approx(0.05)
        assert not res.flags["smallvel_warning"]


class TestKirchhoff:
    def test_equilibrium_null(self):
        res = kirchhoff_power(DiskTable(Drude(1.0), 0.3), 0.7, 0.7)
        assert abs(res.P) < 1e-12

    def test_equilibrium_integrates_every_channel_to_zero(self):
        # detailed balance makes the integrand pointwise 0.0: every channel
        # |m| <= 5 is integrated and the sums are exactly zero
        res = kirchhoff_power(DiskTable(Drude(1.0), 0.3), 0.7, 0.7)
        assert [c.m for c in res.per_mode] == list(range(-5, 6))
        assert (res.P, res.M, res.Q) == (0.0, 0.0, 0.0)

    THERMAL_POLICY = MSumPolicy(m_max=4, auto_extend=True, tail_tol=1e-4, m_cap=24)

    def test_hot_object_radiates(self):
        res = kirchhoff_power(DiskTable(Drude(1.0), 0.1), 1.0, 0.2, self.THERMAL_POLICY)
        assert res.P > 0
        assert res.Q == -res.P  # the Omega = 0 heat weight is -omega*N

    def test_cold_object_absorbs(self):
        res = kirchhoff_power(DiskTable(Drude(1.0), 0.1), 0.2, 1.0, self.THERMAL_POLICY)
        assert res.P < 0

    def test_torque_free(self):
        res = kirchhoff_power(DiskTable(Drude(1.0), 0.1), 1.0, 0.2, self.THERMAL_POLICY)
        assert res.M == 0.0

    def test_blackbody_channel_sum_diagnostic(self):
        # strongly absorbing disk: sum_m (1 - |S_m|^2) ~ 2 w R within 20%
        from spinrad import disk_smatrix

        model = ConstantEpsilon(1.0, 0.4)
        w, R = 30.0, 1.0
        total = sum(
            1.0 - abs(disk_smatrix(model, R, 0.0, w, m)) ** 2 for m in range(-80, 81)
        )
        assert total == pytest.approx(2 * w * R, rel=0.2)


class TestUserTableRadiation:
    def test_constant_gain_analytic(self):
        gain, Omega = 0.2, 1.0
        t = _const_flux_table(gain, Omega)
        res = integrate_power(t, ThermalState(Omega=Omega))
        # P = int_0^Omega w*gain dw / 2pi, exactly gain*Omega^2/(4 pi)
        assert res.P == pytest.approx(gain * Omega**2 / (4 * math.pi), rel=1e-7)
        assert res.M == pytest.approx(gain * Omega / (2 * math.pi), rel=1e-7)


class TestQuadratureEngine:
    def test_polynomial_moment_exact(self):
        # the Drude-sphere style moment: int_0^1 w^4 (1-w) dw = 1/30
        val, err = integrate_one(lambda w: w**4 * (1 - w), 0.0, 1.0)
        assert val == pytest.approx(1.0 / 30.0, rel=1e-12)
        assert err < 1e-8

    def test_vector_shared_panels(self):
        val, _ = integrate_one(lambda w: np.array([w, w**2, w**3]), 0.0, 2.0)
        assert val == pytest.approx([2.0, 8.0 / 3.0, 4.0], rel=1e-10)


class TestSpindown:
    def test_cylinder_scaling(self):
        # the spindown time I int dW/M goes as I/(L R^2 W0^3) at fixed sigma/Omega
        # because the cylinder's torque does: M(2W; 2 sigma) = 16 M(W; sigma),
        # M ~ L and M ~ R^2
        def torque(W, L, R, sigma):
            return _cylinder(Drude(sigma), R, L, W).M

        base = torque(1.0, 1.0, 1e-3, 1e-3)
        assert torque(2.0, 1.0, 1e-3, 2e-3) == pytest.approx(16 * base, rel=0.02)
        assert torque(1.0, 2.0, 1e-3, 1e-3) == pytest.approx(2 * base, rel=1e-6)
        assert torque(1.0, 1.0, 2e-3, 1e-3) == pytest.approx(4 * base, rel=1e-6)


class TestSpectralRows:
    def test_rows_shape_and_sign(self):
        rows = spectral_rows(
            SphereTable(Drude(100.0), 1e-2), ThermalState(Omega=1.0), n_points=16
        )
        assert len(rows) == 16
        for w, m, extra, pol, N, dP in rows:
            assert 0 < w < 1.0 and m == 1 and pol == "E"
            assert N >= 0 and dP == pytest.approx(w * N / (2 * math.pi))
