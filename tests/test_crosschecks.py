"""Cross-module checks against high-precision and structural oracles."""

import math

import numpy as np
import pytest

from spinrad import (
    ConstantEpsilon,
    DiskTable,
    Drude,
    MSumPolicy,
    SphereTable,
    ThermalState,
    UserTable,
    disk_flux,
    disk_smatrix,
    entropy_generation,
    integrate_power,
)


def mp_disk_flux(eps, R, Omega, omega, m, dps=50):
    """1 - |S_m|^2 evaluated in mpmath arithmetic, straight from the matching."""
    import mpmath as mp

    with mp.workdps(dps):
        om = mp.mpf(omega)
        om_p = om - mp.mpf(Omega) * m
        wt = mp.sqrt((mp.mpc(eps) - 1) * om_p**2 + om**2)
        if om_p >= 0 and mp.im(wt) < 0:
            wt = -wt
        if om_p < 0 and mp.im(wt) > 0:
            wt = -wt
        zj, zh = wt * R, om * R

        J = mp.besselj(m, zj)
        Jp = mp.besselj(m - 1, zj) - m / zj * J
        H1 = mp.hankel1(m, zh)
        H2 = mp.hankel2(m, zh)
        H1p = mp.hankel1(m - 1, zh) - m / zh * H1
        H2p = mp.hankel2(m - 1, zh) - m / zh * H2
        S = -(wt * Jp * H2 - J * om * H2p) / (wt * Jp * H1 - J * om * H1p)
        return float(1 - mp.fabs(S) ** 2)


class TestDiskFluxHighPrecision:
    @pytest.mark.parametrize("omega", [0.3, 0.5, 0.9, 1.4])
    def test_tiny_flux_against_mpmath(self, omega):
        # flux ~ 1e-10: float64 |S|^2 - 1 would be pure roundoff here
        model = ConstantEpsilon(4.0, 0.8)
        R, Omega, m = 0.01, 1.0, 1
        eps = model.epsilon(omega - Omega * m)
        got = disk_flux(model, R, Omega, omega, m)
        ref = mp_disk_flux(eps, R, Omega, omega, m)
        assert abs(got) < 1e-8
        # measured 3.2e-11, 5.1e-11, 3.2e-10 and 2.5e-11 at omega = 0.3, 0.5, 0.9, 1.4
        assert got == pytest.approx(ref, rel=1e-9, abs=0)

    def test_moderate_flux_against_mpmath(self):
        model = Drude(1.0)
        eps = model.epsilon(0.7 - 1.0)
        got = disk_flux(model, 0.45, 1.0, 0.7, 1)
        assert got == pytest.approx(mp_disk_flux(eps, 0.45, 1.0, 0.7, 1), rel=1e-12)

    def test_float_smatrix_loses_what_flux_keeps(self):
        # documents why the dedicated flux path exists: at flux ~ 1e-12 the
        # naive 1 - |S|^2 sits on its roundoff floor (~1e-16/flux relative)
        model = ConstantEpsilon(4.0, 0.8)
        R, Omega, omega, m = 0.003, 1.0, 0.5, 1
        ref = mp_disk_flux(model.epsilon(omega - Omega), R, Omega, omega, m)
        naive = 1.0 - abs(disk_smatrix(model, R, Omega, omega, m)) ** 2
        stable = disk_flux(model, R, Omega, omega, m)
        assert abs(stable - ref) < 1e-8 * abs(ref)
        assert abs(naive - ref) > 1e3 * abs(stable - ref)


def mp_sphere_entropy(sigma, R, Omega, m, T, top, dps=30):
    """int_0^top dw/2pi s(N) of the Drude-sphere dipole channel m, in mpmath arithmetic.

    N = [n(w - Omega*m, T) - n(w, 0)] (8w^3/3) Im alpha(w - Omega*m), alpha =
    R^3 (eps - 1)/(eps + 2), eps = 1 + 4 pi i sigma/w', and s(N) = (N+1) log(N+1)
    - N log N; at T = 0 only the superradiant window w < Omega*m radiates.
    """
    import mpmath as mp

    with mp.workdps(dps):
        sigma, R, Omega, T, top = map(mp.mpf, (sigma, R, Omega, T, top))

        def s(w):
            om_p = w - Omega * m
            eps = 1 + 4j * mp.pi * sigma / om_p
            F = 8 * w**3 / 3 * mp.im(R**3 * (eps - 1) / (eps + 2))
            if T == 0:
                N = -F if om_p < 0 else 0
            else:
                N = F / mp.expm1(om_p / T)
            return (N + 1) * mp.log1p(N) - N * mp.log(N) if N > 0 else mp.mpf(0)

        cuts = {mp.mpf(0), top} | {x for x in (Omega / 2, Omega, 2 * Omega, 4 * Omega) if x < top}
        return float(mp.quad(s, sorted(cuts)) / (2 * mp.pi))


class TestGradedEntropyAgainstMpmath:
    # each channel's entropy rate, integrated in the graded variable, against the
    # closed-form dipole N: at T = 0 on (0, Omega), at T > 0 up to the thermal
    # cutoff Omega*m_max + 40T of the default policy (m_max = 5)
    @pytest.mark.parametrize("sigma, R, Omega, T", [
        (10.0, 0.01, 1.0, 0.0), (1000.0, 1e-3, 1.0, 0.0), (1e4, 0.01, 0.5, 0.0),
        (1000.0, 1e-3, 1.0, 0.3)])
    def test_per_mode_entropy_rate(self, sigma, R, Omega, T):
        rep = entropy_generation(SphereTable(Drude(sigma), R), ThermalState(T, 0.0, Omega))
        assert [m for m, *_ in rep.per_mode] == ([1] if T == 0 else [-1, 0, 1])
        for m, _, _, rate in rep.per_mode:
            ref = mp_sphere_entropy(sigma, R, Omega, m, T, 5 * Omega + 40 * T if T else Omega)
            assert rate == pytest.approx(ref, rel=1e-10)


class TestStaticSphereTorqueCancellation:
    def test_hot_static_sphere_radiates_without_torque(self):
        table = SphereTable(Drude(50.0), 0.05)
        state = ThermalState(T_object=1.0, T_env=0.0, Omega=0.0)
        res = integrate_power(table, state, MSumPolicy(m_max=1))
        assert res.P > 0
        assert res.M == 0.0  # the m = +-1 dipole channels cancel exactly
        ms = sorted(c.m for c in res.per_mode)
        assert ms == [-1, 0, 1]


class TestThermalEnhancement:
    def test_hot_rotating_disk_outshines_cold(self):
        table = DiskTable(Drude(1.0), 0.05)
        policy = MSumPolicy(m_max=3, raise_on_tail=False)
        cold = integrate_power(table, ThermalState(Omega=1.0), policy)
        hot = integrate_power(
            table, ThermalState(T_object=0.5, T_env=0.0, Omega=1.0), policy
        )
        assert hot.P > cold.P


class TestUserTableKzChannels:
    def test_kz_labeled_channels_integrate(self):
        # two k_z-labeled E channels with constant gain 0.5 over (0, Omega)
        om = np.array([1e-9, 1.0])
        S = np.full(2, complex(math.sqrt(1.5)))
        table = UserTable({
            (1, 0.0, "E"): (om, S),
            (1, 5e-10, "E"): (om, S.copy()),
        })
        res = integrate_power(table, ThermalState(Omega=1.0))
        # each channel contributes 0.5 * Omega^2/(4 pi)
        assert res.P == pytest.approx(2 * 0.5 / (4 * math.pi), rel=1e-7)
        assert table.channels(1) == [(1, 0.0, "E"), (1, 5e-10, "E")]
