"""Property-based invariants of the spectral density and its integrals.

Every output is a weighted integral of one spectral density N_m(omega), so
a few structural identities must hold for any body, rate and temperature:
the heat balance Q = Omega*M - P to roundoff (the three weights share
panels), the superradiant sign rule, the Hermitian reflection of every
dielectric model, and the equilibrium null.  The examples are drawn
deterministically, so a failure reproduces on every run.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinrad import (
    ConstantEpsilon,
    CylinderTable,
    DiskTable,
    Drude,
    Lorentz,
    MSumPolicy,
    SphereTable,
    TabulatedEpsilon,
    ThermalState,
    UserTable,
    Vacuum,
    disk_smatrix,
    integrate_power,
    mode_flux,
)
from spinrad.radiation import channel_support

SETTINGS = settings(derandomize=True, max_examples=6, deadline=None, database=None)

GEOMETRIES = ("disk", "sphere", "user-table", "cylinder")


def _user_table(sigma, R, Omega):
    """Disk S-matrices tabulated for m = -1, 1, 2 on a grid spanning the windows.

    The corotation points Omega*m are grid rows, where |S| = 1: between rows
    the interpolated flux would not vanish there and the thermal N would
    carry a non-integrable 1/(omega - Omega*m).
    """
    om = np.union1d(np.linspace(0.05, 3.0, 24), [w for w in (Omega, 2 * Omega) if w > 0])
    model = Drude(sigma)
    return UserTable({(m, None, "scalar"): (om, disk_smatrix(model, R, Omega, om, m))
                      for m in (-1, 1, 2)})


def _table(geometry, sigma, Omega=1.0):
    return {
        "disk": lambda: DiskTable(Drude(sigma), 0.1),
        "sphere": lambda: SphereTable(Drude(10.0 * sigma), 0.01),
        "user-table": lambda: _user_table(sigma, 0.1, Omega),
        "cylinder": lambda: CylinderTable(Drude(1e3 * sigma), 1e-3, 1.0),
    }[geometry]()


def _radiate(geometry, sigma, Omega, T_object, T_env=0.0):
    """P, M, Q and the per-mode breakdown of one geometry in one thermal state."""
    state = ThermalState(T_object=T_object, T_env=T_env, Omega=Omega)
    # interpolated tables have kinks at every row: the CLI's rel_tol of 1e-6
    policy = MSumPolicy(m_max=2 if geometry == "disk" else 5, raise_on_tail=False,
                        epsrel=1e-6 if geometry == "user-table" else 1e-9)
    return integrate_power(_table(geometry, sigma, Omega), state, policy)


class TestHeatBalance:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @SETTINGS
    @given(
        sigma=st.floats(0.5, 2.0),
        Omega=st.floats(0.5, 1.5),
        T_object=st.sampled_from([0.0, 0.3, 0.6]),
    )
    def test_q_equals_omega_m_minus_p(self, geometry, sigma, Omega, T_object):
        res = _radiate(geometry, sigma, Omega, T_object)
        # roundoff of each channel's three weighted sums, summed over channels
        scale = sum(abs(c.P) + Omega * abs(c.M) + abs(c.Q) for c in res.per_mode)
        assert scale > 0
        assert abs(res.Q - (Omega * res.M - res.P)) <= 1e-13 * scale


class TestZeroTemperatureRule:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_only_positive_m_radiates_at_zero_temperature(self, geometry):
        # the table lists every m; channel_support alone drops m <= 0 at T = 0
        table = _table(geometry, 1.0)
        state = ThermalState(Omega=1.0)
        for m, extra, pol in table.channels(5):
            if m <= 0:
                assert channel_support(table, state, m, extra, pol, 5) == []
        assert any(m <= 0 for m, *_ in table.channels(5))
        res = _radiate(geometry, 1.0, 1.0, 0.0)
        assert res.per_mode and all(c.m >= 1 for c in res.per_mode)


class TestSuperradiantSign:
    @pytest.mark.parametrize("geometry", ["disk", "sphere", "cylinder"])
    @SETTINGS
    @given(
        sigma=st.floats(0.5, 2.0),
        m=st.integers(1, 2),
        frac=st.floats(0.02, 0.98),
    )
    def test_n_positive_inside_zero_t_window(self, geometry, sigma, m, frac):
        if geometry != "disk":
            m = 1  # the dipole and the cylinder block radiate at m = 1 only
        Omega = 1.0
        table = _table(geometry, sigma)
        state = ThermalState(Omega=Omega)
        inside = frac * Omega * m
        outside = (1.0 + frac) * Omega * m
        extra, pol = table.channels(1)[0][1:]  # every m of a geometry shares its label
        N_in = mode_flux(table, state, inside, m, extra, pol)
        N_out = mode_flux(table, state, outside, m, extra, pol)
        assert np.sign(N_in) == np.sign(Omega * m - inside) == 1.0
        assert N_out == 0.0

    @pytest.mark.parametrize("geometry", ["disk", "sphere", "cylinder"])
    @SETTINGS
    @given(
        sigma=st.floats(0.5, 2.0),
        m=st.integers(-1, 2),
        omega=st.floats(0.05, 3.0).filter(lambda w: abs(w - round(w)) > 1e-3),
    )
    def test_flux_factor_sign_follows_comoving_frequency(self, geometry, sigma, m, omega):
        if geometry != "disk":
            m = max(-1, min(m, 1))
        table = _table(geometry, sigma)
        extra, pol = table.channels(1)[0][1:]  # every m of a geometry shares its label
        F = table.flux(omega, m, extra, pol, 1.0)
        assert np.sign(F) == np.sign(omega - 1.0 * m)


MODELS = [
    Vacuum(),
    Drude(0.8),
    Lorentz(eps_inf=1.5, omega_p=2.0, omega_0=1.3, gamma=0.2),
    ConstantEpsilon(3.0, 0.4),
    TabulatedEpsilon([0.1, 1.0, 4.0], [4.0, 3.0, 2.0], [0.4, 0.2, 0.1]),
]


class TestHermiticity:
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    @SETTINGS
    @given(omega=st.floats(0.1, 4.0))
    def test_epsilon_reflects_to_conjugate(self, model, omega):
        assert model.epsilon(-omega) == np.conj(model.epsilon(omega))
        ws = np.array([omega, 0.5 * (omega + 0.1)])
        np.testing.assert_array_equal(model.epsilon(-ws), np.conj(model.epsilon(ws)))


class TestEquilibriumNull:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @SETTINGS
    @given(sigma=st.floats(0.5, 2.0), T=st.floats(0.1, 1.0))
    def test_static_body_in_equilibrium_radiates_nothing(self, geometry, sigma, T):
        res = _radiate(geometry, sigma, 0.0, T, T_env=T)
        assert res.per_mode
        assert (res.P, res.M, res.Q) == (0.0, 0.0, 0.0)
