"""Unit conversions: round trips and dimensional sanity."""

import pytest
from scipy.constants import c, epsilon_0, hbar, k as k_B

from spinrad import DomainError, UnitSystem, si_conductivity_to_gaussian


# natural -> SI inverses of the forward conversions; only frequency_si is
# UnitSystem's own (the CLI converts no time, length, temperature or inertia
# back), the others are written out from scipy's constants
BACK = {
    "frequency_si": UnitSystem.frequency_si,
    "time_si": lambda u, t: t * u.time_unit_s,
    "length_si": lambda u, l: l * c * u.time_unit_s,
    "temperature_si": lambda u, T: T * hbar / (k_B * u.time_unit_s),
    "inertia_si": lambda u, I: I * hbar * u.time_unit_s,
}


class TestRoundTrip:
    def setup_method(self):
        self.u = UnitSystem.from_omega_si(2.0e6)  # 2 Mrad/s anchor

    @pytest.mark.parametrize(
        "fwd,back,value",
        [
            ("frequency", "frequency_si", 3.7e5),
            ("time", "time_si", 4.4e-3),
            ("length", "length_si", 0.12),
            ("temperature", "temperature_si", 310.0),
            ("inertia", "inertia_si", 1e-33),
        ],
    )
    def test_roundtrip_identity(self, fwd, back, value):
        u = self.u
        assert BACK[back](u, getattr(u, fwd)(value)) == pytest.approx(value, rel=1e-12)

    def test_anchor_normalizes_omega(self):
        assert self.u.frequency(2.0e6) == pytest.approx(1.0, rel=1e-15)

    def test_bad_anchor(self):
        with pytest.raises(DomainError):
            UnitSystem.from_omega_si(0.0)


class TestDimensionalAnchors:
    def test_power_conversion(self):
        # P_SI = P_nat * hbar / t*^2
        u = UnitSystem(1.0e-6)
        assert u.power_si(1.0) == pytest.approx(hbar / 1e-12, rel=1e-15)

    def test_torque_is_energy(self):
        u = UnitSystem(1.0e-6)
        assert u.torque_si(2.0) == pytest.approx(2.0 * hbar / 1e-6, rel=1e-15)

    def test_temperature_scale(self):
        # k_B T ~ hbar / t* when T_nat = 1
        u = UnitSystem(1.0e-11)
        assert u.temperature(hbar / (1e-11 * k_B)) == pytest.approx(1.0, rel=1e-15)

    def test_length_uses_c(self):
        u = UnitSystem(1.0)
        assert u.length(c) == pytest.approx(1.0, rel=1e-15)

    def test_entropy_rate(self):
        u = UnitSystem(2.0)
        assert u.entropy_rate_si(3.0) == pytest.approx(3.0 * k_B / 2.0, rel=1e-15)


def test_gaussian_conductivity():
    sigma_si = 5.96e7  # copper, S/m
    sigma_g = si_conductivity_to_gaussian(sigma_si)
    assert sigma_g == pytest.approx(sigma_si / (4 * 3.141592653589793 * epsilon_0), rel=1e-12)
    assert 1e17 < sigma_g < 1e19  # ~5e17 1/s


def test_constants_equal_scipy():
    # the literals in units.py stand in for scipy.constants, bit for bit
    from spinrad import units

    assert units.C_SI == c
    assert units.HBAR_SI == hbar
    assert units.KB_SI == k_B
    assert units.epsilon_0 == epsilon_0
