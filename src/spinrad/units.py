"""SI <-> natural-unit conversion (hbar = c = k_B = 1 internally).

A :class:`UnitSystem` is anchored by the SI duration of one natural time
unit.  Every other conversion follows from hbar, c and k_B.  Library code
never touches this module; only the CLI converts at the boundary.
"""

from dataclasses import dataclass

from .errors import DomainError

# CODATA 2022 values, equal to scipy.constants (c, hbar, k, epsilon_0); written
# out so that importing the package does not load scipy
C_SI = 299792458.0  # m/s
HBAR_SI = 1.0545718176461565e-34  # J s
KB_SI = 1.380649e-23  # J/K
epsilon_0 = 8.8541878188e-12  # F/m


def si_conductivity_to_gaussian(sigma_si):
    """SI conductivity [S/m] to Gaussian conductivity [1/s] (divide by 4*pi*eps0)."""
    return sigma_si / (4.0 * 3.141592653589793 * epsilon_0)


@dataclass(frozen=True)
class UnitSystem:
    """Conversions anchored at `time_unit_s` seconds per natural time unit."""

    time_unit_s: float

    def __post_init__(self):
        if self.time_unit_s <= 0:
            raise DomainError("time anchor must be > 0")

    @classmethod
    def from_omega_si(cls, omega_si):
        """Anchor so that the given angular velocity [rad/s] equals 1."""
        if omega_si <= 0:
            raise DomainError("anchor Omega must be > 0")
        return cls(1.0 / omega_si)

    # ---- SI -> natural -------------------------------------------------
    def frequency(self, omega_si):
        return omega_si * self.time_unit_s

    def time(self, t_si):
        return t_si / self.time_unit_s

    def length(self, l_si):
        return l_si / (C_SI * self.time_unit_s)

    def temperature(self, T_si):
        return KB_SI * T_si * self.time_unit_s / HBAR_SI

    def conductivity(self, sigma_gauss_si):
        """Gaussian conductivity [1/s] to natural units."""
        return sigma_gauss_si * self.time_unit_s

    def inertia(self, I_si):
        return I_si / (HBAR_SI * self.time_unit_s)

    def torque(self, M_si):
        return M_si * self.time_unit_s / HBAR_SI

    # ---- natural -> SI -------------------------------------------------
    def frequency_si(self, omega):
        return omega / self.time_unit_s

    def power_si(self, P):
        return P * HBAR_SI / self.time_unit_s**2

    def torque_si(self, M):
        return M * HBAR_SI / self.time_unit_s

    def force_si(self, F):
        return F * HBAR_SI / (C_SI * self.time_unit_s**2)

    def entropy_rate_si(self, S):
        """Natural entropy rate (k_B = 1) to W/K."""
        return S * KB_SI / self.time_unit_s

    def angular_momentum_si(self, L):
        return L * HBAR_SI
