"""Dielectric response models, Bose-Einstein occupation and polarizability.

All models are evaluated in natural units (hbar = c = k_B = 1).  Negative
frequencies are always served through the Hermitian reflection
eps(-w) = conj(eps(w)); this is load-bearing because rotating bodies probe
the response at the comoving frequency w - Omega*m, which is negative inside
the superradiant window.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import BoseDivergenceError, DomainError, ResonanceError, TableFormatError


class DielectricModel:
    """Base class: subclasses implement the response at omega > 0."""

    lossless = False

    def _positive(self, omega):
        raise NotImplementedError

    def epsilon(self, omega):
        """Causal response eps(omega) on the full real axis, scalar or array omega."""
        w = np.atleast_1d(np.asarray(omega, dtype=float))
        eps = np.empty(w.shape, dtype=complex)
        if w.all():  # common case: no node at omega = 0, so no mask
            eps[...] = self._positive(np.abs(w))
        else:
            nonzero = w != 0.0
            eps[nonzero] = self._positive(np.abs(w[nonzero]))
            eps[~nonzero] = self._at_zero()
        np.conjugate(eps, out=eps, where=w < 0.0)
        return eps if np.ndim(omega) else eps.item()

    def _at_zero(self):
        return complex(self._positive(0.0))


class Vacuum(DielectricModel):
    """eps = 1 identically."""

    lossless = True

    def _positive(self, omega):
        return 1.0 + 0.0j


@dataclass(frozen=True)
class Drude(DielectricModel):
    """Metallic response eps = 1 + 4*pi*i*sigma/omega, sigma in Gaussian 1/time units."""

    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise DomainError("conductivity must be >= 0")

    @property
    def lossless(self):
        return self.sigma == 0.0

    def _positive(self, omega):
        return 1.0 + 1j * (4.0 * np.pi * self.sigma / omega)

    def _at_zero(self):
        raise DomainError("Drude eps diverges at omega = 0; use limiting forms")


@dataclass(frozen=True)
class Lorentz(DielectricModel):
    """Single-oscillator eps = eps_inf + omega_p^2 / (omega_0^2 - omega^2 - i*gamma*omega)."""

    eps_inf: float
    omega_p: float
    omega_0: float
    gamma: float

    def __post_init__(self):
        if self.gamma < 0 or self.omega_p < 0 or self.omega_0 < 0:
            raise DomainError("Lorentz parameters must be >= 0")

    @property
    def lossless(self):
        return self.gamma == 0.0

    def _positive(self, omega):
        return self.eps_inf + self.omega_p**2 / (
            self.omega_0**2 - omega**2 - 1j * self.gamma * omega
        )


@dataclass(frozen=True)
class ConstantEpsilon(DielectricModel):
    """Frequency-independent toy response, reflected to omega < 0 for Hermiticity."""

    eps_re: float
    eps_im: float = 0.0

    def __post_init__(self):
        if self.eps_im < 0:
            raise DomainError("eps_im < 0 is anti-causal for omega > 0")

    @property
    def lossless(self):
        return self.eps_im == 0.0

    def _positive(self, omega):
        return complex(self.eps_re, self.eps_im)

    def _at_zero(self):
        return complex(self.eps_re, 0.0)


class TabulatedEpsilon(DielectricModel):
    """Response interpolated from a grid of (omega, Re eps, Im eps), omega > 0.

    Re eps is interpolated linearly in omega; Im eps linearly in log(omega),
    which keeps the interpolant positive between positive samples.  Queries
    outside the grid raise (no extrapolation).
    """

    def __init__(self, omega, eps_re, eps_im):
        omega = np.asarray(omega, dtype=float)
        eps_re = np.asarray(eps_re, dtype=float)
        eps_im = np.asarray(eps_im, dtype=float)
        if omega.ndim != 1 or len(omega) < 2:
            raise TableFormatError("need at least two grid rows")
        if not (omega > 0).all():
            raise TableFormatError("grid frequencies must be > 0")
        if not (np.diff(omega) > 0).all():
            raise TableFormatError("grid frequencies must be strictly increasing")
        if (eps_im < 0).any():
            raise TableFormatError("Im eps < 0 at omega > 0 violates causality")
        self.omega = omega
        self.eps_re = eps_re
        self.eps_im = eps_im
        self._logw = np.log(omega)

    @property
    def lossless(self):
        return bool((self.eps_im == 0).all())

    @classmethod
    def from_csv(cls, path):
        """Read a CSV with header and columns omega, eps_re, eps_im."""
        rows = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["omega", "eps_re", "eps_im"]:
                raise TableFormatError("expected header 'omega,eps_re,eps_im'")
            for i, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 3:
                    raise TableFormatError("expected 3 columns", row=i)
                try:
                    rows.append(tuple(float(v) for v in row))
                except ValueError as exc:
                    raise TableFormatError(str(exc), row=i) from exc
                if not np.isfinite(rows[-1]).all():
                    raise TableFormatError("omega, eps_re and eps_im must be finite", row=i)
        if len(rows) < 2:
            raise TableFormatError("need at least two grid rows")
        arr = np.array(rows)
        if not (np.diff(arr[:, 0]) > 0).all():
            bad = int(np.argmin(np.diff(arr[:, 0]) > 0)) + 3
            raise TableFormatError("non-monotone omega grid", row=bad)
        return cls(arr[:, 0], arr[:, 1], arr[:, 2])

    def _positive(self, omega):
        outside = (omega < self.omega[0]) | (omega > self.omega[-1])
        if outside.any():
            raise DomainError(
                f"omega={omega[outside][0]:g} outside tabulated range "
                f"[{self.omega[0]:g}, {self.omega[-1]:g}]"
            )
        re = np.interp(omega, self.omega, self.eps_re)
        im = np.interp(np.log(omega), self._logw, self.eps_im)
        return re + 1j * im

    def _at_zero(self):
        raise DomainError("omega = 0 outside tabulated range")


def bose_occupation(omega, T):
    """Bose-Einstein occupation n(omega, T) = 1/(exp(omega/T) - 1), k_B = 1.

    Negative frequencies follow n(-w) = -1 - n(w); the T = 0 limit is the
    step -Theta(-omega).  omega = 0 raises: at T = 0 the value is ambiguous,
    at T > 0 it diverges and integrands must use the product limit with the
    vanishing flux factor.  Scalar or array omega.
    """
    if T < 0:
        raise DomainError("temperature must be >= 0")
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    if not w.all():
        if T == 0.0:
            raise DomainError("n(0, T=0) is ill-defined")
        raise BoseDivergenceError("n(omega -> 0, T > 0) diverges like T/omega")
    if T == 0.0:
        n = np.where(w > 0, 0.0, -1.0)
    else:
        x = np.abs(w) / T
        if x.size and x.max() <= 700.0:  # common case: no node past x = 700, no NaN
            n_pos = 1.0 / np.expm1(x)
        else:
            # past x = 700 expm1 overflows; exp(-x) is the same number there
            n_pos = np.where(x > 700.0, np.exp(-x), 1.0 / np.expm1(np.minimum(x, 700.0)))
        n = np.where(w > 0, n_pos, -1.0 - n_pos)
    return n if np.ndim(omega) else n.item()


def sphere_polarizability(model, R, omega):
    """Dipole polarizability alpha = R^3 (eps - 1)/(eps + 2), scalar or array omega."""
    if R <= 0:
        raise DomainError("radius must be > 0")
    eps = model.epsilon(omega)
    den = eps + 2.0
    pole = np.abs(den) < 1e-12
    if pole.any():
        w = np.asarray(omega, dtype=float)[pole][0]
        raise ResonanceError(f"eps(omega={w:g}) at the eps = -2 plasmon pole")
    return R**3 * (eps - 1.0) / den


@dataclass(frozen=True)
class ThermalState:
    """Object temperature, environment temperature and rotation rate.

    ``Omega`` may also be an array of rates, one per frequency node of a
    batched :func:`~spinrad.radiation.mode_flux` call.
    """

    T_object: float = 0.0
    T_env: float = 0.0
    Omega: float = 0.0

    def __post_init__(self):
        if self.T_object < 0 or self.T_env < 0:
            raise DomainError("temperatures must be >= 0")
        if np.any(np.less(self.Omega, 0)):
            raise DomainError("Omega must be >= 0 (flip the axis instead)")

    @property
    def zero_temperature(self):
        return self.T_object == 0.0 and self.T_env == 0.0
