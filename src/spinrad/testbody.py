"""Single-reflection interaction of a rotating body's radiation with a static test object.

The superradiant field of the source, expanded about the test body through
translation matrices, transfers angular momentum (spinning the test body
parallel to the source's axis) and exerts a tangential force.  One
scattering event off the test body is kept; validity needs d well above both
radii, and a warning is emitted below 3x the larger one.
"""

import dataclasses
import warnings

import numpy as np

from . import bessel
from .errors import DomainError
from .material import ThermalState, sphere_polarizability
from .quadrature import adaptive_integral
from .radiation import integrate_channels
from .scattering import DiskTable, SphereTable, disk_flux, sphere_flux_dipole


class ProximityWarning(UserWarning):
    """Separation close enough that neglected multiple reflections matter."""


@dataclasses.dataclass(frozen=True)
class TwoBodyConfig:
    """Rotating source and static test body, centers separated by d along x.

    The source spins counterclockwise about +z; positive tangential force
    points along +y.  Both bodies are characterized by a dielectric model and
    a radius; the geometry (disk vs sphere) is chosen by the operation.
    """

    d: float
    source_model: object
    source_radius: float
    test_model: object
    test_radius: float

    def __post_init__(self):
        if self.d <= self.source_radius + self.test_radius:
            raise DomainError("bodies overlap: need d > R_source + R_test")
        if self.d < 3.0 * max(self.source_radius, self.test_radius):
            warnings.warn(
                "d below 3x the larger radius: single-reflection result is unreliable",
                ProximityWarning,
                stacklevel=3,
            )


def translation_2d(n, m, omega, d):
    """Coefficient H^(1)_{n-m}(omega d) reexpanding an outgoing wave about a shifted origin.

    Convention: H^(1)_m(w r1) e^{i m phi1} = sum_n H^(1)_{n-m}(w d) J_n(w r2) e^{i n phi2}
    where (r2, phi2) are measured about an origin from which the wave's own
    origin lies at (+d, 0); convergent for r2 < d.
    """
    if d <= 0 or omega <= 0:
        raise DomainError("need omega > 0 and d > 0")
    return bessel.hankel(1, n - m, omega * d)


def _transfer(source, state, weight, epsrel):
    """sum over the source's |m| = 1 channels of int dw/2pi weight(w, m, N_m(w))."""
    vals = integrate_channels(source, state, weight, 1, m_min=1, epsrel=epsrel)
    return float(sum(val for *_, val, _ in vals))


def _small_particle(cfg, Omega, power, epsrel):
    """int_0^Omega dw w^power |Im a1(w - Omega)| Im a2(w) over the two polarizabilities."""
    def integrand(w):
        a1 = sphere_polarizability(cfg.source_model, cfg.source_radius, w - Omega)
        a2 = sphere_polarizability(cfg.test_model, cfg.test_radius, w)
        return w**power * abs(a1.imag) * a2.imag

    val, _ = adaptive_integral(integrand, 0.0, Omega, epsrel=epsrel)
    return float(val)


def torque_on_test_2d(cfg, Omega, T=0.0, *, epsrel=1e-8):
    """Torque transferred to a static test disk by the rotating disk's radiation.

    First-reflection transfer through the dominant |m| = |n| = 1 channels:

    M = hbar/(8 pi) int dw [N_1(w) - N_{-1}(w)] |H^(1)_0(w d)|^2 (1 - |S'_1(w)|^2),

    with N_m = n(w - Omega m, T)(1 - |S_m|^2) the source photon flux.  At
    T = 0 only N_1 survives on (0, Omega), which is the printed form; at
    finite temperature the counter-rotating channel transfers opposite
    angular momentum and cancels the static-source torque exactly.  At
    large w d the kernel tends to 2/(pi w d), so the torque falls off as 1/d.
    """
    if cfg.test_model.lossless:
        return 0.0  # a lossless test body absorbs no angular momentum

    def weight(w, m, N):
        kernel = abs(bessel.hankel(1, 0, w * cfg.d)) ** 2
        return m * N * kernel * disk_flux(cfg.test_model, cfg.test_radius, 0.0, w, 1)

    source = DiskTable(cfg.source_model, cfg.source_radius)
    state = ThermalState(T_object=T, T_env=0.0, Omega=Omega)
    # (1/8pi) int dw = (2pi/8pi) int dw/2pi
    return _transfer(source, state, weight, epsrel) / 4.0


def torque_on_test_3d(cfg, Omega, *, small_particle=False, epsrel=1e-10):
    """Torque on a static test sphere from the rotating sphere's dipole radiation.

    General form (falls off as 1/d^2):

        M = hbar c^2/(8 pi d^2) int_0^Omega dw w^-2 (|S_11E|^2-1)(1-|S'_11E|^2)

    ``small_particle=True`` uses the polarizability form
    (8 hbar c^2 / 9 pi d^2) int w^4 |Im a1(w - Omega)| Im a2(w) dw instead.
    The kernel |h^(1)_0(wd)|^2 is written as (c/wd)^2, which it equals
    exactly for real arguments.
    """
    if Omega <= 0:
        return 0.0
    if cfg.test_model.lossless:
        return 0.0

    if small_particle:
        return 8.0 * _small_particle(cfg, Omega, 4, epsrel) / (9.0 * np.pi * cfg.d**2)

    def weight(w, m, N):
        loss = sphere_flux_dipole(cfg.test_model, cfg.test_radius, 0.0, w, 1)
        return N * (1.0 / (w * cfg.d) ** 2) * loss * w**2

    # N_1 = |S_11E|^2 - 1 on (0, Omega) at T = 0; (1/8pi) int dw = (1/4) int dw/2pi
    source = SphereTable(cfg.source_model, cfg.source_radius)
    return _transfer(source, ThermalState(Omega=Omega), weight, epsrel) / 4.0


def tangential_force_3d(cfg, Omega, *, small_particle=False, epsrel=1e-10):
    """Tangential force (along +y) on the static test sphere; falls off as 1/d.

    F_y = hbar/(32 pi d) int_0^Omega dw (|S_11E|^2 - 1)(1 - Re S'_11E),

    assuming a non-magnetic test body (its 10M channel stays at 1).  The
    small-particle form is (hbar / 9 pi d) int w^6 |Im a1(w-Omega)| Im a2(w) dw.
    """
    if Omega <= 0:
        return 0.0

    if small_particle:
        return _small_particle(cfg, Omega, 6, epsrel) / (9.0 * np.pi * cfg.d)

    def weight(w, m, N):
        # 1 - Re S' = Im X for S' = 1 + iX: evaluated from the polarizability
        # directly, since subtracting from an S' within roundoff of 1 would
        # lose every digit
        alpha2 = sphere_polarizability(cfg.test_model, cfg.test_radius, w)
        return N * (4.0 * w**3 / 3.0) * alpha2.imag

    # (1/32pi d) int dw = (1/16 d) int dw/2pi
    source = SphereTable(cfg.source_model, cfg.source_radius)
    return _transfer(source, ThermalState(Omega=Omega), weight, epsrel) / (16.0 * cfg.d)


def torque_vs_distance(cfg, Omega, distances, *, mode="3d", **kw):
    """Torque sweep over separations (for the power-law falloff diagnostics)."""
    out = []
    for d in distances:
        c = dataclasses.replace(cfg, d=d)
        if mode == "2d":
            out.append(torque_on_test_2d(c, Omega, **kw))
        elif mode == "3d":
            out.append(torque_on_test_3d(c, Omega, **kw))
        else:
            raise DomainError("mode must be '2d' or '3d'")
    return np.array(out)
