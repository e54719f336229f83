"""Single-reflection interaction of a rotating body's radiation with a static test object.

The superradiant field of the source, expanded about the test body through
translation matrices, transfers angular momentum (spinning the test body
parallel to the source's axis) and exerts a tangential force.  One
scattering event off the test body is kept; validity needs d well above both
radii, and a warning is emitted below 3x the larger one.
Each quantity is a weight over the source's |m| = 1 channels, integrated by
``radiation.integrate_channels`` like every other output.
"""

import dataclasses
import math
import warnings

import numpy as np

from . import bessel
from .errors import DomainError
from .material import ThermalState, sphere_polarizability
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
        for name in ("source_radius", "test_radius"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be > 0")
        if not math.isfinite(self.d):
            raise DomainError(f"d must be finite, got {self.d}")
        if self.d <= self.source_radius + self.test_radius:
            raise DomainError("bodies overlap: need d > R_source + R_test")
        if self.d < 3.0 * max(self.source_radius, self.test_radius):
            warnings.warn(
                "d below 3x the larger radius: single-reflection result is unreliable",
                ProximityWarning,
                stacklevel=3,
            )


def _transfer(source, state, weight, epsrel):
    """sum over the source's |m| = 1 channels of int dw/2pi weight(w, m, N_m(w))."""
    vals = integrate_channels(source, state, weight, 1, m_min=1, epsrel=epsrel)
    return float(sum(val for *_, val, _ in vals))


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


def torque_on_test_3d(cfg, Omega, *, epsrel=1e-10):
    """Torque on a static test sphere from the rotating sphere's dipole radiation.

    General form (falls off as 1/d^2):

        M = hbar c^2/(8 pi d^2) int_0^Omega dw w^-2 (|S_11E|^2-1)(1-|S'_11E|^2)

    The kernel |h^(1)_0(wd)|^2 is written as (c/wd)^2, which it equals
    exactly for real arguments.  Both flux factors of a dipole go as
    w^3 Im a, so the kernel's w^-2 leaves the integrand going as w^4: for
    small particles this is (8 hbar c^2 / 9 pi d^2) int w^4 |Im a1(w - Omega)|
    Im a2(w) dw.
    """
    if Omega <= 0:
        return 0.0
    if cfg.test_model.lossless:
        return 0.0

    def weight(w, m, N):
        loss = sphere_flux_dipole(cfg.test_model, cfg.test_radius, 0.0, w, 1)
        return N * (1.0 / (w * cfg.d) ** 2) * loss

    # N_1 = |S_11E|^2 - 1 on (0, Omega) at T = 0; (1/8pi) int dw = (1/4) int dw/2pi
    source = SphereTable(cfg.source_model, cfg.source_radius)
    return _transfer(source, ThermalState(Omega=Omega), weight, epsrel) / 4.0


def tangential_force_3d(cfg, Omega, *, epsrel=1e-10):
    """Tangential force (along +y) on the static test sphere; falls off as 1/d.

    F_y = hbar/(32 pi d) int_0^Omega dw (|S_11E|^2 - 1)(1 - Re S'_11E),

    assuming a non-magnetic test body (its 10M channel stays at 1).  For
    small particles this is (hbar / 9 pi d) int w^6 |Im a1(w-Omega)| Im a2(w) dw.
    """
    if Omega <= 0:
        return 0.0

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
    torque = {"2d": torque_on_test_2d, "3d": torque_on_test_3d}.get(mode)
    if torque is None:
        raise DomainError(f"mode must be '2d' or '3d', not {mode!r}")
    return np.array([torque(dataclasses.replace(cfg, d=d), Omega, **kw) for d in distances])
