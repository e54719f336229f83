"""Reference-only routes: the oracles of the production fluxes and two-body integrals.

- ``integrate_one``: one interval through the production engine as a batch
  of one, for an integrand of the nodes alone.
- The small-particle two-body integrals, over the two polarizabilities
  directly, with the prefactors of the torque and the tangential force.
- The exact dipole and cylinder-block fluxes, which keep the O(alpha^2)
  and O(R^4) magnitudes that the production fluxes drop, and the
  ``ExactSphereTable`` and ``ExactCylinderTable`` built on them.  Their
  flux does not vanish at corotation omega = Omega*m, so at T_object > 0
  their N has a pole there.
"""

import numpy as np

from spinrad.material import sphere_polarizability
from spinrad.quadrature import adaptive_integral
from spinrad.scattering import (
    CylinderTable,
    SphereTable,
    _cyl_response,
    _dipole_alpha,
    cylinder_flux_block,
)

# 8-point Gauss-Legendre is exact for the degree <= 4 polynomials in k_z of the block
_KZ_RULE = np.polynomial.legendre.leggauss(8)


def integrate_one(f, a, b, **kw):
    """(value, error) of one interval (a, b) as a batch of one; f takes the nodes alone."""
    [val], [err] = adaptive_integral(lambda x: f(x[0]), [a], [b], **kw)
    return val, err


def _small_particle(cfg, Omega, power, epsrel):
    """int_0^Omega dw w^power |Im a1(w - Omega)| Im a2(w) over the two polarizabilities."""
    def integrand(w):
        a1 = sphere_polarizability(cfg.source_model, cfg.source_radius, w - Omega)
        a2 = sphere_polarizability(cfg.test_model, cfg.test_radius, w)
        return w**power * abs(a1.imag) * a2.imag

    val, _ = integrate_one(integrand, 0.0, Omega, epsrel=epsrel)
    return float(val)


def small_particle_torque_3d(cfg, Omega, epsrel=1e-10):
    """(8 hbar c^2 / 9 pi d^2) int_0^Omega w^4 |Im a1(w - Omega)| Im a2(w) dw."""
    if Omega <= 0 or cfg.test_model.lossless:
        return 0.0
    return 8.0 * _small_particle(cfg, Omega, 4, epsrel) / (9.0 * np.pi * cfg.d**2)


def small_particle_force_3d(cfg, Omega, epsrel=1e-10):
    """(hbar / 9 pi d) int_0^Omega w^6 |Im a1(w - Omega)| Im a2(w) dw."""
    if Omega <= 0:
        return 0.0
    return _small_particle(cfg, Omega, 6, epsrel) / (9.0 * np.pi * cfg.d)


def exact_sphere_flux_dipole(model, R, Omega, omega, m):
    """1 - |1 + iX|^2 = 2 Im X - |X|^2 with X = (4 w^3/3) alpha, from X directly."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    alpha = _dipole_alpha(model, R, w - Omega * m)
    F = (8.0 * w**3 / 3.0) * alpha.imag
    X = (4.0 * w**3 / 3.0) * alpha
    F = F - np.abs(X) ** 2
    return F if np.ndim(omega) else F.item()


def exact_cylinder_flux_block(model, R, Omega, omega, kz, m=1):
    """The full block's flux, from the deviation g = (i pi/2) r R^2.

    The O(R^4) magnitudes never pass through a 1 - |1 + small|^2
    cancellation; for good conductors their spurious non-unitarity is
    relatively enhanced by 1/Im r.
    """
    scalar = np.ndim(omega) == 0 and np.ndim(kz) == 0
    F = cylinder_flux_block(model, R, Omega, omega, kz, m=m)  # checks that k_z propagates
    w, kz = np.broadcast_arrays(np.atleast_1d(np.asarray(omega, dtype=float)), kz)
    g = 0.5j * np.pi * _cyl_response(model, w - Omega * m) * R**2
    F = F - (np.abs(g * w**2) ** 2 + np.abs(g * kz**2) ** 2 + 2 * np.abs(g * w * kz) ** 2)
    return F.item() if scalar else F


class ExactSphereTable(SphereTable):
    """The dipole channels with the exact flux."""

    def flux(self, omega, m, extra, pol, Omega):
        return exact_sphere_flux_dipole(self.model, self.R, Omega, omega, m)


class ExactCylinderTable(CylinderTable):
    """The |m| = 1 block with the exact flux, summed over k_z by an 8-point Gauss-Legendre rule."""

    def flux(self, omega, m, extra, pol, Omega):
        w = np.atleast_1d(np.asarray(omega, dtype=float))
        x, g = _KZ_RULE
        terms = g[:, None] * exact_cylinder_flux_block(self.model, self.R, Omega, w,
                                                       x[:, None] * w, m=m)
        # sum adds the k_z terms left to right, so one node sums as among many
        F = self.L / (2.0 * np.pi) * (sum(terms[1:], terms[0]) * w)
        return F if np.ndim(omega) else F.item()
