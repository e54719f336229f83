"""Scattering amplitudes for rotating bodies and channel-table plumbing.

Geometries: the exact rotating scalar disk (partial-wave matching of Bessel
solutions), its small-velocity approximation, the EM sphere dipole channel,
the EM cylinder m = +-1 polarization block (k_z-integrated in a channel
table), and user-supplied diagonal channel tables.  A channel's flux factor
1 - |S|^2 is the per-mode absorptivity; negative values mark superradiant
(amplifying) channels, which for a lossy rotating body happens exactly in
the window 0 < omega < Omega*m.
"""

import csv
import warnings
import numpy as np

from . import bessel
from .errors import DomainError, ResonanceError, TableFormatError
from .material import sphere_polarizability

SMALLVEL_LIMIT = 0.3


class SmallVelocityWarning(UserWarning):
    """Emitted when a leading-order-in-velocity formula is pushed past omega*R/c = 0.3."""


# ---------------------------------------------------------------------------
# rotating scalar disk
# ---------------------------------------------------------------------------

def disk_interior_frequency(model, Omega, omega, m):
    """Interior wavenumber of the rotating disk, scalar or array omega.

    ``m`` (like ``Omega``) is one value or, for an array omega, one per node.

    wt^2 = (eps(omega') - 1) * omega'^2 + omega^2 with omega' = omega - Omega*m.
    The square-root branch is fixed by sgn(Im wt) = sgn(omega'), which encodes
    gain versus loss in the comoving frame; for Im wt = 0 either branch gives
    the same scattering matrix through the parity of J_m.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    om_p = w - Omega * m
    # the (eps - 1) * omega'^2 product vanishes at omega' = 0 for any causal model
    wt2 = (w**2).astype(complex)
    moving = slice(None) if om_p.all() else om_p != 0.0  # a mask only when one is needed
    wt2[moving] = (model.epsilon(om_p[moving]) - 1.0) * om_p[moving] ** 2 + w[moving] ** 2
    wt = np.sqrt(wt2)
    flip = np.where(om_p >= 0, wt.imag < 0, wt.imag > 0)
    np.negative(wt, out=wt, where=flip)
    return wt if np.ndim(omega) else wt.item()


def disk_smatrix(model, R, Omega, omega, m):
    """Exact partial-wave scattering amplitude of the rotating 2D disk.

    Matches the regular interior solution J_m(wt r) to incoming plus outgoing
    cylindrical waves at r = R:

        S_m = - [d_R J_m(wt R) H2_m(wR) - J_m(wt R) d_R H2_m(wR)]
              / [d_R J_m(wt R) H1_m(wR) - J_m(wt R) d_R H1_m(wR)]

    Unitary for lossless media; sub-unitary for a lossy body at rest;
    super-unitary in the superradiant window of a lossy rotating body.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    wt, J, Jp, den = _disk_matching(model, R, Omega, w, m)
    zh = w * R
    H2, H2p = bessel.hankel_and_deriv(2, m, zh)
    num = wt * Jp * H2 - J * w * H2p
    S = -num / den
    return S if np.ndim(omega) else S.item()


def _disk_matching(model, R, Omega, w, m):
    """Interior wavenumber, J_m(wt R), J'_m(wt R) and the S-matrix denominator.

    J and H^(1) are evaluated once at each of the orders |m| and |m| - 1
    (four AMOS calls); the derivatives follow from the recurrence.
    """
    if not R > 0:
        raise DomainError("radius must be > 0")
    if (w <= 0).any():
        raise DomainError("disk scattering needs omega > 0")
    wt = disk_interior_frequency(model, Omega, w, m)
    zj = wt * R
    zh = w * R
    J, Jp = bessel.bessel_j_and_deriv(m, zj)
    H, Hp = bessel.hankel_and_deriv(1, m, zh)
    den = wt * Jp * H - J * w * Hp
    tiny = np.abs(den) < 1e-300
    if tiny.any():
        raise ResonanceError(f"disk S-matrix denominator underflow at omega={w[tiny][0]:g}, "
                             f"m={np.broadcast_to(m, w.shape)[tiny][0]}")
    return wt, J, Jp, den


def disk_flux(model, R, Omega, omega, m):
    """Flux factor 1 - |S_m|^2 of the disk, in cancellation-free form.

    With den the matching denominator of the scattering matrix and
    H^(2) = conj(H^(1)) at real omega*R, the difference of squared
    magnitudes collapses through the J/Y Wronskian to

        1 - |S|^2 = -(8 / pi R) Im[wt J'_m(wt R) conj(J_m(wt R))] / |den|^2,

    which is exactly zero for real wt (lossless media) and keeps most of its
    relative precision when |S| is within roundoff of 1: against mpmath it
    is within about 3e-10 of a flux of 2.5e-11, where 1 - |S|^2 formed
    from S would be off by about 1e-16/flux.  Nearer corotation the
    imaginary part is a smaller share of the product, and less is kept.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    wt, J, Jp, den = _disk_matching(model, R, Omega, w, m)
    F = -(8.0 / (np.pi * R)) * (wt * Jp * np.conj(J)).imag / np.abs(den) ** 2
    return F if np.ndim(omega) else F.item()


def disk_smatrix_smallvel(model, R, Omega, omega):
    """Leading-order deviation |S_1|^2 - 1 of the slowly rotating disk.

    Returns -(pi/8) omega^2 (omega - Omega)^2 R^4 Im eps(omega - Omega),
    valid for omega*R/c << 1 (a warning is emitted past 0.3).  Positive for
    omega < Omega (amplification), negative above, zero at omega = Omega.
    """
    if omega <= 0:
        raise DomainError("needs omega > 0")
    if omega * R >= SMALLVEL_LIMIT:
        warnings.warn(
            f"omega*R/c = {omega * R:.3g} is outside the small-velocity regime",
            SmallVelocityWarning,
            stacklevel=2,
        )
    om_p = omega - Omega
    if om_p == 0.0:
        return 0.0
    return -(np.pi / 8.0) * omega**2 * om_p**2 * R**4 * model.epsilon(om_p).imag


# ---------------------------------------------------------------------------
# EM sphere, dipole channel
# ---------------------------------------------------------------------------

def _dipole_alpha(model, R, om_p):
    w = np.atleast_1d(np.asarray(om_p, dtype=float))
    live = slice(None)  # every node: a mask only when one sits at omega' = 0
    if not w.all():
        try:
            sphere_polarizability(model, R, 0.0)
        except DomainError:
            live = w != 0.0  # Drude-like responses diverge at omega' = 0 but alpha -> R^3 there
    alpha = np.full(w.shape, complex(R**3))
    alpha[live] = sphere_polarizability(model, R, w[live])
    return alpha if np.ndim(om_p) else alpha.item()


def sphere_smatrix_dipole(model, R, Omega, omega, m):
    """l = 1 electric-dipole scattering amplitude S = 1 + i(4 w^3/3) alpha(w - Omega*m)."""
    if m not in (-1, 0, 1):
        raise DomainError("dipole channel has m in {-1, 0, 1}")
    if omega <= 0:
        raise DomainError("needs omega > 0")
    alpha = _dipole_alpha(model, R, omega - Omega * m)
    return 1.0 + 1j * (4.0 * omega**3 / 3.0) * alpha


def sphere_flux_dipole(model, R, Omega, omega, m):
    """Flux factor 1 - |S_{1mE}|^2 of the dipole channel to leading order, (8 w^3/3) Im alpha.

    That is the order of the closed-form radiation laws.  It drops the
    O(alpha^2) magnitude |X|^2 of X = (4 w^3/3) alpha(w - Omega*m), so it
    vanishes at corotation omega = Omega*m, and N stays integrable there.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    alpha = _dipole_alpha(model, R, w - Omega * m)
    F = (8.0 * w**3 / 3.0) * alpha.imag
    return F if np.ndim(omega) else F.item()


# ---------------------------------------------------------------------------
# EM cylinder, m = +-1 polarization block
# ---------------------------------------------------------------------------

def _cyl_response(model, om_p):
    # r = (eps' - 1)/(eps' + 1); -> 1 for diverging (metallic) eps'
    w = np.atleast_1d(np.asarray(om_p, dtype=float))
    live = slice(None)  # every node: a mask only when one sits at omega' = 0
    if not w.all():
        try:
            model.epsilon(0.0)
        except DomainError:
            live = w != 0.0
    eps = model.epsilon(w[live])
    den = eps + 1.0
    if (np.abs(den) < 1e-12).any():
        raise ResonanceError("eps = -1 surface-plasmon pole of the cylinder block")
    r = np.ones(w.shape, dtype=complex)
    r[live] = (eps - 1.0) / den
    return r if np.ndim(om_p) else r.item()


def cylinder_smatrix_block(model, R, Omega, omega, kz, m=1):
    """2x2 scattering block over polarizations (M, E) at |m| = 1.

    Diagonals 1 + (i pi/2) r {w^2, k_z^2} R^2 and symmetric off-diagonal
    (i pi/2) r w k_z R^2, with r = (eps(w - Omega*m) - 1)/(eps(w - Omega*m) + 1).
    Thin-cylinder form: valid for w R/c << 1 (warning past 0.3).
    """
    if m not in (-1, 1):
        raise DomainError("cylinder block is given for m = +-1")
    if omega <= 0:
        raise DomainError("needs omega > 0")
    if abs(kz) > omega:
        raise DomainError(f"|k_z| = {abs(kz):g} exceeds omega = {omega:g} (evanescent)")
    if omega * R >= SMALLVEL_LIMIT:
        warnings.warn(
            f"omega*R/c = {omega * R:.3g} is outside the thin-cylinder regime",
            SmallVelocityWarning,
            stacklevel=2,
        )
    r = _cyl_response(model, omega - Omega * m)
    g = 0.5j * np.pi * r * R**2
    return np.array(
        [
            [1.0 + g * omega**2, g * omega * kz],
            [g * omega * kz, 1.0 + g * kz**2],
        ],
        dtype=complex,
    )


def cylinder_flux_block(model, R, Omega, omega, kz, m=1):
    """Polarization-summed flux factor sum_{P,P'} (delta - |S_PP'|^2), to O(R^2).

    Truncates |S|^2 - 1 at O(R^2): pi * Im r * (w^2 + k_z^2) R^2, dropping
    all O(R^4) magnitudes, the order at which the thin-cylinder block
    satisfies the optical theorem.
    """
    scalar = np.ndim(omega) == 0 and np.ndim(kz) == 0
    w, kz = np.broadcast_arrays(np.atleast_1d(np.asarray(omega, dtype=float)), kz)
    evanescent = np.abs(kz) > w
    if evanescent.any():
        k, wk = kz[evanescent][0], w[evanescent][0]
        raise DomainError(f"|k_z| = {abs(k):g} exceeds omega = {wk:g} (evanescent)")
    r = _cyl_response(model, w - Omega * m)
    F = np.pi * r.imag * (w**2 + kz**2) * R**2
    return F.item() if scalar else F


# ---------------------------------------------------------------------------
# channel tables
# ---------------------------------------------------------------------------

class ChannelTable:
    """Diagonal-in-(omega, m) scattering data consumed by the radiation layer.

    The contract is what the channel engine reads: ``channels`` lists the
    (m, extra, pol) of every channel, ``omega_domain`` gives a channel's
    omega span and ``flux`` its flux factor.  Which channels radiate in a
    given thermal state is decided by ``radiation.channel_support``, not by
    the table.

    ``flux(omega, m, extra, pol, Omega)`` takes a scalar or an array omega;
    with an array, ``m`` may be one int or one int per node and ``Omega``
    one rate or one per node, so the channels (extra, pol) of every m and
    rate share one call.  Each node gets the bits of its own scalar call.

    ``smooth_flux`` says the flux is smooth in omega on each channel's
    support, as it is for every computed table; then a graded
    :class:`radiation.Stage` may integrate it in a variable that flattens
    the support's ends.
    """

    smooth_flux = True

    def channels(self, m_max):
        """(m, extra, pol) of every channel with |m| <= m_max, by m, then (repr(extra), pol)."""
        raise NotImplementedError

    def omega_domain(self, m, extra, pol):
        return (0.0, np.inf)

    def smatrix(self, omega, m, extra, pol, Omega):
        raise NotImplementedError

    def flux(self, omega, m, extra, pol, Omega):
        """1 - |S|^2 from ``smatrix``; computed tables override it with a stable form."""
        w = np.atleast_1d(np.asarray(omega, dtype=float))
        F = 1.0 - np.abs(self.smatrix(w, m, extra, pol, Omega)) ** 2
        return F if np.ndim(omega) else F.item()


class DiskTable(ChannelTable):
    """Exact scalar partial waves of a uniform disk of radius R."""

    def __init__(self, model, R):
        if R <= 0:
            raise DomainError("radius must be > 0")
        self.model = model
        self.R = R

    def channels(self, m_max):
        return [(m, None, "scalar") for m in range(-m_max, m_max + 1)]

    def flux(self, omega, m, extra, pol, Omega):
        return disk_flux(self.model, self.R, Omega, omega, m)


class SphereTable(ChannelTable):
    """EM dipole channels (l = 1, polarization E) of a sphere of radius R."""

    def __init__(self, model, R):
        if R <= 0:
            raise DomainError("radius must be > 0")
        self.model = model
        self.R = R

    def channels(self, m_max):
        return [(m, 1, "E") for m in (-1, 0, 1) if abs(m) <= m_max]

    def flux(self, omega, m, extra, pol, Omega):
        return sphere_flux_dipole(self.model, self.R, Omega, omega, m)


class CylinderTable(ChannelTable):
    """Thin cylinder of radius R and length L: the |m| = 1 block, k_z-integrated.

    One channel per m, labelled (None, "block"), whose flux is the
    polarization-summed block integrated over propagating axial wavenumbers
    k_z in [-w, w] with measure L dk_z / 2pi.  The block keeps the O(R^2)
    cross terms, the order at which the thin-cylinder blocks satisfy the
    optical theorem, so the k_z integral is done analytically.
    """

    def __init__(self, model, R, L):
        if R <= 0 or L <= 0:
            raise DomainError("R and L must be > 0")
        self.model = model
        self.R = R
        self.L = L

    def channels(self, m_max):
        return [(m, None, "block") for m in (-1, 1) if abs(m) <= m_max]

    def flux(self, omega, m, extra, pol, Omega):
        w = np.atleast_1d(np.asarray(omega, dtype=float))
        # truncated flux pi*Im r*(w^2 + kz^2)*R^2: the kz integral is 8 w^3/3
        r_im = _cyl_response(self.model, w - Omega * m).imag
        F = self.L / (2.0 * np.pi) * (np.pi * r_im * self.R**2 * (8.0 * w**3 / 3.0))
        return F if np.ndim(omega) else F.item()


class UserTable(ChannelTable):
    """Channels interpolated from user-supplied (omega, m, extra, pol, S) rows.

    The stored amplitudes are taken at face value: the rotation rate used by
    flux integrals only enters the Bose factors, so the table must have been
    generated at the same Omega.

    S is interpolated linearly between rows, so at T > 0 a channel needs a
    row at each corotation point omega = Omega*m inside its span: only there
    does the interpolated flux vanish, and elsewhere N carries a
    non-integrable T/(omega - Omega*m), which ``radiation.integrate_stages``
    reports as a :class:`DomainError`.  With one m per node, each m
    interpolates its own rows.

    The interpolated flux has a kink at every row, so it is not
    ``smooth_flux``: its channels keep plain bisection even in a graded
    stage, because grading moves the kinks off the bisection points (on a
    16-row disk table, m = 1, the entropy took 19 rounds graded against 9).
    """

    smooth_flux = False

    def __init__(self, groups, rows=None):
        # groups: {(m, extra, pol): (omega array, S complex array)}; rows, when the
        # table comes from a file: {(m, extra, pol): file row of each omega}
        if not groups:
            raise TableFormatError("channel table holds no rows")
        for key, (om, _) in groups.items():
            kz = key[1]  # a float label is an axial wavenumber: it must propagate
            if isinstance(kz, float) and (abs(kz) > om).any():
                i = int(np.argmax(abs(kz) > om))
                raise TableFormatError(f"|k_z|={abs(kz):g} exceeds omega={om[i]:g}",
                                       row=rows[key][i] if rows else None)
        self.groups = groups
        self.rows = rows

    def channels(self, m_max):
        return sorted((key for key in self.groups if abs(key[0]) <= m_max),
                      key=lambda key: (key[0], repr(key[1]), key[2]))

    def omega_domain(self, m, extra, pol):
        om, _ = self.groups[(m, extra, pol)]
        return (float(om[0]), float(om[-1]))

    def smatrix(self, omega, m, extra, pol, Omega):
        if np.ndim(m):  # one m per node: each channel interpolates its own rows
            w = np.asarray(omega, dtype=float)
            Sw = np.empty(w.shape, dtype=complex)
            for mm in dict.fromkeys(m.tolist()):  # in order of first appearance
                at = m == mm
                Sw[at] = self.smatrix(w[at], mm, extra, pol, Omega)
            return Sw
        try:
            om, S = self.groups[(m, extra, pol)]
        except KeyError:
            raise DomainError(f"no channel (m={m}, extra={extra}, pol={pol}) in table") from None
        w = np.atleast_1d(np.asarray(omega, dtype=float))
        outside = (w < om[0]) | (w > om[-1])
        if outside.any():
            raise DomainError(
                f"omega={w[outside][0]:g} outside the tabulated span of the channel"
            )
        Sw = np.interp(w, om, S.real) + 1j * np.interp(w, om, S.imag)
        return Sw if np.ndim(omega) else Sw.item()


_POLS = ("scalar", "E", "M")


def _parse_extra(text):
    text = text.strip()
    if not text:
        return None
    try:
        return int(text)
    except ValueError:
        return float(text)


def load_channel_table(path):
    """Load a channel table CSV with header omega,m,extra,pol,ReS,ImS.

    Strict schema: per-channel omega strictly increasing, |k_z| <= omega for
    float 'extra' rows (checked by :class:`UserTable`, so that a caller that
    rescales the columns checks the rescaled values), polarizations limited
    to scalar/E/M.  Violations raise :class:`TableFormatError` carrying the
    offending row number.
    """
    groups = {}  # (m, extra, pol) -> (file row, omega, S) of each row, in file order
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        expect = ["omega", "m", "extra", "pol", "ReS", "ImS"]
        if header is None or [h.strip() for h in header] != expect:
            raise TableFormatError(f"expected header {','.join(expect)!r}")
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 6:
                raise TableFormatError("expected 6 columns", row=i)
            try:
                omega = float(row[0])
                m = int(row[1])
                extra = _parse_extra(row[2])
                pol = row[3].strip()
                S = complex(float(row[4]), float(row[5]))
            except ValueError as exc:
                raise TableFormatError(str(exc), row=i) from exc
            if not np.isfinite([omega, extra or 0.0, S.real, S.imag]).all():  # a None extra: 0
                raise TableFormatError("omega, extra, ReS and ImS must be finite", row=i)
            if omega <= 0:
                raise TableFormatError("omega must be > 0", row=i)
            if pol not in _POLS:
                raise TableFormatError(f"pol must be one of {_POLS}", row=i)
            groups.setdefault((m, extra, pol), []).append((i, omega, S))
    packed, rows = {}, {}
    for key, entries in groups.items():
        for (i0, w0, _), (i1, w1, _) in zip(entries[:-1], entries[1:]):
            if w1 <= w0:
                raise TableFormatError(
                    f"omega grid of channel {key} not strictly increasing", row=i1
                )
        om = np.array([w for (_, w, _) in entries])
        S = np.array([s for (_, _, s) in entries], dtype=complex)
        packed[key] = (om, S)
        rows[key] = [i for (i, _, _) in entries]
    return UserTable(packed, rows)
