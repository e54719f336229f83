"""Cylindrical Bessel and Hankel functions of integer order.

Thin, guarded layer over ``scipy.special`` (AMOS) providing J_m and
H^(1,2)_m of complex argument, each alone or paired with its derivative
from the exact recurrence C'_m(z) = C_{m-1}(z) - (m/z) C_m(z), and the
Hankel Wronskian used by the disk scattering matrix (the only user of Y_m).
Orders are capped at |m| <= 200 and arguments at |z| <= 1e4; outside that
range, or when the backend overflows, a :class:`DomainError` naming the first
offending argument is raised instead of returning NaN.

Every function takes a scalar or an array argument and returns the same
kind; arrays are evaluated element by element with the scalar arithmetic.
An overflow, or an argument past the cap, raises
:class:`NumericDomainError`, the fault of a computation rather than of its
input.

Bit-identity rules: the AMOS calls stay numpy ufunc calls on arrays; the
J and H derivative recurrences divide by the complex argument even when it
is real (``k / z`` as a complex division rounds differently from a real
one), the Y recurrence by the real one; and the fast path of ``bessel_j``
(no real argument: one AMOS call on the whole array) takes empty input and
gives the same bits as the masked path.
"""

import functools

import numpy as np

from .errors import DomainError, NumericDomainError

ORDER_MAX = 200
ARG_MAX = 1.0e4


@functools.cache
def _sc():
    """scipy.special, imported on the first Bessel call rather than with the package."""
    import scipy.special

    return scipy.special


def _first(z, mask):
    """The first entry of z where mask holds, as a Python number."""
    return np.broadcast_to(z, np.shape(mask)).ravel()[np.argmax(np.ravel(mask))].item()


def _array(z, dtype=complex):
    return np.atleast_1d(np.asarray(z, dtype=dtype))


def _out(value, like):
    """Scalar in, scalar out: unwrap the one-element result of a scalar call."""
    return value if np.ndim(like) else value.item()


def _check(m, z, *, nonzero=False):
    if int(m) != m:
        raise DomainError(f"order must be an integer, got {m!r}")
    if abs(m) > ORDER_MAX:
        raise DomainError(f"order |m|={abs(m)} exceeds cap {ORDER_MAX}")
    az = np.abs(z)
    big = az > ARG_MAX
    if big.any():
        raise NumericDomainError(f"|z|={_first(az, big):g} exceeds cap {ARG_MAX:g}")
    if nonzero and (az == 0).any():
        raise DomainError("argument z = 0 is singular here")


def _guard(value, what, m, z):
    bad = ~np.isfinite(value)
    if bad.any():
        raise NumericDomainError(f"{what} overflowed at order {m}, argument {_first(z, bad)!r}")
    return value


_AMOS = {"Y": "yv", "H1": "hankel1", "H2": "hankel2"}


def _cyl(kind, m, z):
    """C_m on a checked array: J, H1 or H2 of complex z, or Y of real x.

    AMOS is called at order |m| and the result reflected by (-1)^m.
    """
    k = abs(m)
    if kind == "J":
        real = z.imag == 0.0
        if real.any():
            C = np.empty(z.shape, dtype=complex)
            # the complex AMOS path leaves ~1e-18 imaginary crumbs on real input,
            # which would break exact identities (e.g. zero flux at corotation)
            C[real] = _sc().jv(k, z.real[real])
            C[~real] = _sc().jv(k, z[~real])
            C[z == 0] = 1.0 if m == 0 else 0.0
        else:  # no real argument: one AMOS call on the whole array
            C = _sc().jv(k, z)
    else:
        C = getattr(_sc(), _AMOS[kind])(k, z)
    C = _guard(C, kind, m, z)
    return (-1) ** (-m) * C if m < 0 else C


def _and_deriv(kind, m, z):
    """(C_m, C'_m) on a checked array by C'_m = C_{m-1} - (m/z) C_m, z divided as given."""
    k = abs(m)
    C = _cyl(kind, k, z)
    if kind == "J":  # J_m ~ (z/2)^m / m!: the derivative at the origin is set apart
        zero = z == 0
        d = _cyl(kind, k - 1, z) - (k / np.where(zero, 1.0, z)) * C
        d[zero] = 0.5 if k == 1 else 0.0
    else:
        d = _cyl(kind, k - 1, z) - (k / z) * C
    if m < 0:
        C, d = (-1) ** (-m) * C, (-1) ** (-m) * d
    return C, d


def bessel_j(m, z):
    """Bessel function of the first kind J_m(z), integer m, complex z."""
    _check(m, z)
    return _out(_cyl("J", m, _array(z)), z)


def bessel_j_and_deriv(m, z):
    """(J_m(z), dJ_m/dz): J is evaluated once at each of the orders |m| and |m| - 1."""
    _check(m, z)
    J, d = _and_deriv("J", m, _array(z))
    return _out(J, z), _out(d, z)


def _kind(kind):
    if kind not in (1, 2):
        raise DomainError(f"kind must be 1 or 2, got {kind!r}")
    return f"H{kind}"


def hankel(kind, m, z):
    """Hankel function H^(kind)_m(z) of the first (1) or second (2) kind."""
    name = _kind(kind)
    _check(m, z, nonzero=True)
    return _out(_cyl(name, m, _array(z)), z)


def hankel_and_deriv(kind, m, z):
    """(H^(kind)_m(z), dH^(kind)_m/dz), evaluating H once at each of |m| and |m| - 1."""
    name = _kind(kind)
    _check(m, z, nonzero=True)
    H, d = _and_deriv(name, m, _array(z))
    return _out(H, z), _out(d, z)


def wronskian_h1h2(m, x):
    """Wronskian H^(1)_m(x) d/dx H^(2)_m(x) - d/dx H^(1)_m(x) H^(2)_m(x).

    Equals -4i/(pi x) for every order.  Expanding H^(1,2) = J +- iY reduces
    the combination to -2i (J_m Y'_m - J'_m Y_m); that form is evaluated
    here because the direct product of Hankel functions loses all digits to
    cancellation once |H_m(x)| is large (high order, small argument).
    """
    xa = _array(x, float)
    if (xa <= 0).any():
        raise DomainError(f"Wronskian needs x > 0, got {_first(xa, xa <= 0)!r}")
    j, jp = (v.real for v in bessel_j_and_deriv(m, xa))
    y, yp = _and_deriv("Y", m, xa)
    return _out(-2j * (j * yp - jp * y), x)
