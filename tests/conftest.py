"""Suite-wide test settings.

``pytest.approx(x, rel=r)`` also accepts anything within an absolute 1e-12
of x, which passes every comparison of values below about 1e-12 (torques of
1e-19, fluxes of 1e-11) whatever their ratio.  Here a ``rel`` given without
``abs`` means ``abs=0``: a relative tolerance is relative.  A comparison that
wants an absolute floor names it.
"""

import pytest

_approx = pytest.approx


def _strict_approx(expected, rel=None, abs=None, nan_ok=False):
    if rel is not None and abs is None:
        abs = 0.0
    return _approx(expected, rel=rel, abs=abs, nan_ok=nan_ok)


pytest.approx = _strict_approx
