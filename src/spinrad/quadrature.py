"""Shared adaptive quadrature used by the radiation, statistics and two-body layers.

A QUADPACK-style adaptive Gauss-Kronrod engine (Piessens et al. 1983) with
the 21-point Kronrod extension of the 10-point Gauss rule on every panel.
Its error estimate and stopping rule are those of ``scipy.integrate.quad_vec``
(max norm over vector components, global error below tol/8, rounding-error
floor), but each refinement round bisects up to ``BATCH_PANELS`` panels of
largest error and hands the nodes of all their halves to the integrand in a
single call.

Integrand contract: ``f(w)`` receives a 1-D float array of nodes and returns
values with the nodes on the last axis, shape ``(..., len(w))``.  Nodes are
strictly interior to (a, b), so integrable endpoint singularities (the
removable n(omega - Omega*m) divergence) are never evaluated.  Vector
components share panels, which keeps linear identities such as
Q = Omega*M - P exact to roundoff.

Bit-identity rules: the rule's arithmetic keeps its order and stays in
numpy array operations (the ``** 1.5`` of the error estimate included:
numpy's float64 ``power`` and Python's ``**`` differ in the last bit on
some inputs), reductions are ndarray methods over the same contiguous
axes, and temporaries are reused in place, never reassociated.
"""

import heapq
import sys

import numpy as np

from .errors import ConvergenceError

# Kronrod nodes on [-1, 1]; the Gauss nodes are the odd entries
_XK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_XK = np.concatenate([_XK, -_XK[-2::-1]])
_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208292237851, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WK = np.concatenate([_WK, _WK[-2::-1]])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_WG = np.concatenate([_WG, _WG[::-1]])

BATCH_PANELS = 128  # panels bisected per refinement round
EPSABS = 1e-300  # absolute tolerance: in effect, the relative tolerance alone decides
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min


def _gk21(f, lo, hi):
    """GK21 on the panels (lo[i], hi[i]) with one integrand call.

    Returns (integrals, errors, rounding errors); integrals carry the panel
    index on the last axis, the two error arrays are per panel.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    nodes = (c[:, None] + h[:, None] * _XK).ravel()
    fv = np.asarray(f(nodes), dtype=float)
    if fv.shape[-1:] != nodes.shape:
        raise ValueError(
            f"integrand returned shape {fv.shape} for {nodes.size} nodes; "
            "the nodes must be on the last axis"
        )
    fv = fv.reshape(fv.shape[:-1] + (len(lo), _XK.size))
    # weighted sums by reduction, not BLAS, so the bits never depend on alignment;
    # reductions are ndarray methods, which skip the np.sum/np.amax dispatch
    s_k = (fv * _WK).sum(axis=-1)
    s_g = (fv[..., 1::2] * _WG).sum(axis=-1)
    t = np.abs(fv)
    t *= _WK
    s_k_abs = t.sum(axis=-1)
    t = fv - 0.5 * s_k[..., None]
    np.abs(t, out=t)
    t *= _WK
    s_k_dabs = t.sum(axis=-1)
    axes = tuple(range(fv.ndim - 2))  # component axes, reduced by the max norm
    err = np.abs((s_k - s_g) * h).max(axis=axes, initial=0.0)
    dabs = np.abs(s_k_dabs * h).max(axis=axes, initial=0.0)
    scaled = (dabs != 0) & (err != 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(dabs, np.minimum(1.0, (200.0 * err / dabs) ** 1.5), out=err, where=scaled)
    round_err = (50.0 * _EPS * h * s_k_abs).max(axis=axes, initial=0.0)
    np.maximum(err, round_err, out=err, where=round_err > _TINY)
    return h * s_k, err, round_err


def adaptive_integral(f, a, b, *, epsrel=1e-9, limit=300):
    """Integrate a scalar or vector integrand over (a, b).

    ``f`` takes a 1-D array of nodes and returns values with the nodes on the
    last axis.  Returns (value, error_estimate); value has the integrand's
    component shape.  Raises :class:`ConvergenceError` naming the interval
    when the subdivision limit is hit without meeting the tolerance, or when
    the integrand returns non-finite values.
    """
    if b <= a:
        # no node to evaluate: an empty call only reveals the component shape
        shape = np.shape(f(np.empty(0)))[:-1]
        return np.zeros(shape)[()], 0.0

    # the first round always bisects the whole interval: evaluate the whole
    # panel and both halves in one call
    mid = 0.5 * (a + b)
    vals, errs, rnds = _gk21(f, np.array([a, a, mid]), np.array([b, mid, b]))
    total = vals[..., 1] + vals[..., 2]
    error = errs[1] + errs[2]
    rounding = rnds[0] + rnds[1] + rnds[2]
    panels = [(-errs[1], a, mid), (-errs[2], mid, b)]
    heapq.heapify(panels)
    cache = {(a, mid): vals[..., 1], (mid, b): vals[..., 2]}

    success = False
    while True:
        tol = max(EPSABS, epsrel * np.abs(total).max())
        if error < tol / 8:
            success = True
            break
        if error < rounding or not (np.isfinite(error) and np.isfinite(rounding)):
            break
        if len(panels) >= limit:
            break
        # bisect the panels of largest error, up to BATCH_PANELS of them,
        # stopping once the popped error would already meet the tolerance
        popped = []
        err_sum = 0.0
        while panels and len(popped) < BATCH_PANELS:
            if popped and err_sum > error - tol / 8:
                break
            neg_err, lo, hi = heapq.heappop(panels)
            popped.append((lo, hi))
            err_sum -= neg_err
        lo, hi = np.array(popped).T
        mid = 0.5 * (lo + hi)
        vals, errs, rnds = _gk21(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        k = len(popped)
        old = np.stack([cache.pop(p) for p in popped], axis=-1)
        total = total + (vals[..., :k] + vals[..., k:] - old).sum(axis=-1)
        error += float((errs[:k] + errs[k:]).sum()) - err_sum
        rounding += float(rnds.sum())
        for i, (p_lo, p_hi) in enumerate(popped):
            m = float(mid[i])
            for j, (x1, x2) in ((i, (p_lo, m)), (k + i, (m, p_hi))):
                cache[(x1, x2)] = vals[..., j]
                heapq.heappush(panels, (-float(errs[j]), x1, x2))

    err = float(error + rounding)
    scale = float(np.abs(total).max())
    if not success and not err <= max(EPSABS, epsrel * scale) * 50:  # NaN fails too
        raise ConvergenceError(
            f"quadrature on ({a:g}, {b:g}) stalled: err={err:g} after {len(panels)} panels"
        )
    return total[()], err

