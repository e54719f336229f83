"""Shared adaptive quadrature used by the radiation, statistics and two-body layers.

A QUADPACK-style adaptive Gauss-Kronrod engine (Piessens et al. 1983) with
the 21-point Kronrod extension of the 10-point Gauss rule on every panel.
Its error estimate and stopping rule are those of ``scipy.integrate.quad_vec``
(max norm over vector components, global error below tol/8, rounding-error
floor), but each refinement round bisects up to ``BATCH_PANELS`` panels of
largest error and hands the nodes of all their halves to the integrand in a
single call.  Unlike ``quad_vec``, which evaluates each whole interval first
and then replaces it by its halves, the engine never evaluates the whole
interval: the first round bisects it like any other panel.  So the totals,
the error and the rounding-error floor are sums over the evaluated panels.

One engine serves one integral or a batch of K independent ones, which
advance in lock-step: each round makes one integrand call and one GK21
pass over the bisected panels of every unfinished integral, while each
integral keeps its own panel heap, panel values, totals, ``BATCH_PANELS``
cap and stopping rule.  So a batch costs one call per round instead of one
per integral and round, and every integral ends with the bits it has alone.

Integrand contract: for one interval ``f(w)`` receives a 1-D float array
of nodes; for a batch ``f((w, k))`` receives one argument, the nodes and
their owners (k[i] is the index of the interval node w[i] belongs to).
Either way it returns values with the nodes on the last axis, shape
``(..., len(w))``, the same component shape for every integral.  Nodes
are strictly interior to their interval, so integrable endpoint
singularities (the removable n(omega - Omega*m) divergence) are never
evaluated.  Vector components share panels, which keeps linear identities
such as Q = Omega*M - P exact to roundoff.

Bit-identity rules: the rule's arithmetic keeps its order and stays in
numpy array operations (the ``** 1.5`` of the error estimate included:
numpy's float64 ``power`` and Python's ``**`` differ in the last bit on
some inputs), reductions are ndarray methods over the same contiguous
axes, and temporaries are reused in place, never reassociated.  In a
batch every per-panel quantity is elementwise or reduced within its panel,
and every per-integral sum (the panel totals, the error and rounding
sums) runs over that integral's own contiguous slice, left halves before
right halves, as it does alone.
"""

import heapq
import sys

import numpy as np

from .errors import ConvergenceError, DomainError

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


def _gk21(f, lo, hi, owner):
    """GK21 on the panels (lo[i], hi[i]) with one integrand call.

    ``owner[i]`` is the batch member panel i belongs to: the integrand gets
    the nodes and the owner of each node, or the nodes alone when ``owner``
    is None.  Returns (integrals, errors, rounding errors); integrals carry
    the panel index on the last axis, the two error arrays are per panel.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    nodes = (c[:, None] + h[:, None] * _XK).ravel()
    fv = np.asarray(f(nodes if owner is None else (nodes, owner.repeat(_XK.size))), dtype=float)
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


class _Member:
    """One integral of a batch: its panel heap and running totals.

    A heap entry is (-error, lo, hi, value), one per panel.  No two panels of
    an integral share (lo, hi), so the heap never compares values.  A member
    starts with nothing evaluated: its first round bisects the entry
    (0.0, a, b, 0.0) of the whole interval, which is never evaluated, and
    since -0.0 + x is x for every x, its total then has the bits of
    left + right.
    """

    __slots__ = ("k", "a", "b", "epsrel", "total", "error", "rounding", "heap", "success")

    def __init__(self, k, a, b, epsrel):
        self.k, self.a, self.b, self.epsrel = k, a, b, epsrel
        self.total, self.error, self.rounding = -0.0, 0.0, 0.0
        self.heap = []
        self.success = False

    def pop(self, limit):
        """Pop the heap entries of the panels to bisect this round; [] once stopped.

        Bisects the panels of largest error, up to ``BATCH_PANELS`` of them
        and never more than would take the heap past ``limit`` panels,
        stopping once the popped error would already meet the tolerance.
        """
        error = self.error
        tol = max(EPSABS, self.epsrel * np.abs(self.total).max())
        if error < tol / 8:
            self.success = True
            return []
        rounding = self.rounding
        if error < rounding or not (np.isfinite(error) and np.isfinite(rounding)):
            return []
        heap = self.heap
        room = min(BATCH_PANELS, limit - len(heap))  # each bisection adds one panel
        popped = []
        err_sum = 0.0
        while heap and len(popped) < room:
            if popped and err_sum > error - tol / 8:
                break
            popped.append(heapq.heappop(heap))
            err_sum -= popped[-1][0]
        return popped

    def update(self, popped, vals, errs, rnds, errs_list, mids, s):
        """Replace the popped panels by their halves, at s.. (left) and s + k.. (right)."""
        k = len(popped)
        heap = self.heap
        err_sum = 0.0
        for neg_err, *_ in popped:
            err_sum -= neg_err
        old = np.stack([value for *_, value in popped], axis=-1)
        self.total = self.total + (vals[..., s:s + k] + vals[..., s + k:s + 2 * k] - old).sum(
            axis=-1)
        self.error += float((errs[s:s + k] + errs[s + k:s + 2 * k]).sum()) - err_sum
        self.rounding += float(rnds[s:s + 2 * k].sum())
        for i, (_, p_lo, p_hi, _) in enumerate(popped):
            m = mids[i]
            for j, x1, x2 in ((s + i, p_lo, m), (s + k + i, m, p_hi)):
                heapq.heappush(heap, (-errs_list[j], x1, x2, vals[..., j]))

    def result(self):
        """The error estimate, or None when the integral stalled short of its tolerance."""
        err = float(self.error + self.rounding)
        scale = float(np.abs(self.total).max())
        if not self.success and not err <= max(EPSABS, self.epsrel * scale) * 50:  # NaN fails
            return None
        return err


def adaptive_integral(f, a, b, *, epsrel=1e-9, limit=300):
    """Integrate a scalar or vector integrand over (a, b), or a batch of intervals.

    With scalar ``a``, ``b``: ``f`` takes a 1-D array of nodes and returns
    values with the nodes on the last axis; returns (value, error_estimate),
    value of the integrand's component shape.

    With 1-D arrays ``a``, ``b`` of K intervals (``epsrel`` a scalar or one
    per interval), the K integrals advance in lock-step: ``f`` takes one
    argument, the pair (nodes, owners) of 1-D arrays, owners[i] the index of
    the interval node i belongs to, and is called once per round for every
    unfinished integral.  Returns (values, errors), the lists of the K
    integrals' values (of the component shape) and errors.  Each integral
    keeps its own panels, totals and stopping rule, so its value and error
    are those of a batch of one.

    Raises :class:`ConvergenceError` naming the interval when an integral
    hits the subdivision limit without meeting the tolerance, or when the
    integrand returns non-finite values; its ``index`` is the interval's
    position in the batch (the first such one).  Every other integral of the
    batch still runs to its own end first.  A non-finite bound raises
    :class:`DomainError` naming the interval and its position, before any call.
    """
    batch = np.ndim(a) > 0
    a = np.asarray(a, dtype=float).reshape(-1).tolist()
    b = np.asarray(b, dtype=float).reshape(-1).tolist()
    eps = list(epsrel) if np.ndim(epsrel) else [epsrel] * len(a)
    for k, (lo, hi) in enumerate(zip(a, b)):
        if not np.isfinite([lo, hi]).all():
            raise DomainError(f"interval ({lo:g}, {hi:g}) at batch position {k} is not finite")
    members = [_Member(k, *args) for k, args in enumerate(zip(a, b, eps))]

    shape = None
    # round 1 bisects each whole interval, which is never evaluated itself
    running = [(mb, [(0.0, mb.a, mb.b, 0.0)]) for mb in members if mb.b > mb.a]
    while running := [(mb, popped) for mb, popped in running if popped]:
        plo, phi = np.array([entry[1:3] for _, popped in running for entry in popped]).T
        pmid = 0.5 * (plo + phi)
        # member j, with popped panels o_j .. o_j + k_j, takes the left halves
        # at 2*o_j + [0, k_j) and the right halves at 2*o_j + k_j + [0, k_j)
        lo, hi, offsets = [], [], []
        o = 0
        for _, popped in running:
            k = len(popped)
            lo += (plo[o:o + k], pmid[o:o + k])
            hi += (pmid[o:o + k], phi[o:o + k])
            offsets.append(o)
            o += k
        owner = None
        if batch:
            owner = np.array([mb.k for mb, _ in running]).repeat(
                [2 * len(popped) for _, popped in running])
        vals, errs, rnds = _gk21(f, np.concatenate(lo), np.concatenate(hi), owner)
        shape = vals.shape[:-1]
        errs_list = errs.tolist()
        mids = pmid.tolist()
        for (mb, popped), o in zip(running, offsets):
            mb.update(popped, vals, errs, rnds, errs_list, mids[o:o + len(popped)], 2 * o)
        running = [(mb, mb.pop(limit)) for mb, _ in running]

    if shape is None:  # no interval to evaluate: an empty call only reveals the component shape
        shape = np.shape(f((np.empty(0), np.empty(0, dtype=int)) if batch else np.empty(0)))[:-1]
    totals, errors = [], []
    for k, mb in enumerate(members):
        if mb.b <= mb.a:
            totals.append(np.zeros(shape))
            errors.append(0.0)
            continue
        err = mb.result()
        if err is None:
            raise ConvergenceError(
                f"quadrature on ({mb.a:g}, {mb.b:g}) stalled: "
                f"err={float(mb.error + mb.rounding):g} after {len(mb.heap)} panels",
                index=k,
            )
        totals.append(mb.total)
        errors.append(err)
    if batch:
        return totals, errors
    return totals[0][()], errors[0]
