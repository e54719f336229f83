"""Heap-based lock-step quadrature: the oracle the panel table engine is tested against.

One ``_Member`` per integral of a batch, each with its own ``heapq`` heap of
(-error, lo, hi, value) panel entries, advanced in lock-step over the
production GK21 rule.  The panel table of ``spinrad.quadrature`` must
reproduce it bit for bit: values, errors, exceptions, messages and the
``index`` of a :class:`ConvergenceError`.
"""

import heapq

import numpy as np

from spinrad.errors import ConvergenceError, DomainError
from spinrad.quadrature import BATCH_PANELS, EPSABS, _gk21

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
    g = f if batch else (lambda x: f(x[0]))  # the production rule hands over (nodes, owners)
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
        owner = np.array([mb.k for mb, _ in running]).repeat(
            [2 * len(popped) for _, popped in running])
        vals, errs, rnds = _gk21(g, np.concatenate(lo), np.concatenate(hi), owner)
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
