"""Adaptive quadrature behind the channel engine of ``radiation.integrate_stages``.

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

The engine integrates a batch of K independent integrals in lock-step:
each round makes one integrand call and one GK21 pass over the bisected
panels of every unfinished integral.  A batch keeps one panel table,
parallel arrays of each panel's bounds, error, owner and value, beside
each integral's total, error and rounding sums and panel count.  Each
round sorts the table by (owner, -error, lo, hi): per integral, the order
in which a heap of (-error, lo, hi) entries pops its panels, ties
included.  Each integral then takes its own prefix under its own
``BATCH_PANELS`` cap and stopping rule.  So a batch costs one call per
round instead of one per integral and round, and every integral ends with
the bits it has alone.

Integrand contract: ``f((w, k))`` receives one argument, the 1-D float
array of nodes and their owners (k[i] is the index of the interval node
w[i] belongs to).  It returns values with the nodes on the last axis,
shape ``(..., len(w))``, the same component shape for every integral.
An infinite or NaN value stalls its integral with no floating-point
warning from the engine's arithmetic; the integrand is called outside
that suppression, so its own warnings surface.  Nodes are strictly
interior to their interval, so integrable endpoint singularities (the
removable n(omega - Omega*m) divergence) are never evaluated.  Vector
components share panels, which keeps linear identities such as
Q = Omega*M - P exact to roundoff.

Bit-identity rules: the rule's arithmetic keeps its order and stays in
numpy array operations (the ``** 1.5`` of the error estimate included:
numpy's float64 ``power`` and Python's ``**`` differ in the last bit on
some inputs), reductions are ndarray methods over the same contiguous
axes, and temporaries are reused in place, never reassociated.  In a
batch every per-panel quantity is elementwise or reduced within its panel,
and every per-integral sum (the panel totals, the error and rounding
sums) runs over that integral's own contiguous slice, left halves before
right halves, as it does alone.  Panel values leave the table in C order,
by ``take``: a fancy index ``vals[..., idx]`` is strided along the node
axis, and a sum over slices of it rounds in another order.  The error of
the panels an integral takes is a ``cumsum``, which adds in sequence like
a running sum.
"""

import math
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
    the nodes and the owner of each node.  Returns (integrals, errors,
    rounding errors); integrals carry the panel index on the last axis, the
    two error arrays are per panel.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    nodes = (c[:, None] + h[:, None] * _XK).ravel()
    fv = np.asarray(f((nodes, owner.repeat(_XK.size))), dtype=float)
    if fv.shape[-1:] != nodes.shape:
        raise ValueError(
            f"integrand returned shape {fv.shape} for {nodes.size} nodes; "
            "the nodes must be on the last axis"
        )
    fv = fv.reshape(fv.shape[:-1] + (len(lo), _XK.size))
    with np.errstate(all="ignore"):  # the integrand is called outside, so its warnings surface
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
        np.multiply(dabs, np.minimum(1.0, (200.0 * err / dabs) ** 1.5), out=err, where=scaled)
        round_err = (50.0 * _EPS * h * s_k_abs).max(axis=axes, initial=0.0)
        np.maximum(err, round_err, out=err, where=round_err > _TINY)
        return h * s_k, err, round_err


def adaptive_integral(f, a, b, *, epsrel=1e-9, limit=300):
    """Integrate K scalar or vector integrands over the intervals (a[k], b[k]) in lock-step.

    ``a`` and ``b`` are 1-D sequences of K bounds, ``epsrel`` a scalar or
    one per interval.  ``f`` takes one argument, the pair (nodes, owners) of
    1-D arrays, owners[i] the index of the interval node i belongs to, and
    returns values with the nodes on the last axis; it is called once per
    round for every unfinished integral.  Returns (values, errors), the
    lists of the K integrals' values (of the component shape) and errors.
    Each integral keeps its own panels, totals and stopping rule, so its
    value and error are those of a batch of one.

    Raises :class:`ConvergenceError` naming the interval when an integral
    hits the subdivision limit without meeting the tolerance, or when the
    integrand returns non-finite values; its ``index`` is the interval's
    position in the batch (the first such one).  Every other integral of the
    batch still runs to its own end first.  Raises :class:`DomainError`
    naming the batch position, before any call, when ``a`` or ``b`` is not
    1-D, when ``a``, ``b`` and an ``epsrel`` array differ in length, when a
    bound is not finite, or when an ``epsrel`` is not a finite number > 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise DomainError(f"a and b must be 1-D sequences of bounds, not of shapes "
                          f"{a.shape} and {b.shape}")
    eps = np.asarray(epsrel, dtype=float)
    eps = eps.reshape(-1) if eps.ndim else eps.repeat(a.size)
    for name, x in (("b", b), ("epsrel", eps)):
        if x.size != a.size:
            k = min(a.size, x.size)
            raise DomainError(f"a has {a.size} entries and {name} has {x.size}: "
                              f"batch position {k} is missing from {name if k == x.size else 'a'}")
    ok = np.isfinite(a) & np.isfinite(b)
    if not ok.all():
        k = int(ok.argmin())
        raise DomainError(f"interval ({a[k]:g}, {b[k]:g}) at batch position {k} is not finite")
    ok = (eps > 0) & (eps < np.inf)
    if not ok.all():
        k = int(ok.argmin())
        raise DomainError(f"epsrel={eps[k]:g} at batch position {k} is not a finite number > 0")

    live = b > a
    total = None  # one row per member, of the integrand's component shape
    error, rounding = [0.0] * a.size, [0.0] * a.size
    n_panels = live.astype(int)
    keys = np.empty((4, 0))  # per panel (hi, lo, -error, owner): np.lexsort's keys, last first
    # round 1 bisects each whole interval, which is never evaluated itself but counts as a panel
    run = live.nonzero()[0]
    take = count = n_panels[run]
    plo, phi, old, err_sums = a[run], b[run], np.zeros(run.size), [0.0] * run.size
    while run.size:
        # member j, with taken panels o_j .. o_j + k_j, puts the left halves at
        # 2*o_j + [0, k_j) and the right halves after them: a stable sort of
        # the doubled owners of the taken panels, which run in member order
        pmid = 0.5 * (plo + phi)
        owner = run.repeat(take)
        layout = np.concatenate([owner, owner]).argsort(kind="stable")
        new = np.array([[pmid, phi], [plo, pmid], [pmid, pmid], [owner, owner]])
        new = new.reshape(4, -1).take(layout, axis=1)  # the halves' keys; -error comes below
        vals, errs, rnds = _gk21(f, new[1], new[0], run.repeat(2 * take))
        with np.errstate(all="ignore"):  # inf or NaN values make a NaN error: the member stalls
            np.negative(errs, out=new[2])
            if total is None:  # -0.0 + x is x for every x: a total has the bits of its first sum
                total, values = -np.zeros((a.size,) + vals.shape[:-1]), vals[..., :0]
            # each member adds one slice sum each to its total, error and rounding sums,
            # then stops once it meets tol/8, stalls on rounding or reaches the limit
            count = n_panels[run] = count + take  # each bisection adds one panel
            offsets = take.cumsum() - take
            go, thr = [], []
            for j, o, k, err_sum, n, rel in zip(run.tolist(), offsets.tolist(), take.tolist(),
                                                 err_sums, count.tolist(), eps[run].tolist()):
                s = 2 * o
                total[j] = total[j] + (vals[..., s:s + k] + vals[..., s + k:s + 2 * k]
                                       - old[..., o:o + k]).sum(axis=-1)
                error[j] += float((errs[s:s + k] + errs[s + k:s + 2 * k]).sum()) - err_sum
                rounding[j] += float(rnds[s:s + 2 * k].sum())
                e, r = error[j], rounding[j]
                tol8 = max(EPSABS, rel * float(abs(total[j]).max())) / 8
                go.append(not (e < tol8 or e < r or not (math.isfinite(e) and math.isfinite(r))
                               or n >= limit))
                thr.append(e - tol8)
            if not any(go):
                break
            keys = np.concatenate([keys, new], axis=1)
            values = np.concatenate([values, vals], axis=-1)
            go = np.array(go)
            # rank the live panels of each member in heap order; drop the stopped members'
            order = np.lexsort(keys)
            rank = np.arange(order.size) - (count.cumsum() - count).repeat(count)
            mine = go.repeat(count)
            order, rank = order[mine], rank[mine]
            run, count, thr = run[go], count[go], np.array(thr)[go]
            room = np.minimum(np.minimum(limit - count, count), BATCH_PANELS)
            # a member takes its first panel, and the next while the error taken before it is
            # <= thr: along its zero-padded row of errors, cumsum adds in sequence like the heap's
            rows = np.arange(run.size)
            popped = np.zeros((run.size, count.max()))
            popped[rows.repeat(count), rank] = -keys[2, order]
            popped = popped.cumsum(axis=1)
            take = np.minimum(room, 1 + (popped <= thr[:, None]).sum(axis=1))
            err_sums = popped[rows, take - 1].tolist()
            taken = rank < take.repeat(count)
            t, rest = order[taken], order[~taken]
            plo, phi, old = keys[1, t], keys[0, t], values.take(t, axis=-1)
            keys, values = keys[:, rest], values.take(rest, axis=-1)

    if total is None:  # no interval to evaluate: an empty call only reveals the component shape
        shape = np.shape(f((np.empty(0), np.empty(0, dtype=int))))[:-1]
        total = np.zeros((a.size,) + shape)
    total[~live] = 0.0
    errors = []
    scale = np.abs(total).max(axis=tuple(range(1, total.ndim))).tolist()  # over the components
    for k, (e, r, rel, s) in enumerate(zip(error, rounding, eps.tolist(), scale)):
        tol = max(EPSABS, rel * s)  # the stopping rule's: e < tol/8 is success
        errors.append(e + r)
        if live[k] and not e < tol / 8 and not e + r <= tol * 50:  # NaN fails
            raise ConvergenceError(
                f"quadrature on ({a[k]:g}, {b[k]:g}) stalled: "
                f"err={e + r:g} after {n_panels[k]} panels",
                index=k,
            )
    return list(total), errors
