"""Per-mode photon flux and integrated radiation: power P, torque M, heat Q.

Everything is a weighted integral of the same spectral density

    N_m(omega) = [n(omega - Omega*m, T_obj) - n(omega, T_env)] * (1 - |S_m|^2),

with weights hbar*omega (P), hbar*m (M) and hbar*(Omega*m - omega) (Q),
integrated d(omega)/2pi and summed over channels.  The three weights share
quadrature panels, so Q = Omega*M - P holds to roundoff.  At T = 0 the
support collapses to the superradiant windows (0, Omega*m), m >= 1.

Channel integrals run in stages and jobs.  A :class:`Stage` lists channels
with their supports; :func:`integrate_stages` integrates every segment of
every channel of several stages as one lock-step quadrature batch, calling
:func:`mode_flux` once per round for each table group (table,
temperatures, weight, extra, pol), with one m and one rotation rate per
node.  A job is a generator that yields stages, is sent each stage's
channel results and returns its result: :func:`partial_wave_sum` yields
its block with the probe shell that closes its tail, then each
``auto_extend`` shell.  :func:`run_jobs` advances many jobs together, one
batch per round, as the torque law's rates and a two-body sweep's
distances do.  Each integral keeps its own panels and stopping rule, so
the results are those of each integral run alone.
"""

import math
from dataclasses import asdict, dataclass, field
from types import GeneratorType
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, NumericDomainError
from .material import ThermalState, bose_occupation
from .quadrature import adaptive_integral
from .scattering import SMALLVEL_LIMIT

TWO_PI = 2.0 * math.pi

# thermal integrals are cut at Omega*max(|m|, m_max, 1) + TAIL_DECADES*T with
# an analytic exponential bound folded into the error estimate
TAIL_DECADES = 40.0


@dataclass(frozen=True)
class MSumPolicy:
    """Partial-wave truncation and quadrature settings."""

    m_max: int = 5
    auto_extend: bool = False
    m_cap: int = 64
    tail_tol: float = 1e-6
    raise_on_tail: bool = True
    epsrel: float = 1e-9

    def __post_init__(self):
        for name in ("m_max", "m_cap"):
            m = getattr(self, name)
            if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
                raise DomainError(f"{name} must be an int, got {m!r}")
            if m < 0:
                raise DomainError(f"{name} must be >= 0, got {m}")
        if not 0.0 < self.tail_tol < math.inf:
            raise DomainError(f"tail_tol must be finite and > 0, got {self.tail_tol!r}")


@dataclass(frozen=True)
class ModeContribution:
    m: int
    extra: object
    pol: str
    P: float
    M: float
    Q: float
    error: float


@dataclass
class RadiationResult:
    P: float
    M: float
    Q: float
    per_mode: list
    quadrature_error: float
    truncation_tail: float
    flags: dict = field(default_factory=dict)

    def as_dict(self):
        return asdict(self)


def _occupation_gap(w, om_p, state):
    """n(om_p, T_obj) - n(w, T_env) on node arrays, om_p = w - Omega*m."""
    n_in = bose_occupation(om_p, state.T_object)
    n_out = bose_occupation(w, state.T_env) if state.T_env > 0 else np.where(w > 0, 0.0, -1.0)
    return n_in - n_out


def mode_flux(table, state, omega, m, extra=None, pol="scalar"):
    """Spectral photon flux N of channel (m, extra, pol) (photons per unit omega and time).

    ``omega`` is a scalar or an array of frequencies.  For an array
    ``omega``, ``m`` may be one int or one per node and ``state.Omega`` one
    rotation rate or one per node: the channels (extra, pol) of several m
    and rates evaluated in one call, each node with the bits of its own
    scalar call.  At omega = Omega*m the diverging occupation multiplies a
    vanishing flux factor; the finite product limit is taken by a
    symmetric two-sided average just off the singular point.  A
    :class:`NumericDomainError` of the table (a resonance, a Bessel
    overflow) is raised again naming the channel and the span of the
    nodes; with one m per node, the first m whose nodes fail alone.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    if (w <= 0).any():
        raise DomainError("mode flux needs omega > 0")
    Omega = state.Omega
    om_p = w - Omega * m
    try:
        F = table.flux(w, m, extra, pol, Omega)
        if state.zero_temperature:
            N = np.where(om_p < 0, -F, 0.0)
        elif om_p.all():  # common case: no node at corotation, so no mask
            N = _occupation_gap(w, om_p, state) * F
        else:
            at = om_p == 0.0
            N = np.empty(w.shape)
            N[~at] = _occupation_gap(w[~at], om_p[~at], state) * F[~at]
            N[at] = [_corotation_limit(table, state, W, mm, extra, pol) for W, mm in
                     zip(np.broadcast_to(Omega, w.shape)[at].tolist(),
                         np.broadcast_to(m, w.shape)[at].tolist())]
    except NumericDomainError as exc:
        if np.ndim(m):  # an error path: redo each channel alone to name the first that fails
            for mm in dict.fromkeys(m.tolist()):
                at = m == mm
                rates = Omega[at] if np.ndim(Omega) else Omega
                mode_flux(table, ThermalState(state.T_object, state.T_env, rates), w[at], mm,
                          extra, pol)
        raise type(exc)(
            f"channel m={m}, extra={extra}, pol={pol} at omega in "
            f"[{w.min():g}, {w.max():g}]: {exc}"
        ) from exc
    return N if np.ndim(omega) else N.item()


def _corotation_limit(table, state, Omega, m, extra, pol):
    """N at omega = Omega*m: the mean of N just above and just below."""
    omega = Omega * m
    h = 1e-7 * max(abs(omega), state.T_object, 1e-30)
    lo, hi = table.omega_domain(m, extra, pol)
    w = np.array([omega + h, omega - h])
    w = w[(lo < w) & (w < hi) & (w > 0)]
    if not w.size:
        return 0.0
    F = table.flux(w, m, extra, pol, Omega)
    return np.mean(_occupation_gap(w, w - Omega * m, state) * F)


def _thermal_cutoff(state, m_max):
    T_top = max(state.T_object, state.T_env)
    return state.Omega * max(m_max, 1) + TAIL_DECADES * T_top


def _thermal_tail_bound(state, omega_cut, n_channels):
    """Crude bound on the neglected thermal tail, per unit hbar."""
    T = max(state.T_object, state.T_env)
    if T == 0.0:
        return 0.0
    x = omega_cut / T
    # sum_m int_cut w e^{-w/T} dw / 2pi with |flux| <= 1 per channel
    return n_channels * T**2 * math.exp(-x) * (x + 1.0) / TWO_PI


def channel_support(table, state, m, extra, pol, m_max):
    """Breakpoints of a channel's spectral support; empty when nothing radiates.

    At T = 0 only the superradiant window (0, Omega*m) of m >= 1 carries
    flux.  Otherwise the support runs to the thermal cutoff
    Omega*max(|m|, m_max, 1) + 40T and is split at omega = Omega*m, where the
    diverging occupation meets the vanishing flux factor (a removable
    singularity, kept on a panel edge).
    """
    lo, hi = table.omega_domain(m, extra, pol)
    lo = max(lo, 0.0)
    corotation = state.Omega * m
    if state.zero_temperature:
        if m < 1 or state.Omega <= 0:
            return []
        hi = min(hi, corotation)
    else:
        hi = min(hi, _thermal_cutoff(state, max(abs(m), m_max)))
    if hi <= lo:
        return []
    if not state.zero_temperature and m >= 1 and lo < corotation < hi:
        return [lo, corotation, hi]
    return [lo, hi]


class Stage(NamedTuple):
    """The channel integrals of one stage: every segment of every listed channel.

    ``channels`` holds (m, extra, pol, points), points the breakpoints
    :func:`channel_support` gave the channel; ``weight`` maps the node
    array, m and the spectral density on the nodes to the integrand
    components (nodes on the last axis), all of which share panels.  A
    ``graded`` stage integrates each segment (lo, hi) in tau in (0, 1),
    omega = lo + (hi - lo)*tau^2*(3 - 2*tau), with the weight times the
    Jacobian 6*(hi - lo)*tau*(1 - tau).  The map flattens both ends, so an
    endpoint singularity of the weight, such as the N log N of the entropy
    where N vanishes at corotation and as omega -> 0, takes few bisections.
    """

    table: object
    state: ThermalState
    weight: object
    epsrel: float
    channels: list
    graded: bool = False


def channel_stage(table, state, weight, labels, m_max, epsrel=1e-9, graded=False):
    """The stage of the channels ``labels`` (m, extra, pol) that radiate, cut at m_max.

    Every channel takes the support :func:`channel_support` gives it with
    this ``m_max``, so the thermal cutoff is Omega*max(|m|, m_max) + 40T.
    ``graded`` asks for the graded variable of :class:`Stage`; the stage is
    graded only when the table's flux is smooth (``table.smooth_flux``),
    since grading moves a kinked flux's kinks off the bisection points.
    """
    channels = []
    for m, extra, pol in labels:
        points = channel_support(table, state, m, extra, pol, m_max)
        if points:
            channels.append((m, extra, pol, points))
    return Stage(table, state, weight, epsrel, channels, graded and table.smooth_flux)


def integrate_stages(stages):
    """Integrate every segment of every channel of the stages in one quadrature batch.

    Returns, per stage, the list of its channels' (m, extra, pol, value,
    error), value = int dw/2pi weight(w, m, N_m(w)) with the segments of
    the support added left to right.  The batch integrand makes one
    :func:`mode_flux` call per round for each table group (same table,
    temperatures, weight, extra and pol), with one m and one rotation rate
    per node; each integral keeps its own panels and stopping rule, so its
    bits are those it has alone.  The segments of a graded stage are
    integrated over tau in (0, 1): the integrand maps their nodes
    to omega, strictly inside (lo, hi), before :func:`mode_flux` and
    multiplies their values by the Jacobian; a batch with no graded stage
    does neither.  A stalled integral raises :class:`ConvergenceError`
    naming its channel, support (a graded segment in omega, not in tau)
    and rotation rate, or :class:`DomainError` when its support is split
    at a corotation point omega = Omega*m where the flux does not vanish:
    there N carries a non-integrable T/(omega - Omega*m) and the integral
    does not exist.
    """
    groups = {}  # flux group key (table, T_object, T_env, weight, extra, pol) -> index
    segments = []  # (stage, channel, lo, hi, group index), in batch order
    for stage in stages:
        state = stage.state
        for channel in stage.channels:
            m, extra, pol, points = channel
            i = groups.setdefault(
                (stage.table, state.T_object, state.T_env, stage.weight, extra, pol), len(groups))
            segments += [(stage, channel, lo, hi, i) for lo, hi in zip(points, points[1:])]
    if not segments:
        return [[] for _ in stages]
    group_of, m_of, omega_of = (np.array(column) for column in zip(
        *[(i, channel[0], stage.state.Omega) for stage, channel, _, _, i in segments]))
    grading = None  # per segment: graded or not, lo, hi - lo and the omega bounds of its nodes
    if any(stage.graded for stage, *_ in segments):
        grading = [np.array(column) for column in zip(
            *[(stage.graded, lo, hi - lo, np.nextafter(lo, hi), np.nextafter(hi, lo))
              for stage, _, lo, hi, _ in segments])]

    def integrand(x):
        w, k = x
        if grading is not None:  # a graded node is tau: map it to omega, strictly inside (lo, hi)
            on, lo, span, floor, ceil = (column[k] for column in grading)
            t = w
            w = np.where(on, np.clip(lo + span * (t * t * (3.0 - 2.0 * t)), floor, ceil), t)
            jacobian = np.where(on, 6.0 * span * (t * (1.0 - t)), 1.0)
        out = None
        for (table, T_object, T_env, weight, extra, pol), i in groups.items():
            sel = slice(None) if len(groups) == 1 else np.flatnonzero(group_of[k] == i)
            ws = w[sel]
            if not ws.size:  # every integral of this group has finished
                continue
            m = m_of[k[sel]]
            state = ThermalState(T_object, T_env, omega_of[k[sel]])
            vals = weight(ws, m, mode_flux(table, state, ws, m, extra, pol)) / TWO_PI
            if out is None:
                out = np.empty(vals.shape[:-1] + w.shape)
            out[..., sel] = vals
        if grading is not None:
            out *= jacobian
        return out

    try:
        values, errors = adaptive_integral(
            integrand, [0.0 if seg[0].graded else seg[2] for seg in segments],
            [1.0 if seg[0].graded else seg[3] for seg in segments],
            epsrel=[seg[0].epsrel for seg in segments])
    except ConvergenceError as exc:
        stage, (m, extra, pol, points), lo, hi, _ = segments[exc.index]
        reason = str(exc)
        if stage.graded:  # name the segment in omega, not the (0, 1) of its graded variable
            reason = reason.replace("(0, 1)", f"({lo:g}, {hi:g}), graded,", 1)
        if len(points) == 3:  # split at corotation: is it a pole of N?
            F = stage.table.flux(points[1], m, extra, pol, stage.state.Omega)
            if abs(F) > 0.0:
                raise DomainError(
                    f"channel m={m}, extra={extra}, pol={pol}: the flux factor is {F:g}, "
                    f"not 0, at corotation omega = Omega*m = {points[1]:g}, so N diverges "
                    f"like T/(omega - Omega*m) there and its integral does not exist"
                ) from exc
        raise ConvergenceError(
            f"channel m={m}, extra={extra}, pol={pol} on support {points} "
            f"at Omega={stage.state.Omega:g}: {reason}", m=m
        ) from exc
    results = []
    k = 0
    for stage in stages:
        channels = []
        for m, extra, pol, points in stage.channels:
            total, err = values[k], errors[k]
            for j in range(k + 1, k + len(points) - 1):
                total, err = total + values[j], err + errors[j]
            k += len(points) - 1
            channels.append((m, extra, pol, total, err))
        results.append(channels)
    return results


def partial_wave_sum(table, state, weight, policy, m_min=0):
    """Job of the partial-wave sum; it returns (channels, m_used, tail).

    A generator, driven by :func:`run_jobs`.  Its first stage holds the
    block m_min <= |m| <= m_max and the probe, the first omitted shell, each
    channel cut at Omega*max(|m|, m_max) + 40T.  With ``auto_extend``, while
    the outer summed shell's largest |first component| exceeds ``tail_tol``
    times the summed first component and m_used < ``m_cap``, the probe
    joins the sum and the next shell is integrated as the new probe, so no
    shell is integrated twice.  It is sent each stage's channel results and
    returns every summed radiating channel's (m, extra, pol, value, error),
    the last |m| summed and the tail beyond it, a geometric series closed
    from the probe's largest |first component| (0 if none radiates).
    """
    def unconverged():
        scale = abs(_sum(val[0] for *_, val, _ in channels))
        return scale > 0 and _outer_peak(channels) > policy.tail_tol * scale

    def stage(lo, hi):  # lo <= |m| <= hi, each channel cut at Omega*max(|m|, m_max) + 40T
        labels = [label for label in table.channels(hi) if abs(label[0]) >= lo]
        return channel_stage(table, state, weight, labels, policy.m_max, policy.epsrel)

    m_used = policy.m_max
    first = yield stage(m_min, m_used + 1)
    channels = [channel for channel in first if abs(channel[0]) <= m_used]
    probe = [channel for channel in first if abs(channel[0]) > m_used]
    while policy.auto_extend and m_used < policy.m_cap and unconverged():
        m_used += 1
        channels += probe
        probe = yield stage(m_used + 1, m_used + 1)
    return channels, m_used, _geometric_tail(_outer_peak(channels), _outer_peak(probe))


def run_jobs(jobs):
    """Drive jobs in lock-step and return their results, in order.

    A job is a generator that yields :class:`Stage` objects, is sent back
    each stage's channel results (as :func:`integrate_stages` gives them)
    and returns its result; anything else is a finished job and its own
    result.  Each round integrates the current stage of every unfinished
    job in one quadrature batch.
    """
    results = list(jobs)
    pending = [(i, job, None) for i, job in enumerate(results) if isinstance(job, GeneratorType)]
    while pending:
        running, stages = [], []
        for i, job, sent in pending:
            try:
                stages.append(job.send(sent))
            except StopIteration as stop:
                results[i] = stop.value
            else:
                running.append((i, job))
        outs = integrate_stages(stages) if stages else []
        pending = [(i, job, out) for (i, job), out in zip(running, outs)]
    return results


def integrate_power(table, state, policy=None):
    """Radiated power, torque and heat of a channel table in a thermal state.

    Parameters
    ----------
    table : ChannelTable
        Scattering data (disk, sphere, cylinder or user provided).
    state : ThermalState
        Object/environment temperatures and rotation rate.
    policy : MSumPolicy, optional
        Partial-wave truncation, applied by :func:`partial_wave_sum` with
        |P| as the growth measure of ``auto_extend``.

    Returns
    -------
    RadiationResult
        P, M, Q (hbar = 1), per-mode breakdown, quadrature error estimate,
        truncation-tail estimate and regime flags.  Raises
        :class:`ConvergenceError` if the tail estimate exceeds the tolerance.
    """
    policy = policy or MSumPolicy()
    Omega = state.Omega

    def weight(w, m, N):
        return np.array([w * N, m * N, (Omega * m - w) * N])

    channels, m_used, tail = run_jobs([partial_wave_sum(table, state, weight, policy)])[0]
    per_mode = [
        ModeContribution(m, extra, pol, float(val[0]), float(val[1]), float(val[2]), err)
        for m, extra, pol, val, err in channels
    ]

    P, M, Q = (_sum(getattr(c, k) for c in per_mode) for k in "PMQ")
    # the lowest cutoff any channel used is that of the block |m| <= m_max
    err_total = _sum(c.error for c in per_mode) + _thermal_tail_bound(
        state, _thermal_cutoff(state, policy.m_max), max(len(per_mode), 1))

    scale = max(abs(P), abs(M) * max(Omega, 1.0))
    if policy.raise_on_tail and tail > policy.tail_tol * scale:
        raise ConvergenceError(
            f"partial-wave tail {tail:g} above tolerance at m_max={m_used}", m=m_used
        )
    return RadiationResult(P, M, Q, per_mode, err_total, tail, _regime_flags(table, state))


def _sum(values):
    """Left-to-right float sum, in the order the channels were integrated."""
    total = 0.0
    for v in values:
        total += v
    return total


def _outer_peak(channels):
    """Largest |first component| among the channels of the highest |m| (0 if none)."""
    top = max((abs(m) for m, *_ in channels), default=None)
    return max((abs(val[0]) for m, *_, val, _ in channels if abs(m) == top), default=0.0)


def _geometric_tail(last, probe):
    """Bound on the partial waves beyond the last shell from the first omitted one."""
    if last > 0 and probe < last:
        return probe / (1.0 - probe / last)
    return probe if probe > 0 else last


def _regime_flags(table, state):
    flags = {}
    R = getattr(table, "R", None)
    if R is not None:
        x = state.Omega * R
        flags["omega_R_over_c"] = x
        flags["smallvel_warning"] = bool(x >= SMALLVEL_LIMIT)
    return flags


def kirchhoff_power(table, T_object, T_env, policy=None):
    """Static thermal radiation P = sum_m int dw/2pi hw [n(w,T)-n(w,T0)] (1-|S_m|^2).

    At Omega = 0 the heat weight is -omega*N, so Q = -P bit for bit.  The
    torque vanishes by the m <-> -m symmetry of the static table (S_m =
    S_{-m}); it is zeroed rather than left at the summation-order roundoff.
    """
    res = integrate_power(table, ThermalState(T_object=T_object, T_env=T_env), policy)
    res.M = 0.0
    return res


def spectral_rows(table, state, policy=None, n_points=400):
    """Rows (omega, m, extra, pol, N, dP_domega) for the spectrum emitter.

    Each channel |m| <= m_max is sampled on n_points interior nodes of its
    support; the channels of each (extra, pol) share one :func:`mode_flux`
    call, with one m per node.
    """
    if n_points < 1:
        raise DomainError(f"n_points must be >= 1, got {n_points}")
    policy = policy or MSumPolicy()
    stage = channel_stage(table, state, None, table.channels(policy.m_max), policy.m_max)
    channels = [(m, extra, pol, np.linspace(points[0], points[-1], n_points + 2)[1:-1])
                for m, extra, pol, points in stage.channels]  # in row order
    flux = {}  # (m, extra, pol) -> N on the channel's grid
    for extra, pol in dict.fromkeys((extra, pol) for _, extra, pol, _ in channels):
        group = [c for c in channels if c[1:3] == (extra, pol)]
        m = np.repeat([c[0] for c in group], n_points)
        N = mode_flux(table, state, np.concatenate([c[3] for c in group]), m, extra, pol)
        flux.update(zip((c[:3] for c in group), np.split(N, len(group))))
    rows = []
    for m, extra, pol, grid in channels:
        rows.extend((w, m, extra, pol, n, w * n / TWO_PI)
                    for w, n in zip(grid.tolist(), flux[m, extra, pol].tolist()))
    return rows
