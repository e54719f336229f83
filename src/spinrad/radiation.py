"""Per-mode photon flux and integrated radiation: power P, torque M, heat Q.

Everything is a weighted integral of the same spectral density

    N_m(omega) = [n(omega - Omega*m, T_obj) - n(omega, T_env)] * (1 - |S_m|^2),

with weights hbar*omega (P), hbar*m (M) and hbar*(Omega*m - omega) (Q),
integrated d(omega)/2pi and summed over channels.  The three weights share
quadrature panels, so Q = Omega*M - P holds to roundoff.  At T = 0 the
support collapses to the superradiant windows (0, Omega*m), m >= 1.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, NumericDomainError
from .material import ThermalState, bose_occupation
from .quadrature import adaptive_integral, integrate_segments
from .scattering import SMALLVEL_LIMIT

TWO_PI = 2.0 * math.pi

# thermal integrals are cut at Omega*m_max + TAIL_DECADES*T with an analytic
# exponential bound folded into the error estimate
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
        if self.m_max < 0:
            raise DomainError(f"m_max must be >= 0, got {self.m_max}")


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


def occupation_difference(omega, m, state):
    """n(omega - Omega*m, T_obj) - n(omega, T_env), with T = 0 steps built in."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    n_in = bose_occupation(w - state.Omega * m, state.T_object)
    n_out = bose_occupation(w, state.T_env) if state.T_env > 0 else np.where(w > 0, 0.0, -1.0)
    dn = n_in - n_out
    return dn if np.ndim(omega) else dn.item()


def mode_flux(table, state, omega, m, extra=None, pol="scalar"):
    """Spectral photon flux N of channel (m, extra, pol) (photons per unit omega and time).

    ``omega`` is a scalar or an array of frequencies.  At omega = Omega*m
    the diverging occupation multiplies a vanishing flux factor; the finite
    product limit is taken by a symmetric two-sided average just off the
    singular point.  A :class:`NumericDomainError` of the table (a resonance,
    a Bessel overflow) is raised again naming the channel and the span of
    the nodes.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    if (w <= 0).any():
        raise DomainError("mode flux needs omega > 0")
    om_p = w - state.Omega * m
    try:
        F = table.flux(w, m, extra, pol, state.Omega)
        if state.zero_temperature:
            N = np.where(om_p < 0, -F, 0.0)
        elif om_p.all():  # common case: no node at corotation, so no mask
            N = occupation_difference(w, m, state) * F
        else:
            at = om_p == 0.0
            N = np.empty(w.shape)
            N[~at] = occupation_difference(w[~at], m, state) * F[~at]
            N[at] = _corotation_limit(table, state, m, extra, pol)
    except NumericDomainError as exc:
        raise type(exc)(
            f"channel m={m}, extra={extra}, pol={pol} at omega in "
            f"[{w.min():g}, {w.max():g}]: {exc}"
        ) from exc
    return N if np.ndim(omega) else N.item()


def _corotation_limit(table, state, m, extra, pol):
    """N at omega = Omega*m: the mean of N just above and just below."""
    omega = state.Omega * m
    h = 1e-7 * max(abs(omega), state.T_object, 1e-30)
    lo, hi = table.omega_domain(m, extra, pol)
    w = np.array([omega + h, omega - h])
    w = w[(lo < w) & (w < hi) & (w > 0)]
    if not w.size:
        return 0.0
    F = table.flux(w, m, extra, pol, state.Omega)
    return np.mean(occupation_difference(w, m, state) * F)


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
    flux.  Otherwise the support runs to the thermal cutoff and is split at
    omega = Omega*m, where the diverging occupation meets the vanishing flux
    factor (a removable singularity, kept on a panel edge).
    """
    lo, hi = table.omega_domain(m, extra, pol)
    lo = max(lo, 0.0)
    corotation = state.Omega * m
    if state.zero_temperature:
        if m < 1 or state.Omega <= 0:
            return []
        hi = min(hi, corotation)
    else:
        hi = min(hi, _thermal_cutoff(state, m_max))
    if hi <= lo:
        return []
    if not state.zero_temperature and m >= 1 and lo < corotation < hi:
        return [lo, corotation, hi]
    return [lo, hi]


def integrate_channel(table, state, m, extra, pol, weight, m_max, epsrel=1e-9):
    """int dw/2pi weight(w, m, N_m(w)) over the channel's support.

    ``weight`` maps the node array, m and the spectral density on the nodes
    to the integrand components (nodes on the last axis); all components
    share panels.  Returns (value, error), or None when the support is empty.
    A stalled quadrature raises :class:`ConvergenceError` naming the channel.
    """
    points = channel_support(table, state, m, extra, pol, m_max)
    if not points:
        return None

    def integrand(w):
        return weight(w, m, mode_flux(table, state, w, m, extra, pol)) / TWO_PI

    try:
        return integrate_segments(integrand, points, epsrel=epsrel)
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"channel m={m}, extra={extra}, pol={pol} on support {points}: {exc}", m=m
        ) from exc


def integrate_channels(table, state, weight, m_max, m_min=0, **kw):
    """Yield (m, extra, pol, value, error) for each radiating channel, m_min <= |m| <= m_max.

    Every channel is cut at the same thermal cutoff, Omega*m_max + 40T.
    """
    for m in table.m_values(m_max):
        if abs(m) < m_min:
            continue
        for extra, pol in table.channel_labels(m):
            res = integrate_channel(table, state, m, extra, pol, weight, m_max, **kw)
            if res is not None:
                yield (m, extra, pol, *res)


def partial_wave_sum(table, state, weight, policy, m_min=0):
    """(channels, m_used): each radiating channel's (m, extra, pol, value, error) and the last |m|.

    First the block m_min <= |m| <= m_max at the shared cutoff Omega*m_max +
    40T; then, with ``auto_extend``, one shell |m| = k at a time at its own
    cutoff Omega*k + 40T, while the outer shell's largest |first component|
    exceeds ``tail_tol`` times the summed first component and k < ``m_cap``.
    """
    def unconverged():
        scale = abs(_sum(val[0] for *_, val, _ in channels))
        return scale > 0 and _outer_peak(channels) > policy.tail_tol * scale

    channels = list(integrate_channels(table, state, weight, policy.m_max, m_min,
                                       epsrel=policy.epsrel))
    m_used = policy.m_max
    while policy.auto_extend and m_used < policy.m_cap and unconverged():
        m_used += 1
        channels += integrate_channels(table, state, weight, m_used, m_used,
                                       epsrel=policy.epsrel)
    return channels, m_used


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

    channels, m_used = partial_wave_sum(table, state, weight, policy)
    per_mode = [
        ModeContribution(m, extra, pol, float(val[0]), float(val[1]), float(val[2]), err)
        for m, extra, pol, val, err in channels
    ]

    # probe the first omitted shell and close the geometric series with the
    # measured decay ratio; a table with no higher partial waves has no tail
    probe = list(integrate_channels(table, state, weight, m_used + 1, m_used + 1,
                                    epsrel=policy.epsrel)) if channels else []
    tail = _geometric_tail(_outer_peak(channels), _outer_peak(probe)) if probe else 0.0

    P, M, Q = (_sum(getattr(c, k) for c in per_mode) for k in "PMQ")
    # the lowest cutoff any channel used is that of the block |m| <= m_max
    err_total = _sum(c.error for c in per_mode) + _thermal_tail_bound(
        state, _thermal_cutoff(state, policy.m_max), max(len(per_mode), 1))

    scale = max(abs(P), abs(M) * max(Omega, 1.0))
    if policy.raise_on_tail and scale > 0 and tail > policy.tail_tol * scale:
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

    The torque vanishes identically by the m <-> -m symmetry of the static
    table (the summation cancels pairwise).
    """
    state = ThermalState(T_object=T_object, T_env=T_env, Omega=0.0)
    if T_object == T_env:
        # detailed balance: the integrand is pointwise zero
        return RadiationResult(0.0, 0.0, 0.0, [], 0.0, 0.0, _regime_flags(table, state))
    res = integrate_power(table, state, policy)
    # S_m = S_{-m} at rest, so the +-m torque contributions cancel exactly;
    # zero it rather than keep the summation-order roundoff
    res.M = 0.0
    res.Q = -res.P
    return res


def spindown_timescale(torque, I, omega0, omega_final=None, epsrel=1e-8):
    """Deterministic time to coast from omega0 down to omega_final (default omega0/10).

    Integrates dW/dt = -M(W)/I, i.e. tau = I * int_{Wf}^{W0} dW / M(W).
    A torque that vanishes anywhere on the range makes the time infinite and
    raises :class:`DomainError`.
    """
    if I <= 0 or omega0 <= 0:
        raise DomainError("need I > 0 and omega0 > 0")
    omega_final = omega0 / 10.0 if omega_final is None else omega_final
    if not 0 < omega_final < omega0:
        raise DomainError("omega_final must lie in (0, omega0)")

    def integrand(ws):
        # torque() is a scalar callable: one call per node
        out = np.empty(ws.shape)
        for i, w in enumerate(ws):
            M = torque(float(w))
            if M <= 0:
                raise DomainError(f"torque {M:g} <= 0 at Omega={w:g}: infinite spindown time")
            out[i] = I / M
        return out

    val, _ = adaptive_integral(integrand, omega_final, omega0, epsrel=epsrel)
    return float(val)


def spectral_rows(table, state, policy=None, n_points=400):
    """Rows (omega, m, extra, pol, N, dP_domega) for the spectrum emitter.

    Each channel |m| <= m_max is sampled on n_points interior nodes of its support.
    """
    if n_points < 1:
        raise DomainError(f"n_points must be >= 1, got {n_points}")
    policy = policy or MSumPolicy()
    rows = []
    for m in table.m_values(policy.m_max):
        for extra, pol in table.channel_labels(m):
            points = channel_support(table, state, m, extra, pol, policy.m_max)
            if not points:
                continue
            grid = np.linspace(points[0], points[-1], n_points + 2)[1:-1]
            N = mode_flux(table, state, grid, m, extra, pol)
            rows.extend(
                (w, m, extra, pol, n, w * n / TWO_PI) for w, n in zip(grid.tolist(), N.tolist())
            )
    return rows
