"""Per-mode photon flux and integrated radiation: power P, torque M, heat Q.

Everything is a weighted integral of the same spectral density

    N_m(omega) = [n(omega - Omega*m, T_obj) - n(omega, T_env)] * (1 - |S_m|^2),

with weights hbar*omega (P), hbar*m (M) and hbar*(Omega*m - omega) (Q),
integrated d(omega)/2pi and summed over channels.  The three weights share
quadrature panels, so Q = Omega*M - P holds to roundoff.  At T = 0 the
support collapses to the superradiant windows (0, Omega*m), m >= 1.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError
from .material import ThermalState, bose_occupation
from .quadrature import adaptive_integral, integrate_segments
from .scattering import SMALLVEL_LIMIT, ModeIndex

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
    epsabs: float = 1e-300


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
        return {
            "P": self.P,
            "M": self.M,
            "Q": self.Q,
            "per_mode": [
                {
                    "m": c.m,
                    "extra": c.extra,
                    "pol": c.pol,
                    "P": c.P,
                    "M": c.M,
                    "Q": c.Q,
                    "error": c.error,
                }
                for c in self.per_mode
            ],
            "quadrature_error": self.quadrature_error,
            "truncation_tail": self.truncation_tail,
            "flags": self.flags,
        }


def occupation_difference(omega, m, state):
    """n(omega - Omega*m, T_obj) - n(omega, T_env), with T = 0 steps built in."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    n_in = bose_occupation(w - state.Omega * m, state.T_object)
    n_out = bose_occupation(w, state.T_env) if state.T_env > 0 else np.where(w > 0, 0.0, -1.0)
    dn = n_in - n_out
    return dn if np.ndim(omega) else dn.item()


def mode_flux(table, state, mode):
    """Spectral photon flux N of one channel (photons per unit omega and time).

    ``mode.omega`` is a scalar or an array of frequencies.  At
    omega = Omega*m the diverging occupation multiplies a vanishing flux
    factor; the finite product limit is taken by a symmetric two-sided
    average just off the singular point.
    """
    m = mode.m
    w = np.atleast_1d(np.asarray(mode.omega, dtype=float))
    if (w <= 0).any():
        raise DomainError("mode flux needs omega > 0")
    om_p = w - state.Omega * m
    F = table.flux(w, m, mode.extra, mode.pol, state.Omega)
    if state.zero_temperature:
        N = np.where(om_p < 0, -F, 0.0)
    else:
        at = om_p == 0.0
        N = np.empty(w.shape)
        N[~at] = occupation_difference(w[~at], m, state) * F[~at]
        if at.any():
            N[at] = _corotation_limit(table, state, mode, state.Omega * m)
    return N if np.ndim(mode.omega) else N.item()


def _corotation_limit(table, state, mode, omega):
    """N at omega = Omega*m: the mean of N just above and just below."""
    m = mode.m
    h = 1e-7 * max(abs(state.Omega * m), state.T_object, 1e-30)
    lo, hi = table.omega_domain(m, mode.extra, mode.pol)
    w = np.array([omega + h, omega - h])
    w = w[(lo < w) & (w < hi) & (w > 0)]
    if not w.size:
        return 0.0
    F = table.flux(w, m, mode.extra, mode.pol, state.Omega)
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


def integrate_channel(table, state, m, extra, pol, weight, m_max, epsabs=1e-300, epsrel=1e-9):
    """int dw/2pi weight(w, m, N_m(w)) over the channel's support.

    ``weight`` maps the node array, m and the spectral density on the nodes
    to the integrand components (nodes on the last axis); all components
    share panels.  Returns (value, error), or None when the support is empty.
    """
    points = channel_support(table, state, m, extra, pol, m_max)
    if not points:
        return None

    def integrand(w):
        return weight(w, m, mode_flux(table, state, ModeIndex(w, m, extra, pol))) / TWO_PI

    return integrate_segments(integrand, points, epsabs=epsabs, epsrel=epsrel)


def integrate_channels(table, state, weight, m_max, **kw):
    """Yield (m, extra, pol, value, error) for every channel that radiates."""
    for m in table.m_values(m_max, state.zero_temperature):
        for extra, pol in table.channel_labels(m):
            res = integrate_channel(table, state, m, extra, pol, weight, m_max, **kw)
            if res is not None:
                yield (m, extra, pol, *res)


def _channel_moments(table, state, m, extra, pol, policy):
    """[P, M, Q] of one channel (hbar = 1): weights w, m and Omega*m - w."""
    Omega = state.Omega
    res = integrate_channel(
        table, state, m, extra, pol,
        lambda w, m, N: np.array([w * N, m * N, (Omega * m - w) * N]),
        policy.m_max, policy.epsabs, policy.epsrel,
    )
    return res or (np.zeros(3), 0.0)


def integrate_power(table, state, policy=None):
    """Radiated power, torque and heat of a channel table in a thermal state.

    Parameters
    ----------
    table : ChannelTable
        Scattering data (disk, sphere or user provided).
    state : ThermalState
        Object/environment temperatures and rotation rate.
    policy : MSumPolicy, optional
        Partial-wave truncation; ``auto_extend`` grows m_max until the last
        partial wave falls below ``tail_tol`` relative to the total.

    Returns
    -------
    RadiationResult
        P, M, Q (hbar = 1), per-mode breakdown, quadrature error estimate,
        truncation-tail estimate and regime flags.  Raises
        :class:`ConvergenceError` if the tail estimate exceeds the tolerance.
    """
    policy = policy or MSumPolicy()
    zero_T = state.zero_temperature
    totals = np.zeros(3)
    per_mode = []
    err_total = 0.0
    contributions = {}  # |m| -> max |P_m| used for the tail estimate

    m_list = list(table.m_values(policy.m_max, zero_T))
    seen = set(m_list)
    m_used = policy.m_max
    idx = 0
    while idx < len(m_list):
        m = m_list[idx]
        idx += 1
        for extra, pol in table.channel_labels(m):
            val, err = _channel_moments(table, state, m, extra, pol, policy)
            totals += val
            err_total += err
            per_mode.append(
                ModeContribution(m, extra, pol, float(val[0]), float(val[1]), float(val[2]), err)
            )
            key = abs(m)
            contributions[key] = max(contributions.get(key, 0.0), float(abs(val[0])))
        if idx == len(m_list) and policy.auto_extend:
            scale = abs(totals[0])
            last = contributions[max(contributions)] if contributions else 0.0
            while m_used < policy.m_cap and scale > 0 and last > policy.tail_tol * scale:
                m_used += 1
                new_ms = [mm for mm in table.m_values(m_used, zero_T) if mm not in seen]
                if new_ms:
                    m_list.extend(new_ms)
                    seen.update(new_ms)
                    break
                if set(table.m_values(policy.m_cap, zero_T)) <= seen:
                    m_used = policy.m_cap  # table exhausted
                    break

    tail = _tail_estimate(table, state, policy, contributions, seen, m_used, zero_T)
    if not zero_T:
        n_ch = max(len(per_mode), 1)
        err_total += _thermal_tail_bound(state, _thermal_cutoff(state, m_used), n_ch)

    P, M, Q = (float(v) for v in totals)
    scale = max(abs(P), abs(M) * max(state.Omega, 1.0))
    if policy.raise_on_tail and scale > 0 and tail > policy.tail_tol * scale:
        raise ConvergenceError(
            f"partial-wave tail {tail:g} above tolerance at m_max={m_used}", m=m_used
        )

    flags = _regime_flags(table, state)
    return RadiationResult(P, M, Q, per_mode, err_total, tail, flags)


def _tail_estimate(table, state, policy, contributions, seen, m_used, zero_T):
    """Bound on the partial waves beyond m_used.

    Probes the first omitted |m| explicitly (one extra channel integral) and
    closes the geometric series with the measured decay ratio.
    """
    if not contributions:
        return 0.0
    next_ms = [mm for mm in table.m_values(m_used + 1, zero_T) if mm not in seen]
    if not next_ms:
        return 0.0  # the table itself carries no higher partial waves
    probe = 0.0
    for mm in next_ms:
        for extra, pol in table.channel_labels(mm):
            val, _ = _channel_moments(table, state, mm, extra, pol, policy)
            probe = max(probe, float(abs(val[0])))
    last = contributions[max(contributions)]
    if last > 0 and probe < last:
        ratio = probe / last
        return probe / (1.0 - ratio)
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

    Each channel is sampled on n_points interior nodes of its support.
    """
    policy = policy or MSumPolicy()
    rows = []
    for m in table.m_values(policy.m_max, state.zero_temperature):
        for extra, pol in table.channel_labels(m):
            points = channel_support(table, state, m, extra, pol, policy.m_max)
            if not points:
                continue
            grid = np.linspace(points[0], points[-1], n_points + 2)[1:-1]
            N = mode_flux(table, state, ModeIndex(grid, m, extra, pol))
            rows.extend(
                (w, m, extra, pol, n, w * n / TWO_PI) for w, n in zip(grid.tolist(), N.tolist())
            )
    return rows
