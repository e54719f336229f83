"""Full counting statistics and entropy generation of the radiated photons.

Each mode radiates independently with a geometric counting law fixed by its
mean flux N alone (the strong form of Kirchhoff's law): the cumulant
generating function is F(eta) = -log(1 - eta*N), the factorial cumulants are
kappa_p = (p-1)! N^p, and P(n) = N^n / (N+1)^{n+1}.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .radiation import (
    MSumPolicy,
    RadiationResult,
    channel_stage,
    integrate_power,
    integrate_stages,
)
from .scattering import CylinderTable

P_MAX = 20

# below this the entropy expands as N(1 - log N) to dodge log underflow
_ENTROPY_SMALL_N = 1e-12


def cumulant(N, p):
    """Factorial cumulant kappa_p = (p-1)! N^p of the per-mode counting law."""
    if N < 0:
        raise DomainError("mean flux must be >= 0")
    if not 1 <= p <= P_MAX or int(p) != p:
        raise DomainError(f"cumulant order must be an integer in [1, {P_MAX}]")
    return math.factorial(p - 1) * N**p


def counting_distribution(N, n_max):
    """Geometric counting law P(n) = N^n/(N+1)^{n+1} for n = 0..n_max.

    Returns (probabilities, tail) with tail = (N/(N+1))^{n_max+1}, the exact
    probability mass beyond the truncation.
    """
    if N < 0:
        raise DomainError("mean flux must be >= 0")
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    n = np.arange(n_max + 1)
    if N == 0.0:
        probs = np.zeros(n_max + 1)
        probs[0] = 1.0
        return probs, 0.0
    q = N / (N + 1.0)
    probs = np.exp(n * math.log(q)) / (N + 1.0)
    tail = q ** (n_max + 1)
    return probs, float(tail)


def mode_entropy_rate(N):
    """Per-mode entropy (N+1)log(N+1) - N log N, in k_B units; 0 at N = 0.

    Scalar or array N.
    """
    n = np.atleast_1d(np.asarray(N, dtype=float))
    if (n < 0).any():
        raise DomainError("mean flux must be >= 0")
    safe = np.where(n > 0, n, 1.0)
    S = np.where(
        n < _ENTROPY_SMALL_N,
        safe * (1.0 - np.log(safe)),
        (safe + 1.0) * np.log1p(safe) - safe * np.log(safe),
    )
    S[n == 0] = 0.0
    return S if np.ndim(N) else S.item()


def total_mode_entropy(r, x):
    """Combined object + field entropy per mode of a static thermal emitter.

    r is the mode absorptivity 1 - |S|^2 and x = hbar*omega/k_B T; the mode
    occupation is N = r/(e^x - 1).  The object's thermodynamic loss -x*N is
    included; the sum is nonnegative for all 0 <= r <= 1.
    """
    if not 0.0 <= r <= 1.0:
        raise DomainError("absorptivity must lie in [0, 1]")
    if x <= 0:
        raise DomainError("x = hbar*omega/k_B T must be > 0")
    N = r / math.expm1(x)
    return mode_entropy_rate(N) - x * N


@dataclass
class EntropyReport:
    """Entropy generation rates (k_B = 1): radiated, object and combined."""

    per_mode: list  # (m, extra, pol, rate)
    total_rate: float
    object_rate: float | None
    combined_rate: float
    quadrature_error: float
    radiation: RadiationResult  # P, M, Q over the same channels


def entropy_generation(table, state, policy=None):
    """Entropy generation rate of the radiated field, plus the object's term.

    Runs :func:`integrate_power`, then integrates mode_entropy_rate over
    exactly the channels its P, M, Q sum used (the block |m| <= m_max and,
    with ``auto_extend``, the shells it grew), each on the support
    :func:`channel_support` gave its P, M, Q integral.  The entropy stage
    is graded (:class:`radiation.Stage`) when the table's flux is smooth:
    N vanishes linearly at corotation at T = 0, and like omega^(2m+1) as
    omega -> 0, so the N log N of the weight has endpoint singularities
    that plain bisection can only approach one halving per round.
    ``quadrature_error`` sums the channels' error estimates.

    For a static thermal emitter the object contributes -P/T; for a
    rotating body at finite temperature the comoving heat gain contributes
    +Q/T; at T = 0 the object term is left unset and the combined rate
    equals the field rate.

    The accounting assumes emission into a zero-temperature environment
    (every channel then carries a nonnegative occupation); a thermal
    environment makes the net flux sign-indefinite and is rejected.  So is
    a :class:`CylinderTable`: its channels are k_z-integrated, and the
    entropy of a k_z-integrated N is not the k_z integral of the per-k_z
    entropy.
    """
    if isinstance(table, CylinderTable):
        raise DomainError("per-mode entropy is available for disk, sphere and user tables: "
                          "a cylinder's channels are k_z-integrated, and the entropy of a "
                          "k_z-integrated N is not a per-mode entropy")
    policy = policy or MSumPolicy()
    if state.T_env > 0:
        raise DomainError("entropy accounting needs a zero-temperature environment")
    rad = integrate_power(table, state, policy)

    def weight(w, m, N):
        return mode_entropy_rate(np.maximum(N, 0.0))

    labels = [(c.m, c.extra, c.pol) for c in rad.per_mode]
    stage = channel_stage(table, state, weight, labels, policy.m_max,
                          epsrel=max(policy.epsrel, 1e-8), graded=True)
    per_mode = []
    total = 0.0
    err_total = 0.0
    for m, extra, pol, val, err in integrate_stages([stage])[0]:
        per_mode.append((m, extra, pol, float(val)))
        total += float(val)
        err_total += err

    object_rate = None
    combined = total
    if state.T_object > 0:
        if state.Omega == 0:
            object_rate = -rad.P / state.T_object
        else:
            object_rate = rad.Q / state.T_object
        combined = total + object_rate
    return EntropyReport(per_mode, total, object_rate, combined, err_total, rad)
