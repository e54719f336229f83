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
from .radiation import MSumPolicy, RadiationResult, integrate_channel, integrate_power

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


def generating_function(N, eta):
    """Cumulant generating function F(eta) = -log(1 - eta N)."""
    if N < 0:
        raise DomainError("mean flux must be >= 0")
    if eta * N >= 1.0:
        raise DomainError(f"eta*N = {eta * N:g} >= 1: moment generating function diverges")
    return -math.log1p(-eta * N)


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


def glauber_pn(N, n):
    """P(n) through the eta-derivative route of the generating function.

    The n-th derivative of exp(F) = (1 - eta N)^{-1} is n! N^n (1-eta N)^{-(n+1)};
    evaluating at eta = -1 must reproduce the geometric law.
    """
    if N < 0:
        raise DomainError("mean flux must be >= 0")
    if not 0 <= n <= 30 or int(n) != n:
        raise DomainError("n must be an integer in [0, 30]")
    if N == 0.0:
        return 1.0 if n == 0 else 0.0
    eta = -1.0
    return N**n / (1.0 - eta * N) ** (n + 1)


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
    :func:`channel_support` gave its P, M, Q integral.  For a static
    thermal emitter the object contributes -P/T; for a rotating body at
    finite temperature the comoving heat gain contributes +Q/T; at T = 0 the
    object term is left unset and the combined rate equals the field rate.

    The accounting assumes emission into a zero-temperature environment
    (every channel then carries a nonnegative occupation); a thermal
    environment makes the net flux sign-indefinite and is rejected.
    """
    policy = policy or MSumPolicy()
    if state.T_env > 0:
        raise DomainError("entropy accounting needs a zero-temperature environment")
    rad = integrate_power(table, state, policy)

    def weight(w, m, N):
        return mode_entropy_rate(np.maximum(N, 0.0))

    per_mode = []
    total = 0.0
    err_total = 0.0
    for c in rad.per_mode:
        val, err = integrate_channel(table, state, c.m, c.extra, c.pol, weight, policy.m_max,
                                     epsrel=max(policy.epsrel, 1e-8))
        per_mode.append((c.m, c.extra, c.pol, float(val)))
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
