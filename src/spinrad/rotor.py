"""Stochastic rotational dynamics driven by radiation back-reaction.

The angular-momentum flux defines a drift Mbar(W) (mean torque / hbar) and a
diffusion strength Mbar2(W) (torque variance / hbar^2).  The probability
density of the angular velocity obeys the master equation whose stationary
driven solution is

    P(W) = C / Mbar2(W) * exp[-(I/hbar) int_0^W (Mbar - Mbar(W0)) / Mbar2 dW'].

The equivalent Ito SDE for that equation carries noise variance
2 * hbar^2 * Mbar2 * dt per step (the master equation's diffusion term reads
d^2/dW^2 (Mbar2 P) with no 1/2), which is what the simulator uses by default
so that ensembles, the stationary closed form and the width formula
I*dW = sqrt(hbar*I*Mbar2/Mbar') are mutually consistent.  Pass
``diffusion_scale=1.0`` for the bare covariance <eta eta'> = hbar^2 Mbar2
delta(t-t') instead; early-time variance growth then follows hbar^2*Mbar2*t.

The layer imports no scipy: the monotone cubic (PCHIP) of tabulated torque
laws and the Simpson and trapezoid rules of the stationary density are
private numpy code here, written op for op after scipy 1.17 so that their
values equal scipy's bit for bit.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, StepSizeError
from .radiation import MSumPolicy, partial_wave_sum
from .material import ThermalState

FP_DIFFUSION_SCALE = 2.0

STIFFNESS_LIMIT = 0.1

ADIABATIC_LIMIT = 0.1

# Langevin noise is drawn NOISE_CHUNK steps at a time, so an ensemble block
# holds 2 * block_size * NOISE_CHUNK doubles of noise whatever its length
NOISE_CHUNK = 256

# edge of the square tiles in which a noise chunk is transposed
_TILE = 64

# steps between the ensemble's finiteness, stiffness and adiabaticity checks
GUARD_EVERY = 25


@dataclass(frozen=True)
class TorqueLaw:
    """Drift Mbar(W) and diffusion Mbar2(W), both vectorized over W.

    ``moments_fn(W)``, when given, returns the pair (Mbar, Mbar2) from one
    pass over W, bit-identical to the two separate calls.
    """

    drift: object
    diffusion: object
    drift_derivative_fn: object = None
    moments_fn: object = None

    @classmethod
    def power_law(cls, coeff, exponent, coeff2=None, exponent2=None):
        """Mbar = coeff * W^exponent, Mbar2 likewise (defaults to the same law)."""
        if coeff < 0 or (coeff2 is not None and coeff2 < 0):
            raise DomainError("torque-law coefficients must be >= 0")
        c2 = coeff if coeff2 is None else coeff2
        k2 = exponent if exponent2 is None else exponent2

        def drift(w):
            return coeff * np.power(w, exponent)

        def diffusion(w):
            return c2 * np.power(w, k2)

        def ddrift(w):
            return coeff * exponent * np.power(w, exponent - 1)

        def moments(w):  # one power of W serves both when the exponents agree
            p = np.power(w, exponent)
            return coeff * p, c2 * p

        return cls(drift, diffusion, ddrift, moments if k2 == exponent else None)

    def moments(self, w):
        """(Mbar(W), Mbar2(W)) in one evaluation where the law allows it."""
        if self.moments_fn is not None:
            return self.moments_fn(w)
        return self.drift(w), self.diffusion(w)

    def drift_derivative(self, w):
        if self.drift_derivative_fn is not None:
            return self.drift_derivative_fn(w)
        if np.ndim(w) == 0:
            return _centered_derivative(self.drift, w)
        # vectorized slope estimate (stiffness guard): fixed relative step
        w = np.asarray(w, dtype=float)
        h = 1e-5 * (np.abs(w) + 1.0)
        return (self.drift(w + h) - self.drift(np.maximum(w - h, 0.0))) / (2.0 * h)


def _centered_derivative(f, w0, rtol=1e-7):
    """Centered difference with step halving until successive values agree."""
    w0 = float(w0)
    h = max(abs(w0), 1.0) * 1e-2
    prev = None
    for _ in range(24):
        d = (f(w0 + h) - f(w0 - h)) / (2.0 * h)
        if prev is not None and abs(d - prev) <= rtol * max(abs(d), 1e-300):
            return d
        prev = d
        h *= 0.5
        if h < max(abs(w0), 1.0) * 1e-7:
            break
    return prev if prev is not None else d


def torque_law_from_radiation(table, state, omega_range, rtol=1e-6, policy=None):
    """Numeric torque law: Mbar, Mbar2 memoized on a refining grid.

    Mbar(W)  = sum_m int dw/2pi m   N_m(w)
    Mbar2(W) = sum_m int dw/2pi m^2 N_m(w) (N_m(w) + 1)

    evaluated at rotation rate W over the partial waves of ``policy`` (an
    :class:`MSumPolicy`; ``auto_extend`` grows the sum by |Mbar|),
    interpolated monotonically (PCHIP) and refined by grid doubling until
    the interpolant reproduces midpoint evaluations to ``rtol`` relative.
    Both weights vanish at m = 0, so that channel is never integrated.
    """
    policy = policy or MSumPolicy()

    def weight(w, m, N):
        return np.array([m * N, m * m * N * (N + 1.0)])

    def moments(W):
        st = ThermalState(state.T_object, state.T_env, W)
        out = np.zeros(2)
        for *_, val, _ in partial_wave_sum(table, st, weight, policy, m_min=1)[0]:
            out += val
        return out

    return tabulate_torque_law(moments, omega_range, rtol=rtol)


def tabulate_torque_law(moments, omega_range, rtol=1e-6):
    """Memoize a (drift, diffusion) moment function on a refining log grid.

    ``moments(W)`` returns the pair (Mbar, Mbar2) at rotation rate W; it is
    called at most once per distinct W.  Each refinement interleaves the grid
    with its geometric midpoints, so the midpoints probed to test the
    log-log interpolant are nodes of the next grid and are never computed
    twice.  The grid doubles until the interpolant reproduces the probes to
    ``rtol`` relative.
    """
    lo, hi = omega_range
    if not 0 <= lo < hi:
        raise DomainError("need 0 <= lo < hi for the tabulation range")
    memo = {}

    def evaluate(ws):
        ws = ws.tolist()
        for w in ws:
            if w not in memo:
                memo[w] = moments(w)
        return np.array([memo[w] for w in ws], dtype=float)

    grid = np.geomspace(max(lo, hi * 1e-4), hi, 17)
    for _ in range(7):
        vals = evaluate(grid)
        if np.all(vals == 0.0):
            zero = lambda w: np.zeros_like(np.asarray(w, dtype=float))
            return TorqueLaw(zero, zero, zero)
        drift_i, diff_i, moments_i = _moment_interpolants(grid, vals)
        mids = np.sqrt(grid[:-1] * grid[1:])
        probe = mids[:: max(1, (len(grid) - 1) // 8)]
        direct = evaluate(probe)
        scale = np.maximum(np.abs(direct), 1e-12 * np.max(np.abs(vals), axis=0))
        err = np.max(np.abs(np.column_stack(moments_i(probe)) - direct) / scale)
        if err < rtol:
            break
        finer = np.empty(2 * len(grid) - 1)
        finer[0::2] = grid
        finer[1::2] = mids
        grid = finer
    else:
        raise ConvergenceError(f"torque-law tabulation stalled at rel err {err:g}")

    def slope(w):
        h = 1e-6 * (np.abs(w) + 1e-6 * hi)
        return (drift_i(w + h) - drift_i(np.maximum(w - h, 0.0))) / (2.0 * h)

    return TorqueLaw(drift_i, diff_i, slope, moments_i)


def _moment_interpolants(grid, vals):
    """Interpolants (drift, diffusion, moments) of the tabulated pairs vals (n, 2).

    The radiation moments behave as steep power laws in the rotation rate, so
    log-log PCHIP holds a uniform relative accuracy across decades where a
    linear-space interpolant cannot.  Both columns share one two-column
    spline, so ``moments`` takes log W, the interval search and exp once and
    returns two contiguous rows; drift and diffusion alone read single
    columns of the same coefficients.  A column with negative values (the
    finite-T drift can change sign) keeps a linear-space interpolant of its
    own.
    """
    if np.any(vals < 0.0):
        drift, diffusion = (_column_interpolant(grid, vals[:, j]) for j in range(2))
        return drift, diffusion, lambda w: (drift(w), diffusion(w))
    both = _log_log_pchip(grid, vals)
    drift, diffusion = (_exp_log_log(both.column(j)) for j in range(2))
    return drift, diffusion, _exp_log_log(both)


def _column_interpolant(grid, vals):
    """Monotone interpolant of one column: log-log unless it holds negative values."""
    if np.any(vals < 0.0):  # stay in linear space
        lin = _pchip(grid, vals)
        return lambda w: lin(np.clip(w, grid[0], grid[-1]))
    return _exp_log_log(_log_log_pchip(grid, vals))


def _log_log_pchip(grid, vals):
    """PCHIP of log(vals) against log(W), one column per trailing index of vals."""
    tiny = np.max(vals, axis=0) * 1e-290 + 1e-300
    return _pchip(np.log(grid), np.log(np.maximum(vals, tiny)).T)


def _exp_log_log(spline):
    """W -> exp(spline(log W)), exactly 0 at W <= 0; scalar W gives Python floats.

    Below the tabulated foot this extends the first power-law segment.
    """

    def f(w):
        arr = np.atleast_1d(np.asarray(w, dtype=float))
        if arr.size and arr.min() > 0:  # common case: no W <= 0 and no NaN, so no mask
            out = np.exp(spline(np.log(arr)))
        else:
            out = np.zeros(spline.c.shape[1:-1] + arr.shape)
            mask = arr > 0
            if np.any(mask):
                out[..., mask] = np.exp(spline(np.log(arr[mask])))
        return out if np.ndim(w) else out[..., 0].tolist()

    return f


# The PCHIP and Simpson rules below follow scipy 1.17's PchipInterpolator (with
# PPoly evaluation), simpson, cumulative_simpson and cumulative_trapezoid op for
# op, so their values match those bit for bit; they live here so that no
# operation of the rotor layer imports scipy.


class _PiecewiseCubic:
    """Cubic pieces on breakpoints x; ``c[p, ..., i]`` multiplies (t - x[i])**p.

    The axes of c between the power and the piece are columns, evaluated
    together: ``self(t)`` has shape columns + t.shape.  As in scipy's PPoly,
    t takes the piece i with x[i] <= t < x[i+1], the last piece also holds
    t = x[-1], and the end pieces extrapolate; each value is the power sum
    0.0 + c0 + c1*s + c2*(s*s) + c3*((s*s)*s), added in that order.
    """

    __slots__ = ("x", "c", "_inner")

    def __init__(self, x, c):
        self.x = x
        self.c = c
        self._inner = x[1:-1]  # searched on the right: a node takes the piece it starts

    def column(self, j):
        """The pieces of column j alone."""
        return _PiecewiseCubic(self.x, np.ascontiguousarray(self.c[:, j]))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        i = np.searchsorted(self._inner, flat, "right")  # NaN takes the last piece, stays NaN
        powers = np.empty((3,) + (1,) * (self.c.ndim - 2) + flat.shape)  # s, s*s, (s*s)*s
        s = np.subtract(flat, self.x.take(i), out=powers[0])
        np.multiply(s, s, out=powers[1])
        np.multiply(powers[1], s, out=powers[2])
        terms = self.c.take(i, axis=-1)
        terms[1:] *= powers
        out = terms.sum(axis=0, initial=0.0)  # numpy adds four terms in order, from 0.0
        return out.reshape(self.c.shape[1:-1] + t.shape)


def _pchip(x, y):
    """PCHIP through y (nodes on the last axis) at increasing nodes x, at least 3.

    Interior slopes are the Fritsch-Butland weighted harmonic mean of the
    adjacent secants (0 where they differ in sign or one is 0), end slopes
    Moler's shape-preserving one-sided three-point estimate.
    """
    n = len(x)
    if n < 3 or y.shape[-1] != n:
        raise DomainError(f"PCHIP needs >= 3 nodes matching the values, got {n}")
    if not np.isfinite(y).all():
        raise DomainError("PCHIP values must be finite")
    h = np.diff(x)
    mk = (y[..., 1:] - y[..., :-1]) / h  # secants
    smk = np.sign(mk)
    flat = (smk[..., 1:] != smk[..., :-1]) | (mk[..., 1:] == 0) | (mk[..., :-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):  # the flat nodes are dropped
        whmean = (w1 / mk[..., :-1] + w2 / mk[..., 1:]) / (w1 + w2)
        inner = np.where(flat, 0.0, 1.0 / whmean)
    dk = np.concatenate([
        _pchip_end_slope(h[0], h[1], mk[..., 0], mk[..., 1])[..., None],
        inner,
        _pchip_end_slope(h[-1], h[-2], mk[..., -1], mk[..., -2])[..., None],
    ], axis=-1)
    # Hermite coefficients of each piece
    d0 = dk[..., :-1]
    t = (d0 + dk[..., 1:] - 2 * mk) / h
    return _PiecewiseCubic(x, np.stack([y[..., :-1], d0, (mk - d0) / h - t, t / h]))


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at an end node, clipped to keep the shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    wrong_sign = np.sign(d) != np.sign(m0)
    overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3. * np.abs(m0))
    return np.where(wrong_sign, 0.0, np.where(overshoot, 3. * m0, d))


def _spacings(x, what):
    """Node spacings of a strictly increasing grid of at least 3 nodes."""
    h = np.diff(x)
    if len(x) < 3 or not (h > 0).all():
        raise DomainError(f"{what} needs >= 3 strictly increasing nodes, got {len(x)}")
    return h


def _simpson(y, x):
    """Composite Simpson rule for int y dx over an odd number (>= 3) of nodes x."""
    if len(x) % 2 == 0:
        raise DomainError(f"Simpson's rule needs an odd number of nodes, got {len(x)}")
    h = _spacings(x, "Simpson's rule")
    h0, h1 = h[0:-1:2], h[1::2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    tmp = hsum / 6.0 * (y[0:-2:2] * (2.0 - 1.0 / h0divh1)
                        + y[1:-1:2] * (hsum * (hsum / hprod))
                        + y[2::2] * (2.0 - h0divh1))
    return tmp.sum()


def _cumulative_simpson(y, x):
    """Running Simpson integral of y from x[0] at every node (0 at the first).

    Interval k is integrated under the quadratic through its own two nodes
    and the next node when k is even, the previous node when k is odd or
    the interval is the last one.
    """
    h = _spacings(x, "cumulative Simpson")
    ahead = _simpson_first_intervals(y, h)
    behind = _simpson_first_intervals(y[::-1], h[::-1])[::-1]
    parts = np.empty(len(h))
    parts[:-1:2] = ahead[::2]
    parts[1::2] = behind[::2]
    parts[-1] = behind[-1]
    run = np.cumsum(parts)
    run += 0.0  # adds the initial value, as scipy does (-0.0 becomes 0.0)
    return np.concatenate(([0.0], run))


def _simpson_first_intervals(y, h):
    """int over [x_k, x_k+1] of the quadratic through nodes k, k+1, k+2, for each k."""
    x21, x32 = h[:-1], h[1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * y[:-2] + coeff2 * y[1:-1] + coeff3 * y[2:])


def _cumulative_trapezoid(y, x):
    """Running trapezoid integral of y from x[0] at every node (0 at the first)."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def langevin_step(omega, law, I, dt, xi, *, hbar=1.0, drive=0.0,
                  diffusion_scale=FP_DIFFUSION_SCALE):
    """One Euler-Maruyama update; `xi` are standard normals shaped like omega.

    The law is evaluated once per step, for drift and diffusion together.
    The update is omega + drift*dt + noise with drift = -(hbar/I)(Mbar - drive)
    and noise = (hbar/I) sqrt(diffusion_scale*Mbar2*dt) xi, each product taken
    in that order; the temporaries are reused in place.
    """
    mbar, mbar2 = law.moments(omega)
    k = hbar / I
    out = np.subtract(mbar, drive)
    out *= -k
    out *= dt
    out += omega
    noise = np.multiply(diffusion_scale, mbar2)
    noise *= dt
    noise = np.sqrt(noise)
    noise *= k
    noise *= xi
    out += noise
    return out


@dataclass
class RotorEnsemble:
    """Recorded angular-velocity trajectories and their seed ledger."""

    I: float
    hbar: float
    dt: float
    seed: int
    diffusion_scale: float
    drive_at: float | None
    times: np.ndarray
    omegas: np.ndarray  # (n_traj, n_records)
    adiabaticity_max: float

    @property
    def n_traj(self):
        return self.omegas.shape[0]

    @property
    def final(self):
        return self.omegas[:, -1]

    def trajectory_keys(self):
        """Philox keys (seed, traj_id): the per-trajectory RNG ledger."""
        return [(self.seed, i) for i in range(self.n_traj)]


def simulate_ensemble(law, I, omega0, *, t_total, dt, n_traj, seed=0, drive_at=None,
                      hbar=1.0, diffusion_scale=FP_DIFFUSION_SCALE, n_record=33,
                      block_size=4096):
    """Evolve an ensemble of rotors by Euler-Maruyama.

    Counter-based RNG: trajectory i draws from Philox(key=(seed, i)), so the
    ensemble is reproducible under any blocking or scheduling.  Trajectories
    run in blocks of ``block_size``; each block draws its noise
    ``NOISE_CHUNK`` steps at a time, so memory scales with
    block_size * NOISE_CHUNK and not with the number of steps, and the
    recorded trajectories do not depend on the block or chunk size.  The
    torque law is evaluated once per step (``TorqueLaw.moments``).  A
    reflecting boundary keeps W >= 0.  ``drive_at=W0`` applies the constant
    torque hbar*Mbar(W0) that holds the rotor near the set point; ``None``
    lets it decay freely.  dt must satisfy dt*(hbar/I)*dMbar/dW < 0.1
    everywhere the ensemble goes, and W must stay finite (both checked every
    ``GUARD_EVERY`` steps, and finiteness again at the end).  ``n_record``
    (>= 2) counts the recorded times, the start and the end included.
    """
    if n_traj < 1:
        raise DomainError(f"n_traj must be >= 1, got {n_traj}")
    if n_record < 2:
        raise DomainError(f"n_record must be >= 2, got {n_record}")
    if dt <= 0 or t_total <= 0:
        raise DomainError("need positive dt and t_total")
    n_steps = int(round(t_total / dt))
    if n_steps < 1:
        raise DomainError("t_total shorter than one step")
    rec_idx = np.unique(np.linspace(0, n_steps, min(n_record, n_steps + 1)).astype(int))
    times = rec_idx * dt
    drive = float(law.drift(drive_at)) if drive_at is not None else 0.0

    omegas = np.empty((n_traj, len(rec_idx)))
    adiab_max = 0.0
    for start in range(0, n_traj, block_size):
        stop = min(start + block_size, n_traj)
        nb = stop - start
        gens = [
            np.random.Generator(np.random.Philox(key=np.array([seed, j], dtype=np.uint64)))
            for j in range(start, stop)
        ]
        draws = np.empty((nb, NOISE_CHUNK))  # row j: the next steps of trajectory start + j
        noise = np.empty((NOISE_CHUNK, nb))  # row s: step s of the chunk, every trajectory
        W = np.full(nb, float(omega0))
        rec_pos = 0
        if rec_idx[0] == 0:
            omegas[start:stop, 0] = W
            rec_pos = 1
        for step in range(n_steps):
            s = step % NOISE_CHUNK
            if s == 0:
                k = min(NOISE_CHUNK, n_steps - step)
                for j, gen in enumerate(gens):
                    gen.standard_normal(out=draws[j, :k])
                _transpose_into(noise, draws, k)
            if step % GUARD_EVERY == 0:
                _check_finite(W, step, start)
                stiff = dt * (hbar / I) * np.max(np.abs(law.drift_derivative(W)))
                if stiff >= STIFFNESS_LIMIT:
                    raise StepSizeError(
                        f"dt*(hbar/I)*dMbar/dW = {stiff:.3g} >= {STIFFNESS_LIMIT}"
                    )
                det = (hbar / I) * np.abs(law.drift(W) - drive)
                wsafe = np.maximum(W, 1e-300)
                adiab_max = max(adiab_max, float(np.max(det / wsafe**2)))
            W = langevin_step(
                W, law, I, dt, noise[s], hbar=hbar, drive=drive,
                diffusion_scale=diffusion_scale,
            )
            np.abs(W, out=W)  # reflecting boundary at W = 0
            if rec_pos < len(rec_idx) and step + 1 == rec_idx[rec_pos]:
                omegas[start:stop, rec_pos] = W
                rec_pos += 1
        _check_finite(W, n_steps, start)

    if adiab_max > ADIABATIC_LIMIT:
        warnings.warn(
            f"adiabaticity monitor |dW/dt|/W^2 reached {adiab_max:.3g} > {ADIABATIC_LIMIT}",
            UserWarning,
            stacklevel=2,
        )
    return RotorEnsemble(
        I, hbar, dt, seed, diffusion_scale, drive_at, times, omegas, adiab_max
    )


def _transpose_into(dst, src, k):
    """dst[:k] = src[:, :k].T, copied in square tiles that stay in cache."""
    for i in range(0, src.shape[0], _TILE):
        for j in range(0, k, _TILE):
            jj = min(j + _TILE, k)
            dst[j:jj, i:i + _TILE] = src[i:i + _TILE, j:jj].T


def _check_finite(W, step, start):
    """Raise :class:`StepSizeError` naming the first trajectory whose W is NaN or inf."""
    bad = ~np.isfinite(W)
    if bad.any():
        i = int(np.argmax(bad))
        raise StepSizeError(
            f"W = {W[i]} is not finite after step {step} in trajectory {start + i}"
        )


@dataclass
class StationaryDistribution:
    """Normalized stationary density of the driven rotor on a grid."""

    omega: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray = field(init=False)

    def __post_init__(self):
        c = _cumulative_trapezoid(self.pdf, self.omega)
        self.cdf = c / c[-1]

    def mean(self):
        return float(_simpson(self.omega * self.pdf, self.omega))

    def var(self):
        mu = self.mean()
        return float(_simpson((self.omega - mu) ** 2 * self.pdf, self.omega))

    def std(self):
        return math.sqrt(self.var())

    def cdf_at(self, x):
        return np.interp(x, self.omega, self.cdf, left=0.0, right=1.0)

    def ks_statistic(self, samples):
        """Kolmogorov-Smirnov sup-distance of an i.i.d. sample to this law."""
        x = np.sort(np.asarray(samples, dtype=float))
        n = len(x)
        F = self.cdf_at(x)
        i = np.arange(1, n + 1)
        return float(max(np.max(i / n - F), np.max(F - (i - 1) / n)))


def fokker_planck_stationary(law, omega0, I, *, hbar=1.0, n_grid=4001, span=16.0,
                             grid=None):
    """Exact stationary density of the rotor driven at the set point omega0.

    P(W) = C/Mbar2(W) exp[-(I/hbar) int (Mbar - Mbar(omega0))/Mbar2], with the
    path integral anchored at omega0 (the divergent constant from the lower
    limit cancels against the normalization).  Raises :class:`DomainError`
    when the density is not normalizable (e.g. free decay, Mbar(omega0) = 0,
    against a diffusion vanishing at W = 0 with exponent >= 1).
    """
    if I <= 0 or hbar <= 0:
        raise DomainError("need I > 0 and hbar > 0")
    drive = float(law.drift(omega0))
    if grid is None:
        try:
            sig = uncertainty(law, omega0, I, hbar=hbar) / I
        except DomainError:
            sig = 0.25 * omega0
        lo = max(omega0 - span * sig, 1e-9 * omega0)
        hi = omega0 + span * sig
        grid = np.linspace(lo, hi, n_grid)
    else:
        grid = np.asarray(grid, dtype=float)
        if grid[0] <= 0:
            raise DomainError("grid must be strictly positive")

    floor = 1e-12 * omega0
    n = len(grid) | 1  # odd count so the half-resolution subsample is Simpson-clean
    grid = np.linspace(grid[0], grid[-1], n)
    for _ in range(60):
        pdf = _fp_density_on(law, omega0, I, hbar, drive, grid)
        ok_left = pdf[0] < 1e-12 or grid[0] <= floor
        ok_right = pdf[-1] < 1e-12
        if ok_left and ok_right:
            break
        lo, hi = grid[0], grid[-1]
        width = hi - lo
        if not ok_left:
            lo = max(lo - 0.75 * width, floor)
        if not ok_right:
            hi = hi + 0.75 * width
        grid = np.linspace(lo, hi, n)
    else:
        raise ConvergenceError("stationary-density support search did not close")
    if grid[0] <= floor and pdf[0] > 1e-6:
        k = _low_end_exponent(law, grid)
        raise DomainError(
            f"stationary density diverges at W -> 0 (diffusion exponent ~{k:.2f}): "
            "not normalizable"
        )

    # refine until the Simpson norm is resolution-independent to ~1e-8
    for _ in range(4):
        norm = _simpson(pdf, grid)
        if not np.isfinite(norm) or norm <= 0:
            raise DomainError("stationary density is not normalizable on the grid")
        coarse = _simpson(pdf[::2], grid[::2])
        if abs(coarse / norm - 1.0) < 1.5e-7:  # ~15x the fine-grid error
            return StationaryDistribution(grid, pdf / norm)
        n = 2 * n - 1
        grid = np.linspace(grid[0], grid[-1], n)
        pdf = _fp_density_on(law, omega0, I, hbar, drive, grid)
    raise ConvergenceError("stationary-density quadrature did not reach 1e-8")


def _fp_density_on(law, omega0, I, hbar, drive, grid):
    """Unnormalized stationary density (peak scaled to 1) on a given grid."""
    M2 = np.asarray(law.diffusion(grid), dtype=float)
    if np.any(M2 <= 0):
        raise DomainError("Mbar2 must be > 0 on the integration domain")
    h = (np.asarray(law.drift(grid), dtype=float) - drive) / M2
    # O(h^4) cumulative rule: the exponent is multiplied by I/hbar, so the
    # 1e-8 normalization target needs better than trapezoid accuracy
    G = _cumulative_simpson(h, grid)
    G -= np.interp(omega0, grid, G)  # anchor the path integral at omega0
    logp = -np.log(M2) - (I / hbar) * G
    logp -= np.max(logp)
    return np.exp(logp)


def _low_end_exponent(law, grid):
    w1, w2 = grid[0], grid[min(8, len(grid) - 1)]
    d1, d2 = float(law.diffusion(w1)), float(law.diffusion(w2))
    if d1 <= 0 or d2 <= 0 or w1 == w2:
        return float("nan")
    return math.log(d2 / d1) / math.log(w2 / w1)


def uncertainty(law, omega0, I, *, hbar=1.0):
    """Quantum width of the driven steady state: sqrt(hbar I Mbar2 / Mbar').

    The drift slope is taken by adaptive centered differences on the
    (possibly memoized) law; a flat or decreasing torque has no confining
    steady state and raises :class:`DomainError`.
    """
    if I <= 0:
        raise DomainError("need I > 0")
    slope = _centered_derivative(law.drift, omega0)
    if slope is None or slope <= 0:
        raise DomainError(f"dMbar/dW = {slope} at W0={omega0:g}: no confinement")
    M2 = float(law.diffusion(omega0))
    return math.sqrt(hbar * I * M2 / slope)
