"""Stochastic rotational dynamics driven by radiation back-reaction.

Natural units throughout (hbar = c = k_B = 1), so no function here takes
hbar.  The angular-momentum flux defines a drift Mbar(W) (the mean torque)
and a diffusion strength Mbar2(W) (the torque variance).  The probability
density of the angular velocity obeys the master equation whose stationary
driven solution is

    P(W) = C / Mbar2(W) * exp[-I int_0^W (Mbar - Mbar(W0)) / Mbar2 dW'].

The equivalent Ito SDE for that equation carries noise variance
2 * Mbar2 * dt per step (the master equation's diffusion term reads
d^2/dW^2 (Mbar2 P) with no 1/2), which is what the simulator uses, so that
ensembles, the stationary closed form and the width formula
I*dW = sqrt(I*Mbar2/Mbar') are mutually consistent; a freely decaying
ensemble's Var[I W] grows as 2*Mbar2*t at early times.  A law is built by
:meth:`TorqueLaw.from_moments` from its moment function W -> (Mbar, Mbar2)
and its drift slope Mbar', which serves every slope the layer takes (the
width, the stiffness guard, the CLI's time step).  A numeric law is
tabulated by :func:`tabulate_torque_law`, whose moment function may return
a radiation job (see :mod:`spinrad.radiation`): every new rate of a
refinement round is then integrated in one lock-step batch.

A Langevin ensemble steps by the simplified weak Euler scheme: each
increment is +-sqrt(dt), one bit of a counter-based Philox output addressed
by step and trajectory, drawn in the calling process (see
:func:`simulate_ensemble`).  Two-point increments give the same weak order
1 as Gaussian ones, so the ensemble samples the law of W(t) (its mean,
width and stationary CDF); its trajectories are not strong approximations
of the SDE's paths.

The layer imports no scipy.  The monotone cubic (PCHIP) of tabulated torque
laws is private numpy code written op for op after scipy 1.17, so that its
values, and with them every trajectory, equal scipy's bit for bit.  An input
that lies in one piece (a driven ensemble is far narrower than a piece)
skips the per-point search and gathers and takes that piece's coefficients,
with the same bits.  The
stationary density, built only on evenly spaced grids, takes its integrals
from one running Simpson rule for such grids and its CDF from the trapezoid
rule.
"""

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, StepSizeError
from .radiation import MSumPolicy, partial_wave_sum, run_jobs
from .material import ThermalState

FP_DIFFUSION_SCALE = 2.0

STIFFNESS_LIMIT = 0.1

ADIABATIC_LIMIT = 0.1

# Langevin trajectories run BLOCK_SIZE at a time and draw their noise
# NOISE_CHUNK steps at a time, so an ensemble holds BLOCK_SIZE * NOISE_CHUNK
# doubles of noise whatever its length
BLOCK_SIZE = 4096
NOISE_CHUNK = 256

# trajectories that share one Philox output (four 64-bit words) per step
_GROUP = 256

# steps between the ensemble's finiteness, stiffness and adiabaticity checks
GUARD_EVERY = 25

# the stationary density's first grid: FP_GRID_POINTS nodes (an odd count, so
# the half-resolution subsample is Simpson-clean) over omega0 +- FP_SPAN widths
FP_GRID_POINTS = 4001
FP_SPAN = 16.0


@dataclass(frozen=True)
class TorqueLaw:
    """Drift Mbar(W) and diffusion Mbar2(W), both vectorized over W.

    Build one with :meth:`from_moments`: ``drift`` and ``diffusion`` are the
    rows of ``moments_fn``, and ``drift_derivative_fn`` is dMbar/dW.
    """

    drift: object
    diffusion: object
    drift_derivative_fn: object
    moments_fn: object

    @classmethod
    def from_moments(cls, moments, slope):
        """The law with (Mbar(W), Mbar2(W)) = moments(W) and dMbar/dW = slope(W)."""
        return cls(lambda w: moments(w)[0], lambda w: moments(w)[1], slope, moments)

    @classmethod
    def power_law(cls, coeff, exponent):
        """Mbar = Mbar2 = coeff * W^exponent.

        A whole exponent n >= 1 takes W^n (and the slope's W^(n-1)) by
        :func:`_whole_power`, in IEEE products only, so its bits are the same
        on every CPU; any other exponent takes ``np.power``, whose bits follow
        the SIMD loop numpy dispatches to.  Mbar and Mbar2 are one array.
        """
        if coeff < 0:
            raise DomainError("torque-law coefficient must be >= 0")
        if exponent >= 1 and float(exponent).is_integer():
            n = int(exponent)
            power = lambda w, k: _whole_power(w, n - k)
        else:
            power = lambda w, k: np.power(w, exponent - k)

        def moments(w):  # one product serves both
            m = coeff * power(w, 0)
            return m, m

        return cls.from_moments(moments, lambda w: coeff * exponent * power(w, 1))

    def moments(self, w):
        """(Mbar(W), Mbar2(W)) in one evaluation."""
        return self.moments_fn(w)

    def drift_derivative(self, w):
        """dMbar/dW."""
        return self.drift_derivative_fn(w)


def _whole_power(w, n):
    """W^n for a whole n >= 0 by square-and-multiply over the bits of n.

    W^5 = W*(W^2)^2 and W^4 = (W^2)^2.  Every step is one IEEE product,
    correctly rounded on any CPU, so the bits do not depend on the SIMD loop
    numpy dispatches ``np.power`` to.  A scalar W gives the bits of its entry
    in an array.
    """
    w = np.asarray(w, dtype=float)
    if n < 2:
        return w if n else np.ones_like(w)
    p = w * w  # a new array (a float for 0-d W), so the products below may overwrite it
    for i, bit in enumerate(bin(n)[3:]):  # the bits below the leading one, high to low
        if i:
            p *= p
        if bit == "1":
            p *= w
    return p


def torque_law_from_radiation(table, state, omega_range, rtol=1e-6, policy=None):
    """Numeric torque law: Mbar, Mbar2 memoized on a refining grid.

    Mbar(W)  = sum_m int dw/2pi m   N_m(w)
    Mbar2(W) = sum_m int dw/2pi m^2 N_m(w) (N_m(w) + 1)

    evaluated at rotation rate W over the partial waves of ``policy`` (an
    :class:`MSumPolicy`; ``auto_extend`` grows the sum by |Mbar2|, the more
    slowly converging of the two) by one :func:`partial_wave_sum` job per
    rate, the rates of a refinement round run in lock-step,
    interpolated monotonically (PCHIP) and refined by grid doubling until
    the interpolant reproduces midpoint evaluations to ``rtol`` relative.
    Both weights vanish at m = 0, so that channel is never integrated.
    """
    policy = policy or MSumPolicy()

    def weight(w, m, N):  # Mbar2 first: partial_wave_sum grows by the first component
        return np.array([m * m * N * (N + 1.0), m * N])

    def moments(W):  # a job: the stages of its partial-wave sum, then (Mbar, Mbar2)
        st = ThermalState(state.T_object, state.T_env, W)
        channels, _ = yield from partial_wave_sum(table, st, weight, policy, m_min=1)
        out = np.zeros(2)
        for *_, val, _ in channels:
            out += val
        return out[::-1]

    return tabulate_torque_law(moments, omega_range, rtol=rtol)


def tabulate_torque_law(moments, omega_range, rtol=1e-6):
    """Memoize a (drift, diffusion) moment function on a refining log grid.

    ``moments(W)`` returns the pair (Mbar, Mbar2) at rotation rate W, or a
    job that returns it (:func:`~spinrad.radiation.run_jobs`); it is called
    at most once per distinct W.  Each refinement interleaves the grid with
    its geometric midpoints, so the midpoints probed to test the log-log
    interpolant are nodes of the next grid and are never computed twice.
    The new grid nodes and the probes of a round are evaluated together, their
    jobs driven in lock-step.  The grid doubles until the interpolant
    reproduces the probes to ``rtol`` relative.
    """
    lo, hi = omega_range
    if not 0 <= lo < hi:
        raise DomainError("need 0 <= lo < hi for the tabulation range")
    memo = {}

    def evaluate(ws):
        ws = ws.tolist()
        new = [w for w in dict.fromkeys(ws) if w not in memo]
        memo.update(zip(new, run_jobs([moments(w) for w in new])))
        return np.array([memo[w] for w in ws], dtype=float)

    grid = np.geomspace(max(lo, hi * 1e-4), hi, 17)
    for _ in range(7):
        mids = np.sqrt(grid[:-1] * grid[1:])
        probe = mids[:: max(1, (len(grid) - 1) // 8)]
        # the new grid nodes and the probes of a round run as one lock-step batch
        vals = evaluate(np.concatenate([grid, probe]))
        vals, direct = vals[:len(grid)], vals[len(grid):]
        if np.all(vals == 0.0):
            zero = lambda w: np.zeros_like(np.asarray(w, dtype=float))
            return TorqueLaw.from_moments(lambda w: (zero(w), zero(w)), zero)
        moments_i = _moment_interpolants(grid, vals)
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
        span = np.where(w < h, w + h, 2.0 * h)  # the lower point is clipped at W = 0
        return (moments_i(w + h)[0] - moments_i(np.maximum(w - h, 0.0))[0]) / span

    return TorqueLaw.from_moments(moments_i, slope)


def _moment_interpolants(grid, vals):
    """Interpolant W -> (Mbar, Mbar2) of the tabulated pairs vals (n, 2).

    The radiation moments behave as steep power laws in the rotation rate, so
    log-log PCHIP holds a uniform relative accuracy across decades where a
    linear-space interpolant cannot.  Both columns share one two-column
    spline, so an evaluation takes log W, the interval search and exp once
    and returns two contiguous rows.  A column with negative values (the
    finite-T drift can change sign) keeps a linear-space interpolant of its
    own.
    """
    if np.any(vals < 0.0):
        drift, diffusion = (_column_interpolant(grid, vals[:, j]) for j in range(2))
        return lambda w: (drift(w), diffusion(w))
    return _exp_log_log(_log_log_pchip(grid, vals))


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


# The PCHIP below follows scipy 1.17's PchipInterpolator (with PPoly
# evaluation) op for op, so its values match scipy's bit for bit; it lives here
# so that no operation of the rotor layer imports scipy.


class _PiecewiseCubic:
    """Cubic pieces on breakpoints x; ``c[p, ..., i]`` multiplies (t - x[i])**p.

    The axes of c between the power and the piece are columns, evaluated
    together: ``self(t)`` has shape columns + t.shape.  As in scipy's PPoly,
    t takes the piece i with x[i] <= t < x[i+1], the last piece also holds
    t = x[-1], and the end pieces extrapolate; each value is the power sum
    0.0 + c0 + c1*s + c2*(s*s) + c3*((s*s)*s), added in that order.

    The pieces of min(t) and max(t) bound the search.  When both are one
    piece and no t is NaN, every point takes that piece's coefficients
    directly, with no per-point search and no gather; the operations and
    their order are the same, so are the bits.  Otherwise each t is searched
    among the breakpoints between those two pieces only.
    """

    __slots__ = ("x", "c", "_inner")

    def __init__(self, x, c):
        self.x = x
        self.c = c
        self._inner = x[1:-1]  # searched on the right: a node takes the piece it starts

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        shape = self.c.shape[1:-1] + t.shape
        inner = self._inner
        lo, hi = 0, len(inner)
        low = np.minimum.reduce(flat) if flat.size else math.nan  # NaN if any t is NaN
        if low == low:  # no NaN: a NaN sorts last, so it keeps the whole search
            lo, hi = inner.searchsorted((low, np.maximum.reduce(flat)), "right").tolist()
            if lo == hi:  # one piece: its scalar coefficients, no search and no gather
                c0, c1, c2, c3 = self.c[..., lo, None]
                s = flat - self.x[lo]
                out = np.multiply(c1, s)
                np.add(0.0 + c0, out, out=out)
                ss = s * s
                term = np.multiply(c2, ss)
                out += term
                ss *= s
                out += np.multiply(c3, ss, out=term)
                return out.reshape(shape)
        i = inner[lo:hi].searchsorted(flat, "right")  # every t lies in pieces lo..hi
        i += lo
        powers = np.empty((3,) + (1,) * (self.c.ndim - 2) + flat.shape)  # s, s*s, (s*s)*s
        s = np.subtract(flat, self.x.take(i), out=powers[0])
        np.multiply(s, s, out=powers[1])
        np.multiply(powers[1], s, out=powers[2])
        terms = self.c.take(i, axis=-1)
        terms[1:] *= powers
        out = terms.sum(axis=0, initial=0.0)  # numpy adds four terms in order, from 0.0
        return out.reshape(shape)


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


def _cumulative_simpson(y, x):
    """Running Simpson integral of y from x[0] at every node (0 at the first).

    The nodes x are evenly spaced, at least 3.  Interval k is integrated
    under the parabola through nodes k, k+1, k+2 when k is even, through
    k-1, k, k+1 when k is odd or the interval is the last one, so each pair
    of intervals adds one Simpson panel h/3 (y0 + 4 y1 + y2) and the value
    at the last node of an odd count is the composite Simpson rule.
    """
    n = len(x)
    if n < 3:
        raise DomainError(f"cumulative Simpson needs >= 3 nodes, got {n}")
    parts = np.empty(n - 1)
    parts[:-1:2] = 5.0 * y[0:-2:2] + 8.0 * y[1:-1:2] - y[2::2]  # (5, 8, -1) ahead
    parts[1::2] = -y[0:-2:2] + 8.0 * y[1:-1:2] + 5.0 * y[2::2]  # (-1, 8, 5) behind
    parts[-1] = -y[-3] + 8.0 * y[-2] + 5.0 * y[-1]  # the last interval looks behind
    run = np.cumsum(parts)
    run *= (x[-1] - x[0]) / (n - 1) / 12.0
    return np.concatenate(([0.0], run))


def _cumulative_trapezoid(y, x):
    """Running trapezoid integral of y from x[0] at every node (0 at the first)."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def langevin_step(omega, law, I, dt, xi, *, drive=0.0):
    """One Euler update; `xi` are unit-variance increments shaped like omega.

    :func:`simulate_ensemble` passes two-point increments +-1 (the weak
    Euler scheme); a caller passing standard normals gets Euler-Maruyama.

    The law is evaluated once per step, for drift and diffusion together.
    The update is omega + drift*dt + noise with drift = -(1/I)(Mbar - drive)
    and noise = (1/I) sqrt(FP_DIFFUSION_SCALE*Mbar2*dt) xi, each product taken
    in that order; the temporaries are reused in place.
    """
    mbar, mbar2 = law.moments(omega)
    k = 1.0 / I
    out = np.subtract(mbar, drive)
    out *= -k
    out *= dt
    out += omega
    noise = np.multiply(FP_DIFFUSION_SCALE, mbar2)
    noise *= dt
    noise = np.sqrt(noise)
    noise *= k
    noise *= xi
    out += noise
    return out


@dataclass
class RotorEnsemble:
    """Recorded angular-velocity trajectories and the seed they were drawn from."""

    I: float
    dt: float
    seed: int
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


def simulate_ensemble(law, I, omega0, *, t_total, dt, n_traj, seed=0, drive_at=None,
                      n_record=33):
    """Evolve an ensemble of rotors by the simplified weak Euler scheme.

    Each increment xi = +-1 is one bit of a counter-based Philox output
    (see :func:`_block_noise` for the layout): trajectory j at step n reads
    its bit from the output of key (seed, 0) at counter (n, j // 256, 0, 0),
    in the calling process.  The ensemble is therefore reproducible under
    any blocking or chunking, and prefix-stable: the first k trajectories of
    an n-trajectory run equal a k-trajectory run.  Two-point increments have
    the weak order 1 of Gaussian ones, so the ensemble samples the law of
    W(t); its trajectories are not strong path approximations.
    Trajectories run in blocks of ``BLOCK_SIZE``; each block draws its noise
    ``NOISE_CHUNK`` steps at a time, so memory scales with
    BLOCK_SIZE * NOISE_CHUNK and not with the number of steps.

    The torque law is evaluated once per step (``TorqueLaw.moments``).  A
    reflecting boundary keeps W >= 0.  ``drive_at=W0`` applies the constant
    torque Mbar(W0) that holds the rotor near the set point; ``None`` lets it
    decay freely.  dt must satisfy dt*(1/I)*dMbar/dW < 0.1 everywhere the
    ensemble goes, with the slope from ``TorqueLaw.drift_derivative``, and W
    must stay finite (both checked every ``GUARD_EVERY`` steps, and
    finiteness again at the end).  ``n_record`` (>= 2) counts the recorded
    times, the start and the end included.  I, dt and t_total must be
    finite and > 0, omega0 and drive_at finite and >= 0, and n_traj,
    n_record and seed as :func:`check_ensemble_counts` requires
    (:class:`DomainError` naming the argument, before any work).
    """
    check_ensemble_counts(n_traj, n_record, seed)
    _check_args((("I", I), ("dt", dt), ("t_total", t_total)),
                (("omega0", omega0), ("drive_at", drive_at)))
    if not math.isfinite(t_total / dt):
        raise DomainError(f"t_total / dt = {t_total / dt} steps is not finite")
    n_steps = int(round(t_total / dt))
    if n_steps < 1:
        raise DomainError("t_total shorter than one step")
    rec_idx = np.unique(np.linspace(0, n_steps, min(n_record, n_steps + 1)).astype(int))
    times = rec_idx * dt
    drive = float(law.drift(drive_at)) if drive_at is not None else 0.0
    inv_I = 1.0 / I

    omegas = np.empty((n_traj, len(rec_idx)))
    adiab_max = 0.0
    for start in range(0, n_traj, BLOCK_SIZE):
        stop = min(start + BLOCK_SIZE, n_traj)
        W = np.full(stop - start, float(omega0))
        omegas[start:stop, 0] = W  # rec_idx[0] == 0: the start is always recorded
        rec_pos = 1
        chunks = _block_noise(seed, start, stop, n_steps)
        for step in range(n_steps):
            s = step % NOISE_CHUNK
            if s == 0:
                noise = next(chunks)  # row s: step s of the chunk, every trajectory
            if step % GUARD_EVERY == 0:
                _check_finite(W, step, start)
                stiff = dt * inv_I * np.max(np.abs(law.drift_derivative(W)))
                if stiff >= STIFFNESS_LIMIT:
                    raise StepSizeError(
                        f"dt*(1/I)*dMbar/dW = {stiff:.3g} >= {STIFFNESS_LIMIT}")
                det = inv_I * np.abs(law.drift(W) - drive)
                wsafe = np.maximum(W, 1e-300)
                adiab_max = max(adiab_max, float(np.max(det / wsafe**2)))
            W = langevin_step(W, law, I, dt, noise[s], drive=drive)
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
    return RotorEnsemble(I, dt, seed, drive_at, times, omegas, adiab_max)


def _check_args(positive, nonnegative):
    """Raise :class:`DomainError` naming the first argument out of its range.

    Each is a (name, value) pair: a ``positive`` value must be finite and > 0,
    a ``nonnegative`` one finite and >= 0 or None.
    """
    for name, value in positive:
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be finite and > 0, got {value}")
    for name, value in nonnegative:
        if value is not None and not (math.isfinite(value) and value >= 0):
            raise DomainError(f"{name} must be finite and >= 0, got {value}")


def check_ensemble_counts(n_traj, n_record, seed):
    """Raise :class:`DomainError` unless n_traj >= 1, n_record >= 2 and seed in [0, 2**64).

    All three must be ints, bool not among them.  :func:`simulate_ensemble`
    applies this rule, and a caller can apply it before building the law.
    """
    for name, value in (("n_traj", n_traj), ("n_record", n_record), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DomainError(f"{name} must be an int, got {value!r}")
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must lie in [0, 2**64), got {seed}")
    if n_traj < 1:
        raise DomainError(f"n_traj must be >= 1, got {n_traj}")
    if n_record < 2:
        raise DomainError(f"n_record must be >= 2, got {n_record}")


def _block_noise(seed, start, stop, n_steps):
    """The noise of trajectories start..stop-1, one chunk of steps per iteration.

    Trajectory j at step n takes bit j % 64 of word (j % 256) // 64 of the
    four outputs of Philox(key=(seed, 0)) at counter (n, j // 256, 0, 0): +1
    where it is set, -1 where it is clear.  One generator per group of
    ``_GROUP`` trajectories that the block touches draws the words of a
    chunk in one call, and one unpacking of their bytes gives the chunk's
    bits step-major, so row s of the yielded slot holds step s of the chunk
    for every trajectory of the block.  Each bit b becomes 2b - 1 in place in
    its own byte (as int8), and one copy converts the chunk into the float
    slot: exactly the +-1.0 of 2.0*b - 1.0, in one pass over the slot, not two.
    """
    key = np.array([seed, 0], dtype=np.uint64)
    gens = [np.random.Philox(key=key, counter=np.array([0, g, 0, 0], dtype=np.uint64))
            for g in range(start // _GROUP, (stop - 1) // _GROUP + 1)]
    cols = slice(start % _GROUP, start % _GROUP + stop - start)
    slot = np.empty((NOISE_CHUNK, stop - start))
    for first in range(0, n_steps, NOISE_CHUNK):
        rows = min(NOISE_CHUNK, n_steps - first)
        words = np.stack([gen.random_raw(4 * rows).reshape(rows, 4) for gen in gens], axis=1)
        octets = words.astype("<u8", copy=False).view(np.uint8).reshape(rows, -1)
        sign = np.unpackbits(octets, axis=1, bitorder="little")[:, cols].view(np.int8)
        sign *= 2  # +-1 formed in the int8 bytes, so the float slot is written once
        sign -= 1
        np.copyto(slot[:rows], sign)
        yield slot


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
        return float(_cumulative_simpson(self.omega * self.pdf, self.omega)[-1])

    def var(self):
        mu = self.mean()
        return float(_cumulative_simpson((self.omega - mu) ** 2 * self.pdf, self.omega)[-1])

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


def fokker_planck_stationary(law, omega0, I):
    """Exact stationary density of the rotor driven at the set point omega0.

    P(W) = C/Mbar2(W) exp[-I int (Mbar - Mbar(omega0))/Mbar2], with the path
    integral anchored at omega0 (the divergent constant from the lower limit
    cancels against the normalization).  The first grid spans omega0 +-
    ``FP_SPAN`` widths (:func:`uncertainty`) but starts no lower than
    omega0/``FP_SPAN``, lest one Simpson step cross a steep 1/Mbar2 (W^-5);
    it is widened until the density has decayed at both ends, its lower end
    divided by ``FP_SPAN`` at a time.  Raises :class:`DomainError` when the
    density is not normalizable (e.g. free decay, Mbar(omega0) = 0, against a
    diffusion vanishing at W = 0 with exponent >= 1).  I must be finite and
    > 0 and omega0 finite and >= 0 (:class:`DomainError` naming the argument).
    """
    _check_args((("I", I),), (("omega0", omega0),))
    drive = float(law.drift(omega0))
    try:
        sig = uncertainty(law, omega0, I) / I
    except DomainError:
        sig = 0.25 * omega0
    n = FP_GRID_POINTS
    grid = np.linspace(max(omega0 - FP_SPAN * sig, omega0 / FP_SPAN), omega0 + FP_SPAN * sig, n)

    floor = 1e-12 * omega0
    for _ in range(60):
        pdf = _fp_density_on(law, omega0, I, drive, grid)
        ok_left = pdf[0] < 1e-12 or grid[0] <= floor
        ok_right = pdf[-1] < 1e-12
        if ok_left and ok_right:
            break
        lo, hi = grid[0], grid[-1]
        width = hi - lo
        if not ok_left:
            lo = max(lo / FP_SPAN, floor)
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
        norm = _cumulative_simpson(pdf, grid)[-1]
        if not np.isfinite(norm) or norm <= 0:
            raise DomainError("stationary density is not normalizable on the grid")
        coarse = _cumulative_simpson(pdf[::2], grid[::2])[-1]
        if abs(coarse / norm - 1.0) < 1.5e-7:  # ~15x the fine-grid error
            return StationaryDistribution(grid, pdf / norm)
        n = 2 * n - 1
        grid = np.linspace(grid[0], grid[-1], n)
        pdf = _fp_density_on(law, omega0, I, drive, grid)
    raise ConvergenceError("stationary-density quadrature did not reach 1e-8")


def _fp_density_on(law, omega0, I, drive, grid):
    """Unnormalized stationary density (peak scaled to 1) on a given grid."""
    M, M2 = (np.asarray(m, dtype=float) for m in law.moments(grid))
    if np.any(M2 <= 0):
        raise DomainError("Mbar2 must be > 0 on the integration domain")
    h = (M - drive) / M2
    # O(h^4) cumulative rule: the exponent is multiplied by I, so the
    # 1e-8 normalization target needs better than trapezoid accuracy
    G = _cumulative_simpson(h, grid)
    G -= np.interp(omega0, grid, G)  # anchor the path integral at omega0
    logp = -np.log(M2) - I * G
    logp -= np.max(logp)
    return np.exp(logp)


def _low_end_exponent(law, grid):
    w1, w2 = grid[0], grid[min(8, len(grid) - 1)]
    d1, d2 = float(law.diffusion(w1)), float(law.diffusion(w2))
    if d1 <= 0 or d2 <= 0 or w1 == w2:
        return float("nan")
    return math.log(d2 / d1) / math.log(w2 / w1)


def uncertainty(law, omega0, I):
    """Quantum width of the driven steady state: I*dW = sqrt(I Mbar2 / Mbar').

    Mbar' is the law's own :meth:`TorqueLaw.drift_derivative` at omega0; a
    flat or decreasing torque has no confining steady state and raises
    :class:`DomainError`, as do an I that is not finite and > 0 and an
    omega0 that is not finite and >= 0 (naming the argument).
    """
    _check_args((("I", I),), (("omega0", omega0),))
    slope = law.drift_derivative(omega0)
    if slope <= 0:
        raise DomainError(f"dMbar/dW = {slope} at W0={omega0:g}: no confinement")
    return math.sqrt(I * float(law.diffusion(omega0)) / slope)
