"""Rotor dynamics: drift ODE limit, fluctuation statistics, stationary law."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from spinrad import rotor
from spinrad import (
    DiskTable,
    DomainError,
    Drude,
    MSumPolicy,
    SphereTable,
    SpinradError,
    StepSizeError,
    ThermalState,
    TorqueLaw,
    fokker_planck_stationary,
    langevin_step,
    simulate_ensemble,
    tabulate_torque_law,
    torque_law_from_radiation,
    uncertainty,
)
from spinrad.radiation import run_jobs

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def power5(c=1.0):
    return TorqueLaw.power_law(c, 5)


def drift_only_quintic(c):
    """Mbar = c W^5 with no diffusion: the deterministic spin-down."""
    return TorqueLaw.from_moments(lambda w: (c * np.power(w, 5), 0.0 * w),
                                  lambda w: 5 * c * np.power(w, 4))


class TestUncertainty:
    def test_power_law_closed_form(self):
        for c in (0.1, 1.0, 40.0):
            got = uncertainty(power5(c), 2.0, 3.0)
            assert got == pytest.approx(math.sqrt(3.0 * 2.0 / 5.0), rel=1e-14)

    @pytest.mark.parametrize("k", [1, 3, 5, 8])
    def test_general_exponent(self, k):
        law = TorqueLaw.power_law(2.0, k)
        assert uncertainty(law, 1.5, 4.0) == pytest.approx(
            math.sqrt(4.0 * 1.5 / k), rel=1e-14
        )

    def test_tabulated_law_uses_its_own_slope(self):
        law = tabulate_torque_law(lambda w: (w**5 + 0.3 * w**3, w**5), (0.0, 2.0))
        W0, I = 1.1, 7.0
        assert uncertainty(law, W0, I) == math.sqrt(
            I * law.diffusion(W0) / law.drift_derivative(W0))

    def test_flat_law_raises(self):
        flat = TorqueLaw.from_moments(lambda w: (0.0 * w + 1.0,) * 2, lambda w: 0.0 * w)
        with pytest.raises(DomainError):
            uncertainty(flat, 1.0, 1.0)


BAD_WIDTH_ARGUMENTS = [
    ("I", 0.0), ("I", -1.0), ("I", math.nan), ("I", math.inf), ("I", -math.inf),
    ("omega0", -1.0), ("omega0", math.nan), ("omega0", math.inf), ("omega0", -math.inf),
]


@pytest.mark.parametrize("fn", [uncertainty, fokker_planck_stationary])
@pytest.mark.parametrize("name, value", BAD_WIDTH_ARGUMENTS)
def test_width_and_density_name_a_bad_argument(fn, name, value):
    # unchecked, a NaN or inf comes back as the width, and a NaN omega0 runs
    # the density's support search to a ConvergenceError
    with pytest.raises(DomainError, match=rf"^{name} must be finite"):
        fn(power5(), **{"omega0": 1.0, "I": 1e4, name: value})


class TestDeterministicLimit:
    def test_zero_law_constant(self):
        silent = TorqueLaw.from_moments(lambda w: (0.0 * w, 0.0 * w), lambda w: 0.0 * w)
        ens = simulate_ensemble(
            silent, I=1.0, omega0=0.8, t_total=5.0, dt=0.1, n_traj=3, seed=1
        )
        assert np.allclose(ens.omegas, 0.8)

    @pytest.mark.filterwarnings("ignore:adiabaticity")
    def test_drift_only_matches_closed_form_with_richardson(self):
        # I dW/dt = -c W^5  =>  W(t) = W0 (1 + 4 c W0^4 t / I)^(-1/4)
        c, I, W0, T = 0.5, 2.0, 1.0, 3.0
        law = drift_only_quintic(c)
        finals = []
        for dt in (2e-3, 1e-3):
            ens = simulate_ensemble(law, I=I, omega0=W0, t_total=T, dt=dt, n_traj=1, seed=0)
            finals.append(ens.final[0])
        richardson = 2 * finals[1] - finals[0]
        exact = W0 * (1 + 4 * c * W0**4 * T / I) ** -0.25
        assert richardson == pytest.approx(exact, rel=1e-6)

    @pytest.mark.filterwarnings("ignore:adiabaticity")
    def test_consistent_with_spindown_route(self):
        # the spindown time I int_{W0/2}^{W0} dW / (c W^5) lands the
        # drift-only trajectory at W0/2 (Richardson-extrapolated in dt)
        c, I, W0 = 0.5, 2.0, 1.0
        law = drift_only_quintic(c)
        tau = I / (4 * c) * ((W0 / 2) ** -4 - W0**-4)
        finals = []
        for dt in (tau / 2000, tau / 4000):
            ens = simulate_ensemble(law, I=I, omega0=W0, t_total=tau, dt=dt,
                                    n_traj=1, seed=0)
            finals.append(ens.final[0])
        assert 2 * finals[1] - finals[0] == pytest.approx(W0 / 2, rel=1e-6)

    def test_ensemble_mean_drift(self):
        # d<W>/dt = -(1/I) <Mbar(W)> at early times, within MC error
        law = power5(1.0)
        I, W0, dt, T = 50.0, 1.0, 1e-3, 0.2
        ens = simulate_ensemble(law, I=I, omega0=W0, t_total=T, dt=dt, n_traj=4000,
                                seed=7, n_record=5)
        drop = W0 - ens.final.mean()
        # leading-order prediction with W ~ W0 over the window
        expect = (1.0 / I) * law.drift(W0) * T
        se = ens.final.std() / math.sqrt(ens.n_traj)
        assert abs(drop - expect) < 5 * se + 0.03 * expect


def quintic(w):
    return w * w * w * w * w


# W^5 law from IEEE-exact arithmetic only (no pow), so the digests below do
# not depend on the platform's math library; both moments share one power
QUINTIC = TorqueLaw.from_moments(lambda w: (quintic(w),) * 2, lambda w: 5.0 * w * w * w * w)

# SHA-256 of ens.omegas for the ledger runs below, keyed by (n_steps, n_traj),
# recorded with the two-point increments read from Philox bits
LEDGER_DIGESTS = {
    (805, 64): "0f921209ec51c66984047a8786903c3736887afa2b80fd7c6eaaad9ed147af70",
    (50, 64): "fce4c6b84257f660e3e0d3a2837d0df97632749df205e653ad2a0fb19ec0df11",
    (805, 200): "06a77c37e4d23d3b739c9047e38889ff1e1a5454309578ead8f2fe042c942620",
}


def assert_no_child():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def no_fork(monkeypatch):
    """os.fork raises, so a run that tried to start a process would fail."""
    def refused():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", refused)


def ledger_digest(n_steps, n_traj=64, law=QUINTIC):
    ens = simulate_ensemble(law, I=100.0, omega0=1.0, t_total=n_steps * 1e-2,
                            dt=1e-2, n_traj=n_traj, seed=42, drive_at=1.0)
    return hashlib.sha256(ens.omegas.tobytes()).hexdigest()


def bit_noise(seed, n, j):
    """The increment of trajectory j at step n, from its Philox output alone."""
    gen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64),
                           counter=np.array([n, j // 256, 0, 0], dtype=np.uint64))
    word = int(gen.random_raw(4)[(j % 256) // 64])
    return 2.0 * ((word >> (j % 64)) & 1) - 1.0


class TestRNGLedger:
    # 805 steps span three default chunks plus a remainder; 50 is shorter than one
    @pytest.mark.parametrize("n_steps", [805, 50])
    @pytest.mark.parametrize("chunk", [1, 7, rotor.NOISE_CHUNK])
    @pytest.mark.parametrize("block_size", [7, 64, 4096])
    def test_independent_of_chunk_and_block(self, monkeypatch, n_steps, chunk, block_size):
        monkeypatch.setattr(rotor, "NOISE_CHUNK", chunk)
        monkeypatch.setattr(rotor, "BLOCK_SIZE", block_size)
        assert ledger_digest(n_steps) == LEDGER_DIGESTS[n_steps, 64]
        if n_steps == 805:  # 200 trajectories span a Philox group boundary
            assert ledger_digest(n_steps, 200) == LEDGER_DIGESTS[n_steps, 200]

    def test_noise_follows_the_philox_layout(self, monkeypatch):
        # blocks of 7 start off the 256-trajectory group boundary, and 300
        # trajectories span two groups; 300 steps span two chunks
        monkeypatch.setattr(rotor, "BLOCK_SIZE", 7)
        rows = []

        def recorded(omega, law, I, dt, xi, **kw):
            rows.append(xi.copy())
            return langevin_step(omega, law, I, dt, xi, **kw)

        monkeypatch.setattr(rotor, "langevin_step", recorded)
        n_steps, n_traj, seed = 300, 300, 9
        simulate_ensemble(QUINTIC, I=100.0, omega0=1.0, t_total=n_steps * 1e-2, dt=1e-2,
                          n_traj=n_traj, seed=seed, drive_at=1.0)
        # block b's steps are calls b * n_steps .. (b + 1) * n_steps - 1
        noise = np.vstack([np.concatenate(rows[n::n_steps]) for n in range(n_steps)])
        assert noise.shape == (n_steps, n_traj)
        for n in (0, 1, 6, 255, 256, 299):
            for j in (0, 1, 6, 7, 63, 64, 130, 191, 192, 254, 255, 256, 257, 263, 299):
                assert noise[n, j] == bit_noise(seed, n, j), (n, j)
        assert set(np.unique(noise)) == {-1.0, 1.0}

    def test_prefix_stable(self):
        # the first k trajectories of an n-trajectory run equal a k-trajectory run
        wide = simulate_ensemble(QUINTIC, I=100.0, omega0=1.0, t_total=3.0, dt=1e-2,
                                 n_traj=200, seed=42, drive_at=1.0)
        narrow = simulate_ensemble(QUINTIC, I=100.0, omega0=1.0, t_total=3.0, dt=1e-2,
                                   n_traj=64, seed=42, drive_at=1.0)
        assert np.array_equal(wide.omegas[:64], narrow.omegas)

    def test_work_counts(self, monkeypatch):
        def counted(name, fn):
            def f(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return f

        calls = dict.fromkeys(["step", "drift", "slope"], 0)
        monkeypatch.setattr(rotor, "langevin_step", counted("step", langevin_step))
        law = dataclasses.replace(QUINTIC, drift=counted("drift", QUINTIC.drift),
                                  drift_derivative_fn=counted("slope", QUINTIC.drift_derivative))
        assert ledger_digest(805, 200, law) == LEDGER_DIGESTS[805, 200]
        # 805 steps; the drive at drive_at, then one guard every 25 steps
        assert calls == {"step": 805, "drift": 1 + 33, "slope": 33}

    def test_noise_memory_does_not_grow_with_steps(self):
        # drawn whole, the 64 x 20000 noise array alone would take 10 MB
        kw = dict(I=1e4, omega0=1.0, dt=20.0, n_traj=64, seed=3, drive_at=1.0)
        simulate_ensemble(power5(), t_total=20.0, **kw)  # first-call set-up off the books
        tracemalloc.start()
        try:
            simulate_ensemble(power5(), t_total=20_000 * 20.0, **kw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_reproducible_and_blocking_independent(self, monkeypatch):
        law = power5()
        kw = dict(I=100.0, omega0=1.0, t_total=0.5, dt=1e-2, n_traj=64, seed=42,
                  drive_at=1.0)
        c = simulate_ensemble(law, **kw)
        monkeypatch.setattr(rotor, "BLOCK_SIZE", 7)
        a = simulate_ensemble(law, **kw)
        monkeypatch.setattr(rotor, "BLOCK_SIZE", 64)
        b = simulate_ensemble(law, **kw)
        assert np.array_equal(a.omegas, b.omegas)
        assert np.array_equal(a.omegas, c.omegas)

    def test_seed_changes_noise(self):
        law = power5()
        kw = dict(I=100.0, omega0=1.0, t_total=0.5, dt=1e-2, n_traj=8)
        a = simulate_ensemble(law, **kw, seed=1)
        b = simulate_ensemble(law, **kw, seed=2)
        assert not np.array_equal(a.omegas, b.omegas)


def error_of(run):
    """The (type, message) of the SpinradError that run() raises."""
    with pytest.raises(SpinradError) as exc:
        run()
    return type(exc.value), str(exc.value)


class TestStiffnessGuard:
    def test_raises_on_oversized_step(self):
        law = power5(10.0)
        with pytest.raises(StepSizeError):
            simulate_ensemble(law, I=0.1, omega0=1.0, t_total=1.0, dt=0.5, n_traj=2, seed=0)

    def test_producer_raises_the_same_and_leaves_no_child(self, monkeypatch, no_fork):
        # the guard trips at step 0, before the law ever sees a chunk's noise;
        # one-step chunks make the two steps a block of two chunks, whose
        # noise is drawn in this process like that of a one-chunk block
        def run():
            simulate_ensemble(power5(10.0), I=0.1, omega0=1.0, t_total=1.0, dt=0.5,
                              n_traj=2, seed=0)

        one_chunk = error_of(run)
        assert one_chunk[0] is StepSizeError
        monkeypatch.setattr(rotor, "NOISE_CHUNK", 1)
        assert error_of(run) == one_chunk
        assert_no_child()

    def test_adiabaticity_monitor_warns(self):
        # a fast free decay violates |dW/dt| << W^2 and must say so
        law = drift_only_quintic(0.5)
        with pytest.warns(UserWarning, match="adiabaticity"):
            simulate_ensemble(law, I=2.0, omega0=1.0, t_total=1.0, dt=1e-3,
                              n_traj=1, seed=0)


def nan_above_one_and_a_half():
    """W^5 law whose drift turns NaN above W = 1.5."""
    return TorqueLaw.from_moments(
        lambda w: (np.where(w > 1.5, np.nan, np.power(w, 5)), np.power(w, 5)),
        lambda w: 5.0 * np.power(w, 4))


class TestNonFiniteGuard:
    def test_nan_drift_raises_naming_step_and_trajectory(self):
        # trajectory 0 starts above W = 1.5, where the drift is NaN
        law = nan_above_one_and_a_half()
        with pytest.raises(StepSizeError, match=r"step 25 in trajectory 0\b"):
            simulate_ensemble(law, I=1e4, omega0=2.0, t_total=100.0, dt=1.0, n_traj=3,
                              seed=0)

    def test_nan_within_the_last_guard_interval_is_caught(self):
        law = nan_above_one_and_a_half()
        with pytest.raises(StepSizeError, match="after step 3 "):
            simulate_ensemble(law, I=1e4, omega0=2.0, t_total=3.0, dt=1.0, n_traj=2,
                              seed=0)

    @pytest.mark.parametrize("t_total", [100.0, 3.0])
    def test_producer_raises_the_same_and_leaves_no_child(self, monkeypatch, no_fork,
                                                          t_total):
        def run():
            simulate_ensemble(nan_above_one_and_a_half(), I=1e4, omega0=2.0,
                              t_total=t_total, dt=1.0, n_traj=3, seed=0)

        whole = error_of(run)
        assert whole[0] is StepSizeError
        monkeypatch.setattr(rotor, "NOISE_CHUNK", 1)  # even 3 steps span 3 chunks
        assert error_of(run) == whole
        assert_no_child()


class TestNoiseProducer:
    """The noise is drawn in the calling process, whatever its CPUs or threads."""

    KW = dict(I=100.0, omega0=1.0, t_total=6.0, dt=1e-2, n_traj=8, seed=5, drive_at=1.0)

    def test_normal_run_leaves_no_child(self, monkeypatch, no_fork):
        # three chunks in each of two blocks
        monkeypatch.setattr(rotor, "BLOCK_SIZE", 5)
        simulate_ensemble(power5(), **self.KW)
        assert_no_child()

    def test_interrupt_partway_leaves_no_child(self, no_fork):
        calls = []

        def moments(w):
            calls.append(1)
            if len(calls) == 550:  # in the third chunk of 256 steps
                raise KeyboardInterrupt
            return np.power(w, 5), np.power(w, 5)

        law = TorqueLaw.from_moments(moments, lambda w: 5.0 * np.power(w, 4))
        with pytest.raises(KeyboardInterrupt):
            simulate_ensemble(law, **self.KW)
        assert_no_child()

    def test_other_thread_or_failed_fork_draws_inline(self, no_fork):
        expect = simulate_ensemble(power5(), **self.KW).omegas
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(60,))
        waiter.start()
        try:
            assert np.array_equal(simulate_ensemble(power5(), **self.KW).omegas, expect)
        finally:
            release.set()
            waiter.join(60)
        assert not waiter.is_alive()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_one_usable_cpu_draws_inline(self):
        expect = simulate_ensemble(power5(), **self.KW).omegas
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            got = simulate_ensemble(power5(), **self.KW).omegas
        finally:
            os.sched_setaffinity(0, cpus)
        assert np.array_equal(got, expect)


class TestEnsembleInputs:
    @pytest.mark.parametrize("name, value", [
        ("I", 0.0), ("I", -1e4), ("I", math.nan), ("I", math.inf),
        ("dt", 0.0), ("dt", math.nan), ("dt", -1.0),
        ("t_total", math.inf), ("t_total", math.nan), ("t_total", -1.0),
        ("omega0", -1.0), ("omega0", math.nan), ("omega0", math.inf),
        ("drive_at", -1.0), ("drive_at", math.nan),
    ])
    def test_bad_argument_is_named_before_any_fork(self, no_fork, name, value):
        kw = dict(I=1e4, omega0=1.0, t_total=2e4, dt=20.0, n_traj=4, seed=0, drive_at=1.0)
        with pytest.raises(DomainError, match=rf"^{name} must be finite"):
            simulate_ensemble(power5(), **{**kw, name: value})

    @pytest.mark.parametrize("name, value, message", [
        ("seed", -1, "lie in"), ("seed", 2**64, "lie in"), ("seed", 1.5, "be an int"),
        ("seed", True, "be an int"), ("n_traj", 2.5, "be an int"),
        ("n_traj", True, "be an int"), ("n_record", 3.5, "be an int"),
    ])
    def test_seed_and_counts_are_ints_named_before_any_work(self, name, value, message):
        def refuse(w):
            raise AssertionError("the law was evaluated")

        law = TorqueLaw.from_moments(refuse, refuse)
        kw = dict(I=1e4, omega0=1.0, t_total=2e4, dt=20.0, n_traj=4, seed=0, drive_at=1.0)
        with pytest.raises(DomainError, match=rf"^{name} must {message}"):
            simulate_ensemble(law, **{**kw, name: value})

    def test_largest_seed_runs(self):
        ens = simulate_ensemble(power5(), I=100.0, omega0=1.0, t_total=0.1, dt=1e-2,
                                n_traj=3, seed=2**64 - 1)
        assert np.isfinite(ens.omegas).all()

    def test_step_count_must_be_finite(self):
        with pytest.raises(DomainError, match="not finite"):
            simulate_ensemble(power5(), I=1.0, omega0=1.0, t_total=1e300, dt=1e-300, n_traj=1)


def written_out_powers(w):
    """W^1 .. W^8 as the products square-and-multiply takes, high bit first."""
    w2 = w * w
    w3 = w2 * w
    w4 = w2 * w2
    return {1: w, 2: w2, 3: w3, 4: w4, 5: w4 * w, 6: w3 * w3, 7: (w3 * w3) * w, 8: w4 * w4}


class TestOnePassLaw:
    def test_power_law_pair_equals_separate_calls(self):
        w = np.linspace(0.0, 3.0, 101)
        law = TorqueLaw.power_law(0.7, 5)
        m1, m2 = law.moments(w)
        w2 = w * w
        assert np.array_equal(m1, 0.7 * ((w2 * w2) * w))
        assert np.array_equal(m1, law.drift(w))
        assert np.array_equal(m2, law.diffusion(w))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_whole_exponent_is_the_written_out_product(self, n):
        w = np.linspace(0.0, 3.0, 1001)
        powers = written_out_powers(w)
        for exponent in (n, float(n)):  # the library's int, the CLI's float
            law = TorqueLaw.power_law(0.7, exponent)
            m1, m2 = law.moments(w)
            assert np.array_equal(m1, 0.7 * powers[n]) and m2 is m1
            slope = powers[n - 1] if n > 1 else np.ones_like(w)
            assert np.array_equal(law.drift_derivative(w), 0.7 * exponent * slope)
        assert np.array_equal(w, np.linspace(0.0, 3.0, 1001))  # W is not written

    def test_other_exponent_keeps_np_power(self):
        w = np.linspace(0.0, 3.0, 1001)
        law = TorqueLaw.power_law(0.7, 4.5)
        m1, m2 = law.moments(w)
        assert np.array_equal(m1, 0.7 * np.power(w, 4.5)) and m2 is m1
        assert np.array_equal(law.drift_derivative(w), 0.7 * 4.5 * np.power(w, 3.5))

    @pytest.mark.parametrize("exponent", [1, 2, 5, 8])
    def test_scalar_gives_the_bits_of_its_array_entry(self, exponent):
        w = np.linspace(0.05, 3.0, 60)
        law = TorqueLaw.power_law(0.7, exponent)
        m1, _ = law.moments(w)
        slope = law.drift_derivative(w)
        for i, x in enumerate(w.tolist()):
            assert float(law.moments(x)[0]) == m1[i] and float(law.drift(x)) == m1[i]
            assert float(law.drift_derivative(x)) == slope[i]

    def test_linear_law_slope_is_the_coefficient(self):
        law = TorqueLaw.power_law(0.7, 1)
        w = np.linspace(0.0, 3.0, 11)
        assert np.array_equal(law.drift_derivative(w), np.full(11, 0.7))
        assert law.drift_derivative(2.0) == 0.7

    def test_langevin_step_evaluates_the_law_once(self):
        calls = []

        def refuse(w):
            raise AssertionError("separate drift/diffusion call in the step")

        def moments(w):
            calls.append(1)
            return np.power(w, 5), np.power(w, 5)

        law = dataclasses.replace(TorqueLaw.from_moments(moments, refuse),
                                  drift=refuse, diffusion=refuse)
        langevin_step(np.ones(4), law, 100.0, 1e-2, np.zeros(4))
        assert len(calls) == 1


def numpy_cpu_dispatch():
    """The SIMD targets numpy's loops dispatch to, and this CPU's features."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return umath.__cpu_dispatch__, umath.__cpu_features__


# SHA-256 of the W^5 law's moments and slope on a fixed array, then of a
# 4096 x 300-step W^5 ensemble
DISPATCH_DIGESTS = """
import hashlib
import numpy as np
from spinrad import TorqueLaw, simulate_ensemble
law = TorqueLaw.power_law(1.0, 5)
w = np.linspace(0.5, 1.5, 100_001)
print(hashlib.sha256(np.concatenate([*law.moments(w), law.drift_derivative(w)])).hexdigest())
ens = simulate_ensemble(law, I=1e4, omega0=1.0, t_total=300 * 20.0, dt=20.0, n_traj=4096,
                        seed=1, drive_at=1.0)
print(hashlib.sha256(ens.omegas).hexdigest())
"""


class TestCpuDispatch:
    def test_power_law_bytes_do_not_follow_the_dispatch(self):
        dispatch, features = numpy_cpu_dispatch()
        if not any(features.get(target) for target in dispatch):
            pytest.skip("no SIMD target that numpy dispatches to is active on this CPU")
        env = {k: v for k, v in os.environ.items()
               if k not in ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")}
        env["PYTHONPATH"] = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
        baseline_only = dict(env, NPY_DISABLE_CPU_FEATURES=" ".join(dispatch))
        digests = [subprocess.run([sys.executable, "-c", DISPATCH_DIGESTS], env=e, check=True,
                                  capture_output=True, text=True, timeout=120).stdout.split()
                   for e in (env, baseline_only)]
        assert len(digests[0]) == 2
        assert digests[0] == digests[1]


# every kind of law that src/ builds; the benchmark's tracer rebuilds each one
# by dataclasses.replace on these three fields
LAWS_BUILT_BY_SRC = {
    "power": lambda: TorqueLaw.power_law(1.0, 5),
    "log-log table": lambda: tabulate_torque_law(lambda W: (W**5 + 0.3 * W**3, W**5),
                                                 (0.0, 2.0)),
    "signed table": lambda: tabulate_torque_law(lambda W: (W**3 - 0.25 * W, W**2 + 0.1),
                                                (0.0, 2.0)),
    "zero": lambda: tabulate_torque_law(lambda W: (0.0, 0.0), (0.0, 2.0)),
}


class TestReplacedLaw:
    @pytest.mark.parametrize("kind", LAWS_BUILT_BY_SRC)
    def test_runs_through_the_replaced_callables(self, kind):
        law = LAWS_BUILT_BY_SRC[kind]()
        calls = {"drift": 0, "diffusion": 0, "slope": 0}

        def counted(name, f):
            def g(w):
                calls[name] += 1
                return f(w)
            return g

        rebuilt = dataclasses.replace(
            law, drift=counted("drift", law.drift),
            diffusion=counted("diffusion", law.diffusion),
            drift_derivative_fn=counted("slope", law.drift_derivative_fn))
        kw = dict(I=100.0, omega0=1.0, t_total=0.5, dt=1e-2, n_traj=8, seed=4, drive_at=1.0)
        ens = simulate_ensemble(rebuilt, **kw)
        assert np.array_equal(ens.omegas, simulate_ensemble(law, **kw).omegas)
        # the drive, then the drift and the slope at each of the guards of steps 0 and 25
        assert calls == {"drift": 3, "diffusion": 0, "slope": 2}


class TestVarianceGrowth:
    def test_early_growth_follows_the_master_equation(self):
        # freely decaying, early times, noise variance 2 Mbar2 dt per step:
        # Var[I W(t)] = 2 Mbar2(W0) t
        law = power5(1.0)
        I, W0, T = 2000.0, 1.0, 2.0  # drift shifts W0 by only 1e-3 over T
        ens = simulate_ensemble(law, I=I, omega0=W0, t_total=T, dt=0.01, n_traj=6000,
                                seed=3)
        var = (I * ens.final).var()
        target = 2.0 * law.diffusion(W0) * T
        assert var == pytest.approx(target, rel=0.1)


class TestStationary:
    def test_normalization(self):
        dist = fokker_planck_stationary(power5(), 1.0, 500.0)
        from scipy.integrate import simpson

        assert simpson(dist.pdf, x=dist.omega) == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_width_large_inertia(self):
        I, W0 = 5000.0, 1.0
        dist = fokker_planck_stationary(power5(), W0, I)
        assert I * dist.std() == pytest.approx(math.sqrt(I * W0 / 5.0), rel=0.02)
        assert dist.mean() == pytest.approx(W0, rel=0.01)

    def test_langevin_ensemble_matches_density(self):
        # stationary histogram of the simulated ensemble vs the closed form
        I, W0 = 400.0, 1.0
        law = power5()
        kappa = 5.0 * W0**4 / I
        dt = 0.02 / kappa
        ens = simulate_ensemble(law, I=I, omega0=W0, t_total=30.0 / kappa, dt=dt,
                                n_traj=2000, seed=11, drive_at=W0)
        dist = fokker_planck_stationary(law, W0, I)
        ks = dist.ks_statistic(ens.final)
        assert ks < 3.0 / math.sqrt(ens.n_traj)

    def test_step_halving_stability(self):
        I, W0 = 400.0, 1.0
        law = power5()
        kappa = 5.0 * W0**4 / I
        stds = []
        for dt in (0.04 / kappa, 0.02 / kappa):
            ens = simulate_ensemble(law, I=I, omega0=W0, t_total=25.0 / kappa, dt=dt,
                                    n_traj=3000, seed=5, drive_at=W0)
            stds.append(ens.final.std())
        assert abs(stds[1] - stds[0]) / stds[1] < 0.05

    @pytest.mark.parametrize("I", [30.0, 1.0])
    def test_broad_density_matches_quadrature(self, I):
        # at small I the W^5 density reaches far below W0 - 16 widths; its std
        # against an mpmath integral of C/W^5 exp(-I[(W - 1) + (W^-4 - 1)/4])
        import mpmath as mp

        def density(W):
            return mp.exp(-I * ((W - 1) + (W**-4 - 1) / 4)) / W**5

        with mp.workdps(30):
            cuts = [0, 0.3, 0.6, 1, 2, 5, mp.inf]
            norm = mp.quad(density, cuts)
            mean = mp.quad(lambda W: W * density(W), cuts) / norm
            std = mp.sqrt(mp.quad(lambda W: (W - mean) ** 2 * density(W), cuts) / norm)
        dist = fokker_planck_stationary(power5(), 1.0, I)
        assert dist.std() == pytest.approx(float(std), rel=1e-8)

    @pytest.mark.parametrize("I", [100.0, 1e4])
    def test_narrow_density_matches_quadrature(self, I):
        # the same W^5 density where it is narrow: the mpmath cuts follow its
        # width 1/sqrt(5 I) about W0 = 1
        import mpmath as mp

        def density(W):
            return mp.exp(-I * ((W - 1) + (W**-4 - 1) / 4)) / W**5

        s = 1.0 / math.sqrt(5.0 * I)
        peak = [1 + k * s for k in (-16, -8, -4, -2, -1, 0, 1, 2, 4, 8, 16)]
        with mp.workdps(30):
            cuts = [0, 0.3, 0.6] + [w for w in peak if w > 0.6] + [2, 5, mp.inf]
            norm = mp.quad(density, cuts)
            mean = mp.quad(lambda W: W * density(W), cuts) / norm
            std = mp.sqrt(mp.quad(lambda W: (W - mean) ** 2 * density(W), cuts) / norm)
        dist = fokker_planck_stationary(power5(), 1.0, I)
        assert dist.std() == pytest.approx(float(std), rel=1e-10)

    def test_non_normalizable_raises(self):
        # no restoring drift against a diffusion vanishing as W^5 at the origin
        law = TorqueLaw.from_moments(lambda w: (0.0 * w, np.power(w, 5)), lambda w: 0.0 * w)
        with pytest.raises(DomainError):
            fokker_planck_stationary(law, 1.0, 100.0)


class TestTorqueLawFromRadiation:
    def test_drude_sphere_matches_closed_form(self):
        R, sigma = 1e-3, 1e3
        table = SphereTable(Drude(sigma), R)
        law = torque_law_from_radiation(
            table, ThermalState(), omega_range=(0.0, 2.0), rtol=1e-6
        )
        for W in (0.3, 0.9, 1.7):
            ref = R**3 * W**5 / (20 * math.pi**2 * sigma)
            assert float(law.drift(W)) == pytest.approx(ref, rel=1e-5)
            # weak coupling: Mbar2 ~ Mbar when the m=1 flux is tiny
            assert float(law.diffusion(W)) == pytest.approx(float(law.drift(W)), rel=1e-6)

    def test_m0_channel_is_never_integrated(self):
        # its weights m*N and m^2*N(N+1) vanish, yet at T > 0 it has support
        class Recording(SphereTable):
            def flux(self, omega, m, extra, pol, Omega):
                seen.update(np.atleast_1d(m).tolist())  # one m, or one per node
                return super().flux(omega, m, extra, pol, Omega)

        seen = set()
        torque_law_from_radiation(Recording(Drude(10.0), 0.01), ThermalState(T_object=0.5),
                                  omega_range=(0.0, 2.0), rtol=1e-3,
                                  policy=MSumPolicy(m_max=1))
        assert seen == {-1, 1}

    def test_auto_extend_matches_the_larger_fixed_sum(self):
        # the m_max = 1 sum of this disk's drift is about 20% low at W = 1
        table = DiskTable(Drude(1.0), 0.3)
        grown = torque_law_from_radiation(
            table, ThermalState(), (0.0, 1.0),
            policy=MSumPolicy(m_max=1, auto_extend=True, tail_tol=1e-6))
        fixed = torque_law_from_radiation(table, ThermalState(), (0.0, 1.0),
                                          policy=MSumPolicy(m_max=9))
        for W in (0.5, 1.0):
            assert grown.moments(W) == pytest.approx(fixed.moments(W), rel=1e-6)

    def test_auto_extend_meets_tail_tol_in_both_moments(self, monkeypatch):
        # Mbar2 weights m^2 and converges more slowly than Mbar; the sum must
        # grow until both are within tail_tol of the m_max = 32 sum
        monkeypatch.setattr(rotor, "tabulate_torque_law", lambda moments, *a, **k: moments)
        table = DiskTable(Drude(1.0), 0.3)

        def moments(policy):  # the untabulated moment job at W = 1.9, driven to its end
            job = torque_law_from_radiation(table, ThermalState(), (0.0, 1.9), policy=policy)(1.9)
            return run_jobs([job])[0]

        grown = moments(MSumPolicy(m_max=1, auto_extend=True, tail_tol=1e-6))
        fixed = moments(MSumPolicy(m_max=32))
        for got, ref in zip(grown, fixed):
            assert abs(got / ref - 1.0) < 1e-6

    def test_m0_channel_adds_exactly_nothing(self):
        from spinrad.radiation import integrate_channels

        table = SphereTable(Drude(10.0), 0.01)
        st = ThermalState(T_object=0.5, Omega=1.3)

        def weight(w, m, N):
            return np.array([m * N, m * m * N * (N + 1.0)])

        sums = []
        for m_min in (0, 1):
            out = np.zeros(2)
            for *_, val, _ in integrate_channels(table, st, weight, 1, m_min=m_min):
                out += val
            sums.append(out.tobytes())
        assert sums[0] == sums[1]

    def test_vanishes_at_rest(self):
        table = SphereTable(Drude(1e3), 1e-3)
        law = torque_law_from_radiation(table, ThermalState(), omega_range=(0.0, 1.0))
        assert float(law.drift(0.0)) == 0.0
        assert float(law.diffusion(0.0)) == 0.0

    def test_pointwise_ordering(self):
        # Mbar2 >= Mbar >= 0 at T = 0 (m^2 >= m and N(N+1) >= N)
        table = SphereTable(Drude(1e3), 1e-3)
        law = torque_law_from_radiation(table, ThermalState(), omega_range=(0.0, 1.5))
        for W in np.linspace(0.1, 1.4, 9):
            assert 0.0 <= float(law.drift(W)) <= float(law.diffusion(W)) * (1 + 1e-12)

    def test_lossless_identically_zero(self):
        from spinrad import ConstantEpsilon

        table = SphereTable(ConstantEpsilon(4.0), 1e-3)
        law = torque_law_from_radiation(table, ThermalState(), omega_range=(0.0, 1.0))
        for W in (0.2, 0.8):
            assert float(law.drift(W)) == 0.0
            assert float(law.diffusion(W)) == 0.0

    def test_one_pass_moments_equal_the_single_moments(self):
        table = SphereTable(Drude(1e3), 1e-3)
        law = torque_law_from_radiation(table, ThermalState(), omega_range=(0.0, 1.5))
        w = np.concatenate([[0.0, 1e-7], np.linspace(0.01, 1.6, 97)])
        m1, m2 = law.moments(w)
        assert np.array_equal(m1, law.drift(w))
        assert np.array_equal(m2, law.diffusion(w))
        assert list(law.moments(0.9)) == [law.drift(0.9), law.diffusion(0.9)]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "tabulate_torque_law probes at most 8 geometric midpoints per round and "
        "never the top interval; PCHIP's error cancels at midpoints, so the law is "
        "off by about 1.5e-5 at third-points near the top of the range"))
    def test_meets_rtol_between_the_rates_it_evaluated(self):
        from spinrad.radiation import integrate_channels

        table = SphereTable(Drude(10.0), 0.01)

        def moments(W):
            out = np.zeros(2)
            for *_, val, _ in integrate_channels(
                    table, ThermalState(T_object=0.5, Omega=W),
                    lambda w, m, N: np.array([m * N, m * m * N * (N + 1.0)]), 5):
                out += val
            return out

        rates = []
        law = tabulate_torque_law(lambda W: rates.append(W) or moments(W), (0.0, 2.0),
                                  rtol=1e-6)
        grid = np.array(sorted(rates))[-9:]  # the top eight intervals
        a, b = grid[:-1], grid[1:]
        thirds = np.concatenate([a * (b / a) ** (1 / 3), a * (b / a) ** (2 / 3)])
        direct = np.array([moments(W) for W in thirds])
        rel = np.abs(np.column_stack(law.moments(thirds)) - direct) / np.abs(direct)
        assert rel.max() < 1e-6

    @pytest.mark.parametrize("W", [0.0, 1e-13, 1.0])
    def test_slope_near_zero_divides_by_the_span_it_used(self, W):
        # below W = h the lower difference point is clipped to 0
        law = tabulate_torque_law(lambda w: (3.0 * w, w + 1.0), (0.0, 2.0))
        assert law.drift_derivative(W) == pytest.approx(3.0, rel=1e-9)

    def test_sign_changing_drift_keeps_a_linear_column(self):
        # a finite-T drift may change sign: that column stays in linear space
        law = tabulate_torque_law(lambda W: (W**3 - 0.25 * W, W**2 + 0.1), (0.0, 1.0))
        w = np.linspace(0.05, 1.0, 40)
        m1, m2 = law.moments(w)
        assert np.array_equal(m1, law.drift(w))
        assert np.array_equal(m2, law.diffusion(w))
        assert np.allclose(m1, w**3 - 0.25 * w, rtol=1e-4, atol=1e-6)
