"""Counting statistics: cumulants, geometric law, entropy."""

import math

import numpy as np
import pytest

from spinrad import (
    CylinderTable,
    DiskTable,
    DomainError,
    Drude,
    ConstantEpsilon,
    MSumPolicy,
    SphereTable,
    ThermalState,
    UserTable,
    counting_distribution,
    cumulant,
    disk_smatrix,
    entropy_generation,
    integrate_power,
    mode_entropy_rate,
    total_mode_entropy,
)
from spinrad import photonstats, radiation

N_GRID = [1e-6, 1e-2, 0.5, 1.0, 10.0]


def taylor_coefficients(N, p_max, radius_frac=0.5, n_nodes=128):
    """Numeric Taylor coefficients of F(eta) = -log(1 - eta N) by Cauchy integral."""
    rho = radius_frac / max(N, 1e-3)
    theta = 2 * np.pi * np.arange(n_nodes) / n_nodes
    eta = rho * np.exp(1j * theta)
    F = -np.log(1.0 - eta * N)
    coeffs = []
    for p in range(1, p_max + 1):
        c = np.mean(F * np.exp(-1j * p * theta)) / rho**p
        coeffs.append(c.real)
    return coeffs


class TestCumulants:
    def test_first_is_mean(self):
        assert cumulant(0.37, 1) == 0.37

    def test_paper_instance(self):
        assert cumulant(1.0, 3) == 2.0

    def test_half_squared(self):
        assert cumulant(0.5, 2) == 0.25

    def test_order_cap(self):
        with pytest.raises(DomainError):
            cumulant(1.0, 21)

    @pytest.mark.parametrize("N", [1e-2, 1.0, 10.0])
    def test_matches_numeric_taylor_of_F(self, N):
        coeffs = taylor_coefficients(N, 6)
        for p in range(1, 7):
            kappa_from_F = coeffs[p - 1] * math.factorial(p)
            assert cumulant(N, p) == pytest.approx(kappa_from_F, rel=1e-8)


class TestCountingDistribution:
    def test_silent_mode(self):
        probs, tail = counting_distribution(0.0, 5)
        assert probs[0] == 1.0 and probs[1:].sum() == 0.0 and tail == 0.0

    def test_unit_mean_is_powers_of_two(self):
        probs, _ = counting_distribution(1.0, 10)
        for n in range(11):
            assert probs[n] == pytest.approx(2.0 ** -(n + 1), rel=1e-13)

    @pytest.mark.parametrize("N", N_GRID)
    def test_normalization_with_tail(self, N):
        probs, tail = counting_distribution(N, 2000)
        assert probs.sum() + tail == pytest.approx(1.0, abs=1e-12)
        assert (probs >= 0).all()

    @pytest.mark.parametrize("N", N_GRID)
    def test_mean_and_variance_identities(self, N):
        n_max = 4000
        probs, tail = counting_distribution(N, n_max)
        n = np.arange(n_max + 1)
        # exact tail moments of the geometric law close the truncated sums
        q = N / (N + 1.0)
        t1 = tail * ((n_max + 1) + q / (1 - q)) if N > 0 else 0.0
        mean = float(np.sum(n * probs)) + t1
        assert mean == pytest.approx(N, rel=1e-10, abs=1e-12)
        if N <= 1.0:  # second tail moment negligible on this grid
            var = float(np.sum((n - mean) ** 2 * probs))
            assert var == pytest.approx(N * (N + 1), rel=1e-10, abs=1e-12)


class TestGlauberRoute:
    @pytest.mark.parametrize("N", N_GRID)
    def test_consistency_with_direct_law(self, N):
        # the n-th eta-derivative of exp(F) = (1 - eta N)^-1 over n!, at eta = -1
        probs, _ = counting_distribution(N, 30)
        for n in (0, 1, 2, 5, 17, 30):
            assert N**n / (N + 1) ** (n + 1) == pytest.approx(probs[n], rel=1e-10, abs=1e-300)


class TestMonteCarlo:
    def test_cumulants_within_five_sigma(self):
        # kappa_p are factorial cumulants: kappa2 = c2 - c1, kappa3 = c3 - 3c2 + 2c1
        N, n_samp = 1.5, 1_000_000
        rng = np.random.default_rng(20240817)
        draws = rng.geometric(1.0 / (N + 1.0), size=n_samp) - 1
        batches = draws.reshape(20, -1)
        c1 = batches.mean(axis=1)
        c2 = batches.var(axis=1)
        c3 = ((batches - c1[:, None]) ** 3).mean(axis=1)
        k2 = c2 - c1
        k3 = c3 - 3 * c2 + 2 * c1
        for est, target in ((k2, cumulant(N, 2)), (k3, cumulant(N, 3))):
            mean = est.mean()
            se = est.std(ddof=1) / math.sqrt(len(est))
            assert abs(mean - target) < 5 * se


class TestEntropy:
    def test_limits(self):
        assert mode_entropy_rate(0.0) == 0.0
        assert mode_entropy_rate(1.0) == pytest.approx(2 * math.log(2.0), rel=1e-13)

    @pytest.mark.parametrize("N", [1e-3, 0.1, 1.0, 10.0])
    def test_shannon_sum_oracle(self, N):
        probs, _ = counting_distribution(N, 10_000)
        shannon = -float(np.sum(probs[probs > 0] * np.log(probs[probs > 0])))
        assert mode_entropy_rate(N) == pytest.approx(shannon, rel=1e-8)

    def test_tiny_N_expansion_branch(self):
        below = mode_entropy_rate(0.9e-12)
        above = mode_entropy_rate(1.1e-12)
        assert below < above
        assert above / below == pytest.approx(
            (1.1 * (1 - math.log(1.1e-12))) / (0.9 * (1 - math.log(0.9e-12))), rel=1e-6
        )

    def test_monotone_and_concave(self):
        grid = np.geomspace(1e-6, 100.0, 200)
        s = np.array([mode_entropy_rate(N) for N in grid])
        assert (np.diff(s) > 0).all()
        # concave in N: second differences on a uniform grid
        lin = np.linspace(0.01, 20.0, 300)
        sl = np.array([mode_entropy_rate(N) for N in lin])
        assert (np.diff(sl, 2) < 1e-12).all()

    def test_combined_entropy_nonnegative_grid(self):
        for r in (0.0, 0.25, 0.5, 0.75, 1.0):
            for x in np.geomspace(0.1, 50.0, 40):
                assert total_mode_entropy(r, x) >= 0.0

    def test_combined_entropy_zero_only_at_r0(self):
        assert total_mode_entropy(0.0, 1.0) == 0.0
        assert total_mode_entropy(0.5, 1.0) > 0.0


class TestEntropyGeneration:
    def test_cylinder_is_refused_before_any_integral(self, monkeypatch):
        # its channels are k_z-integrated: the entropy of that N is no per-mode entropy
        def no_work(*args):
            raise AssertionError("nothing may be integrated")

        monkeypatch.setattr(photonstats, "integrate_power", no_work)
        with pytest.raises(DomainError, match="k_z-integrated N is not a per-mode entropy"):
            entropy_generation(CylinderTable(Drude(1000.0), 1e-3, 1.0),
                               ThermalState(T_object=0.5, Omega=1.0))

    def test_lossless_silent(self):
        rep = entropy_generation(
            SphereTable(ConstantEpsilon(4.0), 1e-2), ThermalState(Omega=1.0)
        )
        assert rep.total_rate == 0.0
        assert rep.object_rate is None
        assert rep.combined_rate == 0.0

    def test_rotating_drude_sphere_leading_log(self):
        # S ~ k_B * N_tot * |log(R^3 Omega^4/sigma)| with N_tot the photon rate;
        # the log here is ~46 so the O(few) subleading terms sit inside 20%
        R, Omega, sigma = 1e-4, 1.0, 1e8
        table = SphereTable(Drude(sigma), R)
        state = ThermalState(Omega=Omega)
        rep = entropy_generation(table, state)
        N_tot = integrate_power(table, state).M  # hbar=1: M = photon rate for m=1
        target = N_tot * abs(math.log(R**3 * Omega**4 / sigma))
        assert rep.total_rate == pytest.approx(target, rel=0.2)

    def test_thermal_combined_nonnegative(self):
        rep = entropy_generation(
            DiskTable(Drude(1.0), 0.1),
            ThermalState(T_object=1.0, T_env=0.0),
            MSumPolicy(m_max=4, auto_extend=True, tail_tol=1e-4, m_cap=24),
        )
        assert rep.object_rate < 0  # hot object loses entropy
        assert rep.combined_rate >= 0.0
        assert rep.total_rate > 0.0

    def test_thermal_environment_rejected(self):
        with pytest.raises(DomainError):
            entropy_generation(
                DiskTable(Drude(1.0), 0.1), ThermalState(T_object=1.0, T_env=0.2)
            )

    def test_auto_extend_sums_the_shells_power_reached(self):
        # the entropy rate follows the partial waves that P, M, Q grew to
        table = DiskTable(Drude(1.0), 0.3)
        state = ThermalState(Omega=1.0)
        grown = entropy_generation(
            table, state,
            MSumPolicy(m_max=1, auto_extend=True, tail_tol=1e-6, raise_on_tail=False),
        )
        fixed = entropy_generation(table, state, MSumPolicy(m_max=9))
        assert [m for m, *_ in grown.per_mode] == list(range(1, 10))
        assert grown.total_rate == pytest.approx(fixed.total_rate, rel=1e-8)
        assert grown.total_rate == pytest.approx(3.9252e-3, rel=1e-4)
        assert max(abs(c.m) for c in grown.radiation.per_mode) == 9


class TestEntropyStageWork:
    """The entropy stage's flux work, counted apart from the P, M, Q job it follows."""

    @staticmethod
    def entropy_stage_calls(monkeypatch, table, state):
        rad = integrate_power(table, state)
        monkeypatch.setattr(photonstats, "integrate_power", lambda *args: rad)
        calls = []
        mode_flux = radiation.mode_flux

        def recording(table, state, omega, m, *args):
            calls.append(np.size(omega))
            return mode_flux(table, state, omega, m, *args)

        monkeypatch.setattr(radiation, "mode_flux", recording)
        return entropy_generation(table, state), calls

    def test_graded_disk_entropy_takes_few_rounds(self, monkeypatch):
        # N vanishes linearly at corotation and like omega^(2m+1) at omega -> 0; plain
        # bisection took 10 flux calls and 2,205 nodes toward those ends
        _, calls = self.entropy_stage_calls(monkeypatch, DiskTable(Drude(1.0), 0.1),
                                            ThermalState(Omega=1.0))
        assert len(calls) <= 4 and sum(calls) <= 700

    def test_user_table_entropy_stays_on_plain_bisection(self, monkeypatch):
        # linear S between rows puts kinks in the flux: the stage is not graded, and its
        # values are those of plain bisection, pinned before grading existed
        om = np.linspace(1.0 / 32.0, 1.0, 17)
        table = UserTable({(m, None, "scalar"): (m * om, disk_smatrix(Drude(1.0), 0.1, 1.0,
                                                                      m * om, m))
                           for m in (1, 2)})
        rep, calls = self.entropy_stage_calls(monkeypatch, table, ThermalState(Omega=1.0))
        assert [repr(rate) for *_, rate in rep.per_mode] == [
            "7.080372419532004e-05", "1.0943430529372404e-06"]
        # 80 panels of 21 nodes; each channel's first round evaluates its two halves
        assert (len(calls), sum(calls)) == (9, 1680)

