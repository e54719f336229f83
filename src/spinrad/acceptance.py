"""Closed-form acceptance suite: one checker per shipping criterion.

Each criterion returns a :class:`CriterionResult` with the measured number,
its target window and a pass flag; ``run_all`` collects them for the CLI
``verify`` table and for the pytest gate.  Nothing here adapts tolerances at
run time: the windows are fixed.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .material import ConstantEpsilon, Drude, ThermalState
from .photonstats import (
    counting_distribution,
    cumulant,
    mode_entropy_rate,
    total_mode_entropy,
)
from .radiation import integrate_power, kirchhoff_power
from .rotor import TorqueLaw, fokker_planck_stationary, simulate_ensemble
from .scattering import (
    CylinderTable,
    DiskTable,
    SphereTable,
    cylinder_flux_block,
    cylinder_smatrix_block,
    disk_flux,
    disk_smatrix,
    disk_smatrix_smallvel,
    sphere_smatrix_dipole,
)
from .bessel import wronskian_h1h2
from .testbody import TwoBodyConfig, torque_on_test_2d, torque_vs_distance


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    measured: dict = field(default_factory=dict)
    window: str = ""
    note: str = ""

    def row(self):
        status = "PASS" if self.passed else "FAIL"
        vals = ", ".join(f"{k}={v:.6g}" for k, v in self.measured.items())
        line = f"[{status}] {self.index:>2}. {self.name}: {vals} (want {self.window})"
        if self.note:
            line += f" -- {self.note}"
        return line


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def criterion_1_sphere_closed_forms():
    """Drude sphere power/torque vs hbar R^3 Omega^6/30 pi^2 sigma and Omega^5/20."""
    Omega, R = 1.0, 1e-3
    sigma = 1e3 * Omega

    def run():
        return integrate_power(SphereTable(Drude(sigma), R), ThermalState(Omega=Omega))

    res, dt = _timed(run)
    rP = res.P / (R**3 * Omega**6 / (30 * math.pi**2 * sigma))
    rM = res.M / (R**3 * Omega**5 / (20 * math.pi**2 * sigma))
    ok = 0.98 <= rP <= 1.02 and 0.98 <= rM <= 1.02 and dt < 1.0
    return CriterionResult(
        1, "Drude-sphere closed forms", ok,
        {"P_ratio": rP, "M_ratio": rM, "runtime_s": dt}, "[0.98, 1.02], <1 s",
    )


def criterion_2_cylinder_high_conductivity():
    """Drude cylinder, Omega << sigma: the k_z-integrated channel sum vs the closed forms."""
    Omega, R, L = 1.0, 1e-3, 1.0
    sigma = 1e3 * Omega

    def run():
        return integrate_power(CylinderTable(Drude(sigma), R, L), ThermalState(Omega=Omega))

    res, dt = _timed(run)
    rP = res.P / (L * R**2 * Omega**6 / (90 * math.pi**2 * sigma))
    rM = res.M / (L * R**2 * Omega**5 / (60 * math.pi**2 * sigma))
    ok = abs(rP - 1) <= 0.02 and abs(rM - 1) <= 0.02 and dt < 5.0
    return CriterionResult(
        2, "Drude-cylinder Omega<<sigma", ok,
        {"P_ratio": rP, "M_ratio": rM, "runtime_s": dt}, "within 2%, <5 s",
    )


def criterion_3_cylinder_low_conductivity():
    """Drude cylinder, sigma << Omega, vs 8 hbar L R^2 Omega^4 sigma log(Omega/sigma).

    The trace-formula value lands near 7% of that closed form: integrating
    the printed polarization blocks gives the leading log as
    (4/3) L R^2 Omega^4 sigma [log(Omega/2 pi sigma) - 25/12], not 8 log.
    The criterion is evaluated exactly as stated and is expected to fail.
    """
    Omega, R, L = 1.0, 1e-3, 1.0
    sigma = 1e-3 * Omega
    res, dt = _timed(
        lambda: integrate_power(CylinderTable(Drude(sigma), R, L), ThermalState(Omega=Omega))
    )
    target = 8 * L * R**2 * Omega**4 * sigma * math.log(Omega / sigma)
    ratio = res.P / target
    ok = abs(ratio - 1.0) <= 0.10
    return CriterionResult(
        3, "Drude-cylinder sigma<<Omega leading log", bool(ok),
        {"P_ratio": ratio, "runtime_s": dt}, "within 10%",
        note="trace formula integrates to (4/3)LR^2 O^4 s [log(O/2 pi s)-25/12]",
    )


def criterion_4_disk_smallvel():
    """Exact Bessel |S_1|^2-1 vs the small-velocity form at Omega R/c = 0.01."""
    model, Omega = Drude(1.0), 1.0
    R = 0.01 / Omega

    def run():
        worst = 0.0
        for w in np.linspace(0.05, 0.95, 37) * Omega:
            exact = disk_flux(model, R, Omega, w, 1)
            approx = -disk_smatrix_smallvel(model, R, Omega, w)
            worst = max(worst, abs(exact - approx) / abs(approx))
        return worst

    worst, dt = _timed(run)
    return CriterionResult(
        4, "disk exact vs small-velocity S-matrix", worst <= 0.05,
        {"max_rel_diff": worst}, "<= 5%",
    )


def criterion_5_energy_bookkeeping():
    """|Q - (Omega M - P)| / P below 1e-6 for every geometry."""
    Omega = 1.0
    runs = {
        "sphere": integrate_power(SphereTable(Drude(1e3), 1e-3), ThermalState(Omega=Omega)),
        "disk": integrate_power(DiskTable(Drude(1.0), 0.05), ThermalState(Omega=Omega)),
        "cylinder": integrate_power(CylinderTable(Drude(1e3), 1e-3, 1.0),
                                    ThermalState(Omega=Omega)),
    }
    worst = max(abs(r.Q - (Omega * r.M - r.P)) / r.P for r in runs.values())
    return CriterionResult(
        5, "energy bookkeeping Q = Omega M - P", worst < 1e-6,
        {"max_rel_residual": worst}, "< 1e-6",
    )


def criterion_6_equilibrium_null():
    """Static body at T = T0 > 0 radiates nothing."""
    res = kirchhoff_power(DiskTable(Drude(1.0), 0.3), 0.7, 0.7)
    return CriterionResult(
        6, "equilibrium null", abs(res.P) < 1e-12, {"abs_P": abs(res.P)}, "< 1e-12",
    )


def criterion_7_photon_statistics():
    """Counting-law identities and cumulants vs the numeric Taylor of F."""

    def run():
        worst = 0.0
        for N in (1e-2, 1.0, 10.0):
            probs, tail = counting_distribution(N, 4000)
            n = np.arange(len(probs))
            q = N / (N + 1.0)
            t1 = tail * ((len(probs)) + q / (1 - q))
            t2_ok = N <= 1.0 or tail < 1e-14
            worst = max(worst, abs(probs.sum() + tail - 1.0))
            worst = max(worst, abs((n * probs).sum() + t1 - N) / max(N, 1e-2))
            if t2_ok:
                mean = (n * probs).sum() + t1
                var = ((n - mean) ** 2 * probs).sum()
                if N <= 1.0:
                    worst = max(worst, abs(var - N * (N + 1)) / (N * (N + 1)))
            # numeric Taylor coefficients of F by Cauchy integral
            rho = 0.5 / max(N, 1e-3)
            th = 2 * np.pi * np.arange(256) / 256
            F = -np.log(1.0 - rho * np.exp(1j * th) * N)
            for p in range(1, 7):
                cp = (np.mean(F * np.exp(-1j * p * th)) / rho**p).real
                kp = cp * math.factorial(p)
                worst = max(worst, abs(cumulant(N, p) - kp) / abs(kp))
        return worst

    worst, dt = _timed(run)
    ok = worst < 1e-8 and dt < 0.1
    return CriterionResult(
        7, "photon statistics identities", ok,
        {"worst_rel": worst, "runtime_s": dt}, "< 1e-8, < 0.1 s",
    )


def criterion_8_entropy():
    """Combined per-mode entropy >= 0 on the (r, x) grid; Shannon-sum oracle."""
    min_combined = min(
        total_mode_entropy(r, x)
        for r in (0.0, 0.25, 0.5, 0.75, 1.0)
        for x in np.geomspace(0.1, 50.0, 60)
    )
    worst = 0.0
    for N in (1e-3, 0.1, 1.0, 10.0):
        probs, _ = counting_distribution(N, 10_000)
        shannon = -float(np.sum(probs[probs > 0] * np.log(probs[probs > 0])))
        worst = max(worst, abs(mode_entropy_rate(N) - shannon) / shannon)
    ok = min_combined >= 0.0 and worst < 1e-8
    return CriterionResult(
        8, "entropy positivity and Shannon oracle", ok,
        {"min_combined": min_combined, "shannon_rel": worst}, ">= 0 and < 1e-8",
    )


ROTOR_PARAMS = dict(I=10_000.0, omega0=1.0, n_traj=10_000, seed=20260810)


def _rotor_ensemble():
    t0 = time.perf_counter()
    law = TorqueLaw.power_law(1.0, 5)
    I, W0 = ROTOR_PARAMS["I"], ROTOR_PARAMS["omega0"]
    kappa = 5.0 * W0**4 / I
    dt = 0.01 / kappa
    ens = simulate_ensemble(
        law, I=I, omega0=W0, t_total=40.0 / kappa, dt=dt,
        n_traj=ROTOR_PARAMS["n_traj"], seed=ROTOR_PARAMS["seed"], drive_at=W0,
        n_record=3,
    )
    return law, ens, time.perf_counter() - t0


def criterion_9_rotor_uncertainty(shared=None):
    """Driven Langevin ensemble: stationary I*dW vs sqrt(hbar I W0/5)."""
    law, ens, dt = shared if shared is not None else _rotor_ensemble()
    I, W0 = ROTOR_PARAMS["I"], ROTOR_PARAMS["omega0"]
    measured = I * ens.final.std()
    target = math.sqrt(I * W0 / 5.0)
    ratio = measured / target
    ok = abs(ratio - 1.0) <= 0.05 and dt < 60.0
    return CriterionResult(
        9, "rotor uncertainty I*dW", ok,
        {"ratio": ratio, "runtime_s": dt}, "within 5%, < 60 s",
    )


def criterion_10_fokker_planck_ks(shared=None):
    """KS distance of the ensemble histogram to the exact stationary density."""
    law, ens, _ = shared if shared is not None else _rotor_ensemble()
    dist = fokker_planck_stationary(law, ROTOR_PARAMS["omega0"], ROTOR_PARAMS["I"])
    ks = dist.ks_statistic(ens.final)
    bound = 3.0 / math.sqrt(ens.n_traj)
    return CriterionResult(
        10, "Fokker-Planck vs Monte-Carlo KS", ks < bound,
        {"KS": ks, "bound": bound}, "< 3/sqrt(n)",
    )


def criterion_11_twobody_scaling():
    """Torque falloff exponents: -1 (2D far field), -2 (3D); lossless silence."""
    Omega = 1.0
    pair2 = TwoBodyConfig(50.0, Drude(1.0), 0.01, Drude(1.0), 0.01)
    ds2 = np.geomspace(50.0, 500.0, 6)
    M2 = torque_vs_distance(pair2, Omega, ds2, mode="2d", epsrel=1e-6)
    slope2 = float(np.polyfit(np.log(ds2), np.log(M2), 1)[0])

    pair3 = TwoBodyConfig(2.0, Drude(1e3), 1e-3, Drude(1e3), 1e-3)
    ds3 = np.geomspace(2.0, 20.0, 6)
    M3 = torque_vs_distance(pair3, Omega, ds3, mode="3d")
    slope3 = float(np.polyfit(np.log(ds3), np.log(M3), 1)[0])

    lossless = TwoBodyConfig(50.0, Drude(1.0), 0.01, ConstantEpsilon(4.0), 0.01)
    silent = torque_on_test_2d(lossless, Omega)
    ok = abs(slope2 + 1) <= 0.02 and abs(slope3 + 2) <= 0.02 and abs(silent) < 1e-14
    return CriterionResult(
        11, "two-body scaling", ok,
        {"slope_2d": slope2, "slope_3d": slope3, "lossless": abs(silent)},
        "-1 and -2 within 2%; < 1e-14",
    )


def criterion_12_property_suite():
    """Unitarity, superradiance window and Wronskian identity on a grid."""
    worst_unitary = 0.0
    lossless = ConstantEpsilon(4.0)
    for m in (0, 1, 2, 5):
        for w in (0.1, 0.7, 2.3):
            S = disk_smatrix(lossless, 0.4, 0.9, w, m)
            worst_unitary = max(worst_unitary, abs(abs(S) - 1.0))
    for w in (0.3, 0.8):
        S = sphere_smatrix_dipole(lossless, 1e-3, 1.0, w, 1)
        worst_unitary = max(worst_unitary, abs(abs(S) - 1.0))
        blk = cylinder_smatrix_block(lossless, 1e-3, 1.0, w, 0.2)
        dev = np.abs(blk.conj().T @ blk - np.eye(2)).max()
        worst_unitary = max(worst_unitary, float(dev))
        worst_unitary = max(
            worst_unitary, abs(cylinder_flux_block(lossless, 1e-3, 1.0, w, 0.2))
        )

    window_ok = True
    model, Omega, R = Drude(1.0), 1.0, 0.3
    for m in (1, 2, 3):
        for w in np.linspace(0.05, 3.2, 33):
            if abs(w - Omega * m) < 1e-6 * Omega:
                continue
            window_ok &= math.copysign(1, disk_flux(model, R, Omega, w, m)) == math.copysign(
                1, w - Omega * m
            )

    worst_wronskian = 0.0
    for m in range(0, 51, 5):
        for x in (0.01, 0.1, 1.0, 10.0, 100.0):
            expected = -4j / (math.pi * x)
            worst_wronskian = max(
                worst_wronskian, abs(wronskian_h1h2(m, x) - expected) / abs(expected)
            )

    ok = worst_unitary < 1e-10 and window_ok and worst_wronskian < 1e-10
    return CriterionResult(
        12, "superradiance/unitarity property suite", bool(ok),
        {
            "max_unitarity_dev": worst_unitary,
            "window_sign_ok": float(window_ok),
            "max_wronskian_dev": worst_wronskian,
        },
        "< 1e-10; sign law holds",
    )


CLOSED_FORM = [
    criterion_1_sphere_closed_forms,
    criterion_2_cylinder_high_conductivity,
    criterion_3_cylinder_low_conductivity,
    criterion_4_disk_smallvel,
    criterion_5_energy_bookkeeping,
    criterion_6_equilibrium_null,
    criterion_7_photon_statistics,
    criterion_8_entropy,
    criterion_11_twobody_scaling,
    criterion_12_property_suite,
]


def run_all(include_monte_carlo=True):
    """Run the acceptance criteria; returns a list of CriterionResult."""
    results = [fn() for fn in CLOSED_FORM]
    if include_monte_carlo:
        shared = _rotor_ensemble()
        results.append(criterion_9_rotor_uncertainty(shared=shared))
        results.append(criterion_10_fokker_planck_ks(shared=shared))
    results.sort(key=lambda r: r.index)
    return results
