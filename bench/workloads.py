"""Benchmark workloads: seeded inputs, the fixed op mix of each, and output checks.

An op is one user request: one in-process ``spinrad.cli.main`` call, or one
library ensemble run.  The seed draws only physical parameters (sigma, R,
Omega, T, I), each inside its geometry's validity regime; which ops a
workload runs, and in which order, never depends on it, so latency
percentiles stay comparable across seeds.

Library entry points are looked up on their modules at call time, never
bound at import, so the traced run's wrappers see every call.
"""

import contextlib
import io
import json
import math
import random
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.constants import c as C_SI, epsilon_0, hbar as HBAR_SI, k as K_B_SI

import spinrad
import spinrad.cli

WORKLOADS = ("cli_mix", "rotor_radiation", "langevin_ensemble")

# tolerances of the output checks
IDENTITY_RTOL = 1e-12          # Q = Omega*M - P
SPHERE_CLOSED_FORM_RTOL = 0.02  # Drude sphere at T = 0: P = R^3 Omega^6 / (30 pi^2 sigma)
ENSEMBLE_WIDTH_RTOL = 0.05     # I*dW of the W^5 law: sqrt(I W0 / 5)
# columns of the CSV emitters that hold labels rather than numbers
LABEL_COLUMNS = {"pol"}


class Params:
    """Seeded draws of the physical parameters, each in a fixed range."""

    def __init__(self, seed):
        self._rng = random.Random(seed)

    def uniform(self, lo, hi):
        return self._rng.uniform(lo, hi)

    def log_uniform(self, lo, hi):
        return math.exp(self._rng.uniform(math.log(lo), math.log(hi)))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def csv_problems(path):
    """Every cell of a numeric column must parse as a float (empty = absent)."""
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    if not lines:
        return [f"{path.name}: no header"]
    columns = lines[0].split(",")
    numeric = [i for i, name in enumerate(columns) if name not in LABEL_COLUMNS]
    bad = 0
    first = None
    for row_no, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(columns):
            return [f"{path.name}: row {row_no} has {len(cells)} cells, header {len(columns)}"]
        for i in numeric:
            if cells[i] == "":
                continue
            try:
                float(cells[i])
            except ValueError:
                bad += 1
                if first is None:
                    first = f"row {row_no} column {columns[i]}: {cells[i]!r}"
    return [f"{path.name}: {bad} non-numeric cells, first {first}"] if bad else []


def identity_problems(payload, Omega):
    """Q = Omega*M - P to IDENTITY_RTOL relative."""
    P, M, Q = payload["P"], payload["M"], payload["Q"]
    scale = max(abs(P), abs(Omega * M), abs(Q))
    if not all(map(math.isfinite, (P, M, Q))) or scale == 0.0:
        return [f"P, M, Q = {P!r}, {M!r}, {Q!r}"]
    err = abs(Q - (Omega * M - P)) / scale
    return [f"Q - (Omega*M - P) = {err:.3g} relative"] if err > IDENTITY_RTOL else []


def relative_problem(what, value, target, rtol):
    err = abs(value / target - 1.0)
    return [f"{what} off by {err:.3g} (tolerance {rtol})"] if not err <= rtol else []


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

class CliOp:
    """One ``spinrad <command>`` request, run in-process through ``cli.main``."""

    def __init__(self, name, command, config, seed, checks=()):
        self.name = name
        self.command = command
        self.config = config      # path of the INI file
        self.seed = seed
        self.checks = checks      # callables (out_dir) -> list of problems

    def execute(self, out_dir):
        argv = [self.command, "--config", str(self.config), "--out", str(out_dir),
                "--seed", str(self.seed)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = spinrad.cli.main(argv)
        return code, buf.getvalue()

    def output_bytes(self, out_dir, result):
        _, text = result
        parts = [text.encode()]
        for path in sorted(Path(out_dir).iterdir()):
            parts.append(path.name.encode() + b"\0" + path.read_bytes())
        return b"\0".join(parts)

    def problems(self, out_dir, result):
        code, text = result
        if code != 0:
            return [f"exit code {code}: {text.strip()[-200:]}"]
        out = []
        for path in sorted(Path(out_dir).iterdir()):
            if path.suffix == ".csv":
                out += csv_problems(path)
            elif path.suffix == ".json":
                try:
                    json.loads(path.read_text())
                except ValueError as exc:
                    out.append(f"{path.name}: {exc}")
        for check in self.checks:
            out += check(out_dir)
        return out


class EnsembleOp:
    """Library call: a driven W^5 Langevin ensemble, its stationary density and width."""

    name = "ensemble/powerlaw5"

    def __init__(self, I, W0, n_traj, n_steps, seed):
        self.I, self.W0 = I, W0
        self.n_traj, self.n_steps = n_traj, n_steps
        self.seed = seed
        kappa = 5.0 * W0**4 / I          # relaxation rate of the W^5 law
        self.dt = 0.01 / kappa
        self.traj_steps = n_traj * n_steps
        self.ensemble_seconds = []       # wall time of each simulate_ensemble call

    def execute(self, out_dir):
        law = spinrad.TorqueLaw.power_law(1.0, 5)
        t0 = perf_counter()
        ens = spinrad.simulate_ensemble(
            law, I=self.I, omega0=self.W0, t_total=self.n_steps * self.dt, dt=self.dt,
            n_traj=self.n_traj, seed=self.seed, drive_at=self.W0,
        )
        self.ensemble_seconds.append(perf_counter() - t0)
        dist = spinrad.fokker_planck_stationary(law, self.W0, self.I)
        width = spinrad.uncertainty(law, self.W0, self.I)
        ks = dist.ks_statistic(ens.final)
        return ens, dist, width, ks

    def output_bytes(self, out_dir, result):
        ens, dist, width, ks = result
        return b"\0".join([ens.omegas.tobytes(), dist.omega.tobytes(), dist.pdf.tobytes(),
                           repr(width).encode(), repr(ks).encode()])

    def problems(self, out_dir, result):
        ens, _, width, ks = result
        target = math.sqrt(self.I * self.W0 / 5.0)
        out = relative_problem("I*dW (Monte Carlo)", self.I * float(ens.final.std()), target,
                               ENSEMBLE_WIDTH_RTOL)
        out += relative_problem("I*dW (analytic)", width, target, 1e-6)
        bound = 3.0 / math.sqrt(ens.n_traj)
        if not ks < bound:
            out.append(f"KS {ks:.3g} >= 3/sqrt(n) = {bound:.3g}")
        return out


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _ini(sections):
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}"
                  for k, v in keys.items()]
        lines.append("")
    return "\n".join(lines)


def _config(directory, name, sections):
    """Write the INI file of op `name` and return its path."""
    path = Path(directory) / f"{name.replace('/', '_')}.ini"
    path.write_text(_ini(sections))
    return path


def _json(out_dir, name):
    return json.loads((Path(out_dir) / name).read_text())


def _identity(Omega):
    return lambda out_dir: identity_problems(_json(out_dir, "power.json"), Omega)


def _sphere_closed_form(R, Omega, sigma):
    target = R**3 * Omega**6 / (30.0 * math.pi**2 * sigma)
    return lambda out_dir: relative_problem(
        "P vs R^3 Omega^6/(30 pi^2 sigma)", _json(out_dir, "power.json")["P"], target,
        SPHERE_CLOSED_FORM_RTOL)


def _sphere_closed_form_si(R_si, Omega_si, sigma_si):
    sigma_gauss = sigma_si / (4.0 * math.pi * epsilon_0)
    target = HBAR_SI * R_si**3 * Omega_si**6 / (30.0 * math.pi**2 * C_SI**3 * sigma_gauss)
    return lambda out_dir: relative_problem(
        "P_W vs the SI closed form", _json(out_dir, "power.json")["si"]["P_W"], target,
        SPHERE_CLOSED_FORM_RTOL)


def _ks(n_traj):
    bound = 3.0 / math.sqrt(n_traj)

    def check(out_dir):
        ks = _json(out_dir, "rotor.json")["KS_mc_vs_analytic"]
        return [] if ks < bound else [f"KS {ks:.3g} >= 3/sqrt(n) = {bound:.3g}"]
    return check


def _width_w5(I, W0):
    """At T = 0 the Drude sphere's law is Mbar = Mbar2 ~ W^5, so I*dW = sqrt(I W0 / 5)."""
    return lambda out_dir: relative_problem(
        "I*dW (analytic) vs sqrt(I W0/5)", _json(out_dir, "rotor.json")["IDeltaOmega_analytic"],
        math.sqrt(I * W0 / 5.0), 1e-3)


def _user_table_csv(path, sigma, R, Omega, m_values, n_points):
    """Channel table of the rotating Drude disk on a uniform grid over each window.

    The grid ends at Omega*m, and n_points is a power of two, so its nodes are
    bisection points of the T = 0 integration interval: the work the adaptive
    quadrature spends on the kinks of the interpolated table then does not
    depend on the drawn parameters.
    """
    model = spinrad.Drude(sigma)
    rows = ["omega,m,extra,pol,ReS,ImS"]
    for m in m_values:
        for w in np.linspace(Omega * m / 32.0, Omega * m, n_points + 1):
            S = spinrad.disk_smatrix(model, R, Omega, float(w), m)
            rows.append(f"{float(w)!r},{m},,scalar,{float(S.real)!r},{float(S.imag)!r}")
    Path(path).write_text("\n".join(rows) + "\n")


def cli_mix(directory, seed):
    """Everyday scenarios: power, stats, spectrum and twobody on every geometry."""
    p = Params(seed)
    disk = dict(sigma=p.log_uniform(0.8, 1.25), R=p.uniform(0.08, 0.12),
                Omega=p.uniform(0.9, 1.1), T_obj=p.uniform(0.4, 0.6),
                T_env=p.uniform(0.1, 0.2))
    sph = dict(sigma=p.log_uniform(800.0, 1250.0), R=p.uniform(0.8e-3, 1.25e-3),
               Omega=p.uniform(0.9, 1.1), T_obj=p.uniform(0.5, 1.0))
    cyl = dict(sigma=p.log_uniform(800.0, 1250.0), R=p.uniform(0.8e-3, 1.25e-3),
               L=p.uniform(0.8, 1.25), Omega=p.uniform(0.9, 1.1), T_obj=p.uniform(0.3, 0.6))
    si_sph = dict(sigma=p.log_uniform(800.0, 1250.0), R=p.uniform(0.8e-6, 1.25e-6),
                  Omega=p.uniform(1.6e9, 2.5e9))
    si_disk_omega = p.uniform(0.8e9, 1.25e9)
    si_disk = dict(Omega=si_disk_omega,
                   R=p.uniform(0.08, 0.12) * C_SI / si_disk_omega,
                   sigma=p.log_uniform(0.8, 1.25) * si_disk_omega * 4.0 * math.pi * epsilon_0)
    test = dict(d2=p.uniform(0.8, 1.25), sigma2=p.log_uniform(0.8, 1.25),
                R2=p.uniform(0.08, 0.12), d3=p.uniform(1.6, 2.5),
                sigma3=p.log_uniform(800.0, 1250.0), R3=p.uniform(0.8e-3, 1.25e-3))

    def drude(sigma):
        return {"model": "drude", "sigma": sigma}

    def disk_body(**extra):
        return {"radius": disk["R"], "omega": disk["Omega"], **extra}

    def sph_body(**extra):
        return {"radius": sph["R"], "omega": sph["Omega"], **extra}

    def cyl_body(**extra):
        return {"radius": cyl["R"], "length": cyl["L"], "omega": cyl["Omega"], **extra}

    table = Path(directory) / "disk_channels.csv"
    _user_table_csv(table, disk["sigma"], disk["R"], disk["Omega"], (1, 2), 16)

    specs = [
        # (name, command, config sections, checks)
        ("power/disk/T0", "power",
         {"scenario": {"geometry": "disk"}, "material": drude(disk["sigma"]),
          "body": disk_body()}, [_identity(disk["Omega"])]),
        ("power/disk/thermal", "power",
         {"scenario": {"geometry": "disk"}, "material": drude(disk["sigma"]),
          "body": disk_body(t_object=disk["T_obj"], t_env=disk["T_env"]),
          "numerics": {"m_max": 3}}, [_identity(disk["Omega"])]),
        ("power/sphere/T0", "power",
         {"scenario": {"geometry": "sphere"}, "material": drude(sph["sigma"]),
          "body": sph_body()},
         [_identity(sph["Omega"]), _sphere_closed_form(sph["R"], sph["Omega"], sph["sigma"])]),
        ("power/sphere/thermal", "power",
         {"scenario": {"geometry": "sphere"}, "material": drude(sph["sigma"]),
          "body": sph_body(t_object=sph["T_obj"], t_env=0.5 * sph["T_obj"])},
         [_identity(sph["Omega"])]),
        ("power/cylinder/T0", "power",
         {"scenario": {"geometry": "cylinder"}, "material": drude(cyl["sigma"]),
          "body": cyl_body()}, [_identity(cyl["Omega"])]),
        ("power/cylinder/thermal", "power",
         {"scenario": {"geometry": "cylinder"}, "material": drude(cyl["sigma"]),
          "body": cyl_body(t_object=cyl["T_obj"])}, [_identity(cyl["Omega"])]),
        ("power/user-table/T0", "power",
         {"scenario": {"geometry": "user-table"},
          "body": {"table": str(table), "omega": disk["Omega"]},
          "numerics": {"rel_tol": 1e-6}}, [_identity(disk["Omega"])]),
        ("power/sphere/T0/si", "power",
         {"scenario": {"geometry": "sphere", "units": "si"}, "material": drude(si_sph["sigma"]),
          "body": {"radius": si_sph["R"], "omega": si_sph["Omega"]}},
         [_identity(1.0), _sphere_closed_form_si(si_sph["R"], si_sph["Omega"], si_sph["sigma"])]),
        ("power/disk/T0/si", "power",
         {"scenario": {"geometry": "disk", "units": "si"}, "material": drude(si_disk["sigma"]),
          "body": {"radius": si_disk["R"], "omega": si_disk["Omega"]}}, [_identity(1.0)]),
        ("stats/disk/T0", "stats",
         {"scenario": {"geometry": "disk"}, "material": drude(disk["sigma"]),
          "body": disk_body()}, []),
        ("stats/sphere/thermal", "stats",
         {"scenario": {"geometry": "sphere"}, "material": drude(sph["sigma"]),
          "body": sph_body(t_object=sph["T_obj"]),
          "stats": {"pn_mean": 0.5, "pn_n_max": 20}}, []),
        ("spectrum/disk/T0", "spectrum",
         {"scenario": {"geometry": "disk"}, "material": drude(disk["sigma"]),
          "body": disk_body(), "numerics": {"m_max": 3}}, []),
        ("spectrum/sphere/thermal", "spectrum",
         {"scenario": {"geometry": "sphere"}, "material": drude(sph["sigma"]),
          "body": sph_body(t_object=sph["T_obj"])}, []),
        ("spectrum/cylinder/thermal", "spectrum",
         {"scenario": {"geometry": "cylinder"}, "material": drude(cyl["sigma"]),
          "body": cyl_body(t_object=cyl["T_obj"])}, []),
        ("twobody/disk/2d", "twobody",
         {"scenario": {"geometry": "disk"}, "material": drude(disk["sigma"]),
          "body": disk_body(),
          "twobody": {"mode": "2d", "d": test["d2"], "test_model": "drude",
                      "test_sigma": test["sigma2"], "test_radius": test["R2"]}}, []),
        ("twobody/sphere/3d/sweep", "twobody",
         {"scenario": {"geometry": "sphere"}, "material": drude(sph["sigma"]),
          "body": sph_body(),
          "twobody": {"mode": "3d", "d": test["d3"], "test_model": "drude",
                      "test_sigma": test["sigma3"], "test_radius": test["R3"],
                      "sweep": "true", "sweep_points": 4}}, []),
    ]
    return [CliOp(name, command, _config(directory, name, sections), seed, checks)
            for name, command, sections, checks in specs]


def rotor_radiation(directory, seed):
    """``spinrad rotor`` with the radiation torque law, tabulated over Omega."""
    p = Params(seed)

    def rotor_cfg(geometry, sigma, radius, omega, inertia, units="natural", **body):
        return {
            "scenario": {"geometry": geometry, "units": units},
            "material": {"model": "drude", "sigma": sigma},
            "body": {"radius": radius, "omega": omega, "inertia": inertia, **body},
            "numerics": {"n_traj": 512, "n_record": 9, "m_max": 2},
            "rotor": {"law": "radiation"},
        }

    si_omega = p.uniform(0.8e9, 1.25e9)
    specs = [
        ("rotor/sphere/T0", rotor_cfg("sphere", p.log_uniform(8.0, 12.5), p.uniform(0.008, 0.012),
                                      p.uniform(0.9, 1.1), p.log_uniform(0.8e4, 1.25e4))),
        ("rotor/disk/T0", rotor_cfg("disk", p.log_uniform(0.8, 1.25), p.uniform(0.08, 0.12),
                                    p.uniform(0.9, 1.1), p.log_uniform(0.8e4, 1.25e4))),
        ("rotor/cylinder/T0", rotor_cfg("cylinder", p.log_uniform(800.0, 1250.0),
                                        p.uniform(0.8e-3, 1.25e-3), p.uniform(0.9, 1.1),
                                        p.log_uniform(0.8e4, 1.25e4), length=p.uniform(0.8, 1.25))),
        ("rotor/sphere/thermal", rotor_cfg("sphere", p.log_uniform(8.0, 12.5),
                                           p.uniform(0.008, 0.012), p.uniform(0.9, 1.1),
                                           p.log_uniform(0.8e4, 1.25e4),
                                           t_object=p.uniform(0.4, 0.6))),
        # the same thermal sphere entered in SI units: m, rad/s, S/m, K, kg m^2
        ("rotor/sphere/thermal/si", rotor_cfg(
            "sphere", p.log_uniform(8.0, 12.5) * si_omega * 4.0 * math.pi * epsilon_0,
            p.uniform(0.008, 0.012) * C_SI / si_omega, si_omega,
            p.log_uniform(0.8e4, 1.25e4) * HBAR_SI / si_omega,
            t_object=p.uniform(0.4, 0.6) * HBAR_SI * si_omega / K_B_SI, units="si")),
    ]
    ops = []
    for name, sections in specs:
        checks = [_ks(sections["numerics"]["n_traj"])]
        if name == "rotor/sphere/T0":
            body = sections["body"]
            checks.append(_width_w5(body["inertia"], body["omega"]))
        ops.append(CliOp(name, "rotor", _config(directory, name, sections), seed, checks))
    return ops


def langevin_ensemble(directory, seed):
    """Library ensemble of the W^5 torque law: the rotor layer alone."""
    p = Params(seed)
    return [EnsembleOp(I=p.log_uniform(0.5e4, 2e4), W0=p.uniform(0.8, 1.25),
                       n_traj=4096, n_steps=8000, seed=seed)]


def build(workload, directory, seed):
    """Generate the inputs of a workload in `directory` and return its op mix (one pass)."""
    Path(directory).mkdir(parents=True, exist_ok=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an input outside its validity regime is a bug here
        return {"cli_mix": cli_mix, "rotor_radiation": rotor_radiation,
                "langevin_ensemble": langevin_ensemble}[workload](directory, seed)
