"""Batch front-end: config-driven scenarios with deterministic emitters.

Config files are INI-style, one section per concern, with strict unknown-key
rejection (a typo in a physics parameter must never be silently ignored); a
material key that the chosen model does not read is rejected too.
``units = si`` converts at the boundary only: radius/length/d in m, omega,
omega_hi and the omega column of input files in rad/s, dt and t_total in s,
temperatures in K, conductivity in S/m (converted to the Gaussian convention
used by eps = 1 + 4 pi i sigma/omega), inertia in kg m^2, the power-law coeff
in N m (rad/s)^-exponent; the ``si`` blocks of the JSON outputs come back in W,
N m, N, W/K, rad/s and J s.  Exit codes: 0 ok, 2 config error, 3 numeric
non-convergence, 4 numeric domain fault (a resonance or a special-function
overflow met while computing).
"""

import argparse
import configparser
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    NumericDomainError,
    SpinradError,
    StepSizeError,
    TableFormatError,
)
from .material import (
    ConstantEpsilon,
    Drude,
    Lorentz,
    TabulatedEpsilon,
    ThermalState,
    Vacuum,
)
from .photonstats import counting_distribution, entropy_generation
from .radiation import MSumPolicy, integrate_power, spectral_rows
from .rotor import (
    TorqueLaw,
    check_ensemble_counts,
    fokker_planck_stationary,
    simulate_ensemble,
    torque_law_from_radiation,
    uncertainty,
)
from .scattering import CylinderTable, DiskTable, SphereTable, UserTable, load_channel_table
from .testbody import (
    TwoBodyConfig,
    tangential_force_3d,
    torque_on_test_2d,
    torque_on_test_3d,
    torque_vs_distance,
)
from .units import UnitSystem, si_conductivity_to_gaussian

GEOMETRIES = ("disk", "sphere", "cylinder", "user-table")

_SCHEMA = {
    "scenario": {"geometry", "units"},
    "material": {"model", "sigma", "eps_inf", "omega_p", "omega_0", "gamma",
                 "eps_re", "eps_im", "path"},
    "body": {"radius", "length", "omega", "t_object", "t_env", "inertia", "table"},
    "numerics": {"m_max", "auto_extend", "tail_tol", "rel_tol", "omega_points",
                 "dt", "n_traj", "t_total", "n_record"},
    "rotor": {"law", "coeff", "exponent", "drive", "omega_hi"},
    "stats": {"pn_mean", "pn_n_max"},
    "twobody": {"mode", "d", "test_model", "test_sigma", "test_eps_re",
                "test_eps_im", "test_radius", "sweep", "sweep_points"},
}

_MATERIAL_KEYS = {
    "vacuum": set(),
    "drude": {"sigma"},
    "lorentz": {"eps_inf", "omega_p", "omega_0", "gamma"},
    "constant": {"eps_re", "eps_im"},
    "tabulated": {"path"},
}


def _get(parser, section, key, cast, default=None, required=False):
    if not parser.has_option(section, key):
        if required:
            raise ConfigError(f"[{section}] {key}: required")
        return default
    text = parser.get(section, key)
    try:
        if cast is bool:
            if text.lower() in ("true", "yes", "1"):
                return True
            if text.lower() in ("false", "no", "0"):
                return False
            raise ValueError("expected a boolean")
        value = cast(text)
        if cast is float and not np.isfinite(value):
            raise ValueError(f"must be finite, got {value}")
        return value
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def load_config(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        unknown = set(parser.options(section)) - _SCHEMA[section]
        if unknown:
            raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}")
    return parser


def _build_material(parser, units, section="material", prefix="", models=tuple(_MATERIAL_KEYS)):
    """The dielectric model that ``[section]`` describes with the keys ``prefix + key``.

    A material key that the chosen model does not read is rejected.
    """
    def get(key, cast=float, **kw):
        return _get(parser, section, prefix + key, cast, **kw)

    model = get("model", str, required=True).lower()
    if model not in models:
        raise ConfigError(
            f"[{section}] {prefix}model: must be one of {', '.join(models)}, got {model!r}")
    given = set(parser.options(section)) & {prefix + k for v in _MATERIAL_KEYS.values() for k in v}
    unread = sorted(given - {prefix + k for k in _MATERIAL_KEYS[model]})
    if unread:
        raise ConfigError(f"[{section}] {', '.join(unread)}: not read by model {model!r}")
    if model == "vacuum":
        return Vacuum()
    if model == "drude":
        sigma = get("sigma", required=True)
        if units is not None:
            sigma = units.conductivity(si_conductivity_to_gaussian(sigma))
        return Drude(sigma)
    if model == "lorentz":
        vals = [get(k, required=True) for k in ("eps_inf", "omega_p", "omega_0", "gamma")]
        if units is not None:
            vals = [vals[0]] + [units.frequency(v) for v in vals[1:]]
        return Lorentz(*vals)
    if model == "constant":
        return ConstantEpsilon(get("eps_re", required=True), get("eps_im", default=0.0))
    eps = _load_file(TabulatedEpsilon.from_csv, get("path", str, required=True),
                     "tabulated epsilon")
    if units is not None:  # the file's omega column is in rad/s
        eps = TabulatedEpsilon(units.frequency(eps.omega), eps.eps_re, eps.eps_im)
    return eps


def _build_scenario(parser):
    geometry = _get(parser, "scenario", "geometry", str, required=True).lower()
    if geometry not in GEOMETRIES:
        raise ConfigError(f"[scenario] geometry: must be one of {GEOMETRIES}")
    unit_mode = _get(parser, "scenario", "units", str, default="natural").lower()
    if unit_mode not in ("natural", "si"):
        raise ConfigError("[scenario] units: must be 'natural' or 'si'")

    omega = _get(parser, "body", "omega", float, required=True)
    if omega < 0:
        raise ConfigError("[body] omega: must be >= 0")
    units = None
    if unit_mode == "si":
        if omega <= 0:
            raise ConfigError("[body] omega: SI mode needs omega > 0 as the unit anchor")
        units = UnitSystem.from_omega_si(omega)
        omega = 1.0

    def conv(value, fn):
        return value if (units is None or value is None) else fn(value)

    body = {
        "geometry": geometry,
        "omega": omega,
        "radius": conv(_get(parser, "body", "radius", float), lambda v: units.length(v)),
        "length": conv(_get(parser, "body", "length", float), lambda v: units.length(v)),
        "t_object": conv(_get(parser, "body", "t_object", float, default=0.0),
                         lambda v: units.temperature(v)),
        "t_env": conv(_get(parser, "body", "t_env", float, default=0.0),
                      lambda v: units.temperature(v)),
        "inertia": conv(_get(parser, "body", "inertia", float), lambda v: units.inertia(v)),
        "table": _get(parser, "body", "table", str),
    }
    if geometry in ("disk", "sphere", "cylinder") and body["radius"] is None:
        raise ConfigError("[body] radius: required for this geometry")
    if geometry == "cylinder" and body["length"] is None:
        raise ConfigError("[body] length: required for the cylinder")
    if geometry == "user-table" and body["table"] is None:
        raise ConfigError("[body] table: required for user-table geometry")
    for key in ("radius", "length", "inertia"):
        if body[key] is not None and body[key] <= 0:
            raise ConfigError(f"[body] {key}: must be > 0")

    numerics = {
        "tail_tol": _get(parser, "numerics", "tail_tol", float, default=1e-6),
        "rel_tol": _get(parser, "numerics", "rel_tol", float, default=1e-9),
        "omega_points": _get(parser, "numerics", "omega_points", int, default=200),
        "dt": conv(_get(parser, "numerics", "dt", float), lambda v: units.time(v)),
        "n_traj": _get(parser, "numerics", "n_traj", int, default=1000),
        "t_total": conv(_get(parser, "numerics", "t_total", float), lambda v: units.time(v)),
        "n_record": _get(parser, "numerics", "n_record", int, default=33),
    }
    for key in ("tail_tol", "rel_tol"):
        if not 0.0 < numerics[key] < 1.0:
            raise ConfigError(f"[numerics] {key}: must lie in (0, 1)")
    # built here so that every command checks m_max, whether it sums partial waves or not
    numerics["policy"] = MSumPolicy(
        m_max=_get(parser, "numerics", "m_max", int, default=5),
        auto_extend=_get(parser, "numerics", "auto_extend", bool, default=False),
        tail_tol=numerics["tail_tol"],
        epsrel=numerics["rel_tol"],
    )

    material = None
    if parser.has_section("material"):
        material = _build_material(parser, units)
    elif geometry != "user-table":
        raise ConfigError("[material] section required for computed geometries")

    return geometry, units, material, body, numerics


def _make_table(geometry, units, material, body):
    if geometry == "disk":
        return DiskTable(material, body["radius"])
    if geometry == "sphere":
        return SphereTable(material, body["radius"])
    if geometry == "cylinder":
        return CylinderTable(material, body["radius"], body["length"])
    def load(path):
        table = load_channel_table(path)
        if units is None:
            return table
        # the file's omega column is in rad/s and a k_z label (a float extra) in
        # rad/m; UserTable checks |k_z| <= omega on the converted values
        groups, rows = {}, {}
        for (m, extra, pol), (om, S) in table.groups.items():
            key = (m, extra / units.length(1.0) if isinstance(extra, float) else extra, pol)
            groups[key] = (units.frequency(om), S)
            rows[key] = table.rows[(m, extra, pol)]
        return UserTable(groups, rows)

    return _load_file(load, body["table"], "channel table")


def _load_file(loader, path, what):
    """Read an input table; a missing or malformed file is a config error naming it."""
    try:
        return loader(path)
    except (OSError, TableFormatError) as exc:
        raise ConfigError(f"{what} {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------

def _config_hash(path, seed):
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    digest.update(str(seed).encode())
    return digest.hexdigest()[:16]


def _meta(args, flags):
    return {
        "generator": f"spinrad {__version__}",
        "config_sha256": _config_hash(args.config, args.seed),
        "seed": args.seed,
        "flags": flags,
    }


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_csv(path, meta, names, columns):
    lines = [f"# {k}: {v}" for k, v in _flatten_meta(meta)]
    lines.append(",".join(names))
    lines.extend(map(",".join, zip(*map(_fmt_column, columns))))
    Path(path).write_text("\n".join(lines) + "\n")


def _fmt_column(values):
    """The cells of one column as _fmt writes them; all-float columns in one pass."""
    try:
        return list(map(float.__repr__, values))  # equals _fmt on floats, numpy's too
    except TypeError:  # None, an int, a bool or a string somewhere in the column
        return list(map(_fmt, values))


def _write_table(out_dir, stem, fmt, meta, names, columns):
    """Tabular emitter honoring --format: CSV with a header block, or JSON records.

    ``columns`` holds one sequence of cells per name; the CSV is written
    column by column, the JSON as one record per row.
    """
    if fmt == "json":
        path = Path(out_dir) / f"{stem}.json"
        payload = {"meta": meta, "columns": list(names),
                   "rows": [list(r) for r in zip(*columns)]}
        _write_json(path, payload)
    else:
        path = Path(out_dir) / f"{stem}.csv"
        _write_csv(path, meta, names, columns)
    return path


def _flatten_meta(meta):
    out = []
    for k, v in meta.items():
        if isinstance(v, dict):
            for kk, vv in v.items():
                out.append((f"{k}.{kk}", _fmt(vv)))
        else:
            out.append((k, _fmt(v)))
    return out


def _fmt(v):
    if isinstance(v, float):
        return repr(float(v))  # a numpy float's repr would be np.float64(...)
    if v is None:
        return ""
    return str(v)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _state(body):
    return ThermalState(T_object=body["t_object"], T_env=body["t_env"], Omega=body["omega"])


def run_power(args, parser):
    geometry, units, material, body, numerics = _build_scenario(parser)
    table = _make_table(geometry, units, material, body)
    result = integrate_power(table, _state(body), numerics["policy"])
    payload = {"meta": _meta(args, result.flags), **result.as_dict()}
    if units is not None:
        payload["si"] = {
            "P_W": units.power_si(result.P),
            "M_Nm": units.torque_si(result.M),
            "Q_W": units.power_si(result.Q),
        }
    out = Path(args.out) / "power.json"
    _write_json(out, payload)
    print(f"power: P={result.P!r} M={result.M!r} Q={result.Q!r} -> {out}")
    return 0


def run_spectrum(args, parser):
    geometry, units, material, body, numerics = _build_scenario(parser)
    table = _make_table(geometry, units, material, body)
    rows = spectral_rows(table, _state(body), numerics["policy"], numerics["omega_points"])
    flags = {"omega_R_over_c": (body["omega"] * body["radius"]) if body["radius"] else 0.0}
    out = _write_table(
        args.out, "spectrum", args.format, _meta(args, flags),
        ["omega", "m", "extra", "pol", "N", "dP_domega"], list(zip(*rows)),
    )
    print(f"spectrum: {len(rows)} rows -> {out}")
    return 0


def run_stats(args, parser):
    geometry, units, material, body, numerics = _build_scenario(parser)
    pn_mean = _get(parser, "stats", "pn_mean", float)
    if pn_mean is not None:  # checked before any work, so a bad key writes no file
        n_max = _get(parser, "stats", "pn_n_max", int, default=50)
        probs, tail = counting_distribution(pn_mean, n_max)
    table = _make_table(geometry, units, material, body)
    report = entropy_generation(table, _state(body), numerics["policy"])
    radiation = report.radiation
    payload = {
        "meta": _meta(args, radiation.flags),
        "perMode": [
            {"m": m, "extra": extra, "pol": pol, "entropyRate": rate}
            for (m, extra, pol, rate) in report.per_mode
        ],
        "totalEntropyRate": report.total_rate,
        "entropyQuadratureError": report.quadrature_error,
        "objectEntropyRate": report.object_rate,
        "combinedRate": report.combined_rate,
        "P": radiation.P,
        "M": radiation.M,
        "Q": radiation.Q,
    }
    if units is not None:
        payload["si"] = {"S_W_per_K": units.entropy_rate_si(report.total_rate)}
    out = Path(args.out) / "stats.json"
    _write_json(out, payload)
    if pn_mean is not None:
        _write_table(
            args.out, "pn", args.format,
            _meta(args, {"N": pn_mean, "tail": float(tail)}),
            ["n", "P"], [range(len(probs)), list(map(float, probs))],
        )
    print(f"stats: total entropy rate {report.total_rate!r} -> {out}")
    return 0


def run_rotor(args, parser):
    geometry, units, material, body, numerics = _build_scenario(parser)
    if body["inertia"] is None:
        raise ConfigError("[body] inertia: required for the rotor scenario")
    Omega0, I = body["omega"], body["inertia"]
    # the ensemble's own rule, applied before the law and the density are built
    check_ensemble_counts(numerics["n_traj"], numerics["n_record"], args.seed)
    law_kind = _get(parser, "rotor", "law", str, default="radiation").lower()
    if law_kind == "powerlaw":
        coeff = _get(parser, "rotor", "coeff", float, required=True)
        exponent = _get(parser, "rotor", "exponent", float, required=True)
        if units is not None:  # coeff in N m (rad/s)^-exponent
            coeff = units.torque(coeff) * units.frequency_si(1.0) ** exponent
        law = TorqueLaw.power_law(coeff, exponent)
    elif law_kind == "radiation":
        state0 = ThermalState(T_object=body["t_object"], T_env=body["t_env"])
        hi = _get(parser, "rotor", "omega_hi", float)
        if hi is None:
            hi = 2.0 * Omega0
        elif units is not None:
            hi = units.frequency(hi)
        law = torque_law_from_radiation(
            _make_table(geometry, units, material, body), state0, omega_range=(0.0, hi),
            rtol=1e-6, policy=numerics["policy"],
        )
    else:
        raise ConfigError("[rotor] law: must be 'radiation' or 'powerlaw'")

    slope = law.drift_derivative(Omega0)
    if slope <= 0:
        raise ConfigError("[rotor]: torque law has no confining slope at omega")
    kappa = slope / I
    dt = numerics["dt"] if numerics["dt"] is not None else 0.02 / kappa
    t_total = numerics["t_total"] if numerics["t_total"] is not None else 30.0 / kappa
    drive = _get(parser, "rotor", "drive", bool, default=True)
    if drive:  # before any file is written, so that a numeric fault here leaves none
        dist = fokker_planck_stationary(law, Omega0, I)
        width = uncertainty(law, Omega0, I)

    ens = simulate_ensemble(
        law, I=I, omega0=Omega0, t_total=t_total, dt=dt,
        n_traj=numerics["n_traj"], seed=args.seed,
        drive_at=Omega0 if drive else None, n_record=numerics["n_record"],
    )
    meta = _meta(args, {"adiabaticity_max": ens.adiabaticity_max})
    n_traj, n_times = ens.omegas.shape
    columns = [ens.times.tolist() * n_traj,
               [j for j in range(n_traj) for _ in range(n_times)],
               ens.omegas.ravel().tolist()]
    _write_table(args.out, "trajectories", args.format, meta, ["t", "traj_id", "omega"], columns)

    summary = {
        "meta": meta,
        "dt": ens.dt,
        "n_steps": int(round(ens.times[-1] / ens.dt)),  # the last record is the last step
        "mean": float(ens.final.mean()),
        "var": float(ens.final.var()),
        "IDeltaOmega_mc": float(I * ens.final.std()),
    }
    if drive:
        _write_table(
            args.out, "stationary", args.format, meta, ["omega", "pdf"],
            [dist.omega.tolist(), dist.pdf.tolist()],
        )
        summary["IDeltaOmega_analytic"] = width
        summary["KS_mc_vs_analytic"] = dist.ks_statistic(ens.final)
    if units is not None:
        summary["si"] = {
            "mean_rad_per_s": units.frequency_si(summary["mean"]),
            "var_rad2_per_s2": summary["var"] / units.time_unit_s**2,
            "IDeltaOmega_mc_Js": units.angular_momentum_si(summary["IDeltaOmega_mc"]),
        }
        if drive:
            summary["si"]["IDeltaOmega_analytic_Js"] = units.angular_momentum_si(
                summary["IDeltaOmega_analytic"])
    _write_json(Path(args.out) / "rotor.json", summary)
    print(f"rotor: {numerics['n_traj']} trajectories -> {args.out}")
    return 0


def run_twobody(args, parser):
    geometry, units, material, body, numerics = _build_scenario(parser)
    if geometry not in ("disk", "sphere"):
        raise ConfigError("[scenario] geometry: twobody supports disk (2d) and sphere (3d)")
    mode = "3d" if geometry == "sphere" else "2d"
    if _get(parser, "twobody", "mode", str, default=mode) != mode:
        raise ConfigError(f"[twobody] mode: must be {mode!r} for the {geometry}")
    d = _get(parser, "twobody", "d", float, required=True)
    test_radius = _get(parser, "twobody", "test_radius", float, required=True)
    if units is not None:
        d = units.length(d)
        test_radius = units.length(test_radius)
    test_model = _build_material(parser, units, "twobody", "test_",
                                 ("drude", "constant", "vacuum"))
    sweep = _get(parser, "twobody", "sweep", bool, default=False)
    sweep_points = _get(parser, "twobody", "sweep_points", int, default=7)
    if sweep_points < 1:
        raise ConfigError("[twobody] sweep_points: must be >= 1")

    cfg = TwoBodyConfig(d, material, body["radius"], test_model, test_radius)
    Omega = body["omega"]
    payload = {"d": d, "mode": mode}
    if mode == "2d":
        payload["M_transfer"] = torque_on_test_2d(cfg, Omega)
    else:
        payload["M_transfer"] = torque_on_test_3d(cfg, Omega)
        payload["F_y"] = tangential_force_3d(cfg, Omega)
    flags = {"single_reflection": True, "d_over_max_radius": d / max(body["radius"], test_radius)}
    payload = {"meta": _meta(args, flags), **payload}
    if units is not None:
        payload["si"] = {"M_transfer_Nm": units.torque_si(payload["M_transfer"])}
        if "F_y" in payload:
            payload["si"]["F_y_N"] = units.force_si(payload["F_y"])
    _write_json(Path(args.out) / "twobody.json", payload)

    if sweep:
        ds = np.geomspace(d, 10 * d, sweep_points)
        Ms = torque_vs_distance(cfg, Omega, ds, mode=mode)
        _write_table(
            args.out, "twobody_sweep", args.format, _meta(args, flags),
            ["d", "M_transfer"], [list(map(float, ds)), list(map(float, Ms))],
        )
    print(f"twobody: M={payload['M_transfer']!r} -> {args.out}")
    return 0


def run_verify(args, parser):
    from .acceptance import run_all

    results = run_all(include_monte_carlo=args.full)
    for r in results:
        print(r.row())
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return 0 if n_fail == 0 else 1


COMMANDS = {
    "power": run_power,
    "spectrum": run_spectrum,
    "stats": run_stats,
    "rotor": run_rotor,
    "twobody": run_twobody,
    "verify": run_verify,
}


@functools.cache  # built once per process: parse_args writes only to a fresh namespace
def build_argparser():
    ap = argparse.ArgumentParser(
        prog="spinrad",
        description="Radiation, friction and stochastic rotation of spinning dispersive bodies",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name != "verify":
            p.add_argument("--config", required=True, help="scenario config (INI)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=0)
        if name == "verify":
            p.add_argument("--full", action="store_true",
                           help="include the Monte-Carlo rotor criteria")
    return ap


def main(argv=None):
    args = build_argparser().parse_args(argv)
    try:
        if args.command == "verify":
            return run_verify(args, None)
        parser = load_config(args.config)
        Path(args.out).mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](args, parser)
    except NumericDomainError as exc:
        print(f"numeric domain fault: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, StepSizeError) as exc:
        print(f"numeric non-convergence: {exc}", file=sys.stderr)
        return 3
    except SpinradError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
