"""CLI: config validation, determinism, unit conversion, emitters."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.constants import c as C_SI, epsilon_0, hbar as HBAR_SI, k as KB_SI

from spinrad import ConvergenceError, DomainError, Drude, disk_smatrix, simulate_ensemble
from spinrad import cli
from spinrad.cli import main
from spinrad.units import UnitSystem, si_conductivity_to_gaussian

DISK_CFG = """
[scenario]
geometry = disk

[material]
model = drude
sigma = 1.0

[body]
radius = 0.3
omega = 1.0
"""


SPHERE_CFG = """
[scenario]
geometry = sphere

[material]
model = drude
sigma = 1000.0

[body]
radius = 0.001
omega = 1.0
"""


CYLINDER_CFG = """
[scenario]
geometry = cylinder

[material]
model = drude
sigma = 1000.0

[body]
radius = 0.001
length = 1.0
omega = 1.0
"""


def write(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run_in_new_process(argv):
    """(exit code, stdout, stderr) of ``spinrad argv`` in a fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-m", "spinrad.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def run_in_this_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def take_files(out):
    files = {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())}
    shutil.rmtree(out)
    return files


class TestParserReuse:
    """``main`` builds its parser once per process; reuse must change no output."""

    def test_calls_in_a_row_match_separate_processes(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        cfg = write(tmp_path, SPHERE_CFG)
        runs = [["power", "--config", cfg, "--out", out, "--format", "json", "--seed", "3"],
                ["stats", "--config", cfg, "--out", out]]
        here = []
        for argv in runs:
            here.append((run_in_this_process(argv, capsys), take_files(out)))
        for argv, (result, files) in zip(runs, here):
            assert run_in_new_process(argv) == result and result[0] == 0
            assert take_files(out) == files

    @pytest.mark.parametrize("argv", [[], ["power", "--bogus"]], ids=["empty", "unknown-flag"])
    def test_usage_errors_match_a_separate_process(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # both processes wrap the usage alike, tty or not
        run_in_this_process(["verify", "--bogus"], capsys)  # the parser is built and used
        result = run_in_this_process(argv, capsys)
        assert result[0] == 2 and result[2].startswith("usage: spinrad")
        assert run_in_new_process(argv) == result


class TestValidation:
    def test_no_arguments_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["power", "--config", str(tmp_path / "nope.ini")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_empty_config_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, "")
        assert main(["power", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "geometry" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, SPHERE_CFG + "\n[numerics]\nmmax = 3\n")
        assert main(["power", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "mmax" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, SPHERE_CFG + "\n[extras]\nx = 1\n")
        assert main(["power", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_missing_required_field_named(self, tmp_path, capsys):
        cfg = write(tmp_path, "[scenario]\ngeometry = sphere\n[material]\nmodel = drude\n"
                              "sigma = 1.0\n[body]\nomega = 1.0\n")
        assert main(["power", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "radius" in capsys.readouterr().err

    def test_bad_geometry(self, tmp_path, capsys):
        cfg = write(tmp_path, "[scenario]\ngeometry = torus\n[body]\nomega = 1\n")
        assert main(["power", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("malformed", [False, True], ids=["missing", "malformed"])
    @pytest.mark.parametrize(
        "body",
        [
            "[scenario]\ngeometry = user-table\n[body]\nomega = 1.0\ntable = {path}\n",
            "[scenario]\ngeometry = sphere\n[material]\nmodel = tabulated\npath = {path}\n"
            "[body]\nradius = 0.01\nomega = 1.0\n",
        ],
        ids=["channel-table", "tabulated-eps"],
    )
    def test_table_file_fault_is_config_error_naming_file(self, tmp_path, capsys, body,
                                                          malformed):
        table = tmp_path / "table.csv"
        if malformed:
            table.write_text("omega,bogus\n0.5,1\n")
        cfg = write(tmp_path, body.format(path=table))
        assert main(["power", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(table) in err

    @pytest.mark.parametrize("command, numerics, key", [
        ("power", "m_max = -1", "m_max"),
        ("spectrum", "omega_points = -3", "n_points"),
        ("rotor", "n_traj = 0", "n_traj"),
        ("rotor", "n_record = 0", "n_record"),
        ("rotor", "n_record = 1", "n_record"),
        ("rotor", "m_max = -1", "m_max"),
    ], ids=["m_max", "omega_points", "n_traj", "n_record=0", "n_record=1", "m_max-powerlaw-rotor"])
    def test_out_of_range_numerics_exit_2(self, tmp_path, capsys, command, numerics, key):
        cfg = write(tmp_path, SPHERE_CFG + "inertia = 400.0\n[numerics]\n" + numerics
                    + "\n[rotor]\nlaw = powerlaw\ncoeff = 1.0\nexponent = 5\n")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and key in err
        assert not any(out.iterdir())  # rejected before any output is written

    @pytest.mark.parametrize("command, text, key", [
        ("power", "[scenario]\ngeometry = sphere\n[material]\nmodel = constant\n"
         "eps_re = 2.0\nsigma = 1000\n[body]\nradius = 0.001\nomega = 1.0\n", "sigma"),
        ("power", "[scenario]\ngeometry = sphere\n[material]\nmodel = drude\n"
         "sigma = 1000\neps_im = 0.5\n[body]\nradius = 0.001\nomega = 1.0\n", "eps_im"),
        ("twobody", SPHERE_CFG + "[twobody]\nd = 2.0\ntest_model = constant\n"
         "test_eps_re = 2.0\ntest_sigma = 1000\ntest_radius = 0.001\n", "test_sigma"),
        ("twobody", SPHERE_CFG + "[twobody]\nd = 2.0\ntest_model = vacuum\n"
         "test_eps_re = 2.0\ntest_radius = 0.001\n", "test_eps_re"),
    ], ids=["constant-sigma", "drude-eps_im", "test-constant-sigma", "test-vacuum-eps_re"])
    def test_material_key_the_model_does_not_read_exits_2(self, tmp_path, capsys, command,
                                                           text, key):
        out = tmp_path / "out"
        assert main([command, "--config", write(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and key in err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("key, value", [("omega", "nan"), ("omega", "inf"),
                                            ("t_object", "nan"), ("radius", "nan"),
                                            ("radius", "-inf")])
    def test_non_finite_value_exits_2_naming_the_key(self, tmp_path, capsys, key, value):
        body = {"radius": "0.001", "omega": "1.0", "t_object": "0.0", key: value}
        text = ("[scenario]\ngeometry = sphere\n[material]\nmodel = drude\nsigma = 1000.0\n"
                "[body]\n" + "".join(f"{k} = {v}\n" for k, v in body.items()))
        out = tmp_path / "out"
        assert main(["power", "--config", write(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [body] {key}: must be finite")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command, section, named", [
        ("stats", "[stats]\npn_mean = -1\n", "mean flux"),
        ("stats", "[stats]\npn_mean = 0.5\npn_n_max = -1\n", "n_max"),
        ("twobody", "[twobody]\nd = 2.0\ntest_model = drude\ntest_sigma = 1000\n"
         "test_radius = 0.001\nsweep = true\nsweep_points = -1\n", "[twobody] sweep_points"),
        ("twobody", "[twobody]\nd = 2.0\ntest_model = drude\ntest_sigma = 1000\n"
         "test_radius = 0.001\nsweep = true\nsweep_points = 0\n", "[twobody] sweep_points"),
        ("twobody", "[twobody]\nd = 2.0\ntest_model = drude\ntest_sigma = 1000\n"
         "test_radius = 0.001\nsweep = maybe\n", "[twobody] sweep"),
    ], ids=["pn_mean", "pn_n_max", "sweep_points=-1", "sweep_points=0", "sweep"])
    def test_stats_and_twobody_keys_are_checked_before_any_file(self, tmp_path, capsys,
                                                                command, section, named):
        out = tmp_path / "out"
        cfg = write(tmp_path, SPHERE_CFG + section)
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and named in err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("cfg, mode", [(DISK_CFG, "3d"), (SPHERE_CFG, "2d")],
                             ids=["disk-3d", "sphere-2d"])
    def test_twobody_mode_contradicting_geometry_exits_2(self, tmp_path, capsys, cfg, mode):
        text = cfg + (f"[twobody]\nmode = {mode}\nd = 2.0\ntest_model = drude\n"
                      "test_sigma = 1.0\ntest_radius = 0.1\n")
        out = tmp_path / "out"
        assert main(["twobody", "--config", write(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "[twobody] mode" in err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("cfg", [DISK_CFG, SPHERE_CFG], ids=["disk", "sphere"])
    def test_twobody_non_positive_test_radius_exits_2(self, tmp_path, capsys, cfg):
        # a disk used to run with test_radius = -0.01 and report about the torque of +0.01
        text = cfg + ("[twobody]\nd = 2.0\ntest_model = drude\ntest_sigma = 1.0\n"
                      "test_radius = -0.01\n")
        out = tmp_path / "out"
        assert main(["twobody", "--config", write(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: test_radius must be > 0")
        assert not any(out.iterdir())


class TestPower:
    def test_sphere_closed_form_and_exit_zero(self, tmp_path):
        cfg = write(tmp_path, SPHERE_CFG)
        assert main(["power", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "power.json").read_text())
        ref = 1e-9 / (30 * math.pi**2 * 1000.0)
        assert payload["P"] == pytest.approx(ref, rel=1e-6)
        assert payload["meta"]["generator"].startswith("spinrad")
        assert payload["flags"]["omega_R_over_c"] == pytest.approx(1e-3)

    def test_deterministic_output(self, tmp_path):
        cfg = write(tmp_path, SPHERE_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["power", "--config", cfg, "--out", str(out1), "--seed", "3"]) == 0
        assert main(["power", "--config", cfg, "--out", str(out2), "--seed", "3"]) == 0
        assert (out1 / "power.json").read_bytes() == (out2 / "power.json").read_bytes()

    def test_cylinder_power(self, tmp_path):
        cfg = write(
            tmp_path,
            "[scenario]\ngeometry = cylinder\n[material]\nmodel = drude\nsigma = 1000\n"
            "[body]\nradius = 0.001\nlength = 1.0\nomega = 1.0\n",
        )
        assert main(["power", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "power.json").read_text())
        assert payload["P"] == pytest.approx(1e-6 / (90 * math.pi**2 * 1000.0), rel=1e-5)

    @staticmethod
    def user_table_config(tmp_path, n_rows, ms, body):
        om = np.linspace(0.05, 3.0, n_rows).tolist()
        rows = ["omega,m,extra,pol,ReS,ImS"]
        for m in ms:
            S = disk_smatrix(Drude(1.0), 0.1, 1.0, np.array(om), m)
            rows += [f"{w!r},{m},,scalar,{float(s.real)!r},{float(s.imag)!r}"
                     for w, s in zip(om, S)]
        table = tmp_path / "table.csv"
        table.write_text("\n".join(rows) + "\n")
        return write(tmp_path, "[scenario]\ngeometry = user-table\n"
                     f"[body]\nomega = 1.0\n{body}table = {table}\n")

    def test_stalled_channel_is_named(self, tmp_path, capsys):
        # the interpolated flux has a kink at each of the 40 rows, and against a
        # thermal environment the m = -1 integral stalls short of its tolerance
        cfg = self.user_table_config(tmp_path, 40, (-1,), "t_object = 0.3\nt_env = 0.1\n")
        assert main(["power", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric non-convergence") and "m=-1," in err

    def test_missing_corotation_row_exits_2(self, tmp_path, capsys):
        # a thermal user table without a row at omega = Omega*m: the interpolated
        # flux does not vanish there, so N has a non-integrable pole at corotation
        cfg = self.user_table_config(tmp_path, 24, (-1, 1, 2), "t_object = 0.3\n")
        assert main(["power", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: channel m=1, extra=None, pol=scalar: ")
        assert "corotation omega = Omega*m = 1," in err and "flux factor is 3.95096e-06" in err


class TestNumericDomainFault:
    """A fault met while computing exits 4 and names the channel and omega."""

    DISK_CFG = SPHERE_CFG.replace("sphere", "disk").replace("1000.0", "1.0").replace(
        "0.001", "0.1")

    def test_resonance_exits_4(self, tmp_path, capsys, monkeypatch):
        from spinrad.errors import ResonanceError
        from spinrad.scattering import SphereTable

        def resonant(self, omega, m, extra, pol, Omega):
            raise ResonanceError(f"eps(omega={float(omega[0]):g}) at the eps = -2 plasmon pole")

        monkeypatch.setattr(SphereTable, "flux", resonant)
        cfg = write(tmp_path, SPHERE_CFG)
        assert main(["power", "--config", cfg, "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric domain fault: channel m=1,")
        assert "omega in [" in err and "plasmon pole" in err

    def test_bessel_overflow_exits_4(self, tmp_path, capsys, monkeypatch):
        from spinrad import bessel
        from spinrad.scattering import DiskTable

        def overflowing(self, omega, m, extra, pol, Omega):
            return bessel.hankel(150, 1e-3 * omega).real  # |H_150| overflows there

        monkeypatch.setattr(DiskTable, "flux", overflowing)
        cfg = write(tmp_path, self.DISK_CFG)
        assert main(["power", "--config", cfg, "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric domain fault: channel m=1,")
        assert "omega in [" in err and "H1 overflowed at order 150" in err

    def test_config_domain_error_still_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, SPHERE_CFG.replace("1000.0", "-1.0"))
        assert main(["power", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error")


class TestSpectrum:
    def test_csv_with_header_block(self, tmp_path):
        cfg = write(tmp_path, SPHERE_CFG + "\n[numerics]\nomega_points = 8\n")
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path), "--seed", "9"]) == 0
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert lines[0].startswith("# generator: spinrad")
        assert any(line.startswith("# seed: 9") for line in lines)
        header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_at] == "omega,m,extra,pol,N,dP_domega"
        assert len(lines) - header_at - 1 == 8


    @pytest.mark.parametrize(
        "body",
        [
            "[scenario]\ngeometry = disk\n[material]\nmodel = drude\nsigma = 1.0\n"
            "[body]\nradius = 0.1\nomega = 1.0\n",
            SPHERE_CFG + "t_object = 0.5\n",
            "[scenario]\ngeometry = cylinder\n[material]\nmodel = drude\nsigma = 1000\n"
            "[body]\nradius = 0.001\nlength = 1.0\nomega = 1.0\nt_object = 0.4\n",
        ],
        ids=["disk", "sphere", "cylinder"],
    )
    def test_every_numeric_cell_parses_as_float(self, tmp_path, body):
        cfg = write(tmp_path, body + "\n[numerics]\nomega_points = 12\nm_max = 2\n")
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = [l for l in (tmp_path / "spectrum.csv").read_text().splitlines()
                 if not l.startswith("#")]
        columns = lines[0].split(",")
        assert len(lines) > 12
        for line in lines[1:]:
            for name, cell in zip(columns, line.split(",")):
                if name not in ("extra", "pol"):
                    float(cell)


    def test_thermal_cylinder_spectrum_covers_both_channels(self, tmp_path):
        cfg = write(tmp_path, CYLINDER_CFG + "t_object = 0.4\n"
                    "[numerics]\nomega_points = 100\nm_max = 2\n")
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert main(["power", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = [l for l in (tmp_path / "spectrum.csv").read_text().splitlines()
                 if not l.startswith("#")][1:]
        rows = [line.split(",") for line in lines]
        P_spec = 0.0
        for m in (-1, 1):
            w, dP = np.array([(float(r[0]), float(r[5])) for r in rows if int(r[1]) == m]).T
            assert len(w) == 100
            P_spec += np.trapezoid(dP, w)
        P = json.loads((tmp_path / "power.json").read_text())["P"]
        assert P_spec == pytest.approx(P, rel=1e-3)


class TestStats:
    def test_pn_table_on_request(self, tmp_path):
        cfg = write(tmp_path, SPHERE_CFG + "\n[stats]\npn_mean = 1.0\npn_n_max = 6\n")
        assert main(["stats", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "pn.csv").read_text().splitlines()
        rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 7
        assert rows[0].split(",")[1] == repr(0.5)  # P(0) = 1/(N+1)

    def test_format_json_for_tables(self, tmp_path):
        cfg = write(tmp_path, SPHERE_CFG + "\n[numerics]\nomega_points = 4\n")
        assert main(
            ["spectrum", "--config", cfg, "--out", str(tmp_path), "--format", "json"]
        ) == 0
        payload = json.loads((tmp_path / "spectrum.json").read_text())
        assert payload["columns"][0] == "omega"
        assert len(payload["rows"]) == 4

    def test_cylinder_entropy_is_refused(self, tmp_path, capsys):
        cfg = write(tmp_path, CYLINDER_CFG + "t_object = 0.5\n")
        out = tmp_path / "out"
        assert main(["stats", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: per-mode entropy is available for disk, sphere")
        assert "k_z-integrated" in err
        assert not any(out.iterdir())

    def test_entropy_report(self, tmp_path):
        cfg = write(tmp_path, SPHERE_CFG)
        assert main(["stats", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "stats.json").read_text())
        assert payload["totalEntropyRate"] > 0
        assert payload["objectEntropyRate"] is None
        assert payload["combinedRate"] == payload["totalEntropyRate"]
        assert payload["perMode"][0]["m"] == 1

    @pytest.mark.parametrize("body", [DISK_CFG.replace("0.3", "0.1"),
                                      SPHERE_CFG + "t_object = 0.5\n"],
                             ids=["disk-T0", "sphere-thermal"])
    def test_entropy_quadrature_error_is_reported(self, tmp_path, body):
        cfg = write(tmp_path, body)
        assert main(["stats", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "stats.json").read_text())
        err = payload["entropyQuadratureError"]
        assert math.isfinite(err) and 0.0 <= err <= 1e-8 * payload["totalEntropyRate"]

    @pytest.mark.parametrize("body", [DISK_CFG.replace("0.3", "0.1"),
                                      SPHERE_CFG + "t_object = 0.5\n"],
                             ids=["disk-T0", "sphere-thermal"])
    def test_pmq_equal_power_bit_for_bit(self, tmp_path, body):
        cfg = write(tmp_path, body)
        assert main(["stats", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert main(["power", "--config", cfg, "--out", str(tmp_path)]) == 0
        stats = json.loads((tmp_path / "stats.json").read_text())
        power = json.loads((tmp_path / "power.json").read_text())
        assert [stats[k] for k in "PMQ"] == [power[k] for k in "PMQ"]


class TestRotor:
    def test_powerlaw_rotor_outputs(self, tmp_path):
        cfg = write(
            tmp_path,
            "[scenario]\ngeometry = sphere\n[material]\nmodel = drude\nsigma = 1000\n"
            "[body]\nradius = 0.001\nomega = 1.0\ninertia = 400.0\n"
            "[numerics]\nn_traj = 500\nn_record = 5\n"
            "[rotor]\nlaw = powerlaw\ncoeff = 1.0\nexponent = 5\n",
        )
        assert main(["rotor", "--config", cfg, "--out", str(tmp_path), "--seed", "5"]) == 0
        summary = json.loads((tmp_path / "rotor.json").read_text())
        assert summary["IDeltaOmega_analytic"] == pytest.approx(
            math.sqrt(400.0 / 5.0), rel=1e-6
        )
        # the default step 0.02/kappa over 30/kappa, kappa = Mbar'(W0)/I = 5/400
        assert summary["dt"] == 0.02 / (5.0 / 400.0)
        assert summary["n_steps"] == 1500
        assert summary["IDeltaOmega_mc"] == pytest.approx(
            summary["IDeltaOmega_analytic"], rel=0.15
        )
        traj = (tmp_path / "trajectories.csv").read_text().splitlines()
        data = [l for l in traj if not l.startswith("#")][1:]
        assert len(data) == 500 * 5
        stat = (tmp_path / "stationary.csv").read_text().splitlines()
        assert any(l.startswith("omega,pdf") for l in stat)

    def test_radiation_law_rotor(self, tmp_path):
        cfg = write(
            tmp_path,
            "[scenario]\ngeometry = sphere\n[material]\nmodel = drude\nsigma = 10.0\n"
            "[body]\nradius = 0.01\nomega = 1.0\ninertia = 1000.0\n"
            "[numerics]\nn_traj = 64\nn_record = 3\n",
        )
        assert main(["rotor", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "rotor.json").read_text())
        # analytic width from the memoized radiation law: sqrt(hbar I W0/5)
        assert summary["IDeltaOmega_analytic"] == pytest.approx(
            math.sqrt(1000.0 / 5.0), rel=1e-3
        )


    def test_thermal_cylinder_rotor_sees_temperature(self, tmp_path):
        base = CYLINDER_CFG.replace("omega = 1.0\n", "omega = 1.0\ninertia = 10000.0\n")
        tail = "[numerics]\nn_traj = 16\nn_record = 3\nm_max = 2\n"
        summaries = []
        for t_object in ("", "t_object = 0.4\n"):
            out = tmp_path / f"T{len(t_object)}"
            cfg = write(tmp_path, base + t_object + tail)
            assert main(["rotor", "--config", cfg, "--out", str(out)]) == 0
            summaries.append(json.loads((out / "rotor.json").read_text()))
        cold, hot = summaries
        # thermal torque noise widens the stationary distribution
        assert hot["IDeltaOmega_analytic"] > 1.2 * cold["IDeltaOmega_analytic"]

    def test_radiation_law_follows_auto_extend(self, tmp_path):
        # the m_max = 1 sum of this disk's torque is about 20% low at W = 1
        base = DISK_CFG.replace("omega = 1.0\n", "omega = 1.0\ninertia = 10000.0\n")
        tail = "[numerics]\nn_traj = 16\nn_record = 3\nm_max = 1\n"
        widths = []
        for extend in ("", "auto_extend = true\n"):
            out = tmp_path / f"extend{len(extend)}"
            cfg = write(tmp_path, base + tail + extend)
            assert main(["rotor", "--config", cfg, "--out", str(out)]) == 0
            widths.append(json.loads((out / "rotor.json").read_text())["IDeltaOmega_analytic"])
        assert widths[0] != widths[1]

    POWERLAW_CFG = ("[scenario]\ngeometry = sphere\n[material]\nmodel = drude\nsigma = 1000\n"
                    "[body]\nradius = 0.001\nomega = 1.0\ninertia = {I}\n"
                    "[numerics]\nn_traj = 16\nn_record = 3\n"
                    "[rotor]\nlaw = powerlaw\ncoeff = 1.0\nexponent = 5\n")

    def test_broad_stationary_density_at_small_inertia(self, tmp_path):
        # the W^5 density at I = 30 reaches far below omega - 16 widths
        cfg = write(tmp_path, self.POWERLAW_CFG.format(I=30.0))
        assert main(["rotor", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "rotor.json").read_text())
        assert summary["IDeltaOmega_analytic"] == pytest.approx(math.sqrt(30.0 / 5.0),
                                                                rel=1e-12)

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_exits_2_and_writes_no_file(self, tmp_path, capsys, seed):
        out = tmp_path / "out"
        cfg = write(tmp_path, self.POWERLAW_CFG.format(I=400.0))
        assert main(["rotor", "--config", cfg, "--out", str(out), "--seed", seed]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "seed" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("law", ["powerlaw", "radiation"])
    def test_seed_is_checked_before_the_law_is_built(self, tmp_path, capsys, monkeypatch,
                                                     law):
        def refused(*args, **kwargs):
            raise AssertionError("the torque law was built before the seed was checked")

        monkeypatch.setattr(cli.TorqueLaw, "power_law", refused)
        monkeypatch.setattr(cli, "torque_law_from_radiation", refused)
        with pytest.raises(DomainError) as ensemble:
            simulate_ensemble(None, I=1.0, omega0=1.0, t_total=1.0, dt=0.1, n_traj=1, seed=-1)
        cfg = self.POWERLAW_CFG.format(I=400.0)
        if law == "radiation":
            cfg = cfg.replace("law = powerlaw", "law = radiation")
        out = tmp_path / "out"
        assert main(["rotor", "--config", write(tmp_path, cfg), "--out", str(out),
                     "--seed", "-1"]) == 2
        assert capsys.readouterr().err == f"config error: {ensemble.value}\n"
        assert list(out.iterdir()) == []

    def test_dt_and_n_steps_are_the_configured_ones(self, tmp_path):
        cfg = write(tmp_path, self.POWERLAW_CFG.format(I=400.0).replace(
            "n_record = 3\n", "n_record = 3\ndt = 0.5\nt_total = 100.25\n"))
        assert main(["rotor", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "rotor.json").read_text())
        assert (summary["dt"], summary["n_steps"]) == (0.5, 200)  # 200.5 steps round to even

    def test_stationary_density_fault_writes_no_file(self, tmp_path, capsys, monkeypatch):
        def stalled(*args):
            raise ConvergenceError("stationary-density quadrature did not reach 1e-8")

        monkeypatch.setattr(cli, "fokker_planck_stationary", stalled)
        out = tmp_path / "out"
        cfg = write(tmp_path, self.POWERLAW_CFG.format(I=400.0))
        assert main(["rotor", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("numeric non-convergence")
        assert list(out.iterdir()) == []


class TestTwoBody:
    def test_torque_force_and_sweep(self, tmp_path):
        cfg = write(
            tmp_path,
            "[scenario]\ngeometry = sphere\n[material]\nmodel = drude\nsigma = 1000\n"
            "[body]\nradius = 0.001\nomega = 1.0\n"
            "[twobody]\nd = 2.0\ntest_model = drude\ntest_sigma = 1000\n"
            "test_radius = 0.001\nsweep = true\nsweep_points = 4\n",
        )
        assert main(["twobody", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "twobody.json").read_text())
        pref = (8 / (9 * math.pi * 4.0)) * (3e-9 / (4 * math.pi * 1e3)) ** 2
        assert payload["M_transfer"] == pytest.approx(pref / 42.0, rel=1e-6)
        assert payload["F_y"] > 0
        sweep = (tmp_path / "twobody_sweep.csv").read_text().splitlines()
        rows = [l for l in sweep if not l.startswith("#")][1:]
        assert len(rows) == 4


class TestUnitsMode:
    def test_si_power_matches_hand_conversion(self, tmp_path):
        # hand-converted dimensional oracle for the Drude sphere in SI
        R_si, Omega_si, sigma_si = 1e-6, 2.0e9, 1.0e3  # m, rad/s, S/m
        cfg = write(
            tmp_path,
            "[scenario]\ngeometry = sphere\nunits = si\n"
            f"[material]\nmodel = drude\nsigma = {sigma_si}\n"
            f"[body]\nradius = {R_si}\nomega = {Omega_si}\n",
        )
        assert main(["power", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "power.json").read_text())
        sigma_gauss = sigma_si / (4 * math.pi * epsilon_0)  # 1/s
        P_ref = HBAR_SI * R_si**3 * Omega_si**6 / (30 * math.pi**2 * C_SI**3 * sigma_gauss)
        assert payload["si"]["P_W"] == pytest.approx(P_ref, rel=1e-6)
        M_ref = HBAR_SI * R_si**3 * Omega_si**5 / (20 * math.pi**2 * C_SI**3 * sigma_gauss)
        assert payload["si"]["M_Nm"] == pytest.approx(M_ref, rel=1e-6)

    def test_si_rotor_converts_omega_hi_dt_and_t_total(self, tmp_path):
        # omega_hi in rad/s, dt and t_total in s: the run equals the natural-unit
        # run with the converted values, bit for bit
        Omega_si, sigma_si, R_si, I_si = 2.0e9, 2.2, 1.5e-3, 5.3e-41
        hi_si, dt_si, t_total_si = 3.0e9, 0.4, 8.0
        u = UnitSystem.from_omega_si(Omega_si)
        numerics = "[numerics]\nn_traj = 16\nn_record = 3\nm_max = 2\n"
        runs = {
            "si": (f"[scenario]\ngeometry = sphere\nunits = si\n"
                   f"[material]\nmodel = drude\nsigma = {sigma_si!r}\n"
                   f"[body]\nradius = {R_si!r}\nomega = {Omega_si!r}\ninertia = {I_si!r}\n"
                   f"{numerics}dt = {dt_si!r}\nt_total = {t_total_si!r}\n"
                   f"[rotor]\nomega_hi = {hi_si!r}\n"),
            "natural": (f"[scenario]\ngeometry = sphere\n[material]\nmodel = drude\n"
                        f"sigma = {u.conductivity(si_conductivity_to_gaussian(sigma_si))!r}\n"
                        f"[body]\nradius = {u.length(R_si)!r}\nomega = 1.0\n"
                        f"inertia = {u.inertia(I_si)!r}\n"
                        f"{numerics}dt = {u.time(dt_si)!r}\nt_total = {u.time(t_total_si)!r}\n"
                        f"[rotor]\nomega_hi = {u.frequency(hi_si)!r}\n"),
        }
        outputs = {}
        for name, text in runs.items():
            out = tmp_path / name
            cfg = write(tmp_path, text, f"{name}.ini")
            assert main(["rotor", "--config", cfg, "--out", str(out)]) == 0
            summary = json.loads((out / "rotor.json").read_text())
            del summary["meta"]  # the config hash
            summary.pop("si", None)
            tables = [[l for l in (out / f"{stem}.csv").read_text().splitlines()
                       if not l.startswith("#")] for stem in ("trajectories", "stationary")]
            outputs[name] = summary, tables
        assert len(outputs["si"][1][0]) == 1 + 16 * 3
        # 20 steps of the converted dt, recorded at the start, midway and the end
        assert outputs["si"][1][0][-1].startswith(f"{20 * u.time(dt_si)!r},")
        assert outputs["si"] == outputs["natural"]

    def test_si_powerlaw_rotor_converts_coeff(self, tmp_path):
        # coeff in N m (rad/s)^-exponent: the run equals the natural-unit run with
        # the converted coeff, bit for bit; var and I*dW gain SI values
        Omega_si, sigma_si, R_si, I_si, coeff_si = 2.0e9, 2.2, 1.5e-3, 5.3e-41, 1.3e-71
        u = UnitSystem.from_omega_si(Omega_si)
        coeff = u.torque(coeff_si) * u.frequency_si(1.0) ** 5
        assert coeff == pytest.approx(coeff_si * u.time_unit_s**-4 / HBAR_SI, rel=1e-14)
        tail = "[numerics]\nn_traj = 16\nn_record = 3\n[rotor]\nlaw = powerlaw\nexponent = 5\n"
        runs = {
            "si": (f"[scenario]\ngeometry = sphere\nunits = si\n"
                   f"[material]\nmodel = drude\nsigma = {sigma_si!r}\n"
                   f"[body]\nradius = {R_si!r}\nomega = {Omega_si!r}\ninertia = {I_si!r}\n"
                   f"{tail}coeff = {coeff_si!r}\n"),
            "natural": (f"[scenario]\ngeometry = sphere\n[material]\nmodel = drude\n"
                        f"sigma = {u.conductivity(si_conductivity_to_gaussian(sigma_si))!r}\n"
                        f"[body]\nradius = {u.length(R_si)!r}\nomega = 1.0\n"
                        f"inertia = {u.inertia(I_si)!r}\n{tail}coeff = {coeff!r}\n"),
        }
        outputs, si_blocks = {}, {}
        for name, text in runs.items():
            out = tmp_path / name
            cfg = write(tmp_path, text, f"{name}.ini")
            assert main(["rotor", "--config", cfg, "--out", str(out)]) == 0
            summary = json.loads((out / "rotor.json").read_text())
            del summary["meta"]
            si_blocks[name] = summary.pop("si", None)
            tables = [[l for l in (out / f"{stem}.csv").read_text().splitlines()
                       if not l.startswith("#")] for stem in ("trajectories", "stationary")]
            outputs[name] = summary, tables
        assert outputs["si"] == outputs["natural"]
        summary, si = outputs["si"][0], si_blocks["si"]
        assert si["var_rad2_per_s2"] == pytest.approx(summary["var"] * Omega_si**2, rel=1e-14)
        assert si["IDeltaOmega_mc_Js"] == summary["IDeltaOmega_mc"] * HBAR_SI
        # the W^5 width sqrt(I W0 / 5) (hbar = 1) is sqrt(hbar I Omega / 5) in SI
        assert si["IDeltaOmega_analytic_Js"] == pytest.approx(
            math.sqrt(HBAR_SI * I_si * Omega_si / 5.0), rel=1e-9)

    OMEGA_SI = 2.0e9  # rad/s, the unit anchor of the SI twins below

    def _twins(self, tmp_path, command, runs):
        """Run the "si" and "natural" configs of ``runs``; return their JSON outputs."""
        outputs = {}
        for name, text in runs.items():
            out = tmp_path / name
            cfg = write(tmp_path, text, f"{name}.ini")
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
            outputs[name] = json.loads((out / f"{command}.json").read_text())
        return outputs["si"], outputs["natural"]

    @pytest.mark.parametrize("command", ["power", "stats"])
    def test_si_channel_table_omega_column_in_rad_per_s(self, tmp_path, command):
        om = np.linspace(0.05, 3.0, 24)
        for name, scale in (("natural", 1.0), ("si", self.OMEGA_SI)):
            rows = ["omega,m,extra,pol,ReS,ImS"]
            for m in (-1, 1, 2):
                S = disk_smatrix(Drude(1.0), 0.1, 1.0, om, m)
                rows += [f"{w * scale!r},{m},,scalar,{float(z.real)!r},{float(z.imag)!r}"
                         for w, z in zip(om.tolist(), S)]
            (tmp_path / f"{name}.csv").write_text("\n".join(rows) + "\n")
        body = ("[scenario]\ngeometry = user-table\n{units}"
                "[body]\nomega = {omega!r}\ntable = {path}\n")
        si, natural = self._twins(tmp_path, command, {
            "si": body.format(units="units = si\n", omega=self.OMEGA_SI,
                              path=tmp_path / "si.csv"),
            "natural": body.format(units="", omega=1.0, path=tmp_path / "natural.csv"),
        })
        assert natural["P"] > 0
        for key in "PMQ":
            assert si[key] == pytest.approx(natural[key], rel=1e-10)

    def _kz_table(self, path, scale, kz_scale, kzs=(0.0, 0.2)):
        """A disk-S-matrix table with k_z-labelled channels, omega and k_z rescaled."""
        om = np.linspace(0.3, 3.0, 16)
        rows = ["omega,m,extra,pol,ReS,ImS"]
        for kz in kzs:
            S = disk_smatrix(Drude(1.0), 0.1, 1.0, om, 1)
            rows += [f"{w * scale!r},1,{kz * kz_scale!r},E,{float(z.real)!r},{float(z.imag)!r}"
                     for w, z in zip(om.tolist(), S)]
        path.write_text("\n".join(rows) + "\n")

    KZ_BODY = "[scenario]\ngeometry = user-table\n{units}[body]\nomega = {omega!r}\ntable = {path}\n"

    def test_si_kz_table_matches_natural_twin(self, tmp_path):
        # omega in rad/s and k_z in rad/m: k_z natural = k_z SI * c / Omega_SI
        self._kz_table(tmp_path / "natural.csv", 1.0, 1.0)
        self._kz_table(tmp_path / "si.csv", self.OMEGA_SI, self.OMEGA_SI / C_SI)
        si, natural = self._twins(tmp_path, "power", {
            "si": self.KZ_BODY.format(units="units = si\n", omega=self.OMEGA_SI,
                                      path=tmp_path / "si.csv"),
            "natural": self.KZ_BODY.format(units="", omega=1.0, path=tmp_path / "natural.csv"),
        })
        assert natural["P"] > 0 and len(natural["per_mode"]) == 2
        for key in "PMQ":
            assert si[key] == pytest.approx(natural[key], rel=1e-10)
        for a, b in zip(si["per_mode"], natural["per_mode"]):
            assert a["extra"] == pytest.approx(b["extra"], rel=1e-12)

    @pytest.mark.parametrize("units", ["natural", "si"])
    def test_evanescent_kz_row_exits_2(self, tmp_path, capsys, units):
        # |k_z| = 0.31 > omega = 0.3 on the first row; in SI |k_z| c > omega there
        scale, kz_scale, omega = ((1.0, 1.0, 1.0) if units == "natural"
                                  else (self.OMEGA_SI, self.OMEGA_SI / C_SI, self.OMEGA_SI))
        self._kz_table(tmp_path / "t.csv", scale, kz_scale, kzs=(0.31,))
        cfg = write(tmp_path, self.KZ_BODY.format(
            units="units = si\n" if units == "si" else "", omega=omega, path=tmp_path / "t.csv"))
        assert main(["power", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "row 2: |k_z|=0.31 exceeds omega=0.3" in err

    def test_si_tabulated_epsilon_omega_column_in_rad_per_s(self, tmp_path):
        u = UnitSystem.from_omega_si(self.OMEGA_SI)
        R_si = 1e-3
        for name, scale in (("natural", 1.0), ("si", self.OMEGA_SI)):
            rows = ["omega,eps_re,eps_im"]
            rows += [f"{w * scale!r},4.0,1.0" for w in np.geomspace(1e-9, 1e4, 14).tolist()]
            (tmp_path / f"{name}.csv").write_text("\n".join(rows) + "\n")
        body = ("[scenario]\ngeometry = sphere\n{units}"
                "[material]\nmodel = tabulated\npath = {path}\n"
                "[body]\nradius = {radius!r}\nomega = {omega!r}\n")
        si, natural = self._twins(tmp_path, "power", {
            "si": body.format(units="units = si\n", path=tmp_path / "si.csv", radius=R_si,
                              omega=self.OMEGA_SI),
            "natural": body.format(units="", path=tmp_path / "natural.csv",
                                   radius=u.length(R_si), omega=1.0),
        })
        assert natural["P"] > 0
        for key in "PMQ":
            assert si[key] == pytest.approx(natural[key], rel=1e-10)

    def test_si_twobody_matches_natural_twin(self, tmp_path):
        # d and test_radius in m; M_transfer in N m and F_y in N
        u = UnitSystem.from_omega_si(self.OMEGA_SI)
        R_si, sigma_si, d_si = 1.5e-4, 222.0, 0.3
        sigma = u.conductivity(si_conductivity_to_gaussian(sigma_si))
        body = ("[scenario]\ngeometry = sphere\n{units}[material]\nmodel = drude\n"
                "sigma = {sigma!r}\n[body]\nradius = {R!r}\nomega = {omega!r}\n"
                "[twobody]\nd = {d!r}\ntest_model = drude\ntest_sigma = {sigma!r}\n"
                "test_radius = {R!r}\n")
        si, natural = self._twins(tmp_path, "twobody", {
            "si": body.format(units="units = si\n", sigma=sigma_si, R=R_si, d=d_si,
                              omega=self.OMEGA_SI),
            "natural": body.format(units="", sigma=sigma, R=u.length(R_si), d=u.length(d_si),
                                   omega=1.0),
        })
        assert natural["M_transfer"] > 0 and natural["F_y"] > 0
        assert si["d"] == pytest.approx(natural["d"], rel=1e-12)
        assert si["si"]["M_transfer_Nm"] == pytest.approx(
            natural["M_transfer"] * HBAR_SI * self.OMEGA_SI, rel=1e-12)
        assert si["si"]["F_y_N"] == pytest.approx(
            natural["F_y"] * HBAR_SI * self.OMEGA_SI**2 / C_SI, rel=1e-12)

    def test_si_thermal_stats_matches_natural_twin(self, tmp_path):
        # t_object in K; the entropy rate in W/K
        u = UnitSystem.from_omega_si(self.OMEGA_SI)
        R_si, sigma_si, T_si = 1.5e-4, 222.0, 7.6e-3
        body = ("[scenario]\ngeometry = sphere\n{units}[material]\nmodel = drude\n"
                "sigma = {sigma!r}\n[body]\nradius = {R!r}\nomega = {omega!r}\n"
                "t_object = {T!r}\n[numerics]\nm_max = 2\n")
        si, natural = self._twins(tmp_path, "stats", {
            "si": body.format(units="units = si\n", sigma=sigma_si, R=R_si, T=T_si,
                              omega=self.OMEGA_SI),
            "natural": body.format(units="",
                                   sigma=u.conductivity(si_conductivity_to_gaussian(sigma_si)),
                                   R=u.length(R_si), T=u.temperature(T_si), omega=1.0),
        })
        assert natural["totalEntropyRate"] > 0 and natural["objectEntropyRate"] is not None
        assert si["si"]["S_W_per_K"] == pytest.approx(
            natural["totalEntropyRate"] * KB_SI * self.OMEGA_SI, rel=1e-12)


class TestVerify:
    def test_verify_prints_table_and_flags_known_failure(self, capsys):
        code = main(["verify"])
        out = capsys.readouterr().out
        assert "[PASS]  1. Drude-sphere closed forms" in out
        assert "[FAIL]  3. Drude-cylinder sigma<<Omega" in out
        assert "criteria passed" in out
        # the known-red criterion makes verify exit nonzero, honestly
        assert code == 1
