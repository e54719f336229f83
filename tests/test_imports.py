"""Imports: the package loads scipy only when an operation needs it, and one engine integrates.

``scipy.special`` (the disk's AMOS Bessel functions) is the only scipy module
any operation loads; the rotor layer's PCHIP and Simpson rules are in-repo.
Each case runs in a fresh interpreter and lists the scipy modules it loaded.

Every output is a weight over one channel-integration engine, so only
``radiation.py`` may import the quadrature module; the source is parsed,
not run.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import spinrad

# the directory that holds the spinrad package under test
SRC = str(Path(spinrad.__file__).resolve().parents[1])

ROTOR_CFG = """
[scenario]
geometry = {geometry}
[material]
model = drude
sigma = {sigma}
[body]
radius = {radius}
omega = 1.0
inertia = 10000.0
[numerics]
n_traj = 16
n_record = 3
m_max = 1
{rotor}
"""


def scipy_modules(code, tmp_path=None):
    """The scipy modules a fresh interpreter has loaded after running `code`."""
    code = textwrap.dedent(code) + (
        "\nimport sys\n"
        "print('scipy:' + ','.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env,
        cwd=tmp_path,
    )
    last = out.stdout.splitlines()[-1]
    assert last.startswith("scipy:")
    return set(last[len("scipy:"):].split(",")) - {""}


def run_rotor(tmp_path, geometry, sigma, radius, rotor=""):
    cfg = tmp_path / "rotor.ini"
    cfg.write_text(ROTOR_CFG.format(geometry=geometry, sigma=sigma, radius=radius, rotor=rotor))
    return scipy_modules(f"""
        from spinrad import cli
        assert cli.main(["rotor", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "out")!r}]) == 0
    """, tmp_path)


@pytest.mark.parametrize("module", ["spinrad", "spinrad.cli"])
def test_import_loads_no_scipy(module):
    assert scipy_modules(f"import {module}") == set()


def test_sphere_radiation_rotor_loads_no_scipy(tmp_path):
    assert run_rotor(tmp_path, "sphere", 10.0, 0.01) == set()


def test_power_law_rotor_loads_no_scipy(tmp_path):
    rotor = "[rotor]\nlaw = powerlaw\ncoeff = 1.0\nexponent = 5"
    assert run_rotor(tmp_path, "sphere", 10.0, 0.01, rotor) == set()


def test_disk_rotor_loads_only_scipy_special(tmp_path):
    loaded = run_rotor(tmp_path, "disk", 1.0, 0.1)
    assert "scipy.special" in loaded
    assert not any(m.startswith(("scipy.interpolate", "scipy.integrate")) for m in loaded)


def test_library_ensemble_and_stationary_law_load_no_scipy():
    assert scipy_modules("""
        from spinrad import TorqueLaw, fokker_planck_stationary, simulate_ensemble, uncertainty
        law = TorqueLaw.power_law(1.0, 5)
        ens = simulate_ensemble(law, I=1e4, omega0=1.0, t_total=200.0, dt=20.0, n_traj=8,
                                seed=1, drive_at=1.0)
        dist = fokker_planck_stationary(law, 1.0, 1e4)
        assert dist.mean() > 0 and dist.std() > 0 and uncertainty(law, 1.0, 1e4) > 0
    """) == set()


def imports_quadrature(source):
    """Whether module source of the spinrad package imports spinrad.quadrature, in any form."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level <= 1:
            # "from . import x" and "from .x import y" resolve against the package itself
            base = ".".join(filter(None, ["spinrad" if node.level else None, node.module]))
            modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if "spinrad.quadrature" in modules:
            return True
    return False


@pytest.mark.parametrize("source, expected", [
    ("from .quadrature import adaptive_integral", True),
    ("from . import bessel, quadrature", True),
    ("from spinrad.quadrature import BATCH_PANELS", True),
    ("import spinrad.quadrature as q", True),
    ("from spinrad import quadrature", True),
    ("from .radiation import run_jobs", False),
    ("from .. import quadrature", False),
], ids=["relative", "relative-package", "absolute", "import", "absolute-package",
        "other-module", "outside-package"])
def test_the_structure_guard_sees_every_import_form(source, expected):
    assert imports_quadrature(source) == expected


def test_only_radiation_imports_the_quadrature_engine():
    package = Path(SRC) / "spinrad"
    importers = [path.name for path in sorted(package.glob("*.py"))
                 if imports_quadrature(path.read_text())]
    assert importers == ["radiation.py"]
