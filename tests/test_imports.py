"""Import cost: the package loads scipy only when an operation needs it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinrad

# the directory that holds the spinrad package under test
SRC = str(Path(spinrad.__file__).resolve().parents[1])


@pytest.mark.parametrize("module", ["spinrad", "spinrad.cli"])
def test_import_loads_no_scipy(module):
    code = (
        f"import sys, {module}\n"
        "print(','.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == ""
