"""Importing the package loads no scipy subpackage that the sampler never runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gammasub

SRC = str(Path(gammasub.__file__).resolve().parent.parent)
UNUSED = ("scipy.integrate", "scipy.optimize")


@pytest.mark.parametrize("module", ["gammasub", "gammasub.cli"])
def test_import_loads_no_quadrature_or_optimizer(module):
    code = (f"import sys, {module}\n"
            f"print(sorted(m for m in sys.modules if m.startswith({UNUSED!r})))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
