"""scipy is loaded only where a special function is evaluated.

specfun imports scipy.special at the first E1, Ei or lnGamma call, so the
package, the binless fixed-beta sampler, chain I/O and `gammasub diagnose`
never load scipy, and a binned chain loads it while it is set up.  Each
check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import gammasub
from gammasub.cli import main

SRC = str(Path(gammasub.__file__).resolve().parent.parent)

BINNED_CONFIG = """\
bin_edges = 1 2
alpha_init = 1.0
beta_init = 0.44
alpha_prior = gamma 2 1
theta_prior = normal 0 1
rho_prior = normal 0 1.5
refinement = 4
"""


def scipy_modules_after(code: str) -> list[str]:
    """The scipy modules a fresh interpreter has loaded after running code."""
    code = textwrap.dedent(code) + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("module", ["gammasub", "gammasub.cli"])
def test_import_loads_no_scipy(module):
    assert scipy_modules_after(f"import {module}") == []


def test_binless_fixed_beta_run_io_and_band_load_no_scipy():
    assert scipy_modules_after("""
        import io
        import numpy as np
        import gammasub as g
        from gammasub.mcmc import read_chain_csv, write_chain_csv

        rng = np.random.default_rng(3)
        obs = g.Observations.from_increments(np.arange(41.0), rng.gamma(1.0, 0.5, size=40))
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0))
        records = list(g.run_mcmc(obs, g.ModelParams(1.0, 1.0), prior,
                                  g.ProposalSpec(sigma_alpha=0.1), iterations=200, seed=5, m=4))
        buf = io.StringIO()
        write_chain_csv(records, buf, 0)
        buf.seek(0)
        back = read_chain_csv(buf)
        g.credible_band([r.to_params(()) for r in back],
                        g.BandSpec(x_grid=np.linspace(0.1, 5.0, 20), level=0.9,
                                   functional="theta_plus_alpha_x"))
        """) == []


def test_diagnose_of_a_binned_chain_loads_no_scipy(tmp_path):
    obs_csv, cfg, out = tmp_path / "obs.csv", tmp_path / "binned.cfg", tmp_path / "run"
    main(["simulate", "--horizon", "20", "--n", "40", "--seed", "2", "--out", str(obs_csv)])
    cfg.write_text(BINNED_CONFIG)
    assert main(["fit", "--config", str(cfg), "--observations", str(obs_csv),
                 "--iterations", "50", "--seed", "1", "--out-dir", str(out)]) == 0
    argv = ["diagnose", "--chain", str(out / "chain.csv"), "--config", str(cfg),
            "--out-dir", str(tmp_path / "figs")]
    assert scipy_modules_after(f"""
        from gammasub.cli import main
        assert main({argv!r}) == 0
        """) == []
    assert (tmp_path / "figs" / "band.csv").exists()


def test_binned_init_chain_loads_scipy_special_during_set_up():
    loaded = scipy_modules_after("""
        import sys
        import numpy as np
        import gammasub as g

        obs = g.Observations.from_increments(np.arange(11.0), np.linspace(0.2, 3.0, 10))
        params = g.ModelParams(1.0, 0.5, [1.0, 2.0], [0.0, 0.0], [0.0, 0.0])
        assert "scipy.special" not in sys.modules
        g.init_chain(obs, params, g.TimeGrid(obs.times, 4), 1)
        """)
    assert "scipy.special" in loaded
