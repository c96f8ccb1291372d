"""No run of the package loads scipy or numpy.ma.

specfun's E1, Ei and lnGamma are pure-Python kernels, and the credible band
takes its quantiles by partition instead of np.quantile (whose np.unique
imports numpy.ma), so importing the package, the binless and binned samplers
with fixed or random beta, chain I/O, the band and `gammasub diagnose` load
no scipy or numpy.ma module.  Each check runs in a fresh interpreter.
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


def unwanted_modules_after(code: str) -> list[str]:
    """The scipy and numpy.ma modules a fresh interpreter has loaded after running code."""
    code = textwrap.dedent(code) + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "                        or m.split('.')[:2] == ['numpy', 'ma'])))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("module", ["gammasub", "gammasub.cli"])
def test_import_loads_no_scipy(module):
    assert unwanted_modules_after(f"import {module}") == []


def test_binless_fixed_beta_run_io_and_band_load_no_scipy():
    assert unwanted_modules_after("""
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
    argv = ["diagnose", "--chain", str(out / "chain.csv"), "--out-dir", str(tmp_path / "figs")]
    assert unwanted_modules_after(f"""
        from gammasub.cli import main
        assert main({argv!r}) == 0
        """) == []
    assert (tmp_path / "figs" / "band.csv").exists()


def test_binned_fits_beta_moves_ei_bins_and_diagnose_load_no_scipy(tmp_path):
    obs_csv, out = tmp_path / "obs.csv", tmp_path / "random"
    fixed_cfg, random_cfg = tmp_path / "fixed.cfg", tmp_path / "random.cfg"
    main(["simulate", "--horizon", "20", "--n", "40", "--seed", "2", "--out", str(obs_csv)])
    fixed_cfg.write_text(BINNED_CONFIG)
    random_cfg.write_text(BINNED_CONFIG + "beta_prior = uniform 0.05 20\n"
                          "update_schedule = beta params\n")
    fit = ["fit", "--observations", str(obs_csv), "--iterations", "60", "--seed", "1"]
    diagnose = ["diagnose", "--chain", str(out / "chain.csv"), "--out-dir", str(tmp_path / "figs")]
    assert unwanted_modules_after(f"""
        import json
        from gammasub.cli import main
        from gammasub.model import mass_factors

        assert main({fit!r} + ["--config", {str(fixed_cfg)!r},
                               "--out-dir", {str(tmp_path / "fixed")!r}]) == 0
        assert main({fit!r} + ["--config", {str(random_cfg)!r}, "--out-dir", {str(out)!r}]) == 0
        meta = json.loads(open({str(out / "meta.json")!r}).read())
        assert meta["acceptance"]["beta_rate"] is not None
        # an interior bin with slope + alpha < 0 takes its mass from Ei
        assert mass_factors(1.0, (-1.5, 0.0), (1.0, 2.0))[1][0] > 0
        assert main({diagnose!r}) == 0
        """) == []
    assert (tmp_path / "figs" / "band.csv").exists()
