"""Config parsing and the batch CLI round trip."""

import json
import math
from pathlib import Path

import pytest

from gammasub import ConfigError
from gammasub.cli import main
from gammasub.config import parse_config

BASIC_CONFIG = """
# binless activity-fixed model
alpha_init = 1.0
beta_init = 1.0
alpha_prior = gamma 2 1
sigma_alpha = 0.1
refinement = 4
"""

BINNED_CONFIG = """
bin_edges = 1 2 4
alpha_init = 1.0
beta_init = 0.44
theta_init = 0 0 0
rho_init = 0 0 0
alpha_prior = gamma 2 1
beta_prior = uniform 0.1 1000
theta_prior = normal 0 3.1622776601683795
rho_prior = normal 0 7.0710678118654755
sigma_alpha = 0.025
sigma_theta = 0.025
sigma_rho = 0.15
sigma_beta = 0.01
update_schedule = beta params params params params
refinement = 10
"""


def with_value(config: str, key: str, value: str) -> str:
    """config with the line of key set to value."""
    return "\n".join(f"{key} = {value}" if line.split("=")[0].strip() == key else line
                     for line in config.splitlines())


class TestParseConfig:
    def test_basic(self):
        cfg = parse_config(BASIC_CONFIG)
        assert cfg.params0.alpha == 1.0
        assert cfg.params0.n_bins == 0
        assert cfg.prior.beta is None
        assert cfg.refinement == 4

    def test_binned(self):
        cfg = parse_config(BINNED_CONFIG)
        assert cfg.params0.bin_edges == pytest.approx([1.0, 2.0, 4.0])
        assert cfg.prior.beta is not None
        assert len(cfg.prior.theta) == 3
        assert cfg.proposal.sigma_rho == 0.15
        assert cfg.proposal.update_schedule == ("beta", "params", "params", "params", "params")

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config("alpha_init = 1\nalpha_prior = gamma 2 1\nwibble = 3\n")

    def test_missing_init(self):
        with pytest.raises(ConfigError):
            parse_config("alpha_prior = gamma 2 1\n")

    def test_missing_bin_priors(self):
        with pytest.raises(ConfigError):
            parse_config("bin_edges = 1\nalpha_init = 1\nalpha_prior = gamma 2 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config("alpha_init = 1\nalpha_init = 2\nalpha_prior = gamma 2 1\n")

    def test_bad_prior_spec(self):
        with pytest.raises(ConfigError):
            parse_config("alpha_init = 1\nalpha_prior = gamma 2\n")

    @pytest.mark.parametrize("key, value", [
        ("alpha_init", "abc"),
        ("beta_init", "1..0"),
        ("refinement", "2.5"),
        ("sigma_alpha", "x"),
        ("sigma_beta", ""),
        ("bin_edges", "1 x 4"),
        ("theta_init", "0 0 zero"),
    ])
    def test_malformed_number_names_the_key(self, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config(with_value(BINNED_CONFIG, key, value))
        assert str(err.value).startswith(f"{key}: expected ")

    def test_proposal_defaults_are_proposal_specs(self):
        from gammasub.mcmc import ProposalSpec
        assert parse_config(BASIC_CONFIG).proposal == ProposalSpec(sigma_alpha=0.1)

    def test_comments_and_echo(self):
        cfg = parse_config(BASIC_CONFIG)
        assert cfg.echo()["alpha_prior"] == "gamma 2 1"


class TestCliRoundTrip:
    def write_config(self, tmp_path: Path) -> Path:
        cfg = tmp_path / "model.cfg"
        cfg.write_text(BASIC_CONFIG)
        return cfg

    def test_simulate_fit_diagnose(self, tmp_path):
        obs_csv = tmp_path / "obs.csv"
        rc = main(["simulate", "--a1", "2.0", "--b1", "0.4", "--a2", "0.2",
                   "--b2", "0.04", "--horizon", "20", "--n", "50",
                   "--seed", "3", "--out", str(obs_csv)])
        assert rc == 0
        truth = json.loads((tmp_path / "obs.truth.json").read_text())
        assert truth["alpha_bar"] == pytest.approx(1.8363636363636364)

        cfg = self.write_config(tmp_path)
        out_dir = tmp_path / "run"
        rc = main(["fit", "--config", str(cfg), "--observations", str(obs_csv),
                   "--iterations", "200", "--burn-in", "50", "--seed", "11",
                   "--out-dir", str(out_dir)])
        assert rc == 0
        chain = (out_dir / "chain.csv").read_text()
        assert chain.splitlines()[0].startswith("iteration,alpha,beta")
        assert len(chain.splitlines()) == 151
        meta = json.loads((out_dir / "meta.json").read_text())
        assert meta["n_records"] == 150
        assert meta["config"]["seed"] == "11"
        # a binless model has no segment that a sweep redraws, so no rate over them
        assert meta["segments"] == {"total": 50, "refreshed": 0, "refreshed_accept_rate": None}

        fig_dir = tmp_path / "figs"
        rc = main(["diagnose", "--chain", str(out_dir / "chain.csv"),
                   "--config", str(cfg), "--out-dir", str(fig_dir),
                   "--x-min", "0.5", "--x-max", "4.0", "--x-points", "8"])
        assert rc == 0
        assert (fig_dir / "trace_alpha.csv").exists()
        assert (fig_dir / "trace_alpha.svg").exists()
        assert (fig_dir / "hist_alpha.csv").exists()
        assert (fig_dir / "band.csv").exists()
        assert (fig_dir / "band.svg").exists()
        for bound in ("--x-min", "--x-max"):
            rc = main(["diagnose", "--chain", str(out_dir / "chain.csv"),
                       "--config", str(cfg), "--out-dir", str(tmp_path / bound),
                       "--figures", "band", bound, "nan"])
            assert rc == 2
            assert not (tmp_path / bound / "band.csv").exists()

    def test_fit_determinism(self, tmp_path):
        obs_csv = tmp_path / "obs.csv"
        main(["simulate", "--horizon", "10", "--n", "20", "--seed", "1",
              "--out", str(obs_csv)])
        cfg = self.write_config(tmp_path)
        chains = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["fit", "--config", str(cfg), "--observations", str(obs_csv),
                  "--iterations", "100", "--seed", "7", "--out-dir", str(out)])
            chains.append((out / "chain.csv").read_bytes())
        assert chains[0] == chains[1]

    def test_fit_reports_refreshed_segments(self, tmp_path):
        obs_csv = tmp_path / "obs.csv"
        main(["simulate", "--horizon", "40", "--n", "100", "--seed", "5",
              "--out", str(obs_csv)])
        cfg = tmp_path / "binned.cfg"
        cfg.write_text(BINNED_CONFIG)
        out = tmp_path / "run"
        rc = main(["fit", "--config", str(cfg), "--observations", str(obs_csv),
                   "--iterations", "200", "--seed", "7", "--out-dir", str(out)])
        assert rc == 0
        from gammasub.data import read_observations_csv
        from gammasub.mcmc import read_chain_csv
        deltas = read_observations_csv(obs_csv).increments
        meta = json.loads((out / "meta.json").read_text())
        segments = meta["segments"]
        # the segments whose increment reaches the first bin edge, 1
        assert (segments["total"], segments["refreshed"]) == (100, int((deltas >= 1.0).sum()))
        n_active = segments["refreshed"]
        assert 0 < n_active < 100
        # inert segments are always accepted: count the rejections among the refreshed ones
        with open(out / "chain.csv") as fh:
            records = read_chain_csv(fh)
        rates = [(n_active - (100 - round(r.accept_path_rate * 100))) / n_active for r in records]
        rate = segments["refreshed_accept_rate"]
        assert rate == pytest.approx(sum(rates) / len(rates), rel=1e-12)
        assert 0.0 <= rate < meta["acceptance"]["path_refresh_mean_rate"] <= 1.0

    def test_fit_reports_domain_rejects(self, tmp_path):
        obs_csv = tmp_path / "obs.csv"
        main(["simulate", "--horizon", "40", "--n", "100", "--seed", "5",
              "--out", str(obs_csv)])
        # tight uniform priors and wide steps: many candidates leave the support
        text = (BINNED_CONFIG.replace("alpha_prior = gamma 2 1", "alpha_prior = uniform 0.9 1.1")
                .replace("beta_prior = uniform 0.1 1000", "beta_prior = uniform 0.4 0.5")
                .replace("sigma_alpha = 0.025", "sigma_alpha = 0.1")
                .replace("sigma_beta = 0.01", "sigma_beta = 0.05")
                .replace("update_schedule = beta params params params params",
                         "update_schedule = beta params"))
        cfg = tmp_path / "tight.cfg"
        cfg.write_text(text)
        out = tmp_path / "run"
        rc = main(["fit", "--config", str(cfg), "--observations", str(obs_csv),
                   "--iterations", "300", "--burn-in", "0", "--seed", "3",
                   "--out-dir", str(out)])
        assert rc == 0
        from gammasub.mcmc import read_chain_csv
        with open(out / "chain.csv") as fh:
            records = read_chain_csv(fh)
        acceptance = json.loads((out / "meta.json").read_text())["acceptance"]
        # attempted moves that logged -inf: rejected before a ratio was formed
        for move in ("params", "beta"):
            pairs = [(getattr(r, f"accept_{move}"), getattr(r, f"logr_{move}")) for r in records]
            attempted = [logr for flag, logr in pairs if flag is not None]
            rejects = sum(logr == -math.inf for logr in attempted)
            assert acceptance[f"{move}_domain_rejects"] == rejects
            assert 0 < rejects < len(attempted) == 150
            # a move that was not attempted logs nan, never -inf
            assert all(math.isnan(logr) for flag, logr in pairs if flag is None)

    def test_diagnose_rerun_byte_identical(self, tmp_path):
        obs_csv = tmp_path / "obs.csv"
        main(["simulate", "--horizon", "10", "--n", "20", "--seed", "1",
              "--out", str(obs_csv)])
        cfg = self.write_config(tmp_path)
        out = tmp_path / "run"
        main(["fit", "--config", str(cfg), "--observations", str(obs_csv),
              "--iterations", "100", "--seed", "7", "--out-dir", str(out)])
        blobs = []
        for name in ("f1", "f2"):
            fig = tmp_path / name
            main(["diagnose", "--chain", str(out / "chain.csv"), "--config",
                  str(cfg), "--out-dir", str(fig), "--x-points", "6"])
            blobs.append({p.name: p.read_bytes() for p in sorted(fig.iterdir())})
        assert blobs[0] == blobs[1]

    def test_diagnose_plots_beta_under_thinning(self, tmp_path):
        # with thinning 5 over a five-stage schedule every retained record ran a
        # params move, yet beta varies along the chain: the prior makes it random
        obs_csv = tmp_path / "obs.csv"
        main(["simulate", "--horizon", "40", "--n", "100", "--seed", "5",
              "--out", str(obs_csv)])
        cfg = tmp_path / "binned.cfg"
        cfg.write_text(BINNED_CONFIG)
        out = tmp_path / "run"
        main(["fit", "--config", str(cfg), "--observations", str(obs_csv),
              "--iterations", "100", "--burn-in", "0", "--thinning", "5", "--seed", "7",
              "--out-dir", str(out)])
        from gammasub.mcmc import read_chain_csv
        with open(out / "chain.csv") as fh:
            records = read_chain_csv(fh)
        assert all(r.accept_beta is None for r in records)
        assert len({r.beta for r in records}) > 1
        fig = tmp_path / "figs"
        rc = main(["diagnose", "--chain", str(out / "chain.csv"), "--config", str(cfg),
                   "--out-dir", str(fig), "--figures", "trace,hist"])
        assert rc == 0
        assert (fig / "trace_beta.csv").exists() and (fig / "hist_beta.csv").exists()

    def test_diagnose_rejects_unknown_figures(self, tmp_path, capsys):
        obs_csv = tmp_path / "obs.csv"
        main(["simulate", "--horizon", "10", "--n", "20", "--seed", "1",
              "--out", str(obs_csv)])
        cfg = self.write_config(tmp_path)
        out = tmp_path / "run"
        main(["fit", "--config", str(cfg), "--observations", str(obs_csv),
              "--iterations", "20", "--seed", "7", "--out-dir", str(out)])
        capsys.readouterr()
        fig = tmp_path / "figs"
        rc = main(["diagnose", "--chain", str(out / "chain.csv"), "--config", str(cfg),
                   "--out-dir", str(fig), "--figures", "bnad,trcae"])
        assert rc == 2
        assert capsys.readouterr().err == ("error: unknown figure(s) bnad, trcae; "
                                           "choose from trace, hist, band\n")
        assert not fig.exists()

    def test_invalid_run_leaves_no_out_dir(self, tmp_path, capsys):
        obs_csv = tmp_path / "obs.csv"
        main(["simulate", "--horizon", "10", "--n", "20", "--seed", "1",
              "--out", str(obs_csv)])
        cfg = self.write_config(tmp_path)
        out = tmp_path / "run"
        capsys.readouterr()
        rc = main(["fit", "--config", str(cfg), "--observations", str(obs_csv),
                   "--iterations", "20", "--thinning", "0", "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: thinning must be >= 1, got 0\n"
        assert not out.exists()

    def test_ingest_cli(self, tmp_path):
        losses = tmp_path / "losses.csv"
        losses.write_text(
            "date,loss\n"
            f"2020-01-06,{math.e!r}\n"
            f"2020-01-08,{math.e ** 2!r}\n"
            f"2020-01-15,{math.e!r}\n"
        )
        out = tmp_path / "obs.csv"
        rc = main(["ingest", str(losses), "--out", str(out)])
        assert rc == 0
        from gammasub.data import read_observations_csv
        obs = read_observations_csv(out)
        assert obs.values == pytest.approx([0.0, 3.0, 4.0])

    def test_error_reporting(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha_init = 1\n")  # missing prior
        rc = main(["fit", "--config", str(cfg), "--observations", "x.csv",
                   "--iterations", "10", "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_config_value_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(with_value(BASIC_CONFIG, "alpha_init", "abc"))
        rc = main(["fit", "--config", str(cfg), "--observations", "x.csv",
                   "--iterations", "10", "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == "error: alpha_init: expected a number, got 'abc'\n"

    def test_truncated_chain_row_is_an_error(self, tmp_path, capsys):
        obs_csv = tmp_path / "obs.csv"
        main(["simulate", "--horizon", "10", "--n", "20", "--seed", "1",
              "--out", str(obs_csv)])
        cfg = self.write_config(tmp_path)
        out = tmp_path / "run"
        main(["fit", "--config", str(cfg), "--observations", str(obs_csv),
              "--iterations", "20", "--seed", "7", "--out-dir", str(out)])
        chain = out / "chain.csv"
        lines = chain.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 3)[0]
        chain.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["diagnose", "--chain", str(chain), "--config", str(cfg),
                   "--out-dir", str(tmp_path / "figs")])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: chain line {len(lines)}: expected 8 fields, "
                                           "got 5\n")
