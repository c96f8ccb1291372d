"""Config parsing and the batch CLI round trip."""

import json
import math
import warnings
from pathlib import Path

import pytest

from gammasub import ConfigError, DomainError, diagnostics
from gammasub.cli import main
from gammasub.config import load_config, parse_config
from gammasub.mcmc import ChainRecord, write_chain_csv, write_meta_json

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

    def test_stage_names_are_read_in_any_case(self):
        # as keys, prior kinds and booleans are; the echo keeps the user's text
        cfg = parse_config(with_value(BINNED_CONFIG, "update_schedule", "Beta PARAMS params"))
        assert cfg.proposal.update_schedule == ("beta", "params", "params")
        assert cfg.echo()["update_schedule"] == "Beta PARAMS params"

    def test_proposal_defaults_are_proposal_specs(self):
        from gammasub.mcmc import ProposalSpec
        assert parse_config(BASIC_CONFIG).proposal == ProposalSpec(sigma_alpha=0.1)

    def test_load_config_reads_past_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_bytes(("\ufeff" + BINNED_CONFIG.lstrip()).encode("utf-8"))
        assert load_config(path) == parse_config(BINNED_CONFIG)

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
        assert meta["segments"] == {"total": 50, "refreshed": 0}
        assert meta["acceptance"]["path_refresh_active_rate"] is None
        assert meta["acceptance"]["path_refresh_mean_rate"] == 1.0

        fig_dir = tmp_path / "figs"
        rc = main(["diagnose", "--chain", str(out_dir / "chain.csv"), "--out-dir", str(fig_dir),
                   "--x-min", "0.5", "--x-max", "4.0", "--x-points", "8"])
        assert rc == 0
        # the tables alone: no .svg beside them
        assert {p.name for p in fig_dir.iterdir()} == {"trace_alpha.csv", "hist_alpha.csv",
                                                       "band.csv"}
        for bound in ("--x-min", "--x-max"):
            rc = main(["diagnose", "--chain", str(out_dir / "chain.csv"),
                       "--out-dir", str(tmp_path / bound), "--figures", "band", bound, "nan"])
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
        rate = meta["acceptance"]["path_refresh_active_rate"]
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

    def test_fit_counts_burn_in_domain_rejects_apart(self, tmp_path):
        # from rho_1 = -705, intercept steps of sd 20 leave the float range of
        # exp(-rho_1) in burn-in, and seed 5's walk never does so after it
        obs_csv = tmp_path / "obs.csv"
        main(["simulate", "--horizon", "100", "--n", "100", "--seed", "5",
              "--out", str(obs_csv)])
        text = ("bin_edges = 1\nalpha_init = 1.0\nbeta_init = 0.5\ntheta_init = 0.5\n"
                "rho_init = -705\nalpha_prior = gamma 2 1\ntheta_prior = gamma 2 1\n"
                "rho_prior = normal 0 1000\nsigma_rho = 20\n")
        cfg = tmp_path / "model.cfg"
        cfg.write_text(text)
        out = tmp_path / "run"
        rc = main(["fit", "--config", str(cfg), "--observations", str(obs_csv),
                   "--iterations", "2000", "--seed", "5", "--out-dir", str(out)])
        assert rc == 0
        meta = json.loads((out / "meta.json").read_text())
        from gammasub import run_mcmc
        from gammasub.data import read_observations_csv
        run = parse_config(text)
        records = list(run_mcmc(read_observations_csv(obs_csv), run.params0, run.prior,
                                run.proposal, iterations=2000, burn_in=0, seed=5,
                                m=run.refinement))
        burn_in = meta["burn_in_acceptance"]
        rejects = sum(r.logr_params == -math.inf for r in records[:200])
        assert burn_in["params_domain_rejects"] == rejects > 0
        assert meta["acceptance"]["params_domain_rejects"] == 0
        assert burn_in["params_rate"] == sum(r.accept_params for r in records[:200]) / 200
        # the kept chain's bytes do not depend on the burn-in tally
        from gammasub.mcmc import read_chain_csv
        with open(out / "chain.csv") as fh:
            assert read_chain_csv(fh) == records[200:]

    def test_fit_burn_in_beyond_the_run_is_an_error(self, tmp_path, capsys):
        obs_csv = tmp_path / "obs.csv"
        main(["simulate", "--horizon", "10", "--n", "20", "--seed", "1",
              "--out", str(obs_csv)])
        cfg = self.write_config(tmp_path)
        out = tmp_path / "run"
        capsys.readouterr()
        rc = main(["fit", "--config", str(cfg), "--observations", str(obs_csv),
                   "--iterations", "20", "--burn-in", "21", "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: need iterations >= burn_in >= 0, got (20, 21)\n"
        assert not out.exists()

    def test_fit_meta_counts_thinned_out_moves(self, tmp_path):
        # thinning 5 over a five-stage schedule retains only params sweeps; the
        # acceptance summaries still count every sweep after burn-in
        obs_csv = tmp_path / "obs.csv"
        main(["simulate", "--horizon", "40", "--n", "100", "--seed", "5",
              "--out", str(obs_csv)])
        cfg = tmp_path / "binned.cfg"
        cfg.write_text(BINNED_CONFIG)
        runs = {}
        for thinning in ("5", "1"):
            out = tmp_path / f"thin{thinning}"
            rc = main(["fit", "--config", str(cfg), "--observations", str(obs_csv),
                       "--iterations", "500", "--burn-in", "0", "--thinning", thinning,
                       "--seed", "7", "--out-dir", str(out)])
            assert rc == 0
            runs[thinning] = ((out / "chain.csv").read_text().splitlines(),
                              json.loads((out / "meta.json").read_text()))
        (thinned, meta), (full, full_meta) = runs["5"], runs["1"]
        # the thinned chain is every fifth row of the full one, byte for byte
        assert thinned == full[:1] + full[5::5]
        assert meta["n_records"] == 100 and full_meta["n_records"] == 500
        from gammasub.mcmc import read_chain_csv
        with open(tmp_path / "thin1" / "chain.csv") as fh:
            records = read_chain_csv(fh)
        acceptance = meta["acceptance"]
        for move, attempts in (("params", 400), ("beta", 100)):
            flags = [getattr(r, f"accept_{move}") for r in records]
            flags = [f for f in flags if f is not None]
            assert len(flags) == attempts
            assert acceptance[f"{move}_rate"] == sum(flags) / attempts
            assert acceptance[f"{move}_domain_rejects"] == full_meta["acceptance"][
                f"{move}_domain_rejects"]
        assert 0.0 < acceptance["beta_rate"] < 1.0
        assert acceptance == full_meta["acceptance"]
        n_active = meta["segments"]["refreshed"]
        rates = [(n_active - (100 - round(r.accept_path_rate * 100))) / n_active for r in records]
        assert acceptance["path_refresh_active_rate"] == pytest.approx(
            sum(rates) / len(rates), rel=1e-12)

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
            main(["diagnose", "--chain", str(out / "chain.csv"), "--out-dir", str(fig),
                  "--x-points", "6"])
            blobs.append({p.name: p.read_bytes() for p in sorted(fig.iterdir())})
        assert blobs[0] == blobs[1]

    def test_diagnose_plots_beta_under_thinning(self, tmp_path):
        # with thinning 5 over a five-stage schedule every retained record ran a
        # params move, yet beta varies along the chain, which diagnose reads
        # as a sampled beta
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
        rc = main(["diagnose", "--chain", str(out / "chain.csv"), "--out-dir", str(fig),
                   "--figures", "trace,hist"])
        assert rc == 0
        assert (fig / "trace_beta.csv").exists() and (fig / "hist_beta.csv").exists()

    def test_diagnose_draws_beta_figures_for_a_beta_prior(self, tmp_path):
        # the fit's config echo decides, not the chain: a random-beta fit gets
        # its beta figures and a fixed-beta fit none. A random-beta fit whose
        # beta never moved gets them too, though no retained record ran the
        # beta move: every proposal at sigma_beta 1e6 leaves the prior's
        # support, and thinning by 2 over "beta params" keeps params sweeps alone
        obs_csv = tmp_path / "obs.csv"
        main(["simulate", "--horizon", "40", "--n", "100", "--seed", "5",
              "--out", str(obs_csv)])
        fixed = "".join(line for line in BINNED_CONFIG.splitlines(True)
                        if not line.startswith(("beta_prior", "update_schedule")))
        stuck = with_value(with_value(BINNED_CONFIG, "sigma_beta", "1e6"),
                           "update_schedule", "beta params")
        fits = {"random": (BINNED_CONFIG, []), "fixed": (fixed, []),
                "stuck": (stuck, ["--burn-in", "0", "--thinning", "2"])}
        for name, (config, options) in fits.items():
            cfg, out, fig = tmp_path / f"{name}.cfg", tmp_path / name, tmp_path / f"figs-{name}"
            cfg.write_text(config)
            assert main(["fit", "--config", str(cfg), "--observations", str(obs_csv),
                         "--iterations", "200", "--seed", "7", "--out-dir", str(out),
                         *options]) == 0
            assert main(["diagnose", "--chain", str(out / "chain.csv"), "--out-dir", str(fig),
                         "--figures", "trace,hist"]) == 0
            beta_figures = {"trace_beta.csv", "hist_beta.csv"} & {p.name for p in fig.iterdir()}
            assert beta_figures == (set() if name == "fixed" else {"trace_beta.csv",
                                                                   "hist_beta.csv"})
        from gammasub.mcmc import read_chain_csv
        with open(tmp_path / "stuck" / "chain.csv") as fh:
            records = read_chain_csv(fh)
        assert all(r.accept_beta is None for r in records)
        assert {r.beta for r in records} == {0.44}
        meta = json.loads((tmp_path / "stuck" / "meta.json").read_text())
        assert meta["acceptance"]["beta_rate"] == 0.0

    def test_diagnose_draws_the_trace_of_a_beta_flat_to_float_precision(self, tmp_path):
        # beta never moves, yet its running average ends one float spacing
        # above 0.1: its trace is written as the sums give it
        obs_csv, cfg, out = tmp_path / "obs.csv", tmp_path / "flat.cfg", tmp_path / "run"
        main(["simulate", "--n", "40", "--horizon", "20", "--seed", "2", "--out", str(obs_csv)])
        cfg.write_text("bin_edges = 1 2\nalpha_init = 1.0\nbeta_init = 0.1\n"
                       "alpha_prior = gamma 2 1\nbeta_prior = uniform 0.05 100\n"
                       "theta_prior = normal 0 1\nrho_prior = normal 0 1.5\n"
                       "sigma_beta = 1e6\nupdate_schedule = beta params\nrefinement = 4\n")
        assert main(["fit", "--config", str(cfg), "--observations", str(obs_csv),
                     "--iterations", "3", "--burn-in", "0", "--seed", "1",
                     "--out-dir", str(out)]) == 0
        fig = tmp_path / "figs"
        assert main(["diagnose", "--chain", str(out / "chain.csv"), "--out-dir", str(fig),
                     "--figures", "trace"]) == 0
        rows = (fig / "trace_beta.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["0.1", "0.1", "0.10000000000000002"]

    @staticmethod
    def binless_chain_at(tmp_path, alpha: float) -> Path:
        """chain.csv and meta.json of a 3-sweep binless fit whose alpha stays
        at alpha, written as `gammasub fit` writes them; the path of the chain."""
        out = tmp_path / "run"
        out.mkdir()
        records = [ChainRecord(t, alpha, 1.0, (), (), 1.0, False, logr_params=-math.inf)
                   for t in (1, 2, 3)]
        with open(out / "chain.csv", "w") as fh:
            write_chain_csv(records, fh, 0)
        with open(out / "meta.json", "w") as fh:
            write_meta_json(fh, config_echo={"alpha_init": repr(alpha),
                                             "alpha_prior": "gamma 2 1"}, records=records)
        return out / "chain.csv"

    def test_diagnose_refuses_the_histogram_of_a_trace_flat_beyond_2_to_the_53(self, tmp_path,
                                                                             capsys):
        # alpha stays at 1e17, where numpy's unit range for a constant series
        # rounds back to the value: its histogram is refused, its trace and
        # band are written
        chain = self.binless_chain_at(tmp_path, 1e17)
        assert chain.read_text().splitlines()[1].startswith("1,1e+17,")
        capsys.readouterr()
        fig = tmp_path / "figs"
        assert main(["diagnose", "--chain", str(chain), "--out-dir", str(fig),
                     "--figures", "hist"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: the range [1e+17, 1e+17] is too narrow for 40 bins: ")
        assert not fig.exists()
        assert main(["diagnose", "--chain", str(chain), "--out-dir", str(fig),
                     "--figures", "trace,band"]) == 0
        assert {p.name for p in fig.iterdir()} == {"trace_alpha.csv", "band.csv"}

    @pytest.mark.parametrize("figure, message", [
        ("trace", "the running sum of the series is inf, not a finite float"),
        ("hist", "the range [1.7e+308, 1.7e+308] is too narrow for 40 bins: "),
    ], ids=["trace", "hist"])
    def test_diagnose_refuses_a_chain_at_the_float_edge(self, tmp_path, capsys, figure, message):
        # the running sums pass the largest float, and numpy's unit range for a
        # constant series rounds back to it
        chain = self.binless_chain_at(tmp_path, 1.7e308)
        assert [row.split(",")[1] for row in chain.read_text().splitlines()[1:]] == [
            "1.7e+308"] * 3
        capsys.readouterr()
        fig = tmp_path / "figs"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["diagnose", "--chain", str(chain), "--out-dir", str(fig),
                         "--figures", figure]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not fig.exists()

    def test_diagnose_refuses_a_range_wider_than_the_float_range(self, tmp_path, capsys):
        chain = self.binless_chain_at(tmp_path, 1.7e308)
        header, *rows = chain.read_text().splitlines()
        rows[0] = rows[0].replace("1.7e+308", "-1.7e+308", 1)
        chain.write_text("\n".join([header, *rows]) + "\n")
        capsys.readouterr()
        fig = tmp_path / "figs"
        assert main(["diagnose", "--chain", str(chain), "--out-dir", str(fig)]) == 2
        assert capsys.readouterr().err == ("error: the width of the range [-1.7e+308, 1.7e+308] "
                                           "is not a finite float\n")
        assert not fig.exists()

    def test_diagnose_refuses_a_band_past_the_float_range(self, tmp_path, capsys):
        # alpha * x overflows from the grid's eleventh point, x = 1.1, on
        chain = self.binless_chain_at(tmp_path, 1.7e308)
        capsys.readouterr()
        fig = tmp_path / "figs"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["diagnose", "--chain", str(chain), "--out-dir", str(fig),
                         "--figures", "band"]) == 2
        assert capsys.readouterr().err == ("error: the band's edges at x = 1.1 are (nan, nan): "
                                           "its theta_plus_alpha_x values overflow the float "
                                           "range\n")
        assert not fig.exists()

    def test_diagnose_leaves_no_files_when_a_figure_cannot_be_drawn(self, tmp_path, capsys,
                                                                    monkeypatch):
        # the second histogram fails after the traces and the first histogram
        # were computed: no table is written
        chain = self.fit_chain(tmp_path, BINNED_CONFIG, "--iterations", "20")
        binned = []
        histogram = diagnostics.histogram

        def failing_histogram(values, bins):
            if binned:
                raise DomainError("cannot bin")
            binned.append(values)
            return histogram(values, bins)

        monkeypatch.setattr(diagnostics, "histogram", failing_histogram)
        capsys.readouterr()
        fig = tmp_path / "figs"
        assert main(["diagnose", "--chain", str(chain), "--out-dir", str(fig)]) == 2
        assert len(binned) == 1
        assert capsys.readouterr().err == "error: cannot bin\n"
        assert not fig.exists()

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
        rc = main(["diagnose", "--chain", str(out / "chain.csv"), "--out-dir", str(fig),
                   "--figures", "bnad,trcae"])
        assert rc == 2
        assert capsys.readouterr().err == ("error: unknown figure(s) bnad, trcae; "
                                           "choose from trace, hist, band\n")
        assert not fig.exists()

    def fit_chain(self, tmp_path, config, *options):
        """Fit config on a small simulated series; the path of its chain.csv."""
        obs_csv = tmp_path / "obs.csv"
        main(["simulate", "--horizon", "10", "--n", "20", "--seed", "1",
              "--out", str(obs_csv)])
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(config)
        out = tmp_path / "run"
        rc = main(["fit", "--config", str(cfg), "--observations", str(obs_csv),
                   "--seed", "7", "--out-dir", str(out), *options])
        assert rc == 0
        return out / "chain.csv"

    def band(self, chain: Path, fig: Path) -> bytes:
        """The band.csv diagnose draws from chain into fig."""
        assert main(["diagnose", "--chain", str(chain), "--out-dir", str(fig),
                     "--figures", "band"]) == 0
        return (fig / "band.csv").read_bytes()

    def set_fit_edges(self, chain: Path, edges: str) -> None:
        """Set bin_edges in the config echo of the meta.json beside chain."""
        meta = json.loads((chain.parent / "meta.json").read_text())
        meta["config"]["bin_edges"] = edges
        (chain.parent / "meta.json").write_text(json.dumps(meta))

    @pytest.mark.parametrize("config, options, fit_edges, message", [
        (BASIC_CONFIG, ["--band-level", "1.5"], None, "level must be in (0, 1), got 1.5"),
        (BASIC_CONFIG, ["--hist-bins", "0"], None, "bins must be >= 1, got 0"),
        (BASIC_CONFIG, ["--x-points", "-1"], None, "x-points must be >= 1, got -1"),
        (BASIC_CONFIG, ["--x-points", "0"], None, "x-points must be >= 1, got 0"),
        (BASIC_CONFIG, ["--figures", ""], None, "--figures names no figure"),
        (BASIC_CONFIG, ["--figures", ","], None, "--figures names no figure"),
        (BINNED_CONFIG, [], "1 2",
         "the chain has 3 bins but its manifest's bin edges [1.0, 2.0] make 2"),
        (BINNED_CONFIG, [], "1 x 4", "bin_edges: expected a number, got 'x'"),
    ], ids=["band level", "hist bins", "x points -1", "x points 0", "no figure", "no figure ,",
            "bin count", "malformed edge"])
    def test_diagnose_checks_its_inputs_first(self, tmp_path, capsys, config, options,
                                             fit_edges, message):
        chain = self.fit_chain(tmp_path, config, "--iterations", "20")
        if fit_edges is not None:
            self.set_fit_edges(chain, fit_edges)
        capsys.readouterr()
        fig = tmp_path / "figs"
        rc = main(["diagnose", "--chain", str(chain), "--out-dir", str(fig), *options])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not fig.exists()

    def test_diagnose_reads_the_edges_from_either_manifest_name(self, tmp_path):
        # chain.csv records no edges: the config echo of the fit's manifest
        # does, meta.json beside chain.csv as `gammasub fit` writes it, or
        # <stem>.meta.json as the benchmark writes chain_0.meta.json beside
        # chain_0.csv, which is read first
        chain = self.fit_chain(tmp_path, BINNED_CONFIG, "--iterations", "20")
        band = self.band(chain, tmp_path / "figs")
        (chain.parent / "meta.json").rename(chain.parent / "chain.meta.json")
        (chain.parent / "meta.json").write_text('{"config": {"bin_edges": "1.5 3 9"}}')
        assert self.band(chain, tmp_path / "figs-stem") == band

    @pytest.mark.parametrize("meta_name", ["meta.json", "chain.meta.json"])
    def test_diagnose_rejects_edges_other_than_the_fits(self, tmp_path, capsys, meta_name):
        # the manifest's config echo is the only source of edges, under either
        # name; edges that do not make the chain's bins are refused before any
        # output, and the fit's edges written otherwise pass
        chain = self.fit_chain(tmp_path, BINNED_CONFIG, "--iterations", "20")
        band = self.band(chain, tmp_path / "figs-fit")
        self.set_fit_edges(chain, "1.5 3")
        (chain.parent / "meta.json").rename(chain.parent / meta_name)
        capsys.readouterr()
        fig = tmp_path / "figs"
        rc = main(["diagnose", "--chain", str(chain), "--out-dir", str(fig),
                   "--figures", "band"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: the chain has 3 bins but its manifest's bin edges [1.5, 3.0] make 2\n")
        assert not fig.exists()
        meta = chain.parent / meta_name
        echo = json.loads(meta.read_text())
        echo["config"]["bin_edges"] = "1.0, 2 4e0"
        meta.write_text(json.dumps(echo))
        assert self.band(chain, fig) == band

    def test_diagnose_refuses_a_chain_without_a_manifest(self, tmp_path, capsys):
        chain = self.fit_chain(tmp_path, BINNED_CONFIG, "--iterations", "20")
        (chain.parent / "meta.json").unlink()
        capsys.readouterr()
        fig = tmp_path / "figs"
        assert main(["diagnose", "--chain", str(chain), "--out-dir", str(fig)]) == 2
        assert capsys.readouterr().err == (
            f"error: neither chain.meta.json nor meta.json lies beside {chain}: diagnose reads "
            "the fit's config echo from its manifest\n")
        assert not fig.exists()
        # the config the fit read is no option of diagnose
        with pytest.raises(SystemExit):
            main(["diagnose", "--chain", str(chain), "--config", str(tmp_path / "fit.cfg"),
                  "--out-dir", str(fig)])
        assert not fig.exists()

    @pytest.mark.parametrize("name", ["chain.csv", "meta.json"])
    def test_diagnose_reads_past_a_byte_order_mark(self, tmp_path, name):
        # chain.csv and meta.json are read as the other inputs are: UTF-8, a
        # leading byte-order mark dropped
        chain = self.fit_chain(tmp_path, BINNED_CONFIG, "--iterations", "20")
        band = self.band(chain, tmp_path / "figs")
        path = chain.parent / name
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert self.band(chain, tmp_path / "figs-bom") == band

    def test_diagnose_rejects_a_meta_json_without_a_config_echo(self, tmp_path, capsys):
        chain = self.fit_chain(tmp_path, BINNED_CONFIG, "--iterations", "20")
        meta = chain.parent / "meta.json"
        for text in ("{", "[]", '{"config": 3}', '{"acceptance": {}}'):
            meta.write_text(text)
            capsys.readouterr()
            rc = main(["diagnose", "--chain", str(chain), "--out-dir", str(tmp_path / "figs")])
            assert rc == 2
            assert capsys.readouterr().err == f"error: {meta} holds no config echo\n"

    def test_diagnose_band_needs_two_records(self, tmp_path, capsys):
        chain = self.fit_chain(tmp_path, BASIC_CONFIG, "--iterations", "1", "--burn-in", "0")
        capsys.readouterr()
        fig = tmp_path / "figs"
        rc = main(["diagnose", "--chain", str(chain), "--out-dir", str(fig)])
        assert rc == 2
        assert capsys.readouterr().err == "error: need at least two samples for a band\n"
        assert not fig.exists()
        # without the band one record is enough
        assert main(["diagnose", "--chain", str(chain), "--out-dir", str(fig),
                     "--figures", "trace,hist"]) == 0

    def test_fit_thinning_stride_and_iterations(self, tmp_path):
        chain = self.fit_chain(tmp_path, BASIC_CONFIG, "--iterations", "30", "--burn-in", "10",
                               "--thinning", "4")
        from gammasub.mcmc import read_chain_csv
        with open(chain) as fh:
            assert [r.iteration for r in read_chain_csv(fh)] == [14, 18, 22, 26, 30]

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

    def test_zero_refinement_is_an_error(self, tmp_path, capsys):
        obs_csv = tmp_path / "obs.csv"
        main(["simulate", "--horizon", "10", "--n", "20", "--seed", "1",
              "--out", str(obs_csv)])
        cfg = tmp_path / "model.cfg"
        cfg.write_text(with_value(BASIC_CONFIG, "refinement", "0"))
        out = tmp_path / "run"
        capsys.readouterr()
        rc = main(["fit", "--config", str(cfg), "--observations", str(obs_csv),
                   "--iterations", "20", "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: refinement count must be an integer >= 1, got 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("case, reason", [
        ("missing config", "No such file or directory"),
        ("missing losses", "No such file or directory"),
        ("missing out directory", "No such file or directory"),
        ("out dir is a file", "File exists"),
        ("config not UTF-8", "can't decode byte 0xff"),
    ])
    def test_file_error_is_an_error(self, tmp_path, capsys, case, reason):
        obs_csv = tmp_path / "obs.csv"
        main(["simulate", "--horizon", "10", "--n", "20", "--seed", "1",
              "--out", str(obs_csv)])
        cfg = self.write_config(tmp_path)
        if case == "config not UTF-8":
            cfg.write_bytes(b"alpha_init = 1.0\n# \xff\n")
        out = tmp_path / "run"
        if case == "out dir is a file":
            out.write_text("")
        fit = ["fit", "--config", str(cfg), "--observations", str(obs_csv), "--iterations", "20",
               "--out-dir", str(out)]
        argv = {
            "missing config": fit[:2] + [str(tmp_path / "nope.cfg")] + fit[3:],
            "missing losses": ["ingest", str(tmp_path / "nope.csv"),
                               "--out", str(tmp_path / "x.csv")],
            "missing out directory": ["simulate", "--n", "20", "--out",
                                      str(tmp_path / "no" / "x.csv")],
        }.get(case, fit)
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_negative_seed_is_an_error(self, tmp_path, capsys):
        obs_csv = tmp_path / "obs.csv"
        main(["simulate", "--horizon", "10", "--n", "20", "--seed", "1",
              "--out", str(obs_csv)])
        cfg = self.write_config(tmp_path)
        out = tmp_path / "run"
        capsys.readouterr()
        rc = main(["fit", "--config", str(cfg), "--observations", str(obs_csv),
                   "--iterations", "20", "--seed", "-1", "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: seed must be a non-negative integer or a sequence of them, got -1\n")
        assert not out.exists()

    @pytest.mark.parametrize("theta, rho, theta_prior, reason", [
        # rho_1 = -800: exp(-rho_1) overflows, and the bin's mass is +inf
        ("0.5", "-800", "gamma 2 1", "give a bin an infinite mass: its slope + alpha is so far "
                                     "below 0 that its Ei overflows, or its intercept"),
        # theta_1 <= -alpha: the tail's integral diverges, which the prior refuses
        ("-1.0", "0", "normal 0 1", "have zero prior density"),
        ("-1.5", "0", "normal 0 1", "have zero prior density"),
    ], ids=["rho-800", "tail=0", "tail<0"])
    def test_start_past_the_float_range_of_exp_is_an_error(self, tmp_path, capsys, theta, rho,
                                                            theta_prior, reason):
        obs_csv = tmp_path / "obs.csv"
        main(["simulate", "--horizon", "100", "--n", "100", "--seed", "5",
              "--out", str(obs_csv)])
        cfg = tmp_path / "model.cfg"
        cfg.write_text(f"bin_edges = 1\nalpha_init = 1.0\nbeta_init = 0.5\ntheta_init = {theta}\n"
                       f"rho_init = {rho}\nalpha_prior = gamma 2 1\ntheta_prior = {theta_prior}\n"
                       "rho_prior = normal 0 1000\n")
        out = tmp_path / "run"
        capsys.readouterr()
        rc = main(["fit", "--config", str(cfg), "--observations", str(obs_csv),
                   "--iterations", "20", "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: initial parameters {reason}")
        assert not out.exists()

    def test_negative_simulate_seed_is_an_error(self, tmp_path, capsys):
        obs_csv = tmp_path / "obs.csv"
        rc = main(["simulate", "--horizon", "10", "--n", "20", "--seed", "-3",
                   "--out", str(obs_csv)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: seed must be a non-negative integer or a sequence of them, got -3\n")
        assert not obs_csv.exists()

    def test_simulate_refuses_increments_below_the_float_resolution(self, tmp_path, capsys):
        # fit would reject the file: its cumulative values do not strictly increase
        obs_csv = tmp_path / "obs.csv"
        rc = main(["simulate", "--n", "200", "--horizon", "100", "--seed", "3",
                   "--out", str(obs_csv)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: 1 increments fall below the float resolution of the cumulative values and "
            "would be lost in the CSV rendering; use fewer or coarser observations for a "
            "file-based workflow\n")
        assert list(tmp_path.iterdir()) == []

    def test_diagnose_chain_without_records_is_an_error(self, tmp_path, capsys):
        chain = self.fit_chain(tmp_path, BASIC_CONFIG, "--iterations", "20")
        chain.write_text(chain.read_text().splitlines()[0] + "\n")
        capsys.readouterr()
        fig = tmp_path / "figs"
        rc = main(["diagnose", "--chain", str(chain), "--out-dir", str(fig)])
        assert rc == 2
        assert capsys.readouterr().err == "error: chain file holds no records\n"
        assert not fig.exists()

    def test_ingest_cli(self, tmp_path, capsys):
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
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == (f"wrote {out}: 2 windows from 3 rows (0 merged, 0 rejected, "
                              "0 dropped after the last positive window)")
        assert printed[1].endswith("series ends Sunday 2020-01-19")
        from gammasub.data import read_observations_csv
        obs = read_observations_csv(out)
        assert obs.values == pytest.approx([0.0, 3.0, 4.0])

    def test_ingest_of_losses_of_one_names_the_cause(self, tmp_path, capsys):
        losses = tmp_path / "losses.csv"
        losses.write_text("date,loss\n2020-01-06,1\n2020-01-14,1\n")
        out = tmp_path / "obs.csv"
        assert main(["ingest", str(losses), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: no positive increments: no row has a loss above 1 (rejected, loss < 1: "
            "lines []; dropped, loss 1, whose log is 0: lines [2, 3])\n")
        assert not out.exists()

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

    def test_non_finite_chain_value_is_an_error(self, tmp_path, capsys):
        chain = self.fit_chain(tmp_path, BASIC_CONFIG, "--iterations", "20")
        lines = chain.read_text().splitlines()
        fields = lines[-1].split(",")
        fields[1] = "nan"                   # alpha
        lines[-1] = ",".join(fields)
        chain.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        fig = tmp_path / "figs"
        rc = main(["diagnose", "--chain", str(chain), "--out-dir", str(fig), "--figures", "hist"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: chain line {len(lines)}: alpha, beta, theta, rho and accept_path_rate must "
            "be finite\n")
        assert not fig.exists()

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
        rc = main(["diagnose", "--chain", str(chain), "--out-dir", str(tmp_path / "figs")])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: chain line {len(lines)}: expected 8 fields, "
                                           "got 5\n")
