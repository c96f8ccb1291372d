"""Workload definitions, the library calls the benchmark times, and the
correctness gates.

Every input is generated from the workload seed; the sampler receives only
the generated Observations and the config text.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from gammasub import mcmc
from gammasub.config import parse_config
from gammasub.data import Observations, synth_two_gamma
from gammasub.diagnostics import BandSpec, credible_band
from gammasub.exceptions import GammasubError
from gammasub.paths import TimeGrid

# The band `gammasub diagnose` draws by default.
BAND = BandSpec(x_grid=np.linspace(0.1, 5.0, 50), level=0.95,
                functional="theta_plus_alpha_x")

_MIXTURE_CONFIG = """\
bin_edges = {edges}
alpha_init = 2.0
beta_init = {beta!r}
alpha_prior = gamma 2 1
theta_prior = normal 0 1
rho_prior = normal 0 1.5
sigma_alpha = 0.025
sigma_theta = 0.025
sigma_rho = 0.15
refinement = 10
"""

_BINLESS_CONFIG = """\
alpha_init = 1.0
beta_init = 1.0
alpha_prior = gamma 2 1
sigma_alpha = 0.1
refinement = 4
"""


def _mixture(seed: int, n: int, edges: str, extra: str = ""):
    # Two-Gamma mixture data, T = 200.  At n = 1000 some increments are
    # below the float resolution of the cumulative values, so the inputs
    # are handed over as increments, never through a time,value CSV.
    data, truth = synth_two_gamma(2.0, 0.4, 0.2, 0.04, T=200.0, n=n, seed=seed)
    text = _MIXTURE_CONFIG.format(edges=edges, beta=truth.beta_bar) + extra
    return data.times, data.increments, text


def _binless(seed: int):
    # n = 2000 unit-spaced Gamma(shape 1, rate 2) increments, pure Gamma model.
    rng = np.random.Generator(np.random.Philox(seed))
    return np.arange(2001, dtype=float), rng.gamma(1.0, 0.5, size=2000), _BINLESS_CONFIG


# Sweeps per timing block.
BLOCK = 250

# The baseline host's speed drifts by up to 2x, in phases that can outlast a
# whole set of runs.  A fixed reference kernel, timed around every block of
# sweeps and every set-up probe, tracks that drift: each timing is reported
# as measured x REF_S / (kernel time), that is, in seconds of a host on
# which the kernel takes REF_S seconds (this host in a fast phase).
REF_S = 0.016


def reference_seconds() -> float:
    """Wall time of a fixed mix of interpreter loops and small numpy calls."""
    rng = np.random.Generator(np.random.Philox(1))
    shape = np.full(2000, 0.5)
    edges = np.arange(0.0, 2000.0, 7.0)
    starts = np.arange(0, 2000, 10)
    t0 = time.perf_counter()
    total = 0.0
    for i in range(60000):
        total += i * 0.5
    for _ in range(60):
        x = rng.gamma(shape)
        cum = np.cumsum(x)
        cum /= cum[-1]
        np.searchsorted(edges, x)
        np.add.reduceat(x, starts)
        total += float(np.log(x).sum())
    return time.perf_counter() - t0


# name -> (input generator, iterations per chain, burn-in per chain,
#          seconds one chain took on the baseline host).  The last entry only
# sizes a run: --seconds buys a fixed number of chains, so a run does the
# same work, and reports the same draws, on any host and at any speed.
WORKLOADS = {
    "mixture": (lambda seed: _mixture(seed, 1000, "1 2 4"), 4000, 1000, 8.4),
    "binless": (_binless, 4000, 1000, 7.0),
    "beta_binned": (lambda seed: _mixture(
        seed, 200, "1 2",
        "beta_prior = uniform 0.05 100\nupdate_schedule = beta params\n"),
        4000, 1000, 4.5),
}


def sampled_names(n_bins: int, beta_random: bool) -> list[str]:
    names = ["alpha"] + (["beta"] if beta_random else [])
    names += [f"theta_{k}" for k in range(1, n_bins + 1)]
    names += [f"rho_{k}" for k in range(1, n_bins + 1)]
    return names


def record_values(r, beta_random: bool) -> list[float]:
    return [r.alpha] + ([r.beta] if beta_random else []) + list(r.theta) + list(r.rho)


class Workload:
    """Inputs and sampler set-up for one workload and seed."""

    def __init__(self, name: str, seed: int):
        make_inputs, self.iterations, self.burn_in, self.chain_seconds = WORKLOADS[name]
        self.name, self.seed = name, seed
        times, increments, config_text = make_inputs(seed)
        self.cfg = parse_config(config_text)
        self.obs = Observations.from_increments(times, increments)
        self.beta_random = self.cfg.prior.beta_is_random
        self.names = sampled_names(self.cfg.params0.n_bins, self.beta_random)

    def chain_seed(self, index: int) -> list[int]:
        # Data use Philox(seed); chain i uses SeedSequence([seed, i + 1]).
        return [self.seed, index + 1]

    def init_once(self):
        grid = TimeGrid(self.obs.times, self.cfg.refinement)
        return mcmc.init_chain(self.obs, self.cfg.params0, grid, self.chain_seed(0))

    def sample(self, index: int, calibrate: bool = True):
        """Drain run_mcmc for one chain; returns (records, seconds, paces, error).

        seconds is the wall time spent in run_mcmc.  With calibrate, the
        reference kernel runs before the first sweep and after every BLOCK
        sweeps, and paces holds, for each block, its wall time divided by
        the mean of the kernel times on either side; traced runs leave the
        kernel out, so that it adds nothing to the sweep gaps they time.
        burn_in=0 yields every sweep, so failures during burn-in are seen
        too; the retained draws are records[burn_in:], the same chain that
        `fit --burn-in` writes.
        """
        cfg = self.cfg
        records, blocks, refs = [], [], []
        error = None
        if calibrate:
            refs.append(reference_seconds())
        start = time.perf_counter()
        try:
            for rec in mcmc.run_mcmc(self.obs, cfg.params0, cfg.prior, cfg.proposal,
                                     iterations=self.iterations, burn_in=0,
                                     seed=self.chain_seed(index), m=cfg.refinement):
                records.append(rec)
                if calibrate and len(records) % BLOCK == 0:
                    blocks.append(time.perf_counter() - start)
                    refs.append(reference_seconds())
                    start = time.perf_counter()
        except (GammasubError, FloatingPointError, ValueError) as exc:
            error = f"chain {index}: {type(exc).__name__}: {exc}"
        seconds = sum(blocks) + time.perf_counter() - start
        refs = np.array(refs)
        paces = np.array(blocks) / (0.5 * (refs[:-1] + refs[1:])) if blocks else np.empty(0)
        return records, seconds, paces, error

    def write(self, records, path: Path, index: int) -> tuple[float, float]:
        """write_chain_csv, then write_meta_json, as `gammasub fit` does.

        Returns the seconds each took, file opening included.
        """
        echo = self.cfg.echo()
        echo.update({"iterations": str(self.iterations), "burn_in": str(self.burn_in),
                     "thinning": "1", "seed": json.dumps(self.chain_seed(index))})
        t0 = time.perf_counter()
        with open(path, "w") as fh:
            mcmc.write_chain_csv(records, fh, self.cfg.params0.n_bins)
        t1 = time.perf_counter()
        with open(path.with_suffix(".meta.json"), "w") as fh:
            mcmc.write_meta_json(fh, config_echo=echo, records=records)
        return t1 - t0, time.perf_counter() - t1

    def diagnose(self, path: Path):
        """read_chain_csv, then credible_band, as `gammasub diagnose` does.

        Returns (records read, seconds reading, seconds for the band).
        """
        t0 = time.perf_counter()
        with open(path) as fh:
            records = mcmc.read_chain_csv(fh)
        t1 = time.perf_counter()
        edges = self.cfg.params0.bin_edges
        credible_band([r.to_params(edges) for r in records], BAND)
        return records, t1 - t0, time.perf_counter() - t1


def count_failures(records, iterations: int) -> int:
    """Sweeps whose move ran and gave a NaN log ratio, plus sweeps never run."""
    failed = iterations - len(records)
    for r in records:
        if ((r.accept_params is not None and math.isnan(r.logr_params))
                or (r.accept_beta is not None and math.isnan(r.logr_beta))):
            failed += 1
    return failed


class Gates:
    """Correctness checks; each failure is kept and printed."""

    def __init__(self):
        self.failures = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def chain(self, wl: Workload, retained, read_back, index: int) -> None:
        self.check(len(read_back) == len(retained),
                   f"chain {index}: read back {len(read_back)} of {len(retained)} records")
        values = np.array([record_values(r, wl.beta_random) + [r.accept_path_rate]
                           for r in retained])
        self.check(bool(np.all(np.isfinite(values))), f"chain {index}: non-finite retained value")
        if wl.cfg.params0.n_bins:
            tail_ok = all(r.theta[-1] > -r.alpha for r in retained)
            self.check(tail_ok, f"chain {index}: theta_N <= -alpha on some record")

    def pooled(self, wl: Workload, draws: dict, ess_by_name: dict, beta_moves) -> None:
        """Gates on the draws of all chains; beta_moves is (accepted, attempted)."""
        if wl.name == "binless":
            # Gamma(2, 1) prior and Gamma(beta h, alpha) increments with beta = 1
            # give the conjugate posterior Gamma(2 + beta T, 1 + X_T).
            beta, horizon = wl.cfg.params0.beta, float(wl.obs.times[-1])
            target = (2.0 + beta * horizon) / (1.0 + float(wl.obs.increments.sum()))
            alpha = draws["alpha"]
            mcse = float(alpha.std(ddof=1)) / math.sqrt(ess_by_name["alpha"])
            dev = abs(float(alpha.mean()) - target)
            self.check(dev <= 4.0 * mcse,
                       f"binless: alpha mean {alpha.mean():.5f} vs conjugate {target:.5f} "
                       f"is {dev / mcse:.2f} MCSE (limit 4)")
        if wl.name == "beta_binned":
            accepted, attempted = beta_moves
            self.check(0 < accepted < attempted,
                       f"beta_binned: beta acceptance {accepted}/{attempted} not in (0, 1)")
