"""The per-layer tracer of bench/ finds every library name it rebinds.

bench/tracer.py rebinds public functions where their callers look them up,
reading each one from its owner's __dict__; a refactor that moves or drops
such a name breaks the traced benchmark run.
"""

import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

import gammasub as g
from gammasub import mcmc, paths

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("owner, attr", [(owner, attr) for owner, attr, _ in tracer._REBIND],
                         ids=[f"{owner.__name__}.{attr}" for owner, attr, _ in tracer._REBIND])
def test_rebound_name_resolves(owner, attr):
    assert callable(owner.__dict__.get(attr))


@pytest.mark.parametrize("name", tracer._PATH_FUNCS)
def test_path_function_resolves(name):
    assert callable(paths.__dict__.get(name))


def test_init_chain_resolves():
    assert callable(mcmc.__dict__.get("init_chain"))


class RecordingGates:
    """The gates' interface: each failed check is kept."""

    def __init__(self):
        self.failures = []

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)


def test_final_state_gate_passes_on_fresh_and_swept_states():
    rng = np.random.default_rng(3)
    obs = g.Observations.from_increments(np.arange(41.0), rng.gamma(1.0, 0.5, size=40))
    params0 = g.ModelParams(2.0, 1.0, [0.5, 1.0], [0.3, -0.2], [0.2, 0.1])
    prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0), beta=g.Prior("uniform", 0.05, 50.0),
                        theta=(g.Prior("normal", 0, 1.0),) * 2,
                        rho=(g.Prior("normal", 0, 1.5),) * 2)
    prop = g.ProposalSpec(sigma_beta=0.05)
    state = mcmc.init_chain(obs, params0, g.TimeGrid(obs.times, 4), 7)
    gates = RecordingGates()
    tracer.check_final_state(state, gates, 0)
    accepted = 0
    for _ in range(100):
        mcmc.refresh_segments(state)
        mcmc.update_params(state, prop, prior)
        accepted += mcmc.update_beta(state, prop, prior)[0]
    assert 0 < accepted < 100
    tracer.check_final_state(state, gates, 1)
    assert gates.failures == []
    # the gate sees a stale cache: the bin sums of the first active row, which
    # the active block holds
    state.block_stats[0, 1] += 1.0
    tracer.check_final_state(state, gates, 2)
    assert gates.failures == ["traced chain 2: cached seg_sums/seg_counts differ from "
                              "bin_stats_matrix"]


# Every layer a sweep of a binned random-beta chain calls, by the span name the
# tracer gives it: the moves' ratios, prior and bin statistics, and the
# bin-mass formulas and E1 beneath them.
KERNEL_SPANS = ("likelihood.loglik_ratio_params", "likelihood.psi_log",
                "likelihood.compensator_diff", "likelihood.bin_stats_matrix",
                "model.nu_bin_mass", "model.nu_diff_bin0", "model.prior_logpdf",
                "specfun.exp_integral_e1")


def chain_text(iterations, traced):
    """write_chain_csv's text of a binned random-beta chain, and the tracer's
    per-layer totals when traced."""
    rng = np.random.default_rng(5)
    obs = g.Observations.from_increments(np.arange(41.0), rng.gamma(1.0, 0.5, size=40))
    params0 = g.ModelParams(2.0, 1.0, [0.5, 1.0], [0.0, 0.0], [0.0, 0.0])
    prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0), beta=g.Prior("uniform", 0.05, 50.0),
                        theta=(g.Prior("normal", 0, 1.0),) * 2,
                        rho=(g.Prior("normal", 0, 1.5),) * 2)
    prop = g.ProposalSpec(sigma_beta=0.05, update_schedule=("beta", "params"))
    buf = io.StringIO()
    if not traced:
        mcmc.write_chain_csv(g.run_mcmc(obs, params0, prior, prop, iterations=iterations,
                                        burn_in=0, seed=9, m=4), buf, 2)
        return buf.getvalue(), None
    with tracer.Tracer() as tr:
        records = list(g.run_mcmc(obs, params0, prior, prop, iterations=iterations,
                                  burn_in=0, seed=9, m=4))
    mcmc.write_chain_csv(records, buf, 2)
    totals = tracer._Totals()
    totals.add(tr, iterations)
    return buf.getvalue(), totals


def test_tracer_sees_the_kernels_the_sweeps_run():
    untraced, _ = chain_text(200, traced=False)
    traced, totals = chain_text(200, traced=True)
    assert traced == untraced
    for name in KERNEL_SPANS:
        assert totals.calls_per_sweep(name) > 0, name
    # the one-row path views and ModelParams.with_updates are API edge, not sweep
    for fname in tracer._PATH_FUNCS:
        assert totals.calls_per_sweep(f"paths.{fname}") == 0
    assert totals.calls_per_sweep("model.ModelParams.with_updates") == 0
