"""The per-layer tracer of bench/ finds every library name it rebinds.

bench/tracer.py rebinds public functions where their callers look them up,
reading each one from its owner's __dict__; a refactor that moves or drops
such a name breaks the traced benchmark run.
"""

import importlib.util
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
    state.block_sums[0, 1] += 1.0
    tracer.check_final_state(state, gates, 2)
    assert gates.failures == ["traced chain 2: cached seg_sums/seg_counts differ from "
                              "bin_stats_matrix"]
