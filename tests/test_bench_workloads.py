"""The benchmark's workloads run on the library as it stands.

bench/workloads.py drives the sampler through the library's public calls
(Observations.from_increments, parse_config and RunConfig.echo, init_chain,
run_mcmc, write_chain_csv, write_meta_json, read_chain_csv,
ChainRecord.to_params, credible_band).  Each workload runs here for a few
sweeps, the way bench/worker.py runs one chain, so that a library change
that breaks one of those calls fails a test, not only the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", ["mixture", "binless", "beta_binned"])
def test_workload_chain_passes_its_gates(name, tmp_path):
    wl = workloads.Workload(name, 7)
    wl.iterations, wl.burn_in = 40, 10
    wl.init_once()
    records, _, _, error = wl.sample(0, calibrate=False)
    assert error is None
    assert len(records) == 40
    retained = records[wl.burn_in:]
    path = tmp_path / "chain_0.csv"
    wl.write(retained, path, 0)
    assert path.with_suffix(".meta.json").exists()
    read_back, _, _ = wl.diagnose(path)
    gates = workloads.Gates()
    gates.chain(wl, retained, read_back, 0)
    assert gates.failures == []
    assert workloads.count_failures(records, wl.iterations) == 0
