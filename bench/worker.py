"""One benchmark workload in a fresh interpreter.

Started by run.py; not meant to be run by hand.  The process builds the
workload's inputs from the seed, sets the sampler up exactly as
`gammasub fit` does, prints "ready" (the parent times set-up from launch to
that line), then, depending on --mode:

  setup   exits;
  run     drains run_mcmc for as many chains as --seconds buys at the
          baseline speed, and writes and reads back every chain like
          `gammasub fit` and `gammasub diagnose` do.  Before each chain and
          after the last it times PROBES more fresh interpreters in setup
          mode, each between two runs of the reference kernel, so that the
          set-up samples are spread over the whole run;
  trace   does the same, and runs each chain a second time traced by
          tracer.py.

The last line of standard output is one JSON object with the figures and
the outcome of every correctness gate.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import gammasub  # noqa: E402
from workloads import (BLOCK, REF_S, WORKLOADS, Gates, Workload,  # noqa: E402
                       count_failures, record_values, reference_seconds)

PROBES = 2      # set-up probes before each chain and after the last


def setup_probe(wl: Workload) -> tuple[float, float]:
    """Seconds from launching a fresh setup-mode worker to its "ready" line,
    and the mean time of the reference kernel run just before and after."""
    cmd = [sys.executable, __file__, "--workload", wl.name, "--seed", str(wl.seed),
           "--mode", "setup"]
    ref = reference_seconds()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline().strip() == "ready"
        seconds = time.perf_counter() - t0
        code = proc.wait()
    if not ready or code != 0:
        raise RuntimeError(f"{wl.name}: set-up probe failed with exit code {code}")
    return seconds, 0.5 * (ref + reference_seconds())


def ess_summary(wl: Workload, draws_by_chain: list[np.ndarray]):
    """Pooled draws, per-parameter bulk-ESS, and the minimum."""
    # ess imports scipy.stats; only after set-up and the peak-RSS reading
    from ess import bulk_ess

    arr = np.stack(draws_by_chain)                              # (chains, draws, params)
    draws = {name: arr[:, :, j] for j, name in enumerate(wl.names)}
    by_name = {name: bulk_ess(x) for name, x in draws.items()}
    return draws, by_name, min(by_name.values())


def run_chain(wl: Workload, index: int, out: Path, traced: bool, gates: Gates) -> dict:
    """Sample one chain, write and read it back, and trace a second run of it.

    Only the retained parameter values are kept, as an array, so that peak
    RSS does not grow with the number of chains in a run.
    """
    records, seconds, paces, error = wl.sample(index)
    gates.check(error is None, error or "")
    retained = records[wl.burn_in:]
    path = out / f"chain_{index}.csv"
    csv_s, meta_s = wl.write(retained, path, index)
    read_back, read_s, band_s = wl.diagnose(path)
    gates.chain(wl, retained, read_back, index)
    beta_flags = [r.accept_beta for r in retained if r.accept_beta is not None]
    chain = {"draws": np.array([record_values(r, wl.beta_random) for r in retained]),
             "beta_moves": (sum(beta_flags), len(beta_flags)),
             "seconds": seconds, "paces": paces, "error": error,
             "io_s": (csv_s, meta_s, read_s, band_s),
             "bytes": path.stat().st_size,
             "failed": count_failures(records, wl.iterations)}
    if traced and error is None:
        import tracer
        with tracer.Tracer() as tr:
            t_records, t_seconds, _, t_error = wl.sample(index, calibrate=False)
        gates.check(t_error is None, t_error or "")
        t_path = out / f"chain_{index}_traced.csv"
        wl.write(t_records[wl.burn_in:], t_path, index)
        gates.check(t_path.read_bytes() == path.read_bytes(),
                    f"traced chain {index}: chain.csv differs from the untraced run")
        gates.check(count_failures(t_records, wl.iterations) == chain["failed"],
                    f"traced chain {index}: failure count differs from the untraced run")
        chain.update(trace=tr, traced_records=t_records, traced_seconds=t_seconds)
    return chain


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    if not Path(gammasub.__file__).resolve().is_relative_to(SRC):
        print(f"gammasub imported from {gammasub.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl = Workload(args.workload, args.seed)
    wl.init_once()
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    args.out.mkdir(parents=True, exist_ok=True)
    gates = Gates()
    traced = args.mode == "trace"
    # As many chains as --seconds buys at the baseline speed; a traced run
    # samples every chain twice.
    n_chains = max(1, int(args.seconds / (wl.chain_seconds * (2 if traced else 1))))
    chains, setups = [], []
    for index in range(n_chains):
        if not traced:
            setups += [setup_probe(wl) for _ in range(PROBES)]
        chains.append(run_chain(wl, index, args.out, traced, gates))
        if chains[-1]["error"]:
            break
    if not traced:
        setups += [setup_probe(wl) for _ in range(PROBES)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    sampling = sum(c["seconds"] for c in chains)
    attempted = wl.iterations * len(chains)
    # Median over blocks of the block time in reference-kernel units,
    # converted to milliseconds of the reference host.
    paces = np.concatenate([c["paces"] for c in chains])
    ms_per_sweep = (1000.0 * REF_S * float(np.median(paces)) / BLOCK if paces.size
                    else 1000.0 * sampling / attempted)
    setup_samples = [REF_S * seconds / ref for seconds, ref in setups]
    io_s = [c["io_s"] for c in chains]
    result = {"workload": wl.name, "seed": wl.seed, "chains": len(chains),
              "iterations": wl.iterations, "burn_in": wl.burn_in,
              "attempted": attempted, "failed": sum(c["failed"] for c in chains),
              "ms_per_sweep": ms_per_sweep, "sampling_s": sampling,
              "setup_samples": setup_samples,
              "setup_wall_s": [seconds for seconds, _ in setups],
              "write_s": statistics.median(csv + meta for csv, meta, _, _ in io_s),
              "diagnose_s": statistics.median(read + band for _, _, read, band in io_s),
              "peak_rss_mb": peak_rss_mb}
    complete = [c for c in chains if not c["error"]]
    if complete:
        draws, ess_by_name, ess_min = ess_summary(wl, [c["draws"] for c in complete])
        beta_moves = tuple(sum(c["beta_moves"][i] for c in complete) for i in (0, 1))
        gates.pooled(wl, draws, ess_by_name, beta_moves)
        # ESS per second of sampling on the reference host
        result.update(ess_min=ess_min, ess_per_s=ess_min / (attempted * ms_per_sweep / 1000.0),
                      ess={k: round(v, 3) for k, v in ess_by_name.items()})
    if traced and any("trace" in c for c in chains):
        import tracer
        result["layers"] = tracer.layer_metrics(wl, chains, args.out, gates)
        result["layers"].update({"mcmc.run_mcmc.ess_per_s": result.get("ess_per_s", 0.0),
                                 "mcmc.run_mcmc.ess_min": result.get("ess_min", 0.0)})
    result["gate_failures"] = gates.failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
