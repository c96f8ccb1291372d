"""ESS-per-second benchmark of the gammasub sampler.

Run from the repository root:

    python3 bench/run.py --workload mixture --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

--trace 0 reports the end-to-end figures, --trace 1 the per-layer figures of
a traced run.  Every workload runs in fresh single-threaded interpreters
(bench/worker.py), one at a time.  The report names every figure with its
unit; the last line of standard output is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the metrics BENCHMARK.json lists for the mode.  With --workload all the
last line is instead one object that maps each workload name to its object.
The exit code is 1 when a correctness gate fails and 2 when the sources
cannot be found.  See bench/README.md for the workloads, the metrics and the
baseline.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("mixture", "binless", "beta_binned")
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

# Every end-to-end figure the report prints, as (result key, unit).
END_TO_END = [("ess_per_s", "1/s"), ("ess_min", "draws"), ("ms_per_sweep", "ms"),
              ("sampling_s", "s"), ("setup_s", "s"), ("write_s", "s"),
              ("diagnose_s", "s"), ("peak_rss_mb", "MB"), ("fail_rate", "ratio")]


def _worker(root: Path, workload: str, seed: int, mode: str, seconds: int, out: Path):
    """Launch one worker; returns (seconds until it is set up, stdout lines, code)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds), "--out", str(out)]
    env = dict(os.environ, **SINGLE_THREAD)
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        lines = [first] + proc.stdout.readlines()
        code = proc.wait()
    if first.strip() != "ready":
        setup = None
    return setup, [ln.rstrip("\n") for ln in lines if ln.strip()], code


def _bench_one(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    out = root / ".bench_out" / f"{workload}-{seed}-{'trace' if trace else 'run'}"
    shutil.rmtree(out, ignore_errors=True)
    setup, lines, code = _worker(root, workload, seed, "trace" if trace else "run",
                                 seconds, out)
    if setup is None or code != 0 or not lines:
        raise RuntimeError(f"{workload}: worker failed with exit code {code}")
    result = json.loads(lines[-1])
    if result["setup_samples"]:         # traced runs take no set-up probes
        result["setup_s"] = statistics.median(result["setup_samples"])
    result["fail_rate"] = result["failed"] / result["attempted"]
    return result


def _benchmark_metrics(trace: bool) -> list[dict]:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def _report(result: dict, trace: bool) -> dict:
    """Print the figures by name and unit; return the final JSON object."""
    name = result["workload"]
    print(f"== {name} (seed {result['seed']}, {result['chains']} chain(s) of "
          f"{result['iterations']} sweeps, burn-in {result['burn_in']})")
    for key, unit in END_TO_END:
        if key in result:
            print(f"{name:12s} {key:45s} {result[key]:14.6g} {unit}")
    for key in ("setup_samples", "setup_wall_s"):
        print(f"{name:12s} {key:45s} {[round(t, 4) for t in result[key]]} s")
    print(f"{name:12s} {'bulk-ESS by parameter':45s} {result.get('ess')}")
    metrics = {}
    for m in _benchmark_metrics(trace):
        value = result.get("layers", {}).get(m["name"]) if trace else result.get(m["name"])
        if value is None:           # a failed chain leaves nothing to measure
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if trace:
            print(f"{name:12s} {m['name']:45s} {value:14.6g} {m['unit']}")
    for failure in result["gate_failures"]:
        print(f"{name:12s} GATE FAILED: {failure}")
    return {"correct": not result["gate_failures"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = BENCH.parent
    if not (root / "src" / "gammasub" / "__init__.py").is_file():
        print(f"bench: no gammasub sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = {}
    for workload in names:
        try:
            result = _bench_one(root, workload, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        outcomes[workload] = _report(result, bool(args.trace))
    print(json.dumps(outcomes if args.workload == "all" else outcomes[args.workload]))
    return 0 if all(o["correct"] for o in outcomes.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
