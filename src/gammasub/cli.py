"""Batch command line interface.

Subcommands:
    simulate  - generate two-component Gamma mixture observations + truth file
    ingest    - aggregate a (date, loss) CSV into observations
    fit       - run the sampler, writing chain.csv and meta.json
    diagnose  - turn chain.csv into trace/band/histogram CSV and SVG files
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import diagnostics
from .config import load_config
from .data import (
    ingest_losses,
    read_observations_csv,
    synth_two_gamma,
    write_observations_csv,
)
from .exceptions import ConfigError, GammasubError
from .mcmc import active_segments, read_chain_csv, run_mcmc, write_chain_csv, write_meta_json


def _add_simulate(sub):
    p = sub.add_parser("simulate", help="simulate a sum of two Gamma processes")
    p.add_argument("--a1", type=float, default=2.0, help="tilt rate of component 1")
    p.add_argument("--b1", type=float, default=0.4, help="activity rate of component 1")
    p.add_argument("--a2", type=float, default=0.2, help="tilt rate of component 2")
    p.add_argument("--b2", type=float, default=0.04, help="activity rate of component 2")
    p.add_argument("--horizon", type=float, default=2000.0, help="terminal time")
    p.add_argument("--n", type=int, default=10000, help="number of observations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="observations CSV path")
    p.add_argument("--truth-out", default=None, help="truth descriptor JSON path")
    p.set_defaults(func=cmd_simulate)


def cmd_simulate(args) -> int:
    obs, truth = synth_two_gamma(args.a1, args.b1, args.a2, args.b2,
                                 args.horizon, args.n, args.seed)
    absorbed = int(np.sum(np.diff(obs.values) == 0.0))
    if absorbed:
        print(f"warning: {absorbed} increments fall below the float resolution of the "
              "cumulative values and are lost in the CSV rendering; use fewer or "
              "coarser observations for a file-based workflow", file=sys.stderr)
    with open(args.out, "w") as fh:
        write_observations_csv(obs, fh)
    truth_path = args.truth_out or str(Path(args.out).with_suffix(".truth.json"))
    with open(truth_path, "w") as fh:
        json.dump({
            "alpha1": truth.alpha1, "beta1": truth.beta1,
            "alpha2": truth.alpha2, "beta2": truth.beta2,
            "alpha_bar": truth.alpha_bar, "beta_bar": truth.beta_bar,
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out} ({obs.n_increments} increments) and {truth_path}")
    return 0


def _add_ingest(sub):
    p = sub.add_parser("ingest", help="aggregate a date,loss CSV into observations")
    p.add_argument("losses", help="input CSV with header 'date,loss'")
    p.add_argument("--aggregation", default="weekly",
                   help="window size: weekly, biweekly, or <k>w")
    p.add_argument("--out", required=True, help="observations CSV path")
    p.set_defaults(func=cmd_ingest)


def cmd_ingest(args) -> int:
    obs, report = ingest_losses(args.losses, args.aggregation)
    with open(args.out, "w") as fh:
        write_observations_csv(obs, fh)
    print(f"wrote {args.out}: {report.n_windows} windows from {report.n_rows} rows "
          f"({report.n_merged_windows} merged, {report.n_rejected} rejected)")
    if report.rejected_lines:
        print(f"rejected lines (loss < 1): {report.rejected_lines}", file=sys.stderr)
    print(report.boundary_note)
    return 0


def _add_fit(sub):
    p = sub.add_parser("fit", help="run the MCMC sampler")
    p.add_argument("--config", required=True, help="flat key-value config file")
    p.add_argument("--observations", required=True, help="time,value CSV")
    p.add_argument("--iterations", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=None,
                   help="default: 10%% of iterations")
    p.add_argument("--thinning", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_fit)


def cmd_fit(args) -> int:
    cfg = load_config(args.config)
    obs = read_observations_csv(args.observations)
    sweeps = run_mcmc(obs, cfg.params0, cfg.prior, cfg.proposal,
                      iterations=args.iterations, burn_in=args.burn_in,
                      thinning=args.thinning, seed=args.seed, m=cfg.refinement)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    records = list(sweeps)
    elapsed = time.perf_counter() - t0
    with open(out_dir / "chain.csv", "w") as fh:
        write_chain_csv(records, fh, cfg.params0.n_bins)
    echo = cfg.echo()
    echo.update({
        "observations": args.observations,
        "iterations": str(args.iterations),
        "burn_in": str(args.burn_in if args.burn_in is not None else args.iterations // 10),
        "thinning": str(args.thinning),
        "seed": str(args.seed),
    })
    # how many segments a sweep redraws, and their path acceptance; the others
    # are inert and always accepted (see refresh_segments)
    n, n_active = obs.n_increments, int(active_segments(obs.increments, cfg.params0.bin_edges).size)
    rates = [(n_active - n + round(r.accept_path_rate * n)) / n_active
             for r in records] if n_active else []
    segments = {"total": n, "refreshed": n_active,
                "refreshed_accept_rate": float(np.mean(rates)) if rates else None}
    with open(out_dir / "meta.json", "w") as fh:
        write_meta_json(fh, config_echo=echo, records=records,
                        extra={"runtime_seconds": round(elapsed, 3), "segments": segments})
    print(f"wrote {out_dir / 'chain.csv'} ({len(records)} records, {elapsed:.1f}s) "
          f"and {out_dir / 'meta.json'}")
    return 0


def _add_diagnose(sub):
    p = sub.add_parser("diagnose", help="figures and summaries from a chain file")
    p.add_argument("--chain", required=True, help="chain.csv from fit")
    p.add_argument("--config", required=True, help="config used for the fit")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--figures", default="trace,hist,band",
                   help="comma list from {trace,hist,band}")
    p.add_argument("--band-level", type=float, default=0.95)
    p.add_argument("--band-functional", default="theta_plus_alpha_x",
                   choices=diagnostics.FUNCTIONALS)
    p.add_argument("--x-min", type=float, default=0.1)
    p.add_argument("--x-max", type=float, default=5.0)
    p.add_argument("--x-points", type=int, default=50)
    p.add_argument("--hist-bins", type=int, default=40)
    p.set_defaults(func=cmd_diagnose)


def cmd_diagnose(args) -> int:
    figures = {f.strip() for f in args.figures.split(",") if f.strip()}
    unknown = sorted(figures - {"trace", "hist", "band"})
    if unknown:
        raise ConfigError(f"unknown figure(s) {', '.join(unknown)}; choose from trace, hist, band")
    cfg = load_config(args.config)
    with open(args.chain) as fh:
        records = read_chain_csv(fh)
    if not records:
        print("chain file holds no records", file=sys.stderr)
        return 1
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_bins = len(records[0].theta)
    iterations = np.array([r.iteration for r in records], dtype=float)

    series = {"alpha": np.array([r.alpha for r in records])}
    if cfg.prior.beta_is_random:
        series["beta"] = np.array([r.beta for r in records])
    for k in range(n_bins):
        series[f"theta_{k + 1}"] = np.array([r.theta[k] for r in records])
        series[f"rho_{k + 1}"] = np.array([r.rho[k] for r in records])

    written = []
    if "trace" in figures:
        for name, values in series.items():
            avg = diagnostics.running_average(values)
            with open(out_dir / f"trace_{name}.csv", "w") as fh:
                diagnostics.write_series_csv(
                    fh, {"iteration": iterations, name: values, "running_average": avg})
            with open(out_dir / f"trace_{name}.svg", "w") as fh:
                diagnostics.write_line_svg(fh, iterations,
                                           {name: values, "running avg": avg},
                                           title=f"trace of {name}",
                                           xlabel="iteration", ylabel=name)
            written.append(f"trace_{name}")
    if "hist" in figures:
        for name, values in series.items():
            edges, counts = diagnostics.histogram(values, args.hist_bins)
            centers = 0.5 * (edges[:-1] + edges[1:])
            with open(out_dir / f"hist_{name}.csv", "w") as fh:
                diagnostics.write_series_csv(
                    fh, {"bin_left": edges[:-1], "bin_right": edges[1:], "count": counts})
            with open(out_dir / f"hist_{name}.svg", "w") as fh:
                diagnostics.write_line_svg(fh, centers, {"count": counts.astype(float)},
                                           title=f"posterior of {name}",
                                           xlabel=name, ylabel="count")
            written.append(f"hist_{name}")
    if "band" in figures:
        spec = diagnostics.BandSpec(
            x_grid=np.linspace(args.x_min, args.x_max, args.x_points),
            level=args.band_level, functional=args.band_functional)
        edges = cfg.params0.bin_edges
        samples = [r.to_params(edges) for r in records]
        lo, hi = diagnostics.credible_band(samples, spec)
        with open(out_dir / "band.csv", "w") as fh:
            diagnostics.write_band_csv(fh, spec.x_grid, lo, hi)
        with open(out_dir / "band.svg", "w") as fh:
            diagnostics.write_line_svg(fh, spec.x_grid, {"lo": lo, "hi": hi},
                                       title=f"{int(args.band_level * 100)}% band, "
                                             f"{args.band_functional}",
                                       xlabel="x", ylabel="value")
        written.append("band")
    print(f"wrote {len(written)} figure(s) to {out_dir}: {', '.join(written)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammasub",
        description="Bayesian inference for Gamma-type subordinators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_simulate(sub)
    _add_ingest(sub)
    _add_fit(sub)
    _add_diagnose(sub)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GammasubError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
