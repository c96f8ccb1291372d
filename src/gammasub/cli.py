"""Batch command line interface.

Subcommands:
    simulate  - generate two-component Gamma mixture observations + truth file
    ingest    - aggregate a (date, loss) CSV into observations
    fit       - run the sampler, writing chain.csv and meta.json
    diagnose  - turn chain.csv into trace, histogram and band CSV tables
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import diagnostics
from .chain import MoveTally, read_chain_csv, write_chain_csv, write_meta_json
from .config import _floats, load_config
from .data import (
    ingest_losses,
    read_observations_csv,
    synth_two_gamma,
    write_observations_csv,
)
from .exceptions import ConfigError, DataError, GammasubError
from .mcmc import active_segments, checked_burn_in, run_mcmc


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
        # fit rejects a file whose values do not strictly increase
        raise DataError(f"{absorbed} increments fall below the float resolution of the "
                        "cumulative values and would be lost in the CSV rendering; use fewer "
                        "or coarser observations for a file-based workflow")
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
          f"({report.n_merged_windows} merged, {report.n_rejected} rejected, "
          f"{report.n_dropped} dropped after the last positive window)")
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
    if args.thinning < 1:
        raise ConfigError(f"thinning must be >= 1, got {args.thinning}")
    burn_in = checked_burn_in(args.iterations, args.burn_in)
    # run_mcmc yields every sweep: one tally counts the burn-in sweeps, the
    # other every sweep after, thinned-out moves too, and this loop alone
    # drops burn-in and thins what chain.csv keeps
    sweeps = run_mcmc(obs, cfg.params0, cfg.prior, cfg.proposal, iterations=args.iterations,
                      burn_in=0, seed=args.seed, m=cfg.refinement)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # the segments a sweep redraws, whose path rate the tallies report apart
    n, n_active = obs.n_increments, int(active_segments(obs.increments, cfg.params0.bin_edges).size)
    t0 = time.perf_counter()
    records, tally = [], MoveTally(n_segments=n, n_active=n_active)
    burn_in_tally = MoveTally(n_segments=n, n_active=n_active)
    for r in sweeps:
        if r.iteration <= burn_in:
            burn_in_tally.add(r)
            continue
        tally.add(r)
        if (r.iteration - burn_in) % args.thinning == 0:
            records.append(r)
    elapsed = time.perf_counter() - t0
    with open(out_dir / "chain.csv", "w") as fh:
        write_chain_csv(records, fh, cfg.params0.n_bins)
    echo = cfg.echo()
    echo.update({
        "observations": args.observations,
        "iterations": str(args.iterations),
        "burn_in": str(burn_in),
        "thinning": str(args.thinning),
        "seed": str(args.seed),
    })
    segments = {"total": n, "refreshed": n_active}
    with open(out_dir / "meta.json", "w") as fh:
        write_meta_json(fh, config_echo=echo, records=records, tally=tally,
                        extra={"runtime_seconds": round(elapsed, 3), "segments": segments,
                               "burn_in_acceptance": burn_in_tally.acceptance()})
    print(f"wrote {out_dir / 'chain.csv'} ({len(records)} records, {elapsed:.1f}s) "
          f"and {out_dir / 'meta.json'}")
    return 0


def _add_diagnose(sub):
    p = sub.add_parser("diagnose", help="trace, histogram and band tables from a chain file")
    p.add_argument("--chain", required=True, help="chain.csv beside the fit's meta.json")
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


def _read_manifest(chain: Path) -> tuple[tuple, bool]:
    """The bin edges and whether beta was sampled (a beta_prior is set) in the
    config echo of the fit's manifest beside the chain: <stem>.meta.json, as
    the benchmark writes it, else meta.json, as `gammasub fit` writes it."""
    metas = (chain.with_suffix(".meta.json"), chain.with_name("meta.json"))
    meta = next((m for m in metas if m.is_file()), None)
    if meta is None:
        raise DataError(f"neither {metas[0].name} nor {metas[1].name} lies beside {chain}: "
                        "diagnose reads the fit's config echo from its manifest")
    try:
        echo = json.loads(meta.read_text(encoding="utf-8-sig"))["config"]
        edges = echo.get("bin_edges", "")
    except (ValueError, LookupError, TypeError, AttributeError):
        raise DataError(f"{meta} holds no config echo") from None
    # outside the try: _floats' ConfigError, a ValueError, names the malformed edge
    return _floats(str(edges), "bin_edges"), "beta_prior" in echo


def cmd_diagnose(args) -> int:
    figures = {f.strip() for f in args.figures.split(",") if f.strip()}
    if not figures:
        raise ConfigError("--figures names no figure")
    unknown = sorted(figures - {"trace", "hist", "band"})
    if unknown:
        raise ConfigError(f"unknown figure(s) {', '.join(unknown)}; choose from trace, hist, band")
    bin_edges, random_beta = _read_manifest(Path(args.chain))
    with open(args.chain, encoding="utf-8-sig") as fh:
        records = read_chain_csv(fh)
    if not records:
        raise DataError("chain file holds no records")
    n_bins = len(records[0].theta)
    if n_bins != len(bin_edges):
        raise DataError(f"the chain has {n_bins} bins but its manifest's bin edges "
                        f"{list(bin_edges)} make {len(bin_edges)}")
    iterations = np.array([r.iteration for r in records], dtype=float)

    series = {"alpha": np.array([r.alpha for r in records])}
    if random_beta:                 # drawn even where beta never moved
        series["beta"] = np.array([r.beta for r in records])
    for k in range(n_bins):
        series[f"theta_{k + 1}"] = np.array([r.theta[k] for r in records])
        series[f"rho_{k + 1}"] = np.array([r.rho[k] for r in records])

    # every table is computed, and so every input checked, before the output
    # directory is made: name -> CSV columns
    tables = {}
    if "trace" in figures:
        for name, values in series.items():
            tables[f"trace_{name}"] = {"iteration": iterations, name: values,
                                      "running_average": diagnostics.running_average(values)}
    if "hist" in figures:
        for name, values in series.items():
            edges, counts = diagnostics.histogram(values, args.hist_bins)
            tables[f"hist_{name}"] = {"bin_left": edges[:-1], "bin_right": edges[1:],
                                     "count": counts}
    if "band" in figures:
        if args.x_points < 1:
            raise ConfigError(f"x-points must be >= 1, got {args.x_points}")
        spec = diagnostics.BandSpec(
            x_grid=np.linspace(args.x_min, args.x_max, args.x_points),
            level=args.band_level, functional=args.band_functional)
        lo, hi = diagnostics.credible_band([r.to_params(bin_edges) for r in records], spec)
        tables["band"] = {"x": spec.x_grid, "lo": lo, "hi": hi}

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, columns in tables.items():
        with open(out_dir / f"{name}.csv", "w") as fh:
            diagnostics.write_series_csv(fh, columns)
    print(f"wrote {len(tables)} table(s) to {out_dir}: {', '.join(tables)}")
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
    except (GammasubError, OSError, UnicodeDecodeError) as exc:
        # a missing or unreadable file is bad input too, not a crash
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
