"""Per-layer tracing of the sampler from outside the library.

`Tracer` rebinds the public names where their callers look them up, so
`run_mcmc` runs unmodified while every call to a traced layer becomes a span
(name, start, end, parent).  init_chain is wrapped so that it swaps the
state's four Generators for proxies that time gamma/beta/uniform/normal per
stream; the proxies delegate to the same Generator objects, so the traced
chain is byte-identical to the untraced one.  Spans are kept in memory,
reduced to per-layer figures with numpy at the end and written out as .npz.

A span's self time is its duration minus the durations of its children.
"""

import math
import time
from array import array

import numpy as np

from gammasub import likelihood, mcmc, model, paths
from gammasub.model import ModelParams

# (module, attribute, span name): layers rebound where their caller looks them up
_REBIND = [
    (mcmc, "refresh_segments", "mcmc.refresh_segments"),
    (mcmc, "update_params", "mcmc.update_params"),
    (mcmc, "update_beta", "mcmc.update_beta"),
    (mcmc, "bin_stats_matrix", "likelihood.bin_stats_matrix"),
    (mcmc, "loglik_ratio_params", "likelihood.loglik_ratio_params"),
    (mcmc, "psi_log", "likelihood.psi_log"),
    (mcmc, "prior_logpdf", "model.prior_logpdf"),
    (likelihood, "compensator_diff", "likelihood.compensator_diff"),
    (likelihood, "nu_bin_mass", "model.nu_bin_mass"),
    (likelihood, "nu_diff_bin0", "model.nu_diff_bin0"),
    (model, "exp_integral_e1", "specfun.exp_integral_e1"),
    (ModelParams, "with_updates", "model.ModelParams.with_updates"),
]
# The GridPath transforms; the sampler is expected never to call them.
_PATH_FUNCS = ("sample_gamma_bridge", "gamma_bridge", "augment_path", "thin_path")
_STREAMS = ("rng_path", "rng_accept", "rng_params", "rng_beta")
_RNG_METHODS = ("gamma", "beta", "uniform", "normal")
SWEEP_ROOTS = ("mcmc.refresh_segments", "mcmc.update_params", "mcmc.update_beta")


class _TimedGenerator:
    """Delegates to a Generator; the sampler's four draw methods are spans."""

    def __init__(self, gen, stream: str, tracer: "Tracer"):
        self._gen = gen
        for method in _RNG_METHODS:
            setattr(self, method, tracer.wrap(f"mcmc.{stream}.{method}", getattr(gen, method)))

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """Context manager: installs the span wrappers and restores on exit."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")          # elements handled, for bin_stats_matrix
        self._stack: list[int] = []
        self.states = []                # every ChainState built while tracing
        self._saved = []

    def wrap(self, name: str, fn, measure_size: bool = False):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, ids, parents, starts, ends, sizes = (
            self._stack, self.name_id, self.parent, self.start, self.end, self.size)
        clock = time.perf_counter

        def span(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            sizes.append(args[0].size if measure_size else 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
        return span

    def _rebind(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self):
        for owner, attr, name in _REBIND:
            self._rebind(owner, attr, self.wrap(name, owner.__dict__[attr],
                                                measure_size=attr == "bin_stats_matrix"))
        for fname in _PATH_FUNCS:
            self._rebind(paths, fname, self.wrap(f"paths.{fname}", paths.__dict__[fname]))
        timed_init = self.wrap("mcmc.init_chain", mcmc.init_chain)

        def init_chain(*args, **kwargs):
            state = timed_init(*args, **kwargs)
            for stream in _STREAMS:
                setattr(state, stream, _TimedGenerator(getattr(state, stream), stream, self))
            self.states.append(state)
            return state

        self._rebind(mcmc, "init_chain", init_chain)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def arrays(self) -> dict:
        return {"names": np.array(self.names), "name_id": np.frombuffer(self.name_id, np.int32),
                "parent": np.frombuffer(self.parent, np.int32),
                "start": np.frombuffer(self.start), "end": np.frombuffer(self.end),
                "size": np.frombuffer(self.size, np.int64)}


def _self_times(a: dict) -> np.ndarray:
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - child


def _roots(a: dict) -> np.ndarray:
    """Name of the outermost span above each span."""
    parent = a["parent"].tolist()
    root = list(range(len(parent)))
    for i, p in enumerate(parent):      # parents precede children
        if p >= 0:
            root[i] = root[p]
    return a["name_id"][root]


class _Totals:
    """Per-layer sums over the sweeps of every traced chain."""

    def __init__(self):
        self.calls, self.self_s, self.size = {}, {}, {}
        self.sweeps = 0
        self.gaps = []
        self.root_s = 0.0
        self.init_s = []

    def add(self, tr: Tracer, iterations: int) -> None:
        a = tr.arrays()
        names = list(a["names"])
        self_t = _self_times(a)
        in_sweep = np.isin(_roots(a), [names.index(n) for n in SWEEP_ROOTS if n in names])
        for nid, name in enumerate(names):
            sel = in_sweep & (a["name_id"] == nid)
            self.calls[name] = self.calls.get(name, 0) + int(sel.sum())
            self.self_s[name] = self.self_s.get(name, 0.0) + float(self_t[sel].sum())
            self.size[name] = self.size.get(name, 0) + int(a["size"][sel].sum())
        top = in_sweep & (a["parent"] < 0)
        self.root_s += float((a["end"] - a["start"])[top].sum())
        refresh = a["start"][a["name_id"] == names.index("mcmc.refresh_segments")]
        self.gaps.extend(np.diff(refresh))
        init = a["name_id"] == names.index("mcmc.init_chain")
        self.init_s.extend((a["end"] - a["start"])[init])
        self.sweeps += iterations

    def per_sweep_ms(self, name: str) -> float:
        return 1000.0 * self.self_s.get(name, 0.0) / self.sweeps

    def calls_per_sweep(self, name: str) -> float:
        return self.calls.get(name, 0) / self.sweeps


def _ratio(num: float, den: float) -> float:
    """num / den, and 0 when nothing was attempted."""
    return num / den if den else 0.0


def check_final_state(state, gates, index: int) -> None:
    """Rows pin to the observations; the cached bin statistics are current."""
    rows = state.increments.sum(axis=1)
    deltas = state.obs.increments
    gates.check(bool(np.all(np.abs(rows - deltas) <= 1e-9 * np.abs(deltas))),
                f"traced chain {index}: an increment row does not sum to its observation")
    sums, counts = likelihood.bin_stats_matrix(state.increments, state.params.bin_edges)
    gates.check(np.array_equal(sums, state.seg_sums) and np.array_equal(counts, state.seg_counts),
                f"traced chain {index}: cached seg_sums/seg_counts differ from bin_stats_matrix")


def layer_metrics(wl, chains, out, gates) -> dict:
    """Per-layer figures over every traced chain, plus the tracer self-checks."""
    totals = _Totals()
    acc = {"path": [0, 0], "params": [0, 0], "beta": [0, 0]}
    domain_rejects = 0
    untraced_s = traced_s = 0.0
    for i, c in enumerate(chains):
        if "trace" not in c:
            continue
        tr = c["trace"]
        np.savez(out / f"spans_{i}.npz", **tr.arrays())
        totals.add(tr, wl.iterations)
        untraced_s += c["seconds"]
        traced_s += c["traced_seconds"]
        for state in tr.states:
            check_final_state(state, gates, i)
        for r in c["traced_records"]:
            acc["path"][0] += round(r.accept_path_rate * wl.obs.n_increments)
            acc["path"][1] += wl.obs.n_increments
            for key, flag, logr in (("params", r.accept_params, r.logr_params),
                                    ("beta", r.accept_beta, r.logr_beta)):
                if flag is not None:
                    acc[key][0] += flag
                    acc[key][1] += 1
                    domain_rejects += key == "params" and logr == -math.inf
    io_ms = 1000.0 * np.median([c["io_s"] for c in chains], axis=0)

    t = totals
    bsm = "likelihood.bin_stats_matrix"
    m = {
        "mcmc.refresh_segments.self_ms_per_sweep": t.per_sweep_ms("mcmc.refresh_segments"),
        "mcmc.refresh_segments.accept_ratio": _ratio(*acc["path"]),
        "mcmc.update_params.self_ms_per_sweep": t.per_sweep_ms("mcmc.update_params"),
        "mcmc.update_params.accept_ratio": _ratio(*acc["params"]),
        "mcmc.update_params.domain_rejects": domain_rejects,
        "mcmc.update_beta.self_ms_per_sweep": t.per_sweep_ms("mcmc.update_beta"),
        "mcmc.update_beta.calls_per_sweep": t.calls_per_sweep("mcmc.update_beta"),
        "mcmc.update_beta.accept_ratio": _ratio(*acc["beta"]),
        "mcmc.rng_path.gamma.self_ms_per_sweep": t.per_sweep_ms("mcmc.rng_path.gamma"),
        "mcmc.rng_path.gamma.calls_per_sweep": t.calls_per_sweep("mcmc.rng_path.gamma"),
        "mcmc.rng_beta.gamma.self_ms_per_sweep": t.per_sweep_ms("mcmc.rng_beta.gamma"),
        "mcmc.rng_beta.beta.self_ms_per_sweep": t.per_sweep_ms("mcmc.rng_beta.beta"),
        "mcmc.rng_accept.uniform.self_ms_per_sweep": t.per_sweep_ms("mcmc.rng_accept.uniform"),
        "mcmc.init_chain.ms": 1000.0 * float(np.median(t.init_s)),
        "mcmc.write_chain_csv.ms": float(io_ms[0]),
        "mcmc.write_chain_csv.bytes": float(np.median([c["bytes"] for c in chains])),
        "mcmc.read_chain_csv.ms": float(io_ms[2]),
        "mcmc.sweep.ms_p50": 1000.0 * float(np.percentile(t.gaps, 50)),
        "mcmc.sweep.ms_p99": 1000.0 * float(np.percentile(t.gaps, 99)),
        "mcmc.sweep.samples": len(t.gaps),
        f"{bsm}.self_ms_per_sweep": t.per_sweep_ms(bsm),
        f"{bsm}.calls_per_sweep": t.calls_per_sweep(bsm),
        f"{bsm}.ns_per_element": 1e9 * _ratio(t.self_s.get(bsm, 0.0), t.size.get(bsm, 0)),
    }
    for name in ("likelihood.loglik_ratio_params", "likelihood.compensator_diff",
                 "likelihood.psi_log"):
        m[f"{name}.self_ms_per_sweep"] = t.per_sweep_ms(name)
    for name in ("model.nu_bin_mass", "model.nu_diff_bin0", "model.prior_logpdf",
                 "specfun.exp_integral_e1"):
        m[f"{name}.calls_per_sweep"] = t.calls_per_sweep(name)
        m[f"{name}.self_ms_per_sweep"] = t.per_sweep_ms(name)
    m["model.ModelParams.with_updates.calls_per_sweep"] = t.calls_per_sweep(
        "model.ModelParams.with_updates")
    m["paths.calls_per_sweep"] = sum(t.calls_per_sweep(f"paths.{f}") for f in _PATH_FUNCS)
    m["diagnostics.credible_band.ms"] = float(io_ms[3])
    m["trace.overhead_ms_per_sweep"] = 1000.0 * (traced_s - untraced_s) / t.sweeps
    m["trace.unaccounted_ms_per_sweep"] = (
        1000.0 * (traced_s - t.root_s - sum(t.init_s)) / t.sweeps)
    return m
