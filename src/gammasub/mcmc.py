"""Metropolis-within-Gibbs sampler with bridge data augmentation.

Each sweep refreshes the latent path segments with Gamma bridge proposals,
then applies the scheduled parameter block updates: a joint correlated
random walk on (alpha, slopes, intercepts), and, when the activity rate is
declared random, a transdimensional move that superposes or thins every
segment and re-pins it to the observations.

Segments are held internally as an (n_segments, m) increment matrix, which
the row kernels of `paths` draw, pin and transform, with cached per-segment
bin statistics and their totals over all segments; all per-segment
randomness is drawn in fixed-layout blocks from dedicated splittable
streams, so the result is independent of the order in which segments are
processed.

A segment whose observed increment is below the first bin edge b_1 is
inert: every sub-step of its bridge lies in B_0, where theta is 0, so its
path log ratio is exactly 0 and a fresh bridge would always be accepted.
Nothing downstream reads that bridge.  The parameter move reads only the
segment's share of the total displacement S_0, which the data fix, and the
beta move's psi term reads only bins k >= 1, which augmenting or thinning
and re-pinning the segment cannot reach.  The refresh is an exact draw from
the path's conditional, so redrawing only the active segments keeps every
move's target, and the parameter chain's law, unchanged.  On a binless
model every segment is inert and the refresh draws nothing.
"""

import json
import math
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np
from scipy.special import gammaln

from .data import Observations
from .exceptions import ConfigError, ContractError, DomainError
from .likelihood import (BinStats, bin_masses, bin_stats_matrix, loglik_ratio_params,
                         loglik_ratio_path, psi_log)
from .model import ModelParams, PriorSpec, prior_logpdf
from .paths import GridPath, TimeGrid, augment_rows, bridge_rows, pin_rows, thin_rows

__all__ = [
    "ProposalSpec",
    "ChainState",
    "ChainRecord",
    "ParamTerms",
    "active_segments",
    "init_chain",
    "refresh_segments",
    "update_params",
    "update_beta",
    "run_mcmc",
    "reparam_view",
    "reparam_invert",
    "write_chain_csv",
    "read_chain_csv",
    "write_meta_json",
]

_STAGES = ("params", "beta")

# pin_rows can put a sub-step a few ulps above its row target, so a segment
# is active from this far (relative) below the first bin edge
_PIN_MARGIN = 1e-12


@dataclass(frozen=True)
class ProposalSpec:
    """Random-walk proposal scales and the per-sweep update schedule.

    update_schedule lists the block updated on each sweep, cycled; "params"
    is the joint correlated move, "beta" the transdimensional move.  When the
    schedule contains no explicit "beta" stage and beta is random, the beta
    move additionally runs every beta_move_period-th sweep.
    """

    sigma_alpha: float = 0.025
    sigma_theta: float = 0.025
    sigma_rho: float = 0.15
    sigma_beta: float = 0.01
    beta_move_period: int = 5
    update_schedule: tuple[str, ...] = ("params",)

    def __post_init__(self):
        object.__setattr__(self, "update_schedule", tuple(self.update_schedule))
        for name in ("sigma_alpha", "sigma_theta", "sigma_rho", "sigma_beta"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {v!r}")
        if int(self.beta_move_period) < 1:
            raise ConfigError(f"beta_move_period must be >= 1, got {self.beta_move_period}")
        object.__setattr__(self, "beta_move_period", int(self.beta_move_period))
        if not self.update_schedule:
            raise ConfigError("update_schedule must name at least one stage")
        for stage in self.update_schedule:
            if stage not in _STAGES:
                raise ConfigError(f"unknown update stage {stage!r}; expected one of {_STAGES}")


@dataclass
class ChainRecord:
    """One retained posterior sample with acceptance bookkeeping."""

    iteration: int
    alpha: float
    beta: float
    theta: tuple
    rho: tuple
    accept_path_rate: float
    accept_params: bool | None = None
    accept_beta: bool | None = None
    logr_params: float = math.nan
    logr_beta: float = math.nan

    def to_params(self, bin_edges) -> ModelParams:
        return ModelParams(self.alpha, self.beta, bin_edges,
                           np.asarray(self.theta), np.asarray(self.rho))


@dataclass(frozen=True)
class ParamTerms:
    """Log prior and bin masses of one parameter vector under one prior.

    The sampler keeps these for its current parameters, so that a move
    evaluates them only for its candidate; an accepted move hands over the
    candidate's terms.  ref_masses, the bin masses of the Gamma reference
    that psi_log subtracts, are needed only by the beta move.
    """

    params: ModelParams
    prior: PriorSpec
    log_prior: float
    masses: tuple[float, ...]
    ref_masses: tuple[float, ...] | None = None   # of the Gamma reference; filled by a beta move


@dataclass
class ChainState:
    """Mutable sampler state: parameters plus the augmented segments."""

    params: ModelParams
    obs: Observations
    grid: TimeGrid
    increments: np.ndarray              # (n_segments, m), rows sum to obs increments
    seg_sums: np.ndarray                # (n_segments, N+1) cached bin sums
    seg_counts: np.ndarray              # (n_segments, N+1) cached bin counts
    rng_path: np.random.Generator
    rng_accept: np.random.Generator
    rng_params: np.random.Generator
    rng_beta: np.random.Generator
    active: np.ndarray                  # indices of the segments the refresh redraws
    iteration: int = 0
    accept_path_rate: float = math.nan
    accept_params: bool | None = None
    accept_beta: bool | None = None
    logr_params: float = math.nan
    logr_beta: float = math.nan
    segment_accepts: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    terms: ParamTerms | None = None     # of params; filled by the first move that needs it
    totals: tuple | None = None         # (seg_sums, seg_counts, BinStats of their totals)

    @property
    def n_segments(self) -> int:
        return self.increments.shape[0]

    @property
    def m(self) -> int:
        return self.increments.shape[1]

    def sub_spans(self) -> np.ndarray:
        """Per-segment sub-step span h_i / m, shape (n_segments, 1)."""
        return (self.grid.spans / self.grid.m)[:, None]

    def total_stats(self) -> BinStats:
        """Bin sums and counts over all segments, reduced once per pair of segment arrays.

        The cache is keyed on the identity of seg_sums and seg_counts: a
        change of the segment statistics assigns new arrays, or, in the
        refresh, writes rows in place and clears the cache.
        """
        totals = self.totals
        if totals is None or totals[0] is not self.seg_sums or totals[1] is not self.seg_counts:
            totals = self.totals = (self.seg_sums, self.seg_counts,
                                    BinStats(self.seg_sums.sum(axis=0),
                                             self.seg_counts.sum(axis=0), self.grid.horizon))
        return totals[2]

    def segment_paths(self) -> list[GridPath]:
        """Materialize the segments as GridPath objects (diagnostic view)."""
        v = self.obs.values
        return [GridPath.pinned(self.grid.segment_grid(i), v[i], v[i + 1], self.increments[i])
                for i in range(self.n_segments)]

    def record(self) -> ChainRecord:
        return ChainRecord(
            iteration=self.iteration,
            alpha=self.params.alpha,
            beta=self.params.beta,
            theta=tuple(float(v) for v in self.params.theta_slopes),
            rho=tuple(float(v) for v in self.params.theta_intercepts),
            accept_path_rate=self.accept_path_rate,
            accept_params=self.accept_params,
            accept_beta=self.accept_beta,
            logr_params=self.logr_params,
            logr_beta=self.logr_beta,
        )


def _make_rngs(seed) -> tuple[np.random.Generator, ...]:
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return tuple(np.random.Generator(np.random.Philox(s)) for s in root.spawn(4))


def active_segments(deltas: np.ndarray, bin_edges: np.ndarray) -> np.ndarray:
    """Indices of the segments whose observed increment can reach a bin k >= 1.

    A segment is active when its increment is at least the first bin edge
    b_1, less a relative margin of 1e-12 for pin rounding.  Every sub-step of
    the other, inert, segments lies in B_0 whatever the bridge; a binless
    model has no active segment.
    """
    if bin_edges.size == 0:
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(deltas >= bin_edges[0] * (1.0 - _PIN_MARGIN))


def init_chain(obs: Observations, params0: ModelParams, grid: TimeGrid, seed) -> ChainState:
    """Build the starting state: Gamma bridges connecting the observations."""
    if not np.array_equal(grid.times, obs.times):
        raise ContractError("grid observation times must equal the data times")
    if obs.times[0] != 0.0:
        raise DomainError("observations must start at time 0")
    rng_path, rng_accept, rng_params, rng_beta = _make_rngs(seed)
    deltas = obs.increments
    shapes = params0.beta * (grid.spans / grid.m)[:, None]
    increments = bridge_rows(rng_path, shapes, deltas, grid.m)
    sums, counts = bin_stats_matrix(increments, params0.bin_edges)
    return ChainState(
        params=params0, obs=obs, grid=grid, increments=increments,
        seg_sums=sums, seg_counts=counts,
        rng_path=rng_path, rng_accept=rng_accept,
        rng_params=rng_params, rng_beta=rng_beta,
        active=active_segments(deltas, params0.bin_edges),
        segment_accepts=np.zeros(deltas.size, dtype=bool),
    )


def refresh_segments(state: ChainState) -> ChainState:
    """Propose a fresh Gamma bridge per active segment and accept independently.

    The acceptance for segment i compares the endpoint-matched path ratio to
    ln(U_i).  Noise and uniforms are drawn in one fixed-layout block over the
    active segments, so the decisions do not depend on the order in which
    segments are visited.  Accepted rows are written into the state's
    arrays in place.

    An inert segment (see active_segments) is not redrawn and is reported
    accepted, as the full refresh would report: its sub-steps all lie in
    B_0, where theta is 0, so its path ratio is exactly 0, which is >= ln(U)
    for every U in (0, 1).  Its fresh bridge would never be read: the
    parameter move sees only its share of the data-fixed total S_0, and psi
    reads only bins k >= 1, which the segment stays out of through every
    beta move's augment/thin and re-pin.  A binless model has no active
    segment, so its refresh draws nothing.
    """
    active = state.active
    accept = np.ones(state.n_segments, dtype=bool)
    n_rejected = 0
    if active.size:
        params = state.params
        proposal = bridge_rows(state.rng_path, params.beta * state.sub_spans()[active],
                               state.obs.increments[active], state.m)
        new_sums, new_counts = bin_stats_matrix(proposal, params.bin_edges)
        log_ratio = loglik_ratio_path(new_sums, new_counts, state.seg_sums[active],
                                      state.seg_counts[active], params)
        accepted = log_ratio >= np.log(state.rng_accept.uniform(size=active.size))
        n_rejected = active.size - int(np.count_nonzero(accepted))
        if n_rejected < active.size:
            rows = active[accepted]
            state.increments[rows] = proposal[accepted]
            state.seg_sums[rows] = new_sums[accepted]
            state.seg_counts[rows] = new_counts[accepted]
            state.totals = None
        accept[active] = accepted
    state.segment_accepts = accept
    # accept.mean() bit for bit (a quotient of exact counts), without reducing
    # the whole mask: a binless sweep takes tens of µs
    state.accept_path_rate = (accept.size - n_rejected) / accept.size
    return state


def reparam_view(params: ModelParams) -> tuple[float, float, float, float]:
    """Single-bin bijection to (alpha, beta, alpha + slope_1, beta*exp(-rho_1))."""
    if params.n_bins != 1:
        raise ContractError("reparameterised view requires exactly one bin")
    return (params.alpha, params.beta,
            params.alpha + float(params.theta_slopes[0]),
            params.beta * math.exp(-float(params.theta_intercepts[0])))


def reparam_invert(alpha: float, beta: float, alpha1: float, beta1: float,
                   bin_edges) -> ModelParams:
    """Inverse of reparam_view; beta1 must be positive."""
    if beta1 <= 0:
        raise DomainError(f"beta1 must be > 0, got {beta1}")
    return ModelParams(alpha, beta, bin_edges,
                       np.array([alpha1 - alpha]),
                       np.array([math.log(beta) - math.log(beta1)]))


def _propose_params(state: ChainState, prop: ProposalSpec, prior: PriorSpec) -> ModelParams | None:
    """Draw the joint correlated proposal; None when outside the model domain."""
    params = state.params
    rng = state.rng_params
    n = params.n_bins
    z_alpha = rng.normal()
    z_theta = rng.normal(size=n)
    z_rho = rng.normal(size=n)
    alpha_new = params.alpha + prop.sigma_alpha * z_alpha
    if alpha_new <= 0:
        return None
    if prior.reparam:
        _, _, alpha1, beta1 = reparam_view(params)
        alpha1_new = alpha1 + prop.sigma_theta * z_theta[0]
        beta1_new = beta1 + prop.sigma_rho * z_rho[0]
        if beta1_new <= 0:
            return None
        return reparam_invert(alpha_new, params.beta, alpha1_new, beta1_new, params.bin_edges)
    # slopes shift against the alpha move so slope_k + alpha is preserved
    theta_new = params.theta_slopes + prop.sigma_theta * z_theta - (alpha_new - params.alpha)
    rho_new = params.theta_intercepts + prop.sigma_rho * z_rho
    return params.with_updates(alpha=alpha_new, theta_slopes=theta_new,
                               theta_intercepts=rho_new)


def _current_terms(state: ChainState, prior: PriorSpec) -> ParamTerms:
    """The state's ParamTerms, evaluated if params or prior changed since."""
    terms = state.terms
    if terms is None or terms.params is not state.params or terms.prior is not prior:
        terms = state.terms = ParamTerms(state.params, prior, prior_logpdf(prior, state.params),
                                         bin_masses(state.params))
    return terms


def _reference_masses(params: ModelParams) -> tuple[float, ...]:
    """bin_masses of params' Gamma reference, which psi_log subtracts."""
    return bin_masses(params.gamma_reference()) if params.n_bins else ()


def update_params(state: ChainState, prop: ProposalSpec, prior: PriorSpec) -> ChainState:
    """Joint Metropolis update of alpha and the per-bin slopes/intercepts.

    The proposal is a symmetric Gaussian walk (with the correlated alpha
    shift), so acceptance uses the parameter likelihood ratio plus the prior
    log ratio only.  Out-of-support proposals are rejected through the -inf
    prior; candidates with a non-integrable tail are rejected outright.  A
    NaN log ratio raises ContractError.
    """
    state.accept_params = False
    state.logr_params = -math.inf
    candidate = _propose_params(state, prop, prior)
    if candidate is None or not candidate.tail_integrable:
        return state
    lp_new = prior_logpdf(prior, candidate)
    if lp_new == -math.inf:
        return state
    current = _current_terms(state, prior)
    masses = bin_masses(candidate)
    stats = state.total_stats()
    log_ratio = float(loglik_ratio_params(stats, state.params, candidate, current.masses, masses)
                      + lp_new - current.log_prior)
    state.logr_params = log_ratio
    if math.isnan(log_ratio):       # a numerical fault, not a rejection; -inf rejects
        raise ContractError(f"parameter move gave a NaN log ratio at sweep {state.iteration}")
    if log_ratio >= math.log(state.rng_params.uniform()):
        state.params = candidate
        state.terms = ParamTerms(candidate, prior, lp_new, masses)
        state.accept_params = True
    return state


def update_beta(state: ChainState, prop: ProposalSpec, prior: PriorSpec) -> ChainState:
    """Transdimensional activity-rate move with segment transform and re-pin.

    Proposes beta° from a symmetric walk; raises every segment's activity by
    superposing an independent Gamma component (beta° > beta) or lowers it by
    Beta thinning (beta° < beta), re-pins each transformed segment to the
    observations, and accepts jointly with the prior ratio, the Gamma
    density ratio at the observed increments, and the path log-density ratio
    against the respective Gamma references.  A segment that thins to zero
    total cannot be re-pinned, so such a proposal is rejected.  A NaN log
    ratio raises ContractError.
    """
    if not prior.beta_is_random:
        raise ConfigError("beta is fixed by the prior; the beta move is unavailable")
    state.accept_beta = False
    state.logr_beta = -math.inf
    params = state.params
    rng = state.rng_beta
    beta_new = params.beta + prop.sigma_beta * rng.normal()
    if beta_new <= 0:
        return state
    candidate = params.with_updates(beta=beta_new)
    lp_new = prior_logpdf(prior, candidate)
    current = _current_terms(state, prior)
    lp_diff = lp_new - current.log_prior
    if lp_diff == -math.inf:
        return state

    sub = state.sub_spans()
    if beta_new > params.beta:
        transformed = augment_rows(rng, state.increments, sub, params.beta, beta_new, params.alpha)
    elif beta_new < params.beta:
        transformed = thin_rows(rng, state.increments, sub, params.beta, beta_new)
    else:
        transformed = state.increments
    repinned, collapsed = pin_rows(transformed, state.obs.increments)
    if collapsed.any():
        return state
    new_sums, new_counts = bin_stats_matrix(repinned, params.bin_edges)

    spans = state.grid.spans
    deltas = state.obs.increments
    shape_old = params.beta * spans
    shape_new = beta_new * spans
    ptilde_diff = float(
        np.sum((shape_new - shape_old) * (math.log(params.alpha) + np.log(deltas)))
        - np.sum(gammaln(shape_new) - gammaln(shape_old))
    )
    if current.ref_masses is None:
        current = state.terms = replace(current, ref_masses=_reference_masses(params))
    masses = bin_masses(candidate)
    ref_masses = _reference_masses(candidate)
    new_stats = BinStats(new_sums.sum(axis=0), new_counts.sum(axis=0), state.grid.horizon)
    psi_diff = (psi_log(new_stats, candidate, masses, ref_masses)
                - psi_log(state.total_stats(), params, current.masses, current.ref_masses))
    log_ratio = float(lp_diff + ptilde_diff + psi_diff)
    state.logr_beta = log_ratio
    if math.isnan(log_ratio):
        raise ContractError(f"beta move gave a NaN log ratio at sweep {state.iteration}")
    if log_ratio >= math.log(rng.uniform()):
        state.params = candidate
        state.terms = ParamTerms(candidate, prior, lp_new, masses, ref_masses)
        state.increments = repinned
        state.seg_sums = new_sums
        state.seg_counts = new_counts
        state.totals = (new_sums, new_counts, new_stats)
        state.accept_beta = True
    return state


def _validate_run(params0: ModelParams, prior: PriorSpec, prop: ProposalSpec,
                  iterations: int, burn_in: int, thinning: int) -> None:
    if prior.n_bins != params0.n_bins:
        raise ConfigError(
            f"prior covers {prior.n_bins} bins but the model has {params0.n_bins}"
        )
    if prior.reparam and params0.n_bins != 1:
        raise ConfigError("reparameterised mode requires exactly one bin")
    if "beta" in prop.update_schedule and not prior.beta_is_random:
        raise ConfigError("schedule contains a beta stage but the prior fixes beta")
    if iterations < 0 or burn_in < 0 or iterations < burn_in:
        raise ConfigError(
            f"need iterations >= burn_in >= 0, got ({iterations}, {burn_in})"
        )
    if thinning < 1:
        raise ConfigError(f"thinning must be >= 1, got {thinning}")
    if not params0.tail_integrable:
        raise ConfigError("initial parameters violate the tail constraint")
    if prior_logpdf(prior, params0) == -math.inf:
        raise ConfigError("initial parameters have zero prior density")


def run_mcmc(obs: Observations, params0: ModelParams, prior: PriorSpec,
             prop: ProposalSpec, iterations: int, burn_in: int | None = None,
             thinning: int = 1, seed=0, m: int = 10,
             grid: TimeGrid | None = None) -> Iterator[ChainRecord]:
    """Run the sampler and yield one ChainRecord per retained iteration.

    Every sweep refreshes the active segments (none on a binless model, see
    refresh_segments), then runs the scheduled block update;
    when no explicit beta stage is scheduled and beta is random, the beta
    move additionally fires every beta_move_period-th sweep.  burn_in
    defaults to 10 percent of iterations; records are emitted post burn-in
    at the thinning stride.  Fully deterministic given the seed.
    """
    if burn_in is None:
        burn_in = iterations // 10
    _validate_run(params0, prior, prop, iterations, burn_in, thinning)
    if grid is None:
        grid = TimeGrid(obs.times, m)
    state = init_chain(obs, params0, grid, seed)
    periodic_beta = prior.beta_is_random and "beta" not in prop.update_schedule
    n_stages = len(prop.update_schedule)
    for t in range(1, iterations + 1):
        state.iteration = t
        state.accept_params = None
        state.accept_beta = None
        state.logr_params = math.nan
        state.logr_beta = math.nan
        refresh_segments(state)
        stage = prop.update_schedule[(t - 1) % n_stages]
        if stage == "params":
            update_params(state, prop, prior)
        else:
            update_beta(state, prop, prior)
        if periodic_beta and t % prop.beta_move_period == 0:
            update_beta(state, prop, prior)
        if t > burn_in and (t - burn_in) % thinning == 0:
            yield state.record()


def _fmt_opt_bool(v: bool | None) -> str:
    return "" if v is None else str(int(v))


def _fmt_opt_float(v: float) -> str:
    return "" if math.isnan(v) else repr(float(v))


def chain_csv_header(n_bins: int) -> str:
    cols = ["iteration", "alpha", "beta"]
    cols += [f"theta_{k}" for k in range(1, n_bins + 1)]
    cols += [f"rho_{k}" for k in range(1, n_bins + 1)]
    cols += ["accept_path_rate", "accept_params", "accept_beta",
             "logr_params", "logr_beta"]
    return ",".join(cols)


def write_chain_csv(records, stream, n_bins: int) -> None:
    """Serialize chain records; full double precision, one row per record."""
    stream.write(chain_csv_header(n_bins) + "\n")
    for r in records:
        row = [str(r.iteration), repr(r.alpha), repr(r.beta)]
        row += [repr(v) for v in r.theta]
        row += [repr(v) for v in r.rho]
        row += [repr(r.accept_path_rate), _fmt_opt_bool(r.accept_params),
                _fmt_opt_bool(r.accept_beta), _fmt_opt_float(r.logr_params),
                _fmt_opt_float(r.logr_beta)]
        stream.write(",".join(row) + "\n")


def read_chain_csv(stream) -> list[ChainRecord]:
    header = stream.readline().strip().split(",")
    n_bins = sum(1 for c in header if c.startswith("theta_"))
    records = []
    for line in stream:
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        it = int(parts[0])
        alpha, beta = float(parts[1]), float(parts[2])
        theta = tuple(float(v) for v in parts[3:3 + n_bins])
        rho = tuple(float(v) for v in parts[3 + n_bins:3 + 2 * n_bins])
        tail = parts[3 + 2 * n_bins:]
        records.append(ChainRecord(
            iteration=it, alpha=alpha, beta=beta, theta=theta, rho=rho,
            accept_path_rate=float(tail[0]),
            accept_params=None if tail[1] == "" else bool(int(tail[1])),
            accept_beta=None if tail[2] == "" else bool(int(tail[2])),
            logr_params=math.nan if tail[3] == "" else float(tail[3]),
            logr_beta=math.nan if tail[4] == "" else float(tail[4]),
        ))
    return records


def write_meta_json(stream, *, config_echo: dict, records: list[ChainRecord],
                    extra: dict | None = None) -> None:
    """Write the run manifest: config echo plus acceptance-rate summaries."""
    def _rate(flags):
        attempted = [f for f in flags if f is not None]
        return float(np.mean([bool(f) for f in attempted])) if attempted else None

    meta = {
        "config": config_echo,
        "n_records": len(records),
        "acceptance": {
            "path_refresh_mean_rate": float(np.mean([r.accept_path_rate for r in records]))
            if records else None,
            "params_rate": _rate([r.accept_params for r in records]),
            "beta_rate": _rate([r.accept_beta for r in records]),
        },
    }
    if extra:
        meta.update(extra)
    json.dump(meta, stream, indent=2, sort_keys=True)
    stream.write("\n")
