"""Metropolis-within-Gibbs sampler with bridge data augmentation.

Each sweep refreshes the latent path segments with Gamma bridge proposals,
then applies the scheduled parameter block update: a joint correlated
random walk on (alpha, slopes, intercepts), or, when the activity rate is
declared random, a transdimensional move that superposes or thins the
active segments and re-pins them to the observations.

Segments are held internally as an (n_segments, m) increment matrix, which
the row kernels of `paths` draw, pin and transform, with cached per-segment
bin statistics and their totals over all segments; all per-segment
randomness is drawn in fixed-layout blocks from dedicated splittable
streams, so the result is independent of the order in which segments are
processed.

A segment whose observed increment is below the first bin edge b_1 is
inert: every sub-step of its bridge lies in B_0, where theta is 0, so it
adds only constants to every acceptance ratio, its increment to S_0 and m
to C_0.  Its path log ratio is exactly 0, and the beta move's psi term
reads only bins k >= 1, which augmenting or thinning and re-pinning it
cannot reach.  init_chain draws every segment once and keeps the inert
ones' bin sums and counts as constants; after that only the active
segments move, which keeps every move's target, and the parameter chain's
law, unchanged.  On a binless model every segment is inert: the refresh
draws nothing and the beta move is its prior and Gamma-density ratio.

The state (ChainState) holds each fact once: the current parameters as the
floats of a likelihood.ParamTerms with their log prior, and the bin totals
as float and int lists.  Both parameter moves draw a candidate as Python
floats, check it for the model's domain and score it by PriorSpec.logpdf.
Its bin-mass terms (the masses, E1(alpha b_1) and the Gamma reference's
factors) come from one scipy.special.exp1 call in model.mass_factors; a
beta move needs none, as its candidate shares alpha and the slopes.  The
ratios are likelihood's param_log_ratio and psi_terms at the bin totals,
and an accepted candidate's terms become the state's.  No sweep builds
a ModelParams or a BinStats: those are the types of the API edge, and
ChainState.params builds the former on each read.  The beta move's Gamma
density ratio reads the data only through per-chain constants.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from scipy.special import gammaln

from .data import Observations
from .exceptions import ConfigError, ContractError, DataError, DomainError
# loglik_ratio_params and psi_log, the ModelParams views of the moves' ratios,
# stay names of this module, where bench/tracer.py rebinds them
from .likelihood import (ParamTerms, bin_stats_matrix, loglik_ratio_params,  # noqa: F401
                         loglik_ratio_path, param_log_ratio, psi_log, psi_terms)
from .model import ModelParams, PriorSpec, prior_logpdf
from .paths import TimeGrid, augment_rows, bridge_rows, pin_rows, thin_rows

__all__ = [
    "ProposalSpec",
    "ChainState",
    "ChainRecord",
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
    is the joint correlated move, "beta" the transdimensional move.  A model
    with random beta must name a "beta" stage: ("beta", "params", "params",
    "params", "params") runs one beta move per five sweeps.
    """

    sigma_alpha: float = 0.025
    sigma_theta: float = 0.025
    sigma_rho: float = 0.15
    sigma_beta: float = 0.01
    update_schedule: tuple[str, ...] = ("params",)

    def __post_init__(self):
        object.__setattr__(self, "update_schedule", tuple(self.update_schedule))
        for name in ("sigma_alpha", "sigma_theta", "sigma_rho", "sigma_beta"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {v!r}")
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


@dataclass
class ChainState:
    """Mutable sampler state: parameters plus the augmented segments.

    terms are the current parameters as the moves read them, the chain's
    bin edges among them, and log_prior their log prior under prior, the
    PriorSpec the last move was handed; a move handed another PriorSpec
    object rescores log_prior (score).  params builds a validated
    ModelParams from terms on each read.  total_sums and total_counts are
    the bin totals S_0..S_N and C_0..C_N over all segments, which
    write_rows keeps current.
    """

    terms: ParamTerms
    obs: Observations
    grid: TimeGrid
    increments: np.ndarray              # (n_segments, m), rows sum to obs increments
    seg_sums: np.ndarray                # (n_segments, N+1) cached bin sums
    seg_counts: np.ndarray              # (n_segments, N+1) cached bin counts
    rng_path: np.random.Generator
    rng_accept: np.random.Generator
    rng_params: np.random.Generator
    rng_beta: np.random.Generator
    active: np.ndarray                  # indices of the active segments, the only rows moved
    inert_sums: np.ndarray              # (N+1,) bin sums of the inert segments, fixed for the chain
    inert_counts: np.ndarray            # (N+1,) bin counts of the inert segments
    iteration: int = 0
    accept_path_rate: float = math.nan
    accept_params: bool | None = None
    accept_beta: bool | None = None
    logr_params: float = math.nan
    logr_beta: float = math.nan
    prior: PriorSpec | None = None      # what terms and log_prior were scored under
    log_prior: float = math.nan
    total_sums: list = field(init=False)
    total_counts: list = field(init=False)
    # The data-only parts of the beta move's Gamma density ratio, fixed for the
    # chain: sum_i h_i log(delta_i), sum_i h_i, and the distinct spans h with
    # their counts, so that gammaln runs once per distinct span.
    span_log_deltas: float = field(init=False)
    span_total: float = field(init=False)
    distinct_spans: np.ndarray = field(init=False)
    span_counts: np.ndarray = field(init=False)
    active_sub_spans: np.ndarray = field(init=False)    # (n_active, 1) sub-step spans h_i / m

    def __post_init__(self):
        self.total_sums, self.total_counts = self.block_totals(self.seg_sums[self.active],
                                                               self.seg_counts[self.active])
        spans = self.grid.spans
        self.span_log_deltas = float(spans @ np.log(self.obs.increments))
        self.span_total = float(spans.sum())
        self.distinct_spans, self.span_counts = np.unique(spans, return_counts=True)
        self.active_sub_spans = (spans[self.active] / self.grid.m)[:, None]

    @property
    def n_segments(self) -> int:
        return self.increments.shape[0]

    @property
    def m(self) -> int:
        return self.increments.shape[1]

    @property
    def params(self) -> ModelParams:
        """The current parameters as a validated ModelParams, built on each read."""
        t = self.terms
        return ModelParams(t.alpha, t.beta, t.edges, t.slopes, t.intercepts)

    def block_totals(self, sums: np.ndarray, counts: np.ndarray) -> tuple[list, list]:
        """Totals over all segments as float and int lists, given the active
        block's (n_active, N+1) statistics."""
        return ((self.inert_sums + sums.sum(axis=0)).tolist(),
                (self.inert_counts + counts.sum(axis=0)).tolist())

    def write_rows(self, rows: np.ndarray, increments: np.ndarray, sums: np.ndarray,
                   counts: np.ndarray, totals: tuple[list, list] | None = None) -> None:
        """Write active segment rows and their bin statistics; bring the totals up to date.

        totals, when given, must be block_totals of the active block after
        the write; a caller that reduced those rows already hands it over.
        """
        self.increments[rows] = increments
        self.seg_sums[rows] = sums
        self.seg_counts[rows] = counts
        if totals is None:
            totals = self.block_totals(self.seg_sums[self.active], self.seg_counts[self.active])
        self.total_sums, self.total_counts = totals

    def score(self, prior: PriorSpec) -> ParamTerms:
        """terms, with log_prior rescored under prior if prior is not the
        object it was scored under."""
        t = self.terms
        if self.prior is not prior:
            self.log_prior = prior.logpdf(t.alpha, t.beta, t.slopes, t.intercepts)
            self.prior = prior
        return t

    def record(self) -> ChainRecord:
        t = self.terms
        return ChainRecord(
            iteration=self.iteration,
            alpha=t.alpha,
            beta=t.beta,
            theta=t.slopes,
            rho=t.intercepts,
            accept_path_rate=self.accept_path_rate,
            accept_params=self.accept_params,
            accept_beta=self.accept_beta,
            logr_params=self.logr_params,
            logr_beta=self.logr_beta,
        )


def _make_rngs(seed) -> tuple[np.random.Generator, ...]:
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return tuple(np.random.Generator(np.random.Philox(s)) for s in root.spawn(4))


def active_segments(deltas: np.ndarray, bin_edges) -> np.ndarray:
    """Indices of the segments whose observed increment can reach a bin k >= 1.

    A segment is active when its increment is at least the first bin edge
    b_1, less a relative margin of 1e-12 for pin rounding.  Every sub-step of
    the other, inert, segments lies in B_0 whatever the bridge; a binless
    model has no active segment.
    """
    if not len(bin_edges):
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(deltas >= bin_edges[0] * (1.0 - _PIN_MARGIN))


def init_chain(obs: Observations, params0: ModelParams, grid: TimeGrid, seed) -> ChainState:
    """Build the starting state: Gamma bridges for every segment, and the inert constants."""
    if not np.array_equal(grid.times, obs.times):
        raise ContractError("grid observation times must equal the data times")
    rng_path, rng_accept, rng_params, rng_beta = _make_rngs(seed)
    deltas = obs.increments
    shapes = params0.beta * (grid.spans / grid.m)[:, None]
    increments = bridge_rows(rng_path, shapes, deltas, grid.m)
    sums, counts = bin_stats_matrix(increments, params0.bin_edges)
    active = active_segments(deltas, params0.bin_edges)
    inert = np.ones(deltas.size, dtype=bool)
    inert[active] = False
    return ChainState(
        terms=ParamTerms.of(params0), obs=obs, grid=grid,
        increments=increments, seg_sums=sums, seg_counts=counts,
        rng_path=rng_path, rng_accept=rng_accept,
        rng_params=rng_params, rng_beta=rng_beta,
        active=active, inert_sums=sums[inert].sum(axis=0), inert_counts=counts[inert].sum(axis=0),
    )


def refresh_segments(state: ChainState) -> ChainState:
    """Propose a fresh Gamma bridge per active segment and accept independently.

    The proposal reads beta from state.terms, the path ratio its slopes and
    intercepts, and both the chain's bin edges.  The acceptance for segment
    i compares the endpoint-matched path ratio to ln(U_i).  Noise and uniforms
    are drawn in one fixed-layout block over the active segments, so the
    decisions do not depend on the order in which segments are visited.
    Accepted rows are written into the state's arrays in place
    (ChainState.write_rows).

    An inert segment (see the module docstring) is not redrawn and counts as
    accepted in accept_path_rate, as the full refresh would count it: its
    path ratio is exactly 0, which is >= ln(U) for every U in (0, 1).  A
    binless model has no active segment, so its refresh draws nothing.
    """
    active = state.active
    n_rejected = 0
    if active.size:
        t = state.terms
        proposal = bridge_rows(state.rng_path, t.beta * state.active_sub_spans,
                               state.obs.increments[active], state.m)
        new_sums, new_counts = bin_stats_matrix(proposal, t.edges)
        log_ratio = loglik_ratio_path(new_sums, new_counts, state.seg_sums[active],
                                      state.seg_counts[active], t.slopes, t.intercepts)
        accepted = log_ratio >= np.log(state.rng_accept.uniform(size=active.size))
        n_rejected = active.size - int(np.count_nonzero(accepted))
        if n_rejected < active.size:
            state.write_rows(active[accepted], proposal[accepted], new_sums[accepted],
                             new_counts[accepted])
    # the mean of every segment's accept flag, bit for bit (a quotient of exact counts)
    state.accept_path_rate = (state.n_segments - n_rejected) / state.n_segments
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


def _candidate(prior: PriorSpec, edges, alpha: float, beta: float, slopes, intercepts,
               factors=None) -> tuple[ParamTerms, float] | None:
    """A candidate's terms and log prior under prior; None outside the model's
    domain or the prior's support.

    The domain is alpha and beta finite and > 0, finite slopes and
    intercepts, and a tail slope > -alpha.  factors are the candidate's
    mass_factors when the caller has them.
    """
    if not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):
        return None
    if slopes and (slopes[-1] <= -alpha or not all(map(math.isfinite, slopes + intercepts))):
        return None
    log_prior = prior.logpdf(alpha, beta, slopes, intercepts)
    if log_prior == -math.inf:
        return None
    return ParamTerms.at(edges, alpha, beta, slopes, intercepts, factors), log_prior


def _accept(state: ChainState, rng, cand: tuple[ParamTerms, float], log_ratio: float,
            move: str) -> bool:
    """Metropolis test of log_ratio against ln(U) from rng; an accepted
    candidate's terms and log prior become the state's.  A NaN log ratio
    raises ContractError: a numerical fault, not a rejection."""
    if math.isnan(log_ratio):
        raise ContractError(f"{move} move gave a NaN log ratio at sweep {state.iteration}")
    if not log_ratio >= math.log(rng.random()):
        return False
    state.terms, state.log_prior = cand
    return True


def update_params(state: ChainState, prop: ProposalSpec, prior: PriorSpec) -> ChainState:
    """Joint Metropolis update of alpha and the per-bin slopes/intercepts.

    The proposal is a symmetric Gaussian walk (with the correlated alpha
    shift), so acceptance uses the parameter likelihood ratio plus the prior
    log ratio only.  The innovations for alpha, the slopes and the
    intercepts come from one normal draw of size 2N + 1.  A candidate
    outside the model's domain or the prior's support is rejected before a
    ratio is formed, and logs -inf.  A NaN log ratio raises ContractError.
    """
    state.accept_params = False
    state.logr_params = -math.inf
    cur = state.score(prior)
    n = len(cur.edges)
    rng = state.rng_params
    z = rng.normal(size=2 * n + 1).tolist()
    alpha = cur.alpha + prop.sigma_alpha * z[0]
    if prior.reparam:
        # the walk is on (alpha, alpha + slope_1, beta * exp(-rho_1)); see reparam_view
        alpha1 = cur.alpha + cur.slopes[0] + prop.sigma_theta * z[1]
        beta1 = cur.beta * math.exp(-cur.intercepts[0]) + prop.sigma_rho * z[2]
        if not beta1 > 0:
            return state
        slopes = (alpha1 - alpha,)
        intercepts = (math.log(cur.beta) - math.log(beta1),)
    else:
        # slopes shift against the alpha move so slope_k + alpha is preserved
        shift = alpha - cur.alpha
        slopes = tuple([s + prop.sigma_theta * dz - shift for s, dz in zip(cur.slopes, z[1:n + 1])])
        intercepts = tuple([r + prop.sigma_rho * dz for r, dz in zip(cur.intercepts, z[n + 1:])])
    cand = _candidate(prior, cur.edges, alpha, cur.beta, slopes, intercepts)
    if cand is None:
        return state
    new, log_prior = cand
    log_ratio = (param_log_ratio(state.total_sums, state.total_counts, state.grid.horizon, cur,
                                 new) + log_prior - state.log_prior)
    state.logr_params = log_ratio
    state.accept_params = _accept(state, rng, cand, log_ratio, "parameter")
    return state


def update_beta(state: ChainState, prop: ProposalSpec, prior: PriorSpec) -> ChainState:
    """Transdimensional activity-rate move with segment transform and re-pin.

    Proposes beta° from a symmetric walk; raises each active segment's
    activity by superposing an independent Gamma component (beta° > beta)
    or lowers it by Beta thinning (beta° < beta), re-pins it to the
    observations, and accepts jointly with the prior ratio, the Gamma
    density ratio at the observed increments, and the path log-density
    ratio against the respective Gamma references.  Inert segments are not
    transformed (see the module docstring), so with no active segment the
    move draws only beta° and its uniform.  A proposal that thins an active
    segment too far to re-pin (pin_rows' degenerate mask) is rejected.  A
    NaN log ratio raises ContractError.

    The candidate differs from the current parameters in beta alone, so it
    reuses their mass factors: the move calls no E1.  The Gamma density
    ratio is (beta° - beta) (ln(alpha) sum_i h_i + sum_i h_i ln(delta_i))
    less the lnGamma differences, each distinct span once, all from the
    chain's constants (ChainState).  In reparameterised mode the prior is a
    density on (alpha, beta, alpha + slope_1, beta exp(-rho_1)), and the walk
    moves beta at fixed rho_1, so beta exp(-rho_1) moves with it: the ratio
    has the Jacobian term ln(beta° / beta).  An accepted move hands the
    transformed block's totals, which psi read, to write_rows.
    """
    if not prior.beta_is_random:
        raise ConfigError("beta is fixed by the prior; the beta move is unavailable")
    state.accept_beta = False
    state.logr_beta = -math.inf
    cur = state.score(prior)
    rng = state.rng_beta
    beta_new = cur.beta + prop.sigma_beta * rng.normal()
    cand = _candidate(prior, cur.edges, cur.alpha, beta_new, cur.slopes, cur.intercepts,
                      (cur.e1_b1, cur.units, cur.ref_units))
    if cand is None:
        return state
    new, log_prior = cand

    active = state.active
    horizon = state.grid.horizon
    totals = (state.total_sums, state.total_counts)
    psi_old = psi_terms(*totals, horizon, cur)
    if active.size:
        block = state.increments[active]
        sub = state.active_sub_spans
        if beta_new > cur.beta:
            block = augment_rows(rng, block, sub, cur.beta, beta_new, cur.alpha)
        elif beta_new < cur.beta:
            block = thin_rows(rng, block, sub, cur.beta, beta_new)
        block, collapsed = pin_rows(block, state.obs.increments[active])
        if collapsed.any():
            return state
        block_sums, block_counts = bin_stats_matrix(block, cur.edges)
        totals = state.block_totals(block_sums, block_counts)
    psi_new = psi_terms(*totals, horizon, new)

    density_diff = (
        (beta_new - cur.beta) * (math.log(cur.alpha) * state.span_total + state.span_log_deltas)
        - float(state.span_counts @ (gammaln(beta_new * state.distinct_spans)
                                     - gammaln(cur.beta * state.distinct_spans))))
    log_ratio = (log_prior - state.log_prior) + density_diff + (psi_new - psi_old)
    if prior.reparam:
        log_ratio += math.log(beta_new / cur.beta)
    state.logr_beta = log_ratio
    state.accept_beta = _accept(state, rng, cand, log_ratio, "beta")
    if state.accept_beta and active.size:
        state.write_rows(active, block, block_sums, block_counts, totals)
    return state


def _validate_run(params0: ModelParams, prior: PriorSpec, prop: ProposalSpec,
                  iterations: int, burn_in: int, thinning: int) -> None:
    if prior.n_bins != params0.n_bins:
        raise ConfigError(
            f"prior covers {prior.n_bins} bins but the model has {params0.n_bins}"
        )
    if "beta" in prop.update_schedule and not prior.beta_is_random:
        raise ConfigError("schedule contains a beta stage but the prior fixes beta")
    if prior.beta_is_random and "beta" not in prop.update_schedule:
        raise ConfigError("the prior leaves beta random but the schedule has no beta stage")
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
             thinning: int = 1, seed=0, m: int = 10) -> Iterator[ChainRecord]:
    """Run the sampler and yield one ChainRecord per retained iteration.

    The segments are imputed on TimeGrid(obs.times, m), m sub-steps per
    observation interval.  Every sweep refreshes the active segments (none
    on a binless model, see refresh_segments), then runs the next block
    update of the schedule, which names a beta stage exactly when beta is
    random.  burn_in defaults to 10 percent of iterations; records are
    emitted post burn-in at the thinning stride.  Fully deterministic given
    the seed.  The arguments are checked at the call, the sweeps run on next().
    """
    if burn_in is None:
        burn_in = iterations // 10
    _validate_run(params0, prior, prop, iterations, burn_in, thinning)
    return _sweeps(obs, params0, prior, prop, iterations, burn_in, thinning, seed, m)


def _sweeps(obs, params0, prior, prop, iterations, burn_in, thinning, seed, m):
    state = init_chain(obs, params0, TimeGrid(obs.times, m), seed)
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
        if t > burn_in and (t - burn_in) % thinning == 0:
            yield state.record()


def _fmt_opt_bool(v: bool | None) -> str:
    return "" if v is None else str(int(v))


def _parse_opt_bool(text: str) -> bool | None:
    if text not in ("", "0", "1"):
        raise ValueError(f"accept flag must be empty, 0 or 1, got {text!r}")
    return None if text == "" else text == "1"


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
    """Parse write_chain_csv's output.  Raises DataError for a header that
    write_chain_csv does not write, and, naming the line, for a row with the
    wrong number of fields or a malformed value."""
    header = stream.readline().strip().split(",")
    n_bins = sum(1 for c in header if c.startswith("theta_"))
    expected = chain_csv_header(n_bins)
    if header != expected.split(","):
        raise DataError(f"chain file must start with the header {expected!r}")
    records = []
    for line_no, line in enumerate(stream, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise DataError(f"chain line {line_no}: expected {len(header)} fields, "
                            f"got {len(parts)}")
        tail = parts[3 + 2 * n_bins:]
        try:
            records.append(ChainRecord(
                iteration=int(parts[0]), alpha=float(parts[1]), beta=float(parts[2]),
                theta=tuple(float(v) for v in parts[3:3 + n_bins]),
                rho=tuple(float(v) for v in parts[3 + n_bins:3 + 2 * n_bins]),
                accept_path_rate=float(tail[0]),
                accept_params=_parse_opt_bool(tail[1]),
                accept_beta=_parse_opt_bool(tail[2]),
                logr_params=math.nan if tail[3] == "" else float(tail[3]),
                logr_beta=math.nan if tail[4] == "" else float(tail[4]),
            ))
        except ValueError as exc:
            raise DataError(f"chain line {line_no}: {exc}") from None
    return records


def write_meta_json(stream, *, config_echo: dict, records: list[ChainRecord],
                    extra: dict | None = None) -> None:
    """Write the run manifest: config echo plus acceptance-rate summaries.

    params_domain_rejects and beta_domain_rejects count the records whose
    move was attempted and logged a ratio of -inf: rejected before a ratio
    was formed (outside the model's domain or the prior's support, or, for
    the beta move, a collapsed segment).
    """
    def _rate(flags):
        attempted = [f for f in flags if f is not None]
        return float(np.mean([bool(f) for f in attempted])) if attempted else None

    def _domain_rejects(pairs):
        return sum(flag is not None and logr == -math.inf for flag, logr in pairs)

    meta = {
        "config": config_echo,
        "n_records": len(records),
        "acceptance": {
            "path_refresh_mean_rate": float(np.mean([r.accept_path_rate for r in records]))
            if records else None,
            "params_rate": _rate([r.accept_params for r in records]),
            "beta_rate": _rate([r.accept_beta for r in records]),
            "params_domain_rejects": _domain_rejects(
                (r.accept_params, r.logr_params) for r in records),
            "beta_domain_rejects": _domain_rejects((r.accept_beta, r.logr_beta) for r in records),
        },
    }
    if extra:
        meta.update(extra)
    json.dump(meta, stream, indent=2, sort_keys=True)
    stream.write("\n")
