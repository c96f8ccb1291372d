"""Metropolis-within-Gibbs sampler with bridge data augmentation.

Each sweep refreshes the latent path segments with Gamma bridge proposals,
then applies the scheduled parameter block update: a joint correlated
random walk on (alpha, slopes, intercepts), on a binless model an
independence step that draws alpha from its Gamma likelihood and accepts on
the prior ratio, or, when the activity rate is declared random, a
transdimensional move that lifts the active segments to fresh Gamma totals
and superposes a Gamma component, or thins them, then re-pins them to the
observations.

A segment whose observed increment is below the first bin edge b_1 is
inert: every sub-step of its bridge lies in B_0, where theta is 0, so it
adds only constants to every acceptance ratio, its increment to S_0 and m
to C_0.  Its path log ratio is exactly 0, and the beta move's psi term
reads only bins k >= 1, which augmenting or thinning and re-pinning it
cannot reach.  init_chain draws every segment once and keeps the inert
ones' bin sums and counts as constants; after that only the active
segments move, which keeps every move's target, and the parameter chain's
law, unchanged.  On a binless model every segment is inert: the refresh
returns at once and the beta move is its prior and Gamma-density ratio.

The path state is therefore the active block: the active segments'
increments as one contiguous (n_active, m) matrix, rows in the order of
ChainState.active, and their bin statistics as one (n_active, 2N+2) matrix
of rows [S_0..S_N | C_0..C_N], counts as exact floats.  The refresh and the
beta move run the row kernels of `paths` on the block and write both in
place or replace them, so no sweep gathers or scatters rows of a
full-width array.  The full-width increments, seg_sums and seg_counts are
read-only arrays assembled on each read from the block and init_chain's
inert rows.  All per-segment randomness is drawn in fixed-layout blocks
from dedicated splittable streams, so the result is independent of the
order in which segments are processed.

Every row of the block sums to its segment's observed increment, and is
checked once, where it is made: likelihood.check_endpoints holds each row
of the start block (ChainState), of each refresh batch (_draw_ahead) and of
the beta move's re-pinned block, before its ratio, to pin_tolerance about
its target, and raises ContractError on a row off it or with a NaN before
any state is written.  So every pair of rows the refresh scores shares its
endpoint, and its path ratio is the formula alone.

A refresh's proposals and uniforms read only beta and per-chain constants,
from streams that serve the refresh alone, so run_mcmc's refreshes draw
those of every sweep up to the next beta stage at once, in the order single
refreshes would draw them, so the chain is the same to the byte as with one
refresh at a time.  A bridge row too small to pin is a rejected proposal.

The parameter steps draw ahead as well: update_params takes each step's
2N + 1 standard normals, or a binless step's Gamma draw G, and its ln U
from ChainState.walk, which holds those of the next _WALK_STEPS steps,
drawn from rng_params by one normal or standard_gamma call and one uniform
call.  A binless chain with beta random, which moves G's shape, draws one
(G, U) pair per step, as rng_beta draws one sweep at a time.  No block of
either is sized by the sweeps left: a refresh batch that reaches past the
run's last sweep is drawn whole and its surplus discarded.  So the first
sweeps of a run are those of any longer run with the same seed.

The state (ChainState) holds each fact of the chain once and nothing of the
sweep: the current parameters as a likelihood.ParamTerms of Python floats
with their log prior, and the bin totals as float lists.  What the data
and the edges fix for the chain it computes once, as read-only constants
the moves read: T, the block's targets and sub-step spans, which a refresh
batch's (k, n_active, m) stack reads as they are, the edges as an array and
the endpoint check's tolerance.

run_mcmc builds the start (init_chain), scores it (ChainState.score) and
checks it once, at the call, and the moves read the prior from the state.
The refresh returns its path acceptance rate and its count of proposal
rows too small to pin, and each parameter move its (accepted, log ratio);
run_mcmc builds each sweep's ChainRecord from the terms and those outcomes
and yields one per sweep after burn-in, and `gammasub fit --thinning`
alone thins.  The records and chain files are `chain`'s.  numpy.random's
types appear here only in annotations, so the first _make_rngs loads it.

Both parameter moves take a candidate in one pass, as Python floats: the
move's own range test of what it moved (alpha, or beta, finite and > 0),
then model.prior_logpdf, then its terms (likelihood.ParamTerms.at), then
the ratio and the Metropolis test, so a candidate outside the domain or the
prior's support never reaches a mass.  Its bin masses and E1(alpha b_1)
come from model.mass_factors, one specfun.exp_integral_e1 call for many
points (none on a binless model); a beta move needs none, as its candidate
shares alpha and the slopes, but evaluates the Gamma reference's units,
which only psi reads, once (model.reference_units).  The ratios are
likelihood.loglik_ratio_params (none on a binless model, whose ratio is
the prior's) and likelihood.psi_log at the bin totals, and an accepted
candidate's terms and log prior become the state's.  The moves call
prior_logpdf, loglik_ratio_params, psi_log, bin_stats_matrix,
check_endpoints, reference_units and the moves themselves by their names in
this module, so a profiler that rebinds those names sees every call.  No
sweep builds a ModelParams: it is the type of the API edge, and
ChainState.params builds one on each read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .chain import ChainRecord
# unused here: bench/workloads.py calls these three as mcmc.<name>, until the
# benchmark imports them from chain (ROADMAP item 2)
from .chain import read_chain_csv, write_chain_csv, write_meta_json  # noqa: F401
from .data import Observations
from .exceptions import ConfigError, ContractError
from .likelihood import (ParamTerms, bin_stats_matrix, check_endpoints, loglik_ratio_params,
                         loglik_ratio_path, pin_tolerance, psi_log)
from .model import ModelParams, PriorSpec, prior_logpdf, reference_units
from .paths import (TimeGrid, _one_value, _seed_sequence, augment_rows, bridge_rows, pin_rows,
                    thin_rows)

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
]

_STAGES = ("params", "beta")

# pin_rows can put a sub-step a few ulps above its row target, so a segment
# is active from this far (relative) below the first bin edge
_PIN_MARGIN = 1e-12

# the most sub-steps the refresh draws ahead at once (_draw_ahead): 34 sweeps
# of a 12-row block of m = 10, and one sweep at a time past 2,048 per sweep
_AHEAD_STEPS = 4096

# the parameter steps whose innovations, or binless Gamma draws, and uniforms
# update_params draws at once (_draw_walk); a constant, so that a run's first
# sweeps are those of any longer run with the same seed
_WALK_STEPS = 256


@dataclass(frozen=True)
class ProposalSpec:
    """Random-walk proposal scales and the per-sweep update schedule; a
    binless model's alpha step is exact and reads no sigma_alpha.

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


# slots: the state has more attributes than CPython shares keys for in an
# instance dict (about 30), and past that every attribute read of a sweep is slower
@dataclass(slots=True)
class ChainState:
    """Mutable sampler state: parameters plus the augmented segments.

    terms are the current parameters as the moves read them, the chain's
    bin edges among them, and log_prior their log prior under prior, the
    PriorSpec both moves target: score sets the two, for run_mcmc's start
    and for a direct caller; init_chain leaves them unset, and a move on
    such a state raises ContractError.  params builds a validated
    ModelParams from terms on each read.

    block and block_stats are the active block (see the module docstring):
    the increments and [S_0..S_N | C_0..C_N] bin statistics of the segments
    in active, rows in that order, which write_block writes.
    start_increments and start_stats are init_chain's rows of every segment;
    the inert ones among them are the chain's for good, the active ones are
    superseded by the block.  total_sums and total_counts are the bin totals
    S_0..S_N and C_0..C_N over all segments, which write_block keeps current.
    The rest are the random streams and the per-chain constants, which
    __post_init__ computes once and the moves read: the read-only arrays
    among them reject an in-place write, and no move rebinds them.
    """

    terms: ParamTerms
    obs: Observations
    grid: TimeGrid
    start_increments: np.ndarray        # (n_segments, m), rows sum to obs increments
    start_stats: np.ndarray             # (n_segments, 2N+2) their bin sums, then counts
    rng_path: np.random.Generator
    rng_accept: np.random.Generator
    rng_params: np.random.Generator
    rng_beta: np.random.Generator
    active: np.ndarray                  # indices of the active segments, the only rows moved
    iteration: int = 0                  # the sweep under way, which the moves' errors name
    prior: PriorSpec | None = None      # what terms and log_prior were scored under
    log_prior: float = math.nan
    block: np.ndarray = field(init=False)           # (n_active, m) active increments
    block_stats: np.ndarray = field(init=False)     # (n_active, 2N+2) their bin statistics
    total_sums: list = field(init=False)
    total_counts: list = field(init=False)
    inert_stats: np.ndarray = field(init=False)     # (2N+2,) statistics of the inert segments
    horizon: float = field(init=False)              # T, the observation span
    n_active: int = field(init=False)
    path_rates: tuple = field(init=False)           # the refresh's rates, (n - r) / n at r rejected
    targets: np.ndarray = field(init=False)         # the block's observed increments
    edge_array: np.ndarray = field(init=False)      # the bin edges, float64 for bin_classify
    # pin_tolerance of targets: check_endpoints' bound on each row of the
    # start block, of a refresh batch and of a re-pinned beta block
    pin_tolerance: np.ndarray = field(init=False)
    # the block's spans h_i, (n_active,), and sub-step spans h_i / m, (n_active, 1):
    # each one float when all are equal
    block_spans: np.ndarray | float = field(init=False)
    block_sub_spans: np.ndarray | float = field(init=False)
    # proposals drawn ahead (refresh_segments): one (beta, proposal, stats,
    # ln U, flagged rows) tuple per coming refresh, the next one last
    drawn: list = field(default_factory=list, init=False)
    # parameter steps drawn ahead (update_params): one (2N+1 standard normals,
    # ln U) pair per coming step, a binless model's (G, ln U), the next one last
    walk: list = field(default_factory=list, init=False)
    # The data-only parts of the beta move's Gamma density ratio, fixed for the
    # chain: T (horizon), sum_i h_i log(delta_i) and the distinct spans h with
    # their counts, so that lnGamma runs once per distinct span.
    span_log_deltas: float = field(init=False)
    distinct_spans: list[float] = field(init=False)
    span_counts: list[int] = field(init=False)

    def __post_init__(self):
        active = self.active
        self.targets = _read_only(self.obs.increments[active])
        self.pin_tolerance = _read_only(pin_tolerance(self.targets))
        start_stats = self.start_stats[active]
        check_endpoints(start_stats, self.targets, self.pin_tolerance)
        self.inert_stats = np.delete(self.start_stats, active, axis=0).sum(axis=0)
        self.write_block(self.start_increments[active], start_stats)
        spans = self.grid.spans
        self.horizon, self.n_active = self.grid.horizon, active.size
        n = self.n_segments
        self.path_rates = tuple([(n - r) / n for r in range(active.size + 1)])
        self.edge_array = _read_only(np.array(self.terms.edges, dtype=float))
        self.block_spans = _read_only(_one_value(spans[active]))
        self.block_sub_spans = _read_only(_one_value((spans[active] / self.grid.m)[:, None]))
        self.span_log_deltas = float(spans @ np.log(self.obs.increments))
        distinct, counts = np.unique(spans, return_counts=True)
        self.distinct_spans, self.span_counts = distinct.tolist(), counts.tolist()

    @property
    def n_segments(self) -> int:
        return self.obs.increments.size

    @property
    def m(self) -> int:
        return self.grid.m

    def _full_width(self, start: np.ndarray, block: np.ndarray, cols=slice(None)) -> np.ndarray:
        full = start[:, cols].copy()
        full[self.active] = block[:, cols]
        full.flags.writeable = False
        return full

    @property
    def increments(self) -> np.ndarray:
        """(n_segments, m) increments of every segment, rows summing to the
        observations; a read-only array assembled on each read."""
        return self._full_width(self.start_increments, self.block)

    @property
    def seg_sums(self) -> np.ndarray:
        """(n_segments, N+1) bin sums of every segment; read-only, assembled on each read."""
        return self._full_width(self.start_stats, self.block_stats, np.s_[:len(self.total_sums)])

    @property
    def seg_counts(self) -> np.ndarray:
        """(n_segments, N+1) bin counts of every segment; read-only, assembled on each read."""
        return self._full_width(self.start_stats, self.block_stats, np.s_[len(self.total_sums):])

    @property
    def params(self) -> ModelParams:
        """The current parameters as a validated ModelParams sharing the terms' tuples."""
        t = self.terms
        return ModelParams(t.alpha, t.beta, t.edges, t.slopes, t.intercepts)

    def write_block(self, increments: np.ndarray, stats: np.ndarray,
                    where: np.ndarray | None = None, totals: list | None = None) -> None:
        """Write the active block and its bin statistics; bring the totals up to date.

        increments and stats are (n_active, m) and (n_active, 2N+2) arrays in
        block order.  With where, an (n_active,) mask, the rows it selects are
        copied into the block in place; without, they become the block.
        totals, the inert statistics plus the block's column sums as a list,
        are computed unless a caller that reduced those rows hands them over.
        """
        if where is None:
            self.block, self.block_stats = increments, stats
        else:
            rows = where[:, None]
            np.copyto(self.block, increments, where=rows)
            np.copyto(self.block_stats, stats, where=rows)
        if totals is None:
            totals = (self.inert_stats + np.add.reduce(self.block_stats, 0)).tolist()
        n = len(totals) // 2
        self.total_sums, self.total_counts = totals[:n], totals[n:]

    def score(self, prior: PriorSpec) -> ParamTerms:
        """Make prior the one the moves target and log_prior the terms' log
        prior under it; returns terms.  ConfigError for a prior over another
        number of bins than the chain's, which prior_logpdf would zip."""
        t = self.terms
        if prior.n_bins != len(t.edges):
            raise ConfigError(f"prior covers {prior.n_bins} bins but the model has {len(t.edges)}")
        self.prior = prior
        self.log_prior = prior_logpdf(prior, t.alpha, t.beta, t.slopes, t.intercepts)
        return t


def _read_only(a):
    """a, made read-only if it is an array; a numpy scalar is immutable."""
    if isinstance(a, np.ndarray):
        a.flags.writeable = False
    return a


def _make_rngs(seed) -> tuple[np.random.Generator, ...]:
    return tuple(np.random.Generator(np.random.Philox(s)) for s in _seed_sequence(seed).spawn(4))


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
    """Build the starting state: Gamma bridges for every segment, and the inert constants.

    A row bridge_rows flags starts on its pinned path, which has positive
    bridge density, so any later move may leave it.
    """
    if not np.array_equal(grid.times, obs.times):
        raise ContractError("grid observation times must equal the data times")
    rng_path, rng_accept, rng_params, rng_beta = _make_rngs(seed)
    deltas = obs.increments
    shapes = _one_value(params0.beta * (grid.spans / grid.m)[:, None])
    increments, _ = bridge_rows(rng_path, shapes, deltas, (deltas.size, grid.m))
    stats = np.concatenate(bin_stats_matrix(increments, params0.bin_edges), axis=1)
    return ChainState(
        terms=ParamTerms.of(params0), obs=obs, grid=grid,
        start_increments=increments, start_stats=stats,
        rng_path=rng_path, rng_accept=rng_accept,
        rng_params=rng_params, rng_beta=rng_beta,
        active=active_segments(deltas, params0.bin_edges),
    )


def refresh_segments(state: ChainState, sweeps: int = 1) -> tuple[float, int]:
    """Propose a fresh Gamma bridge per active segment and accept independently;
    returns (path acceptance rate over every segment, proposal rows too small
    to pin).

    The proposal reads beta from state.terms, the path ratio its slopes and
    intercepts, and both the chain's bin edges (terms.edges).  The
    acceptance for segment i compares the endpoint-matched path ratio to
    ln(U_i).  Noise and uniforms are drawn in one fixed-layout block over
    the active segments, so the decisions do not depend on the order in
    which segments are visited.  A proposal row too small to pin
    (bridge_rows' flag) is rejected, and counted.  The ratio checks no
    endpoint: each row was checked where it was made (module docstring).
    The proposal is drawn, scored and written on the active block, whose
    accepted rows are overwritten in place (ChainState.write_block).

    sweeps is the number of refreshes, this one first, that share its beta.
    Proposals and uniforms read nothing else a move changes, and rng_path
    and rng_accept serve the refresh alone, so a refresh that finds none
    drawn draws those of up to sweeps refreshes at once (_draw_ahead) into
    ChainState.drawn, and each takes the next; proposals drawn at a beta
    other than state.terms' raise ContractError.  The refreshes take the
    variates that one at a time would take.

    An inert segment (see the module docstring) is not redrawn and counts as
    accepted in the rate, as the full refresh would count it: its
    path ratio is exactly 0, which is >= ln(U) for every U in (0, 1).  A
    binless model has no active segment, so its refresh draws nothing and
    returns (1.0, 0) at once.
    """
    n_active = state.n_active
    if not n_active:
        return 1.0, 0
    if not state.drawn:
        state.drawn = _draw_ahead(state, sweeps)
    beta, proposal, stats, log_u, unpinnable = state.drawn.pop()
    terms = state.terms
    if beta != terms.beta:
        raise ContractError(f"refresh at sweep {state.iteration} found proposals drawn at "
                            f"beta {beta!r}, but beta is {terms.beta!r}")
    log_ratio = loglik_ratio_path(stats, state.block_stats, terms.slopes, terms.intercepts)
    accepted = log_ratio >= log_u
    n_rejected = n_active - int(np.count_nonzero(accepted))
    # with every row accepted the proposal becomes the block as it is
    state.write_block(proposal, stats, accepted if n_rejected else None)
    # the mean of every segment's accept flag, bit for bit (a quotient of exact counts)
    return state.path_rates[n_rejected], unpinnable


def _draw_ahead(state: ChainState, sweeps: int) -> list:
    """ChainState.drawn for up to sweeps refreshes, drawn, pinned and binned at once.

    k refreshes draw one (k, n_active, m) bridge_rows stack, pinned against
    the block's targets with Gamma shapes beta * block_sub_spans as they are
    (a float or an (n_active, 1) column), and (k, n_active) uniforms, at
    most _AHEAD_STEPS sub-steps, and bin its (k * n_active, m) view into one
    statistics matrix: the variates, in their order, that k single
    refreshes would draw.  A flagged row's ln U is +inf, so its refresh
    keeps the row; each refresh's tuple ends with its count of them.  One
    check_endpoints call over the (k, n_active, 2N+2) statistics checks
    every row of the batch, which is then returned whole or not at all.
    """
    beta, m, n = state.terms.beta, state.grid.m, state.n_active
    k = max(1, min(sweeps, _AHEAD_STEPS // (n * m)))
    proposals, flagged = bridge_rows(state.rng_path, beta * state.block_sub_spans,
                                     state.targets, (k, n, m))
    log_u = np.log(state.rng_accept.uniform(size=(k, n)))
    if np.count_nonzero(flagged):
        log_u[flagged] = np.inf
        unpinnable = flagged.sum(1).tolist()
    else:
        unpinnable = [0] * k
    stats = np.concatenate(bin_stats_matrix(proposals.reshape(k * n, m), state.edge_array),
                           axis=1).reshape(k, n, -1)
    check_endpoints(stats, state.targets, state.pin_tolerance)
    return list(zip([beta] * k, proposals, stats, log_u, unpinnable))[::-1]


def update_params(state: ChainState, prop: ProposalSpec) -> tuple[bool, float]:
    """Metropolis update of alpha and the per-bin slopes/intercepts;
    returns (accepted, log ratio).

    A binned model's proposal is a symmetric Gaussian walk (with the
    correlated alpha shift), so acceptance uses the parameter likelihood
    ratio plus the prior log ratio only.  Each step takes 2N + 1 standard
    normals, the innovations for alpha, the slopes and the intercepts,
    scaled here by prop, and its ln(U) from ChainState.walk; a step that
    finds it empty draws those of the next _WALK_STEPS steps from rng_params
    at once (_draw_walk).  A binless model's alpha likelihood is the
    Gamma(1 + beta T, rate S_0) kernel, so it proposes alpha° = G / S_0 with
    G ~ Gamma(1 + beta T), whatever alpha and prop, and the ratio is the
    prior's alone; with beta fixed its (G, ln U) pairs come from the walk,
    while a random beta, which moves the shape, draws G, then U, per step.
    A NaN alpha° (S_0 or T not finite) raises ContractError.  A candidate
    alpha that is not finite and > 0, or a candidate outside the prior's
    support, is rejected before its terms and ratio are formed, leaves its
    ln(U) unused and returns (False, -inf).  A NaN log ratio raises
    ContractError.  The prior is state.prior and the current log prior
    state.log_prior; a state with no prior raises ContractError.
    """
    prior = state.prior
    if prior is None:
        raise ContractError("the state has no prior: call ChainState.score(prior) first")
    cur = state.terms
    edges = cur.edges
    n = len(edges)
    if n:
        if not state.walk:
            rng = state.rng_params
            state.walk = _draw_walk(rng, rng.normal(size=(_WALK_STEPS, 2 * n + 1)))
        z, log_u = state.walk.pop()
        alpha = cur.alpha + prop.sigma_alpha * z[0]
        # slopes shift against the alpha move so slope_k + alpha is preserved
        shift = alpha - cur.alpha
        slopes = tuple([s + prop.sigma_theta * dz - shift for s, dz in zip(cur.slopes, z[1:n + 1])])
        intercepts = tuple([r + prop.sigma_rho * dz for r, dz in zip(cur.intercepts, z[n + 1:])])
    else:
        if not state.walk:
            rng, shape = state.rng_params, 1.0 + cur.beta * state.horizon
            state.walk = ([(rng.standard_gamma(shape), math.log(rng.random()))]
                          if prior.beta_is_random else
                          _draw_walk(rng, rng.standard_gamma(shape, size=_WALK_STEPS)))
        g, log_u = state.walk.pop()
        alpha = g / state.total_sums[0]
        slopes = intercepts = ()
    # the domain, alpha finite and > 0, which a normal prior does not enforce
    if not 0.0 < alpha < math.inf:
        if math.isnan(alpha) and not n:
            raise ContractError(f"the alpha draw is NaN at sweep {state.iteration}")
        return False, -math.inf
    log_prior = prior_logpdf(prior, alpha, cur.beta, slopes, intercepts)
    if log_prior == -math.inf:
        return False, -math.inf
    new = ParamTerms.at(edges, alpha, cur.beta, slopes, intercepts)
    log_ratio = ((loglik_ratio_params(state.total_sums, state.total_counts, state.horizon,
                                      cur, new) if n else 0.0) + log_prior - state.log_prior)
    if not log_ratio >= log_u:
        if math.isnan(log_ratio):
            raise ContractError(f"parameter move gave a NaN log ratio at sweep {state.iteration}")
        return False, log_ratio
    state.terms, state.log_prior = new, log_prior
    return True, log_ratio


def _draw_walk(rng: np.random.Generator, steps: np.ndarray) -> list:
    """ChainState.walk for the next _WALK_STEPS parameter steps: steps, their
    first draws (a (_WALK_STEPS, 2N + 1) normal block, or _WALK_STEPS Gamma
    draws), then _WALK_STEPS uniforms, row i and uniform i serving the i-th step."""
    log_u = np.log(rng.random(size=_WALK_STEPS)).tolist()
    return list(zip(steps.tolist(), log_u))[::-1]


def update_beta(state: ChainState, prop: ProposalSpec) -> tuple[bool, float]:
    """Transdimensional activity-rate move with segment transform and re-pin;
    returns (accepted, log ratio).

    Proposes beta° from a symmetric walk; raises each active segment's
    activity (beta° > beta) by scaling it to a fresh Gamma(beta h_i, alpha)
    total, the free process's, whose bridge direction is independent of its
    total, and superposing an independent Gamma component, or lowers it by
    Beta thinning (beta° < beta), which is scale free; re-pins it to the
    observations, and accepts jointly with the prior ratio, the Gamma
    density ratio at the observed increments, and the path log-density
    ratio against the respective Gamma references.  Inert segments are not
    transformed (see the module docstring), so with no active segment the
    move draws only beta° and its uniform.  A beta° that is not finite and
    > 0 or lies outside the prior's support, or one that leaves an active
    segment too small to re-pin (pin_rows' flag), is rejected before a ratio
    is formed and returns (False, -inf); the first two before its terms are
    formed.  A re-pinned row off its target (check_endpoints, before the
    ratio) or a NaN log ratio raises ContractError.  The prior is state.prior,
    which must leave beta random (ConfigError), and the current log prior
    state.log_prior; a state with no prior raises ContractError.

    The candidate differs from the current parameters in beta alone, so it
    reuses their mass factors, and both psi terms read the Gamma reference's
    units at alpha (reference_units).  The Gamma density ratio is (beta° -
    beta) (ln(alpha) T + sum_i h_i ln(delta_i)) less the lnGamma
    differences, each distinct span once, all from the chain's constants
    (ChainState).  The prior ratio is prior_logpdf's; in reparam mode, whose
    priors are per bin with beta fixed or random, its Jacobian covers every
    bin's beta exp(-rho_k) moving with beta.  The move transforms the active
    block as it is stored; an accepted move makes it and its statistics the
    state's and hands write_block the totals psi read.
    """
    prior = state.prior
    if prior is None:
        raise ContractError("the state has no prior: call ChainState.score(prior) first")
    if not prior.beta_is_random:
        raise ConfigError("beta is fixed by the prior; the beta move is unavailable")
    cur = state.terms
    rng = state.rng_beta
    beta_new = cur.beta + prop.sigma_beta * rng.normal()
    if not 0.0 < beta_new < math.inf:
        return False, -math.inf
    log_prior = prior_logpdf(prior, cur.alpha, beta_new, cur.slopes, cur.intercepts)
    if log_prior == -math.inf:
        return False, -math.inf
    new = ParamTerms.at(cur.edges, cur.alpha, beta_new, cur.slopes, cur.intercepts,
                        (cur.e1_b1, cur.units))

    horizon = state.horizon
    ref_units = reference_units(cur.alpha, cur.edges, cur.e1_b1)
    sums, counts = state.total_sums, state.total_counts
    psi_old = psi_log(sums, counts, horizon, cur, ref_units)
    n_active = state.n_active
    if n_active:
        block, sub = state.block, state.block_sub_spans
        if beta_new > cur.beta:
            lift = rng.gamma(cur.beta * state.block_spans, 1.0 / cur.alpha, size=n_active)
            block = augment_rows(rng, block * (lift / state.targets)[:, None], sub, cur.beta,
                                 beta_new, cur.alpha)
        elif beta_new < cur.beta:
            block = thin_rows(rng, block, sub, cur.beta, beta_new)
        block, collapsed = pin_rows(block, state.targets)
        if np.count_nonzero(collapsed):
            return False, -math.inf
        stats = np.concatenate(bin_stats_matrix(block, state.edge_array), axis=1)
        check_endpoints(stats, state.targets, state.pin_tolerance)
        totals = (state.inert_stats + np.add.reduce(stats, 0)).tolist()
        sums, counts = totals[:len(sums)], totals[len(sums):]
    psi_new = psi_log(sums, counts, horizon, new, ref_units)

    # left to right, not sum(), so that the rounding does not follow Python 3.12's change to sum()
    lgamma_diff = 0.0
    for h, n in zip(state.distinct_spans, state.span_counts):
        lgamma_diff += n * (math.lgamma(beta_new * h) - math.lgamma(cur.beta * h))
    density_diff = ((beta_new - cur.beta)
                    * (math.log(cur.alpha) * horizon + state.span_log_deltas)
                    - lgamma_diff)
    log_ratio = (log_prior - state.log_prior) + density_diff + (psi_new - psi_old)
    if not log_ratio >= math.log(rng.random()):
        if math.isnan(log_ratio):
            raise ContractError(f"beta move gave a NaN log ratio at sweep {state.iteration}")
        return False, log_ratio
    state.terms, state.log_prior = new, log_prior
    if n_active:
        state.write_block(block, stats, totals=totals)
    return True, log_ratio


def checked_burn_in(iterations: int, burn_in: int | None = None) -> int:
    """burn_in, iterations // 10 by default; ConfigError unless iterations >= burn_in >= 0."""
    if burn_in is None:
        burn_in = iterations // 10
    if iterations < 0 or burn_in < 0 or iterations < burn_in:
        raise ConfigError(f"need iterations >= burn_in >= 0, got ({iterations}, {burn_in})")
    return burn_in


def run_mcmc(obs: Observations, params0: ModelParams, prior: PriorSpec,
             prop: ProposalSpec, iterations: int, burn_in: int | None = None,
             seed=0, m: int = 10) -> Iterator[ChainRecord]:
    """Run the sampler and yield one ChainRecord per sweep after burn-in.

    The segments are imputed on TimeGrid(obs.times, m), m sub-steps per
    observation interval.  Every sweep refreshes the active segments (none
    on a binless model, see refresh_segments), then runs the next block
    update of the schedule, which names a beta stage exactly when beta is
    random.  burn_in defaults to 10 percent of iterations (checked_burn_in).
    Nothing is thinned here: `gammasub fit --thinning` keeps every k-th
    record.  Fully deterministic given the seed.  At the call the start is
    built (init_chain; TimeGrid's DomainError for m), scored once by
    ChainState.score and refused (ConfigError) at zero prior density or an
    infinite bin mass; the sweeps run on next() and read prior from the state.
    """
    if ("beta" in prop.update_schedule) != prior.beta_is_random:
        raise ConfigError("the schedule must name a beta stage exactly when the prior leaves "
                          "beta random")
    burn_in = checked_burn_in(iterations, burn_in)
    state = init_chain(obs, params0, TimeGrid(obs.times, m), seed)
    terms = state.score(prior)
    if state.log_prior == -math.inf:
        raise ConfigError("initial parameters have zero prior density: a value lies outside "
                          "its prior's support, or theta_N <= -alpha gives the tail infinite mass")
    if not all(map(math.isfinite, terms.masses)):
        raise ConfigError("initial parameters give a bin an infinite mass: its slope + alpha "
                          "is so far below 0 that its Ei overflows, or its intercept so far "
                          "below 0 that beta * exp(-rho) times the E1 or Ei factor overflows")
    return _sweeps(state, prop, iterations, burn_in)


def _sweeps(state, prop, iterations, burn_in):
    schedule = prop.update_schedule
    n_stages = len(schedule)
    # from a sweep at schedule index i, the refreshes up to the next beta
    # stage's, the last before beta can move; with beta fixed, _AHEAD_STEPS,
    # which _draw_ahead's cap undercuts.  Never the sweeps left (see the
    # module docstring): a batch drawn past the run's end is discarded
    same_beta = [next((d + 1 for d in range(n_stages) if schedule[(i + d) % n_stages] == "beta"),
                      _AHEAD_STEPS) for i in range(n_stages)]
    for t in range(1, iterations + 1):
        state.iteration = t
        stage = (t - 1) % n_stages
        path_rate, unpinnable = refresh_segments(state, same_beta[stage])
        if schedule[stage] == "params":
            accepted, log_ratio = update_params(state, prop)
            outcome = accepted, None, log_ratio, math.nan
        else:
            accepted, log_ratio = update_beta(state, prop)
            outcome = None, accepted, math.nan, log_ratio
        if t > burn_in:
            terms = state.terms
            yield ChainRecord(t, terms.alpha, terms.beta, terms.slopes, terms.intercepts,
                              path_rate, *outcome, unpinnable)
