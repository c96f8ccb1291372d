"""Sampler mechanics: initialization, refreshes, parameter and activity moves."""

import hashlib
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, special
from scipy.stats import gamma as gamma_dist
from scipy.stats import kstest

import gammasub as g
from gammasub import chain, mcmc, model, paths
from gammasub.cli import main
from gammasub.config import parse_config
from gammasub.likelihood import ParamTerms, bin_stats_matrix, loglik_ratio_path, pin_tolerance
from gammasub.chain import (
    chain_csv_header,
    read_chain_csv,
    write_chain_csv,
    write_meta_json,
)
from gammasub.model import reference_units
from gammasub.paths import augment_rows, bridge_rows, pin_rows, thin_rows


def gamma_obs(n=20, dt=1.0, beta=1.0, alpha=2.0, seed=7):
    rng = np.random.default_rng(seed)
    inc = rng.gamma(beta * dt, 1 / alpha, size=n)
    return g.Observations(np.arange(n + 1) * dt,
                          np.concatenate(([0.0], np.cumsum(inc))))


# spans h_i: one span; spans 1, 2 and 3, as ingest's merged windows give; and
# tenths whose sum differs from T = t_n - t_0 in the last bits
SPAN_GRIDS = {"unit": [1.0] * 20, "1-2-3": [1.0, 2.0, 1.0, 3.0, 1.0] * 4,
              "tenths": [0.1 * k for k in (15, 12, 12, 13, 6, 7, 5, 3, 8, 10,
                                           15, 4, 15, 12, 9, 7, 12, 8, 6, 15)]}


def span_obs(spans):
    """Gamma(h_i, 2) increments over consecutive spans from time 0, as
    gamma_obs() draws them on unit spans."""
    times = np.concatenate(([0.0], np.cumsum(spans)))
    inc = np.random.default_rng(7).gamma(np.diff(times), 0.5)
    return g.Observations(times, np.concatenate(([0.0], np.cumsum(inc))))


def basic_state(obs=None, params=None, m=5, seed=0, prior=None):
    """init_chain's state, scored under prior (ChainState.score) when one is given."""
    obs = obs if obs is not None else gamma_obs()
    params = params if params is not None else g.ModelParams(1.0, 1.0)
    grid = g.TimeGrid(obs.times, m)
    state = g.init_chain(obs, params, grid, seed)
    if prior is not None:
        state.score(prior)
    return state


def sub_spans(state):
    """Every segment's sub-step span h_i / m, shape (n_segments, 1)."""
    return (state.grid.spans / state.grid.m)[:, None]


def set_params(state, params):
    """Make params the state's current parameters, scored under the state's prior."""
    state.terms = ParamTerms.of(params)
    state.score(state.prior)


def bin_totals(sums, counts, horizon):
    """Per-bin sums and counts as the float and int lists the ratios read, and T."""
    return (np.asarray(sums, dtype=float).tolist(), np.asarray(counts, dtype=np.int64).tolist(),
            float(horizon))


def totals(state):
    """The state's bin totals and horizon, as bin_totals gives them."""
    return bin_totals(state.total_sums, state.total_counts, state.grid.horizon)


def param_ratio(stats, old, new):
    """loglik_ratio_params at bin_totals stats, from old to new, two ModelParams."""
    return g.loglik_ratio_params(*stats, ParamTerms.of(old), ParamTerms.of(new))


def psi(stats, params):
    """psi_log at bin_totals stats and the ModelParams params."""
    terms = ParamTerms.of(params)
    return g.psi_log(*stats, terms, reference_units(terms.alpha, terms.edges, terms.e1_b1))


def stacked(sums, counts):
    """Bin sums and counts as one [S_0..S_N | C_0..C_N] float matrix, as the state holds them."""
    return np.concatenate((sums, counts), axis=1)


def path_ratio(sums, counts, old_sums, old_counts, slopes, intercepts):
    """loglik_ratio_path of rows with these sums and counts against the old ones."""
    return loglik_ratio_path(stacked(sums, counts), stacked(old_sums, old_counts), slopes,
                             intercepts)


def halves(values):
    """The S and C halves of [S_0..S_N | C_0..C_N] totals or statistics."""
    n = len(values) // 2
    return values[:n], values[n:]


def prior_at(prior, params):
    """prior_logpdf at the floats of the ModelParams params."""
    return g.prior_logpdf(prior, params.alpha, params.beta, params.theta_slopes,
                          params.theta_intercepts)


class TestInitChain:
    def test_two_point_segment(self):
        obs = g.Observations([0.0, 1.0], [0.0, 1.0])
        state = g.init_chain(obs, g.ModelParams(1.0, 1.0), g.TimeGrid(obs.times, 4), 1)
        assert state.increments.shape == (1, 4) and state.n_segments == 1
        assert np.array_equal(state.obs.increments, [1.0])
        assert state.increments.sum() == pytest.approx(1.0, rel=1e-14, abs=0)
        # the one segment is inert on a binless model: the totals are its constants
        assert state.active.size == 0
        assert state.total_sums == state.seg_sums[0].tolist()
        assert state.total_counts == [4]

    def test_segments_monotone_and_pinned(self):
        state = basic_state()
        assert state.n_segments == 20
        assert np.all(state.increments >= 0)
        # endpoints equal the observations exactly
        assert np.allclose(state.increments.sum(axis=1), state.obs.increments,
                           rtol=1e-14, atol=0)

    def test_mixture_scale_rows_pin_unclamped(self):
        # the mixture benchmark's shapes: beta * h / m = 0.44 * 0.2 / 10, about 0.009,
        # where some Gamma draws underflow to exactly 0 and stay 0 once pinned
        obs, truth = g.synth_two_gamma(2.0, 0.4, 0.2, 0.04, T=200.0, n=1000, seed=7)
        params = g.ModelParams(2.0, truth.beta_bar, [1.0, 2.0, 4.0], [0.0] * 3, [0.0] * 3)
        state = g.init_chain(obs, params, g.TimeGrid(obs.times, 10), [7, 1])
        assert (state.increments == 0.0).any()
        for _ in range(20):
            g.refresh_segments(state)
        deltas = state.obs.increments
        assert np.all(np.abs(state.increments.sum(axis=1) - deltas) <= 1e-9 * deltas)
        sums, counts = bin_stats_matrix(state.increments, params.bin_edges)
        assert np.array_equal(sums, state.seg_sums)
        assert np.array_equal(counts, state.seg_counts)

    def test_tiny_shape_rows_stay_pinned_through_refresh_and_beta_moves(self):
        # segment shapes beta * span = 0.005: a few bridge and thinned rows in a
        # thousand sum to a subnormal, which pin_rows cannot scale to its target
        # and flags, so the refresh and the beta move reject them
        deltas = np.random.default_rng(3).uniform(0.6, 3.0, size=200)
        obs = g.Observations.from_increments(np.arange(201.0), deltas)
        params = g.ModelParams(1.0, 0.005, [0.5], [0.0], [0.0])
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0), beta=g.Prior("gamma", 1.0, 1.0),
                            theta=(g.Prior("normal", 0, 1.0),), rho=(g.Prior("normal", 0, 1.0),))
        prop = g.ProposalSpec(sigma_beta=0.002, update_schedule=("beta",))
        state = g.init_chain(obs, params, g.TimeGrid(obs.times, 10), [5, 2])
        state.score(prior)
        accepted = 0
        for _ in range(30):
            g.refresh_segments(state)
            accepted += g.update_beta(state, prop)[0]
            assert np.all(np.abs(state.increments.sum(axis=1) - deltas) <= 1e-9 * deltas)
        assert 0 < accepted < 30
        sums, counts = bin_stats_matrix(state.increments, params.bin_edges)
        assert np.array_equal(sums, state.seg_sums)
        assert np.array_equal(counts, state.seg_counts)

    def test_an_unpinnable_start_row_takes_a_pinned_path(self, monkeypatch):
        # a starting bridge row too small to pin starts with its whole target on
        # its first sub-step, a path of positive bridge density, and refreshes leave it
        params = g.ModelParams(1.0, 1.0, [0.5], [0.4], [0.2])
        obs = gamma_obs()
        row = int(mcmc.active_segments(obs.increments, params.bin_edges)[0])
        make_rngs = mcmc._make_rngs

        def zero_row_rngs(seed):
            rng_path, *rest = make_rngs(seed)
            return (ZeroRow(rng_path, row), *rest)

        monkeypatch.setattr(mcmc, "_make_rngs", zero_row_rngs)
        state = g.init_chain(obs, params, g.TimeGrid(obs.times, 5), 13)
        monkeypatch.undo()
        delta = float(obs.increments[row])
        assert state.increments[row].tolist() == [delta, 0.0, 0.0, 0.0, 0.0]
        sums, counts = bin_stats_matrix(state.increments, params.bin_edges)
        assert np.array_equal(sums, state.seg_sums) and np.array_equal(counts, state.seg_counts)
        assert_totals_current(state)
        state.rng_path = state.rng_path.gen
        for _ in range(20):
            g.refresh_segments(state)
        assert np.count_nonzero(state.increments[row]) > 1

    def test_sub_spans_collapse_once_per_chain(self):
        # the beta move's kernels draw from a scalar shape on a uniform grid,
        # and from a (n_active, 1) column where the spans differ
        params = g.ModelParams(1.0, 1.0, [0.5], [0.4], [0.2])
        uniform = basic_state(params=params, seed=13)
        assert type(uniform.block_sub_spans) is np.float64 and uniform.block_sub_spans == 0.2
        deltas = gamma_obs().increments
        times = np.concatenate(([0.0], np.cumsum(np.linspace(0.5, 1.5, deltas.size))))
        varied = basic_state(obs=g.Observations.from_increments(times, deltas), params=params)
        spans = (np.diff(times) / 5)[varied.active, None]
        assert np.array_equal(varied.block_sub_spans, spans)

    def test_identical_seed_identical_state(self):
        a = basic_state(seed=33)
        b = basic_state(seed=33)
        assert np.array_equal(a.increments, b.increments)

    def test_grid_mismatch_rejected(self):
        obs = gamma_obs()
        grid = g.TimeGrid(obs.times * 2.0, 3)
        with pytest.raises(g.ContractError):
            g.init_chain(obs, g.ModelParams(1.0, 1.0), grid, 0)

    def test_non_increasing_data_instructs_aggregation(self):
        with pytest.raises(g.DataError) as err:
            g.Observations([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
        assert "aggregate" in str(err.value).lower()


class TestRefreshSegments:
    def test_gamma_model_accepts_everything(self):
        state = basic_state()
        for _ in range(3):
            assert g.refresh_segments(state) == (1.0, 0)
            assert np.all(state.increments >= 0)

    def test_stats_stay_consistent(self):
        state = basic_state(params=g.ModelParams(1.0, 1.0, [0.5], [0.4], [0.2]))
        for _ in range(5):
            g.refresh_segments(state)
        sums, counts = bin_stats_matrix(state.increments, state.params.bin_edges)
        assert np.allclose(sums, state.seg_sums)
        assert np.array_equal(counts, state.seg_counts)
        assert np.allclose(state.increments.sum(axis=1), state.obs.increments,
                           rtol=1e-14, atol=0)

    @pytest.mark.parametrize("rejects", [lambda i: i % 3 == 0, lambda i: i >= 0,
                                         lambda i: i < 0], ids=["every_third", "every_row", "none"])
    def test_rejected_rows_keep_their_path_and_stats(self, rejects):
        class Reject:
            def uniform(self, size):
                # one refresh draws (1, n_active) uniforms; ln(inf) rejects any ratio
                return np.where(rejects(np.arange(size[1])), np.inf, 1e-300)[None]

        params = g.ModelParams(1.0, 1.0, [0.5], [0.4], [0.2])
        state = basic_state(params=params, seed=13)
        twin = basic_state(params=params, seed=13)
        active = state.active
        assert 3 < active.size < state.n_segments
        old_inc, old_sums, old_counts = (
            state.increments.copy(), state.seg_sums.copy(), state.seg_counts.copy())
        old_totals = (state.total_sums, state.total_counts)
        # the twin stream draws the same block: the active segments' bridges
        proposal, _ = bridge_rows(twin.rng_path, params.beta * sub_spans(twin)[active],
                                  twin.obs.increments[active], (active.size, twin.m))
        new_sums, new_counts = bin_stats_matrix(proposal, params.bin_edges)
        state.rng_accept = Reject()
        rate, unpinnable = g.refresh_segments(state)
        rejected = rejects(np.arange(active.size))
        n_rejected = int(rejected.sum())
        assert rate == (state.n_segments - n_rejected) / state.n_segments
        assert unpinnable == 0
        for got, old, new in ((state.increments, old_inc, proposal),
                              (state.seg_sums, old_sums, new_sums),
                              (state.seg_counts, old_counts, new_counts)):
            assert np.array_equal(got[active[rejected]], old[active[rejected]])
            assert np.array_equal(got[active[~rejected]], new[~rejected])
        # the totals add the inert rows' constants to the written block's column sums
        kept = rejected[:, None]
        inert_sums, inert_counts = halves(state.inert_stats)
        for got, inert, old, new in ((state.total_sums, inert_sums, old_sums, new_sums),
                                     (state.total_counts, inert_counts, old_counts,
                                      new_counts)):
            block = np.where(kept, old[active], new)
            assert got == (inert + np.add.reduce(block, 0)).tolist()
        if rejected.all():
            assert (state.total_sums, state.total_counts) == old_totals

    def test_nan_proposal_is_a_contract_error(self):
        class NanRow:
            """Real Gamma draws, except that row 1 holds a NaN."""

            def __init__(self, gen):
                self.gen = gen

            def gamma(self, shape, size):
                out = self.gen.gamma(shape, size=size)
                out[..., 1, 0] = np.nan       # in a (rows, m) draw, and in each matrix of a batch
                return out

        state = basic_state(params=g.ModelParams(1.0, 1.0, [0.5], [0.4], [0.2]), seed=13)
        state.rng_path = NanRow(state.rng_path)
        with pytest.raises(g.ContractError, match="do not share endpoints"):
            g.refresh_segments(state)

    def test_a_flagged_proposal_keeps_its_row(self):
        # a proposal row too small to pin is rejected whatever its ratio: the
        # row keeps its path and statistics, and the path rate and the
        # refresh's count of unpinnable rows count it
        class AcceptAll:
            def uniform(self, size):
                return np.full(size, 1e-300)

        params = g.ModelParams(1.0, 1.0, [0.5], [0.4], [0.2])
        state = basic_state(params=params, seed=13)
        row = state.active[1]
        kept = (state.increments[row].copy(), state.seg_sums[row].copy(),
                state.seg_counts[row].copy())
        others = state.increments[state.active].copy()
        state.rng_path, state.rng_accept = ZeroRow(state.rng_path, 1), AcceptAll()
        assert g.refresh_segments(state) == ((state.n_segments - 1) / state.n_segments, 1)
        for got, before in zip((state.increments, state.seg_sums, state.seg_counts), kept):
            assert np.array_equal(got[row], before)
        moved = state.increments[state.active] != others
        assert moved.any(axis=1).sum() == state.active.size - 1
        assert_totals_current(state)

    def test_acceptance_depends_only_on_perturbed_bins(self):
        # same slopes/intercepts, different alpha: identical decisions
        pa = g.ModelParams(0.7, 1.0, [0.5], [0.6], [0.3])
        pb = g.ModelParams(2.9, 1.0, [0.5], [0.6], [0.3])
        a = basic_state(params=pa, seed=11)
        b = basic_state(params=pb, seed=11)
        outcome = g.refresh_segments(a)
        assert g.refresh_segments(b) == outcome and outcome[0] < 1.0
        assert np.array_equal(a.increments, b.increments)


class ZeroRow:
    """Real Gamma draws, except that one row of each is all zeros: too small to pin."""

    def __init__(self, gen, row):
        self.gen, self.row = gen, row

    def gamma(self, shape, size):
        out = self.gen.gamma(shape, size=size)
        out[..., self.row, :] = 0.0     # in a (rows, m) draw, and in each matrix of a batch
        return out


class NoDraws:
    """A stream that fails the test on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"drew {name} from a stream the refresh must not use")


class Recording:
    """Delegates to a Generator and records the method and size of every draw,
    in draws, a list that several streams may share."""

    def __init__(self, gen, draws=None):
        self.gen, self.draws = gen, [] if draws is None else draws

    def __getattr__(self, name):
        method = getattr(self.gen, name)

        def draw(*args, size=None, **kwargs):
            self.draws.append((name, size))
            return method(*args, size=size, **kwargs)
        return draw


def run_with(refresh, obs, params0, prior, prop, iterations, seed, m, beta_move=g.update_beta,
             params_move=g.update_params):
    """run_mcmc's loop, with burn_in 0, around other moves that return their
    outcomes; the state is scored under prior, which the moves read from it."""
    state = g.init_chain(obs, params0, g.TimeGrid(obs.times, m), seed)
    state.score(prior)
    for t in range(1, iterations + 1):
        state.iteration = t
        path_rate, unpinnable = refresh(state)
        stage = prop.update_schedule[(t - 1) % len(prop.update_schedule)]
        accepted, log_ratio = (params_move if stage == "params" else beta_move)(state, prop)
        terms = state.terms
        yield chain.ChainRecord(t, terms.alpha, terms.beta, terms.slopes, terms.intercepts,
                               path_rate, path_unpinnable=unpinnable,
                               **{f"accept_{stage}": accepted, f"logr_{stage}": log_ratio})


def assign_rows(state, increments, sums, counts):
    """Make (n_segments, ...) arrays every segment's rows and bin statistics,
    inert ones included, as an oracle that moves every segment writes them."""
    active = state.active
    stats = stacked(sums, counts)
    state.start_increments, state.start_stats = increments, stats
    state.block, state.block_stats = increments[active], stats[active]


def full_totals(state):
    """The bin sums and counts as lists, reduced over every segment row."""
    return state.seg_sums.sum(axis=0).tolist(), state.seg_counts.sum(axis=0).tolist()


def assert_totals_current(state):
    """The totals are the inert constants plus the active block's reduction, exactly,
    and the reduction over every row within 1e-12 relative (counts exactly)."""
    active = state.active
    inert_sums, inert_counts = halves(state.inert_stats)
    assert state.total_sums == (inert_sums + state.seg_sums[active].sum(axis=0)).tolist()
    assert state.total_counts == (inert_counts + state.seg_counts[active].sum(axis=0)).tolist()
    full_sums, full_counts = full_totals(state)
    assert np.allclose(state.total_sums, full_sums, rtol=1e-12, atol=0)
    assert state.total_counts == full_counts


def full_refresh(state):
    """The refresh as it ran before inert segments were skipped: one block of every row."""
    params = state.params
    proposal, flagged = bridge_rows(state.rng_path, params.beta * sub_spans(state),
                                    state.obs.increments, (state.n_segments, state.m))
    sums, counts = bin_stats_matrix(proposal, params.bin_edges)
    log_ratio = path_ratio(sums, counts, state.seg_sums, state.seg_counts,
                           params.theta_slopes, params.theta_intercepts)
    accept = (log_ratio >= np.log(state.rng_accept.uniform(size=state.n_segments))) & ~flagged
    reject = ~accept
    proposal[reject] = state.increments[reject]
    sums[reject] = state.seg_sums[reject]
    counts[reject] = state.seg_counts[reject]
    assign_rows(state, proposal, sums, counts)
    state.total_sums, state.total_counts = full_totals(state)
    return float(accept.mean()), int(np.count_nonzero(flagged))


def refresh_all_from(rng_inert):
    """A full refresh whose active rows use the sampler's streams and inert rows rng_inert."""
    def refresh(state):
        params = state.params
        active = mcmc.active_segments(state.obs.increments, params.bin_edges)
        inert = np.setdiff1d(np.arange(state.n_segments), active)
        shapes, deltas = params.beta * sub_spans(state), state.obs.increments
        proposal, flagged = np.empty_like(state.increments), np.empty(state.n_segments, bool)
        for rows, stream in ((active, state.rng_path), (inert, rng_inert)):
            proposal[rows], flagged[rows] = bridge_rows(stream, shapes[rows], deltas[rows],
                                                        (rows.size, state.m))
        sums, counts = bin_stats_matrix(proposal, params.bin_edges)
        log_ratio = path_ratio(sums, counts, state.seg_sums, state.seg_counts,
                               params.theta_slopes, params.theta_intercepts)
        log_u = np.empty(state.n_segments)
        log_u[active] = np.log(state.rng_accept.uniform(size=active.size))
        log_u[inert] = np.log(rng_inert.uniform(size=inert.size))
        accept = (log_ratio >= log_u) & ~flagged
        assert (log_ratio[inert] == 0.0).all() and accept[inert].all()
        reject = ~accept
        proposal[reject] = state.increments[reject]
        sums[reject] = state.seg_sums[reject]
        counts[reject] = state.seg_counts[reject]
        assign_rows(state, proposal, sums, counts)
        state.total_sums, state.total_counts = full_totals(state)
        return float(accept.mean()), int(np.count_nonzero(flagged))
    return refresh


def beta_all_from(rng_inert):
    """The beta move over every row: active rows use rng_beta, inert rows rng_inert.

    This is the move as it ran before inert segments were left out of it:
    each row is scaled to a fresh Gamma(beta h_i, alpha) total and augmented,
    or thinned, and re-pinned, and the bin totals and the ratio's terms are
    evaluated afresh over all rows.
    """
    def move(state, prop):
        params, prior, rng = state.params, state.prior, state.rng_beta
        beta_new = params.beta + prop.sigma_beta * rng.normal()
        if beta_new <= 0:
            return False, -math.inf
        candidate = params.with_updates(beta=beta_new)
        lp_diff = prior_at(prior, candidate) - prior_at(prior, params)
        if lp_diff == -math.inf:
            return False, -math.inf
        active = mcmc.active_segments(state.obs.increments, params.bin_edges)
        inert = np.setdiff1d(np.arange(state.n_segments), active)
        sub, deltas, spans = sub_spans(state), state.obs.increments, state.grid.spans
        block = state.increments.copy()
        for rows, stream in ((active, rng), (inert, rng_inert)):
            if rows.size and beta_new > params.beta:
                lift = stream.gamma(params.beta * spans[rows], 1 / params.alpha)
                block[rows] = augment_rows(stream, block[rows] * (lift / deltas[rows])[:, None],
                                           sub[rows], params.beta, beta_new, params.alpha)
            elif rows.size and beta_new < params.beta:
                block[rows] = thin_rows(stream, block[rows], sub[rows], params.beta, beta_new)
        block, collapsed = pin_rows(block, state.obs.increments)
        assert not collapsed[inert].any()
        if collapsed.any():
            return False, -math.inf
        sums, counts = bin_stats_matrix(block, params.bin_edges)
        new_stats = bin_totals(sums.sum(axis=0), counts.sum(axis=0), state.grid.horizon)
        density_diff = np.sum(gamma_dist.logpdf(deltas, beta_new * spans, scale=1 / params.alpha)
                              - gamma_dist.logpdf(deltas, params.beta * spans,
                                                  scale=1 / params.alpha))
        old_stats = bin_totals(*full_totals(state), state.grid.horizon)
        log_ratio = float(lp_diff + density_diff + psi(new_stats, candidate)
                          - psi(old_stats, params))
        if not log_ratio >= math.log(rng.uniform()):
            return False, log_ratio
        set_params(state, candidate)
        assign_rows(state, block, sums, counts)
        state.total_sums, state.total_counts, _ = new_stats
        return True, log_ratio
    return move


def assert_same_chain(recs, oracle):
    """Equal parameters, flags, path rates and unpinnable counts; log ratios within 1e-9."""
    for r, o in zip(recs, oracle, strict=True):
        assert (r.alpha, r.beta, r.theta, r.rho) == (o.alpha, o.beta, o.theta, o.rho)
        assert (r.accept_params, r.accept_beta) == (o.accept_params, o.accept_beta)
        assert (r.accept_path_rate, r.path_unpinnable) == (o.accept_path_rate, o.path_unpinnable)
        for a, b in ((r.logr_params, o.logr_params), (r.logr_beta, o.logr_beta)):
            assert a == b or abs(a - b) <= 1e-9 or (math.isnan(a) and math.isnan(b))


class TestBinlessRefresh:
    prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0))

    def test_draws_nothing_and_accepts_every_segment(self):
        state = basic_state(obs=gamma_obs(n=30, seed=5), seed=19)
        state.rng_path = state.rng_accept = NoDraws()
        blocks = (state.block, state.block_stats)
        copies = tuple(a.copy() for a in (state.increments, state.seg_sums, state.seg_counts))
        assert g.refresh_segments(state) == (1.0, 0)
        for got, same in zip((state.block, state.block_stats), blocks):
            assert got is same and got.size == 0
        for got, copy in zip((state.increments, state.seg_sums, state.seg_counts), copies):
            assert np.array_equal(got, copy)

    def test_binned_refresh_still_draws(self):
        # a bin with zero theta still needs fresh bridges: its S_k and C_k move
        state = basic_state(params=g.ModelParams(1.0, 1.0, [0.5], [0.0], [0.0]))
        state.rng_path = state.rng_accept = NoDraws()
        with pytest.raises(AssertionError, match="drew"):
            g.refresh_segments(state)

    def test_totals_are_reduced_once_per_chain(self):
        state = basic_state(seed=3, prior=self.prior)
        sums, counts = state.total_sums, state.total_counts
        assert_totals_current(state)
        for _ in range(20):
            g.refresh_segments(state)
            g.update_params(state, g.ProposalSpec())
        assert state.total_sums is sums and state.total_counts is counts

    def test_run_matches_the_full_refresh(self):
        obs = gamma_obs(n=200, seed=29)
        params0 = g.ModelParams(1.0, 1.0)
        prop = g.ProposalSpec(sigma_alpha=0.1)
        recs = list(g.run_mcmc(obs, params0, self.prior, prop, iterations=300, burn_in=0,
                               seed=37, m=4))
        state = g.init_chain(obs, params0, g.TimeGrid(obs.times, 4), 37)
        state.score(self.prior)
        for r in recs:
            path_outcome = full_refresh(state)
            accepted, log_ratio = g.update_params(state, prop)
            assert r.alpha == state.params.alpha
            assert r.accept_params == accepted
            assert (r.accept_path_rate, r.path_unpinnable) == path_outcome == (1.0, 0)
            assert r.logr_params == pytest.approx(log_ratio, rel=0, abs=1e-9)
        assert len(recs) == 300
        assert 0 < sum(r.accept_params for r in recs) < 300


class TestActiveSegments:
    b1 = 0.9
    below = float(np.nextafter(0.9, 0.0))
    # prevfloat(b_1) three times, b_1, a large increment, then inert ones: just
    # under the margin, half of b_1 and far below it
    deltas = np.array([below, below, below, b1, 3.0,
                       np.nextafter(b1 * (1 - 1e-12), 0.0), 0.5 * b1, 1e-3 * b1])
    n_active = 5

    def state(self, seed=41):
        obs = g.Observations.from_increments(np.arange(self.deltas.size + 1.0), self.deltas)
        # Gamma shape beta*h/m = 0.005: one sub-step often takes almost the whole row
        params = g.ModelParams(2.0, 0.02, [self.b1, 2.0], [0.3, -0.2], [0.4, 0.1])
        return g.init_chain(obs, params, g.TimeGrid(obs.times, 4), seed)

    def test_inert_rows_never_leave_bin_zero(self):
        state = self.state()
        params = state.params
        assert np.array_equal(state.active, np.arange(self.n_active))
        inert = np.arange(self.n_active, self.deltas.size)
        reached = np.zeros(state.n_segments, dtype=bool)
        for _ in range(300):
            # the full refresh's proposal for every segment
            proposal, _ = bridge_rows(state.rng_path, params.beta * sub_spans(state),
                                      state.obs.increments, (state.n_segments, state.m))
            sums, counts = bin_stats_matrix(proposal, params.bin_edges)
            log_ratio = path_ratio(sums, counts, state.seg_sums, state.seg_counts,
                                   params.theta_slopes, params.theta_intercepts)
            assert (counts[inert] == [state.m, 0, 0]).all()
            assert (log_ratio[inert] == 0.0).all()
            reached |= counts[:, 1:].any(axis=1)
        # the margin is needed: pinning can put a sub-step of a row one ulp
        # below b_1 onto b_1
        assert reached[:3].any()
        assert reached[3:5].all()

    def test_refresh_draws_the_active_block_only(self):
        state = self.state()
        state.rng_path, state.rng_accept = Recording(state.rng_path), Recording(state.rng_accept)
        inert = np.arange(self.n_active, self.deltas.size)
        copies = tuple(a.copy() for a in (state.increments, state.seg_sums, state.seg_counts))
        moved = 0
        for _ in range(20):
            g.refresh_segments(state)
            assert state.rng_path.draws == [("gamma", (1, self.n_active, state.m))]
            assert state.rng_accept.draws == [("uniform", (1, self.n_active))]
            state.rng_path.draws.clear()
            state.rng_accept.draws.clear()
            for got, copy in zip((state.increments, state.seg_sums, state.seg_counts), copies):
                assert np.array_equal(got[inert], copy[inert])
            moved += not np.array_equal(state.increments[:self.n_active],
                                        copies[0][:self.n_active])
            sums, counts = bin_stats_matrix(state.increments, state.params.bin_edges)
            assert np.array_equal(sums, state.seg_sums) and np.array_equal(counts, state.seg_counts)
            assert_totals_current(state)
        assert moved == 20

    @pytest.mark.parametrize("random_beta", [False, True])
    def test_run_matches_a_refresh_of_every_segment(self, random_beta):
        obs = gamma_obs(n=60, seed=23)
        params0 = g.ModelParams(2.0, 1.0, [0.5, 1.0], [0.3, -0.2], [0.2, 0.1])
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0),
                            beta=g.Prior("uniform", 0.05, 50.0) if random_beta else None,
                            theta=(g.Prior("normal", 0, 1.0),) * 2,
                            rho=(g.Prior("normal", 0, 1.5),) * 2)
        prop = g.ProposalSpec(sigma_beta=0.05,
                              update_schedule=("beta", "params") if random_beta else ("params",))
        recs = list(g.run_mcmc(obs, params0, prior, prop, iterations=400, burn_in=0,
                               seed=31, m=5))
        rng_inert = np.random.default_rng(5)
        oracle = list(run_with(refresh_all_from(rng_inert), obs, params0, prior, prop, 400, 31,
                               5, beta_move=beta_all_from(rng_inert)))
        active = mcmc.active_segments(obs.increments, params0.bin_edges)
        assert 10 < active.size < 50
        assert_same_chain(recs, oracle)
        assert min(r.accept_path_rate for r in recs) < 1.0
        assert 0 < sum(bool(r.accept_params) for r in recs) < 400
        if random_beta:
            assert 0 < sum(bool(r.accept_beta) for r in recs) < 200

    def test_binless_run_matches_a_transform_of_every_segment(self):
        # every segment is inert: the sampler's beta move transforms none of
        # them, the oracle's transforms all of them from its own stream
        obs = gamma_obs(n=60, seed=23)
        params0 = g.ModelParams(2.0, 1.0)
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0), beta=g.Prior("gamma", 2.0, 1.0))
        prop = g.ProposalSpec(sigma_alpha=0.1, sigma_beta=0.1, update_schedule=("beta", "params"))
        recs = list(g.run_mcmc(obs, params0, prior, prop, iterations=400, burn_in=0,
                               seed=31, m=5))
        rng_inert = np.random.default_rng(5)
        oracle = list(run_with(refresh_all_from(rng_inert), obs, params0, prior, prop, 400, 31,
                               5, beta_move=beta_all_from(rng_inert)))
        assert_same_chain(recs, oracle)
        assert len({r.beta for r in recs}) > 20
        assert 0 < sum(bool(r.accept_beta) for r in recs) < 200
        assert 0 < sum(bool(r.accept_params) for r in recs) < 200

    def test_every_segment_active_gives_the_full_refresh_chain(self):
        obs = gamma_obs(n=40, seed=9)
        b1 = 0.9 * float(obs.increments.min())
        params0 = g.ModelParams(2.0, 1.0, [b1, 0.5], [0.3, -0.2], [0.2, 0.1])
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0),
                            beta=g.Prior("uniform", 0.05, 50.0),
                            theta=(g.Prior("normal", 0, 1.0),) * 2,
                            rho=(g.Prior("normal", 0, 1.5),) * 2)
        prop = g.ProposalSpec(sigma_beta=0.05, update_schedule=("params", "beta"))
        assert mcmc.active_segments(obs.increments, params0.bin_edges).size == 40
        recs = list(g.run_mcmc(obs, params0, prior, prop, iterations=300, burn_in=0,
                               seed=3, m=5))
        oracle = list(run_with(full_refresh, obs, params0, prior, prop, 300, 3, 5))
        chains = []
        for records in (recs, oracle):
            out = io.StringIO()
            write_chain_csv(records, out, 2)
            chains.append(out.getvalue().splitlines())
        assert len(chains[0]) == len(chains[1]) == 301
        for line, expected in zip(*chains):     # line by line: a diff of the whole text is slow
            assert line == expected
        assert min(r.accept_path_rate for r in recs) < 1.0
        assert 0 < sum(bool(r.accept_beta) for r in recs) < 150


class TestDrawAhead:
    """run_mcmc's refreshes draw the proposals of several sweeps at once."""

    prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0), theta=(g.Prior("normal", 0, 1.0),),
                        rho=(g.Prior("normal", 0, 1.5),))

    def counted_run(self, monkeypatch, obs, params0, prior, prop, iterations, m):
        """The records of run_mcmc and its streams' (method, size) draws, as
        bench/tracer.py sees them: init_chain wrapped, its streams swapped."""
        draws = []
        init_chain = mcmc.init_chain

        def counted_init(*args):
            state = init_chain(*args)
            state.rng_path = Recording(state.rng_path, draws)
            state.rng_accept = Recording(state.rng_accept, draws)
            return state

        monkeypatch.setattr(mcmc, "init_chain", counted_init)
        recs = list(g.run_mcmc(obs, params0, prior, prop, iterations=iterations, burn_in=0,
                               seed=17, m=m))
        monkeypatch.undo()
        return recs, draws

    def test_fixed_beta_run_draws_once_per_batch(self, monkeypatch):
        obs = gamma_obs(n=60, seed=23)
        params0 = g.ModelParams(2.0, 1.0, [0.5], [0.3], [0.2])
        recs, draws = self.counted_run(monkeypatch, obs, params0, self.prior, g.ProposalSpec(),
                                       100, 5)
        n = mcmc.active_segments(obs.increments, params0.bin_edges).size
        assert n == 24      # so 4096 // (24 * 5) = 34 sweeps per batch
        # the third batch serves sweeps 69-100 and draws those of 101 and 102 too
        assert draws == [("gamma", (34, n, 5)), ("uniform", (34, n))] * 3
        assert recs == list(run_with(g.refresh_segments, obs, params0, self.prior,
                                     g.ProposalSpec(), 100, 17, 5))
        assert min(r.accept_path_rate for r in recs) < 1.0

    def test_random_beta_batches_end_at_the_beta_stage(self, monkeypatch):
        obs = gamma_obs(n=60, seed=23)
        params0 = g.ModelParams(2.0, 1.0, [0.5], [0.3], [0.2])
        prior = g.PriorSpec(alpha=self.prior.alpha, beta=g.Prior("uniform", 0.05, 50.0),
                            theta=self.prior.theta, rho=self.prior.rho)
        prop = g.ProposalSpec(sigma_beta=0.05, update_schedule=("beta", "params", "params"))
        recs, draws = self.counted_run(monkeypatch, obs, params0, prior, prop, 11, 5)
        n = 24
        # sweep 1 is a beta stage; then sweeps 2-4, 5-7, 8-10 and 11-13 share a
        # beta, and the last batch is drawn whole though the run ends at 11
        one = [("gamma", (1, n, 5)), ("uniform", (1, n))]
        three = [("gamma", (3, n, 5)), ("uniform", (3, n))]
        assert draws == one + three * 4
        assert recs == list(run_with(g.refresh_segments, obs, params0, prior, prop, 11, 17, 5))
        assert len({r.beta for r in recs}) > 1

    def test_refresh_after_a_beta_change_is_a_contract_error(self):
        params = g.ModelParams(1.0, 1.0, [0.5], [0.4], [0.2])
        state = basic_state(params=params, seed=13, prior=self.prior)
        g.refresh_segments(state, 3)
        assert len(state.drawn) == 2
        g.refresh_segments(state)
        set_params(state, g.ModelParams(1.0, 1.25, [0.5], [0.4], [0.2]))
        with pytest.raises(g.ContractError, match="drawn at beta 1.0, but beta is 1.25"):
            g.refresh_segments(state)

    def test_large_blocks_draw_one_sweep_at_a_time(self):
        state = basic_state(obs=gamma_obs(n=400, seed=2),
                            params=g.ModelParams(1.0, 1.0, [0.1], [0.4], [0.2]), m=10)
        assert state.active.size * state.m > 2048
        state.rng_path, state.rng_accept = Recording(state.rng_path), Recording(state.rng_accept)
        g.refresh_segments(state, 50)
        assert state.rng_path.draws == [("gamma", (1, state.active.size, 10))]
        assert state.drawn == []


class TestUpdateParams:
    def prior(self, n=0):
        return g.PriorSpec(
            alpha=g.Prior("gamma", 2.0, 1.0),
            theta=tuple(g.Prior("normal", 0, 3.0) for _ in range(n)),
            rho=tuple(g.Prior("normal", 0, 7.0) for _ in range(n)),
        )

    def test_acceptance_rate_reasonable_on_gamma_data(self):
        # a tight prior against 100 increments' likelihood: the binless step's
        # prior ratio accepts away from 0 and 1
        prop = g.ProposalSpec(sigma_alpha=0.025)
        tight = g.PriorSpec(alpha=g.Prior("gamma", 2500.0, 1250.0))  # sd 0.04
        state = basic_state(obs=gamma_obs(n=100, seed=3), prior=tight)
        accepted = 0
        for _ in range(400):
            g.refresh_segments(state)
            accepted += g.update_params(state, prop)[0]
        assert 0.1 < accepted / 400 < 0.9

    def test_binned_walk_acceptance_rate_reasonable_on_gamma_data(self):
        # the joint walk at the default scales on a two-bin model, whose
        # likelihood ratio, not the prior's alone, sets the rate
        _, params, prior, _ = kernel_model("binned fixed beta")
        state = basic_state(obs=gamma_obs(n=200, seed=3), params=params, prior=prior)
        prop = g.ProposalSpec()
        accepted = 0
        for _ in range(400):
            g.refresh_segments(state)
            accepted += g.update_params(state, prop)[0]
        assert 0.1 < accepted / 400 < 0.9

    def test_rejection_keeps_params(self):
        state = basic_state(prior=g.PriorSpec(alpha=g.Prior("uniform", 0.999, 1.001)))
        prop = g.ProposalSpec()  # binless: alpha° nearly always falls outside the support
        rejected = 0
        for _ in range(50):
            before = state.params.alpha
            if not g.update_params(state, prop)[0]:
                assert state.params.alpha == before
                rejected += 1
        assert rejected > 0

    def test_tail_violations_rejected(self):
        params = g.ModelParams(1.0, 1.0, [1.0], [-0.9], [0.0])
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0),
                            theta=(g.Prior("normal", 0, 5.0),),
                            rho=(g.Prior("normal", 0, 5.0),))
        state = basic_state(params=params, seed=2, prior=prior)
        # huge slope steps propose tail slopes below -alpha often
        prop = g.ProposalSpec(sigma_alpha=1e-6, sigma_theta=20.0, sigma_rho=1e-6)
        kept_integrable = True
        for _ in range(100):
            g.update_params(state, prop)
            kept_integrable &= state.terms.slopes[-1] > -state.terms.alpha
        assert kept_integrable

    def test_logged_ratio_matches_manual_recompute(self):
        params = g.ModelParams(1.0, 1.0, [0.8], [0.2], [-0.1])
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0),
                            theta=(g.Prior("normal", 0, 3.0),),
                            rho=(g.Prior("normal", 0, 7.0),))
        prop = g.ProposalSpec()
        a = basic_state(params=params, seed=21, prior=prior)
        b = basic_state(params=params, seed=21)
        _, log_ratio = g.update_params(a, prop)
        # replay the same innovations on the twin state
        z_alpha = b.rng_params.normal()
        z_theta = b.rng_params.normal(size=1)
        z_rho = b.rng_params.normal(size=1)
        alpha_new = params.alpha + prop.sigma_alpha * z_alpha
        cand = params.with_updates(
            alpha=alpha_new,
            theta_slopes=params.theta_slopes + prop.sigma_theta * z_theta - (alpha_new - params.alpha),
            theta_intercepts=params.theta_intercepts + prop.sigma_rho * z_rho,
        )
        assert_totals_current(b)
        expected = (param_ratio(totals(b), params, cand)
                    + prior_at(prior, cand) - prior_at(prior, params))
        assert log_ratio == pytest.approx(expected, rel=1e-12)

    def test_binless_logged_ratio_is_the_closed_form(self):
        # N = 0: alpha° = G / S_0 with G the Gamma(1 + beta T) draws of one
        # block, then its uniforms, and the ratio is the prior difference alone,
        # with S_0 the data's total and T its span; a prior that pulls alpha
        # away from the data's makes both outcomes happen
        prior = g.PriorSpec(alpha=g.Prior("gamma", 20.0, 20.0))
        a = basic_state(seed=23, prior=prior)
        s_0, horizon = a.total_sums[0], a.obs.times[-1] - a.obs.times[0]
        assert s_0 == pytest.approx(math.fsum(a.obs.increments), rel=1e-14)
        rng = basic_state(seed=23).rng_params
        gammas = rng.standard_gamma(1.0 + horizon, size=mcmc._WALK_STEPS)
        log_u = np.log(rng.random(size=mcmc._WALK_STEPS))
        accepted = 0
        for step in range(40):
            before = a.params
            accepted_now, log_ratio = g.update_params(a, g.ProposalSpec())
            cand = before.with_updates(alpha=gammas[step] / s_0)
            expected = prior_at(prior, cand) - prior_at(prior, before)
            assert log_ratio == pytest.approx(expected, rel=1e-12)
            assert accepted_now == (expected >= log_u[step])
            assert a.params.alpha == (cand.alpha if accepted_now else before.alpha)
            accepted += accepted_now
        assert 0 < accepted < 40

    def test_walk_draws_one_block_per_walk_steps(self):
        # every _WALK_STEPS steps take one (B, 2N + 1) normal block and then B
        # uniforms, from the stream state.rng_params holds when the block is
        # drawn; a domain reject takes its step's draws all the same
        params = g.ModelParams(1.0, 1.0, [0.5, 1.5], [0.2, -0.1], [0.1, 0.0])
        state = basic_state(params=params, seed=13, prior=self.prior(2))
        state.rng_params = Recording(state.rng_params)
        prop = g.ProposalSpec(sigma_alpha=0.05, sigma_theta=0.5, sigma_rho=0.3)
        steps = mcmc._WALK_STEPS
        block = [("normal", (steps, 5)), ("random", steps)]
        rejects = 0
        for step in range(2 * steps + 1):
            rejects += g.update_params(state, prop) == (False, -math.inf)
            assert state.rng_params.draws == block * (step // steps + 1)
        assert rejects > 0


class TestUpdateBeta:
    def prior(self):
        return g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0),
                           beta=g.Prior("uniform", 0.05, 50.0))

    def test_requires_random_beta(self):
        state = basic_state(prior=g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0)))
        with pytest.raises(g.ConfigError):
            g.update_beta(state, g.ProposalSpec())

    @pytest.mark.parametrize("grid", SPAN_GRIDS)
    def test_gamma_model_ratio_is_prior_times_increment_densities(self, grid):
        # alpha != 1, so the ratio's T ln(alpha) term is not 0
        prop, obs = g.ProposalSpec(sigma_beta=0.3), span_obs(SPAN_GRIDS[grid])
        params = g.ModelParams(2.0, 1.0)
        a = basic_state(obs, params, seed=31, prior=self.prior())
        b = basic_state(obs, params, seed=31)
        _, log_ratio = g.update_beta(a, prop)
        beta_new = b.params.beta + prop.sigma_beta * b.rng_beta.normal()
        spans = b.grid.spans
        assert (len(b.distinct_spans) > 1) == (grid != "unit")
        assert (float(spans.sum()) != b.horizon) == (grid == "tenths")
        expected = sum(
            g.gamma_logpdf(d, beta_new * h, b.params.alpha)
            - g.gamma_logpdf(d, b.params.beta * h, b.params.alpha)
            for d, h in zip(b.obs.increments, spans)
        )
        # uniform prior contributes zero inside its support
        assert log_ratio == pytest.approx(expected, rel=1e-9)

    def test_endpoints_preserved_after_accepted_moves(self):
        state = basic_state(seed=41, prior=self.prior())
        prop = g.ProposalSpec(sigma_beta=0.5)
        accepted = 0
        for _ in range(100):
            g.refresh_segments(state)
            accepted += g.update_beta(state, prop)[0]
            assert np.allclose(state.increments.sum(axis=1), state.obs.increments,
                           rtol=1e-14, atol=0)
        assert accepted > 0

    def test_collapsed_rows_reject_the_move(self):
        # all-zero Beta multipliers thin every active segment to zero total;
        # such a row cannot be re-pinned, so the move is rejected and nothing moves
        class Collapse:
            sizes = []

            def normal(self):
                return -1.0

            def beta(self, a, b, size):
                self.sizes.append(size)
                return np.zeros(size)

            def random(self):
                return 1e-300

        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0), beta=g.Prior("uniform", 0.05, 50.0),
                            theta=(g.Prior("normal", 0, 1.0),), rho=(g.Prior("normal", 0, 1.5),))
        state = basic_state(params=g.ModelParams(1.0, 1.0, [0.5], [0.4], [0.2]), seed=71)
        assert 0 < state.active.size < state.n_segments
        terms = state.score(prior)
        total_sums, total_counts = state.total_sums, state.total_counts
        increments = state.increments.copy()
        sums, counts = state.seg_sums.copy(), state.seg_counts.copy()
        state.rng_beta = Collapse()
        outcome = g.update_beta(state, g.ProposalSpec(sigma_beta=0.5))
        assert Collapse.sizes == [(state.active.size, state.m)]     # the active block only
        assert outcome == (False, -math.inf)
        assert state.terms is terms
        assert state.total_sums is total_sums and state.total_counts is total_counts
        assert np.array_equal(state.increments, increments)
        assert np.array_equal(state.seg_sums, sums)
        assert np.array_equal(state.seg_counts, counts)

    def test_accepted_move_hands_over_its_totals(self, monkeypatch):
        # the totals psi read are stored: one reduction of the active block per move
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0), beta=g.Prior("uniform", 0.05, 50.0),
                            theta=(g.Prior("normal", 0, 1.0),), rho=(g.Prior("normal", 0, 1.5),))
        state = basic_state(params=g.ModelParams(1.0, 1.0, [0.5], [0.4], [0.2]), seed=71,
                            prior=prior)
        write_block, handed = g.ChainState.write_block, []

        def recorded(self, increments, stats, where=None, totals=None):
            handed.append(totals)
            return write_block(self, increments, stats, where, totals)

        monkeypatch.setattr(g.ChainState, "write_block", recorded)
        accepted = 0
        for _ in range(60):
            g.refresh_segments(state)
            handed.clear()
            accepted_now, _ = g.update_beta(state, g.ProposalSpec(sigma_beta=0.2))
            if accepted_now:
                # one write, handed the totals psi read, which the block's reduction gives
                [totals] = handed
                expected = (state.inert_stats + np.add.reduce(state.block_stats, 0)).tolist()
                assert totals == expected
                assert (state.total_sums, state.total_counts) == halves(expected)
                accepted += 1
            else:
                assert handed == []
        assert 5 < accepted < 60

    @pytest.mark.parametrize("grid", SPAN_GRIDS)
    def test_binless_move_draws_only_its_proposal_and_uniform(self, grid):
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0), beta=g.Prior("gamma", 2.0, 1.0))
        prop, obs = g.ProposalSpec(sigma_beta=0.3), span_obs(SPAN_GRIDS[grid])
        params = g.ModelParams(2.0, 1.0)
        state = basic_state(obs, params, seed=31, prior=prior)
        twin = basic_state(obs, params, seed=31)
        blocks = (state.block, state.block_stats)
        copies = tuple(a.copy() for a in (state.increments, state.seg_sums, state.seg_counts))
        state.rng_beta = Recording(state.rng_beta)
        accepted = 0
        for _ in range(40):
            before = state.params
            accepted_now, log_ratio = g.update_beta(state, prop)
            assert state.rng_beta.draws == [("normal", None), ("random", None)]
            state.rng_beta.draws.clear()
            for got, same in zip((state.block, state.block_stats), blocks):
                assert got is same and got.size == 0
            for got, copy in zip((state.increments, state.seg_sums, state.seg_counts), copies):
                assert np.array_equal(got, copy)
            # the twin replays the proposal; the ratio is the prior's times the
            # Gamma densities of the observed increments
            beta_new = before.beta + prop.sigma_beta * twin.rng_beta.normal()
            twin.rng_beta.random()
            cand = before.with_updates(beta=beta_new)
            expected = prior_at(prior, cand) - prior_at(prior, before) + sum(
                g.gamma_logpdf(d, beta_new * h, before.alpha)
                - g.gamma_logpdf(d, before.beta * h, before.alpha)
                for d, h in zip(state.obs.increments, state.grid.spans))
            assert log_ratio == pytest.approx(expected, rel=1e-9, abs=1e-12)
            assert state.params.beta == (beta_new if accepted_now else before.beta)
            accepted += accepted_now
        assert 0 < accepted < 40

    def test_move_with_active_rows_targets_the_exact_beta_marginal(self):
        # One bin from b_1 = 1 with slope 1.5 and intercept 1, alpha 1, m = 2,
        # and only beta moving: five of the ten unit-span increments reach b_1.
        # Given beta, an active row's path is the Gamma bridge, whose first
        # sub-step is delta U with U ~ Beta(beta/2, beta/2), tilted by
        # exp(-sum over sub-steps x >= 1 of (1.5 x + 1)).  So beta's marginal is
        # its uniform prior, the Gamma densities of the increments, exp(psi)'s
        # compensator exp(-10 beta (e^-1 E1(2.5) - E1(1))) and, per active row,
        # E[exp(-sum of the tilts)] over U.  An up-move that augmented the
        # pinned row, not the free process at a fresh total, read 9 MCSE high.
        deltas = np.array([0.3, 1.6, 0.2, 2.4, 0.5, 1.2, 0.1, 0.9, 3.1, 1.9])
        obs = g.Observations.from_increments(np.arange(11.0), deltas)
        lo, hi = 0.05, 8.0

        def log_tilt(beta, delta):
            # U and 1 - U share the law, so E is twice the integral over [0, 1/2]:
            # the tilt of delta (1 - u) up to c, then 1 (delta < 2) or the
            # tilts of both halves (delta >= 2)
            a, c = beta / 2, min(1 / delta, 1 - 1 / delta)
            edge = integrate.quad(lambda u: math.exp(-(1.5 * delta * (1 - u) + 1))
                                  * (1 - u) ** (a - 1), 0.0, c, weight="alg",
                                  wvar=(a - 1, 0.0), epsabs=0, epsrel=1e-11)[0]
            middle = (0.5 - special.betainc(a, a, c)) * (
                1.0 if delta < 2 else math.exp(-(1.5 * delta + 2)))
            return math.log(2 * (edge / special.beta(a, a) + middle))

        comp = math.exp(-1.0) * special.exp1(2.5) - special.exp1(1.0)
        betas = np.linspace(lo, hi, 261)
        log_density = np.array([gamma_dist.logpdf(deltas, b).sum() - 10 * b * comp
                                + sum(log_tilt(b, d) for d in deltas if d >= 1) for b in betas])
        weights = np.exp(log_density - log_density.max())
        target = (integrate.simpson(betas * weights, x=betas)
                  / integrate.simpson(weights, x=betas))
        assert target == pytest.approx(1.5698, abs=1e-4)

        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0), beta=g.Prior("uniform", lo, hi),
                            theta=(g.Prior("normal", 0, 1.0),), rho=(g.Prior("normal", 0, 1.0),))
        recs = list(g.run_mcmc(obs, g.ModelParams(1.0, 1.0, [1.0], [1.5], [1.0]), prior,
                               g.ProposalSpec(sigma_beta=0.5, update_schedule=("beta",)),
                               iterations=41_000, burn_in=1_000, seed=3, m=2))
        chain = np.array([r.beta for r in recs])
        batches = chain.reshape(100, -1).mean(axis=1)
        se = batches.std(ddof=1) / math.sqrt(batches.size)
        assert abs(chain.mean() - target) < 4 * se

    def test_negative_proposals_rejected(self):
        state = basic_state(seed=51, prior=self.prior())
        prop = g.ProposalSpec(sigma_beta=500.0)
        rejections = 0
        for _ in range(50):
            before = state.params.beta
            if not g.update_beta(state, prop)[0]:
                assert state.params.beta == before
                rejections += 1
        assert rejections > 0


class TestChainPrior:
    """The moves read the prior from the state, which ChainState.score sets."""

    def test_a_prior_over_other_bins_is_refused_at_score(self):
        # prior_logpdf zips the bins: a 2-bin prior would score a 3-bin state
        # without its third bin's terms
        params = g.ModelParams(1.0, 1.0, [0.5, 1.0, 2.0], [0.2, -0.1, 0.3], [0.1, 0.0, -0.2])
        theta, rho = normal_priors(3)
        three = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0), theta=theta, rho=rho)
        two = g.PriorSpec(alpha=three.alpha, theta=theta[:2], rho=rho[:2])
        state = basic_state(params=params, prior=three)
        log_prior = state.log_prior
        with pytest.raises(g.ConfigError, match="prior covers 2 bins but the model has 3"):
            state.score(two)
        assert state.prior is three and state.log_prior == log_prior
        # run_mcmc refuses it with the same error
        with pytest.raises(g.ConfigError, match="prior covers 2 bins but the model has 3"):
            g.run_mcmc(gamma_obs(), params, two, g.ProposalSpec(), iterations=5)

    def test_score_rescores_the_same_prior(self):
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0), theta=normal_priors(1)[0],
                            rho=normal_priors(1)[1])
        state = basic_state(params=g.ModelParams(1.0, 1.0, [0.5], [0.4], [0.2]), prior=prior)
        state.terms = ParamTerms.of(g.ModelParams(1.5, 1.0, [0.5], [0.1], [0.3]))
        assert state.score(prior) is state.terms
        assert state.log_prior == prior_at(prior, state.params)

    @pytest.mark.parametrize("move", [g.update_params, g.update_beta],
                             ids=["update_params", "update_beta"])
    def test_a_move_on_an_unscored_state_is_a_contract_error(self, move):
        state = basic_state()
        assert state.prior is None
        with pytest.raises(g.ContractError, match=r"call ChainState\.score\(prior\) first"):
            move(state, g.ProposalSpec())


class Replay:
    """Delegates to a Generator and keeps the values of every normal draw."""

    def __init__(self, gen):
        self.gen, self.normals = gen, []

    def normal(self, *args, **kwargs):
        self.normals.append(self.gen.normal(*args, **kwargs))
        return self.normals[-1]

    def __getattr__(self, name):
        return getattr(self.gen, name)

    def step(self, i):
        """The innovations of the i-th parameter step, from 0: row i % B of
        the (i // B)-th normal block, B = _WALK_STEPS."""
        block, row = divmod(i, mcmc._WALK_STEPS)
        return self.normals[block][row]


class TestParamTerms:
    def test_cache_matches_fresh_evaluation_every_sweep(self):
        params = g.ModelParams(1.0, 1.0, [0.3, 1.0], [0.0, 0.0], [0.0, 0.0])
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0),
                            beta=g.Prior("uniform", 0.05, 50.0),
                            theta=(g.Prior("normal", 0, 1.0),) * 2,
                            rho=(g.Prior("normal", 0, 1.5),) * 2)
        prop = g.ProposalSpec(sigma_beta=0.1)
        state = basic_state(obs=gamma_obs(n=30, seed=5), params=params, m=4, seed=17, prior=prior)
        state.rng_params = Replay(state.rng_params)
        checked = accepted_params = accepted_beta = 0
        for step in range(300):
            g.refresh_segments(state)
            before, stats = state.params, totals(state)
            accepted, log_ratio = g.update_params(state, prop)
            accepted_params += accepted
            if math.isfinite(log_ratio):
                # the candidate from the same innovations, on ModelParams
                z = state.rng_params.step(step)
                alpha = before.alpha + prop.sigma_alpha * z[0]
                cand = before.with_updates(
                    alpha=alpha,
                    theta_slopes=before.theta_slopes + prop.sigma_theta * z[1:3] - (alpha - before.alpha),
                    theta_intercepts=before.theta_intercepts + prop.sigma_rho * z[3:])
                # the from-scratch formula of test_logged_ratio_matches_manual_recompute;
                # the kernel sums the same terms in another order
                expected = (param_ratio(stats, before, cand)
                            + prior_at(prior, cand) - prior_at(prior, before))
                assert log_ratio == pytest.approx(expected, rel=1e-12, abs=1e-12)
                if accepted:
                    assert state.params.alpha == cand.alpha
                    assert np.array_equal(state.params.theta_slopes, cand.theta_slopes)
                    assert np.array_equal(state.params.theta_intercepts, cand.theta_intercepts)
                checked += 1
            accepted_beta += g.update_beta(state, prop)[0]
            terms, log_prior = state.terms, state.log_prior
            assert state.prior is prior
            assert (terms.alpha, terms.beta) == (state.params.alpha, state.params.beta)
            assert terms.slopes == tuple(state.params.theta_slopes)
            assert terms.intercepts == tuple(state.params.theta_intercepts)
            assert terms == ParamTerms.of(state.params)
            assert log_prior == prior_at(prior, state.params)
            assert terms.e1_b1 == g.exp_integral_e1([state.params.alpha * 0.3])[0]
            # the Gamma reference's masses, which psi_log subtracts
            ref = state.params.with_updates(theta_slopes=[0.0, 0.0], theta_intercepts=[0.0, 0.0])
            ref_units = reference_units(terms.alpha, terms.edges, terms.e1_b1)
            assert tuple(terms.beta * u for u in ref_units) == ParamTerms.of(ref).masses
        assert checked > 250
        assert 0 < accepted_params < 300 and 0 < accepted_beta < 300


class ReferenceUpdateParams:
    """update_params on ModelParams, with the candidate built as ModelParams and
    loglik_ratio_params and prior_logpdf evaluated afresh from it.

    The documented layout of rng_params, kept apart from the sampler's: every
    B = _WALK_STEPS steps draw a (B, 2N + 1) normal block, then B uniforms;
    the i-th step reads row i % B and uniform i % B, and a domain reject
    leaves its uniform unused.  A binless model takes the exact step (exact)
    instead.  One instance serves one chain.
    """

    def __init__(self):
        self.steps, self.normals, self.uniforms = 0, None, None

    def __call__(self, state, prop):
        params, prior, rng = state.params, state.prior, state.rng_params
        n, row = params.n_bins, self.steps % mcmc._WALK_STEPS
        if not n:
            return self.exact(state, params, prior, rng, row)
        if row == 0:
            self.normals = rng.normal(size=(mcmc._WALK_STEPS, 2 * n + 1))
            self.uniforms = rng.random(size=mcmc._WALK_STEPS)
        self.steps += 1
        z = self.normals[row]
        z_alpha, z_theta, z_rho = z[0], z[1:n + 1], z[n + 1:]
        alpha_new = params.alpha + prop.sigma_alpha * z_alpha
        if alpha_new <= 0:
            return False, -math.inf
        cand = params.with_updates(
            alpha=alpha_new,
            theta_slopes=params.theta_slopes + prop.sigma_theta * z_theta - (alpha_new - params.alpha),
            theta_intercepts=params.theta_intercepts + prop.sigma_rho * z_rho)
        if cand.n_bins and not cand.theta_slopes[-1] > -cand.alpha:
            # the tail rule, stated apart from prior_logpdf's
            return False, -math.inf
        lp_new = prior_at(prior, cand)
        if lp_new == -math.inf:
            return False, -math.inf
        log_ratio = float(param_ratio(totals(state), params, cand)
                          + lp_new - prior_at(prior, params))
        if not log_ratio >= math.log(self.uniforms[row]):
            return False, log_ratio
        set_params(state, cand)
        return True, log_ratio

    def exact(self, state, params, prior, rng, row):
        """The binless step: alpha° = G / S_0 with G ~ Gamma(1 + beta T), G and
        U drawn in the walk's blocks with beta fixed and one pair per step with
        beta random, accepted on the prior ratio alone."""
        shape = 1.0 + params.beta * state.grid.horizon
        if prior.beta_is_random:
            gamma, u = rng.standard_gamma(shape), rng.random()
        else:
            if row == 0:
                self.gammas = rng.standard_gamma(shape, size=mcmc._WALK_STEPS)
                self.uniforms = rng.random(size=mcmc._WALK_STEPS)
            self.steps += 1
            gamma, u = self.gammas[row], self.uniforms[row]
        cand = params.with_updates(alpha=float(gamma / state.total_sums[0]))
        lp_new = prior_at(prior, cand) if 0 < cand.alpha < math.inf else -math.inf
        if lp_new == -math.inf:
            return False, -math.inf
        log_ratio = lp_new - prior_at(prior, params)
        if not log_ratio >= math.log(u):
            return False, log_ratio
        set_params(state, cand)
        return True, log_ratio


def reference_update_beta(state, prop):
    """update_beta on ModelParams, with prior_logpdf and psi_log evaluated afresh
    and the Gamma densities of the observed increments one by one; an up-move
    scales each active row to a fresh Gamma(beta h_i, alpha) total first."""
    params, prior, rng = state.params, state.prior, state.rng_beta
    beta_new = params.beta + prop.sigma_beta * rng.normal()
    if beta_new <= 0:
        return False, -math.inf
    cand = params.with_updates(beta=beta_new)
    lp_diff = prior_at(prior, cand) - prior_at(prior, params)
    if lp_diff == -math.inf:
        return False, -math.inf
    active, new_stats = state.active, totals(state)
    if active.size:
        block, sub = state.increments[active], sub_spans(state)[active]
        deltas = state.obs.increments[active]
        if beta_new > params.beta:
            lift = rng.gamma(params.beta * state.grid.spans[active], 1 / params.alpha)
            block = augment_rows(rng, block * (lift / deltas)[:, None], sub, params.beta,
                                 beta_new, params.alpha)
        elif beta_new < params.beta:
            block = thin_rows(rng, block, sub, params.beta, beta_new)
        block, collapsed = pin_rows(block, deltas)
        if collapsed.any():
            return False, -math.inf
        stats = stacked(*bin_stats_matrix(block, params.bin_edges))
        new_totals = (state.inert_stats + np.add.reduce(stats, 0)).tolist()
        new_stats = bin_totals(*halves(new_totals), state.grid.horizon)
    density_diff = sum(g.gamma_logpdf(d, beta_new * h, params.alpha)
                       - g.gamma_logpdf(d, params.beta * h, params.alpha)
                       for d, h in zip(state.obs.increments, state.grid.spans))
    log_ratio = float(lp_diff + density_diff
                      + (psi(new_stats, cand) - psi(totals(state), params)))
    if not log_ratio >= math.log(rng.uniform()):
        return False, log_ratio
    set_params(state, cand)
    if active.size:
        state.write_block(block, stats)
    return True, log_ratio


def normal_priors(n, sd_theta=1.0, sd_rho=1.5):
    return (tuple(g.Prior("normal", 0, sd_theta) for _ in range(n)),
            tuple(g.Prior("normal", 0, sd_rho) for _ in range(n)))


def moment_gamma(mean, var):
    """The gamma prior with the given mean and variance."""
    return g.Prior("gamma", mean * mean / var, mean / var)


def kernel_model(name):
    """(obs, params0, prior, prop) of one of the oracle's models."""
    gamma_alpha = g.Prior("gamma", 2.0, 1.0)
    # a tight uniform beta prior: many beta candidates leave its support
    tight_beta = g.Prior("uniform", 0.8, 1.25)
    if name == "binned fixed beta":
        theta, rho = normal_priors(2)
        return (gamma_obs(n=40, seed=3), g.ModelParams(1.0, 1.0, [0.5, 1.5], [0.2, -0.1], [0.1, 0.0]),
                g.PriorSpec(alpha=gamma_alpha, theta=theta, rho=rho),
                g.ProposalSpec(sigma_alpha=0.1, sigma_theta=0.2, sigma_rho=0.3))
    if name == "binned random beta":
        theta, rho = normal_priors(2)
        return (gamma_obs(n=40, seed=4), g.ModelParams(1.0, 1.0, [0.5, 1.5], [0.0, 0.0], [0.0, 0.0]),
                g.PriorSpec(alpha=gamma_alpha, beta=tight_beta, theta=theta, rho=rho),
                g.ProposalSpec(sigma_alpha=0.1, sigma_theta=0.2, sigma_rho=0.3, sigma_beta=0.15,
                               update_schedule=("beta", "params")))
    if name == "binless":
        return (gamma_obs(n=40, seed=5), g.ModelParams(1.0, 1.0),
                g.PriorSpec(alpha=g.Prior("uniform", 0.5, 3.0), beta=tight_beta),
                g.ProposalSpec(sigma_alpha=0.3, sigma_beta=0.15, update_schedule=("beta", "params")))
    if name == "reparam":
        return (gamma_obs(n=30, seed=13), g.ModelParams(1.0, 1.0, [0.8], [0.0], [0.0]),
                g.PriorSpec(alpha=moment_gamma(0.75, 0.36), beta=tight_beta,
                            theta=(moment_gamma(0.75, 0.36),), rho=(moment_gamma(1.0, 1.0),),
                            reparam=True),
                g.ProposalSpec(sigma_alpha=0.1, sigma_theta=0.2, sigma_rho=0.3, sigma_beta=0.1,
                               update_schedule=("beta", "params", "params")))
    # slope_1 + alpha starts at exactly 0 and walks on both sides of it
    theta, rho = normal_priors(3, sd_theta=3.0)
    return (gamma_obs(n=30, seed=6),
            g.ModelParams(1.0, 1.0, [0.5, 1.0, 2.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
            g.PriorSpec(alpha=gamma_alpha, beta=tight_beta, theta=theta, rho=rho),
            g.ProposalSpec(sigma_alpha=0.05, sigma_theta=0.4, sigma_rho=0.3, sigma_beta=0.15,
                           update_schedule=("beta", "params")))


KERNEL_MODELS = ("binned fixed beta", "binned random beta", "binless", "reparam",
                 "interior rate <= 0")


class TestKernelOracle:
    """The float kernel against the moves as they ran on ModelParams and the
    scalar likelihood functions, side by side on twin streams."""

    @pytest.mark.parametrize("name", KERNEL_MODELS)
    def test_run_matches_the_scalar_moves(self, name):
        obs, params0, prior, prop = kernel_model(name)
        recs = list(g.run_mcmc(obs, params0, prior, prop, iterations=400, burn_in=0,
                               seed=5, m=4))
        oracle = list(run_with(g.refresh_segments, obs, params0, prior, prop, 400, 5, 4,
                               beta_move=reference_update_beta,
                               params_move=ReferenceUpdateParams()))
        for r, o in zip(recs, oracle, strict=True):
            assert (r.alpha, r.beta, r.theta, r.rho) == (o.alpha, o.beta, o.theta, o.rho)
            assert (r.accept_params, r.accept_beta) == (o.accept_params, o.accept_beta)
            assert (r.accept_path_rate, r.path_unpinnable) == (o.accept_path_rate,
                                                               o.path_unpinnable)
            for a, b in ((r.logr_params, o.logr_params), (r.logr_beta, o.logr_beta)):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-12) or (
                    math.isnan(a) and math.isnan(b))
        for move in ("params", "beta"):
            flags = [getattr(r, f"accept_{move}") for r in recs]
            logrs = [getattr(r, f"logr_{move}") for r in recs]
            attempted = sum(f is not None for f in flags)
            if attempted:
                # both accepted and rejected candidates, and some outside the support
                assert 0 < sum(bool(f) for f in flags) < attempted
        if prior.beta_is_random:
            assert any(r.logr_beta == -math.inf for r in recs)
        if name == "interior rate <= 0":
            rates = [r.theta[0] + r.alpha for r in recs]
            assert min(rates) < 0 < max(rates)


class TestSegmentTotals:
    def test_cache_matches_fresh_reduction_every_sweep(self):
        params = g.ModelParams(1.0, 1.0, [0.3, 1.0], [0.0, 0.0], [0.0, 0.0])
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0),
                            beta=g.Prior("uniform", 0.05, 50.0),
                            theta=(g.Prior("normal", 0, 1.0),) * 2,
                            rho=(g.Prior("normal", 0, 1.5),) * 2)
        prop = g.ProposalSpec(sigma_beta=0.1)
        state = basic_state(obs=gamma_obs(n=30, seed=5), params=params, m=4, seed=17, prior=prior)
        assert 0 < state.active.size < state.n_segments
        inert = np.setdiff1d(np.arange(state.n_segments), state.active)
        inert_rows = state.increments[inert].copy()
        assert_totals_current(state)
        accepted_beta = 0
        for _ in range(300):
            g.refresh_segments(state)
            assert_totals_current(state)
            g.update_params(state, prop)
            accepted_beta += g.update_beta(state, prop)[0]
            assert_totals_current(state)
            # no move writes an inert row
            assert np.array_equal(state.increments[inert], inert_rows)
        assert 0 < accepted_beta < 300


class TestActiveBlock:
    """The full-width views after every move of the active block."""

    prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0), beta=g.Prior("uniform", 0.05, 50.0),
                        theta=(g.Prior("normal", 0, 1.0),) * 2,
                        rho=(g.Prior("normal", 0, 1.5),) * 2)

    def chain(self, name):
        obs = gamma_obs(n=30, seed=9)
        if name == "binless":
            prior = g.PriorSpec(alpha=self.prior.alpha, beta=self.prior.beta)
            return basic_state(obs=obs, m=4, seed=11, prior=prior)
        # the first edge below every increment, or inside their range
        b1 = 0.9 * float(obs.increments.min()) if name == "every row active" else 0.5
        params = g.ModelParams(1.0, 1.0, [b1, 0.8], [0.3, -0.2], [0.2, 0.1])
        return basic_state(obs=obs, params=params, m=4, seed=11, prior=self.prior)

    @pytest.mark.parametrize("name", ["binless", "every row active", "mixed"])
    def test_views_after_refresh_params_and_beta_moves(self, name):
        state = self.chain(name)
        n_active = state.active.size
        assert n_active == {"binless": 0, "every row active": 30}.get(name, n_active)
        assert name != "mixed" or 0 < n_active < 30
        inert = np.setdiff1d(np.arange(state.n_segments), state.active)
        start = tuple(a.copy() for a in (state.increments, state.seg_sums, state.seg_counts))
        deltas = state.obs.increments

        def check_views():
            views = increments, sums, counts = state.increments, state.seg_sums, state.seg_counts
            assert np.all(np.abs(increments.sum(axis=1) - deltas) <= 1e-9 * deltas)
            fresh_sums, fresh_counts = bin_stats_matrix(increments, state.params.bin_edges)
            assert np.array_equal(fresh_sums, sums) and np.array_equal(fresh_counts, counts)
            n = len(state.total_sums)
            blocks = state.block, state.block_stats[:, :n], state.block_stats[:, n:]
            for got, first, block in zip(views, start, blocks):
                assert got[inert].tobytes() == first[inert].tobytes()
                assert np.array_equal(got[state.active], block)

        prop = g.ProposalSpec(sigma_beta=0.1)
        accepted = 0
        for _ in range(200):
            g.refresh_segments(state)
            check_views()
            g.update_params(state, prop)
            accepted += g.update_beta(state, prop)[0]
            check_views()
        assert 0 < accepted < 200
        if n_active:
            assert not np.array_equal(state.increments[state.active], start[0][state.active])

    @pytest.mark.parametrize("attr", ["increments", "seg_sums", "seg_counts"])
    def test_writing_into_a_view_raises(self, attr):
        state = self.chain("mixed")
        view = getattr(state, attr)
        with pytest.raises(ValueError, match="read-only"):
            view[state.active[0]] = 0
        assert np.array_equal(getattr(state, attr), view)
        assert getattr(state, attr) is not view


class TestSweepTypes:
    def test_run_builds_no_model_params_or_bin_stats(self, monkeypatch):
        obs, params0, prior, prop = kernel_model("binned random beta")
        built = []
        for cls in (g.ModelParams,):
            def counted(self, post_init=cls.__post_init__):
                built.append(type(self).__name__)
                post_init(self)
            monkeypatch.setattr(cls, "__post_init__", counted)
        init_chain = mcmc.init_chain

        def init_then_count(*args):
            state = init_chain(*args)
            built.clear()
            return state

        monkeypatch.setattr(mcmc, "init_chain", init_then_count)
        recs = list(g.run_mcmc(obs, params0, prior, prop, iterations=300, burn_in=0,
                               seed=5, m=4))
        assert built == []
        assert any(r.accept_params for r in recs) and any(r.accept_beta for r in recs)
        # the counter sees the API edge
        recs[-1].to_params(params0.bin_edges)
        assert built == ["ModelParams"]


class TestNonFiniteRatios:
    """Faults are injected through the bin totals, which both ratios read."""

    prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0), beta=g.Prior("uniform", 0.05, 50.0))

    @staticmethod
    def with_total(state, k, value):
        sums = list(state.total_sums)
        sums[k] = value
        state.total_sums = sums
        return state

    def test_nan_parameter_ratio_raises(self):
        # a NaN S_0 makes the binless step's alpha° = G / S_0 NaN, which the
        # prior would score -inf: it raises, naming the sweep
        state = self.with_total(basic_state(prior=self.prior), 0, math.nan)
        state.iteration = 12
        with pytest.raises(g.ContractError, match="NaN at sweep 12"):
            g.update_params(state, g.ProposalSpec())

    def test_nan_beta_ratio_raises(self):
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0), beta=g.Prior("uniform", 0.05, 50.0),
                            theta=(g.Prior("normal", 0, 1.0),), rho=(g.Prior("normal", 0, 1.5),))
        state = basic_state(params=g.ModelParams(1.0, 1.0, [0.5], [0.4], [0.2]), seed=71,
                            prior=prior)
        self.with_total(state, 1, math.nan)
        with pytest.raises(g.ContractError, match="NaN"):
            g.update_beta(state, g.ProposalSpec())

    def test_minus_inf_ratio_is_a_rejection(self):
        class Upward:
            def normal(self, size):
                return np.ones(size)

            def standard_gamma(self, shape, size=None):
                return shape if size is None else np.full(size, shape)

            def random(self, size=None):
                return 0.5 if size is None else np.full(size, 0.5)

        # against an infinite S_0 the binless step's alpha° = G / S_0 is 0, a
        # domain reject, and a binned walk's alpha step up gives a ratio of -inf
        prior = g.PriorSpec(alpha=self.prior.alpha, beta=self.prior.beta,
                            theta=normal_priors(1)[0], rho=normal_priors(1)[1])
        for params, spec in ((g.ModelParams(1.0, 1.0), self.prior),
                             (g.ModelParams(1.0, 1.0, [0.5], [0.0], [0.0]), prior)):
            state = self.with_total(basic_state(params=params), 0, math.inf)
            state.rng_params = Upward()
            terms = state.score(spec)
            assert g.update_params(state, g.ProposalSpec()) == (False, -math.inf)
            assert state.terms is terms

    @staticmethod
    def walk(*step):
        """An rng_params whose every parameter step is z = step, at ln U = ln 0.5."""
        class Walk:
            def normal(self, size):
                return np.tile(step, (size[0], 1))

            def random(self, size):
                return np.full(size, 0.5)

        return Walk()

    def test_ei_overflow_is_a_domain_reject(self):
        # slope_1 + alpha walks from -0.5 to -4 on [200, 300): Ei(-c b) overflows
        # at both edges, the candidate's bin-1 mass is +inf and its ratio -inf.  At
        # rho_1 = 750 exp(-rho_1) underflows to 0, and the mass is +inf all the same
        for rho_1, sd_rho in ((0.0, 1.5), (750.0, 1000.0)):
            prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0), theta=normal_priors(2)[0],
                                rho=normal_priors(2, sd_rho=sd_rho)[1])
            state = basic_state(params=g.ModelParams(1.0, 1.0, [200.0, 300.0], [-1.5, 0.5],
                                                     [rho_1, 0.0]))
            state.rng_params = self.walk(0.0, -3.5, 0.0, 0.0, 0.0)
            terms = state.score(prior)
            accepted, log_ratio = g.update_params(state, g.ProposalSpec(sigma_theta=1.0))
            assert (accepted, log_ratio) == (False, -math.inf)
            assert state.terms is terms
            tally = chain.MoveTally()
            tally.add(chain.ChainRecord(1, *terms[1:5], 1.0, accepted, logr_params=log_ratio))
            assert tally.acceptance()["params_domain_rejects"] == 1

    @pytest.mark.parametrize("reparam", [False, True], ids=["default", "reparam"])
    def test_a_non_finite_candidate_is_a_domain_reject(self, reparam):
        # a NaN or infinite step of alpha or beta leaves the domain, one of the
        # slope or the intercept makes prior_logpdf -inf: either way the move
        # returns (False, -inf) before a ratio is formed
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0), beta=g.Prior("uniform", 0.05, 50.0),
                            theta=normal_priors(1)[0], rho=normal_priors(1)[1], reparam=reparam)
        prop = g.ProposalSpec(update_schedule=("beta", "params"))

        class BetaStep:
            """An rng_beta whose beta step is z = step."""

            def __init__(self, step):
                self.step = step

            def normal(self):
                return self.step

        for bad in (math.nan, math.inf, -math.inf):
            for step in ((bad, 0.0, 0.0), (0.0, bad, 0.0), (0.0, 0.0, bad)):
                state = basic_state(params=g.ModelParams(1.0, 1.0, [0.5], [0.5], [0.0]))
                state.rng_params = self.walk(*step)
                terms = state.score(prior)
                assert g.update_params(state, prop) == (False, -math.inf), step
                assert state.terms is terms
            state = basic_state(params=g.ModelParams(1.0, 1.0, [0.5], [0.5], [0.0]))
            state.rng_beta = BetaStep(bad)
            terms = state.score(prior)
            assert g.update_beta(state, prop) == (False, -math.inf), bad
            assert state.terms is terms

    @pytest.mark.parametrize("edge, finite", [(1.0, False), (20.0, True)])
    def test_intercept_step_past_the_exp_overflow_is_a_rejection(self, edge, finite):
        # rho_1 walks from -705 to -715, where exp(-rho_1) overflows: the
        # candidate's mass comes from logs, beta e^715 E1(1.5 b_1).  At b_1 = 1
        # that is past the float range, +inf, and the ratio -inf; at b_1 = 20
        # E1(30) ~ 3e-15 keeps it finite, and the ratio is finite and rejects
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0), theta=normal_priors(1)[0],
                            rho=normal_priors(1, sd_rho=1000.0)[1])
        state = basic_state(params=g.ModelParams(1.0, 1.0, [edge], [0.5], [-705.0]))
        assert all(map(math.isfinite, state.terms.masses))
        state.rng_params = self.walk(0.0, 0.0, -10.0)
        terms = state.score(prior)
        accepted, log_ratio = g.update_params(state, g.ProposalSpec(sigma_rho=1.0))
        assert not accepted and state.terms is terms
        assert math.isfinite(log_ratio) == finite and log_ratio < -1e290


class TestReparam:
    def test_walk_is_the_default_modes(self):
        # reparam changes the prior alone: alpha, slope_1 and rho_1 move by
        # the correlated walk of the default mode, rho_1 by sigma_rho * z
        params = g.ModelParams(0.8, 90.0, [2.0], [0.15], [0.4])
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0), beta=g.Prior("uniform", 1.0, 200.0),
                            theta=(g.Prior("gamma", 2.0, 1.0),),
                            rho=(g.Prior("uniform", 1.0, 200.0),), reparam=True)
        prop = g.ProposalSpec(sigma_alpha=0.05, sigma_theta=0.05, sigma_rho=0.05,
                              update_schedule=("beta", "params"))
        state = basic_state(params=params, seed=3, prior=prior)
        state.rng_params = Replay(state.rng_params)
        moved = 0
        for step in range(20):
            before = state.terms
            accepted, _ = g.update_params(state, prop)
            if not accepted:
                continue
            z = state.rng_params.step(step).tolist()
            after = state.terms
            assert after.alpha == before.alpha + prop.sigma_alpha * z[0]
            shift = after.alpha - before.alpha
            assert after.slopes == (before.slopes[0] + prop.sigma_theta * z[1] - shift,)
            assert after.intercepts == (before.intercepts[0] + prop.sigma_rho * z[2],)
            assert after.beta == before.beta
            moved += 1
        assert moved > 5

    @staticmethod
    def check_param_move(edges, beta_prior, steps):
        # The parameter move alone, beta held at its value: the bin totals S_0
        # ... S_N and C_0 ... C_N stay as init_chain drew them.  With c_k =
        # alpha + slope_k and w_k = beta exp(-rho_k) under the gamma(a, b) rho
        # prior, the posterior factorises: alpha ~ p_alpha(alpha) exp(-alpha S_0
        # + T beta (ln alpha + E1(alpha b_1))), c_k ~ p_c(c) exp(-c S_k) (b + T
        # u_k(c))^-(a + C_k), and w_k | c_k ~ Gamma(a + C_k, b + T u_k(c_k)),
        # with u_k(c) = E1(c b_k) - E1(c b_{k+1}), E1(c b_N) for the tail bin.
        beta, a, b, n = 1.0, 3.0, 2.0, len(edges)
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0), beta=beta_prior,
                            theta=(g.Prior("gamma", 2.0, 1.0),) * n,
                            rho=(g.Prior("gamma", a, b),) * n, reparam=True)
        prop = g.ProposalSpec(sigma_alpha=0.4, sigma_theta=0.6, sigma_rho=0.6)
        state = basic_state(obs=gamma_obs(n=30, seed=13),
                            params=g.ModelParams(1.0, beta, edges, [0.0] * n, [0.0] * n), seed=3,
                            prior=prior)
        sums, counts, horizon = list(state.total_sums), list(state.total_counts), state.grid.horizon
        draws = []
        for _ in range(steps):
            g.update_params(state, prop)
            t = state.terms
            draws.append((t.alpha, *(t.alpha + slope for slope in t.slopes),
                          *(t.beta * math.exp(-rho) for rho in t.intercepts)))
        assert (state.total_sums, state.total_counts) == (sums, counts)

        def units(x, k):
            upper = special.exp1(x * edges[k + 1]) if k + 1 < n else 0.0
            return special.exp1(x * edges[k]) - upper

        def log_alpha(x):
            return (math.log(x) - x - x * sums[0]
                    + horizon * beta * (math.log(x) + special.exp1(x * edges[0])))

        def log_c(k):
            return lambda x: (math.log(x) - x - x * sums[k + 1]
                              - (a + counts[k + 1]) * math.log(b + horizon * units(x, k)))

        def expectation(log_density, h):
            top = max(map(log_density, np.linspace(0.01, 20.0, 2000)))

            def moment(f):
                return integrate.quad(lambda x: f(x) * math.exp(log_density(x) - top), 0, np.inf,
                                      epsabs=0, epsrel=1e-10, limit=200)[0]
            return moment(h) / moment(lambda x: 1.0)

        targets = ([expectation(log_alpha, lambda x: x)]
                   + [expectation(log_c(k), lambda x: x) for k in range(n)]
                   + [expectation(log_c(k), lambda x, k=k: (a + counts[k + 1])
                                  / (b + horizon * units(x, k))) for k in range(n)])
        chains = np.array(draws[2_000:]).T
        for chain, target in zip(chains, targets, strict=True):
            batches = chain[: 20 * (chain.size // 20)].reshape(20, -1).mean(axis=1)
            se = batches.std(ddof=1) / math.sqrt(batches.size)
            assert abs(chain.mean() - target) < 4 * se

    def test_param_move_targets_the_documented_law(self):
        self.check_param_move((0.3,), g.Prior("uniform", 0.5, 2.0), 42_000)

    @pytest.mark.parametrize("beta_prior", [g.Prior("uniform", 0.5, 2.0), None],
                             ids=["random beta", "fixed beta"])
    def test_param_move_targets_the_documented_law_three_bins(self, beta_prior):
        # the Jacobian's -rho_k reaches every bin, with beta random or fixed:
        # with -rho_1 alone, the mean of w_2 lies 33 MCSE below its target
        self.check_param_move((0.3, 0.6, 1.2), beta_prior, 60_000)

    def test_reparam_sampler_smoke(self):
        obs = gamma_obs(n=30, seed=13)
        params0 = g.ModelParams(1.0, 1.0, [2.0], [0.0], [0.0])
        prior = g.PriorSpec(alpha=moment_gamma(0.75, 0.36), beta=moment_gamma(1.0, 1.0),
                            theta=(moment_gamma(0.75, 0.36),), rho=(moment_gamma(1.0, 1.0),),
                            reparam=True)
        prop = g.ProposalSpec(sigma_alpha=0.05, sigma_theta=0.05, sigma_rho=0.1,
                              sigma_beta=0.05,
                              update_schedule=("beta", "beta", "params", "params", "params"))
        recs = list(g.run_mcmc(obs, params0, prior, prop, iterations=400,
                               burn_in=100, seed=17, m=4))
        assert len(recs) == 300
        assert any(r.accept_params for r in recs if r.accept_params is not None)
        assert all(math.isfinite(r.alpha) for r in recs)

    @staticmethod
    def check_beta_move(edges, slopes, rhos):
        # b_1 lies above every increment: each segment is inert, so psi is only
        # its compensator term, -T beta (sum_k exp(-rho_k) u_k(c_k) - E1(alpha
        # b_1)) with c_k = alpha + slope_k and u_k as in check_param_move.  With
        # alpha, the slopes and the rhos fixed, beta's conditional is its uniform
        # prior, the rho prior's gamma(3, 2) density at each beta exp(-rho_k),
        # the Jacobian beta^N of those coordinates at fixed rho, the Gamma
        # densities of the increments and exp(psi).
        deltas = np.array([0.42, 1.35, 0.18, 0.77])
        assert edges[0] > deltas.max()
        obs = g.Observations.from_increments(np.arange(5.0), deltas)
        alpha, horizon, n = 1.0, 4.0, len(edges)
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0), beta=g.Prior("uniform", 0.05, 6.0),
                            theta=(g.Prior("gamma", 2.0, 1.0),) * n,
                            rho=(g.Prior("gamma", 3.0, 2.0),) * n, reparam=True)
        uppers = [special.exp1((alpha + s) * b) for s, b in zip(slopes[:-1], edges[1:])] + [0.0]
        comp = sum(math.exp(-rho) * (special.exp1((alpha + s) * b) - upper)
                   for s, rho, b, upper in zip(slopes, rhos, edges, uppers))
        comp -= special.exp1(alpha * edges[0])

        def mean_of(jacobian):
            def log_density(beta):
                return (sum(gamma_dist.logpdf(beta * math.exp(-rho), 3.0, scale=0.5)
                            for rho in rhos)
                        + jacobian * math.log(beta)
                        + gamma_dist.logpdf(deltas, beta, scale=1 / alpha).sum()
                        - horizon * beta * comp)

            def moment(k):
                return integrate.quad(lambda b: b ** k * math.exp(log_density(b)), 0.05, 6.0,
                                      epsabs=0, epsrel=1e-12, limit=200)[0]
            return moment(1) / moment(0)

        target = mean_of(jacobian=n)
        recs = list(g.run_mcmc(obs, g.ModelParams(alpha, 0.6, edges, slopes, rhos), prior,
                               g.ProposalSpec(sigma_beta=0.8, update_schedule=("beta",)),
                               iterations=80_000, burn_in=1_000, seed=3, m=3))
        assert {(r.alpha, r.theta, r.rho) for r in recs} == {(alpha, slopes, rhos)}
        chain = np.array([r.beta for r in recs])
        batches = chain[: 20 * (chain.size // 20)].reshape(20, -1).mean(axis=1)
        se = batches.std(ddof=1) / math.sqrt(batches.size)
        assert abs(chain.mean() - target) < 4 * se
        # the law with fewer than N factors of beta is far out of reach
        for jacobian in range(n):
            assert abs(mean_of(jacobian) - target) > 20 * se

    def test_beta_move_targets_the_documented_law(self):
        self.check_beta_move((2 * 1.35,), (0.3,), (0.5,))

    def test_beta_move_targets_the_documented_law_three_bins(self):
        # the Jacobian carries beta^3: with ln(beta) added once, the chain's
        # mean lies 79 MCSE below its target
        b1 = 2 * 1.35
        self.check_beta_move((b1, 1.5 * b1, 3 * b1), (0.3, -0.2, 0.6), (0.5, -0.3, 1.0))


FIVE_SWEEP_BETA = ("beta", "params", "params", "params", "params")


class TestRunMcmc:
    def prior(self):
        return g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0))

    def test_zero_post_burn_in_iterations(self):
        recs = list(g.run_mcmc(gamma_obs(), g.ModelParams(1.0, 1.0), self.prior(),
                               g.ProposalSpec(), iterations=10, burn_in=10, seed=0, m=3))
        assert recs == []

    def test_same_seed_identical_streams(self):
        kwargs = dict(iterations=60, burn_in=10, seed=12, m=4)
        a = list(g.run_mcmc(gamma_obs(), g.ModelParams(1.0, 1.0), self.prior(),
                            g.ProposalSpec(), **kwargs))
        b = list(g.run_mcmc(gamma_obs(), g.ModelParams(1.0, 1.0), self.prior(),
                            g.ProposalSpec(), **kwargs))
        assert a == b

    def test_configuration_errors_before_sampling(self):
        obs = gamma_obs()
        p0 = g.ModelParams(1.0, 1.0)
        with pytest.raises(g.ConfigError):
            g.run_mcmc(obs, p0, self.prior(), g.ProposalSpec(), iterations=5, burn_in=9, seed=0)
        with pytest.raises(g.ConfigError):
            g.run_mcmc(obs, p0, self.prior(), g.ProposalSpec(update_schedule=("beta",)),
                       iterations=5, burn_in=0, seed=0)
        bad_prior = g.PriorSpec(alpha=g.Prior("uniform", 5.0, 6.0))
        with pytest.raises(g.ConfigError):
            g.run_mcmc(obs, p0, bad_prior, g.ProposalSpec(), iterations=5, burn_in=0, seed=0)

    def test_start_with_an_infinite_bin_mass_is_refused(self):
        # slope_1 + alpha = -4 on [200, 300): the Ei of the bin's mass overflows
        theta, rho = normal_priors(2, sd_theta=3.0)
        p0 = g.ModelParams(1.0, 1.0, [200.0, 300.0], [-5.0, 0.5], [0.0, 0.0])
        with pytest.raises(g.ConfigError, match="infinite mass"):
            g.run_mcmc(gamma_obs(), p0, g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0),
                                                    theta=theta, rho=rho),
                       g.ProposalSpec(), iterations=5)

    @pytest.mark.parametrize("kwargs, error, message", [
        (dict(m=0), g.DomainError, "refinement count must be an integer >= 1, got 0"),
        (dict(m=2.5), g.DomainError, "refinement count must be an integer >= 1, got 2.5"),
        (dict(seed=-1), g.ConfigError,
         "seed must be a non-negative integer or a sequence of them, got -1"),
        (dict(seed=[3, -1]), g.ConfigError, "got \\[3, -1\\]"),
    ], ids=["m=0", "m=2.5", "seed=-1", "seed=[3, -1]"])
    def test_seed_and_m_checked_at_the_call(self, kwargs, error, message):
        # the call raises, before any next() draws a sweep: m is TimeGrid's to check
        with pytest.raises(error, match=message):
            g.run_mcmc(gamma_obs(), g.ModelParams(1.0, 1.0), self.prior(), g.ProposalSpec(),
                       iterations=5, **kwargs)

    def test_tail_rule_checked_at_the_call(self):
        # theta_N <= -alpha gives the tail bin infinite mass, whatever the priors
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0), theta=(g.Prior("normal", 0, 5.0),),
                            rho=(g.Prior("normal", 0, 5.0),))
        for slope in (-1.0, -1.5):
            params0 = g.ModelParams(1.0, 1.0, [0.5], [slope], [0.0])
            with pytest.raises(g.ConfigError, match="theta_N <= -alpha"):
                g.run_mcmc(gamma_obs(), params0, prior, g.ProposalSpec(), iterations=5, m=3)

    def test_random_beta_needs_a_beta_stage(self):
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0),
                            beta=g.Prior("uniform", 0.05, 50.0))
        with pytest.raises(g.ConfigError, match="beta stage"):
            list(g.run_mcmc(gamma_obs(), g.ModelParams(1.0, 1.0), prior, g.ProposalSpec(),
                            iterations=20, burn_in=0, seed=2, m=3))
        # one beta move per five sweeps, named in the schedule
        recs = list(g.run_mcmc(gamma_obs(), g.ModelParams(1.0, 1.0), prior,
                               g.ProposalSpec(update_schedule=FIVE_SWEEP_BETA),
                               iterations=20, burn_in=0, seed=2, m=3))
        assert [r.iteration for r in recs if r.accept_beta is not None] == [1, 6, 11, 16]
        assert all((r.accept_params is None) == (r.accept_beta is not None) for r in recs)

    def test_retained_states_respect_support(self):
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0),
                            beta=g.Prior("uniform", 0.05, 50.0),
                            theta=(g.Prior("normal", 0, 3.0),),
                            rho=(g.Prior("normal", 0, 7.0),))
        params0 = g.ModelParams(1.0, 1.0, [0.5], [0.0], [0.0])
        recs = list(g.run_mcmc(gamma_obs(n=10), params0, prior,
                               g.ProposalSpec(sigma_theta=0.5, sigma_rho=0.5,
                                              update_schedule=FIVE_SWEEP_BETA),
                               iterations=200, burn_in=0, seed=4, m=3))
        for r in recs:
            assert r.alpha > 0 and r.beta > 0
            assert r.theta[0] > -r.alpha


class TestChainIo:
    def make_records(self):
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0),
                            beta=g.Prior("uniform", 0.05, 50.0))
        return list(g.run_mcmc(gamma_obs(n=6), g.ModelParams(1.0, 1.0), prior,
                               g.ProposalSpec(update_schedule=FIVE_SWEEP_BETA),
                               iterations=25, burn_in=5, seed=9, m=3))

    def test_round_trip(self):
        recs = self.make_records()
        buf = io.StringIO()
        write_chain_csv(recs, buf, 0)
        buf.seek(0)
        back = read_chain_csv(buf)
        assert back == recs

    def test_repeated_fields_are_shared(self):
        # a binned chain with random beta: a parameter step leaves beta as it
        # was, a beta move alpha and the theta/rho block, a rejection both
        obs, params0, prior, prop = kernel_model("binned random beta")
        recs = list(g.run_mcmc(obs, params0, prior, prop, iterations=300, burn_in=0, seed=5,
                               m=4))
        buf = io.StringIO()
        write_chain_csv(recs, buf, 2)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        back = read_chain_csv(io.StringIO(buf.getvalue()))
        assert back == recs
        for name, cols in (("alpha", [1]), ("beta", [2]), ("theta", [3, 4, 5, 6]),
                           ("rho", [3, 4, 5, 6])):
            repeats = [[row[c] for c in cols] == [prev[c] for c in cols]
                       for prev, row in zip(rows, rows[1:])]
            shared = [getattr(b, name) is getattr(a, name) for a, b in zip(back, back[1:])]
            assert shared == repeats, name
            assert 0 < sum(repeats) < len(repeats), name
            # one object per run of equal texts
            assert len({id(getattr(r, name)) for r in back}) == len(rows) - sum(repeats), name
        # each distinct path rate text is one float object
        assert len({id(r.accept_path_rate) for r in back}) == len({row[7] for row in rows}) > 1
        for r in back:
            for flag, logr in ((r.accept_params, r.logr_params), (r.accept_beta, r.logr_beta)):
                assert (flag is None) == math.isnan(logr)

    def test_zero_after_negative_zero_is_not_shared(self):
        # equal floats, different texts: each row parses its own
        rows = ["1,-0.0,-0.0,-0.0,-0.0,-0.0,1,,0.5,", "2,0.0,0.0,0.0,0.0,0.0,1,,0.5,"]
        first, second = read_chain_csv(io.StringIO("\n".join([chain_csv_header(1), *rows])))
        for r, sign in ((first, -1.0), (second, 1.0)):
            for v in (r.alpha, r.beta, *r.theta, *r.rho, r.accept_path_rate):
                assert v == 0.0 and math.copysign(1.0, v) == sign

    @pytest.mark.parametrize("column, value, detail", [
        ("iteration", "3.5", "'3.5'"),
        ("accept_path_rate", "abc", "'abc'"),
        ("accept_params", "2", "accept flag must be empty, 0 or 1, got '2'"),
        ("logr_params", "z", "'z'"),
        ("rho_1", "inf", "accept_path_rate must be finite"),
    ])
    def test_bad_field_beside_shared_ones_names_its_line(self, column, value, detail):
        # line 4 repeats every field of line 3 but one, as line 3 repeats line 2's
        header = chain_csv_header(1)
        row = "2,1.0,2.0,0.5,-0.5,0.9,1,,0.1,".split(",")
        bad = ["4", *row[1:]]
        bad[header.split(",").index(column)] = value
        text = "\n".join([header, ",".join(row), ",".join(["3", *row[1:]]), ",".join(bad)])
        with pytest.raises(g.DataError) as err:
            read_chain_csv(io.StringIO(text))
        assert str(err.value).startswith("chain line 4: ") and detail in str(err.value)

    @pytest.mark.parametrize("row, detail", [
        ("3,1.0,2.0,0.5,1", "expected 8 fields, got 5"),          # truncated
        ("3,1.0,2.0,0.5,1,,0.1,,,", "expected 8 fields, got 10"),
        ("3,abc,2.0,0.5,1,,0.1,", "'abc'"),
        ("3.5,1.0,2.0,0.5,1,,0.1,", "'3.5'"),
        ("3,1.0,2.0,0.5,yes,,0.1,", "'yes'"),
        ("3,1.0,2.0,0.5,1,7,0.1,", "accept flag must be empty, 0 or 1, got '7'"),
    ])
    def test_malformed_row_names_its_line(self, row, detail):
        good = "2,1.0,2.0,0.5,1,,0.1,"
        buf = io.StringIO(chain_csv_header(0) + "\n" + good + "\n" + row + "\n")
        with pytest.raises(g.DataError) as err:
            read_chain_csv(buf)
        assert str(err.value).startswith("chain line 3: ")
        assert detail in str(err.value)

    @pytest.mark.parametrize("column", ["alpha", "beta", "theta_1", "rho_1",
                                        "accept_path_rate"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_its_line(self, column, value):
        header = chain_csv_header(1)
        good = "2,1.0,2.0,0.5,-0.5,0.9,0,,-inf,"     # a domain reject's -inf ratio reads back
        row = good.split(",")
        row[header.split(",").index(column)] = value
        buf = io.StringIO(header + "\n" + good + "\n" + ",".join(row) + "\n")
        with pytest.raises(g.DataError, match="^chain line 3: .*accept_path_rate must be finite$"):
            read_chain_csv(buf)
        assert read_chain_csv(io.StringIO(header + "\n" + good + "\n"))[0].logr_params == -math.inf

    def test_foreign_header_rejected(self):
        with pytest.raises(g.DataError, match="header"):
            read_chain_csv(io.StringIO("time,value\n0.0,0.0\n"))

    def test_numpy_scalars_round_trip(self):
        # a record holding numpy scalars writes the text of the Python floats
        # (repr would write 'np.float64(2.0)', which read_chain_csv rejects)
        mixed = chain.ChainRecord(3, np.float64(2.0), 0.5, (np.float64(0.25),), (np.float64(-1.5),),
                                 np.float64(0.9), accept_params=True,
                                 logr_params=np.float64(-0.125))
        plain = chain.ChainRecord(3, 2.0, 0.5, (0.25,), (-1.5,), 0.9, accept_params=True,
                                 logr_params=-0.125)
        texts = []
        for rec in (mixed, plain):
            buf = io.StringIO()
            write_chain_csv([rec], buf, 1)
            texts.append(buf.getvalue())
        assert texts[0] == texts[1]
        assert read_chain_csv(io.StringIO(texts[0])) == [plain]

    def test_header(self):
        assert chain_csv_header(2) == (
            "iteration,alpha,beta,theta_1,theta_2,rho_1,rho_2,"
            "accept_path_rate,accept_params,accept_beta,logr_params,logr_beta")

    def test_meta_json(self):
        recs = self.make_records()
        buf = io.StringIO()
        write_meta_json(buf, config_echo={"alpha_init": "1.0"}, records=recs)
        meta = json.loads(buf.getvalue())
        assert meta["config"]["alpha_init"] == "1.0"
        assert meta["n_records"] == len(recs)
        assert 0.0 <= meta["acceptance"]["path_refresh_mean_rate"] <= 1.0
        # a tally not given the segment counts has no active-row rate
        assert meta["acceptance"]["path_refresh_active_rate"] is None

    def test_active_rate_counts_every_rejection_against_the_active_rows(self):
        # 10 segments, 4 active: sweeps with 0, 1 and 3 rejected rows
        tally = chain.MoveTally(n_segments=10, n_active=4)
        for rejected in (0, 1, 3):
            tally.add(chain.ChainRecord(1, 1.0, 1.0, (), (), (10 - rejected) / 10))
        assert tally.path_mean_rate == pytest.approx(1 - 4 / 30, rel=1e-15)
        assert tally.path_active_rate == pytest.approx(1 - 4 / 12, rel=1e-14)
        assert chain.MoveTally(n_segments=10, n_active=0).path_active_rate is None
        assert chain.MoveTally(n_segments=10, n_active=4).path_active_rate is None

    def test_tally_sums_the_unpinnable_proposals(self):
        tally = chain.MoveTally()
        for unpinnable in (0, 2, 5):
            tally.add(chain.ChainRecord(1, 1.0, 1.0, (), (), 0.5, path_unpinnable=unpinnable))
        assert tally.acceptance()["path_refresh_unpinnable"] == 7


class TestGammaExactness:
    def test_alpha_posterior_matches_quadrature_small(self):
        # binless model: the alpha posterior is known up to 1-d quadrature
        obs = gamma_obs(n=40, dt=1.0, beta=1.0, alpha=2.0, seed=19)
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0))
        recs = list(g.run_mcmc(obs, g.ModelParams(1.0, 1.0), prior,
                               g.ProposalSpec(sigma_alpha=0.15), iterations=6000,
                               burn_in=1000, seed=23, m=4))
        chain = np.array([r.alpha for r in recs])
        T, XT = obs.times[-1], obs.values[-1]
        # dense trapezoid quadrature of prior * product of Gamma densities,
        # evaluated in log space; the prior is conjugate here, so the
        # quadrature oracle is itself validated against the closed form
        a = np.linspace(1e-6, 8.0, 200_001)
        logpost = (2 - 1) * np.log(a) - a + 1.0 * T * np.log(a) - a * XT
        w = np.exp(logpost - logpost.max())
        target = np.trapezoid(a * w, a) / np.trapezoid(w, a)
        assert target == pytest.approx((2 + 1.0 * T) / (1 + XT), rel=1e-10)
        # batch means standard error to absorb autocorrelation
        batches = chain[: 20 * (chain.size // 20)].reshape(20, -1).mean(axis=1)
        se = batches.std(ddof=1) / math.sqrt(batches.size)
        assert abs(chain.mean() - target) < 3 * se


class TestExactAlphaStep:
    """The binless alpha step's law: given 40 increments over T with beta = 1
    fixed, alpha is the prior times the Gamma(1 + beta T, S_0) likelihood."""

    obs = gamma_obs(n=40, seed=19)

    def chain(self, alpha_prior):
        """The alpha of 20,000 sweeps and its batch-means MCSE (20 batches)."""
        recs = g.run_mcmc(self.obs, g.ModelParams(2.0, 1.0), g.PriorSpec(alpha=alpha_prior),
                          g.ProposalSpec(), iterations=20_000, burn_in=0, seed=29, m=2)
        chain = np.array([r.alpha for r in recs])
        batches = chain.reshape(20, -1).mean(axis=1)
        return chain, batches.std(ddof=1) / math.sqrt(batches.size)

    def test_gamma_prior_gives_the_conjugate_posterior(self):
        a, b = 5.0, 5.0
        horizon, s_0 = self.obs.times[-1], math.fsum(self.obs.increments)
        chain, mcse = self.chain(g.Prior("gamma", a, b))
        mean = (a + horizon) / (b + s_0)
        assert abs(chain.mean() - mean) < 4 * mcse
        assert kstest(chain[::5], gamma_dist(a + horizon, scale=1 / (b + s_0)).cdf).pvalue > 1e-3
        # the pin's power: dropping the prior ratio moves the mean to
        # (1 + beta T) / S_0, and a shape of beta T moves it by 1 / (b + S_0)
        assert abs((1 + horizon) / s_0 - mean) > 40 * mcse
        assert 1 / (b + s_0) > 8 * mcse

    def test_uniform_prior_truncates_the_gamma_likelihood(self):
        lo, hi = 1.6, 2.6
        horizon, s_0 = self.obs.times[-1], math.fsum(self.obs.increments)
        law, raised = gamma_dist(1 + horizon, scale=1 / s_0), gamma_dist(2 + horizon, scale=1 / s_0)
        mass = law.cdf(hi) - law.cdf(lo)
        mean = (1 + horizon) / s_0 * (raised.cdf(hi) - raised.cdf(lo)) / mass
        chain, mcse = self.chain(g.Prior("uniform", lo, hi))
        assert lo <= chain.min() and chain.max() <= hi
        assert abs(chain.mean() - mean) < 4 * mcse
        assert kstest(chain[::5], lambda x: (law.cdf(x) - law.cdf(lo)) / mass).pvalue > 1e-3
        assert 1 / s_0 > 8 * mcse


# The benchmark's workload inputs (bench/workloads.py), rebuilt from gammasub.data
_PIN_MIXTURE = """\
bin_edges = {edges}
alpha_init = 2.0
beta_init = {beta!r}
alpha_prior = gamma 2 1
theta_prior = normal 0 1
rho_prior = normal 0 1.5
sigma_alpha = 0.025
sigma_theta = 0.025
sigma_rho = 0.15
refinement = 10
"""

_PIN_BINLESS = """\
alpha_init = 1.0
beta_init = 1.0
alpha_prior = gamma 2 1
sigma_alpha = 0.1
refinement = 4
"""


# The CLI fits test_cli_chains_pinned runs, chains the benchmark never runs.
# The reparameterised random-beta fit: the reparam prior, whose Jacobian
# sum_k (ln(beta) - rho_k) prior_logpdf adds for both moves, thinned by 3
_PIN_REPARAM = """\
bin_edges = 1.5
alpha_init = 1.0
beta_init = 0.5
theta_init = 0.5
rho_init = 0.0
alpha_prior = gamma 2 1
beta_prior = uniform 0.05 20
theta_prior = gamma 2 1
rho_prior = gamma 2 4
reparam = true
update_schedule = beta params params
refinement = 6
"""

# The fixed-beta fit at Gamma shape beta*h/m = 3e-3, whose refresh rejects
# bridge rows too small to pin
_PIN_TINY_SHAPE = """\
bin_edges = 0.5
alpha_init = 1.0
beta_init = 0.006
theta_init = 0.5
rho_init = 0.0
alpha_prior = gamma 2 1
theta_prior = gamma 2 1
rho_prior = normal 0 1.5
refinement = 2
"""

# The three-bin reparameterised fit: the reparam fit's config with these lines replaced
_PIN_REPARAM_3BIN = _PIN_REPARAM.replace("bin_edges = 1.5", "bin_edges = 1 1.5 3").replace(
    "theta_init = 0.5", "theta_init = 0.5 0.5 0.5").replace("rho_init = 0.0", "rho_init = 0 0 0")

# The wide-spacing random-beta fit: spans of 2 over edges 1 2 4 give hundreds
# of active rows, so _draw_ahead's cap draws one sweep per batch, and every
# second sweep runs the beta move on the whole block
_PIN_WIDE = """\
bin_edges = 1 2 4
alpha_init = 2.0
beta_init = 0.44
alpha_prior = gamma 2 1
beta_prior = uniform 0.05 20
theta_prior = normal 0 1
rho_prior = normal 0 1.5
update_schedule = beta params
refinement = 10
"""

# Criterion 07's random-beta binless fit, one segment with T = 50 and X_T = 100,
# with a params stage, whose alpha step draws one (G, U) pair per step
_PIN_BINLESS_BETA = """\
alpha_init = 2.0
beta_init = 4.0
alpha_prior = uniform 1 3
beta_prior = uniform 0.1 1000
sigma_beta = 0.6
update_schedule = beta params
refinement = 8
"""

_CLI_FITS = {"reparam": (_PIN_REPARAM, 3), "reparam_3bin": (_PIN_REPARAM_3BIN, 3),
             "tiny_shape": (_PIN_TINY_SHAPE, 1)}


# binned workload -> (increment count, bin edges, config lines beyond _PIN_MIXTURE's);
# mixture_ei is mixture started at theta_1 = -3, slope_1 + alpha = -1, so that
# its candidates' bin-1 masses run mass_factors' Ei branch until the walk
# brings slope_1 + alpha above 0
_PIN_BINNED = {
    "mixture": (1000, "1 2 4", ""),
    "mixture_ei": (1000, "1 2 4", "theta_init = -3 0 0\n"),
    "beta_binned": (200, "1 2", "beta_prior = uniform 0.05 100\nupdate_schedule = beta params\n"),
}


def pin_inputs(workload, seed):
    """(Observations, RunConfig) of a benchmark workload, of mixture_ei, of
    binless_beta (no data seed) or of one of the CLI fits, at a data seed."""
    if workload in _CLI_FITS:
        # `gammasub simulate --n 400 --horizon 400 --seed 5`, as fit reads its CSV back
        data, _ = g.synth_two_gamma(2.0, 0.4, 0.2, 0.04, T=400.0, n=400, seed=seed)
        return g.Observations(data.times, data.values), parse_config(_CLI_FITS[workload][0])
    if workload == "binless_beta":
        return g.Observations([0.0, 50.0], [0.0, 100.0]), parse_config(_PIN_BINLESS_BETA)
    if workload == "binless":
        rng = np.random.Generator(np.random.Philox(seed))
        times, increments = np.arange(2001, dtype=float), rng.gamma(1.0, 0.5, size=2000)
        text = _PIN_BINLESS
    else:
        n, edges, extra = _PIN_BINNED[workload]
        data, truth = g.synth_two_gamma(2.0, 0.4, 0.2, 0.04, T=200.0, n=n, seed=seed)
        times, increments = data.times, data.increments
        text = _PIN_MIXTURE.format(edges=edges, beta=truth.beta_bar) + extra
    return g.Observations.from_increments(times, increments), parse_config(text)


def pinned_chain_text(workload, seed, iterations=300, burn_in=None):
    """write_chain_csv's output for the workload's first chain; for the CLI
    fits, of `gammasub fit --seed 11` with their thinning and, unless burn_in
    is given, the default burn-in."""
    obs, cfg = pin_inputs(workload, seed)
    if workload in _CLI_FITS:
        run_seed, thinning = 11, _CLI_FITS[workload][1]
        burn_in = iterations // 10 if burn_in is None else burn_in
    else:
        burn_in, run_seed, thinning = 0, [seed, 1], 1
    recs = g.run_mcmc(obs, cfg.params0, cfg.prior, cfg.proposal, iterations=iterations,
                      burn_in=burn_in, seed=run_seed, m=cfg.refinement)
    buf = io.StringIO()
    write_chain_csv([r for r in recs if (r.iteration - burn_in) % thinning == 0], buf,
                    cfg.params0.n_bins)
    return buf.getvalue()


def pinned_chain_digest(workload, seed, iterations=300):
    """sha256 of pinned_chain_text."""
    return hashlib.sha256(pinned_chain_text(workload, seed, iterations).encode()).hexdigest()


numpy_pinned = pytest.mark.skipif(
    np.__version__ != "2.4.6",
    reason="chain bytes are pinned for numpy 2.4.6, the version CI installs; numpy's "
           "Gamma and Beta algorithms may differ elsewhere")


@numpy_pinned
@pytest.mark.parametrize("workload, seed, digest", [
    ("mixture", 7, "31e0b6a84d90520c29afea39b67d78ab677bf4ae615e8fb2e92ba51568f64e5f"),
    ("mixture", 23, "a29b898fad5d202e57fa6c1f35da02a4f1d8ce41e6e6fb15adb9aa3edadec5d0"),
    # the one pin whose sweeps run mass_factors' Ei branch (test_the_ei_pins_take_the_ei_branch)
    ("mixture_ei", 7, "699321f969a12956e12d92619d4c78dda0251291318503aaef5d849b905209d1"),
    ("binless", 7, "867c67e5bcad87c6edaa9dfff68815e2099a6a3fe6c1bc84474639ede45e984b"),
    ("beta_binned", 7, "7fd7742db500334d99f981571496916dfdd2f7be40730fe8c7975a038805816e"),
    # its 600-sweep form gives test_cli_chains_pinned's 14071b07... chain.csv
    ("reparam", 5, "089850bd1d4d267f307b27ed55b7885859241b1c97f74cbf3bced260648b5b29"),
    # its 600-sweep form gives test_cli_chains_pinned's 5180d34b... chain.csv
    ("reparam_3bin", 5, "eed9bd3fd3d27eff624567d6872e01cca2c2846ff603574de3c054d578165f40"),
    # its 600-sweep form gives the 0b2c99f6... chain.csv of
    # test_meta_json_counts_the_unpinnable_refresh_proposals
    ("tiny_shape", 5, "f3f1ecf01ea99f5e52763af44bef2bc88765c082a5f55c332fcb6ad18702a9e9"),
], ids=["mixture-7", "mixture-23", "mixture_ei-7", "binless-7", "beta_binned-7", "reparam-5",
        "reparam_3bin-5", "tiny_shape-5"])
def test_chain_bytes_pinned(workload, seed, digest):
    # a kernel rewrite must leave every chain byte where it was
    assert pinned_chain_digest(workload, seed) == digest


def cli(*argv) -> None:
    """gammasub.cli.main on argv, made strings; asserts it exits 0."""
    assert main([str(a) for a in argv]) == 0


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@numpy_pinned
def test_cli_chains_pinned(tmp_path):
    # `gammasub simulate`, `fit` and `diagnose` end to end: the CLI's
    # observations CSV, --thinning, the reparam prior's Jacobian on one bin and
    # on three, a wide fit whose refresh batches hold one sweep, and every
    # trace, histogram and band table of the one-bin chain
    pin_obs, wide_obs = tmp_path / "pin-obs.csv", tmp_path / "wide-obs.csv"
    cli("simulate", "--n", 400, "--horizon", 400, "--seed", 5, "--out", pin_obs)
    cli("simulate", "--n", 1000, "--horizon", 2000, "--seed", 7, "--out", wide_obs)
    fits = {"reparam": (_PIN_REPARAM, pin_obs, 3, 11),
            "reparam_3bin": (_PIN_REPARAM_3BIN, pin_obs, 3, 11),
            "wide": (_PIN_WIDE, wide_obs, 1, 13)}
    for name, (text, obs, thinning, seed) in fits.items():
        (tmp_path / f"{name}.cfg").write_text(text)
        cli("fit", "--config", tmp_path / f"{name}.cfg", "--observations", obs,
            "--iterations", 600, "--burn-in", 60, "--thinning", thinning, "--seed", seed,
            "--out-dir", tmp_path / name)
    cli("diagnose", "--chain", tmp_path / "reparam" / "chain.csv", "--out-dir", tmp_path / "band",
        "--figures", "trace,hist,band")
    pinned = {
        "reparam/chain.csv": "14071b07cff274eb197ed0d95592ec44aaec19123c2c643cdb4acf65db2f20db",
        "band/band.csv": "580cceea437aeeebd27c836ec375f41e2acd2b6a764a8231c7f8a7b9f2c6e19c",
        "band/trace_alpha.csv": "4f3ff88a0a982b72d00a2b096d542ea33820db3efd5e7bad5d656a290e2f98dd",
        "band/trace_beta.csv": "41fdab9751d69606f8c09960272f13934f70ebaca23f107560d0b9ef57e60054",
        "band/trace_theta_1.csv":
            "531e79ce31f62a86be9760d4f46c99a7943c6620d898cdd3c80d48b53b9c983d",
        "band/trace_rho_1.csv": "49f4527c2a15f7050fa310bce128382da5e4920a52ac053d180db20107329cea",
        "band/hist_alpha.csv": "496a95c5f3713aa46e1777d92ffd1fe5445a03062a04256a787190c8244a1e7e",
        "band/hist_beta.csv": "0aa34e605a8a2a8eb8954f3b81eb6726d28cd1e9715b5149f5184c7548571e2e",
        "band/hist_theta_1.csv": "9c6340481fd280eb676aa299e94305a04dc2c8c1cd8212a00691916d22d03cb5",
        "band/hist_rho_1.csv": "ec734ff9c488e4deb0e20448f5618f82f28865017429f5940f13e1e004103e7e",
        "reparam_3bin/chain.csv":
            "5180d34b8eefb311649a2a4f639016701112d2f6ba23b8941d606867167a0cb1",
        "wide-obs.csv": "3f1e18bb9cbe963cd39eb93231658930f34fd94f0a729a54fab8ed207d178f71",
        "wide/chain.csv": "620cc8ef373a56345995118b07035eaad6a7757ff25a085090388e6971175a57",
    }
    assert {name: sha256_of(tmp_path / name) for name in pinned} == pinned


@pytest.mark.parametrize("workload", ["mixture", "mixture_ei", "binless", "binless_beta",
                                      "beta_binned", "reparam", "reparam_3bin", "tiny_shape"])
def test_a_longer_run_extends_a_shorter_one(workload):
    # no block of draws is sized by the sweeps left: the refresh's and the
    # parameter steps' draws ahead serve a run's first sweeps as they serve
    # those of any longer run with the same seed
    seed, kept = (5, _CLI_FITS[workload][1]) if workload in _CLI_FITS else (7, 1)
    long = pinned_chain_text(workload, seed, iterations=1000, burn_in=0).splitlines()
    assert len(long) == 1 + 1000 // kept
    for iterations in (150, 301):
        short = pinned_chain_text(workload, seed, iterations, burn_in=0).splitlines()
        assert len(short) == 1 + iterations // kept
        assert short == long[:len(short)], iterations


@numpy_pinned
@pytest.mark.parametrize("workload, seed, iterations, first, count", [
    # CI pins the benchmark's seed-2 mixture chain as the one whose retained
    # sweeps, after its 1,000 burn-in sweeps, run the branch; seeds 7 and 23
    # never reach it
    ("mixture", 2, 4000, 2630, 524),
    # mixture_ei starts in the branch and stays there until the walk lifts
    # slope_1 + alpha above 0
    ("mixture_ei", 7, 300, 1, 256),
], ids=["ci-mixture-2", "mixture_ei-7"])
def test_the_ei_pins_take_the_ei_branch(monkeypatch, workload, seed, iterations, first, count):
    # the sweeps of the chain, as pinned_chain_text runs it, whose parameter
    # candidate took mass_factors' Ei branch (an interior bin with slope +
    # alpha < 0); the start's own mass factors count with sweep 1
    ei_calls = []
    ei = model.exp_integral_ei_values

    def counted_ei(xs):
        ei_calls.append(xs)
        return ei(xs)

    monkeypatch.setattr(model, "exp_integral_ei_values", counted_ei)
    obs, cfg = pin_inputs(workload, seed)
    sweeps = []
    for r in g.run_mcmc(obs, cfg.params0, cfg.prior, cfg.proposal, iterations=iterations,
                        burn_in=0, seed=[seed, 1], m=cfg.refinement):
        if ei_calls:
            sweeps.append(r.iteration)
            ei_calls.clear()
    assert sweeps[:1] == [first] and len(sweeps) == count


def neumaier_sum(values, start=0):
    """sum() as CPython 3.12 computes it for floats: compensated (Neumaier)."""
    total, compensation = float(start), 0.0
    for v in values:
        t = total + v
        compensation += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + compensation


def test_the_chain_does_not_read_the_builtin_sum(monkeypatch):
    # a random-beta chain on mixture's 11 distinct spans, whose beta move adds
    # an lnGamma difference per span: its bits must not follow the interpreter's
    # sum(), whose rounding Python 3.12 changed
    obs, cfg = pin_inputs("mixture", 7)
    cfg = parse_config(_PIN_MIXTURE.format(edges="1 2 4", beta=cfg.params0.beta)
                       + "beta_prior = uniform 0.05 100\nupdate_schedule = beta params\n")

    def chain_text():
        buf = io.StringIO()
        write_chain_csv(g.run_mcmc(obs, cfg.params0, cfg.prior, cfg.proposal, iterations=300,
                                   burn_in=0, seed=[7, 1], m=cfg.refinement), buf, 3)
        return buf.getvalue()

    plain = chain_text()
    monkeypatch.setattr(mcmc, "sum", neumaier_sum, raising=False)
    assert chain_text() == plain


@numpy_pinned
def test_meta_json_counts_the_unpinnable_refresh_proposals(tmp_path):
    # the tiny-shape fit (Gamma shape beta*h/m = 3e-3) draws proposal rows
    # too small to pin, in its 60 burn-in sweeps and in its 540 kept ones,
    # and its refresh rejects each one, keeping the row's path, within a
    # batch of sweeps drawn whole where it reaches past the run's last sweep;
    # the benchmark's mixture chain, whose meta.json comes from its records
    # alone, draws none
    (tmp_path / "cut.cfg").write_text(_PIN_TINY_SHAPE)
    obs = tmp_path / "obs.csv"
    cli("simulate", "--n", 400, "--horizon", 400, "--seed", 5, "--out", obs)
    cli("fit", "--config", tmp_path / "cut.cfg", "--observations", obs,
        "--iterations", 600, "--burn-in", 60, "--seed", 11, "--out-dir", tmp_path / "fit")
    assert (sha256_of(tmp_path / "fit" / "chain.csv")
            == "0b2c99f6a09b12c22499ff09d1d959697cc29ccf4aec823ddc11c7740339649c")
    meta = json.loads((tmp_path / "fit" / "meta.json").read_text())
    # every figure of both tallies, the rate means among them, as the sampler
    # wrote them when each refresh returned a fresh quotient
    assert meta["acceptance"] == {
        "beta_domain_rejects": 0, "beta_rate": None, "params_domain_rejects": 36,
        "params_rate": 0.4981481481481482, "path_refresh_active_rate": 0.9321265085310289,
        "path_refresh_mean_rate": 0.9848981481481539, "path_refresh_unpinnable": 702}
    assert meta["burn_in_acceptance"] == {
        "beta_domain_rejects": 0, "beta_rate": None, "params_domain_rejects": 0,
        "params_rate": 0.4, "path_refresh_active_rate": 0.9805243445692875,
        "path_refresh_mean_rate": 0.9956666666666665, "path_refresh_unpinnable": 76}
    # chain.csv does not hold the count: what read_chain_csv gives back is 0
    with open(tmp_path / "fit" / "chain.csv") as fh:
        assert {r.path_unpinnable for r in read_chain_csv(fh)} == {0}

    obs, cfg = pin_inputs("mixture", 7)
    recs = list(g.run_mcmc(obs, cfg.params0, cfg.prior, cfg.proposal, iterations=300,
                           burn_in=0, seed=[7, 1], m=cfg.refinement))
    buf = io.StringIO()
    write_meta_json(buf, config_echo={}, records=recs)
    assert json.loads(buf.getvalue())["acceptance"]["path_refresh_unpinnable"] == 0


def pinned_state(workload, seed=7):
    """init_chain's state on a benchmark workload or the tiny-shape fit, scored
    under its config's prior, with its config, as pinned_chain_text runs it."""
    obs, cfg = pin_inputs(workload, seed)
    state = g.init_chain(obs, cfg.params0, g.TimeGrid(obs.times, cfg.refinement), [seed, 1])
    state.score(cfg.prior)
    return state, cfg


class TestFusedRefresh:
    """The refresh and the beta move on the one [S | C] statistics matrix."""

    @pytest.mark.parametrize("workload", ["mixture", "binless", "beta_binned", "tiny_shape"])
    def test_totals_are_a_fresh_binning_bit_for_bit(self, workload):
        # after every refresh and every accepted beta move: the totals are those
        # of bin_stats_matrix over the full-width increments, reduced as the
        # state reduces them (the inert rows, then the block's rows in order)
        state, cfg = pinned_state(workload, 5 if workload == "tiny_shape" else 7)
        active = state.active
        inert = np.setdiff1d(np.arange(state.n_segments), active)

        def check():
            sums, counts = bin_stats_matrix(state.increments, cfg.params0.bin_edges)
            for got, fresh in ((state.total_sums, sums), (state.total_counts, counts)):
                fresh = fresh.astype(float)
                expected = (fresh[inert].sum(axis=0) + np.add.reduce(fresh[active], 0)).tolist()
                assert [x.hex() for x in got] == [x.hex() for x in expected]

        schedule = cfg.proposal.update_schedule
        ahead = 1 if "beta" in schedule else mcmc._AHEAD_STEPS
        check()
        accepted_beta = 0
        for t in range(120):
            state.iteration = t + 1
            g.refresh_segments(state, ahead)
            check()
            if schedule[t % len(schedule)] == "params":
                g.update_params(state, cfg.proposal)
            elif g.update_beta(state, cfg.proposal)[0]:
                accepted_beta += 1
                check()
        assert workload != "beta_binned" or accepted_beta > 10
        assert workload == "binless" or active.size > 0

    @pytest.mark.parametrize("column, value", [(0, "shift"), (0, "nan"), (1, "nan"),
                                               (4, "nan"), (7, "nan")],
                             ids=["S_0 by 1e-6", "S_0 NaN", "S_1 NaN", "C_0 NaN", "C_3 NaN"])
    def test_a_drawn_proposal_off_its_endpoint_is_a_contract_error(self, column, value,
                                                                    monkeypatch):
        # the fault enters where the draw-ahead bins its batch, before its check
        state, _ = pinned_state("mixture")
        g.refresh_segments(state)
        assert state.drawn == [] and state.block_stats.shape == (state.active.size, 8)
        off_endpoint(monkeypatch, 3, column, value)
        before = snapshot(state)
        with pytest.raises(g.ContractError, match=ENDPOINT_ERROR):
            g.refresh_segments(state)
        assert snapshot(state) == before and state.drawn == []

    @pytest.mark.parametrize("column, value", [(0, "shift"), (0, "nan"), (1, "nan"),
                                               (3, "nan"), (5, "nan")],
                             ids=["S_0 by 1e-6", "S_0 NaN", "S_1 NaN", "C_0 NaN", "C_2 NaN"])
    def test_a_re_pinned_beta_block_off_its_endpoint_is_a_contract_error(self, column, value,
                                                                        monkeypatch):
        # the fault enters where the beta move bins its re-pinned block, before its ratio
        state, cfg = pinned_state("beta_binned")
        assert state.block_stats.shape[1] == 6 and state.n_active > 3
        off_endpoint(monkeypatch, 3, column, value)
        before = snapshot(state)
        with pytest.raises(g.ContractError, match=ENDPOINT_ERROR):
            g.update_beta(state, cfg.proposal)
        assert snapshot(state) == before

    @pytest.mark.parametrize("column, value", [(0, "shift"), (0, "nan"), (1, "nan"),
                                               (4, "nan"), (7, "nan")],
                             ids=["S_0 by 1e-6", "S_0 NaN", "S_1 NaN", "C_0 NaN", "C_3 NaN"])
    def test_a_start_block_off_its_endpoint_is_a_contract_error(self, column, value,
                                                               monkeypatch):
        # the fault enters where init_chain bins every segment, in an active row:
        # no state is built and no run starts
        obs, cfg = pin_inputs("mixture", 7)
        row = pinned_state("mixture")[0].active[3]
        off_endpoint(monkeypatch, row, column, value)
        with pytest.raises(g.ContractError, match=ENDPOINT_ERROR):
            g.init_chain(obs, cfg.params0, g.TimeGrid(obs.times, cfg.refinement), [7, 1])
        with pytest.raises(g.ContractError, match=ENDPOINT_ERROR):
            g.run_mcmc(obs, cfg.params0, cfg.prior, cfg.proposal, 10, seed=[7, 1],
                       m=cfg.refinement)


ENDPOINT_ERROR = r"do not share endpoints: totals differ in 1 row\(s\)"


def off_endpoint(monkeypatch, row, column, value):
    """Rebind mcmc.bin_stats_matrix, as the bench tracer rebinds it, so that each
    matrix it returns has row `row` off its endpoint: column `column` of
    [S_0..S_N | C_0..C_N] NaN, or ("shift") S_0 moved by 1e-6 of the row's
    total, two thousand times the endpoint check's bound."""
    binned = mcmc.bin_stats_matrix

    def corrupted(increments, edges):
        sums, counts = binned(increments, edges)
        stats = stacked(sums, counts)
        stats[row, column] += 1e-6 * sums[row].sum() if value == "shift" else np.nan
        return stats[:, :sums.shape[1]], stats[:, sums.shape[1]:]

    monkeypatch.setattr(mcmc, "bin_stats_matrix", corrupted)


def snapshot(state):
    """What a move may write: the parameters, the block and the bin totals."""
    return (state.terms, state.log_prior, state.block.tobytes(), state.block_stats.tobytes(),
            state.total_sums, state.total_counts)


class TestE1Traffic:
    """Only the beta move evaluates the Gamma reference's E1 points."""

    def counted_run(self, monkeypatch, workload, iterations=200):
        points, ref_calls = [], []
        e1, ref = model.exp_integral_e1, mcmc.reference_units

        def counted_e1(zs):
            points.append(len(zs))
            return e1(zs)

        def counted_ref(alpha, edges, e1_b1):
            ref_calls.append(len(edges))
            return ref(alpha, edges, e1_b1)

        monkeypatch.setattr(model, "exp_integral_e1", counted_e1)
        monkeypatch.setattr(mcmc, "reference_units", counted_ref)
        obs, cfg = pin_inputs(workload, 7)
        recs = list(g.run_mcmc(obs, cfg.params0, cfg.prior, cfg.proposal, iterations=iterations,
                               burn_in=0, seed=[7, 1], m=cfg.refinement))
        return recs, points, ref_calls

    def test_fixed_beta_evaluates_no_reference(self, monkeypatch):
        recs, points, ref_calls = self.counted_run(monkeypatch, "mixture")
        assert ref_calls == []
        # E1(alpha b_1) and two points per interior bin and one for the tail:
        # 6 for three bins, one call per candidate (and the start's one)
        assert points == [6] * len(points)
        candidates = sum(r.logr_params != -math.inf for r in recs)
        assert len(points) == 1 + candidates

    @pytest.mark.parametrize("workload", ["mixture", "beta_binned"])
    def test_the_start_is_scored_once(self, monkeypatch, workload):
        # run_mcmc evaluates the start's prior and E1 once, through one
        # ChainState.score call before sweep 1: no move rescores the state
        prior_calls, score_calls = [], []
        prior_logpdf, score = mcmc.prior_logpdf, mcmc.ChainState.score

        def counted_prior(*args):
            prior_calls.append(args)
            return prior_logpdf(*args)

        def score_once(state, prior):
            if score_calls or state.iteration:
                raise AssertionError(f"ChainState.score ran again at sweep {state.iteration}")
            score_calls.append(prior)
            return score(state, prior)

        monkeypatch.setattr(mcmc, "prior_logpdf", counted_prior)
        monkeypatch.setattr(mcmc.ChainState, "score", score_once)
        recs, points, _ = self.counted_run(monkeypatch, workload)
        assert len(score_calls) == 1
        # every candidate passes its range test and the prior's support, and no
        # beta move collapses a segment: each move scores one candidate
        assert all(-math.inf < (r.logr_params if r.accept_beta is None else r.logr_beta)
                   for r in recs)
        assert len(prior_calls) == 1 + len(recs)
        # a parameter candidate's mass_factors, a beta move's reference_units
        assert len(points) == 1 + len(recs)

    def test_beta_move_evaluates_the_reference_once(self, monkeypatch):
        recs, points, ref_calls = self.counted_run(monkeypatch, "beta_binned")
        beta_moves = [r for r in recs if r.accept_beta is not None]
        assert len(beta_moves) == 100
        assert all(r.logr_beta > -math.inf for r in beta_moves)
        assert ref_calls == [2] * len(beta_moves)
        # the parameter candidates' 4 points for two bins, and each reference's 1:
        # E1(alpha b_1) is the current terms'
        assert sorted(set(points)) == [1, 4]
        assert points.count(1) == len(beta_moves)


class TestChainConstants:
    """ChainState's per-chain constants: computed once by __post_init__, read-only,
    and read, never rebuilt, by the refresh, the parameter step and the beta move."""

    ARRAYS = ("targets", "edge_array", "pin_tolerance")

    def constants(self, state):
        """Every constant array of the state."""
        arrays = [getattr(state, name) for name in self.ARRAYS]
        return arrays + [a for a in (state.block_spans, state.block_sub_spans) if np.ndim(a)]

    def run(self, state, cfg, sweeps, check):
        """Sweeps as run_mcmc runs them, check() after every move; returns the
        beta moves accepted."""
        schedule = cfg.proposal.update_schedule
        n = len(schedule)
        same_beta = [next((d + 1 for d in range(n) if schedule[(i + d) % n] == "beta"),
                          mcmc._AHEAD_STEPS) for i in range(n)]
        accepted = 0
        for t in range(sweeps):
            state.iteration = t + 1
            g.refresh_segments(state, same_beta[t % n])
            check()
            if schedule[t % n] == "params":
                g.update_params(state, cfg.proposal)
            else:
                accepted += g.update_beta(state, cfg.proposal)[0]
            check()
        return accepted

    @pytest.mark.parametrize("workload", ["mixture", "binless", "beta_binned"])
    def test_each_constant_equals_its_derivation(self, workload):
        state, cfg = pinned_state(workload)
        active = state.active
        assert type(state.horizon) is float and state.horizon == state.grid.horizon
        assert type(state.n_active) is int and state.n_active == active.size
        assert np.array_equal(state.targets, state.obs.increments[active])
        assert state.edge_array.dtype == np.float64
        assert state.edge_array.tolist() == list(cfg.params0.bin_edges)
        # bin_classify takes the edges as they are, without a conversion
        assert np.asarray(state.edge_array, dtype=float) is state.edge_array
        assert np.array_equal(state.pin_tolerance, pin_tolerance(state.targets))
        assert np.array_equal(state.block_spans, paths._one_value(state.grid.spans[active]))
        assert np.array_equal(state.block_sub_spans,
                              paths._one_value((state.grid.spans[active] / state.m)[:, None]))
        # the refresh's rate at r rejected rows, the correctly rounded (n - r) / n
        n = state.n_segments
        assert type(state.path_rates) is tuple
        assert ([rate.hex() for rate in state.path_rates]
                == [float(Fraction(n - r, n)).hex() for r in range(active.size + 1)])

    def test_each_constant_rejects_an_in_place_write(self):
        state, _ = pinned_state("mixture")
        g.refresh_segments(state, mcmc._AHEAD_STEPS)
        arrays = self.constants(state)
        # targets, edges, tolerance, the spans and the sub-step span column
        assert len(arrays) == 5
        for a in arrays:
            before = a.copy()
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
            assert np.array_equal(a, before)

    @pytest.mark.parametrize("workload", ["mixture", "beta_binned"])
    def test_every_move_keeps_the_same_constants(self, workload):
        state, cfg = pinned_state(workload)
        g.refresh_segments(state, 2)
        names = ("horizon", "n_active", "path_rates", "block_spans",
                 "block_sub_spans") + self.ARRAYS
        objects = {name: getattr(state, name) for name in names}
        values = [a.copy() for a in self.constants(state)]

        def check():
            for name, obj in objects.items():
                assert getattr(state, name) is obj, name
            assert all(np.array_equal(a, b) for a, b in zip(self.constants(state), values))

        accepted = self.run(state, cfg, 200, check)
        assert workload == "mixture" or accepted > 10

    @pytest.mark.parametrize("workload", ["mixture", "beta_binned"])
    def test_refresh_returns_the_path_rates_entries(self, workload):
        # each refresh returns an entry of path_rates itself, so a run's
        # records hold at most n_active + 1 rate objects
        state, cfg = pinned_state(workload)
        for _ in range(100):
            rate, _ = g.refresh_segments(state)
            assert any(rate is entry for entry in state.path_rates)
            g.update_params(state, cfg.proposal)
        obs, _ = pin_inputs(workload, 7)
        recs = list(g.run_mcmc(obs, cfg.params0, cfg.prior, cfg.proposal, iterations=300,
                               burn_in=0, seed=[7, 1], m=cfg.refinement))
        rates = {id(r.accept_path_rate) for r in recs}
        assert 1 < len(rates) <= len(state.path_rates)
        assert {r.accept_path_rate for r in recs} <= set(state.path_rates)

    @pytest.mark.parametrize("workload", ["mixture", "beta_binned"])
    def test_a_batch_pins_against_the_block_constants_themselves(self, workload, monkeypatch):
        # a batch of k sweeps is one (k, n, m) bridge_rows stack on the block's
        # targets and beta * sub-step spans as they are: no k-fold copy of either
        state, _ = pinned_state(workload)
        n, m = state.n_active, state.m
        cap = mcmc._AHEAD_STEPS // (n * m)
        calls = []

        def recorded(rng, shapes, targets, shape):
            calls.append((shapes, targets, shape))
            return bridge_rows(rng, shapes, targets, shape)

        monkeypatch.setattr(mcmc, "bridge_rows", recorded)
        for sweeps in (1, 2, mcmc._AHEAD_STEPS):
            mcmc._draw_ahead(state, sweeps)
        assert [shape for _, _, shape in calls] == [(1, n, m), (2, n, m), (cap, n, m)] and cap > 2
        sub = state.block_sub_spans
        for shapes, targets, _ in calls:
            assert targets is state.targets
            assert np.shape(shapes) == np.shape(sub)
            assert np.array_equal(shapes, state.terms.beta * sub)
        # mixture's spans differ in their last bits; beta_binned's are one float
        assert bool(np.ndim(sub)) == (workload == "mixture")

    @pytest.mark.parametrize("workload", ["mixture", "beta_binned"])
    def test_no_proposal_or_block_shares_memory_with_a_constant(self, workload):
        state, cfg = pinned_state(workload)

        def check():
            written = [state.block, state.block_stats]
            for _, proposal, stats, log_u, _ in state.drawn:
                written += [proposal, stats, log_u]
            for a in written:
                for c in self.constants(state):
                    assert not np.shares_memory(a, c)

        self.run(state, cfg, 100, check)
