"""Sampler mechanics: initialization, refreshes, parameter and activity moves."""

import io
import math

import numpy as np
import pytest
from scipy import integrate, special
from scipy.stats import gamma as gamma_dist

import gammasub as g
from gammasub import mcmc
from gammasub.likelihood import ParamTerms, bin_stats_matrix, loglik_ratio_path
from gammasub.mcmc import (
    chain_csv_header,
    read_chain_csv,
    reparam_invert,
    reparam_view,
    write_chain_csv,
    write_meta_json,
)
from gammasub.paths import augment_rows, bridge_rows, pin_rows, thin_rows


def gamma_obs(n=20, dt=1.0, beta=1.0, alpha=2.0, seed=7):
    rng = np.random.default_rng(seed)
    inc = rng.gamma(beta * dt, 1 / alpha, size=n)
    return g.Observations(np.arange(n + 1) * dt,
                          np.concatenate(([0.0], np.cumsum(inc))))


def basic_state(obs=None, params=None, m=5, seed=0):
    obs = obs if obs is not None else gamma_obs()
    params = params if params is not None else g.ModelParams(1.0, 1.0)
    grid = g.TimeGrid(obs.times, m)
    return g.init_chain(obs, params, grid, seed)


def sub_spans(state):
    """Every segment's sub-step span h_i / m, shape (n_segments, 1)."""
    return (state.grid.spans / state.grid.m)[:, None]


def set_params(state, params):
    """Make params the state's current parameters; the next move rescores them."""
    state.terms, state.prior = ParamTerms.of(params), None


def totals(state):
    """The state's bin totals as a BinStats."""
    return g.BinStats(state.total_sums, state.total_counts, state.grid.horizon)


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
        # and flags, so the bridge redraws them and the beta move rejects them
        deltas = np.random.default_rng(3).uniform(0.6, 3.0, size=200)
        obs = g.Observations.from_increments(np.arange(201.0), deltas)
        params = g.ModelParams(1.0, 0.005, [0.5], [0.0], [0.0])
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0), beta=g.Prior("gamma", 1.0, 1.0),
                            theta=(g.Prior("normal", 0, 1.0),), rho=(g.Prior("normal", 0, 1.0),))
        prop = g.ProposalSpec(sigma_beta=0.002, update_schedule=("beta",))
        state = g.init_chain(obs, params, g.TimeGrid(obs.times, 10), [5, 2])
        accepted = 0
        for _ in range(30):
            g.refresh_segments(state)
            g.update_beta(state, prop, prior)
            accepted += state.accept_beta
            assert np.all(np.abs(state.increments.sum(axis=1) - deltas) <= 1e-9 * deltas)
        assert 0 < accepted < 30
        sums, counts = bin_stats_matrix(state.increments, params.bin_edges)
        assert np.array_equal(sums, state.seg_sums)
        assert np.array_equal(counts, state.seg_counts)

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
            g.refresh_segments(state)
            assert state.accept_path_rate == 1.0
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

    def test_rejected_rows_keep_their_path_and_stats(self):
        class RejectEveryThird:
            def uniform(self, size):
                return np.where(np.arange(size) % 3 == 0, np.inf, 1e-300)

        params = g.ModelParams(1.0, 1.0, [0.5], [0.4], [0.2])
        state = basic_state(params=params, seed=13)
        twin = basic_state(params=params, seed=13)
        active = state.active
        assert 3 < active.size < state.n_segments
        old_inc, old_sums, old_counts = (
            state.increments.copy(), state.seg_sums.copy(), state.seg_counts.copy())
        # the twin stream draws the same block: the active segments' bridges
        proposal = bridge_rows(twin.rng_path, params.beta * twin.active_sub_spans,
                               twin.obs.increments[active], twin.m)
        new_sums, new_counts = bin_stats_matrix(proposal, params.bin_edges)
        state.rng_accept = RejectEveryThird()
        g.refresh_segments(state)
        rejected = np.arange(active.size) % 3 == 0
        n_rejected = int(rejected.sum())
        assert state.accept_path_rate == (state.n_segments - n_rejected) / state.n_segments
        for got, old, new in ((state.increments, old_inc, proposal),
                              (state.seg_sums, old_sums, new_sums),
                              (state.seg_counts, old_counts, new_counts)):
            assert np.array_equal(got[active[rejected]], old[active[rejected]])
            assert np.array_equal(got[active[~rejected]], new[~rejected])

    def test_acceptance_depends_only_on_perturbed_bins(self):
        # same slopes/intercepts, different alpha: identical decisions
        pa = g.ModelParams(0.7, 1.0, [0.5], [0.6], [0.3])
        pb = g.ModelParams(2.9, 1.0, [0.5], [0.6], [0.3])
        a = basic_state(params=pa, seed=11)
        b = basic_state(params=pb, seed=11)
        g.refresh_segments(a)
        g.refresh_segments(b)
        assert a.accept_path_rate == b.accept_path_rate < 1.0
        assert np.array_equal(a.increments, b.increments)


class NoDraws:
    """A stream that fails the test on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"drew {name} from a stream the refresh must not use")


class Recording:
    """Delegates to a Generator and records the method and size of every draw."""

    def __init__(self, gen):
        self.gen, self.draws = gen, []

    def __getattr__(self, name):
        method = getattr(self.gen, name)

        def draw(*args, size=None, **kwargs):
            self.draws.append((name, size))
            return method(*args, size=size, **kwargs)
        return draw


def run_with(refresh, obs, params0, prior, prop, iterations, seed, m, beta_move=g.update_beta,
             params_move=g.update_params):
    """run_mcmc's loop, with burn_in 0 and thinning 1, around other moves."""
    state = g.init_chain(obs, params0, g.TimeGrid(obs.times, m), seed)
    for t in range(1, iterations + 1):
        state.iteration = t
        state.accept_params = state.accept_beta = None
        state.logr_params = state.logr_beta = math.nan
        refresh(state)
        stage = prop.update_schedule[(t - 1) % len(prop.update_schedule)]
        (params_move if stage == "params" else beta_move)(state, prop, prior)
        yield state.record()


def full_totals(state):
    """The bin sums and counts as lists, reduced over every segment row."""
    return state.seg_sums.sum(axis=0).tolist(), state.seg_counts.sum(axis=0).tolist()


def assert_totals_current(state):
    """The totals are the inert constants plus the active block's reduction, exactly,
    and the reduction over every row within 1e-12 relative (counts exactly)."""
    active = state.active
    assert state.total_sums == (state.inert_sums + state.seg_sums[active].sum(axis=0)).tolist()
    assert state.total_counts == (
        state.inert_counts + state.seg_counts[active].sum(axis=0)).tolist()
    full_sums, full_counts = full_totals(state)
    assert np.allclose(state.total_sums, full_sums, rtol=1e-12, atol=0)
    assert state.total_counts == full_counts


def full_refresh(state):
    """The refresh as it ran before inert segments were skipped: one block of every row."""
    params = state.params
    proposal = bridge_rows(state.rng_path, params.beta * sub_spans(state),
                           state.obs.increments, state.m)
    sums, counts = bin_stats_matrix(proposal, params.bin_edges)
    log_ratio = loglik_ratio_path(sums, counts, state.seg_sums, state.seg_counts,
                                  params.theta_slopes, params.theta_intercepts)
    accept = log_ratio >= np.log(state.rng_accept.uniform(size=state.n_segments))
    reject = ~accept
    proposal[reject] = state.increments[reject]
    sums[reject] = state.seg_sums[reject]
    counts[reject] = state.seg_counts[reject]
    state.increments, state.seg_sums, state.seg_counts = proposal, sums, counts
    state.total_sums, state.total_counts = full_totals(state)
    state.accept_path_rate = float(accept.mean())


def refresh_all_from(rng_inert):
    """A full refresh whose active rows use the sampler's streams and inert rows rng_inert."""
    def refresh(state):
        params = state.params
        active = mcmc.active_segments(state.obs.increments, params.bin_edges)
        inert = np.setdiff1d(np.arange(state.n_segments), active)
        shapes, deltas = params.beta * sub_spans(state), state.obs.increments
        proposal = np.empty_like(state.increments)
        proposal[active] = bridge_rows(state.rng_path, shapes[active], deltas[active], state.m)
        proposal[inert] = bridge_rows(rng_inert, shapes[inert], deltas[inert], state.m)
        sums, counts = bin_stats_matrix(proposal, params.bin_edges)
        log_ratio = loglik_ratio_path(sums, counts, state.seg_sums, state.seg_counts,
                                      params.theta_slopes, params.theta_intercepts)
        log_u = np.empty(state.n_segments)
        log_u[active] = np.log(state.rng_accept.uniform(size=active.size))
        log_u[inert] = np.log(rng_inert.uniform(size=inert.size))
        accept = log_ratio >= log_u
        assert (log_ratio[inert] == 0.0).all() and accept[inert].all()
        reject = ~accept
        proposal[reject] = state.increments[reject]
        sums[reject] = state.seg_sums[reject]
        counts[reject] = state.seg_counts[reject]
        state.increments, state.seg_sums, state.seg_counts = proposal, sums, counts
        state.total_sums, state.total_counts = full_totals(state)
        state.accept_path_rate = float(accept.mean())
    return refresh


def beta_all_from(rng_inert):
    """The beta move over every row: active rows use rng_beta, inert rows rng_inert.

    This is the move as it ran before inert segments were left out of it:
    each row is augmented or thinned and re-pinned, and the bin totals and
    the ratio's terms are evaluated afresh over all rows.
    """
    def move(state, prop, prior):
        state.accept_beta, state.logr_beta = False, -math.inf
        params, rng = state.params, state.rng_beta
        beta_new = params.beta + prop.sigma_beta * rng.normal()
        if beta_new <= 0:
            return
        candidate = params.with_updates(beta=beta_new)
        lp_diff = g.prior_logpdf(prior, candidate) - g.prior_logpdf(prior, params)
        if lp_diff == -math.inf:
            return
        active = mcmc.active_segments(state.obs.increments, params.bin_edges)
        inert = np.setdiff1d(np.arange(state.n_segments), active)
        sub = sub_spans(state)
        block = state.increments.copy()
        for rows, stream in ((active, rng), (inert, rng_inert)):
            if rows.size and beta_new > params.beta:
                block[rows] = augment_rows(stream, block[rows], sub[rows], params.beta,
                                           beta_new, params.alpha)
            elif rows.size and beta_new < params.beta:
                block[rows] = thin_rows(stream, block[rows], sub[rows], params.beta, beta_new)
        block, collapsed = pin_rows(block, state.obs.increments)
        assert not collapsed[inert].any()
        if collapsed.any():
            return
        sums, counts = bin_stats_matrix(block, params.bin_edges)
        new_stats = g.BinStats(sums.sum(axis=0), counts.sum(axis=0), state.grid.horizon)
        deltas, spans = state.obs.increments, state.grid.spans
        density_diff = np.sum(gamma_dist.logpdf(deltas, beta_new * spans, scale=1 / params.alpha)
                              - gamma_dist.logpdf(deltas, params.beta * spans,
                                                  scale=1 / params.alpha))
        old_stats = g.BinStats(*full_totals(state), state.grid.horizon)
        log_ratio = float(lp_diff + density_diff + g.psi_log(new_stats, candidate)
                          - g.psi_log(old_stats, params))
        state.logr_beta = log_ratio
        if log_ratio >= math.log(rng.uniform()):
            set_params(state, candidate)
            state.increments, state.seg_sums, state.seg_counts = block, sums, counts
            state.total_sums = new_stats.sums.tolist()
            state.total_counts = new_stats.counts.tolist()
            state.accept_beta = True
    return move


def assert_same_chain(recs, oracle):
    """Equal parameters, flags and path rates; log ratios within 1e-9."""
    for r, o in zip(recs, oracle, strict=True):
        assert (r.alpha, r.beta, r.theta, r.rho) == (o.alpha, o.beta, o.theta, o.rho)
        assert (r.accept_params, r.accept_beta) == (o.accept_params, o.accept_beta)
        assert r.accept_path_rate == o.accept_path_rate
        for a, b in ((r.logr_params, o.logr_params), (r.logr_beta, o.logr_beta)):
            assert a == b or abs(a - b) <= 1e-9 or (math.isnan(a) and math.isnan(b))


class TestBinlessRefresh:
    prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0))

    def test_draws_nothing_and_accepts_every_segment(self):
        state = basic_state(obs=gamma_obs(n=30, seed=5), seed=19)
        state.rng_path = state.rng_accept = NoDraws()
        arrays = (state.increments, state.seg_sums, state.seg_counts)
        copies = tuple(a.copy() for a in arrays)
        g.refresh_segments(state)
        for got, same, copy in zip((state.increments, state.seg_sums, state.seg_counts),
                                   arrays, copies):
            assert got is same
            assert np.array_equal(got, copy)
        assert state.accept_path_rate == 1.0

    def test_binned_refresh_still_draws(self):
        # a bin with zero theta still needs fresh bridges: its S_k and C_k move
        state = basic_state(params=g.ModelParams(1.0, 1.0, [0.5], [0.0], [0.0]))
        state.rng_path = state.rng_accept = NoDraws()
        with pytest.raises(AssertionError, match="drew"):
            g.refresh_segments(state)

    def test_totals_are_reduced_once_per_chain(self):
        state = basic_state(seed=3)
        sums, counts = state.total_sums, state.total_counts
        assert_totals_current(state)
        for _ in range(20):
            g.refresh_segments(state)
            g.update_params(state, g.ProposalSpec(), self.prior)
        assert state.total_sums is sums and state.total_counts is counts

    def test_run_matches_the_full_refresh(self):
        obs = gamma_obs(n=200, seed=29)
        params0 = g.ModelParams(1.0, 1.0)
        prop = g.ProposalSpec(sigma_alpha=0.1)
        recs = list(g.run_mcmc(obs, params0, self.prior, prop, iterations=300, burn_in=0,
                               seed=37, m=4))
        state = g.init_chain(obs, params0, g.TimeGrid(obs.times, 4), 37)
        for r in recs:
            full_refresh(state)
            g.update_params(state, prop, self.prior)
            assert r.alpha == state.params.alpha
            assert r.accept_params == state.accept_params
            assert r.accept_path_rate == state.accept_path_rate == 1.0
            assert r.logr_params == pytest.approx(state.logr_params, rel=0, abs=1e-9)
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
            proposal = bridge_rows(state.rng_path, params.beta * sub_spans(state),
                                   state.obs.increments, state.m)
            sums, counts = bin_stats_matrix(proposal, params.bin_edges)
            log_ratio = loglik_ratio_path(sums, counts, state.seg_sums, state.seg_counts,
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
            assert state.rng_path.draws == [("gamma", (self.n_active, state.m))]
            assert state.rng_accept.draws == [("uniform", self.n_active)]
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


class TestUpdateParams:
    def prior(self, n=0):
        return g.PriorSpec(
            alpha=g.Prior("gamma", 2.0, 1.0),
            theta=tuple(g.Prior("normal", 0, 3.0) for _ in range(n)),
            rho=tuple(g.Prior("normal", 0, 7.0) for _ in range(n)),
        )

    def test_acceptance_rate_reasonable_on_gamma_data(self):
        # tight prior, default proposal scale: acceptance away from 0 and 1
        state = basic_state(obs=gamma_obs(n=100, seed=3))
        prop = g.ProposalSpec(sigma_alpha=0.025)
        tight = g.PriorSpec(alpha=g.Prior("gamma", 2500.0, 1250.0))  # sd 0.04
        accepted = 0
        for _ in range(400):
            g.refresh_segments(state)
            g.update_params(state, prop, tight)
            accepted += state.accept_params
        assert 0.1 < accepted / 400 < 0.9

    def test_rejection_keeps_params(self):
        state = basic_state()
        prior = g.PriorSpec(alpha=g.Prior("uniform", 0.999, 1.001))
        prop = g.ProposalSpec(sigma_alpha=50.0)  # nearly always out of support
        before = state.params.alpha
        rejected = 0
        for _ in range(50):
            g.update_params(state, prop, prior)
            if not state.accept_params:
                rejected += 1
        assert rejected > 0
        assert state.params.alpha == before or state.accept_params in (True, False)

    def test_tail_violations_rejected(self):
        params = g.ModelParams(1.0, 1.0, [1.0], [-0.9], [0.0])
        state = basic_state(params=params, seed=2)
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0),
                            theta=(g.Prior("normal", 0, 5.0),),
                            rho=(g.Prior("normal", 0, 5.0),))
        # huge slope steps propose tail slopes below -alpha often
        prop = g.ProposalSpec(sigma_alpha=1e-6, sigma_theta=20.0, sigma_rho=1e-6)
        kept_integrable = True
        for _ in range(100):
            g.update_params(state, prop, prior)
            kept_integrable &= state.params.tail_integrable
        assert kept_integrable

    def test_logged_ratio_matches_manual_recompute(self):
        params = g.ModelParams(1.0, 1.0, [0.8], [0.2], [-0.1])
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0),
                            theta=(g.Prior("normal", 0, 3.0),),
                            rho=(g.Prior("normal", 0, 7.0),))
        prop = g.ProposalSpec()
        a = basic_state(params=params, seed=21)
        b = basic_state(params=params, seed=21)
        g.update_params(a, prop, prior)
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
        expected = (g.loglik_ratio_params(totals(b), params, cand)
                    + g.prior_logpdf(prior, cand) - g.prior_logpdf(prior, params))
        assert a.logr_params == pytest.approx(expected, rel=1e-12)


class TestUpdateBeta:
    def prior(self):
        return g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0),
                           beta=g.Prior("uniform", 0.05, 50.0))

    def test_requires_random_beta(self):
        state = basic_state()
        fixed = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0))
        with pytest.raises(g.ConfigError):
            g.update_beta(state, g.ProposalSpec(), fixed)

    def test_gamma_model_ratio_is_prior_times_increment_densities(self):
        prop = g.ProposalSpec(sigma_beta=0.3)
        a = basic_state(seed=31)
        b = basic_state(seed=31)
        g.update_beta(a, prop, self.prior())
        beta_new = b.params.beta + prop.sigma_beta * b.rng_beta.normal()
        spans = b.grid.spans
        expected = sum(
            g.gamma_logpdf(d, beta_new * h, b.params.alpha)
            - g.gamma_logpdf(d, b.params.beta * h, b.params.alpha)
            for d, h in zip(b.obs.increments, spans)
        )
        # uniform prior contributes zero inside its support
        assert a.logr_beta == pytest.approx(expected, rel=1e-9)

    def test_endpoints_preserved_after_accepted_moves(self):
        state = basic_state(seed=41)
        prop = g.ProposalSpec(sigma_beta=0.5)
        accepted = 0
        for _ in range(100):
            g.refresh_segments(state)
            g.update_beta(state, prop, self.prior())
            accepted += state.accept_beta
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
        g.update_beta(state, g.ProposalSpec(sigma_beta=0.5), prior)
        assert Collapse.sizes == [(state.active.size, state.m)]     # the active block only
        assert state.accept_beta is False
        assert state.logr_beta == -math.inf
        assert state.terms is terms
        assert state.total_sums is total_sums and state.total_counts is total_counts
        assert np.array_equal(state.increments, increments)
        assert np.array_equal(state.seg_sums, sums)
        assert np.array_equal(state.seg_counts, counts)

    def test_accepted_move_hands_over_its_totals(self, monkeypatch):
        # the totals psi read are stored: one reduction of the active block per move
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0), beta=g.Prior("uniform", 0.05, 50.0),
                            theta=(g.Prior("normal", 0, 1.0),), rho=(g.Prior("normal", 0, 1.5),))
        state = basic_state(params=g.ModelParams(1.0, 1.0, [0.5], [0.4], [0.2]), seed=71)
        block_totals, reductions = g.ChainState.block_totals, []

        def counted(self, sums, counts):
            reductions.append(sums.shape)
            return block_totals(self, sums, counts)

        monkeypatch.setattr(g.ChainState, "block_totals", counted)
        accepted = 0
        for _ in range(60):
            g.refresh_segments(state)
            reductions.clear()
            g.update_beta(state, g.ProposalSpec(sigma_beta=0.2), prior)
            assert len(reductions) <= 1
            if state.accept_beta:
                active = state.active
                assert reductions == [(active.size, 2)]
                expected = block_totals(state, state.seg_sums[active], state.seg_counts[active])
                assert (state.total_sums, state.total_counts) == expected
                accepted += 1
        assert 5 < accepted < 60

    def test_binless_move_draws_only_its_proposal_and_uniform(self):
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0), beta=g.Prior("gamma", 2.0, 1.0))
        prop = g.ProposalSpec(sigma_beta=0.3)
        state, twin = basic_state(seed=31), basic_state(seed=31)
        arrays = (state.increments, state.seg_sums, state.seg_counts)
        copies = tuple(a.copy() for a in arrays)
        state.rng_beta = Recording(state.rng_beta)
        accepted = 0
        for _ in range(40):
            before = state.params
            g.update_beta(state, prop, prior)
            assert state.rng_beta.draws == [("normal", None), ("random", None)]
            state.rng_beta.draws.clear()
            for got, same, copy in zip((state.increments, state.seg_sums, state.seg_counts),
                                       arrays, copies):
                assert got is same
                assert np.array_equal(got, copy)
            # the twin replays the proposal; the ratio is the prior's times the
            # Gamma densities of the observed increments
            beta_new = before.beta + prop.sigma_beta * twin.rng_beta.normal()
            twin.rng_beta.random()
            cand = before.with_updates(beta=beta_new)
            expected = g.prior_logpdf(prior, cand) - g.prior_logpdf(prior, before) + sum(
                g.gamma_logpdf(d, beta_new * h, before.alpha)
                - g.gamma_logpdf(d, before.beta * h, before.alpha)
                for d, h in zip(state.obs.increments, state.grid.spans))
            assert state.logr_beta == pytest.approx(expected, rel=1e-9, abs=1e-12)
            assert state.params.beta == (beta_new if state.accept_beta else before.beta)
            accepted += state.accept_beta
        assert 0 < accepted < 40

    def test_negative_proposals_rejected(self):
        state = basic_state(seed=51)
        prop = g.ProposalSpec(sigma_beta=500.0)
        rejections = 0
        for _ in range(50):
            before = state.params.beta
            g.update_beta(state, prop, self.prior())
            if not state.accept_beta:
                assert state.params.beta == before
                rejections += 1
        assert rejections > 0


class Replay:
    """Delegates to a Generator and keeps the values of every normal draw."""

    def __init__(self, gen):
        self.gen, self.normals = gen, []

    def normal(self, *args, **kwargs):
        self.normals.append(self.gen.normal(*args, **kwargs))
        return self.normals[-1]

    def __getattr__(self, name):
        return getattr(self.gen, name)


class TestParamTerms:
    def test_cache_matches_fresh_evaluation_every_sweep(self):
        params = g.ModelParams(1.0, 1.0, [0.3, 1.0], [0.0, 0.0], [0.0, 0.0])
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0),
                            beta=g.Prior("uniform", 0.05, 50.0),
                            theta=(g.Prior("normal", 0, 1.0),) * 2,
                            rho=(g.Prior("normal", 0, 1.5),) * 2)
        prop = g.ProposalSpec(sigma_beta=0.1)
        state = basic_state(obs=gamma_obs(n=30, seed=5), params=params, m=4, seed=17)
        state.rng_params = Replay(state.rng_params)
        checked = accepted_params = accepted_beta = 0
        for _ in range(300):
            g.refresh_segments(state)
            before, stats = state.params, totals(state)
            g.update_params(state, prop, prior)
            accepted_params += state.accept_params
            if math.isfinite(state.logr_params):
                # the candidate from the same innovations, on ModelParams
                z = state.rng_params.normals[-1]
                alpha = before.alpha + prop.sigma_alpha * z[0]
                cand = before.with_updates(
                    alpha=alpha,
                    theta_slopes=before.theta_slopes + prop.sigma_theta * z[1:3] - (alpha - before.alpha),
                    theta_intercepts=before.theta_intercepts + prop.sigma_rho * z[3:])
                # the from-scratch formula of test_logged_ratio_matches_manual_recompute;
                # the kernel sums the same terms in another order
                expected = (g.loglik_ratio_params(stats, before, cand)
                            + g.prior_logpdf(prior, cand) - g.prior_logpdf(prior, before))
                assert state.logr_params == pytest.approx(expected, rel=1e-12, abs=1e-12)
                if state.accept_params:
                    assert state.params.alpha == cand.alpha
                    assert np.array_equal(state.params.theta_slopes, cand.theta_slopes)
                    assert np.array_equal(state.params.theta_intercepts, cand.theta_intercepts)
                checked += 1
            g.update_beta(state, prop, prior)
            accepted_beta += state.accept_beta
            terms, log_prior = state.terms, state.log_prior
            assert state.prior is prior
            assert (terms.alpha, terms.beta) == (state.params.alpha, state.params.beta)
            assert terms.slopes == tuple(state.params.theta_slopes)
            assert terms.intercepts == tuple(state.params.theta_intercepts)
            assert terms.masses == (g.nu_bin_mass(state.params, 1), g.nu_bin_mass(state.params, 2))
            assert log_prior == g.prior_logpdf(prior, state.params)
            assert terms.e1_b1 == g.exp_integral_e1(state.params.alpha * 0.3)
            # the Gamma reference's masses, which psi_log subtracts
            ref = state.params.gamma_reference()
            assert tuple(terms.beta * u for u in terms.ref_units) == (
                g.nu_bin_mass(ref, 1), g.nu_bin_mass(ref, 2))
        assert checked > 250
        assert 0 < accepted_params < 300 and 0 < accepted_beta < 300


def reference_update_params(state, prop, prior):
    """update_params as it ran on ModelParams, loglik_ratio_params and prior_logpdf."""
    state.accept_params, state.logr_params = False, -math.inf
    params, rng = state.params, state.rng_params
    z_alpha = rng.normal()
    z_theta = rng.normal(size=params.n_bins)
    z_rho = rng.normal(size=params.n_bins)
    alpha_new = params.alpha + prop.sigma_alpha * z_alpha
    if alpha_new <= 0:
        return
    if prior.reparam:
        _, _, alpha1, beta1 = reparam_view(params)
        beta1_new = beta1 + prop.sigma_rho * z_rho[0]
        if beta1_new <= 0:
            return
        cand = reparam_invert(alpha_new, params.beta, alpha1 + prop.sigma_theta * z_theta[0],
                              beta1_new, params.bin_edges)
    else:
        cand = params.with_updates(
            alpha=alpha_new,
            theta_slopes=params.theta_slopes + prop.sigma_theta * z_theta - (alpha_new - params.alpha),
            theta_intercepts=params.theta_intercepts + prop.sigma_rho * z_rho)
    if not cand.tail_integrable:
        return
    lp_new = g.prior_logpdf(prior, cand)
    if lp_new == -math.inf:
        return
    log_ratio = float(g.loglik_ratio_params(totals(state), params, cand)
                      + lp_new - g.prior_logpdf(prior, params))
    state.logr_params = log_ratio
    if log_ratio >= math.log(rng.uniform()):
        set_params(state, cand)
        state.accept_params = True


def reference_update_beta(state, prop, prior):
    """update_beta as it ran on ModelParams, prior_logpdf, psi_log and the scalar
    Gamma densities of the observed increments, with the reparameterised
    prior's Jacobian ln(beta°/beta)."""
    state.accept_beta, state.logr_beta = False, -math.inf
    params, rng = state.params, state.rng_beta
    beta_new = params.beta + prop.sigma_beta * rng.normal()
    if beta_new <= 0:
        return
    cand = params.with_updates(beta=beta_new)
    lp_diff = g.prior_logpdf(prior, cand) - g.prior_logpdf(prior, params)
    if lp_diff == -math.inf:
        return
    active, new_stats = state.active, totals(state)
    if active.size:
        block, sub = state.increments[active], state.active_sub_spans
        if beta_new > params.beta:
            block = augment_rows(rng, block, sub, params.beta, beta_new, params.alpha)
        elif beta_new < params.beta:
            block = thin_rows(rng, block, sub, params.beta, beta_new)
        block, collapsed = pin_rows(block, state.obs.increments[active])
        if collapsed.any():
            return
        sums, counts = bin_stats_matrix(block, params.bin_edges)
        new_stats = g.BinStats(*state.block_totals(sums, counts), state.grid.horizon)
    density_diff = sum(g.gamma_logpdf(d, beta_new * h, params.alpha)
                       - g.gamma_logpdf(d, params.beta * h, params.alpha)
                       for d, h in zip(state.obs.increments, state.grid.spans))
    log_ratio = float(lp_diff + density_diff
                      + (g.psi_log(new_stats, cand) - g.psi_log(totals(state), params)))
    if prior.reparam:
        log_ratio += math.log(beta_new / params.beta)
    state.logr_beta = log_ratio
    if log_ratio >= math.log(rng.uniform()):
        set_params(state, cand)
        state.accept_beta = True
        if active.size:
            state.write_rows(active, block, sums, counts)


def normal_priors(n, sd_theta=1.0, sd_rho=1.5):
    return (tuple(g.Prior("normal", 0, sd_theta) for _ in range(n)),
            tuple(g.Prior("normal", 0, sd_rho) for _ in range(n)))


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
                g.PriorSpec(alpha=g.Prior.from_mean_variance(0.75, 0.36), beta=tight_beta,
                            theta=(g.Prior.from_mean_variance(0.75, 0.36),),
                            rho=(g.Prior.from_mean_variance(1.0, 1.0),), reparam=True),
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
                               params_move=reference_update_params))
        for r, o in zip(recs, oracle, strict=True):
            assert (r.alpha, r.beta, r.theta, r.rho) == (o.alpha, o.beta, o.theta, o.rho)
            assert (r.accept_params, r.accept_beta) == (o.accept_params, o.accept_beta)
            assert r.accept_path_rate == o.accept_path_rate
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
        state = basic_state(obs=gamma_obs(n=30, seed=5), params=params, m=4, seed=17)
        assert 0 < state.active.size < state.n_segments
        inert = np.setdiff1d(np.arange(state.n_segments), state.active)
        inert_rows = state.increments[inert].copy()
        assert_totals_current(state)
        accepted_beta = 0
        for _ in range(300):
            g.refresh_segments(state)
            assert_totals_current(state)
            g.update_params(state, prop, prior)
            g.update_beta(state, prop, prior)
            accepted_beta += state.accept_beta
            assert_totals_current(state)
            # no move writes an inert row
            assert np.array_equal(state.increments[inert], inert_rows)
        assert 0 < accepted_beta < 300


class TestSweepTypes:
    def test_run_builds_no_model_params_or_bin_stats(self, monkeypatch):
        obs, params0, prior, prop = kernel_model("binned random beta")
        built = []
        for cls in (g.ModelParams, g.BinStats):
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
        state = self.with_total(basic_state(), 0, math.nan)
        with pytest.raises(g.ContractError, match="NaN"):
            g.update_params(state, g.ProposalSpec(), self.prior)

    def test_nan_beta_ratio_raises(self):
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0), beta=g.Prior("uniform", 0.05, 50.0),
                            theta=(g.Prior("normal", 0, 1.0),), rho=(g.Prior("normal", 0, 1.5),))
        state = basic_state(params=g.ModelParams(1.0, 1.0, [0.5], [0.4], [0.2]), seed=71)
        self.with_total(state, 1, math.nan)
        with pytest.raises(g.ContractError, match="NaN"):
            g.update_beta(state, g.ProposalSpec(), prior)

    def test_minus_inf_ratio_is_a_rejection(self):
        class Upward:
            def normal(self, size):
                return np.ones(size)

            def random(self):
                return 0.5

        # an alpha step up against an infinite S_0 gives a ratio of -inf
        state = self.with_total(basic_state(), 0, math.inf)
        state.rng_params = Upward()
        terms = state.score(self.prior)
        g.update_params(state, g.ProposalSpec(), self.prior)
        assert state.accept_params is False
        assert state.logr_params == -math.inf
        assert state.terms is terms


class TestReparam:
    def test_round_trip(self):
        p = g.ModelParams(0.8, 90.0, [2.0], [0.15], [0.4])
        alpha, beta, alpha1, beta1 = reparam_view(p)
        assert alpha1 == pytest.approx(0.95)
        assert beta1 == pytest.approx(90.0 * math.exp(-0.4))
        back = reparam_invert(alpha, beta, alpha1, beta1, p.bin_edges)
        assert back.theta_slopes[0] == pytest.approx(p.theta_slopes[0], rel=1e-12)
        assert back.theta_intercepts[0] == pytest.approx(p.theta_intercepts[0], rel=1e-12)

    def test_requires_single_bin(self):
        with pytest.raises(g.ContractError):
            reparam_view(g.ModelParams(1.0, 1.0))

    def test_reparam_sampler_smoke(self):
        obs = gamma_obs(n=30, seed=13)
        params0 = g.ModelParams(1.0, 1.0, [2.0], [0.0], [0.0])
        prior = g.PriorSpec(
            alpha=g.Prior.from_mean_variance(0.75, 0.36),
            beta=g.Prior.from_mean_variance(1.0, 1.0),
            theta=(g.Prior.from_mean_variance(0.75, 0.36),),
            rho=(g.Prior.from_mean_variance(1.0, 1.0),),
            reparam=True,
        )
        prop = g.ProposalSpec(sigma_alpha=0.05, sigma_theta=0.05, sigma_rho=0.1,
                              sigma_beta=0.05,
                              update_schedule=("beta", "beta", "params", "params", "params"))
        recs = list(g.run_mcmc(obs, params0, prior, prop, iterations=400,
                               burn_in=100, seed=17, m=4))
        assert len(recs) == 300
        assert any(r.accept_params for r in recs if r.accept_params is not None)
        assert all(math.isfinite(r.alpha) for r in recs)

    def test_beta_move_targets_the_documented_law(self):
        # One bin with b_1 above every increment: each segment is inert, so psi
        # is only its compensator term, -T beta (exp(-rho) E1(c b_1) - E1(alpha b_1))
        # with c = alpha + slope.  With alpha, slope and rho fixed, beta's
        # conditional is its uniform prior, the rho prior's gamma(3, 2) density at
        # beta exp(-rho), the Jacobian beta of that coordinate at fixed rho, the
        # Gamma densities of the increments and exp(psi).
        deltas = np.array([0.42, 1.35, 0.18, 0.77])
        obs = g.Observations.from_increments(np.arange(5.0), deltas)
        alpha, slope, rho, b1, horizon = 1.0, 0.3, 0.5, 2 * deltas.max(), 4.0
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0), beta=g.Prior("uniform", 0.05, 6.0),
                            theta=(g.Prior("gamma", 2.0, 1.0),),
                            rho=(g.Prior("gamma", 3.0, 2.0),), reparam=True)
        comp = (math.exp(-rho) * special.exp1((alpha + slope) * b1)
                - special.exp1(alpha * b1))

        def mean_of(jacobian):
            def log_density(beta):
                return (gamma_dist.logpdf(beta * math.exp(-rho), 3.0, scale=0.5)
                        + jacobian * math.log(beta)
                        + gamma_dist.logpdf(deltas, beta, scale=1 / alpha).sum()
                        - horizon * beta * comp)

            def moment(k):
                return integrate.quad(lambda b: b ** k * math.exp(log_density(b)), 0.05, 6.0,
                                      epsabs=0, epsrel=1e-12, limit=200)[0]
            return moment(1) / moment(0)

        target = mean_of(jacobian=1)
        recs = list(g.run_mcmc(obs, g.ModelParams(alpha, 0.6, [b1], [slope], [rho]), prior,
                               g.ProposalSpec(sigma_beta=0.8, update_schedule=("beta",)),
                               iterations=80_000, burn_in=1_000, seed=3, m=3))
        assert {(r.alpha, r.theta, r.rho) for r in recs} == {(alpha, (slope,), (rho,))}
        chain = np.array([r.beta for r in recs])
        batches = chain[: 20 * (chain.size // 20)].reshape(20, -1).mean(axis=1)
        se = batches.std(ddof=1) / math.sqrt(batches.size)
        assert abs(chain.mean() - target) < 4 * se
        # the law without the Jacobian is far out of reach
        assert abs(mean_of(jacobian=0) - target) > 20 * se


FIVE_SWEEP_BETA = ("beta", "params", "params", "params", "params")


class TestRunMcmc:
    def prior(self):
        return g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0))

    def test_zero_post_burn_in_iterations(self):
        recs = list(g.run_mcmc(gamma_obs(), g.ModelParams(1.0, 1.0), self.prior(),
                               g.ProposalSpec(), iterations=10, burn_in=10, seed=0, m=3))
        assert recs == []

    def test_same_seed_identical_streams(self):
        kwargs = dict(iterations=60, burn_in=10, thinning=2, seed=12, m=4)
        a = list(g.run_mcmc(gamma_obs(), g.ModelParams(1.0, 1.0), self.prior(),
                            g.ProposalSpec(), **kwargs))
        b = list(g.run_mcmc(gamma_obs(), g.ModelParams(1.0, 1.0), self.prior(),
                            g.ProposalSpec(), **kwargs))
        assert a == b

    def test_thinning_stride_and_iterations(self):
        recs = list(g.run_mcmc(gamma_obs(), g.ModelParams(1.0, 1.0), self.prior(),
                               g.ProposalSpec(), iterations=30, burn_in=10,
                               thinning=4, seed=1, m=3))
        assert [r.iteration for r in recs] == [14, 18, 22, 26, 30]

    def test_configuration_errors_before_sampling(self):
        obs = gamma_obs()
        p0 = g.ModelParams(1.0, 1.0)
        with pytest.raises(g.ConfigError):
            list(g.run_mcmc(obs, p0, self.prior(), g.ProposalSpec(), iterations=5,
                            burn_in=9, seed=0))
        with pytest.raises(g.ConfigError):
            list(g.run_mcmc(obs, p0, self.prior(), g.ProposalSpec(), iterations=5,
                            burn_in=0, thinning=0, seed=0))
        with pytest.raises(g.ConfigError):
            list(g.run_mcmc(obs, p0, self.prior(),
                            g.ProposalSpec(update_schedule=("beta",)),
                            iterations=5, burn_in=0, seed=0))
        bad_prior = g.PriorSpec(alpha=g.Prior("uniform", 5.0, 6.0))
        with pytest.raises(g.ConfigError):
            list(g.run_mcmc(obs, p0, bad_prior, g.ProposalSpec(), iterations=5,
                            burn_in=0, seed=0))

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

    def test_foreign_header_rejected(self):
        with pytest.raises(g.DataError, match="header"):
            read_chain_csv(io.StringIO("time,value\n0.0,0.0\n"))

    def test_header(self):
        assert chain_csv_header(2) == (
            "iteration,alpha,beta,theta_1,theta_2,rho_1,rho_2,"
            "accept_path_rate,accept_params,accept_beta,logr_params,logr_beta")

    def test_meta_json(self):
        recs = self.make_records()
        buf = io.StringIO()
        write_meta_json(buf, config_echo={"alpha_init": "1.0"}, records=recs)
        import json
        meta = json.loads(buf.getvalue())
        assert meta["config"]["alpha_init"] == "1.0"
        assert meta["n_records"] == len(recs)
        assert 0.0 <= meta["acceptance"]["path_refresh_mean_rate"] <= 1.0


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
