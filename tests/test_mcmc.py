"""Sampler mechanics: initialization, refreshes, parameter and activity moves."""

import io
import math

import numpy as np
import pytest

import gammasub as g
from gammasub import mcmc
from gammasub.likelihood import bin_stats_matrix, loglik_ratio_path
from gammasub.mcmc import (
    chain_csv_header,
    read_chain_csv,
    reparam_invert,
    reparam_view,
    write_chain_csv,
    write_meta_json,
)
from gammasub.paths import bridge_rows


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


class TestInitChain:
    def test_two_point_segment(self):
        obs = g.Observations([0.0, 1.0], [0.0, 1.0])
        state = g.init_chain(obs, g.ModelParams(1.0, 1.0), g.TimeGrid(obs.times, 4), 1)
        paths = state.segment_paths()
        assert len(paths) == 1
        assert paths[0].start == 0.0 and paths[0].end == 1.0

    def test_segments_monotone_and_pinned(self):
        state = basic_state()
        assert state.n_segments == 20
        assert np.all(state.increments >= 0)
        # endpoints equal the observations exactly
        assert np.allclose(state.increments.sum(axis=1), state.obs.increments,
                           rtol=1e-14, atol=0)

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
        proposal = bridge_rows(twin.rng_path, params.beta * twin.sub_spans()[active],
                               twin.obs.increments[active], twin.m)
        new_sums, new_counts = bin_stats_matrix(proposal, params.bin_edges)
        state.rng_accept = RejectEveryThird()
        g.refresh_segments(state)
        rejected = np.arange(active.size) % 3 == 0
        expected = np.ones(state.n_segments, dtype=bool)
        expected[active[rejected]] = False
        assert np.array_equal(state.segment_accepts, expected)
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
        assert np.array_equal(a.segment_accepts, b.segment_accepts)


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


def run_with(refresh, obs, params0, prior, prop, iterations, seed, m):
    """run_mcmc's loop, with burn_in 0 and thinning 1, around another refresh."""
    state = g.init_chain(obs, params0, g.TimeGrid(obs.times, m), seed)
    periodic_beta = prior.beta_is_random and "beta" not in prop.update_schedule
    for t in range(1, iterations + 1):
        state.iteration = t
        state.accept_params = state.accept_beta = None
        state.logr_params = state.logr_beta = math.nan
        refresh(state)
        stage = prop.update_schedule[(t - 1) % len(prop.update_schedule)]
        (g.update_params if stage == "params" else g.update_beta)(state, prop, prior)
        if periodic_beta and t % prop.beta_move_period == 0:
            g.update_beta(state, prop, prior)
        yield state.record()


def full_refresh(state):
    """The refresh as it ran before inert segments were skipped: one block of every row."""
    params = state.params
    proposal = bridge_rows(state.rng_path, params.beta * state.sub_spans(),
                           state.obs.increments, state.m)
    sums, counts = bin_stats_matrix(proposal, params.bin_edges)
    log_ratio = loglik_ratio_path(sums, counts, state.seg_sums, state.seg_counts, params)
    accept = log_ratio >= np.log(state.rng_accept.uniform(size=state.n_segments))
    reject = ~accept
    proposal[reject] = state.increments[reject]
    sums[reject] = state.seg_sums[reject]
    counts[reject] = state.seg_counts[reject]
    state.increments, state.seg_sums, state.seg_counts = proposal, sums, counts
    state.segment_accepts = accept
    state.accept_path_rate = float(accept.mean())


def refresh_all_from(rng_inert):
    """A full refresh whose active rows use the sampler's streams and inert rows rng_inert."""
    def refresh(state):
        params = state.params
        active = mcmc.active_segments(state.obs.increments, params.bin_edges)
        inert = np.setdiff1d(np.arange(state.n_segments), active)
        shapes, deltas = params.beta * state.sub_spans(), state.obs.increments
        proposal = np.empty_like(state.increments)
        proposal[active] = bridge_rows(state.rng_path, shapes[active], deltas[active], state.m)
        proposal[inert] = bridge_rows(rng_inert, shapes[inert], deltas[inert], state.m)
        sums, counts = bin_stats_matrix(proposal, params.bin_edges)
        log_ratio = loglik_ratio_path(sums, counts, state.seg_sums, state.seg_counts, params)
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
        state.segment_accepts = accept
        state.accept_path_rate = float(accept.mean())
    return refresh


class TestBinlessRefresh:
    prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0))

    def test_draws_nothing_and_accepts_every_segment(self):
        state = basic_state(obs=gamma_obs(n=30, seed=5), seed=19)
        state.rng_path = state.rng_accept = NoDraws()
        arrays = (state.increments, state.seg_sums, state.seg_counts)
        copies = tuple(a.copy() for a in arrays)
        assert not state.segment_accepts.any()
        g.refresh_segments(state)
        for got, same, copy in zip((state.increments, state.seg_sums, state.seg_counts),
                                   arrays, copies):
            assert got is same
            assert np.array_equal(got, copy)
        assert state.accept_path_rate == 1.0
        assert state.segment_accepts.shape == (state.n_segments,)
        assert state.segment_accepts.dtype == bool and state.segment_accepts.all()

    def test_binned_refresh_still_draws(self):
        # a bin with zero theta still needs fresh bridges: its S_k and C_k move
        state = basic_state(params=g.ModelParams(1.0, 1.0, [0.5], [0.0], [0.0]))
        state.rng_path = state.rng_accept = NoDraws()
        with pytest.raises(AssertionError, match="drew"):
            g.refresh_segments(state)

    def test_totals_are_reduced_once_per_chain(self):
        state = basic_state(seed=3)
        totals = state.total_stats()
        for _ in range(20):
            g.refresh_segments(state)
            g.update_params(state, g.ProposalSpec(), self.prior)
        assert state.total_stats() is totals

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
            proposal = bridge_rows(state.rng_path, params.beta * state.sub_spans(),
                                   state.obs.increments, state.m)
            sums, counts = bin_stats_matrix(proposal, params.bin_edges)
            log_ratio = loglik_ratio_path(sums, counts, state.seg_sums, state.seg_counts, params)
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
            assert state.segment_accepts[inert].all()
            for got, copy in zip((state.increments, state.seg_sums, state.seg_counts), copies):
                assert np.array_equal(got[inert], copy[inert])
            moved += not np.array_equal(state.increments[:self.n_active],
                                        copies[0][:self.n_active])
            sums, counts = bin_stats_matrix(state.increments, state.params.bin_edges)
            assert np.array_equal(sums, state.seg_sums) and np.array_equal(counts, state.seg_counts)
            assert np.array_equal(state.total_stats().sums, state.seg_sums.sum(axis=0))
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
        oracle = list(run_with(refresh_all_from(np.random.default_rng(5)),
                               obs, params0, prior, prop, 400, 31, 5))
        active = mcmc.active_segments(obs.increments, params0.bin_edges)
        assert 10 < active.size < 50
        for r, o in zip(recs, oracle, strict=True):
            assert (r.alpha, r.beta, r.theta, r.rho) == (o.alpha, o.beta, o.theta, o.rho)
            assert (r.accept_params, r.accept_beta) == (o.accept_params, o.accept_beta)
            assert r.accept_path_rate == o.accept_path_rate
            for a, b in ((r.logr_params, o.logr_params), (r.logr_beta, o.logr_beta)):
                assert a == b or abs(a - b) <= 1e-9 or (math.isnan(a) and math.isnan(b))
        assert min(r.accept_path_rate for r in recs) < 1.0
        assert 0 < sum(bool(r.accept_params) for r in recs) < 400
        if random_beta:
            assert 0 < sum(bool(r.accept_beta) for r in recs) < 200

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
        expected = (g.loglik_ratio_params(b.total_stats(), params, cand)
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
        # all-zero Beta multipliers thin every segment to zero total; such a
        # row cannot be re-pinned, so the move is rejected and nothing moves
        class Collapse:
            def normal(self):
                return -1.0

            def beta(self, a, b, size):
                return np.zeros(size)

            def uniform(self):
                return 1e-300

        state = basic_state(seed=71)
        params, increments = state.params, state.increments.copy()
        sums, counts = state.seg_sums.copy(), state.seg_counts.copy()
        state.rng_beta = Collapse()
        g.update_beta(state, g.ProposalSpec(sigma_beta=0.5), self.prior())
        assert state.accept_beta is False
        assert state.logr_beta == -math.inf
        assert state.params is params
        assert np.array_equal(state.increments, increments)
        assert np.array_equal(state.seg_sums, sums)
        assert np.array_equal(state.seg_counts, counts)

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


class TestParamTerms:
    def test_cache_matches_fresh_evaluation_every_sweep(self, monkeypatch):
        params = g.ModelParams(1.0, 1.0, [0.3, 1.0], [0.0, 0.0], [0.0, 0.0])
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0),
                            beta=g.Prior("uniform", 0.05, 50.0),
                            theta=(g.Prior("normal", 0, 1.0),) * 2,
                            rho=(g.Prior("normal", 0, 1.5),) * 2)
        prop = g.ProposalSpec(sigma_beta=0.1)
        state = basic_state(obs=gamma_obs(n=30, seed=5), params=params, m=4, seed=17)
        proposed = []
        propose = mcmc._propose_params

        def recording(*args):
            proposed.append(propose(*args))
            return proposed[-1]

        monkeypatch.setattr(mcmc, "_propose_params", recording)
        checked = accepted_params = accepted_beta = with_ref = 0
        for _ in range(300):
            g.refresh_segments(state)
            before, stats = state.params, state.total_stats()
            g.update_params(state, prop, prior)
            accepted_params += state.accept_params
            if math.isfinite(state.logr_params):
                cand = proposed[-1]
                # the from-scratch formula of test_logged_ratio_matches_manual_recompute
                expected = (g.loglik_ratio_params(stats, before, cand)
                            + g.prior_logpdf(prior, cand) - g.prior_logpdf(prior, before))
                assert state.logr_params == expected
                checked += 1
            g.update_beta(state, prop, prior)
            accepted_beta += state.accept_beta
            terms = state.terms
            assert terms.params is state.params and terms.prior is prior
            assert terms.masses == (g.nu_bin_mass(state.params, 1), g.nu_bin_mass(state.params, 2))
            assert terms.log_prior == g.prior_logpdf(prior, state.params)
            if terms.ref_masses is not None:
                # the Gamma reference's masses, kept from the beta move that last needed them
                ref = state.params.gamma_reference()
                assert terms.ref_masses == (g.nu_bin_mass(ref, 1), g.nu_bin_mass(ref, 2))
                with_ref += 1
        assert checked > 250 and with_ref > 50
        assert 0 < accepted_params < 300 and 0 < accepted_beta < 300


class TestSegmentTotals:
    def test_cache_matches_fresh_reduction_every_sweep(self):
        params = g.ModelParams(1.0, 1.0, [0.3, 1.0], [0.0, 0.0], [0.0, 0.0])
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0),
                            beta=g.Prior("uniform", 0.05, 50.0),
                            theta=(g.Prior("normal", 0, 1.0),) * 2,
                            rho=(g.Prior("normal", 0, 1.5),) * 2)
        prop = g.ProposalSpec(sigma_beta=0.1)
        state = basic_state(obs=gamma_obs(n=30, seed=5), params=params, m=4, seed=17)
        accepted_beta = 0
        for _ in range(300):
            g.refresh_segments(state)
            g.update_params(state, prop, prior)
            g.update_beta(state, prop, prior)
            if state.accept_beta:
                # the move hands over the totals it computed for psi_log
                assert state.totals[0] is state.seg_sums and state.totals[1] is state.seg_counts
                accepted_beta += 1
            stats = state.total_stats()
            assert np.array_equal(stats.sums, state.seg_sums.sum(axis=0))
            assert np.array_equal(stats.counts, state.seg_counts.sum(axis=0))
        assert 0 < accepted_beta < 300


class TestNonFiniteRatios:
    prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0), beta=g.Prior("uniform", 0.05, 50.0))

    def test_nan_parameter_ratio_raises(self, monkeypatch):
        monkeypatch.setattr(mcmc, "loglik_ratio_params", lambda *args: math.nan)
        with pytest.raises(g.ContractError, match="NaN"):
            g.update_params(basic_state(), g.ProposalSpec(), self.prior)

    def test_nan_beta_ratio_raises(self, monkeypatch):
        monkeypatch.setattr(mcmc, "psi_log", lambda *args: math.nan)
        with pytest.raises(g.ContractError, match="NaN"):
            g.update_beta(basic_state(), g.ProposalSpec(), self.prior)

    def test_minus_inf_ratio_is_a_rejection(self, monkeypatch):
        monkeypatch.setattr(mcmc, "loglik_ratio_params", lambda *args: -math.inf)
        state = basic_state()
        params = state.params
        g.update_params(state, g.ProposalSpec(), self.prior)
        assert state.accept_params is False
        assert state.logr_params == -math.inf
        assert state.params is params


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

    def test_periodic_beta_updates(self):
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0),
                            beta=g.Prior("uniform", 0.05, 50.0))
        recs = list(g.run_mcmc(gamma_obs(), g.ModelParams(1.0, 1.0), prior,
                               g.ProposalSpec(beta_move_period=5), iterations=20,
                               burn_in=0, seed=2, m=3))
        attempted = [r.iteration for r in recs if r.accept_beta is not None]
        assert attempted == [5, 10, 15, 20]

    def test_retained_states_respect_support(self):
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0),
                            beta=g.Prior("uniform", 0.05, 50.0),
                            theta=(g.Prior("normal", 0, 3.0),),
                            rho=(g.Prior("normal", 0, 7.0),))
        params0 = g.ModelParams(1.0, 1.0, [0.5], [0.0], [0.0])
        recs = list(g.run_mcmc(gamma_obs(n=10), params0, prior,
                               g.ProposalSpec(sigma_theta=0.5, sigma_rho=0.5),
                               iterations=200, burn_in=0, seed=4, m=3))
        for r in recs:
            assert r.alpha > 0 and r.beta > 0
            assert r.theta[0] > -r.alpha


class TestChainIo:
    def make_records(self):
        prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0),
                            beta=g.Prior("uniform", 0.05, 50.0))
        return list(g.run_mcmc(gamma_obs(n=6), g.ModelParams(1.0, 1.0), prior,
                               g.ProposalSpec(), iterations=25, burn_in=5, seed=9, m=3))

    def test_round_trip(self):
        recs = self.make_records()
        buf = io.StringIO()
        write_chain_csv(recs, buf, 0)
        buf.seek(0)
        back = read_chain_csv(buf)
        assert back == recs

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
