"""Gamma bridges and the activity-change transforms: the row kernels and their one-row views."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

from gammasub import (
    ContractError,
    DegeneratePathError,
    DomainError,
    TimeGrid,
    augment_path,
    gamma_bridge,
    sample_gamma_bridge,
    thin_path,
)
from gammasub.paths import (
    as_generator,
    augment_rows,
    bridge_rows,
    pin_rows,
    thin_rows,
)


class TestTimeGrid:
    def test_refined_points(self):
        grid = TimeGrid([0.0, 1.0, 3.0], m=2)
        assert grid.spans == pytest.approx([1.0, 2.0])
        assert grid.horizon == 3.0

    def test_validation(self):
        with pytest.raises(DomainError):
            TimeGrid([0.0, 0.0], m=1)
        with pytest.raises(DomainError):
            TimeGrid([0.0, 1.0], m=0)
        with pytest.raises(DomainError):
            TimeGrid([0.0], m=1)

    def test_non_integer_refinement_rejected(self):
        # 2.5 was truncated to 2 sub-steps; an integral numpy count is kept as an int
        for m in (2.5, 2.0, "3"):
            with pytest.raises(DomainError, match="must be an integer >= 1"):
                TimeGrid([0.0, 1.0], m=m)
        grid = TimeGrid([0.0, 1.0], m=np.int64(3))
        assert grid.m == 3 and type(grid.m) is int


def gamma_row(beta, alpha, h, n, seed):
    """One row of n independent Gamma(beta*h, alpha) increments."""
    return as_generator(seed).gamma(beta * h, 1.0 / alpha, size=(1, n))


class TestGammaBridge:
    def test_endpoints_exact(self):
        # the end point of a path from 0 is its row sum: pinned to rounding
        inc = gamma_row(1.0, 1.0, 0.2, 5, 7)[0]
        b = gamma_bridge(inc, 3.25)
        assert np.array_equal(b, inc * 3.25 / inc.sum())
        assert abs(b.sum() - 3.25) <= 1e-13 * 3.25
        assert np.all(b >= 0)

    def test_scaling_invariance(self):
        inc = gamma_row(1.0, 1.0, 1 / 6, 6, 11)[0]
        a = gamma_bridge(inc, 1.0)
        b = gamma_bridge(inc * 17.0, 1.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_requires_increasing_endpoints(self):
        inc = gamma_row(1.0, 1.0, 0.5, 2, 3)[0]
        for total in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                gamma_bridge(inc, total)

    def test_degenerate_raises(self):
        with pytest.raises(DegeneratePathError):
            gamma_bridge(np.zeros(3), 1.0)

    def test_zero_increment_stays_zero(self):
        b = gamma_bridge(np.array([0.5, 0.0, 0.5]), 2.0)
        assert b.tolist() == [1.0, 0.0, 1.0]

    def test_midpoint_beta_law(self):
        # bridge value at T/2 of a 0->1 Gamma(beta, alpha) bridge is
        # Beta(beta*T/2, beta*T/2): mean 1/2, variance 1/(4*(beta*T+1))
        beta, T, reps = 2.0, 1.0, 20_000
        mids = bridge_rows(np.random.default_rng(42), np.array([[beta * T / 2]]),
                           np.ones(reps), (reps, 2))[0][:, 0]
        mean_se = mids.std() / math.sqrt(reps)
        assert abs(mids.mean() - 0.5) < 3 * mean_se
        target_var = 1.0 / (4.0 * (beta * T + 1.0))
        v = mids.var()
        se_var = math.sqrt((np.mean((mids - mids.mean()) ** 4) - v * v) / reps)
        assert abs(v - target_var) < 3 * se_var

    def test_sample_gamma_bridge_wrapper(self):
        grid = TimeGrid([0.0, 2.0], m=4)
        b = sample_gamma_bridge(1.5, 2.0, grid, 3.0, 99)
        assert b.shape == (4,) and np.all(b >= 0)
        assert abs(b.sum() - 3.0) <= 1e-13 * 3.0

    def test_sample_gamma_bridge_deterministic_given_seed(self):
        grid = TimeGrid([0.0, 1.0], m=8)
        a = sample_gamma_bridge(1.0, 2.0, grid, 1.5, 123)
        b = sample_gamma_bridge(1.0, 2.0, grid, 1.5, 123)
        assert np.array_equal(a, b)

    def test_sample_gamma_bridge_bad_parameters(self):
        grid = TimeGrid([0.0, 1.0], m=2)
        with pytest.raises(DomainError):
            sample_gamma_bridge(0.0, 1.0, grid, 1.0, 0)
        with pytest.raises(DomainError):
            sample_gamma_bridge(1.0, -1.0, grid, 1.0, 0)
        with pytest.raises(DomainError):
            sample_gamma_bridge(1.0, 1.0, grid, 0.0, 0)


class TestAugment:
    def test_requires_larger_target(self):
        grid = TimeGrid([0.0, 1.0], m=2)
        inc = gamma_row(1.0, 1.0, 0.5, 2, 0)[0]
        with pytest.raises(ContractError):
            augment_path(inc, grid, 2.0, 1.0, 1.0, 0)

    def test_moments_match_direct_gamma(self):
        beta, beta_new, alpha, h = 1.0, 2.0, 1.5, 0.5
        base = gamma_row(beta, alpha, h, 50_000, 21)
        inc = augment_rows(as_generator(22), base, h, beta, beta_new, alpha)[0]
        target_mean = h * beta_new / alpha
        target_var = h * beta_new / alpha ** 2
        assert abs(inc.mean() - target_mean) < 3 * inc.std() / math.sqrt(inc.size)
        v = inc.var()
        se_var = math.sqrt((np.mean((inc - inc.mean()) ** 4) - v * v) / inc.size)
        assert abs(v - target_var) < 3 * se_var

    def test_vanishing_addition(self):
        beta, alpha, h = 1.0, 1.0, 0.1
        base = gamma_row(beta, alpha, h, 1000, 3)
        out = augment_rows(as_generator(4), base, h, beta, beta + 1e-6, alpha)
        added = out - base
        assert np.all(added >= 0)
        assert added.mean() < 1e-5

    def test_composition_matches_single_jump(self):
        # augment in two steps vs one step: same first two moments
        alpha, h, n = 1.0, 0.2, 200_000
        base = gamma_row(1.0, alpha, h, n, 31)
        half = augment_rows(as_generator(32), base, h, 1.0, 1.5, alpha)
        a = augment_rows(as_generator(33), half, h, 1.5, 3.0, alpha)[0]
        b = augment_rows(as_generator(34), base, h, 1.0, 3.0, alpha)[0]
        se = math.sqrt(a.var() / a.size + b.var() / b.size)
        assert abs(a.mean() - b.mean()) < 3 * se
        va, vb = a.var(), b.var()
        se_v = math.sqrt(
            (np.mean((a - a.mean()) ** 4) - va ** 2) / a.size
            + (np.mean((b - b.mean()) ** 4) - vb ** 2) / b.size)
        assert abs(va - vb) < 3 * se_v


class TestThin:
    def test_requires_smaller_target(self):
        grid = TimeGrid([0.0, 1.0], m=2)
        inc = gamma_row(1.0, 1.0, 0.5, 2, 0)[0]
        with pytest.raises(ContractError):
            thin_path(inc, grid, 1.0, 2.0, 0)
        with pytest.raises(ContractError):
            thin_path(inc, grid, 1.0, -0.5, 0)

    def test_pointwise_below_input(self):
        base = gamma_row(2.0, 1.0, 0.1, 100, 8)
        out = thin_rows(as_generator(9), base, 0.1, 2.0, 0.5)
        assert np.all(out <= base) and np.all(out >= 0)

    def test_mean_ratio(self):
        beta, beta_new, h, n = 2.0, 0.5, 1.0, 100_000
        base = gamma_row(beta, 1.0, h, n, 51)
        out = thin_rows(as_generator(52), base, h, beta, beta_new)
        ratio = out.mean() / base.mean()
        se = out.std() / math.sqrt(n) / base.mean()
        assert abs(ratio - beta_new / beta) < 4 * se

    def test_marginal_matches_direct_gamma(self):
        alpha, beta, beta_new = 1.5, 2.0, 0.5
        for h in (0.1, 1.0):
            n = 10_000
            base = gamma_row(beta, alpha, h, n, 61)
            out = thin_rows(as_generator(62), base, h, beta, beta_new)[0]
            direct = np.random.default_rng(63).gamma(h * beta_new, 1 / alpha, size=n)
            res = stats.ks_2samp(out, direct)
            assert res.pvalue > 0.01

    def test_near_identity_limit(self):
        base = gamma_row(2.0, 1.0, 1.0, 100, 71)
        out = thin_rows(as_generator(72), base, 1.0, 2.0, 2.0 - 1e-9)
        assert out == pytest.approx(base, rel=1e-4)


class TestRoundTrip:
    def test_thin_of_augment_restores_marginal(self):
        alpha, beta, beta_up, h, n = 1.0, 1.0, 2.5, 0.5, 10_000
        base = gamma_row(beta, alpha, h, n, 81)
        up = augment_rows(as_generator(82), base, h, beta, beta_up, alpha)
        inc = thin_rows(as_generator(83), up, h, beta_up, beta)[0]
        fresh = np.random.default_rng(84).gamma(h * beta, 1 / alpha, size=n)
        assert stats.ks_2samp(inc, fresh).pvalue > 0.01
        se = math.sqrt(inc.var() / n + fresh.var() / n)
        assert abs(inc.mean() - fresh.mean()) < 3 * se


class TestRowKernels:
    def test_pin_rows_flags_zero_rows(self):
        # a flagged row takes its whole target on its largest entry, the first of a zero row
        raw = np.array([[1.0, 3.0], [0.0, 0.0], [0.0, 2.0]])
        pinned, flagged = pin_rows(raw, np.array([2.0, 5.0, 1.0]))
        assert flagged.tolist() == [False, True, False]
        assert pinned[0].tolist() == [0.5, 1.5]
        assert pinned[1].tolist() == [5.0, 0.0]
        assert pinned[2].tolist() == [0.0, 1.0]

    def test_pin_rows_is_exactly_raw_times_target_over_total(self):
        rng = np.random.default_rng(8)
        raw = rng.gamma(0.05, size=(50, 7))
        raw[3] = 0.0
        raw[4, :3] = 0.0
        raw[5, :2] = [5e-324, 1e-310]
        targets = rng.uniform(0.1, 5.0, size=50)
        before = raw.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # the zero row forms no 0/0
            pinned, flagged = pin_rows(raw, targets)
        live = np.arange(50) != 3
        expected = raw[live] * targets[live, None] / raw[live].sum(axis=1, keepdims=True)
        assert np.array_equal(pinned[live], expected)
        assert pinned[3].tolist() == [targets[3]] + [0.0] * 6
        # zeros stay zeros, and only they
        assert np.array_equal(pinned[live] == 0.0, raw[live] == 0.0)
        assert 0.0 < pinned[5, 0] < pinned[5, 1] < np.finfo(float).tiny
        assert np.flatnonzero(flagged).tolist() == [3]
        assert np.array_equal(raw, before)

    def test_pin_rows_flags_rows_too_small_to_pin(self):
        # raw * target of an all-subnormal row rounds to multiples of 5e-324, so
        # the pinned row would miss its target by about 1e-4 relative; a normal
        # total with a small target has the same subnormal products
        tiny = np.finfo(float).tiny
        raw = np.array([[1e-320, 0.0, 3e-321], [4 * tiny, 0.0, 4 * tiny],
                        [4 * tiny, 0.0, 4 * tiny], [1e-300, 2e-300, 0.0]])
        targets = np.array([2.7, 0.1, 0.2, 2.7])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pinned, flagged = pin_rows(raw, targets)
        assert flagged.tolist() == [True, True, False, False]
        # each flagged row's whole target on its largest entry, the first of a tie
        assert pinned[:2].tolist() == [[2.7, 0.0, 0.0], [0.1, 0.0, 0.0]]
        assert np.all(np.abs(pinned[2:].sum(axis=1) - targets[2:]) <= 1e-15 * targets[2:])

    def test_a_batch_pins_as_its_matrices_one_at_a_time(self):
        # a (k, n, m) batch against (n,) targets: each (n, m) matrix, a flagged
        # row among them, pins to the bits of its own call, and the batch's
        # Gamma draw takes the variates of k (n, m) draws in turn
        def gen():
            return np.random.Generator(np.random.Philox(23))

        targets = np.random.default_rng(4).uniform(0.1, 5.0, size=6)
        raw = gen().gamma(0.05, size=(4, 6, 7))
        raw[2, 3] = 0.0
        raw[1, 5, :2] = [5e-324, 1e-310]
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # the zero row forms no 0/0
            pinned, flagged = pin_rows(raw, targets)
        assert np.flatnonzero(flagged).tolist() == [2 * 6 + 3]
        for batch in range(4):
            alone, alone_flags = pin_rows(raw[batch], targets)
            assert pinned[batch].tobytes() == alone.tobytes()
            assert np.array_equal(flagged[batch], alone_flags)
        assert pinned[2, 3].tolist() == [targets[3]] + [0.0] * 6
        for h in (np.float64(0.3), np.linspace(0.1, 0.5, 6)[:, None]):
            stream = gen()
            one_at_a_time = [bridge_rows(stream, h, targets, (6, 7)) for _ in range(4)]
            batch, batch_flags = bridge_rows(gen(), h, targets, (4, 6, 7))
            assert batch.tobytes() == np.stack([p for p, _ in one_at_a_time]).tobytes()
            assert np.array_equal(batch_flags, np.stack([f for _, f in one_at_a_time]))

    def test_scalar_and_array_parameters_draw_the_same_variates(self):
        def gen():
            return np.random.Generator(np.random.Philox(12))

        size = (30, 6)
        assert np.array_equal(gen().gamma(0.3, size=size), gen().gamma(np.full(size, 0.3)))
        assert np.array_equal(gen().gamma(0.3, scale=0.5, size=size),
                              gen().gamma(np.full(size, 0.3), scale=0.5))
        assert np.array_equal(gen().beta(0.4, 1.7, size=size),
                              gen().beta(np.full(size, 0.4), np.full(size, 1.7)))

    def test_scalar_and_column_parameters_draw_the_same_bits(self):
        # the sampler hands the kernels one scalar shape on a uniform grid,
        # in place of a (rows, 1) column
        def gen():
            return np.random.Generator(np.random.Philox(17))

        shape = np.float64(0.3) * np.float64(0.1)
        column = np.full((25, 1), shape)
        size = (25, 8)
        for scalar_draw, column_draw in (
                (gen().gamma(shape, size=size), gen().gamma(column, size=size)),
                (gen().gamma(shape, scale=0.5, size=size),
                 gen().gamma(column, scale=0.5, size=size)),
                (gen().beta(shape, 2 * shape, size=size),
                 gen().beta(column, 2 * column, size=size))):
            assert scalar_draw.tobytes() == column_draw.tobytes()

    def test_kernels_draw_the_per_entry_variates(self):
        # a scalar span and equal spans give one scalar parameter, distinct
        # spans do not; either way the kernels equal draws from the full
        # per-entry arrays
        def gen():
            return np.random.Generator(np.random.Philox(21))

        inc = np.random.default_rng(9).gamma(0.5, size=(20, 5))
        targets = inc.sum(axis=1)
        for h in (np.float64(0.25), np.full((20, 1), 0.25), np.linspace(0.1, 0.5, 20)[:, None]):
            full = np.broadcast_to(h, inc.shape)
            bridge, flagged = pin_rows(gen().gamma(0.7 * full), targets)
            drawn = bridge_rows(gen(), 0.7 * h, targets, (20, 5))
            assert np.array_equal(drawn[0], bridge) and np.array_equal(drawn[1], flagged)
            up = inc + gen().gamma((1.6 - 1.0) * full, scale=1.0 / 2.0)
            assert np.array_equal(augment_rows(gen(), inc, h, 1.0, 1.6, 2.0), up)
            down = inc * gen().beta(0.4 * full, (1.0 - 0.4) * full)
            assert np.array_equal(thin_rows(gen(), inc, h, 1.0, 0.4), down)

    def test_bridge_rows_is_one_draw_and_one_pin(self):
        class FirstRowZero:
            """Real Gamma draws, except that row 1 is all zeros."""

            def __init__(self):
                self.rng = np.random.default_rng(5)
                self.draws = []

            def gamma(self, shape, size):
                out = self.rng.gamma(shape, size=size)
                out[1] = 0.0
                self.draws.append(out.copy())
                return out

        rng = FirstRowZero()
        targets = np.array([1.0, 2.0, 3.0])
        pinned, flagged = bridge_rows(rng, np.full((3, 4), 0.5), targets, (3, 4))
        assert [d.shape for d in rng.draws] == [(3, 4)]
        expected, expected_flags = pin_rows(rng.draws[0], targets)
        assert np.array_equal(pinned, expected) and np.array_equal(flagged, expected_flags)
        assert flagged.tolist() == [False, True, False]
        assert pinned[1].tolist() == [2.0, 0.0, 0.0, 0.0]

    def test_sample_gamma_bridge_raises_on_an_unpinnable_draw(self):
        # Gamma shape 1e-6: every draw underflows to 0, and the one-row view
        # raises at once rather than drawing again
        grid = TimeGrid([0.0, 1.0], m=2)
        assert not as_generator(0).gamma(0.5e-6, size=2).any()
        with pytest.raises(DegeneratePathError):
            sample_gamma_bridge(1e-6, 1.0, grid, 1.0, 0)

    def test_path_functions_are_one_row_views(self):
        grid = TimeGrid([0.0, 1.0, 3.0], m=4)
        h = np.repeat(grid.spans / grid.m, grid.m)
        inc = as_generator(3).gamma(1.5 * h, 0.5)
        row = inc[None, :]
        up = augment_rows(as_generator(4), row, h, 1.5, 2.5, 2.0)
        assert np.array_equal(augment_path(inc, grid, 1.5, 2.5, 2.0, 4), up[0])
        down = thin_rows(as_generator(5), row, h, 1.5, 0.5)
        assert np.array_equal(thin_path(inc, grid, 1.5, 0.5, 5), down[0])
        bridge, _ = bridge_rows(as_generator(6), 1.5 * h[None, :], np.array([2.0]), (1, h.size))
        assert np.array_equal(sample_gamma_bridge(1.5, 2.0, grid, 2.0, 6), bridge[0])
        pinned, _ = pin_rows(row, np.array([2.0]))
        assert np.array_equal(gamma_bridge(inc, 2.0), pinned[0])

    def test_path_functions_check_their_increments(self):
        grid = TimeGrid([0.0, 1.0], m=3)
        for bad in (np.ones((1, 3)), [0.5, math.nan, 0.5], [0.5, -0.1, 0.5],
                    [0.5, math.inf, 0.5]):
            with pytest.raises(DomainError):
                gamma_bridge(bad, 1.0)
            with pytest.raises(DomainError):
                augment_path(bad, grid, 1.0, 2.0, 1.0, 0)
            with pytest.raises(DomainError):
                thin_path(bad, grid, 2.0, 1.0, 0)
        for wrong_length in ([0.5, 0.5], np.ones(4)):
            with pytest.raises(DomainError):
                augment_path(wrong_length, grid, 1.0, 2.0, 1.0, 0)
            with pytest.raises(DomainError):
                thin_path(wrong_length, grid, 2.0, 1.0, 0)
