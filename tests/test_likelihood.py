"""Bin statistics and the closed-form log-likelihood ratios."""

import math
from typing import NamedTuple

import numpy as np
import pytest
from scipy import integrate

from gammasub import (
    ContractError,
    ModelParams,
    ParamTerms,
    TimeGrid,
    levy_density,
    loglik_ratio_params,
    loglik_ratio_path,
    psi_log,
    sample_gamma_bridge,
)
from gammasub.likelihood import (_row_offsets, bin_stats_matrix, compensator_diff,
                                 endpoint_tolerance)
from gammasub.model import bin_classify, reference_units


def searchsorted_stats(increments, bin_edges):
    """Reference bin statistics: searchsorted indices, then bincount."""
    rows, k = increments.shape[0], bin_edges.size + 1
    flat = np.searchsorted(bin_edges, increments, side="right") + (np.arange(rows) * k)[:, None]
    counts = np.bincount(flat.ravel(), minlength=rows * k).reshape(rows, k)
    sums = np.bincount(flat.ravel(), weights=increments.ravel(),
                       minlength=rows * k).reshape(rows, k)
    return sums, counts


def loop_classify(increments, bin_edges):
    """Reference bin indices: one comparison pass per edge, counting the edges
    at or below each increment."""
    idx = np.zeros(increments.shape, dtype=np.intp)
    for edge in bin_edges:
        idx += increments >= edge
    return idx


def model(alpha=1.0, beta=1.0, edges=(1.0,), slopes=(0.0,), intercepts=(0.0,)):
    return ModelParams(alpha, beta, edges, slopes, intercepts)


def theta(params):
    """The slopes and intercepts as float tuples, as the path ratio takes them."""
    return params.theta_slopes, params.theta_intercepts


class Totals(NamedTuple):
    """Per-bin sums and counts S_0..S_N and C_0..C_N as arrays, and the horizon T."""

    sums: np.ndarray
    counts: np.ndarray
    horizon: float


def totals(sums, counts, horizon):
    return Totals(np.asarray(sums, dtype=float), np.asarray(counts, dtype=np.int64),
                  float(horizon))


def param_ratio(s, old, new):
    """loglik_ratio_params at the totals s, from old to new, two ModelParams."""
    return loglik_ratio_params(s.sums.tolist(), s.counts.tolist(), s.horizon,
                               ParamTerms.of(old), ParamTerms.of(new))


def psi(s, params):
    """psi_log at the totals s and the ModelParams params."""
    terms = ParamTerms.of(params)
    return psi_log(s.sums.tolist(), s.counts.tolist(), s.horizon, terms,
                   reference_units(terms.alpha, terms.edges, terms.e1_b1))


def path_ratio(sums_new, counts_new, sums_old, counts_old, slopes, intercepts, *tolerance):
    """loglik_ratio_path of the paths with these sums and counts, stacked into
    its [S_0..S_N | C_0..C_N] rows."""
    return loglik_ratio_path(np.concatenate((sums_new, counts_new), axis=-1),
                             np.concatenate((sums_old, counts_old), axis=-1),
                             slopes, intercepts, *tolerance)


class TestBinStats:
    def test_single_increment_classification(self):
        p = ModelParams(1.0, 1.0, [1.0, 2.0, 4.0], [0.0] * 3, [0.0] * 3)
        sums, counts = bin_stats_matrix(np.array([[1.5]]), p.bin_edges)
        assert sums[0] == pytest.approx([0.0, 1.5, 0.0, 0.0])
        assert list(counts[0]) == [0, 1, 0, 0]

    def test_edge_goes_right(self):
        p = ModelParams(1.0, 1.0, [1.0, 2.0], [0.0] * 2, [0.0] * 2)
        sums, counts = bin_stats_matrix(np.array([[1.0, 2.0, 0.5]]), p.bin_edges)
        assert list(counts[0]) == [1, 1, 1]
        assert sums[0] == pytest.approx([0.5, 1.0, 2.0])

    def test_zero_increments_land_in_first_bin(self):
        p = model()
        sums, counts = bin_stats_matrix(np.zeros((1, 5)), p.bin_edges)
        assert counts[0][0] == 5
        assert sums[0].sum() == 0.0

    def test_partition_of_total(self):
        p = ModelParams(1.0, 5.0, [0.1, 0.5], [0.0] * 2, [0.0] * 2)
        inc = np.random.default_rng(13).gamma(5.0 * 0.05, size=(3, 40))
        sums, counts = bin_stats_matrix(inc, p.bin_edges)
        assert sums.sum(axis=1) == pytest.approx(inc.sum(axis=1), rel=1e-12)
        assert counts.sum(axis=1).tolist() == [40] * 3

    def test_matrix_equals_searchsorted_reference(self):
        # counting the edges at or below each value, by search or by one pass
        # per edge, gives the same indices, and the sums accumulate in the
        # same order: equal bit for bit
        edges = np.array([1e-310, 0.5, 1.0, 2.0])
        inc = np.random.default_rng(17).gamma(0.3, size=(40, 9))
        inc[0, :5] = [1e-310, 0.5, 1.0, 2.0, 0.5]                   # exactly on the edges
        inc[1, :4] = 0.0
        inc[2, :4] = [5e-324, 5e-311, np.nextafter(1e-310, 0), np.finfo(float).tiny]
        inc[3, :2] = [np.nextafter(0.5, 0), np.nextafter(2.0, 3)]
        for bin_edges in (edges, edges[1:], edges[2:3], np.empty(0)):
            assert np.array_equal(bin_classify(inc, bin_edges), loop_classify(inc, bin_edges))
            assert np.array_equal(bin_classify(inc, tuple(bin_edges.tolist())),
                                  loop_classify(inc, bin_edges))
            sums, counts = bin_stats_matrix(inc, bin_edges)
            ref_sums, ref_counts = searchsorted_stats(inc, bin_edges)
            assert np.array_equal(sums, ref_sums)
            assert np.array_equal(counts, ref_counts)
        binless_sums, binless_counts = bin_stats_matrix(inc, np.empty(0))
        assert binless_counts.tolist() == [[9]] * 40

    def test_cached_row_offsets_match_a_per_row_bincount(self):
        # the row offsets come from a cache keyed by (rows, k): row counts that
        # change between calls, and come back, give each row its own bincount
        # bit for bit, with the edges as a tuple, a list or a float64 array
        edges = (0.5, 1.0, 2.0)
        k = len(edges) + 1
        rng = np.random.default_rng(29)
        for form in (tuple, list, lambda e: np.array(e, dtype=np.float64)):
            bin_edges = form(edges)
            for rows in (0, 1, 15, 30, 408, 15):
                inc = rng.gamma(0.3, size=(rows, 10))
                inc[:, :3] = edges                                 # exactly on the edges
                sums, counts = bin_stats_matrix(inc, bin_edges)
                assert sums.shape == counts.shape == (rows, k)
                for row, row_sums, row_counts in zip(inc, sums, counts):
                    idx = loop_classify(row, edges)
                    assert row_counts.tobytes() == np.bincount(idx, minlength=k).tobytes()
                    assert row_sums.tobytes() == np.bincount(idx, weights=row,
                                                             minlength=k).tobytes()
                offsets = _row_offsets(rows, k)
                assert offsets is _row_offsets(rows, k)
                assert offsets.ravel().tolist() == list(range(0, rows * k, k))
                with pytest.raises(ValueError, match="read-only"):
                    offsets[...] = 0


class TestLoglikRatioParams:
    def stats(self):
        return totals([2.0, 1.5, 0.7], [10, 3, 1], 2.0)

    def test_identical_params_give_zero(self):
        p = model(edges=(1.0, 2.0), slopes=(0.1, 0.2), intercepts=(0.0, -0.1))
        assert param_ratio(self.stats(), p, p) == 0.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(17)
        s = self.stats()
        for _ in range(25):
            a = model(alpha=rng.uniform(0.5, 2), edges=(1.0, 2.0),
                      slopes=rng.normal(0, 0.3, 2), intercepts=rng.normal(0, 0.3, 2))
            b = model(alpha=rng.uniform(0.5, 2), edges=(1.0, 2.0),
                      slopes=rng.normal(0, 0.3, 2), intercepts=rng.normal(0, 0.3, 2))
            lab = param_ratio(s, a, b)
            lba = param_ratio(s, b, a)
            assert lab == pytest.approx(-lba, rel=1e-12, abs=1e-12)

    def test_chain_rule(self):
        rng = np.random.default_rng(18)
        s = self.stats()
        for _ in range(25):
            ps = [model(alpha=rng.uniform(0.5, 2), edges=(1.0, 2.0),
                        slopes=rng.normal(0, 0.3, 2), intercepts=rng.normal(0, 0.3, 2))
                  for _ in range(3)]
            ab = param_ratio(s, ps[0], ps[1])
            bc = param_ratio(s, ps[1], ps[2])
            ac = param_ratio(s, ps[0], ps[2])
            assert ab + bc == pytest.approx(ac, abs=1e-10)

    def test_hand_case_term_by_term(self):
        # T=1, beta=1, one edge at 1, single increment of 1.5;
        # old (alpha=1, slope=0, rho=0) -> new (alpha=1, slope=0.2, rho=0.1)
        stats = totals([0.0, 1.5], [0, 1], 1.0)
        old = model(slopes=(0.0,), intercepts=(0.0,))
        new = model(slopes=(0.2,), intercepts=(0.1,))
        # compensator difference on the tail bin by quadrature
        mass_new, _ = integrate.quad(lambda x: levy_density(new, x), 1.0, np.inf,
                                     epsabs=0, epsrel=1e-12, limit=300)
        mass_old, _ = integrate.quad(lambda x: levy_density(old, x), 1.0, np.inf,
                                     epsabs=0, epsrel=1e-12, limit=300)
        expected = -0.2 * 1.5 - 0.1 * 1 - 1.0 * (mass_new - mass_old)
        got = param_ratio(stats, old, new)
        assert got == pytest.approx(expected, rel=1e-9)
        # frozen value of the bin-mass difference: e^{-0.1} E1(1.2) - E1(1)
        assert (mass_new - mass_old) == pytest.approx(-0.07605005339973053, rel=1e-9)

    def test_binless_model_matches_conjugate_form(self):
        # with no bins the ratio is -(a°-a)*S + T*beta*ln(a°/a)
        s = totals([4.2], [12], 3.0)
        old = ModelParams(1.0, 2.0)
        new = ModelParams(1.7, 2.0)
        expected = -(1.7 - 1.0) * 4.2 + 3.0 * 2.0 * math.log(1.7 / 1.0)
        assert param_ratio(s, old, new) == pytest.approx(expected, rel=1e-12)

    def test_multi_bin_move_matches_quadrature(self):
        # alpha, every slope and every intercept change at once.  The expected
        # ratio is the sum over increments of the log jump-density ratio, less
        # T times the compensator, which quadrature of levy_density gives bin by
        # bin over B_0 ... B_N.
        edges = (0.5, 1.2, 2.5)
        old = model(alpha=1.1, beta=1.7, edges=edges, slopes=(0.3, -0.4, 0.2),
                    intercepts=(0.1, -0.3, 0.5))
        new = model(alpha=1.45, beta=1.7, edges=edges, slopes=(-0.2, -0.9, 0.05),
                    intercepts=(-0.4, 0.2, 0.1))
        increments = np.random.default_rng(41).gamma(0.4, 2.0, size=(1, 60))
        sums, counts = bin_stats_matrix(increments, old.bin_edges)
        assert (counts[0] > 0).all()
        T = 3.0
        stats = totals(sums[0], counts[0], T)

        def diff(x):
            return levy_density(new, x) - levy_density(old, x)

        bounds = (0.0,) + edges + (np.inf,)
        comp = sum(integrate.quad(diff, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=400)[0]
                   for lo, hi in zip(bounds[:-1], bounds[1:]))
        jumps = np.sum(np.log(levy_density(new, increments[0]))
                       - np.log(levy_density(old, increments[0])))
        assert compensator_diff(ParamTerms.of(old), ParamTerms.of(new)) == pytest.approx(
            comp, rel=1e-9)
        assert param_ratio(stats, old, new) == pytest.approx(jumps - T * comp, rel=1e-9)
        # the bin masses alone, B_1 ... B_N
        for k in range(1, new.n_bins + 1):
            ref, _ = integrate.quad(lambda x: levy_density(new, x), bounds[k],
                                    bounds[k + 1], epsabs=0, epsrel=1e-12, limit=400)
            assert ParamTerms.of(new).masses[k - 1] == pytest.approx(ref, rel=1e-9)


class TestLoglikRatioPath:
    def test_identical_stats_give_zero(self):
        p = model(slopes=(0.3,), intercepts=(0.2,))
        s = totals([1.0, 2.0], [5, 2], 1.0)
        assert path_ratio(s.sums, s.counts, s.sums, s.counts, *theta(p)) == 0.0

    def test_gamma_model_always_zero(self):
        p = model(slopes=(0.0,), intercepts=(0.0,))
        s1 = totals([1.0, 2.0], [5, 2], 1.0)
        s2 = totals([2.0, 1.0], [4, 3], 1.0)
        assert path_ratio(s2.sums, s2.counts, s1.sums, s1.counts, *theta(p)) == 0.0

    def test_alpha_irrelevant(self):
        # the ratio takes no alpha: psi's differences at two alphas both equal it
        s1 = totals([1.0, 2.0], [5, 2], 1.0)
        s2 = totals([2.2, 0.8], [4, 3], 1.0)
        value = path_ratio(s2.sums, s2.counts, s1.sums, s1.counts, (0.3,), (0.1,))
        for alpha in (0.5, 5.0):
            p = model(alpha=alpha, slopes=(0.3,), intercepts=(0.1,))
            assert psi(s2, p) - psi(s1, p) == pytest.approx(value, rel=1e-12)

    def test_endpoint_mismatch_rejected(self):
        p = model(slopes=(0.3,), intercepts=(0.2,))
        s1 = totals([1.0, 2.0], [5, 2], 1.0)
        s2 = totals([1.0, 2.1], [5, 2], 1.0)
        with pytest.raises(ContractError):
            path_ratio(s2.sums, s2.counts, s1.sums, s1.counts, *theta(p))

    def test_literal_formula(self):
        p = model(edges=(1.0, 2.0), slopes=(0.3, -0.1), intercepts=(0.2, 0.4))
        s1 = totals([1.0, 2.0, 1.0], [5, 2, 1], 1.0)
        s2 = totals([1.3, 1.2, 1.5], [6, 1, 1], 1.0)
        expected = -(0.3 * (1.2 - 2.0) + (-0.1) * (1.5 - 1.0)
                     + 0.2 * (1 - 2) + 0.4 * (1 - 1))
        assert path_ratio(s2.sums, s2.counts, s1.sums, s1.counts,
                          *theta(p)) == pytest.approx(expected, rel=1e-12)

    def test_intercepts_drop_out_when_counts_match(self):
        # with matching per-bin counts the value is independent of the
        # intercepts, and shifting every slope by c moves it by exactly
        # -c * (per-bin sum differences); the literal formula, nothing more
        s1 = totals([1.0, 2.0, 1.0], [5, 2, 1], 1.0)
        s2 = totals([1.4, 1.2, 1.4], [5, 2, 1], 1.0)
        base = model(edges=(1.0, 2.0), slopes=(0.3, -0.1), intercepts=(0.2, 0.4))
        shifted_rho = model(edges=(1.0, 2.0), slopes=(0.3, -0.1), intercepts=(-5.0, 9.9))
        assert (path_ratio(s2.sums, s2.counts, s1.sums, s1.counts, *theta(base))
                == path_ratio(s2.sums, s2.counts, s1.sums, s1.counts, *theta(shifted_rho)))
        c = 0.7
        shifted_theta = model(edges=(1.0, 2.0), slopes=(0.3 + c, -0.1 + c),
                              intercepts=(0.2, 0.4))
        drift = -c * ((1.2 - 2.0) + (1.4 - 1.0))
        assert path_ratio(
            s2.sums, s2.counts, s1.sums, s1.counts, *theta(shifted_theta)) == pytest.approx(
            path_ratio(s2.sums, s2.counts, s1.sums, s1.counts, *theta(base)) + drift,
            rel=1e-12)

    def test_rows_match_one_row_calls(self):
        p = model(edges=(1.0, 2.0), slopes=(0.3, -0.1), intercepts=(0.2, 0.4))
        old_s = np.array([[1.0, 2.0, 1.0], [0.5, 0.5, 3.0]])
        old_c = np.array([[5, 2, 1], [3, 1, 1]])
        new_s = np.array([[1.3, 1.2, 1.5], [2.0, 1.5, 0.5]])
        new_c = np.array([[6, 1, 1], [4, 2, 0]])
        rows = path_ratio(new_s, new_c, old_s, old_c, *theta(p))
        assert rows.shape == (2,)
        for i in range(2):
            assert rows[i] == path_ratio(new_s[i], new_c[i], old_s[i], old_c[i], *theta(p))
        binless = path_ratio(new_s[:, :1], new_c[:, :1], new_s[:, :1], new_c[:, :1],
                             (), ())
        assert np.array_equal(binless, np.zeros(2))

    @pytest.mark.parametrize("n_bins", [1, 2, 3, 6])
    def test_a_rows_value_does_not_depend_on_the_other_rows(self, n_bins):
        # the refresh scores blocks of any size, and a row's accept decision
        # must not change with it: every row of every block, bit for bit its
        # one-row value (a matrix-vector product misses this in about a fifth
        # of the rows already at two bins)
        rng = np.random.default_rng(n_bins)
        for rows in range(1, 41):
            old = rng.gamma(1.0, 2.0, size=(rows, 2 * n_bins + 2))
            new = old + rng.normal(size=old.shape)
            new[:, :n_bins + 1] += (old - new)[:, :n_bins + 1].mean(axis=1, keepdims=True)
            slopes, intercepts = tuple(rng.normal(size=n_bins)), tuple(rng.normal(size=n_bins))
            values = loglik_ratio_path(new, old, slopes, intercepts, np.full(rows, 1e-6))
            for i in range(rows):
                assert values[i] == loglik_ratio_path(new[i], old[i], slopes, intercepts, 1e-6)

    def test_one_mismatched_row_rejected_at_1e9(self):
        p = model(slopes=(0.3,), intercepts=(0.2,))
        old_s = np.array([[1.0, 3.0], [2.0, 2.0]])
        counts = np.array([[5, 2], [4, 3]])
        within = old_s + np.array([[0.0, 0.0], [0.0, 4e-10]])
        assert path_ratio(within, counts, old_s, counts, *theta(p)).shape == (2,)
        beyond = old_s + np.array([[0.0, 0.0], [0.0, 4e-8]])
        with pytest.raises(ContractError):
            path_ratio(beyond, counts, old_s, counts, *theta(p))


    def test_nan_row_total_rejected(self):
        # NaN compares False against the tolerance; it must still count as a mismatch
        p = model(slopes=(0.3,), intercepts=(0.2,))
        sums = np.array([[1.0, 3.0], [2.0, 2.0]])
        counts = np.array([[5, 2], [4, 3]])
        nan_row = sums.copy()
        nan_row[1, 0] = np.nan
        with pytest.raises(ContractError):
            path_ratio(nan_row, counts, sums, counts, *theta(p))
        with pytest.raises(ContractError):
            path_ratio(sums, counts, nan_row, counts, *theta(p))
        with pytest.raises(ContractError):
            path_ratio(nan_row[:, :1], counts[:, :1], sums[:, :1], counts[:, :1],
                       (), ())

    def test_given_tolerance_bounds_each_row(self):
        # a caller with known endpoints passes their tolerance instead
        p = model(slopes=(0.3,), intercepts=(0.2,))
        old_s = np.array([[1.0, 3.0], [2.0, 2.0]])
        counts = np.array([[5, 2], [4, 3]])
        shifted = old_s + np.array([[0.0, 0.0], [0.0, 4e-8]])
        with pytest.raises(ContractError, match=r"differ in 1 row\(s\)"):
            path_ratio(shifted, counts, old_s, counts, *theta(p),
                       endpoint_tolerance(np.array([4.0, 4.0])))
        assert path_ratio(shifted, counts, old_s, counts, *theta(p),
                          np.array([0.0, 1e-7])).shape == (2,)

    def test_nan_increment_ends_in_the_endpoint_check(self):
        # searchsorted sorts a NaN increment above every edge, into the last
        # bin; its row's sums and total are NaN, which the check rejects
        edges = np.array([1.0, 2.0])
        old = np.array([[0.5, 1.5, 2.5], [0.2, 0.3, 0.4]])
        new = old.copy()
        new[1, 1] = np.nan
        assert bin_classify(new, edges)[1].tolist() == [0, 2, 0]
        s_old, c_old = bin_stats_matrix(old, edges)
        s_new, c_new = bin_stats_matrix(new, edges)
        with pytest.raises(ContractError, match=r"differ in 1 row\(s\)"):
            path_ratio(s_new, c_new, s_old, c_old, np.array([0.3, 0.1]),
                       np.array([0.2, 0.0]))


class TestPsiLog:
    def test_gamma_model_is_zero(self):
        p = model(slopes=(0.0,), intercepts=(0.0,))
        s = totals([1.0, 2.0], [5, 2], 1.0)
        assert psi(s, p) == 0.0

    def test_difference_equals_path_ratio(self):
        p = model(edges=(1.0, 2.0), slopes=(0.3, -0.1), intercepts=(0.2, 0.4))
        s1 = totals([1.0, 2.0, 1.0], [5, 2, 1], 1.0)
        s2 = totals([1.3, 1.2, 1.5], [6, 1, 1], 1.0)
        assert psi(s2, p) - psi(s1, p) == pytest.approx(
            path_ratio(s2.sums, s2.counts, s1.sums, s1.counts, *theta(p)), rel=1e-12)

    def test_single_bin_term_by_term(self):
        p = model(alpha=1.0, beta=1.0, slopes=(0.2,), intercepts=(0.1,))
        s = totals([0.7, 1.5], [3, 1], 2.0)
        mass_p, _ = integrate.quad(lambda x: levy_density(p, x), 1.0, np.inf,
                                   epsabs=0, epsrel=1e-12, limit=300)
        ref = model(alpha=1.0, beta=1.0, slopes=(0.0,), intercepts=(0.0,))
        mass_ref, _ = integrate.quad(lambda x: levy_density(ref, x), 1.0, np.inf,
                                     epsabs=0, epsrel=1e-12, limit=300)
        expected = -0.2 * 1.5 - 0.1 * 1 - 2.0 * (mass_p - mass_ref)
        assert psi(s, p) == pytest.approx(expected, rel=1e-9)

    def test_unit_expectation_monte_carlo(self):
        # E[exp(psi)] = 1 under the Gamma reference.  The increment-level
        # discretization carries an O(h) artifact whose slope and intercept
        # contributions enter with opposite signs; this instance sits where
        # the artifact is far below Monte Carlo resolution, so the check
        # targets the formula itself.
        p = model(alpha=1.0, beta=1.0, edges=(1.5,), slopes=(0.1,), intercepts=(-0.24,))
        T, m, reps = 1.0, 20, 50_000
        rng = np.random.default_rng(2024)
        inc = rng.gamma(shape=1.0 * T / m, scale=1.0, size=(reps, m))
        sums, counts = bin_stats_matrix(inc, p.bin_edges)
        comp = psi(totals([1.0, 0.0], [1, 0], T), p)  # pure compensator row
        vals = np.exp(-(sums[:, 1] * 0.1 + counts[:, 1] * (-0.24)) + comp)
        se = vals.std() / math.sqrt(reps)
        assert abs(vals.mean() - 1.0) < 3 * se

    def test_unit_expectation_generic_instance_approximate(self):
        # a generic perturbation shows the identity only up to the known
        # O(h) discretization bias (about -2e-3 here)
        p = model(alpha=1.0, beta=1.0, edges=(1.5,), slopes=(0.1,), intercepts=(0.1,))
        T, m, reps = 1.0, 20, 50_000
        rng = np.random.default_rng(77)
        inc = rng.gamma(shape=1.0 * T / m, scale=1.0, size=(reps, m))
        sums, counts = bin_stats_matrix(inc, p.bin_edges)
        comp = psi(totals([1.0, 0.0], [1, 0], T), p)
        vals = np.exp(-(sums[:, 1] * 0.1 + counts[:, 1] * 0.1) + comp)
        assert abs(vals.mean() - 1.0) < 5e-3


class TestBridgePathRatioIntegration:
    def test_two_bridges_share_endpoints(self):
        grid = TimeGrid([0.0, 1.0], m=25)
        p = model(alpha=1.0, beta=2.0, slopes=(0.4,), intercepts=(-0.2,))
        b1 = sample_gamma_bridge(2.0, 1.0, grid, 3.0, 101)
        b2 = sample_gamma_bridge(2.0, 1.0, grid, 3.0, 102)
        sums, counts = bin_stats_matrix(np.stack([b1, b2]), p.bin_edges)
        s1 = totals(sums[0], counts[0], grid.horizon)
        s2 = totals(sums[1], counts[1], grid.horizon)
        val = path_ratio(s2.sums, s2.counts, s1.sums, s1.counts, *theta(p))
        assert math.isfinite(val)
        assert val == pytest.approx(psi(s2, p) - psi(s1, p), rel=1e-10, abs=1e-12)
