"""Chain post-processing: running averages, credible bands, histograms, CSV tables."""

import io
import math
import re
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from gammasub import BandSpec, DomainError, ModelParams, credible_band, histogram, running_average
from gammasub.diagnostics import FUNCTIONALS, _quantile_pair, write_series_csv

FLOAT_MAX = sys.float_info.max


def full_matrix_band(samples, spec):
    """The band's quantiles along the samples of the whole (S, G) matrix of
    functional values, theta from each sample's bin at each grid point."""
    x = spec.x_grid
    k = np.searchsorted(samples[0].bin_edges, x, side="right")
    slopes = np.array([np.concatenate(([0.0], p.theta_slopes)) for p in samples])
    intercepts = np.array([np.concatenate(([0.0], p.theta_intercepts)) for p in samples])
    values = intercepts[:, k] + slopes[:, k] * x
    values += np.array([p.alpha for p in samples])[:, None] * x
    if spec.functional == "neg_log_levy_x":
        values -= np.array([math.log(p.beta) for p in samples])[:, None]
    tail = (1.0 - spec.level) / 2.0
    return np.quantile(values, tail, axis=0), np.quantile(values, 1.0 - tail, axis=0)


def functional(p, spec):
    """The band functional of one sample: the band of two copies of it."""
    lo, hi = credible_band([p, p], spec)
    assert np.array_equal(lo, hi)
    return lo


class TestRunningAverage:
    def test_constant_series(self):
        assert running_average([3.0] * 5) == pytest.approx([3.0] * 5)

    def test_two_values(self):
        assert running_average([0.0, 1.0]) == pytest.approx([0.0, 0.5])

    def test_final_value_is_mean(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=1000)
        avg = running_average(x)
        assert avg[-1] == pytest.approx(x.mean(), rel=1e-12)

    def test_empty_errors(self):
        with pytest.raises(DomainError):
            running_average([])

    @pytest.mark.parametrize("series", [[1e308, 1e308], [FLOAT_MAX] * 3,
                                        [1.7e308, 1.7e308, -1.7e308, 1e308]],
                             ids=["two 1e308", "three max", "mixed signs"])
    def test_sums_past_the_float_range_are_refused(self, series):
        # a running sum overflows: refused with no warning, not widened or scaled
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="running sum of the series is inf"):
                running_average(series)

    def test_finite_sums_keep_their_quotients(self):
        x = np.random.default_rng(6).normal(size=500) * 1e300
        expected = np.cumsum(x) / np.arange(1, x.size + 1)
        assert running_average(x).tobytes() == expected.tobytes()


class TestBandSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            BandSpec(x_grid=[1.0, 0.5])
        for grid in ([0.5, math.nan], [math.nan], [0.5, math.inf], [-math.inf, 1.0]):
            with pytest.raises(DomainError):
                BandSpec(x_grid=grid)
        with pytest.raises(DomainError):
            BandSpec(x_grid=[0.5, 1.0], level=1.0)
        with pytest.raises(DomainError):
            BandSpec(x_grid=[0.5, 1.0], functional="volatility")


class TestCredibleBand:
    def samples(self, alphas):
        return [ModelParams(a, 1.0, [1.0], [0.1], [0.2]) for a in alphas]

    def test_identical_samples_collapse(self):
        spec = BandSpec(x_grid=np.linspace(0.5, 3.0, 7))
        lo, hi = credible_band(self.samples([1.3, 1.3]), spec)
        assert lo == pytest.approx(hi)

    def test_extreme_level_spans_both_samples(self):
        spec = BandSpec(x_grid=np.array([2.0]), level=0.9999)
        lo, hi = credible_band(self.samples([1.0, 2.0]), spec)
        f1 = functional(self.samples([1.0])[0], spec)[0]
        f2 = functional(self.samples([2.0])[0], spec)[0]
        assert lo[0] == pytest.approx(f1, rel=1e-3)
        assert hi[0] == pytest.approx(f2, rel=1e-3)

    def test_gamma_family_reduces_to_alpha_quantiles(self):
        # with theta = 0 the band of theta(x)+alpha*x is x * (alpha quantiles)
        rng = np.random.default_rng(8)
        alphas = rng.uniform(0.5, 2.5, size=500)
        samples = [ModelParams(a, 1.0) for a in alphas]
        grid = np.array([0.5, 1.0, 2.0])
        spec = BandSpec(x_grid=grid, level=0.9, functional="theta_plus_alpha_x")
        lo, hi = credible_band(samples, spec)
        qlo, qhi = np.quantile(alphas, [0.05, 0.95])
        assert lo == pytest.approx(grid * qlo, rel=1e-12)
        assert hi == pytest.approx(grid * qhi, rel=1e-12)

    def test_ordering_pointwise(self):
        rng = np.random.default_rng(9)
        samples = [ModelParams(rng.uniform(0.5, 2), 1.0, [1.0],
                               [rng.normal(0, 0.2)], [rng.normal(0, 0.2)])
                   for _ in range(100)]
        spec = BandSpec(x_grid=np.linspace(0.2, 5, 25), level=0.95)
        lo, hi = credible_band(samples, spec)
        assert np.all(lo <= hi)

    def test_neg_log_levy_functional(self):
        p = ModelParams(1.5, 2.0, [1.0], [0.3], [-0.2])
        spec = BandSpec(x_grid=np.array([0.5, 2.0]), functional="neg_log_levy_x")
        vals = functional(p, spec)
        from gammasub import levy_density
        expected = [-math.log(x * levy_density(p, x)) for x in (0.5, 2.0)]
        assert vals == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("functional", ["theta_plus_alpha_x", "neg_log_levy_x"])
    @pytest.mark.parametrize("level", [0.5, 0.9, 0.95])
    @pytest.mark.parametrize("n_samples", [400, 401])
    def test_matches_the_full_matrix_bit_for_bit(self, functional, level, n_samples):
        rng = np.random.default_rng(n_samples)
        edges = [1.0, 2.0, 4.0]
        samples = [ModelParams(rng.uniform(0.5, 3.0), rng.uniform(0.1, 5.0), edges,
                               rng.normal(0, 1, 3), rng.normal(0, 1, 3))
                   for _ in range(n_samples)]
        # points in B_0, on every edge and between them
        grid = np.unique(np.concatenate((np.linspace(0.1, 6.0, 37), edges)))
        spec = BandSpec(x_grid=grid, level=level, functional=functional)
        lo, hi = credible_band(samples, spec)
        expected = full_matrix_band(samples, spec)
        assert lo.tobytes() == expected[0].tobytes()
        assert hi.tobytes() == expected[1].tobytes()

    def test_working_memory_is_linear_in_the_samples(self):
        # the full (S, G) matrix of 20,000 samples on 200 points is 32 MB
        rng = np.random.default_rng(4)
        edges = ModelParams(1.0, 1.0, [1.0], [0.0], [0.0]).bin_edges
        samples = [ModelParams(a, b, edges, [s], [r]) for a, b, s, r in
                   zip(rng.uniform(0.5, 3.0, 20_000), rng.uniform(0.1, 5.0, 20_000),
                       rng.normal(size=20_000), rng.normal(size=20_000))]
        for functional in FUNCTIONALS:
            spec = BandSpec(x_grid=np.linspace(0.1, 5.0, 200), functional=functional)
            credible_band(samples[:2], spec)    # one-time imports stay out of the traced peak
            tracemalloc.start()
            try:
                credible_band(samples, spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2_000_000, functional

    @pytest.mark.parametrize("functional", FUNCTIONALS)
    def test_a_band_past_the_float_range_names_its_first_point(self, functional):
        # alpha * x overflows from x = 1.2 on, where the edges would be NaN
        spec = BandSpec(x_grid=np.array([0.5, 1.0, 1.2, 3.0]), functional=functional)
        samples = [ModelParams(a, 1.0) for a in np.linspace(1.5e308, 1.7e308, 5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=re.escape(f"at x = 1.2 are (nan, nan): its "
                                                            f"{functional} values overflow")):
                credible_band(samples, spec)
            lo, hi = credible_band(samples, BandSpec(x_grid=spec.x_grid[:2],
                                                     functional=functional))
        assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))

    def test_samples_must_share_edges(self):
        spec = BandSpec(x_grid=np.array([1.0]))
        for other in (ModelParams(1.0, 1.0, [2.0], [0.1], [0.2]), ModelParams(1.0, 1.0)):
            with pytest.raises(DomainError):
                credible_band(self.samples([1.0, 2.0]) + [other], spec)

    def test_needs_two_samples(self):
        spec = BandSpec(x_grid=np.array([1.0]))
        with pytest.raises(DomainError):
            credible_band(self.samples([1.0]), spec)


class TestQuantilePair:
    LEVELS = (0.5, 0.9, 0.95, 0.99, 0.999)

    def check(self, x, level):
        tail = (1.0 - level) / 2.0
        expected = np.quantile(x, [tail, 1.0 - tail])
        values = x.copy()
        got = np.array(_quantile_pair(values, tail))
        assert got.tobytes() == expected.tobytes(), (x.size, level)
        assert np.array_equal(np.sort(values), np.sort(x))   # partitioned in place

    @pytest.mark.parametrize("level", LEVELS)
    def test_equals_np_quantile_bit_for_bit(self, level):
        rng = np.random.default_rng(int(level * 1000))
        for _ in range(300):
            n = int(rng.integers(2, 501))
            x = rng.normal(size=n)
            if rng.random() < 0.5:              # ties
                x = np.round(4.0 * x) / 4.0
            self.check(x, level)

    @pytest.mark.parametrize("level", LEVELS)
    def test_equals_np_quantile_where_the_rank_is_an_integer(self, level):
        # (n - 1) * tail is an integer in exact arithmetic; in floats it may
        # land a rounding below it, and the weight next to 1
        rng = np.random.default_rng(7)
        period = ((1 - Fraction(str(level))) / 2).denominator
        for n in (1 + k * period for k in range(1, 6)):
            self.check(rng.gamma(0.5, size=n), level)
            self.check(np.round(rng.gamma(0.5, size=n), 1), level)

    def test_two_values_and_a_nan(self):
        assert _quantile_pair(np.array([2.0, 1.0]), 0.25) == (1.25, 1.75)
        assert all(math.isnan(q) for q in _quantile_pair(np.array([1.0, math.nan, 0.0]), 0.1))


class TestHistogram:
    def test_counts_sum(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=1234)
        edges, counts = histogram(x, 17)
        assert counts.sum() == 1234
        assert edges.size == 18

    def test_single_value(self):
        edges, counts = histogram([2.5], 4)
        assert counts.sum() == 1
        assert (counts > 0).sum() == 1

    def test_uniform_grid_equal_counts(self):
        x = np.arange(100) + 0.5
        edges, counts = histogram(x, 10)
        assert np.all(counts == 10)

    def test_series_narrower_than_its_bins(self):
        # one float spacing apart: numpy finds no 40 distinct edges across it
        with pytest.raises(DomainError, match=re.escape(
                "the range [0.1, 0.10000000000000002] is too narrow for 40 bins")):
            histogram([0.1, 0.10000000000000002], 40)
        # a series wide enough for its bins is numpy's histogram unchanged
        x = np.random.default_rng(5).normal(size=300)
        expected_counts, expected_edges = np.histogram(x, bins=25)
        edges, counts = histogram(x, 25)
        assert edges.tobytes() == expected_edges.tobytes()
        assert np.array_equal(counts, expected_counts)

    @pytest.mark.parametrize("value", [1e17, -1e17, 2.0 ** 53])
    def test_constant_series_beyond_a_half_unit_widening(self, value):
        # value -+ 0.5, numpy's range for a constant series, rounds back to value
        with pytest.raises(DomainError, match=re.escape(f"[{value!r}, {value!r}] is too narrow")):
            histogram([value, value, value], 40)

    @pytest.mark.parametrize("series, lo, hi", [([-FLOAT_MAX, FLOAT_MAX], -FLOAT_MAX, FLOAT_MAX),
                                                ([-1e308, 1e308], -1e308, 1e308),
                                                ([math.nan, 1.0], math.nan, math.nan)],
                             ids=["max", "1e308", "nan"])
    def test_refuses_a_width_that_is_not_finite(self, series, lo, hi):
        with pytest.raises(DomainError, match=re.escape(
                f"the width of the range [{lo!r}, {hi!r}] is not a finite float")):
            histogram(series, 5)

    def test_validation(self):
        with pytest.raises(DomainError):
            histogram([], 3)
        with pytest.raises(DomainError):
            histogram([1.0], 0)


class TestEmitters:
    def test_series_csv_deterministic(self):
        cols = {"x": np.array([1.0, 2.0]), "y": np.array([0.1, 0.2])}
        a, b = io.StringIO(), io.StringIO()
        write_series_csv(a, cols)
        write_series_csv(b, cols)
        assert a.getvalue() == b.getvalue()
        assert a.getvalue().splitlines()[0] == "x,y"


def sweep_series(rng, kind: int) -> np.ndarray:
    """A finite series of 1 to 7 values, of one of five kinds: a constant, a
    range a few float spacings wide, a subnormal range, values up to the
    float maximum, and mixed signs and magnitudes."""
    n = int(rng.integers(1, 8))

    def magnitude(size=None):      # a float of any binade, subnormal to the largest
        return np.ldexp(rng.uniform(1, 2, size), rng.integers(-1074, 1024, size))

    value = rng.choice([-1.0, 1.0]) * magnitude()
    if kind == 0:
        return np.full(n, value)
    if kind == 1:
        with np.errstate(over="ignore"):
            return np.clip(value + rng.integers(-3, 4, n) * math.ulp(value), -FLOAT_MAX, FLOAT_MAX)
    if kind == 2:
        return rng.integers(-20, 21, n) * 5e-324
    if kind == 3:
        return FLOAT_MAX * rng.uniform(-1, 1, n) ** rng.choice([1, 3, 101])
    return rng.choice([-1.0, 1.0], n) * magnitude(n)


def test_every_finite_series_is_binned_as_numpy_bins_it_or_refused():
    # histogram is numpy's, bit for bit, or refused (DomainError): by its own
    # rule where max - min overflows, else where numpy finds too many bins for
    # the range; running_average is cumsum / counts, or refused where the last
    # sum overflows; no warning either way
    rng = np.random.default_rng(44)
    series = [sweep_series(rng, k % 5) for k in range(2500)] + [
        np.array(s) for s in ([FLOAT_MAX] * 2, [-FLOAT_MAX] * 2, [-1.7e308, 1.7e308],
                              [8e-323, 2e-323, 7e-323, 5.4e-323, 5.4e-323])]
    binned = refused_wide = refused_narrow = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in series:
            bins = int(rng.choice([1, 2, 5, 40]))
            if not math.isfinite(float(s.max()) - float(s.min())):
                with pytest.raises(DomainError, match="is not a finite float"):
                    histogram(s, bins)
                refused_wide += 1
            else:
                try:
                    expected_counts, expected_edges = np.histogram(s, bins)
                except ValueError:
                    with pytest.raises(DomainError, match="too narrow"):
                        histogram(s, bins)
                    refused_narrow += 1
                else:
                    edges, counts = histogram(s, bins)
                    assert edges.tobytes() == expected_edges.tobytes(), s
                    assert np.array_equal(counts, expected_counts) and counts.sum() == s.size, s
                    assert np.all(np.isfinite(edges)) and np.all(np.diff(edges) > 0), s
                    binned += 1
            with np.errstate(over="ignore"):
                sums = np.cumsum(s)
            if math.isfinite(sums[-1]):
                expected = sums / np.arange(1, s.size + 1)
                assert running_average(s).tobytes() == expected.tobytes(), s
            else:
                with pytest.raises(DomainError):
                    running_average(s)
    assert binned > 1500 and refused_wide > 100 and refused_narrow > 500
