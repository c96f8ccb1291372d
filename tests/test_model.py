"""Model parameters, Levy density, bin masses, and priors."""

import dataclasses
import itertools
import math
import pickle

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from gammasub import (
    ChainRecord,
    ConfigError,
    DomainError,
    ModelParams,
    Observations,
    Prior,
    PriorSpec,
    ProposalSpec,
    exp_integral_e1,
    gamma_logpdf,
    levy_density,
    nu_bin_mass,
    nu_diff_bin0,
    prior_logpdf,
    run_mcmc,
    theta_at,
)
from gammasub.model import mass_factors, reference_units
from gammasub.specfun import exp_integral_ei_values

E1_AT_1 = 0.21938393439552028
E1_AT_2 = 0.04890051070806112


def gamma_model(alpha=1.0, beta=1.0):
    return ModelParams(alpha, beta)


def binned_model(alpha=1.0, beta=1.0, edges=(1.0, 2.0, 4.0),
                 slopes=(0.0, 0.0, 0.0), intercepts=(0.0, 0.0, 0.0)):
    return ModelParams(alpha, beta, edges, slopes, intercepts)


def bin_mass(p, k):
    """nu(B_k) of the ModelParams p, from mass_factors and nu_bin_mass."""
    _, units = mass_factors(p.alpha, p.theta_slopes, p.bin_edges)
    return nu_bin_mass(p.beta, p.theta_intercepts, units)[k - 1]


def diff_bin0(alpha_new, alpha_old, beta, b1):
    """(nu_new - nu_old)(B_0) with B_0 = (0, b1), from E1(alpha * b1) at both rates."""
    e1_new, e1_old = exp_integral_e1([alpha_new * b1, alpha_old * b1])
    return nu_diff_bin0(beta, alpha_new, alpha_old, e1_new, e1_old)


def prior_at(spec, p):
    """prior_logpdf at the floats of the ModelParams p."""
    return prior_logpdf(spec, p.alpha, p.beta, p.theta_slopes, p.theta_intercepts)


class TestModelParams:
    def test_rejects_bad_scalars(self):
        for kwargs in ({"alpha": 0.0, "beta": 1.0}, {"alpha": 1.0, "beta": -1.0},
                       {"alpha": math.nan, "beta": 1.0}):
            with pytest.raises(DomainError):
                ModelParams(**kwargs)

    def test_rejects_bad_edges(self):
        with pytest.raises(DomainError):
            ModelParams(1.0, 1.0, [2.0, 1.0], [0, 0], [0, 0])
        with pytest.raises(DomainError):
            ModelParams(1.0, 1.0, [-1.0, 1.0], [0, 0], [0, 0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(DomainError):
            ModelParams(1.0, 1.0, [1.0, 2.0], [0.0], [0.0, 0.0])

    def test_with_updates_validates_and_knows_its_fields(self):
        p = binned_model()
        q = p.with_updates(beta=2.5)
        assert (q.alpha, q.beta) == (1.0, 2.5)
        assert np.array_equal(q.bin_edges, p.bin_edges)
        with pytest.raises(DomainError):
            p.with_updates(alpha=-1)
        with pytest.raises(TypeError):
            p.with_updates(gamma=1)

    def test_immutable(self):
        p = binned_model()
        assert type(p.bin_edges) is tuple
        with pytest.raises(TypeError):
            p.bin_edges[0] = 9.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.bin_edges = (9.0,)

    def test_slots_leave_no_instance_dict(self):
        p = binned_model()
        assert not hasattr(p, "__dict__")
        with pytest.raises(TypeError):
            vars(p)

    def test_pickles_and_updates(self):
        p = binned_model(slopes=(0.1, -0.2, 0.3), intercepts=(0.4, 0.5, -0.6))
        q = pickle.loads(pickle.dumps(p))
        assert q == p
        r = q.with_updates(alpha=2.0)
        assert (r.alpha, r.theta_slopes) == (2.0, (0.1, -0.2, 0.3))
        assert r.bin_edges is q.bin_edges

    def test_copies_a_writable_input(self):
        edges, slopes = np.array([1.0, 2.0]), np.array([0.1, 0.2])
        p = ModelParams(1.0, 1.0, edges, slopes, [0.0, 0.0])
        edges[0], slopes[0] = 0.5, 9.0
        assert p.bin_edges == (1.0, 2.0) and p.theta_slopes == (0.1, 0.2)
        # any input but a tuple of floats is flattened into one: nested lists,
        # a (2, 1) array, a tuple of ints and numpy floats, a scalar
        q = ModelParams(1.0, 1.0, [[1.0], [2.0]], np.array([[0.1], [0.2]]), (0, np.float64(1)))
        assert (q.bin_edges, q.theta_slopes, q.theta_intercepts) == ((1.0, 2.0), (0.1, 0.2),
                                                                     (0.0, 1.0))
        assert all(type(v) is float for v in q.bin_edges + q.theta_slopes + q.theta_intercepts)
        r = ModelParams(1.0, 1.0, 1.5, 0.25, 0)
        assert (r.bin_edges, r.theta_slopes, r.theta_intercepts) == ((1.5,), (0.25,), (0.0,))

    def test_records_of_a_chain_share_one_edges_array(self):
        edges = binned_model().bin_edges
        records = [ChainRecord(i, 1.0 + i, 1.0, (0.1, 0.2, 0.3), (0.0, 0.1, 0.2), 1.0)
                   for i in range(3)]
        params = [r.to_params(edges) for r in records]
        assert all(p.bin_edges is edges for p in params)
        assert [p.alpha for p in params] == [1.0, 2.0, 3.0]
        assert params[2].theta_intercepts == (0.0, 0.1, 0.2)
        # a list of edges is copied into a tuple, once per record
        listed = [r.to_params([1.0, 2.0, 4.0]).bin_edges for r in records[:2]]
        assert listed[0] is not listed[1] and listed[0] == edges


@pytest.mark.parametrize("n", [0, 1, 2, 3])
class TestModelParamsValue:
    """A ModelParams is its floats: it compares, hashes and pickles by value."""

    @staticmethod
    def pair(n):
        """Two ModelParams of n bins with equal fields, one built from lists and
        one from arrays."""
        edges = [2.0 ** k for k in range(n)]
        slopes, intercepts = [0.1 * (k + 1) for k in range(n)], [-0.2 * k for k in range(n)]
        return (ModelParams(1.5, 0.5, edges, slopes, intercepts),
                ModelParams(1.5, 0.5, np.array(edges), np.array(slopes), np.array(intercepts)))

    def test_equal_fields_compare_equal(self, n):
        p, q = self.pair(n)
        assert p == q and not p != q
        assert p != p.with_updates(alpha=2.0)

    def test_equal_params_hash_alike(self, n):
        p, q = self.pair(n)
        assert hash(p) == hash(q)
        assert len({p, q, p.with_updates(beta=0.75)}) == 2

    def test_pickle_round_trips_to_tuples(self, n):
        p, _ = self.pair(n)
        q = pickle.loads(pickle.dumps(p))
        assert q == p and hash(q) == hash(p)
        for name in ("bin_edges", "theta_slopes", "theta_intercepts"):
            assert type(getattr(q, name)) is tuple

    def test_to_params_shares_the_record_tuples(self, n):
        p, _ = self.pair(n)
        # the record's tuples built as read_chain_csv builds them
        rec = ChainRecord(1, p.alpha, p.beta, tuple(map(float, p.theta_slopes)),
                          tuple(map(float, p.theta_intercepts)), 1.0)
        q = rec.to_params(p.bin_edges)
        assert q == p
        assert q.theta_slopes is rec.theta and q.theta_intercepts is rec.rho
        assert q.bin_edges is p.bin_edges


class TestThetaAt:
    def test_zero_for_gamma_case(self):
        p = binned_model()
        for x in (0.1, 1.0, 3.7, 100.0):
            assert theta_at(p, x) == 0.0

    def test_direct_formula(self):
        p = ModelParams(1.0, 1.0, [2.0], [-0.5], [0.3])
        assert theta_at(p, 3.0) == pytest.approx(0.3 - 1.5, rel=1e-14)

    def test_zero_below_first_edge(self):
        p = ModelParams(1.0, 1.0, [2.0], [-0.5], [0.3])
        assert theta_at(p, 1.999999) == 0.0

    def test_edges_belong_to_right_bin(self):
        p = binned_model(slopes=(0.1, 0.2, 0.3), intercepts=(1.0, 2.0, 3.0))
        assert theta_at(p, 2.0) == pytest.approx(2.0 + 0.2 * 2.0)
        assert theta_at(p, 4.0) == pytest.approx(3.0 + 0.3 * 4.0)

    def test_right_continuous_at_edges(self):
        p = binned_model(slopes=(0.1, 0.2, 0.3), intercepts=(1.0, 2.0, 3.0))
        for b in p.bin_edges:
            eps = 1e-12 * b
            assert theta_at(p, b + eps) == pytest.approx(theta_at(p, b), rel=1e-9)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            theta_at(gamma_model(), 0.0)
        with pytest.raises(DomainError):
            theta_at(gamma_model(), -2.0)

    def test_vectorized(self):
        p = binned_model(slopes=(0.1, 0.2, 0.3), intercepts=(1.0, 2.0, 3.0))
        xs = np.array([0.5, 1.5, 2.5, 5.0])
        vals = theta_at(p, xs)
        assert vals == pytest.approx([theta_at(p, float(x)) for x in xs])


class TestLevyDensity:
    def test_gamma_case(self):
        p = gamma_model(alpha=1.5, beta=2.0)
        x = 0.7
        assert levy_density(p, x) == pytest.approx(2.0 / x * math.exp(-1.5 * x), rel=1e-14)

    def test_positive_everywhere(self):
        p = binned_model(slopes=(0.5, -0.3, 0.2), intercepts=(1.0, -1.0, 0.5))
        xs = np.logspace(-4, 2, 50)
        assert np.all(levy_density(p, xs) > 0)

    def test_x_times_density_continuous_within_bins(self):
        p = binned_model(slopes=(0.5, -0.3, 0.2), intercepts=(1.0, -1.0, 0.5))
        # within a bin the exponent is linear, hence x*v(x) smooth
        xs = np.linspace(2.05, 3.95, 100)
        vals = xs * levy_density(p, xs)
        assert np.all(np.abs(np.diff(np.log(vals))) < 0.05)


class TestNuBinMass:
    def test_known_value_single_bin(self):
        p = binned_model()
        assert bin_mass(p, 1) == pytest.approx(E1_AT_1 - E1_AT_2, rel=1e-12)

    def test_intercept_scales_mass(self):
        p0 = binned_model()
        p1 = binned_model(intercepts=(math.log(2.0), 0.0, 0.0))
        assert bin_mass(p1, 1) == pytest.approx(0.5 * bin_mass(p0, 1), rel=1e-12)

    def test_telescoping_sum(self):
        p = binned_model(alpha=1.3, beta=2.5)
        total = sum(bin_mass(p, k) for k in (1, 2, 3))
        assert total == pytest.approx(2.5 * exp_integral_e1([1.3 * 1.0])[0], rel=1e-12)

    def test_tail_requires_positive_rate(self):
        # slope + alpha <= 0 on the tail: its integral diverges, and its mass is +inf
        for slope in (-1.0, -1.5):
            p = binned_model(slopes=(0.0, 0.0, slope))
            assert slope + p.alpha <= 0
            assert bin_mass(p, 3) == math.inf
            assert math.isfinite(bin_mass(p, 2))

    def test_matches_quadrature_randomized(self):
        rng = np.random.default_rng(314)
        for _ in range(40):
            n = rng.integers(1, 6)
            edges = np.sort(rng.uniform(0.2, 6.0, size=n))
            while np.any(np.diff(edges) < 1e-3):
                edges = np.sort(rng.uniform(0.2, 6.0, size=n))
            alpha = rng.uniform(0.3, 3.0)
            slopes = rng.normal(0.0, 1.0, size=n)
            slopes[-1] = abs(slopes[-1])  # keep the tail integrable
            intercepts = rng.normal(0.0, 1.0, size=n)
            p = ModelParams(alpha, rng.uniform(0.2, 4.0), edges, slopes, intercepts)
            for k in range(1, n + 1):
                hi = np.inf if k == n else edges[k]
                ref, _ = integrate.quad(lambda x: levy_density(p, x), edges[k - 1], hi,
                                        epsabs=0, epsrel=1e-11, limit=400)
                assert bin_mass(p, k) == pytest.approx(ref, rel=1e-8)

    def test_non_positive_interior_rate_matches_quadrature(self):
        # interior bin with slope + alpha <= 0 stays finite
        p = ModelParams(0.5, 1.0, [1.0, 3.0], [-1.5, 0.2], [0.1, -0.2])
        ref, _ = integrate.quad(lambda x: levy_density(p, x), 1.0, 3.0,
                                epsabs=0, epsrel=1e-11)
        assert bin_mass(p, 1) == pytest.approx(ref, rel=1e-9)
        p0 = ModelParams(0.5, 1.0, [1.0, 3.0], [-0.5, 0.2], [0.0, 0.0])
        ref0, _ = integrate.quad(lambda x: levy_density(p0, x), 1.0, 3.0,
                                 epsabs=0, epsrel=1e-11)
        assert bin_mass(p0, 1) == pytest.approx(ref0, rel=1e-9)

    def test_total_tail_mass_finite_matches_quadrature(self):
        p = binned_model(alpha=0.8, beta=1.7, slopes=(0.3, -0.2, -0.5),
                         intercepts=(0.2, 0.4, -0.3))
        total = sum(bin_mass(p, k) for k in (1, 2, 3))
        head, _ = integrate.quad(lambda x: levy_density(p, x), 1.0, 4.0,
                                 points=[2.0], epsabs=0, epsrel=1e-11, limit=400)
        tail, _ = integrate.quad(lambda x: levy_density(p, x), 4.0, np.inf,
                                 epsabs=0, epsrel=1e-11, limit=400)
        assert total == pytest.approx(head + tail, rel=1e-8)

    def test_finite_products_keep_their_bits(self):
        # a mass is the float product beta * exp(-rho) * unit wherever that is finite
        rng = np.random.default_rng(1117)
        for _ in range(200):
            beta = rng.uniform(0.01, 50.0)
            rhos = rng.uniform(-709.7, 750.0, size=3).tolist()
            units = np.exp(rng.uniform(-700.0, 5.0, size=3)).tolist()
            for got, rho, unit in zip(nu_bin_mass(beta, rhos, units), rhos, units):
                want = beta * math.exp(-rho) * unit
                assert got == want or not math.isfinite(want)

    def test_masses_past_the_float_range_of_exp(self):
        # exp(-rho) overflows below rho = -709.78: the mass comes from logs
        rhos, units = (-710.0, -800.0), (1e-10, 1e-100)
        for got, rho, unit in zip(nu_bin_mass(0.5, rhos, units), rhos, units):
            want = mpmath.mpf(0.5) * mpmath.exp(-rho) * mpmath.mpf(unit)
            assert got == pytest.approx(float(want), rel=1e-12)
        # +inf past the float range; 0.0 for a unit that underflowed to 0
        assert nu_bin_mass(0.5, (-800.0, -800.0), (0.1, 0.0)) == (math.inf, 0.0)


def quadrature_mass(p, k):
    """nu(B_k) as the integral of levy_density over the bin."""
    lo = float(p.bin_edges[k - 1])
    hi = np.inf if k == p.n_bins else float(p.bin_edges[k])
    val, _ = integrate.quad(lambda x: levy_density(p, x), lo, hi, epsabs=0, epsrel=1e-11,
                            limit=400)
    return val


def e1_series(z, terms=5):
    """E1(z) from its asymptotic series e^-z / z * sum_j (-1)^j j! / z^j, for large z."""
    return math.exp(-z) / z * sum((-1) ** j * math.factorial(j) / z ** j for j in range(terms))


class TestMassFactors:
    """The float bin masses, the Gamma reference's and E1(alpha b_1) against
    quadrature of the jump density and closed forms."""

    @staticmethod
    def assert_matches_quadrature(p, rel=1e-8):
        edges, slopes, rhos = p.bin_edges, p.theta_slopes, p.theta_intercepts
        e1_b1, units = mass_factors(p.alpha, slopes, edges)
        ref_units = reference_units(p.alpha, edges, e1_b1)
        masses = nu_bin_mass(p.beta, rhos, units)
        # the Gamma reference: the same (beta, alpha) and bins, theta zero
        ref = p.with_updates(theta_slopes=np.zeros(p.n_bins), theta_intercepts=np.zeros(p.n_bins))
        for k in range(1, p.n_bins + 1):
            assert masses[k - 1] == pytest.approx(quadrature_mass(p, k), rel=rel)
            assert p.beta * ref_units[k - 1] == pytest.approx(quadrature_mass(ref, k), rel=rel)
        e1, _ = integrate.quad(lambda x: math.exp(-p.alpha * x) / x, edges[0], np.inf,
                               epsabs=0, epsrel=1e-11, limit=400)
        assert e1_b1 == pytest.approx(e1, rel=rel)
        assert len(units) == len(ref_units) == p.n_bins
        return units

    def test_every_kind_of_bin(self):
        # interior rates slope + alpha > 0, = 0 exactly and < 0, then the tail
        p = ModelParams(0.75, 1.3, [0.5, 1.0, 2.5, 4.0], [0.4, -0.75, -1.25, 0.1],
                        [0.3, -0.2, 0.7, -1.1])
        assert [s + p.alpha for s in p.theta_slopes] == [1.15, 0.0, -0.5, 0.85]
        units = self.assert_matches_quadrature(p)
        assert units[1] == math.log(2.5)    # the integral of 1/x over [1, 2.5)
        # binless: no bins, and E1(alpha b_1) is 0.0 at b_1 = inf
        assert mass_factors(0.75, (), ()) == (0.0, ())
        assert reference_units(0.75, (), 0.0) == ()

    def test_reference_units_reuse_e1_b1_bit_for_bit(self):
        # E1 is evaluated point by point, so mass_factors's E1(alpha b_1) is the
        # value an evaluation at all N points gives
        for alpha, edges in ((0.75, (0.5, 1.0, 2.5, 4.0)), (2.0, (1.0, 2.0, 4.0)), (3.0, (0.3,)),
                             (400.0, (1.0, 2.0))):
            e1_b1, _ = mass_factors(alpha, [0.0] * len(edges), edges)
            e1 = exp_integral_e1([alpha * b for b in edges])
            assert e1_b1 == e1[0]
            assert reference_units(alpha, edges, e1_b1) == tuple(
                [a - b for a, b in zip(e1, e1[1:])] + [e1[-1]])

    def test_underflow_beyond_745(self):
        # c * b beyond 745 gives E1 exactly 0: the tail and the upper edge of bin 1
        p = ModelParams(400.0, 2.0, [1.0, 2.0], [0.0, 0.0], [0.5, 0.0])
        e1_b1, units = mass_factors(400.0, [0.0, 0.0], (1.0, 2.0))
        assert units == reference_units(400.0, (1.0, 2.0), e1_b1)
        assert units[0] == pytest.approx(e1_series(400.0), rel=1e-10)
        # E1(800) < exp(-800) / 800, below the smallest subnormal double
        assert math.exp(-800.0) == 0.0
        assert units[1] == 0.0 and bin_mass(p, 2) == 0.0
        assert bin_mass(p, 1) == pytest.approx(2.0 * math.exp(-0.5) * e1_series(400.0),
                                                  rel=1e-10)

    def test_randomized(self):
        rng = np.random.default_rng(2718)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            edges = np.sort(rng.uniform(0.1, 8.0, size=n))
            if np.any(np.diff(edges) <= 0):
                continue
            alpha = rng.uniform(0.05, 5.0)
            slopes = rng.normal(0.0, 2.0, size=n)
            slopes[-1] = abs(slopes[-1]) - 0.9 * alpha      # tail rate stays positive
            self.assert_matches_quadrature(ModelParams(alpha, rng.uniform(0.1, 9.0), edges,
                                                       slopes, rng.normal(0.0, 1.0, size=n)))

    def test_tail_requires_positive_rate(self):
        # the tail's unit is +inf at slope + alpha = 0 and below: its integral diverges
        e1_b1, (unit, _) = mass_factors(1.0, (0.0, 0.5), (1.0, 2.0))
        for slope in (-1.0, -2.5):
            assert mass_factors(1.0, (0.0, slope), (1.0, 2.0)) == (e1_b1, (unit, math.inf))
            assert nu_bin_mass(0.7, (0.2, -0.3), (unit, math.inf))[1] == math.inf

    def test_ei_overflow_gives_an_infinite_unit(self):
        # on [200, 300) at alpha = 1: c = -4 overflows both Ei(1200) and
        # Ei(800), c = -3 only Ei(900); the unit is +inf, not inf - inf
        for slope in (-5.0, -4.0):
            assert mass_factors(1.0, (slope, 0.5), (200.0, 300.0))[1][0] == math.inf
        assert exp_integral_ei_values([716.36]) == [math.inf]
        # +inf also where exp(-rho) underflows to 0, and past its overflow
        assert math.exp(-750.0) == 0.0
        assert nu_bin_mass(2.0, (0.3, 750.0, -800.0), (math.inf,) * 3) == (math.inf,) * 3
        # below the overflow the unit is the Ei difference
        c = -2.35
        got = mass_factors(1.0, (c - 1.0, 0.5), (200.0, 300.0))[1][0]
        hi, lo = exp_integral_ei_values([-c * 300.0, -c * 200.0])
        assert math.isfinite(got) and got == hi - lo


class TestNuDiffBin0:
    def test_equal_rates_give_zero(self):
        assert diff_bin0(1.3, 1.3, 2.0, 1.0) == 0.0

    def test_known_value(self):
        expected = math.log(0.5) - (E1_AT_2 - E1_AT_1)
        assert diff_bin0(2.0, 1.0, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_antisymmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a, ap, b, b1 = rng.uniform(0.2, 5.0, size=4)
            assert diff_bin0(a, ap, b, b1) == pytest.approx(
                -diff_bin0(ap, a, b, b1), rel=1e-12, abs=1e-15)

    def test_matches_quadrature(self):
        # direct integral of the density difference over (0, b1)
        a_new, a_old, beta, b1 = 1.7, 0.9, 2.3, 1.4
        ref, _ = integrate.quad(
            lambda x: beta / x * (math.exp(-a_new * x) - math.exp(-a_old * x)),
            0.0, b1, epsabs=1e-13, epsrel=1e-12)
        assert diff_bin0(a_new, a_old, beta, b1) == pytest.approx(ref, rel=1e-9)

    def test_domain_errors(self):
        # a rate or edge <= 0 puts alpha * b1 outside E1's domain
        with pytest.raises(DomainError):
            diff_bin0(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            diff_bin0(1.0, 1.0, 1.0, -1.0)


class TestPriors:
    def test_uniform_logpdf(self):
        pr = Prior("uniform", 0.0, 2.0)
        assert pr.logpdf(1.0) == pytest.approx(-math.log(2.0))
        assert pr.logpdf(3.0) == -math.inf

    def test_gamma_prior_matches_density(self):
        pr = Prior("gamma", 2.0, 1.0)
        from gammasub import gamma_logpdf
        assert pr.logpdf(0.7) == pytest.approx(gamma_logpdf(0.7, 2.0, 1.0), rel=1e-14)
        assert pr.logpdf(-0.1) == -math.inf

    def test_normal_prior(self):
        pr = Prior("normal", 1.0, 2.0)
        expected = -0.5 * ((0.0 - 1.0) / 2.0) ** 2 - math.log(2.0) - 0.5 * math.log(2 * math.pi)
        assert pr.logpdf(0.0) == pytest.approx(expected, rel=1e-14)

    def test_pickle_round_trip(self):
        for pr in (Prior("uniform", 0.0, 2.0), Prior("gamma", 2.0, 1.0), Prior("normal", 1.0, 2.0)):
            copy = pickle.loads(pickle.dumps(pr))
            assert copy == pr and copy.logpdf(0.7) == pr.logpdf(0.7)

    def test_moment_matched_gamma(self):
        # gamma(shape, rate) with shape m^2/v and rate m/v has mean m and variance v
        mean, var = 0.75, 0.36
        pr = Prior("gamma", mean * mean / var, mean / var)

        def moment(k):
            return integrate.quad(lambda x: x ** k * math.exp(pr.logpdf(x)), 0.0, np.inf,
                                  epsabs=0, epsrel=1e-12, limit=200)[0]
        assert moment(0) == pytest.approx(1.0, rel=1e-10)
        assert moment(1) == pytest.approx(mean, rel=1e-10)
        assert moment(2) - moment(1) ** 2 == pytest.approx(var, rel=1e-9)

    def test_bad_hyperparameters(self):
        with pytest.raises(ConfigError):
            Prior("uniform", 2.0, 1.0)
        with pytest.raises(ConfigError):
            Prior("gamma", -1.0, 1.0)
        with pytest.raises(ConfigError):
            Prior("normal", 0.0, 0.0)
        with pytest.raises(ConfigError):
            Prior("cauchy", 0.0, 1.0)


class TestPriorLogpdf:
    def spec(self, n=3, beta=None):
        return PriorSpec(
            alpha=Prior("gamma", 2.0, 1.0),
            beta=beta,
            theta=tuple(Prior("normal", 0.0, 3.0) for _ in range(n)),
            rho=tuple(Prior("normal", 0.0, 7.0) for _ in range(n)),
        )

    def test_sum_of_components(self):
        spec = self.spec()
        p = binned_model(slopes=(0.1, -0.2, 0.3), intercepts=(0.5, 0.0, -0.5))
        expected = spec.alpha.logpdf(1.0)
        expected += sum(spec.theta[k].logpdf(p.theta_slopes[k]) for k in range(3))
        expected += sum(spec.rho[k].logpdf(p.theta_intercepts[k]) for k in range(3))
        assert prior_at(spec, p) == pytest.approx(expected, rel=1e-14)

    def test_tail_constraint(self):
        spec = self.spec()
        bad = binned_model(slopes=(0.0, 0.0, -1.5))
        assert prior_at(spec, bad) == -math.inf

    def test_out_of_support(self):
        spec = PriorSpec(alpha=Prior("uniform", 0.5, 1.5))
        assert prior_at(spec, gamma_model(alpha=2.0)) == -math.inf

    def test_shape_mismatch(self):
        # a prior over 2 bins for a 3-bin model, refused when the run is made
        obs = Observations([0.0, 1.0, 2.0], [0.0, 0.5, 1.5])
        with pytest.raises(ConfigError, match="prior covers 2 bins but the model has 3"):
            run_mcmc(obs, binned_model(), self.spec(n=2), ProposalSpec(), iterations=1)

    def test_reparam_mode(self):
        spec = PriorSpec(
            alpha=Prior("gamma", 1.5625, 2.0833333333333335),
            beta=Prior("gamma", 90.0 ** 2 / 2500.0, 90.0 / 2500.0),
            theta=(Prior("gamma", 1.5625, 2.0833333333333335),),
            rho=(Prior("gamma", 90.0 ** 2 / 2500.0, 90.0 / 2500.0),),
            reparam=True,
        )
        p = ModelParams(0.8, 85.0, [2.0], [0.1], [0.2])
        # the components' densities at (alpha, beta, alpha + slope, beta exp(-rho)),
        # and the Jacobian beta exp(-rho) of that map
        expected = (spec.alpha.logpdf(0.8) + spec.beta.logpdf(85.0)
                    + spec.theta[0].logpdf(0.8 + 0.1)
                    + spec.rho[0].logpdf(85.0 * math.exp(-0.2)) + math.log(85.0) - 0.2)
        assert prior_at(spec, p) == pytest.approx(expected, rel=1e-14)


def closed_form_logpdf(prior, x):
    """A prior's log-density at x: -log(hi - lo) on [lo, hi], gamma_logpdf on
    (0, inf), scipy's normal; -inf outside the support and at non-finite x."""
    if not math.isfinite(x):
        return -math.inf
    if prior.kind == "uniform":
        return -math.log(prior.b - prior.a) if prior.a <= x <= prior.b else -math.inf
    if prior.kind == "gamma":
        return gamma_logpdf(x, prior.a, prior.b) if x > 0 else -math.inf
    return float(norm.logpdf(x, prior.a, prior.b))


def closed_form_spec_logpdf(spec, alpha, beta, slopes, intercepts):
    """The joint prior as a sum of closed-form component log-densities; in
    reparam mode at (alpha, beta, alpha + slope_k, beta exp(-rho_k)) for each
    bin k, with that map's log-Jacobian sum_k ln(beta exp(-rho_k))."""
    if slopes and slopes[-1] <= -alpha:
        return -math.inf
    total = closed_form_logpdf(spec.alpha, alpha)
    if spec.beta is not None:
        total += closed_form_logpdf(spec.beta, beta)
    if spec.reparam:
        for k in range(len(slopes)):
            scale = beta * math.exp(-intercepts[k])
            total += (closed_form_logpdf(spec.theta[k], alpha + slopes[k])
                      + closed_form_logpdf(spec.rho[k], scale) + math.log(scale))
        return total
    for k in range(len(slopes)):
        total += closed_form_logpdf(spec.theta[k], slopes[k])
        total += closed_form_logpdf(spec.rho[k], intercepts[k])
    return total


class TestCompilePrior:
    """The priors' log-densities, built once per Prior, and the joint prior_logpdf
    against closed forms."""

    KINDS = (Prior("uniform", -0.5, 2.0), Prior("gamma", 2.5, 1.5), Prior("gamma", 0.7, 3.0),
             Prior("normal", 0.3, 2.0))

    @pytest.mark.parametrize("prior", KINDS, ids=lambda p: f"{p.kind}-{p.a}")
    def test_component_matches_logpdf(self, prior):
        # support edges: uniform endpoints are inside, a gamma at 0 is outside
        xs = [prior.a, prior.b, -0.5, 0.0, 5e-324, 1e-300, 0.4, 1.7, 2.0, 2.0000000000000004,
              -3.0, 40.0, math.nan, math.inf, -math.inf]
        for x in xs:
            assert prior.logpdf(x) == pytest.approx(closed_form_logpdf(prior, x), rel=1e-13), x
        for x in (math.nan, math.inf, -math.inf):
            assert prior.logpdf(x) == -math.inf
        if prior.kind == "uniform":
            assert prior.logpdf(prior.a) == prior.logpdf(prior.b) == -math.log(2.5)
            assert prior.logpdf(math.nextafter(prior.b, math.inf)) == -math.inf
            assert prior.logpdf(math.nextafter(prior.a, -math.inf)) == -math.inf
        if prior.kind == "gamma":
            assert prior.logpdf(0.0) == -math.inf < prior.logpdf(5e-324)

    @pytest.mark.parametrize("beta", [None, Prior("uniform", 0.5, 2.0)])
    def test_spec_matches_prior_logpdf(self, beta):
        # both modes at 0 to 3 bins; in reparam mode the first rho prior's
        # support holds beta exp(-rho_1) on part of the draws and misses it on the rest
        rng = np.random.default_rng(99)
        for n, reparam in itertools.product(range(4), (False, True)):
            spec = PriorSpec(alpha=Prior("gamma", 2.0, 1.0), beta=beta,
                             theta=(Prior("normal", 0.0, 3.0), Prior("uniform", -1.0, 1.0),
                                    Prior("gamma", 2.0, 2.0))[:n],
                             rho=(Prior("uniform", -2.0, 2.0), Prior("normal", 0.0, 7.0),
                                  Prior("normal", 1.0, 0.5))[:n], reparam=reparam)
            for _ in range(100):
                p = ModelParams(rng.uniform(0.1, 3.0), rng.uniform(0.1, 2.5),
                                np.arange(1.0, n + 1.0), rng.normal(0.0, 1.5, size=n),
                                rng.normal(0.0, 2.0, size=n))
                slopes, intercepts = p.theta_slopes, p.theta_intercepts
                want = closed_form_spec_logpdf(spec, p.alpha, p.beta, slopes, intercepts)
                got = prior_logpdf(spec, p.alpha, p.beta, slopes, intercepts)
                assert got == pytest.approx(want, rel=1e-12)
                assert prior_logpdf(spec, p.alpha, p.beta, list(slopes), list(intercepts)) == got

    @pytest.mark.parametrize("beta", [None, Prior("uniform", 0.05, 20.0)],
                             ids=["fixed beta", "random beta"])
    def test_binless_prior_is_its_alpha_and_beta_terms(self, beta):
        # compared with ==: the general loop over no bins adds nothing
        rng = np.random.default_rng(44)
        spec = PriorSpec(alpha=Prior("gamma", 2.0, 1.0), beta=beta)
        reparam = dataclasses.replace(spec, reparam=True)
        for _ in range(200):
            alpha, b = (float(v) for v in 10.0 ** rng.uniform(-3.0, 3.0, size=2))
            want = spec.alpha.logpdf(alpha)
            if beta is not None:
                want += beta.logpdf(b)
            assert prior_logpdf(spec, alpha, b, (), ()) == want
            # reparam keeps its Jacobian, 0 ln(beta) - fsum(()), and its beta domain
            jacobian = want + 0 * math.log(b) - math.fsum(()) if want > -math.inf else want
            assert prior_logpdf(reparam, alpha, b, (), ()) == jacobian
        for bad in (0.0, -1.0, math.inf, math.nan):
            assert prior_logpdf(reparam, 1.0, bad, (), ()) == -math.inf
            if beta is None:
                assert prior_logpdf(spec, 1.0, bad, (), ()) == spec.alpha.logpdf(1.0)

    def test_tail_constraint(self):
        spec = PriorSpec(alpha=Prior("gamma", 2.0, 1.0), theta=(Prior("normal", 0.0, 3.0),) * 3,
                         rho=(Prior("normal", 0.0, 7.0),) * 3)
        for last in (-1.5, -1.0, -0.5):
            bad = binned_model(slopes=(0.0, 0.0, last))
            got = prior_logpdf(spec, 1.0, 1.0, (0.0, 0.0, last), (0.0, 0.0, 0.0))
            assert got == prior_at(spec, bad)
            assert got == pytest.approx(closed_form_spec_logpdf(
                spec, 1.0, 1.0, (0.0, 0.0, last), (0.0, 0.0, 0.0)), rel=1e-12)
            assert (got == -math.inf) == (last <= -1.0)

    def test_reparam(self):
        spec = PriorSpec(alpha=Prior("gamma", 1.5625, 2.0833333333333335),
                         beta=Prior("uniform", 60.0, 120.0),
                         theta=(Prior("gamma", 1.5625, 2.0833333333333335),),
                         rho=(Prior("gamma", 90.0 ** 2 / 2500.0, 90.0 / 2500.0),), reparam=True)
        for alpha, beta, slope, rho in ((0.8, 85.0, 0.1, 0.2), (0.8, 85.0, -0.8, 0.2),
                                        (0.5, 130.0, 0.3, -0.1), (2.0, 60.0, -0.5, 0.0)):
            p = ModelParams(alpha, beta, [2.0], [slope], [rho])
            got = prior_logpdf(spec, alpha, beta, (slope,), (rho,))
            assert got == prior_at(spec, p)
            assert got == pytest.approx(closed_form_spec_logpdf(spec, alpha, beta, (slope,),
                                                                (rho,)), rel=1e-12)
        # outside the support: a slope of -alpha, beta above the uniform's bound,
        # and beta exp(-rho_1) past the float range, +inf, at rho_1 = -800
        assert prior_logpdf(spec, 0.8, 85.0, (-0.8,), (0.2,)) == -math.inf
        assert prior_logpdf(spec, 0.5, 130.0, (0.3,), (-0.1,)) == -math.inf
        assert prior_logpdf(spec, 0.8, 85.0, (0.1,), (-800.0,)) == -math.inf

    @pytest.mark.parametrize("reparam", [False, True], ids=["default", "reparam"])
    @pytest.mark.parametrize("beta_prior", [None, Prior("uniform", 0.05, 20.0)],
                             ids=["fixed beta", "random beta"])
    def test_outside_the_domain_is_minus_inf(self, reparam, beta_prior):
        # normal slope and intercept priors, whose support is every finite float:
        # a NaN or infinite slope, intercept or beta is -inf, never NaN or an
        # error, and so is beta <= 0 in reparam mode (the log of the Jacobian)
        spec = PriorSpec(alpha=Prior("gamma", 2.0, 1.0), beta=beta_prior,
                         theta=(Prior("normal", 0.0, 1.0),), rho=(Prior("normal", 0.0, 1.0),),
                         reparam=reparam)
        assert math.isfinite(prior_logpdf(spec, 1.0, 0.5, (0.1,), (0.2,)))
        for bad in (math.nan, math.inf, -math.inf):
            assert prior_logpdf(spec, 1.0, 0.5, (bad,), (0.2,)) == -math.inf, bad
            assert prior_logpdf(spec, 1.0, 0.5, (0.1,), (bad,)) == -math.inf, bad
        betas = (math.nan, math.inf, -math.inf, 0.0, -1.0)
        for beta in betas if reparam or beta_prior else ():
            assert prior_logpdf(spec, 1.0, beta, (0.1,), (0.2,)) == -math.inf, beta
