"""Model parameters, Levy density, bin masses, and priors."""

import math
import pickle

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from gammasub import (
    ConfigError,
    DomainError,
    ModelParams,
    Prior,
    PriorSpec,
    exp_integral_e1,
    gamma_drift,
    gamma_logpdf,
    levy_density,
    nu_bin_mass,
    nu_diff_bin0,
    prior_logpdf,
    theta_at,
)
from gammasub.model import bin_mass_values, mass_factors

E1_AT_1 = 0.21938393439552028
E1_AT_2 = 0.04890051070806112


def gamma_model(alpha=1.0, beta=1.0):
    return ModelParams(alpha, beta)


def binned_model(alpha=1.0, beta=1.0, edges=(1.0, 2.0, 4.0),
                 slopes=(0.0, 0.0, 0.0), intercepts=(0.0, 0.0, 0.0)):
    return ModelParams(alpha, beta, np.asarray(edges), np.asarray(slopes),
                       np.asarray(intercepts))


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

    def test_tail_integrability_flag(self):
        ok = binned_model(slopes=(0.0, 0.0, -0.5))
        assert ok.tail_integrable
        bad = binned_model(slopes=(0.0, 0.0, -1.5))
        assert not bad.tail_integrable

    def test_immutable(self):
        p = binned_model()
        with pytest.raises(ValueError):
            p.bin_edges[0] = 9.0


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
        assert nu_bin_mass(p, 1) == pytest.approx(E1_AT_1 - E1_AT_2, rel=1e-12)

    def test_intercept_scales_mass(self):
        p0 = binned_model()
        p1 = binned_model(intercepts=(math.log(2.0), 0.0, 0.0))
        assert nu_bin_mass(p1, 1) == pytest.approx(0.5 * nu_bin_mass(p0, 1), rel=1e-12)

    def test_telescoping_sum(self):
        p = binned_model(alpha=1.3, beta=2.5)
        total = sum(nu_bin_mass(p, k) for k in (1, 2, 3))
        from gammasub import exp_integral_e1
        assert total == pytest.approx(2.5 * exp_integral_e1(1.3 * 1.0), rel=1e-12)

    def test_bad_index(self):
        p = binned_model()
        for k in (0, 4, -1):
            with pytest.raises(DomainError):
                nu_bin_mass(p, k)

    def test_tail_requires_positive_rate(self):
        p = binned_model(slopes=(0.0, 0.0, -1.5))
        with pytest.raises(DomainError):
            nu_bin_mass(p, 3)

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
                assert nu_bin_mass(p, k) == pytest.approx(ref, rel=1e-8)

    def test_non_positive_interior_rate_matches_quadrature(self):
        # interior bin with slope + alpha <= 0 stays finite
        p = ModelParams(0.5, 1.0, [1.0, 3.0], [-1.5, 0.2], [0.1, -0.2])
        ref, _ = integrate.quad(lambda x: levy_density(p, x), 1.0, 3.0,
                                epsabs=0, epsrel=1e-11)
        assert nu_bin_mass(p, 1) == pytest.approx(ref, rel=1e-9)
        p0 = ModelParams(0.5, 1.0, [1.0, 3.0], [-0.5, 0.2], [0.0, 0.0])
        ref0, _ = integrate.quad(lambda x: levy_density(p0, x), 1.0, 3.0,
                                 epsabs=0, epsrel=1e-11)
        assert nu_bin_mass(p0, 1) == pytest.approx(ref0, rel=1e-9)

    def test_total_tail_mass_finite_matches_quadrature(self):
        p = binned_model(alpha=0.8, beta=1.7, slopes=(0.3, -0.2, -0.5),
                         intercepts=(0.2, 0.4, -0.3))
        total = sum(nu_bin_mass(p, k) for k in (1, 2, 3))
        head, _ = integrate.quad(lambda x: levy_density(p, x), 1.0, 4.0,
                                 points=[2.0], epsabs=0, epsrel=1e-11, limit=400)
        tail, _ = integrate.quad(lambda x: levy_density(p, x), 4.0, np.inf,
                                 epsabs=0, epsrel=1e-11, limit=400)
        assert total == pytest.approx(head + tail, rel=1e-8)


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
        edges = tuple(p.bin_edges.tolist())
        slopes, rhos = p.theta_slopes.tolist(), p.theta_intercepts.tolist()
        e1_b1, units, ref_units = mass_factors(p.alpha, slopes, edges, reference=True)
        masses = bin_mass_values(p.beta, rhos, units)
        ref = p.gamma_reference()
        for k in range(1, p.n_bins + 1):
            assert masses[k - 1] == pytest.approx(quadrature_mass(p, k), rel=rel)
            assert p.beta * ref_units[k - 1] == pytest.approx(quadrature_mass(ref, k), rel=rel)
        e1, _ = integrate.quad(lambda x: math.exp(-p.alpha * x) / x, edges[0], np.inf,
                               epsabs=0, epsrel=1e-11, limit=400)
        assert e1_b1 == pytest.approx(e1, rel=rel)
        # the reference's factors are optional; the others do not depend on them
        assert mass_factors(p.alpha, slopes, edges) == (e1_b1, units, None)
        return units

    def test_every_kind_of_bin(self):
        # interior rates slope + alpha > 0, = 0 exactly and < 0, then the tail
        p = ModelParams(0.75, 1.3, [0.5, 1.0, 2.5, 4.0], [0.4, -0.75, -1.25, 0.1],
                        [0.3, -0.2, 0.7, -1.1])
        assert [s + p.alpha for s in p.theta_slopes.tolist()] == [1.15, 0.0, -0.5, 0.85]
        units = self.assert_matches_quadrature(p)
        assert units[1] == math.log(2.5)    # the integral of 1/x over [1, 2.5)

    def test_underflow_beyond_745(self):
        # c * b beyond 745 gives E1 exactly 0: the tail and the upper edge of bin 1
        p = ModelParams(400.0, 2.0, [1.0, 2.0], [0.0, 0.0], [0.5, 0.0])
        _, units, ref_units = mass_factors(400.0, [0.0, 0.0], (1.0, 2.0), reference=True)
        assert units == ref_units
        assert units[0] == pytest.approx(e1_series(400.0), rel=1e-10)
        # E1(800) < exp(-800) / 800, below the smallest subnormal double
        assert math.exp(-800.0) == 0.0
        assert units[1] == 0.0 and nu_bin_mass(p, 2) == 0.0
        assert nu_bin_mass(p, 1) == pytest.approx(2.0 * math.exp(-0.5) * e1_series(400.0),
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
        with pytest.raises(DomainError):
            mass_factors(1.0, (0.0, -1.0), (1.0, 2.0))


class TestNuDiffBin0:
    def test_equal_rates_give_zero(self):
        assert nu_diff_bin0(1.3, 1.3, 2.0, 1.0) == 0.0

    def test_known_value(self):
        expected = math.log(0.5) - (E1_AT_2 - E1_AT_1)
        assert nu_diff_bin0(2.0, 1.0, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_antisymmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a, ap, b, b1 = rng.uniform(0.2, 5.0, size=4)
            assert nu_diff_bin0(a, ap, b, b1) == pytest.approx(
                -nu_diff_bin0(ap, a, b, b1), rel=1e-12, abs=1e-15)

    def test_matches_quadrature(self):
        # direct integral of the density difference over (0, b1)
        a_new, a_old, beta, b1 = 1.7, 0.9, 2.3, 1.4
        ref, _ = integrate.quad(
            lambda x: beta / x * (math.exp(-a_new * x) - math.exp(-a_old * x)),
            0.0, b1, epsabs=1e-13, epsrel=1e-12)
        assert nu_diff_bin0(a_new, a_old, beta, b1) == pytest.approx(ref, rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            nu_diff_bin0(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            nu_diff_bin0(1.0, 1.0, 1.0, -1.0)


class TestGammaDrift:
    def test_gamma_closed_form(self):
        assert gamma_drift(gamma_model()) == pytest.approx(1 - math.exp(-1), rel=1e-9)

    def test_linear_in_beta(self):
        p1 = binned_model(beta=1.0, slopes=(0.2, 0.1, 0.3), intercepts=(0.5, 0.0, -0.2))
        p2 = p1.with_updates(beta=2.0)
        assert gamma_drift(p2) == pytest.approx(2 * gamma_drift(p1), rel=1e-9)

    def test_two_exponential_mixture(self):
        # closed form for the sum of two Gamma components
        a1, b1, a2, b2 = 2.0, 0.4, 0.2, 0.04
        expected = b1 / a1 * (1 - math.exp(-a1)) + b2 / a2 * (1 - math.exp(-a2))
        from gammasub import TwoGammaTruth
        truth = TwoGammaTruth(a1, b1, a2, b2)
        edges = np.array([1.0])
        p = ModelParams(truth.alpha_bar, truth.beta_bar, edges,
                        [0.0], [0.0])
        # integrate the exact mixture density instead of the binned model
        ref, _ = integrate.quad(lambda x: x * truth.levy_density(x), 0, 1)
        assert ref == pytest.approx(expected, rel=1e-10)


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
        pr = Prior.from_mean_variance(0.75, 0.36)
        assert pr.kind == "gamma"
        assert pr.a == pytest.approx(1.5625)
        assert pr.b == pytest.approx(2.0833333333333335)

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
    def spec(self, n=3, tail=True, beta=None):
        return PriorSpec(
            alpha=Prior("gamma", 2.0, 1.0),
            beta=beta,
            theta=tuple(Prior("normal", 0.0, 3.0) for _ in range(n)),
            rho=tuple(Prior("normal", 0.0, 7.0) for _ in range(n)),
            tail_constraint=tail,
        )

    def test_sum_of_components(self):
        spec = self.spec()
        p = binned_model(slopes=(0.1, -0.2, 0.3), intercepts=(0.5, 0.0, -0.5))
        expected = spec.alpha.logpdf(1.0)
        expected += sum(spec.theta[k].logpdf(p.theta_slopes[k]) for k in range(3))
        expected += sum(spec.rho[k].logpdf(p.theta_intercepts[k]) for k in range(3))
        assert prior_logpdf(spec, p) == pytest.approx(expected, rel=1e-14)

    def test_tail_constraint(self):
        spec = self.spec()
        bad = binned_model(slopes=(0.0, 0.0, -1.5))
        assert prior_logpdf(spec, bad) == -math.inf

    def test_out_of_support(self):
        spec = PriorSpec(alpha=Prior("uniform", 0.5, 1.5))
        assert prior_logpdf(spec, gamma_model(alpha=2.0)) == -math.inf

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            prior_logpdf(self.spec(n=2), binned_model())

    def test_reparam_mode(self):
        spec = PriorSpec(
            alpha=Prior("gamma", 1.5625, 2.0833333333333335),
            beta=Prior.from_mean_variance(90.0, 2500.0),
            theta=(Prior("gamma", 1.5625, 2.0833333333333335),),
            rho=(Prior.from_mean_variance(90.0, 2500.0),),
            reparam=True,
        )
        p = ModelParams(0.8, 85.0, [2.0], [0.1], [0.2])
        expected = (spec.alpha.logpdf(0.8) + spec.beta.logpdf(85.0)
                    + spec.theta[0].logpdf(0.8 + 0.1)
                    + spec.rho[0].logpdf(85.0 * math.exp(-0.2)))
        assert prior_logpdf(spec, p) == pytest.approx(expected, rel=1e-14)

    def test_reparam_requires_single_bin(self):
        with pytest.raises(ConfigError):
            PriorSpec(alpha=Prior("gamma", 2, 1), beta=Prior("gamma", 2, 1),
                      theta=(Prior("gamma", 2, 1),) * 2,
                      rho=(Prior("gamma", 2, 1),) * 2, reparam=True)


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
    """The joint prior as a sum of closed-form component log-densities."""
    if spec.tail_constraint and slopes and slopes[-1] <= -alpha:
        return -math.inf
    total = closed_form_logpdf(spec.alpha, alpha)
    if spec.beta is not None:
        total += closed_form_logpdf(spec.beta, beta)
    if spec.reparam:
        return (total + closed_form_logpdf(spec.theta[0], alpha + slopes[0])
                + closed_form_logpdf(spec.rho[0], beta * math.exp(-intercepts[0])))
    for k in range(len(slopes)):
        total += closed_form_logpdf(spec.theta[k], slopes[k])
        total += closed_form_logpdf(spec.rho[k], intercepts[k])
    return total


class TestCompilePrior:
    """The priors' log-densities, built once per Prior, and the joint PriorSpec.logpdf
    (which prior_logpdf calls) against closed forms."""

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

    @pytest.mark.parametrize("tail", [True, False])
    @pytest.mark.parametrize("beta", [None, Prior("uniform", 0.5, 2.0)])
    def test_spec_matches_prior_logpdf(self, tail, beta):
        rng = np.random.default_rng(99)
        for n in range(4):
            spec = PriorSpec(alpha=Prior("gamma", 2.0, 1.0), beta=beta,
                             theta=(Prior("normal", 0.0, 3.0), Prior("uniform", -1.0, 1.0),
                                    Prior("gamma", 2.0, 2.0))[:n],
                             rho=(Prior("uniform", -2.0, 2.0), Prior("normal", 0.0, 7.0),
                                  Prior("normal", 1.0, 0.5))[:n],
                             tail_constraint=tail)
            for _ in range(100):
                p = ModelParams(rng.uniform(0.1, 3.0), rng.uniform(0.1, 2.5),
                                np.arange(1.0, n + 1.0), rng.normal(0.0, 1.5, size=n),
                                rng.normal(0.0, 2.0, size=n))
                slopes, intercepts = p.theta_slopes.tolist(), p.theta_intercepts.tolist()
                want = closed_form_spec_logpdf(spec, p.alpha, p.beta, slopes, intercepts)
                got = spec.logpdf(p.alpha, p.beta, tuple(slopes), tuple(intercepts))
                assert got == pytest.approx(want, rel=1e-12)
                assert prior_logpdf(spec, p) == got

    @pytest.mark.parametrize("tail", [True, False])
    def test_tail_constraint(self, tail):
        spec = PriorSpec(alpha=Prior("gamma", 2.0, 1.0), theta=(Prior("normal", 0.0, 3.0),) * 3,
                         rho=(Prior("normal", 0.0, 7.0),) * 3, tail_constraint=tail)
        for last in (-1.5, -1.0, -0.5):
            bad = binned_model(slopes=(0.0, 0.0, last))
            got = spec.logpdf(1.0, 1.0, (0.0, 0.0, last), (0.0, 0.0, 0.0))
            assert got == prior_logpdf(spec, bad)
            assert got == pytest.approx(closed_form_spec_logpdf(
                spec, 1.0, 1.0, (0.0, 0.0, last), (0.0, 0.0, 0.0)), rel=1e-12)
            assert (got == -math.inf) == (tail and last <= -1.0)

    def test_reparam(self):
        spec = PriorSpec(alpha=Prior("gamma", 1.5625, 2.0833333333333335),
                         beta=Prior("uniform", 60.0, 120.0),
                         theta=(Prior("gamma", 1.5625, 2.0833333333333335),),
                         rho=(Prior.from_mean_variance(90.0, 2500.0),), reparam=True)
        for alpha, beta, slope, rho in ((0.8, 85.0, 0.1, 0.2), (0.8, 85.0, -0.8, 0.2),
                                        (0.5, 130.0, 0.3, -0.1), (2.0, 60.0, -0.5, 0.0)):
            p = ModelParams(alpha, beta, [2.0], [slope], [rho])
            got = spec.logpdf(alpha, beta, (slope,), (rho,))
            assert got == prior_logpdf(spec, p)
            assert got == pytest.approx(closed_form_spec_logpdf(spec, alpha, beta, (slope,),
                                                                (rho,)), rel=1e-12)
        # outside the support: a slope of -alpha, and beta above the uniform's bound
        assert spec.logpdf(0.8, 85.0, (-0.8,), (0.2,)) == -math.inf
        assert spec.logpdf(0.5, 130.0, (0.3,), (-0.1,)) == -math.inf
