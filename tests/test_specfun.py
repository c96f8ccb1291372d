"""Exponential integral and Gamma log-density against independent oracles."""

import math

import numpy as np
import pytest
from scipy import integrate

from gammasub import DomainError, exp_integral_e1, gamma_logpdf
from gammasub.specfun import exp_integral_e1_values

# Frozen reference values, computed once by adaptive quadrature of
# exp(-t)/t (split at t=1, epsrel 1e-14) and cross-checked at 30 digits.
E1_AT_1 = 0.21938393439552028
E1_AT_2 = 0.04890051070806112


def e1_quadrature(z: float) -> float:
    """Independent oracle: adaptive quadrature of the defining integral."""
    f = lambda t: math.exp(-t) / t
    if z >= 1.0:
        val, _ = integrate.quad(f, z, np.inf, epsabs=0, epsrel=1e-13, limit=400)
        return val
    head, _ = integrate.quad(f, z, 1.0, epsabs=0, epsrel=1e-13, limit=400)
    tail, _ = integrate.quad(f, 1.0, np.inf, epsabs=0, epsrel=1e-13, limit=400)
    return head + tail


class TestExpIntegral:
    def test_frozen_values(self):
        assert exp_integral_e1(1.0) == pytest.approx(E1_AT_1, rel=1e-13)
        assert exp_integral_e1(2.0) == pytest.approx(E1_AT_2, rel=1e-13)

    def test_against_quadrature_grid(self):
        for z in np.logspace(-8, np.log10(700.0), 60):
            assert exp_integral_e1(float(z)) == pytest.approx(e1_quadrature(float(z)), rel=1e-12)

    def test_frullani_limit(self):
        # difference at a vanishing argument tends to log(alpha'/alpha)
        diff = exp_integral_e1(1e-8) - exp_integral_e1(2e-8)
        assert diff == pytest.approx(math.log(2.0), abs=1e-6)

    def test_underflow_returns_zero(self):
        assert exp_integral_e1(746.0) == 0.0
        assert exp_integral_e1(5000.0) == 0.0

    def test_domain_errors(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                exp_integral_e1(bad)

    def test_derivative_recurrence(self):
        # dE1/dz = -exp(-z)/z, checked by central differences
        for z in (0.1, 1.0, 10.0):
            h = 1e-5 * max(z, 1.0)
            numeric = (exp_integral_e1(z + h) - exp_integral_e1(z - h)) / (2 * h)
            exact = -math.exp(-z) / z
            assert numeric == pytest.approx(exact, rel=1e-6)

    def test_strictly_decreasing_and_positive(self):
        rng = np.random.default_rng(11)
        zs = np.sort(rng.uniform(1e-6, 100.0, size=200))
        vals = np.array([exp_integral_e1(float(z)) for z in zs])
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)


class TestExpIntegralValues:
    def test_equals_the_scalar_bit_for_bit(self):
        zs = [1e-8, 0.3, 1.0, 2.0, 17.5, 700.0, 744.9, 745.0, 745.1, 746.0, 5000.0, math.inf]
        got = exp_integral_e1_values(zs)
        assert got == [exp_integral_e1(z) if z < math.inf else 0.0 for z in zs]
        # exactly zero once exp(-z) underflows
        assert got[-4:] == [0.0] * 4
        assert exp_integral_e1_values([]) == []

    def test_domain_errors(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                exp_integral_e1_values([1.0, bad])


class TestGammaLogpdf:
    def test_exponential_at_one(self):
        assert gamma_logpdf(1.0, 1.0, 1.0) == pytest.approx(-1.0, abs=1e-14)

    def test_direct_formula(self):
        expected = 3 * math.log(1.5) + 2 * math.log(2.0) - 3.0 - math.log(2.0)
        assert gamma_logpdf(2.0, 3.0, 1.5) == pytest.approx(expected, rel=1e-14)

    def test_high_precision_reference(self):
        # frozen 30-digit evaluation of the shape-0.1 log-density
        assert gamma_logpdf(0.5, 0.1, 2.0) == pytest.approx(-2.5595654711742607, rel=1e-14)

    def test_domain_errors(self):
        for args in ((0.0, 1, 1), (1, 0.0, 1), (1, 1, 0.0), (-1, 1, 1), (1, 1, math.inf)):
            with pytest.raises(DomainError):
                gamma_logpdf(*args)

    @pytest.mark.parametrize("shape", [0.5, 1.0, 5.0])
    @pytest.mark.parametrize("rate", [0.5, 2.0])
    def test_normalization_by_trapezoid(self, shape, rate):
        # substitute x = u^2 so the shape-0.5 edge singularity integrates cleanly
        u = np.linspace(1e-8, math.sqrt(120.0 / rate), 200_000)
        x = u * u
        dens = 2.0 * u * np.exp([gamma_logpdf(float(v), shape, rate) for v in x])
        total = np.trapezoid(dens, u)
        assert total == pytest.approx(1.0, abs=1e-6)
