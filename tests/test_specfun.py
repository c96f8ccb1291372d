"""Exponential integral and Gamma log-density against independent oracles;
the scipy wrappers against scipy itself."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

import gammasub
from gammasub import DomainError, exp_integral_e1, gamma_logpdf
from gammasub.model import mass_factors
from gammasub.specfun import exp_integral_ei_values, log_gamma_values

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
        assert exp_integral_e1([1.0, 2.0]) == pytest.approx([E1_AT_1, E1_AT_2], rel=1e-13)

    def test_against_quadrature_grid(self):
        zs = np.logspace(-8, np.log10(700.0), 60).tolist()
        for z, value in zip(zs, exp_integral_e1(zs), strict=True):
            assert value == pytest.approx(e1_quadrature(z), rel=1e-12)

    def test_frullani_limit(self):
        # difference at a vanishing argument tends to log(alpha'/alpha)
        near, far = exp_integral_e1([1e-8, 2e-8])
        assert near - far == pytest.approx(math.log(2.0), abs=1e-6)

    def test_underflow_returns_zero(self):
        # exactly zero once exp(-z) underflows, and at z = inf, the limit
        assert exp_integral_e1([746.0, 5000.0, math.inf]) == [0.0] * 3

    def test_domain_errors(self):
        for bad in (0.0, -1.0, -math.inf, math.nan):
            with pytest.raises(DomainError):
                exp_integral_e1([bad])

    def test_derivative_recurrence(self):
        # dE1/dz = -exp(-z)/z, checked by central differences
        for z in (0.1, 1.0, 10.0):
            h = 1e-5 * max(z, 1.0)
            above, below = exp_integral_e1([z + h, z - h])
            exact = -math.exp(-z) / z
            assert (above - below) / (2 * h) == pytest.approx(exact, rel=1e-6)

    def test_strictly_decreasing_and_positive(self):
        rng = np.random.default_rng(11)
        zs = np.sort(rng.uniform(1e-6, 100.0, size=200))
        vals = np.array(exp_integral_e1(zs))
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)


class TestExpIntegralValues:
    def test_equals_the_scalar_bit_for_bit(self):
        # one call for many points, as mass_factors makes it, gives each
        # point's one-point value
        zs = [1e-8, 0.3, 1.0, 2.0, 17.5, 700.0, 744.9, 745.0, 745.1, 746.0, 5000.0, math.inf]
        got = exp_integral_e1(zs)
        assert got == [exp_integral_e1([z])[0] for z in zs]
        assert all(type(v) is float for v in got)
        # exactly zero once exp(-z) underflows
        assert got[-4:] == [0.0] * 4
        assert exp_integral_e1([]) == []

    def test_domain_errors(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                exp_integral_e1([1.0, bad])


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


class TestScipyWrappers:
    """The Ei and lnGamma wrappers give scipy's own values, bit for bit."""

    # -c * b for the interior bins mass_factors integrates with Ei (c = slope
    # + alpha < 0), and beta * h for the beta move's lnGamma at the spans h
    EI_GRID = np.concatenate([np.logspace(-9, 2.5, 400), [1e-300, 0.5, 1.0, 2.0, 700.0]])
    GAMMALN_GRID = np.outer(np.logspace(-3, 2.5, 60), [0.02, 0.1, 0.25, 1.0, 4.0]).ravel()

    def test_ei_equals_scipy_expi(self):
        got = exp_integral_ei_values(self.EI_GRID)
        assert got.tobytes() == special.expi(self.EI_GRID).tobytes()
        # mass_factors passes a pair of floats; each equals the scalar call
        for lo, hi in zip(self.EI_GRID[:-1], self.EI_GRID[1:]):
            pair = exp_integral_ei_values([float(hi), float(lo)])
            assert (pair[0], pair[1]) == (special.expi(float(hi)), special.expi(float(lo)))

    def test_mass_factors_ei_branch_equals_scipy(self):
        # interior bins with slope + alpha < 0, = 0 and > 0, then a tail bin
        alpha, slopes, edges = 0.5, [-0.9, -0.5, -0.7, 0.3], [0.4, 1.1, 2.5, 6.0]
        _, units, _ = mass_factors(alpha, slopes, edges)
        for k in (0, 2):
            c = slopes[k] + alpha
            assert c < 0
            assert units[k] == float(special.expi(-c * edges[k + 1]) - special.expi(-c * edges[k]))
        assert units[1] == math.log(edges[2] / edges[1])

    def test_log_gamma_equals_scipy_gammaln(self):
        got = log_gamma_values(self.GAMMALN_GRID)
        assert got.tobytes() == special.gammaln(self.GAMMALN_GRID).tobytes()
        spans = np.array([0.25, 0.5, 1.0])
        for beta in (0.05, 0.44, 1.0, 37.0):
            assert (log_gamma_values(beta * spans).tobytes()
                    == special.gammaln(beta * spans).tobytes())


def test_only_specfun_imports_scipy():
    package = Path(gammasub.__file__).resolve().parent
    importers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.append(path.name)
    assert set(importers) == {"specfun.py"}
