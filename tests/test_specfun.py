"""Exponential integrals, lnGamma and the Gamma log-density against
independent oracles: quadrature, frozen values, scipy.special and 40-digit
mpmath; and the E1 kernel's coefficient table at its seams."""

import ast
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

import gammasub
from gammasub import DomainError, exp_integral_e1, gamma_logpdf
from gammasub._e1_table import EULER, PIECES, SERIES, TAIL, UNDERFLOW
from gammasub.model import mass_factors
from gammasub.specfun import EI_ASYMPTOTIC, exp_integral_ei_values

REPO = Path(__file__).resolve().parent.parent

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
        for bad in (0.0, -0.0, -5e-324, -1.0, -math.inf, math.nan):
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


def horner(coefficients, x: float) -> float:
    value = 0.0
    for c in coefficients:
        value = value * x + c
    return value


def e1_branches_at(b: float) -> tuple[float, float]:
    """E1 at a seam b of the kernel from the branch below b and from the
    branch that holds b, each evaluated by the table's formula."""
    def piece(slot):
        mid, coefficients = PIECES[slot]
        return horner(coefficients, b - mid) * math.exp(-b) / b
    below = b - EULER + b * b * horner(SERIES, b) - math.log(b) if b == 1.0 else piece(
        int(4 * b) - 1)
    at = horner(TAIL, 1 / b) * (1 / b) * math.exp(-b) if b == 16.0 else piece(int(4 * b))
    return below, at


class TestE1Kernel:
    """The E1 kernel's seams and edges, and its accuracy against 40-digit mpmath."""

    SEAMS = [2.0 ** e * (1 + q / 4) for e in range(4) for q in range(4)] + [16.0]

    def test_neighbouring_branches_agree_at_every_seam(self):
        assert self.SEAMS[:5] == [1.0, 1.25, 1.5, 1.75, 2.0]
        for b in self.SEAMS:
            below, at = e1_branches_at(b)
            assert exp_integral_e1([b]) == [at]
            assert abs(below - at) <= 2 * math.ulp(at), b

    def test_strictly_decreasing_across_every_seam(self):
        for b in self.SEAMS:
            step = 64 * math.ulp(b)
            zs = [b - step, math.nextafter(b, 0), b, math.nextafter(b, math.inf), b + step]
            values = exp_integral_e1(zs)
            assert all(map(float.__ge__, values, values[1:])), b
            assert values[0] > values[2] > values[4], b

    def test_underflow_edge(self):
        # below UNDERFLOW, E1 rounds to the least subnormal; from it up, to 0.0
        assert 738.0 < UNDERFLOW < 739.0
        assert exp_integral_e1([math.nextafter(UNDERFLOW, 0)]) == [5e-324]
        assert exp_integral_e1([UNDERFLOW, 745.0, 1e300, math.inf]) == [0.0] * 4

    def test_within_1e_15_of_40_digit_values(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        zs = np.logspace(-10, math.log10(700.0), 1500).tolist()
        zs += [b * (1 + d) for b in self.SEAMS for d in (-1e-9, 1e-9)]
        for z, value in zip(zs, exp_integral_e1(zs), strict=True):
            exact = mp.e1(z)
            assert abs(value - exact) <= 1e-15 * exact, z

    def test_committed_table_is_the_generator_output(self):
        pytest.importorskip("mpmath")
        spec = importlib.util.spec_from_file_location("e1_table", REPO / "tools" / "e1_table.py")
        generator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generator)
        assert generator.TABLE.read_text() == generator.table_source()


def ei_power_series(x: float) -> float:
    """Ei by its power series EULER + ln x + sum_k x^k / (k k!), the branch
    exp_integral_ei_values takes below 40."""
    total, last, term, k = 0.0, -1.0, 1.0, 1
    while total != last:
        last, term = total, term * x / k
        total += term / k
        k += 1
    return EULER + math.log(x) + total


class TestEiKernel:
    """Ei's asymptotic branch from x = 40 up, its seam and its overflow."""

    def test_within_4e_15_of_40_digit_values(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        xs = np.linspace(40.0, 716.0, 1500).tolist() + [math.nextafter(40.0, 0), 716.35]
        for x, value in zip(xs, exp_integral_ei_values(xs), strict=True):
            exact = mp.ei(x)
            assert abs(value - exact) <= 4e-15 * exact, x

    def test_branches_agree_at_the_seam(self):
        seam = EI_ASYMPTOTIC
        assert seam == 40.0
        at = exp_integral_ei_values([seam])[0]
        assert abs(ei_power_series(seam) - at) <= 2 * math.ulp(at)
        xs = [seam - 64 * math.ulp(seam), math.nextafter(seam, 0), seam,
              math.nextafter(seam, math.inf), seam + 64 * math.ulp(seam)]
        values = exp_integral_ei_values(xs)
        assert all(map(float.__lt__, values, values[1:]))

    def test_infinite_only_where_ei_overflows(self):
        # mpmath: Ei(716.355) = 1.7968e308, below the largest float, and
        # Ei(716.356) = 1.7986e308 above it; e^x alone overflows from 709.78
        last, first = exp_integral_ei_values([716.355, 716.356])
        assert math.isfinite(last) and last > 1.79e308
        assert first == math.inf
        assert exp_integral_ei_values([717.0, 1e4, 1e300]) == [math.inf] * 3


class TestScipyWrappers:
    """E1, Ei and the beta move's lnGamma against scipy.special, an independent oracle.

    Near a zero of Ei (x = 0.3725...) or of lnGamma (x = 1, 2) neither side
    has relative accuracy, so the lnGamma tolerance is relative to
    max(|value|, 1).  scipy's own expi is 2.2e-14 from the 40-digit value at
    x = 40.4, a grid point, so Ei is also checked against mpmath at 4e-15.
    """

    # -c * b for the interior bins mass_factors integrates with Ei (c = slope
    # + alpha < 0), and beta * h for the beta move's lnGamma at the spans h
    EI_GRID = np.concatenate([np.logspace(-9, 2.5, 400), [1e-300, 0.5, 1.0, 2.0, 700.0]])
    GAMMALN_GRID = np.outer(np.logspace(-3, 2.5, 60), [0.02, 0.1, 0.25, 1.0, 4.0]).ravel()

    def test_e1_close_to_scipy_exp1(self):
        zs = np.concatenate([np.logspace(-10, math.log10(700.0), 2000),
                             np.linspace(1.0, 16.0, 601)])
        assert exp_integral_e1(zs.tolist()) == pytest.approx(special.exp1(zs), rel=4e-15)

    def test_ei_equals_scipy_expi(self):
        got = exp_integral_ei_values(self.EI_GRID.tolist())
        assert all(type(v) is float for v in got)
        assert got == pytest.approx(special.expi(self.EI_GRID), rel=2.5e-14)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        for x, value in zip(self.EI_GRID.tolist(), got):
            exact = mp.ei(x)
            assert abs(value - exact) <= 4e-15 * abs(exact), x
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                exp_integral_ei_values([bad])

    def test_mass_factors_ei_branch_equals_scipy(self):
        # interior bins with slope + alpha < 0, = 0 and > 0, then a tail bin
        alpha, slopes, edges = 0.5, [-0.9, -0.5, -0.7, 0.3], [0.4, 1.1, 2.5, 6.0]
        _, units = mass_factors(alpha, slopes, edges)
        for k in (0, 2):
            c = slopes[k] + alpha
            assert c < 0
            hi, lo = special.expi(-c * edges[k + 1]), special.expi(-c * edges[k])
            assert units[k] == pytest.approx(hi - lo, rel=4e-15, abs=4e-15 * abs(lo))
        assert units[1] == math.log(edges[2] / edges[1])

    def test_log_gamma_equals_scipy_gammaln(self):
        # the beta move's lnGamma is math.lgamma at each beta * h
        got = np.array([math.lgamma(x) for x in self.GAMMALN_GRID.tolist()])
        expected = special.gammaln(self.GAMMALN_GRID)
        assert np.all(np.abs(got - expected) <= 4e-15 * np.maximum(np.abs(expected), 1))


def test_no_module_imports_scipy():
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
    assert importers == []
