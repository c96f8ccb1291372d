"""Special functions backing the bin-mass and acceptance-ratio formulas.

exp_integral_e1 gives E1 at a sequence of points from one scipy call:
model.mass_factors reads every bin mass of a parameter vector from it,
and E1(alpha b_1), the B_0 term.  exp_integral_ei_values gives the Ei
difference of an interior bin whose slope + alpha is negative, and
log_gamma_values the lnGamma terms of the beta move's Gamma density ratio.
gamma_logpdf is the Gamma log-density in shape/rate form.

This is the one module of the package that calls scipy: the E1, Ei and
lnGamma wrappers import scipy.special at their call, so a run that
evaluates none of them (a binless fit with fixed beta; simulate, ingest
and diagnose) never loads it.  All are pure functions.
"""

import math

from .exceptions import DomainError


def exp_integral_e1(zs) -> list[float]:
    """E1(z) = integral of exp(-t)/t over t in [z, inf) at each z of a
    sequence, from one scipy.special.exp1 call, as floats.

    scipy's exp1 gives exactly 0.0 where E1 underflows (from about z = 740
    up) and at an infinite z, the limit, so its values are used as they are.

    Raises:
        DomainError: if some z is not a positive number.
    """
    from scipy.special import exp1

    values = exp1(zs).tolist()
    # exp1 gives nan below 0 and at nan, inf at 0, and finite values elsewhere
    if not math.isfinite(sum(values)):
        raise DomainError(f"E1 requires z > 0, got {list(zs)!r}")
    return values


def exp_integral_ei_values(xs):
    """Ei(x), the principal value of the integral of exp(t)/t over t < x, at
    each x of a sequence: scipy.special.expi's own array."""
    from scipy.special import expi

    return expi(xs)


def log_gamma_values(xs):
    """lnGamma(x) at each x of an array: scipy.special.gammaln's own array."""
    from scipy.special import gammaln

    return gammaln(xs)


def gamma_logpdf(x: float, shape: float, rate: float) -> float:
    """Log-density of Gamma(shape, rate) at x.

    Returns shape*ln(rate) + (shape-1)*ln(x) - rate*x - lnGamma(shape).

    Raises:
        DomainError: if any argument is non-positive or non-finite.
    """
    x = float(x)
    shape = float(shape)
    rate = float(rate)
    for name, v in (("x", x), ("shape", shape), ("rate", rate)):
        if not math.isfinite(v) or v <= 0.0:
            raise DomainError(f"gamma_logpdf requires finite {name} > 0, got {v!r}")
    return shape * math.log(rate) + (shape - 1.0) * math.log(x) - rate * x - math.lgamma(shape)
