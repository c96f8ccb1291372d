"""Special functions backing the bin-mass and acceptance-ratio formulas.

Two numeric primitives live here: the exponential integral E1, at one point
or at many from one scipy.special.exp1 call, and the log-density of the Gamma
distribution in shape/rate form.  All are pure functions, safe for
unrestricted concurrent use.
"""

import math

from scipy.special import exp1

from .exceptions import DomainError

# exp(-z) underflows to subnormal garbage past here; bin masses this far out
# are treated as exactly zero rather than raising.
_UNDERFLOW_Z = 745.0


def exp_integral_e1(z: float) -> float:
    """Exponential integral E1(z) = integral of exp(-t)/t over t in [z, inf).

    A scalar wrapper of scipy.special.exp1 that returns exactly 0.0 once
    exp(-z) underflows.

    Raises:
        DomainError: if z is not a finite positive number.
    """
    z = float(z)
    if not math.isfinite(z) or z <= 0.0:
        raise DomainError(f"E1 requires finite z > 0, got {z!r}")
    if z > _UNDERFLOW_Z:
        return 0.0
    return float(exp1(z))


def exp_integral_e1_values(zs) -> list[float]:
    """E1 at each z of a sequence, from one scipy.special.exp1 call, as floats.

    Each value equals exp_integral_e1(z) bit for bit, exactly 0.0 once z
    exceeds 745; an infinite z gives that limit, 0.0, too.

    Raises:
        DomainError: if some z is not a positive number.
    """
    values = exp1(zs).tolist()
    # exp1 gives nan below 0 and at nan, inf at 0, and finite values elsewhere
    if not math.isfinite(sum(values)):
        raise DomainError(f"E1 requires z > 0, got {list(zs)!r}")
    if values and max(zs) > _UNDERFLOW_Z:
        values = [0.0 if z > _UNDERFLOW_Z else e for z, e in zip(zs, values)]
    return values


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
