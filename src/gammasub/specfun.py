"""Special functions backing the bin-mass and acceptance-ratio formulas.

exp_integral_e1 gives E1 at a sequence of points: model.mass_factors reads
every bin mass of a parameter vector from one call, and E1(alpha b_1), the
B_0 term.  exp_integral_ei_values gives the Ei difference of an interior
bin whose slope + alpha is negative.  gamma_logpdf is the Gamma log-density
in shape/rate form.  All are pure functions on Python floats; the package
loads no scipy.  E1 is a fixed-cost kernel on the coefficient table
_e1_table (see there and tools/e1_table.py), within 4e-16 relative of
40-digit values over [1e-10, 700].
"""

import math

from ._e1_table import EULER, PIECES, SERIES, TAIL, UNDERFLOW
from .exceptions import DomainError


def exp_integral_e1(zs) -> list[float]:
    """E1(z) = integral of exp(-t)/t over t in [z, inf) at each z of a
    sequence, as floats; exactly 0.0 where E1 rounds to 0 (from z = UNDERFLOW,
    about 738.53, up) and at z = inf, the limit.

    Raises:
        DomainError: if some z is not a positive number.
    """
    exp, log, pieces = math.exp, math.log, PIECES
    out = []
    for z in zs:
        if 1.0 <= z < 16.0:
            mid, (c11, c10, c9, c8, c7, c6, c5, c4, c3, c2, c1, c0) = pieces[int(4.0 * z)]
            u = z - mid
            out.append((c0 + u * (c1 + u * (c2 + u * (c3 + u * (c4 + u * (c5 + u * (c6 + u * (
                c7 + u * (c8 + u * (c9 + u * (c10 + u * c11))))))))))) * exp(-z) / z)
        elif 0.0 < z < 1.0:
            series = 0.0
            for c in SERIES:
                series = series * z + c
            out.append(z - EULER + z * z * series - log(z))
        elif 16.0 <= z < UNDERFLOW:
            w, g = 1.0 / z, 0.0
            for c in TAIL:
                g = g * w + c
            out.append(g * w * exp(-z))
        elif z >= UNDERFLOW:
            out.append(0.0)
        else:
            # 0, a negative z and NaN, which fails every comparison above
            raise DomainError(f"E1 requires z > 0, got {z!r} in {list(zs)!r}")
    return out


def exp_integral_ei_values(xs) -> list[float]:
    """Ei(x), the principal value of the integral of exp(t)/t over t < x, at
    each finite x > 0 of a sequence: EULER + ln x + sum_k x^k / (k k!), a sum
    of positive terms taken until one no longer changes it; +inf from x =
    707.42 up, where the largest terms overflow (Ei itself near 716)."""
    out = []
    for x in xs:
        if not 0.0 < x < math.inf:
            raise DomainError(f"Ei requires finite x > 0, got {x!r}")
        total, last, term, k = 0.0, -1.0, 1.0, 1
        while total != last:
            last, term = total, term * x / k
            total += term / k
            k += 1
        out.append(EULER + math.log(x) + total)
    return out


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
