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

# Ei switches from its power series to its asymptotic series here
EI_ASYMPTOTIC = 40.0


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
    each finite x > 0 of a sequence; +inf where Ei itself overflows, from
    x ≈ 716.355 up.

    Below EI_ASYMPTOTIC (40) it is EULER + ln x + sum_k x^k / (k k!), a sum
    of positive terms taken until one no longer changes it.  From 40 to 717
    it is the asymptotic series e^(x/2) (e^(x/2) / x) sum_k k! / x^k, cut
    before the first term below 1e-17 or larger than the one before it, and
    summed from the smallest term: within 5e-16 of 40-digit values, at most
    about 40 terms.  The split exponential keeps Ei finite past the overflow
    of e^x (709.78).  Past 717 it is +inf without a sum.
    """
    out = []
    for x in xs:
        if not 0.0 < x < math.inf:
            raise DomainError(f"Ei requires finite x > 0, got {x!r}")
        if x < EI_ASYMPTOTIC:
            total, last, term, k = 0.0, -1.0, 1.0, 1
            while total != last:
                last, term = total, term * x / k
                total += term / k
                k += 1
            out.append(EULER + math.log(x) + total)
        elif x <= 717.0:
            # k! / x^k is smallest near k = x; n is the last term kept
            term, n = 1.0, 0
            while True:
                next_term = term * (n + 1) / x
                if next_term < 1e-17 or next_term > term:
                    break
                term, n = next_term, n + 1
            series = 1.0
            for k in range(n, 0, -1):
                series = 1.0 + series * k / x
            half = math.exp(0.5 * x)
            out.append(half * (half / x * series))
        else:
            # past the overflow, before math.exp(x / 2) raises (x > 1419.6)
            out.append(math.inf)
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
