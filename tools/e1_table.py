"""Write src/gammasub/_e1_table.py, the coefficient table of specfun's E1 kernel.

Every coefficient is computed at 40 significant digits with mpmath and then
rounded once to a double:

- SERIES: below 1, E1(z) = z - EULER + z^2 Q(z) - ln z, the entire series
  -EULER - ln z - sum_k (-z)^k / (k k!) cut at k = 19.  Q holds the Taylor
  coefficients -1/4, 1/18, ... of the terms k >= 2; adding the k = 1 term
  z to -EULER first keeps every partial sum near z = 1 about as small as
  E1 itself (2.5e-16 relative there, against 6e-16 for -EULER - ln z
  + z P(z) with P = 1 + z Q);
- PIECES: on [1, 16), g(z) = z e^z E1(z) on each of 16 quarter-octaves
  [a, a + w), a Chebyshev interpolant of degree 11 in z - mid (mid = a + w/2)
  converted to the power basis;
- TAIL: on [16, UNDERFLOW), g as a Chebyshev interpolant of degree 14 in
  1/z over [0, 1/16], g(inf) = 1;
- UNDERFLOW: the least double at which E1 is below half the least
  subnormal, 2^-1075, so that it rounds to 0.0 there and above.

Run `python3 tools/e1_table.py` to rewrite the table;
`tests/test_specfun.py` regenerates it and compares it with the committed
file.  Needs mpmath.
"""

import math
import textwrap
from pathlib import Path

import mpmath as mp

SERIES_DEGREE = 17
PIECE_DEGREE = 11
TAIL_DEGREE = 14
TABLE = Path(__file__).resolve().parent.parent / "src" / "gammasub" / "_e1_table.py"

HEADER = '''\
"""E1 coefficient table: written by tools/e1_table.py from 40-digit mpmath
values (see its docstring); do not edit.  Coefficients run from the highest
degree down.  specfun's E1 kernel is

    z < 1:                z - EULER + z^2 SERIES(z) - ln z
    1 <= z < 16:          g(z) e^-z / z,  with mid, g = PIECES[int(4 z)] in z - mid
    16 <= z < UNDERFLOW:  g(z) e^-z / z,  with g = TAIL in 1/z
    z >= UNDERFLOW:       0.0
"""
'''


def g(z):
    """z e^z E1(z), and its limit 1 at z = inf."""
    return z * mp.exp(z) * mp.e1(z) if z != mp.inf else mp.mpf(1)


def fit(f, a, b, degree):
    """Power-basis coefficients, highest first, of f's degree-`degree`
    Chebyshev interpolant on [a, b], as doubles."""
    coefficients = mp.chebyfit(f, [a, b], degree + 1)
    return tuple(float(c) for c in coefficients)


def _floats(values, indent: int) -> str:
    """values as a tuple literal wrapped to 100 columns, continuation lines
    indented by indent + 1."""
    text = ", ".join(map(repr, values))
    lines = textwrap.wrap(text, 99 - indent, break_on_hyphens=False)
    return "(" + ("\n" + " " * (indent + 1)).join(lines) + ")"


def table_source() -> str:
    """The text of _e1_table.py."""
    mp.mp.dps = 40
    series = tuple(float(mp.mpf((-1) ** (k + 1)) / (k * mp.factorial(k)))
                   for k in range(SERIES_DEGREE + 2, 1, -1))
    pieces = []
    for octave in range(4):
        width = mp.mpf(2) ** octave / 4
        for quarter in range(4):
            mid = mp.mpf(2) ** octave + (quarter + mp.mpf(1) / 2) * width
            coefficients = fit(lambda u: g(mid + u), -width / 2, width / 2, PIECE_DEGREE)
            pieces.append(f"    ({float(mid)!r},\n     {_floats(coefficients, 5)}),\n")
    tail = fit(lambda w: g(1 / w) if w else mp.mpf(1), 0, mp.mpf(1) / 16, TAIL_DEGREE)
    half_subnormal = mp.mpf(2) ** -1075
    underflow = float(mp.findroot(lambda z: mp.e1(z) - half_subnormal, 740))
    assert mp.e1(math.nextafter(underflow, 0)) > half_subnormal > mp.e1(underflow)
    return (HEADER
            + f"\nEULER = {float(mp.euler)!r}\n"
            + f"\nSERIES = {_floats(series, 9)}\n"
            + "\n# the quarter-octaves [1, 1.25), [1.25, 1.5), ..., [14, 16)\n"
            + "_QUARTER_OCTAVES = (\n" + "".join(pieces) + ")\n"
            + "# int(4 z) for z in [1, 16) is 4..63; octave e holds 2^e slots per piece\n"
            + "PIECES = (None,) * 4 + tuple(piece for e in range(4)\n"
            + "                             for piece in _QUARTER_OCTAVES[4 * e:4 * e + 4]\n"
            + "                             for _ in range(2 ** e))\n"
            + f"\nTAIL = {_floats(tail, 7)}\n"
            + f"\nUNDERFLOW = {underflow!r}\n")


if __name__ == "__main__":
    TABLE.write_text(table_source())
