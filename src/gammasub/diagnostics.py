"""Post-processing of chain records: traces, bands and histograms as CSV tables.

Every emitter is a pure transform of the chain records: running the same
input twice produces byte-identical files.  The tables are plain CSV, which
any plotting tool reads, so the core carries no plotting dependency.  The
band's quantiles come from an in-place partition, not numpy.quantile, so
computing a band loads no numpy.ma.  A series whose sums or range leave the
float range is refused with DomainError rather than widened.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .model import bin_classify, theta_rows

__all__ = [
    "BandSpec",
    "running_average",
    "credible_band",
    "histogram",
    "write_series_csv",
]

FUNCTIONALS = ("theta_plus_alpha_x", "neg_log_levy_x")


@dataclass(frozen=True)
class BandSpec:
    """Grid, level, and target functional for a pointwise credible band.

    Functionals: "theta_plus_alpha_x" is theta(x) + alpha*x, the cumulative
    tilt exponent; "neg_log_levy_x" is -ln(x * v(x)) = theta(x) + alpha*x -
    ln(beta), the log slope of the jump density.
    """

    x_grid: np.ndarray
    level: float = 0.95
    functional: str = "theta_plus_alpha_x"

    def __post_init__(self):
        grid = np.asarray(self.x_grid, dtype=float).reshape(-1).copy()
        grid.flags.writeable = False
        object.__setattr__(self, "x_grid", grid)
        if not (grid.size and np.all(np.isfinite(grid) & (grid > 0)) and np.all(np.diff(grid) > 0)):
            raise DomainError("x_grid must be finite, positive and strictly increasing")
        if not 0.0 < self.level < 1.0:
            raise DomainError(f"level must be in (0, 1), got {self.level}")
        if self.functional not in FUNCTIONALS:
            raise DomainError(f"unknown functional {self.functional!r}; expected one of {FUNCTIONALS}")


def running_average(series) -> np.ndarray:
    """Cumulative means r_j = (1/j) * sum_{i<=j} s_i.

    DomainError where the last running sum is not a finite float: a prefix
    sum overflowed, or the series holds an infinity or a NaN."""
    arr = np.asarray(series, dtype=float).reshape(-1)
    if arr.size == 0:
        raise DomainError("series must be non-empty")
    with np.errstate(over="ignore"):
        sums = np.cumsum(arr)
    if not math.isfinite(sums[-1]):     # an overflowed prefix leaves every later sum infinite
        raise DomainError(f"the running sum of the series is {float(sums[-1])!r}, "
                          "not a finite float")
    return sums / np.arange(1, arr.size + 1)


def credible_band(samples, spec: BandSpec) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise empirical quantile envelope of the functional over samples.

    samples is a sequence of ModelParams with equal bin edges (else
    DomainError).  Their floats are gathered once, theta's as the (N+1, S)
    rows of model.theta_rows; then the band takes one grid point at a time,
    so its working memory is O(S) whatever the grid.  At each grid point the
    band is the ((1-level)/2, 1-(1-level)/2) quantile pair of the functional
    values, using the inverse empirical CDF with linear interpolation
    (_quantile_pair, which is numpy.quantile's "linear" method bit for bit).
    DomainError names the first grid point whose band edge is not a finite
    float: a functional value there overflowed.
    """
    samples = list(samples)
    if len(samples) < 2:
        raise DomainError("need at least two samples for a band")
    edges = samples[0].bin_edges
    if any(p.bin_edges != edges for p in samples):
        raise DomainError("samples must share their bin edges")
    slopes, intercepts = theta_rows(np.array([p.theta_slopes for p in samples]).T,
                                    np.array([p.theta_intercepts for p in samples]).T)
    alpha = np.fromiter((p.alpha for p in samples), float, len(samples))
    log_beta = (np.fromiter((math.log(p.beta) for p in samples), float, len(samples))
                if spec.functional == "neg_log_levy_x" else None)
    tail = (1.0 - spec.level) / 2.0
    x = spec.x_grid
    bands = np.empty((2, x.size))
    # an overflow shows as an edge that is not finite, which is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (k, x_j) in enumerate(zip(bin_classify(x, edges), x)):
            values = intercepts[k] + slopes[k] * x_j
            values += alpha * x_j
            if log_beta is not None:
                values -= log_beta
            lo, hi = bands[:, j] = _quantile_pair(values, tail)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise DomainError(f"the band's edges at x = {float(x_j)!r} are ({lo!r}, {hi!r}): "
                                  f"its {spec.functional} values overflow the float range")
    return bands[0], bands[1]


def _quantile_pair(values: np.ndarray, tail: float) -> tuple[float, float]:
    """numpy.quantile(values, [tail, 1 - tail], overwrite_input=True), bit for bit.

    Hyndman & Fan's type 7 quantile (numpy's "linear") at q interpolates the
    order statistics either side of (n - 1) * q, so one in-place partition of
    values at those ranks, and at numpy's own 0 and n - 1, gives both levels.
    numpy.quantile calls numpy.unique, which loads numpy.ma (about 1.3 MB
    resident) into every process that draws a band.  The interpolation is
    numpy's _lerp.
    """
    n = values.size
    pairs = []
    for q in (tail, 1.0 - tail):
        virtual = (n - 1) * q
        lo = min(math.floor(virtual), n - 1)       # at or past n - 1: the maximum
        pairs.append((lo, min(lo + 1, n - 1), virtual - lo))
    values.partition(sorted({0, n - 1, *(k for lo, hi, _ in pairs for k in (lo, hi))}))
    if math.isnan(values[-1]):                     # a NaN sorts last and is the quantile
        return math.nan, math.nan
    out = []
    for lo, hi, t in pairs:
        a, b = float(values[lo]), float(values[hi])
        d = b - a
        out.append(a + d * t if t < 0.5 else b - d * (1.0 - t))
    return out[0], out[1]


def histogram(series, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy.histogram(series, bins): equal-width bins over [min, max], a
    constant series over [v - 1/2, v + 1/2]; counts sum to len(series).
    DomainError where max - min is not a finite float, or where the range
    is too narrow for bins distinct edges."""
    arr = np.asarray(series, dtype=float).reshape(-1)
    if arr.size == 0:
        raise DomainError("series must be non-empty")
    if bins < 1:
        raise DomainError(f"bins must be >= 1, got {bins}")
    lo, hi = float(arr.min()), float(arr.max())
    if not math.isfinite(hi - lo):
        raise DomainError(f"the width of the range [{lo!r}, {hi!r}] is not a finite float")
    try:
        counts, edges = np.histogram(arr, bins=bins)
    except ValueError as exc:           # numpy's "Too many bins for data range"
        raise DomainError(f"the range [{lo!r}, {hi!r}] is too narrow for {bins} bins: "
                          f"{exc}") from None
    return edges, counts


def write_series_csv(stream, columns: dict) -> None:
    """Write named equal-length columns as CSV with full precision."""
    names = list(columns)
    arrays = [np.asarray(columns[n]).reshape(-1) for n in names]
    stream.write(",".join(names) + "\n")
    for row in zip(*arrays):
        stream.write(",".join(repr(float(v)) for v in row) + "\n")
