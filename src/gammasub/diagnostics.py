"""Post-processing of chain records: traces, bands, histograms, SVG/CSV output.

Every emitter is a pure transform of the chain records: running the same
input twice produces byte-identical files.  Plots are written as small
self-contained SVG documents so the core carries no plotting dependency.
The band's quantiles come from an in-place partition, not numpy.quantile, so
drawing a band loads no numpy.ma.  One rule, _span, widens every range too
narrow for its steps: a series flat to float precision is drawn and binned as
a constant one is.
"""

import math
import sys
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
    "line_svg",
]

FUNCTIONALS = ("theta_plus_alpha_x", "neg_log_levy_x")
_MAX = sys.float_info.max


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

    Where a sum overflows, the series is summed scaled down by a power of two
    no smaller than its length, so that a finite series has finite means."""
    arr = np.asarray(series, dtype=float).reshape(-1)
    if arr.size == 0:
        raise DomainError("series must be non-empty")
    counts = np.arange(1, arr.size + 1)
    with np.errstate(over="ignore"):
        sums = np.cumsum(arr)
    if not math.isinf(sums[-1]):    # a prefix that overflowed leaves every later sum infinite
        return sums / counts
    scale = 2.0 ** math.ceil(math.log2(arr.size))
    # clipped to the series' range, no mean rounded up past the largest float overflows
    return np.clip(np.cumsum(arr / scale) / counts, arr.min() / scale, arr.max() / scale) * scale


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


def _span(lo: float, hi: float, n: int) -> tuple[float, float]:
    """The range values in [lo, hi] are drawn or binned over in n equal steps:
    [lo, hi] where its n steps are distinct floats, each at least the least
    normal float so that _ticks finds a round step; else [lo - 1/2, hi + 1/2],
    as numpy bins a constant series; else (|lo| or |hi| past about 2**52 / n)
    the range widened by 2n float spacings each way, clamped to the float
    range.  DomainError where hi - lo is not finite."""
    if not math.isfinite(hi - lo):
        raise DomainError(f"the width of the range [{lo!r}, {hi!r}] is not a finite float")
    for a, b in ((lo, hi), (lo - 0.5, hi + 0.5)):
        if (b - a) / n >= sys.float_info.min and np.all(np.diff(np.linspace(a, b, n + 1)) > 0):
            return a, b
    pad = 2 * n * math.ulp(max(-lo, hi))
    return max(lo - pad, -_MAX), min(hi + pad, _MAX)


def histogram(series, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Equal-width histogram over _span(min, max, bins); counts sum to len(series)."""
    arr = np.asarray(series, dtype=float).reshape(-1)
    if arr.size == 0:
        raise DomainError("series must be non-empty")
    if bins < 1:
        raise DomainError(f"bins must be >= 1, got {bins}")
    span = _span(float(arr.min()), float(arr.max()), bins)
    counts, edges = np.histogram(arr, bins=bins, range=span)
    return edges, counts


def write_series_csv(stream, columns: dict) -> None:
    """Write named equal-length columns as CSV with full precision."""
    names = list(columns)
    arrays = [np.asarray(columns[n]).reshape(-1) for n in names]
    stream.write(",".join(names) + "\n")
    for row in zip(*arrays):
        stream.write(",".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Minimal SVG line plots.  Fixed canvas, no timestamps, deterministic output.

_W, _H = 720, 440
_ML, _MR, _MT, _MB = 64, 16, 32, 44
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    """About n round ticks across _span(lo, hi, n): the integer multiples of one step."""
    lo, hi = _span(lo, hi, n)
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    return [i * step for i in range(math.ceil(lo / step), math.floor(hi / step + 1e-12) + 1)]


def _labels(ticks: list[float]) -> list[str]:
    """The ticks in the fewest significant digits, at least format g's 6, that
    tell them apart; 17 digits tell every two floats apart."""
    for digits in range(6, 18):
        labels = [f"{t:.{digits}g}" for t in ticks]
        if len(set(labels)) == len(labels):
            break
    return labels


def line_svg(x, ys: dict, title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """Named series against x as a standalone SVG document.  Each axis spans
    _span(min, max, 5) of its values (y's finite ones), y padded by 5% each
    way where that leaves its width finite, and labels its ticks as _labels
    prints them."""
    x = np.asarray(x, dtype=float).reshape(-1)
    series = {name: np.asarray(v, dtype=float).reshape(-1) for name, v in ys.items()}
    xmin, xmax = _span(float(x.min()), float(x.max()), 5)
    all_y = np.concatenate(list(series.values()))
    finite = all_y[np.isfinite(all_y)]
    ymin, ymax = _span(float(finite.min()), float(finite.max()), 5) if finite.size else (0.0, 1.0)
    pad = 0.05 * (ymax - ymin)
    if math.isfinite((ymax + pad) - (ymin - pad)):      # else drawn unpadded
        ymin, ymax = ymin - pad, ymax + pad

    def sx(v):
        return _ML + (v - xmin) / (xmax - xmin) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - ymin) / (ymax - ymin) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="11">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#333"/>',
    ]
    if title:
        parts.append(f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle">{title}</text>')
    ticks = _ticks(xmin, xmax)
    for t, label in zip(ticks, _labels(ticks)):
        px = sx(t)
        parts.append(f'<line x1="{px:.2f}" y1="{_H - _MB}" x2="{px:.2f}" '
                     f'y2="{_H - _MB + 4}" stroke="#333"/>')
        parts.append(f'<text x="{px:.2f}" y="{_H - _MB + 16}" text-anchor="middle">{label}</text>')
    ticks = _ticks(ymin, ymax)
    for t, label in zip(ticks, _labels(ticks)):
        py = sy(t)
        parts.append(f'<line x1="{_ML - 4}" y1="{py:.2f}" x2="{_ML}" y2="{py:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{_ML - 6}" y="{py + 3:.2f}" text-anchor="end">{label}</text>')
    if xlabel:
        parts.append(f'<text x="{_W / 2:.1f}" y="{_H - 8}" text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="14" y="{_H / 2:.1f}" text-anchor="middle" '
                     f'transform="rotate(-90 14 {_H / 2:.1f})">{ylabel}</text>')
    for idx, (name, vals) in enumerate(series.items()):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, vals) if math.isfinite(b))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>')
        parts.append(f'<text x="{_W - _MR - 8}" y="{_MT + 14 + 13 * idx}" '
                     f'text-anchor="end" fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
