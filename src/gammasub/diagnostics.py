"""Post-processing of chain records: traces, bands, histograms, SVG/CSV output.

Every emitter is a pure transform of the chain records: running the same
input twice produces byte-identical files.  Plots are written as small
self-contained SVG documents so the core carries no plotting dependency.
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
    "write_line_svg",
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
    """Cumulative means r_j = (1/j) * sum_{i<=j} s_i."""
    arr = np.asarray(series, dtype=float).reshape(-1)
    if arr.size == 0:
        raise DomainError("series must be non-empty")
    return np.cumsum(arr) / np.arange(1, arr.size + 1)


def credible_band(samples, spec: BandSpec) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise empirical quantile envelope of the functional over samples.

    samples is a sequence of ModelParams with equal bin edges (else
    DomainError).  Their floats are gathered once, theta's as the (N+1, S)
    rows of model.theta_rows; then the band takes one grid point at a time,
    so its working memory is O(S) whatever the grid.  At each grid point the
    band is the ((1-level)/2, 1-(1-level)/2) quantile pair of the functional
    values, using the inverse empirical CDF with linear interpolation.
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
    for j, (k, x_j) in enumerate(zip(bin_classify(x, edges), x)):
        values = intercepts[k] + slopes[k] * x_j
        values += alpha * x_j
        if log_beta is not None:
            values -= log_beta
        bands[:, j] = np.quantile(values, [tail, 1.0 - tail], overwrite_input=True)
    return bands[0], bands[1]


def histogram(series, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Equal-width histogram over [min, max]; counts sum to len(series)."""
    arr = np.asarray(series, dtype=float).reshape(-1)
    if arr.size == 0:
        raise DomainError("series must be non-empty")
    if bins < 1:
        raise DomainError(f"bins must be >= 1, got {bins}")
    counts, edges = np.histogram(arr, bins=bins)
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
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * step:
        out.append(round(t, 12))
        t += step
    return out


def write_line_svg(stream, x, ys: dict, title: str = "",
                   xlabel: str = "", ylabel: str = "") -> None:
    """Render one or more named series against x as a standalone SVG."""
    x = np.asarray(x, dtype=float).reshape(-1)
    series = {name: np.asarray(v, dtype=float).reshape(-1) for name, v in ys.items()}
    xmin, xmax = float(x.min()), float(x.max())
    all_y = np.concatenate(list(series.values()))
    finite = all_y[np.isfinite(all_y)]
    ymin, ymax = (float(finite.min()), float(finite.max())) if finite.size else (0.0, 1.0)
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0
    pad = 0.05 * (ymax - ymin)
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
    for t in _ticks(xmin, xmax):
        px = sx(t)
        parts.append(f'<line x1="{px:.2f}" y1="{_H - _MB}" x2="{px:.2f}" '
                     f'y2="{_H - _MB + 4}" stroke="#333"/>')
        parts.append(f'<text x="{px:.2f}" y="{_H - _MB + 16}" text-anchor="middle">{t:g}</text>')
    for t in _ticks(ymin, ymax):
        py = sy(t)
        parts.append(f'<line x1="{_ML - 4}" y1="{py:.2f}" x2="{_ML}" y2="{py:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{_ML - 6}" y="{py + 3:.2f}" text-anchor="end">{t:g}</text>')
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
    stream.write("\n".join(parts) + "\n")
