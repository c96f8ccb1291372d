"""Discrete-grid Gamma process simulation and path transforms.

Everything here works at increment level: a path is its values on a refined
time grid, increments over sub-steps of span h are Gamma(beta*h, alpha), and
the bridge / activity-change transforms act on those increments.  The
transforms are row kernels on (rows, m) increment matrices, which the
sampler calls directly; the GridPath functions are one-row views of them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ContractError, DegeneratePathError, DomainError

__all__ = [
    "TimeGrid",
    "GridPath",
    "as_generator",
    "sample_gamma_path",
    "gamma_bridge",
    "sample_gamma_bridge",
    "augment_path",
    "thin_path",
    "pin_rows",
    "bridge_rows",
    "augment_rows",
    "thin_rows",
    "write_path_csv",
]

_RESAMPLE_LIMIT = 100
_TINY = np.finfo(float).tiny


def as_generator(seed) -> np.random.Generator:
    """Coerce an int seed, SeedSequence, or Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class TimeGrid:
    """Observation times plus a uniform refinement of each interval.

    Between consecutive observation times t_{i-1} < t_i the grid inserts
    points t_{i-1} + (j/m)(t_i - t_{i-1}), j = 0..m.
    """

    times: np.ndarray
    m: int = 1

    def __post_init__(self):
        arr = np.asarray(self.times, dtype=float).reshape(-1).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "times", arr)
        object.__setattr__(self, "m", int(self.m))
        if arr.size < 2:
            raise DomainError("grid needs at least two observation times")
        if not np.all(np.isfinite(arr)) or arr[0] < 0 or np.any(np.diff(arr) <= 0):
            raise DomainError("observation times must be finite, non-negative, strictly increasing")
        if self.m < 1:
            raise DomainError(f"refinement count must be >= 1, got {self.m}")

    @property
    def n_segments(self) -> int:
        return self.times.size - 1

    @property
    def spans(self) -> np.ndarray:
        """Lengths of the inter-observation intervals."""
        return self.times[1:] - self.times[:-1]

    @property
    def horizon(self) -> float:
        return float(self.times[-1] - self.times[0])

    def all_times(self) -> np.ndarray:
        """Every refined grid point, observation points included once."""
        t = self.times
        steps = (t[:-1, None] + np.arange(1, self.m + 1) / self.m * np.diff(t)[:, None]).ravel()
        out = np.concatenate(([t[0]], steps))
        # land exactly on the observation times
        out[self.m :: self.m] = t[1:]
        return out


@dataclass(frozen=True)
class GridPath:
    """A non-decreasing process path on an explicit grid.

    The step increments are the authoritative state: statistics read them
    directly, so steps far below the running value are not absorbed by the
    cumulative-sum rendering in ``values``.  Paths built from a value array
    get their increments by differencing; paths built by the samplers and
    transforms here carry the exact increments they were constructed from.
    """

    grid: TimeGrid
    values: np.ndarray
    increments: np.ndarray = None

    def __post_init__(self):
        arr = np.array(self.values, dtype=float).reshape(-1)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        expected = self.grid.n_segments * self.grid.m + 1
        if arr.size != expected:
            raise DomainError(f"path needs {expected} values for this grid, got {arr.size}")
        if not np.isfinite(arr).all():
            raise DomainError("path values must be finite")
        # one-row functions build a path per call: one copy, and one pass per check
        steps = arr[1:] - arr[:-1]
        if (steps < 0).any():
            raise DomainError("path values must be non-decreasing")
        inc = steps if self.increments is None else (
            np.array(self.increments, dtype=float).reshape(-1))
        if inc.size != arr.size - 1:
            raise DomainError(f"path needs {arr.size - 1} increments, got {inc.size}")
        if not np.isfinite(inc).all() or (inc < 0).any():
            raise DomainError("increments must be finite and non-negative")
        inc.flags.writeable = False
        object.__setattr__(self, "increments", inc)

    @classmethod
    def from_increments(cls, grid: TimeGrid, start: float, increments) -> "GridPath":
        inc = np.asarray(increments, dtype=float).reshape(-1)
        values = np.concatenate(([start], start + np.cumsum(inc)))
        return cls(grid, values, inc)

    @classmethod
    def pinned(cls, grid: TimeGrid, x_start: float, x_end: float, increments) -> "GridPath":
        """Path from x_start with the given increments that ends exactly on x_end."""
        values = np.concatenate(([x_start], x_start + np.cumsum(increments)))
        # interior points can round a hair past x_end when x_start + span does
        np.clip(values, None, x_end, out=values)
        values[-1] = x_end
        return cls(grid, values, increments)

    @property
    def start(self) -> float:
        return float(self.values[0])

    @property
    def end(self) -> float:
        return float(self.values[-1])


def _step_spans(grid: TimeGrid) -> np.ndarray:
    return np.repeat(grid.spans / grid.m, grid.m)


def _check_rates(beta: float, alpha: float) -> None:
    if not (beta > 0 and alpha > 0 and math.isfinite(beta) and math.isfinite(alpha)):
        raise DomainError("beta and alpha must be finite and > 0")


# Row kernels.  A row holds one path's increments, so a (rows, m) matrix is
# many paths side by side: the sampler applies these to its segment matrix,
# and the GridPath functions further down are their one-row views.  Step
# spans h broadcast against the matrix ((rows, 1) per segment, or one row).
#
# The kernels sit on the sampler's hot path, and every rewrite of them must
# give the same floats from the same draws, bit for bit, so that chains do
# not move: same operations in the same order, same Generator calls.

def _one_value(p):
    """p's value as a scalar when every entry is equal, else p unchanged.

    numpy draws from a scalar parameter plus `size` with the same variates,
    in the same order, as from an array of that value, but skips the
    per-entry broadcast; on a uniform observation grid every Gamma shape of
    a kernel is one value.
    """
    p = np.asarray(p)
    if p.size and (p == p.flat[0]).all():
        return p.flat[0]
    return p


def pin_rows(raw: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rescale each row of raw to sum to its target; returns (pinned, degenerate).

    Zero increments (float underflow) are clamped to the smallest positive
    normal before forming ratios, so pinned rows are strictly positive and
    sum to their targets to within accumulation ulp.  A row with zero total
    has nothing to rescale: it is flagged in the degenerate mask and pinned
    to zeros.  raw is not modified.
    """
    # a row of non-negative floats sums to zero, in any order, only when every
    # entry is zero, so a product with ones is an exact (and cheaper) test
    degenerate = raw @ np.ones(raw.shape[1]) == 0.0
    pinned = np.maximum(raw, _TINY)
    total = pinned.sum(axis=1, keepdims=True)
    # targets * clamped / total, evaluated in place
    pinned *= targets[:, None]
    pinned /= total
    pinned[degenerate] = 0.0
    return pinned, degenerate


def bridge_rows(rng: np.random.Generator, shapes: np.ndarray, targets: np.ndarray,
                m: int) -> np.ndarray:
    """Gamma bridge increments, (rows, m), with Gamma shapes `shapes`, rows summing to targets.

    shapes broadcasts against the output: (rows, 1) for one shape per row,
    or (rows, m).  The bridge is scale free, so the driving increments are
    drawn with unit scale.  Rows whose draw degenerates to zero total are
    redrawn, alone, up to 100 times before DegeneratePathError is raised.
    """
    shapes = _one_value(shapes)
    pinned, degenerate = pin_rows(rng.gamma(shape=shapes, size=(targets.size, m)), targets)
    for _ in range(_RESAMPLE_LIMIT):
        if not degenerate.any():
            return pinned
        idx = np.flatnonzero(degenerate)
        redraw = rng.gamma(shape=shapes if np.ndim(shapes) == 0 else shapes[idx],
                           size=(idx.size, m))
        pinned[idx], degenerate[idx] = pin_rows(redraw, targets[idx])
    if degenerate.any():
        raise DegeneratePathError(
            f"{int(degenerate.sum())} bridge proposals degenerate after "
            f"{_RESAMPLE_LIMIT} resamples; increase refinement or check beta*h"
        )
    return pinned


def augment_rows(rng: np.random.Generator, increments: np.ndarray, h,
                 beta_old: float, beta_new: float, alpha: float) -> np.ndarray:
    """Add an independent Gamma(h*(beta_new - beta_old), alpha) variate to each increment."""
    shape = _one_value((beta_new - beta_old) * h)
    return increments + rng.gamma(shape=shape, scale=1.0 / alpha, size=increments.shape)


def thin_rows(rng: np.random.Generator, increments: np.ndarray, h,
              beta_old: float, beta_new: float) -> np.ndarray:
    """Multiply each increment by an independent Beta(h*beta_new, h*(beta_old - beta_new))."""
    a = _one_value(beta_new * h)
    b = _one_value((beta_old - beta_new) * h)
    return increments * rng.beta(a, b, size=increments.shape)


def sample_gamma_path(beta: float, alpha: float, grid: TimeGrid, seed) -> GridPath:
    """Sample a Gamma(beta, alpha) process path started at 0 on the grid.

    Increments over a sub-step of span h are independent Gamma(beta*h, alpha);
    the result is deterministic given the seed.
    """
    _check_rates(beta, alpha)
    rng = as_generator(seed)
    h = _step_spans(grid)
    incs = rng.gamma(shape=_one_value(beta * h), scale=1.0 / alpha, size=h.size)
    return GridPath.from_increments(grid, 0.0, incs)


def gamma_bridge(path: GridPath, x_start: float, x_end: float) -> GridPath:
    """Pin a path to the endpoints (x_start, x_end) by multiplicative rescaling.

    The output increments are (x_end - x_start) * dS / S_T, with S the input
    path shifted to start at 0 (one-row pin_rows, zero increments clamped);
    endpoints are hit exactly.  A path with zero total increment raises
    DegeneratePathError.
    """
    if not x_end > x_start:
        raise DomainError(f"need x_end > x_start, got ({x_start}, {x_end})")
    pinned, degenerate = pin_rows(path.increments[None, :], np.array([x_end - x_start]))
    if degenerate[0]:
        raise DegeneratePathError("path has zero total increment; resample the proposal")
    return GridPath.pinned(path.grid, x_start, x_end, pinned[0])


def sample_gamma_bridge(beta: float, alpha: float, grid: TimeGrid,
                        x_start: float, x_end: float, seed) -> GridPath:
    """Sample a Gamma(beta, alpha) bridge from x_start to x_end on the grid.

    One-row bridge_rows: the driving path is redrawn up to 100 times if it
    degenerates to zero total increment, then DegeneratePathError is raised.
    """
    _check_rates(beta, alpha)
    if not x_end > x_start:
        raise DomainError(f"need x_end > x_start, got ({x_start}, {x_end})")
    h = _step_spans(grid)
    incs = bridge_rows(as_generator(seed), beta * h[None, :], np.array([x_end - x_start]), h.size)
    return GridPath.pinned(grid, x_start, x_end, incs[0])


def augment_path(path: GridPath, beta_old: float, beta_new: float, alpha: float, seed) -> GridPath:
    """Superpose an independent Gamma(beta_new - beta_old, alpha) component.

    One-row augment_rows: increments over span h become Gamma(h*beta_new,
    alpha) marginally.  Requires beta_new > beta_old.
    """
    if not beta_new > beta_old:
        raise ContractError(f"augment requires beta_new > beta_old, got ({beta_old}, {beta_new})")
    if not (beta_old > 0 and alpha > 0):
        raise DomainError("beta_old and alpha must be > 0")
    incs = augment_rows(as_generator(seed), path.increments[None, :], _step_spans(path.grid),
                        beta_old, beta_new, alpha)
    return GridPath.from_increments(path.grid, path.start, incs[0])


def thin_path(path: GridPath, beta_old: float, beta_new: float, seed) -> GridPath:
    """Thin each increment by an independent Beta multiplier.

    One-row thin_rows: increments over span h become Gamma(h*beta_new,
    alpha) marginally.  Requires 0 < beta_new < beta_old.
    """
    if not 0 < beta_new < beta_old:
        raise ContractError(f"thin requires 0 < beta_new < beta_old, got ({beta_old}, {beta_new})")
    incs = thin_rows(as_generator(seed), path.increments[None, :], _step_spans(path.grid),
                     beta_old, beta_new)
    return GridPath.from_increments(path.grid, path.start, incs[0])


def write_path_csv(path: GridPath, stream) -> None:
    """Write (time, value) rows at full double precision for debugging."""
    stream.write("time,value\n")
    for t, v in zip(path.grid.all_times(), path.values):
        stream.write(f"{float(t)!r},{float(v)!r}\n")
