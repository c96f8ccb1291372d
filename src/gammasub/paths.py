"""Discrete-grid Gamma bridges and the activity-change path transforms.

A path is its increment vector on a refined time grid: increments over
sub-steps of span h are Gamma(beta*h, alpha), and the bridge and
activity-change transforms act on those increments.  The transforms are
row kernels on (rows, m) increment matrices, which the sampler calls on
its segment matrix; gamma_bridge, sample_gamma_bridge, augment_path and
thin_path are their checked one-row views on a 1-D increment vector.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ContractError, DegeneratePathError, DomainError

__all__ = [
    "TimeGrid",
    "as_generator",
    "gamma_bridge",
    "sample_gamma_bridge",
    "augment_path",
    "thin_path",
    "pin_rows",
    "bridge_rows",
    "augment_rows",
    "thin_rows",
]

_RESAMPLE_LIMIT = 100


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
    def spans(self) -> np.ndarray:
        """Lengths of the inter-observation intervals."""
        return self.times[1:] - self.times[:-1]

    @property
    def horizon(self) -> float:
        return float(self.times[-1] - self.times[0])


def _step_spans(grid: TimeGrid) -> np.ndarray:
    return np.repeat(grid.spans / grid.m, grid.m)


# Row kernels.  A row holds one path's increments, so a (rows, m) matrix is
# many paths side by side: the sampler applies these to its segment matrix,
# and the path functions further down are their one-row views.  Step
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

    A pinned row is exactly raw * target / total, so zero and subnormal
    entries stay as small as the draw made them, and the row sums to its
    target to within accumulation ulp while total * target is a normal float
    (a subnormal product is then off by 2**-1075, a relative 2**-53 of the
    sum).  A row below that, a zero row among them, is divided by 1 instead
    and flagged in the degenerate mask, to be redrawn or rejected.  raw is
    not modified.
    """
    total = raw.sum(axis=1, keepdims=True)
    degenerate = total[:, 0] * targets < np.finfo(float).tiny
    total[degenerate] = 1.0
    pinned = raw * targets[:, None]
    pinned /= total
    return pinned, degenerate


def bridge_rows(rng: np.random.Generator, shapes: np.ndarray, targets: np.ndarray,
                m: int) -> np.ndarray:
    """Gamma bridge increments, (rows, m), with Gamma shapes `shapes`, rows summing to targets.

    shapes broadcasts against the output: (rows, 1) for one shape per row,
    or (rows, m).  The bridge is scale free, so the driving increments are
    drawn with unit scale.  Rows pin_rows flags as degenerate are redrawn,
    alone, up to 100 times before DegeneratePathError is raised.
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


def _one_row(increments, size: int | None = None) -> np.ndarray:
    """A view's increments as a (1, m) row: 1-D, finite, non-negative (and size long)."""
    inc = np.asarray(increments, dtype=float)
    if inc.ndim != 1:
        raise DomainError(f"increments must be 1-D, got shape {inc.shape}")
    if size is not None and inc.size != size:
        raise DomainError(f"need {size} increments for this grid, got {inc.size}")
    if not np.isfinite(inc).all() or (inc < 0).any():
        raise DomainError("increments must be finite and non-negative")
    return inc[None, :]


def _check_total(total: float) -> np.ndarray:
    if not (total > 0 and math.isfinite(total)):
        raise DomainError(f"need a finite total > 0, got {total}")
    return np.array([float(total)])


def gamma_bridge(increments, total: float) -> np.ndarray:
    """Rescale an increment vector to sum to total (one-row pin_rows).

    The output is increments * total / sum(increments); a vector pin_rows
    flags as degenerate raises DegeneratePathError.
    """
    pinned, degenerate = pin_rows(_one_row(increments), _check_total(total))
    if degenerate[0]:
        raise DegeneratePathError("path total increment too small to pin; resample the proposal")
    return pinned[0]


def sample_gamma_bridge(beta: float, alpha: float, grid: TimeGrid, total: float,
                        seed) -> np.ndarray:
    """Increments of a Gamma(beta, alpha) bridge on the grid that sum to total.

    One-row bridge_rows: the driving path is redrawn up to 100 times if it
    degenerates (a total too small to pin), then DegeneratePathError is raised.
    """
    if not (beta > 0 and alpha > 0 and math.isfinite(beta) and math.isfinite(alpha)):
        raise DomainError("beta and alpha must be finite and > 0")
    targets = _check_total(total)
    h = _step_spans(grid)
    return bridge_rows(as_generator(seed), beta * h[None, :], targets, h.size)[0]


def augment_path(increments, grid: TimeGrid, beta_old: float, beta_new: float,
                 alpha: float, seed) -> np.ndarray:
    """Superpose an independent Gamma(beta_new - beta_old, alpha) component.

    One-row augment_rows on the grid's steps: increments over span h become
    Gamma(h*beta_new, alpha) marginally.  Requires beta_new > beta_old.
    """
    if not beta_new > beta_old:
        raise ContractError(f"augment requires beta_new > beta_old, got ({beta_old}, {beta_new})")
    if not (beta_old > 0 and alpha > 0):
        raise DomainError("beta_old and alpha must be > 0")
    h = _step_spans(grid)
    return augment_rows(as_generator(seed), _one_row(increments, h.size), h,
                        beta_old, beta_new, alpha)[0]


def thin_path(increments, grid: TimeGrid, beta_old: float, beta_new: float, seed) -> np.ndarray:
    """Thin each increment by an independent Beta multiplier.

    One-row thin_rows on the grid's steps: increments over span h become
    Gamma(h*beta_new, alpha) marginally.  Requires 0 < beta_new < beta_old.
    """
    if not 0 < beta_new < beta_old:
        raise ContractError(f"thin requires 0 < beta_new < beta_old, got ({beta_old}, {beta_new})")
    h = _step_spans(grid)
    return thin_rows(as_generator(seed), _one_row(increments, h.size), h, beta_old, beta_new)[0]
