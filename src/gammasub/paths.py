"""Discrete-grid Gamma bridges and the activity-change path transforms.

A path is its increment vector on a refined time grid: increments over
sub-steps of span h are Gamma(beta*h, alpha), and the bridge and
activity-change transforms act on those increments.  The transforms are
row kernels on (rows, m) increment matrices, which the sampler calls on
its segment matrix; gamma_bridge, sample_gamma_bridge, augment_path and
thin_path are their checked one-row views on a 1-D increment vector.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, ContractError, DegeneratePathError, DomainError

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

_TINY = np.finfo(float).tiny


def _seed_sequence(seed) -> np.random.SeedSequence:
    """seed as a SeedSequence, seed itself if it is one; ConfigError for a
    seed SeedSequence refuses, a negative integer among them."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    try:
        return np.random.SeedSequence(seed)
    except (TypeError, ValueError):
        raise ConfigError(
            f"seed must be a non-negative integer or a sequence of them, got {seed!r}") from None


def as_generator(seed) -> np.random.Generator:
    """Coerce a seed _seed_sequence takes, or a Generator, into a Generator.

    Philox draws the same stream from an int seed and from its SeedSequence.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(_seed_sequence(seed)))


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
        if not isinstance(self.m, numbers.Integral) or self.m < 1:
            raise DomainError(f"refinement count must be an integer >= 1, got {self.m!r}")
        object.__setattr__(self, "m", int(self.m))
        if arr.size < 2:
            raise DomainError("grid needs at least two observation times")
        if not np.all(np.isfinite(arr)) or arr[0] < 0 or np.any(np.diff(arr) <= 0):
            raise DomainError("observation times must be finite, non-negative, strictly increasing")

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
# The kernels sit on the sampler's hot path, where a sweep handles a dozen
# rows of ten, so their cost is numpy's per-call overhead more than the
# arithmetic: a rewrite that saves time drops calls, not work.  Every rewrite
# must keep the chain bit for bit, which means three rules.  Same draws: the
# same Generator methods, called in the same order with the same sizes.  Same
# reduction order: a float total keeps its numpy reduction (pin_rows' row
# sums, np.add.reduce(raw, -1), which is what raw.sum(axis=-1) runs, and
# bincount's accumulation), because its rounding feeds every later
# acceptance ratio.  Python floats out: what reaches a ChainRecord is
# a Python float or int (int(np.count_nonzero(...)), never the numpy scalar),
# because the chain file writes repr of each value.

def _one_value(p: np.ndarray):
    """The array p's value as a scalar when every entry is equal, else p unchanged.

    numpy draws from a scalar parameter plus `size` with the same variates,
    in the same order, as from an array of that value, but skips the
    per-entry broadcast; on a uniform observation grid every Gamma shape of
    a kernel is one value.  The sampler collapses its sub-step spans once
    per chain and hands the kernels the result.
    """
    if p.size and (p == p.flat[0]).all():
        return p.flat[0]
    return p


def pin_rows(raw: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rescale each row of raw, (..., m), to sum to its target; returns (pinned, flagged).

    targets' shape ends raw's leading shape, which flagged has: (n,) for
    (n, m) rows or a (k, n, m) batch, whose rows pin as they would alone.
    A pinned row is exactly raw * target / total, so zero and subnormal
    entries stay as small as the draw made them, and the row sums to its
    target to within accumulation ulp while total * target is a normal float
    (a subnormal product is then off by 2**-1075, a relative 2**-53 of the
    sum).  A row below that, a zero row among them, is flagged and gets its
    whole target on its largest raw entry (the first, when all are zero), a
    valid path for a caller that rejects it.  raw is not modified.
    """
    total = np.add.reduce(raw, -1, keepdims=True)   # raw.sum(axis=-1), without its wrapper
    flagged = total[..., 0] * targets < _TINY
    pinned = raw * targets[..., None]
    if np.count_nonzero(flagged):
        rows = np.nonzero(flagged)
        total[rows] = 1.0
        pinned[rows] = 0.0
        pinned[rows + (raw[rows].argmax(axis=-1),)] = targets[rows[flagged.ndim - targets.ndim:]]
    pinned /= total
    return pinned, flagged


def bridge_rows(rng: np.random.Generator, shapes, targets: np.ndarray,
                shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Gamma bridge increments of shape `shape`, (..., m), with Gamma shapes
    `shapes`, rows summing to targets; returns pin_rows' (pinned, flagged).

    shapes is a scalar or broadcasts against the output: (rows, 1) for one
    shape per row, or (rows, m); a (k, n, m) batch draws the variates of k
    (n, m) calls in turn.  It is drawn from as given: a caller whose shapes
    are all one value passes that value (_one_value), which draws the same
    variates faster.  The bridge is scale free, so the driving increments
    are drawn with unit scale.  A flagged row is no bridge draw: a proposal
    rejects it, so the bridge law holds on the rows it keeps.
    """
    return pin_rows(rng.gamma(shape=shapes, size=shape), targets)


def augment_rows(rng: np.random.Generator, increments: np.ndarray, h,
                 beta_old: float, beta_new: float, alpha: float) -> np.ndarray:
    """Add an independent Gamma(h*(beta_new - beta_old), alpha) variate to each increment."""
    return increments + rng.gamma(shape=(beta_new - beta_old) * h, scale=1.0 / alpha,
                                  size=increments.shape)


def thin_rows(rng: np.random.Generator, increments: np.ndarray, h,
              beta_old: float, beta_new: float) -> np.ndarray:
    """Multiply each increment by an independent Beta(h*beta_new, h*(beta_old - beta_new))."""
    return increments * rng.beta(beta_new * h, (beta_old - beta_new) * h, size=increments.shape)


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
    flags raises DegeneratePathError.
    """
    pinned, flagged = pin_rows(_one_row(increments), _check_total(total))
    if flagged[0]:
        raise DegeneratePathError("path total increment too small to pin; resample the proposal")
    return pinned[0]


def sample_gamma_bridge(beta: float, alpha: float, grid: TimeGrid, total: float,
                        seed) -> np.ndarray:
    """Increments of a Gamma(beta, alpha) bridge on the grid that sum to total.

    One-row bridge_rows: a draw too small to pin raises DegeneratePathError.
    """
    if not (beta > 0 and alpha > 0 and math.isfinite(beta) and math.isfinite(alpha)):
        raise DomainError("beta and alpha must be finite and > 0")
    targets = _check_total(total)
    h = _step_spans(grid)
    pinned, flagged = bridge_rows(as_generator(seed), beta * h[None, :], targets, (1, h.size))
    if flagged[0]:
        raise DegeneratePathError("bridge draw too small to pin; increase refinement or beta*h")
    return pinned[0]


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
