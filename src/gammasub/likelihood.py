"""Sufficient statistics over paths and the closed-form log-likelihood ratios.

All Metropolis-Hastings acceptances in the sampler reduce to two quantities
computed here from per-bin increment sums and counts: the ratio between two
parameter vectors on a fixed path, and the ratio between two endpoint-matched
paths under fixed parameters.  Everything is computed and consumed in log
space; acceptance compares a log ratio to ln(U).
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ContractError, DomainError
from .model import ModelParams, nu_bin_mass, nu_diff_bin0
from .paths import GridPath

__all__ = [
    "BinStats",
    "bin_masses",
    "bin_stats",
    "loglik_ratio_params",
    "loglik_ratio_path",
    "psi_log",
]

_ENDPOINT_RTOL = 1e-9


@dataclass(frozen=True)
class BinStats:
    """Per-bin increment sums and counts over a horizon.

    Index k runs over bins B_0, ..., B_N; sums[k] accumulates the increments
    whose size falls in B_k and counts[k] how many there were.  The sums
    partition the total displacement exactly.
    """

    sums: np.ndarray
    counts: np.ndarray
    horizon: float

    def __post_init__(self):
        sums = np.asarray(self.sums, dtype=float).flatten()
        counts = np.asarray(self.counts, dtype=np.int64).flatten()
        sums.flags.writeable = False
        counts.flags.writeable = False
        object.__setattr__(self, "sums", sums)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "horizon", float(self.horizon))
        if sums.size != counts.size or sums.size == 0:
            raise DomainError("sums and counts must be equal-length, non-empty")
        if (sums < 0).any() or (counts < 0).any():
            raise DomainError("sums and counts must be non-negative")
        if not self.horizon > 0:
            raise DomainError(f"horizon must be > 0, got {self.horizon}")

    @property
    def n_bins(self) -> int:
        return self.sums.size - 1

    @property
    def total(self) -> float:
        """Total displacement X_T - X_0 accounted for by the bins."""
        return float(self.sums.sum())

    def __add__(self, other: "BinStats") -> "BinStats":
        if self.n_bins != other.n_bins:
            raise ContractError("cannot merge stats with different bin counts")
        return BinStats(self.sums + other.sums, self.counts + other.counts,
                        self.horizon + other.horizon)


def bin_classify(increments: np.ndarray, bin_edges: np.ndarray) -> np.ndarray:
    """Half-open bin index of each increment (0 for B_0, edges go right).

    The index is the number of edges at or below the increment, the value
    searchsorted(bin_edges, increments, side="right") gives; with a handful
    of edges one comparison pass per edge is cheaper than the search.
    """
    idx = np.zeros(increments.shape, dtype=np.intp)
    for edge in bin_edges:
        idx += increments >= edge
    return idx


def bin_stats_matrix(increments: np.ndarray, bin_edges: np.ndarray):
    """Per-row bin sums and counts for a (rows, steps) increment matrix."""
    rows = increments.shape[0]
    k = bin_edges.size + 1
    flat = bin_classify(increments, bin_edges)
    flat += (np.arange(rows) * k)[:, None]
    counts = np.bincount(flat.ravel(), minlength=rows * k).reshape(rows, k)
    sums = np.bincount(flat.ravel(), weights=increments.ravel(),
                       minlength=rows * k).reshape(rows, k)
    return sums, counts


def bin_stats(path: GridPath, params: ModelParams) -> BinStats:
    """Classify every grid increment of a path into its size bin.

    Bin edges come from the parameters; the horizon is the grid span.
    """
    sums, counts = bin_stats_matrix(path.increments[None, :], params.bin_edges)
    return BinStats(sums[0], counts[0], path.grid.horizon)


def _check_stats_match(stats: BinStats, params: ModelParams) -> None:
    if stats.n_bins != params.n_bins:
        raise ContractError(
            f"stats have {stats.n_bins} bins but params have {params.n_bins}"
        )


def bin_masses(params: ModelParams) -> tuple[float, ...]:
    """Jump-measure masses nu(B_k) of bins k = 1..N, one nu_bin_mass call each."""
    return tuple(nu_bin_mass(params, k) for k in range(1, params.n_bins + 1))


def compensator_diff(old: ModelParams, new: ModelParams,
                     old_masses=None, new_masses=None) -> float:
    """Total jump-measure difference sum_k (nu_new - nu_old)(B_k), k = 0..N.

    Both parameter vectors must share beta and bin edges.  For the binless
    model the whole difference collapses to the log limit beta*ln(a/a°).
    old_masses / new_masses are the bin_masses of old / new when the caller
    already has them; the sum is the same either way.
    """
    if new.beta != old.beta:
        raise ContractError(f"beta must match, got {old.beta} and {new.beta}")
    if old.n_bins != new.n_bins or not np.array_equal(old.bin_edges, new.bin_edges):
        raise ContractError("bin edges must match")
    if old.n_bins == 0:
        return old.beta * math.log(old.alpha / new.alpha)
    if old_masses is None:
        old_masses = bin_masses(old)
    if new_masses is None:
        new_masses = bin_masses(new)
    total = nu_diff_bin0(new.alpha, old.alpha, old.beta, float(old.bin_edges[0]))
    for mass_new, mass_old in zip(new_masses, old_masses):
        total += mass_new - mass_old
    return total


def loglik_ratio_params(stats: BinStats, old: ModelParams, new: ModelParams,
                        old_masses=None, new_masses=None) -> float:
    """Log-likelihood ratio of two parameter vectors on one augmented path.

    Evaluates

        -(a° - a) * S_0
        - sum_k (th°_k + a° - th_k - a) * S_k
        - sum_k (rho°_k - rho_k) * C_k
        - T * sum_{k=0..N} (nu° - nu)(B_k)

    with S_k, C_k the per-bin increment sums and counts.  old_masses /
    new_masses are passed on to compensator_diff.
    """
    _check_stats_match(stats, old)
    _check_stats_match(stats, new)
    total = -(new.alpha - old.alpha) * stats.sums[0]
    if old.n_bins:
        slope_diff = (new.theta_slopes + new.alpha) - (old.theta_slopes + old.alpha)
        intercept_diff = new.theta_intercepts - old.theta_intercepts
        total -= float(slope_diff @ stats.sums[1:])
        total -= float(intercept_diff @ stats.counts[1:])
    total -= stats.horizon * compensator_diff(old, new, old_masses, new_masses)
    return total


def loglik_ratio_path(sums_new: np.ndarray, counts_new: np.ndarray,
                      sums_old: np.ndarray, counts_old: np.ndarray, params: ModelParams):
    """Log-likelihood ratio of endpoint-matched paths under one model, row-wise.

    Takes per-bin sums and counts of shape (N+1,) for one path or (rows, N+1)
    for many, and returns a float or one value per row.  Only the bins with
    nonzero slope or intercept contribute; the value is independent of alpha
    and of the compensator entirely:

        -sum_k th_k * (S°_k - S_k) - sum_k rho_k * (C°_k - C_k).

    Raises ContractError when a row's two totals differ by more than 1e-9
    relative (the paths do not share endpoints), or either is NaN.
    """
    for sums in (sums_new, sums_old):
        if sums.shape[-1] != params.n_bins + 1:
            raise ContractError(
                f"stats have {sums.shape[-1] - 1} bins but params have {params.n_bins}"
            )
    # row totals as products with ones: a sum over a short last axis costs more
    ones = np.ones(params.n_bins + 1)
    total_new = sums_new @ ones
    total_old = sums_old @ ones
    tol = _ENDPOINT_RTOL * np.maximum(np.abs(total_old), np.abs(total_new))
    mismatched = ~(np.abs(total_new - total_old) <= tol)
    if np.any(mismatched):
        raise ContractError(
            f"paths do not share endpoints: totals differ in {int(np.sum(mismatched))} row(s)"
        )
    if params.n_bins == 0:
        return np.zeros(np.shape(total_new))[()]
    # whole-row differences are contiguous passes; bin 0 is then sliced off
    d_sums = sums_new - sums_old
    d_counts = counts_new - counts_old
    return -(d_sums[..., 1:] @ params.theta_slopes + d_counts[..., 1:] @ params.theta_intercepts)


def psi_log(stats: BinStats, params: ModelParams, masses=None, ref_masses=None) -> float:
    """Log-density of the model's path law against its Gamma reference.

    The reference shares (beta, alpha) and has all slopes and intercepts
    zero, so

        psi = -sum_k th_k * S_k - sum_k rho_k * C_k
              - T * sum_{k=1..N} (nu - nu_ref)(B_k).

    masses and ref_masses are the bin_masses of params and of its reference
    when the caller already has them.
    """
    _check_stats_match(stats, params)
    if params.n_bins == 0:
        return 0.0
    if masses is None:
        masses = bin_masses(params)
    if ref_masses is None:
        ref_masses = bin_masses(params.gamma_reference())
    comp = sum(mass - ref for mass, ref in zip(masses, ref_masses))
    return -float(
        params.theta_slopes @ stats.sums[1:]
        + params.theta_intercepts @ stats.counts[1:]
        + stats.horizon * comp
    )
