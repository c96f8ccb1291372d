"""Sufficient statistics over paths and the closed-form log-likelihood ratios.

All Metropolis-Hastings acceptances in the sampler reduce to quantities
computed here from per-bin increment sums and counts, which
bin_stats_matrix takes row by row from a (rows, m) increment matrix: the
ratio between two parameter vectors on a fixed path, the ratio between two
endpoint-matched paths under fixed parameters, and psi, a path's
log-density against its Gamma reference.  Everything is computed and
consumed in log space; acceptance compares a log ratio to ln(U).

The parameter ratio and psi have one implementation each, on Python floats
(ParamTerms, and the bin totals as float and int sequences):
param_log_ratio with its compensator, compensator_terms, and psi_terms,
which the sampler's moves call.  loglik_ratio_params, compensator_diff and
psi_log are their views on ModelParams and BinStats, which check that the
arguments fit together.
"""

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import ContractError, DomainError
# nu_bin_mass and nu_diff_bin0 stay names of this module, where bench/tracer.py rebinds them
from .model import (ModelParams, bin0_mass_diff, bin_mass_values, mass_factors,  # noqa: F401
                    nu_bin_mass, nu_diff_bin0)

__all__ = [
    "BinStats",
    "ParamTerms",
    "compensator_diff",
    "compensator_terms",
    "endpoint_tolerance",
    "loglik_ratio_params",
    "loglik_ratio_path",
    "param_log_ratio",
    "psi_log",
    "psi_terms",
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


def bin_classify(increments: np.ndarray, bin_edges) -> np.ndarray:
    """Half-open bin index of each increment (0 for B_0, edges go right).

    The index is the number of edges at or below the increment: one
    searchsorted(side="right"), cheaper than a comparison pass per edge even
    for a few edges.  A NaN increment sorts above every edge, into B_N.
    """
    return np.asarray(bin_edges, dtype=float).searchsorted(increments, side="right")


def row_offsets(rows: int, bin_edges) -> np.ndarray:
    """(rows, 1) offsets that give each row of a matrix its own N+1 bins of one bincount."""
    return (np.arange(rows) * (len(bin_edges) + 1))[:, None]


def bin_stats_matrix(increments: np.ndarray, bin_edges, offsets: np.ndarray | None = None):
    """Per-row bin sums and counts for a (rows, steps) increment matrix; any float edges.

    offsets, when given, must be row_offsets(rows, bin_edges), which a
    caller with a fixed number of rows computes once.
    """
    rows = increments.shape[0]
    k = len(bin_edges) + 1
    idx = bin_classify(increments, bin_edges)
    idx += row_offsets(rows, bin_edges) if offsets is None else offsets
    flat = idx.ravel()
    counts = np.bincount(flat, minlength=rows * k).reshape(rows, k)
    sums = np.bincount(flat, weights=increments.ravel(), minlength=rows * k).reshape(rows, k)
    return sums, counts


class ParamTerms(NamedTuple):
    """One parameter vector as Python floats, with the bin-mass terms the ratios read.

    e1_b1, units and ref_units are model.mass_factors's, masses are
    model.bin_mass_values's nu(B_1), ..., nu(B_N), and the Gamma
    reference's masses, which psi subtracts, are beta * ref_units.
    """

    edges: tuple[float, ...]
    alpha: float
    beta: float
    slopes: tuple[float, ...]
    intercepts: tuple[float, ...]
    e1_b1: float
    units: tuple[float, ...]
    ref_units: tuple[float, ...]
    masses: tuple[float, ...]

    @classmethod
    def at(cls, edges, alpha: float, beta: float, slopes, intercepts,
           factors=None) -> "ParamTerms":
        """The terms at floats; factors are their mass_factors(alpha, slopes,
        edges), evaluated unless given."""
        if factors is None:
            factors = mass_factors(alpha, slopes, edges)
        return cls(edges, alpha, beta, slopes, intercepts, *factors,
                   bin_mass_values(beta, intercepts, factors[1]))

    @classmethod
    def of(cls, params: ModelParams) -> "ParamTerms":
        """The terms of a ModelParams."""
        return cls.at(tuple(params.bin_edges.tolist()), params.alpha, params.beta,
                      tuple(params.theta_slopes.tolist()),
                      tuple(params.theta_intercepts.tolist()))


def compensator_terms(old: ParamTerms, new: ParamTerms) -> float:
    """Total jump-measure difference sum_{k=0..N} (nu_new - nu_old)(B_k) at one beta."""
    total = bin0_mass_diff(old.beta, new.alpha, old.alpha, new.e1_b1, old.e1_b1)
    for mass_new, mass_old in zip(new.masses, old.masses):
        total += mass_new - mass_old
    return total


def param_log_ratio(sums, counts, horizon: float, old: ParamTerms, new: ParamTerms) -> float:
    """Log-likelihood ratio of two parameter vectors (one beta) on one augmented path.

    sums and counts are the per-bin totals S_0..S_N and C_0..C_N as
    sequences of floats, as psi_terms reads them, and horizon is T.
    Evaluates

        -(a° - a) * S_0
        - sum_k (th°_k + a° - th_k - a) * S_k
        - sum_k (rho°_k - rho_k) * C_k
        - T * sum_{k=0..N} (nu° - nu)(B_k).
    """
    total = -(new.alpha - old.alpha) * sums[0]
    slope_part = intercept_part = 0.0
    for slope_new, slope_old, rho_new, rho_old, s, c in zip(
            new.slopes, old.slopes, new.intercepts, old.intercepts, sums[1:], counts[1:]):
        slope_part += ((slope_new + new.alpha) - (slope_old + old.alpha)) * s
        intercept_part += (rho_new - rho_old) * c
    total -= slope_part
    total -= intercept_part
    return total - horizon * compensator_terms(old, new)


def psi_terms(sums, counts, horizon: float, terms: ParamTerms) -> float:
    """Log-density of the model's path law against its Gamma reference.

    sums and counts are the per-bin totals S_0..S_N and C_0..C_N as
    sequences of floats.  The reference shares (beta, alpha) and has all
    slopes and intercepts zero, so

        psi = -sum_k th_k * S_k - sum_k rho_k * C_k
              - T * sum_{k=1..N} (nu - nu_ref)(B_k).
    """
    slope_part = intercept_part = comp = 0.0
    for slope, intercept, mass, unit, s, c in zip(terms.slopes, terms.intercepts, terms.masses,
                                                  terms.ref_units, sums[1:], counts[1:]):
        slope_part += slope * s
        intercept_part += intercept * c
        comp += mass - terms.beta * unit
    return -(slope_part + intercept_part + horizon * comp)


def _check_stats_match(stats: BinStats, params: ModelParams) -> None:
    if stats.n_bins != params.n_bins:
        raise ContractError(
            f"stats have {stats.n_bins} bins but params have {params.n_bins}"
        )


def _check_same_beta_and_edges(old: ModelParams, new: ModelParams) -> None:
    if new.beta != old.beta:
        raise ContractError(f"beta must match, got {old.beta} and {new.beta}")
    if old.n_bins != new.n_bins or not np.array_equal(old.bin_edges, new.bin_edges):
        raise ContractError("bin edges must match")


def compensator_diff(old: ModelParams, new: ModelParams) -> float:
    """compensator_terms of two parameter vectors, which must share beta and bin edges.

    For the binless model the difference is the log limit beta*ln(a/a°).
    """
    _check_same_beta_and_edges(old, new)
    return compensator_terms(ParamTerms.of(old), ParamTerms.of(new))


def loglik_ratio_params(stats: BinStats, old: ModelParams, new: ModelParams) -> float:
    """param_log_ratio of two parameter vectors, which must share beta and bin
    edges, on the bin statistics stats."""
    _check_stats_match(stats, old)
    _check_stats_match(stats, new)
    _check_same_beta_and_edges(old, new)
    return param_log_ratio(stats.sums.tolist(), stats.counts.tolist(), stats.horizon,
                           ParamTerms.of(old), ParamTerms.of(new))


def endpoint_tolerance(totals) -> np.ndarray:
    """The largest change in a path's total that loglik_ratio_path takes for a
    shared endpoint: 1e-9 relative to the total."""
    return _ENDPOINT_RTOL * np.abs(totals)


def loglik_ratio_path(sums_new: np.ndarray, counts_new: np.ndarray,
                      sums_old: np.ndarray, counts_old: np.ndarray, slopes, intercepts,
                      tolerance=None):
    """Log-likelihood ratio of endpoint-matched paths under one model, row-wise.

    Takes per-bin sums and counts of shape (N+1,) for one path or (rows, N+1)
    for many, and the model's N slopes and intercepts as float sequences, and
    returns a float or one value per row.  Only the bins with nonzero slope
    or intercept contribute; the value is independent of alpha, beta and of
    the compensator entirely:

        -sum_k th_k * (S°_k - S_k) - sum_k rho_k * (C°_k - C_k).

    Raises ContractError when a row's two totals differ by more than
    tolerance (the paths do not share endpoints), or either is NaN.  The
    default tolerance is endpoint_tolerance of the old totals; a caller whose
    rows keep known endpoints passes theirs, computed once.  With no bins the
    value is zero (as -0.0).  Arrays for slopes and intercepts save a
    conversion per call.
    """
    n_bins = len(slopes)
    for sums in (sums_new, sums_old):
        if sums.shape[-1] != n_bins + 1:
            raise ContractError(
                f"stats have {sums.shape[-1] - 1} bins but params have {n_bins}"
            )
    # whole-row differences are contiguous passes; bin 0 is sliced off below.
    # Row totals are dot products with ones: a sum over a short axis costs more.
    d_sums = sums_new - sums_old
    ones = _ones(n_bins + 1)
    if tolerance is None:
        tolerance = endpoint_tolerance(sums_old.dot(ones))
    drift = np.abs(d_sums.dot(ones))
    # a NaN drift or total compares False, so it counts as a mismatch
    n_matched = np.count_nonzero(drift <= tolerance)
    if n_matched != drift.size:
        raise ContractError(
            f"paths do not share endpoints: totals differ in {drift.size - n_matched} row(s)"
        )
    d_counts = counts_new - counts_old
    return -(d_sums[..., 1:] @ slopes + d_counts[..., 1:] @ intercepts)


@functools.cache
def _ones(size: int) -> np.ndarray:
    """A read-only vector of size ones, made once per size."""
    ones = np.ones(size)
    ones.flags.writeable = False
    return ones


def psi_log(stats: BinStats, params: ModelParams) -> float:
    """psi_terms at the bin statistics stats and the parameters params."""
    _check_stats_match(stats, params)
    return psi_terms(stats.sums.tolist(), stats.counts.tolist(), stats.horizon,
                     ParamTerms.of(params))
