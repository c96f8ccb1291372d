"""Sufficient statistics over paths and the closed-form log-likelihood ratios.

All Metropolis-Hastings acceptances in the sampler reduce to quantities
computed here from per-bin increment sums and counts, which
bin_stats_matrix takes row by row from a (rows, m) increment matrix: the
ratio between two parameter vectors on a fixed path (loglik_ratio_params,
with its compensator compensator_diff), the ratio between two
endpoint-matched paths under fixed parameters (loglik_ratio_path, row-wise)
and psi_log, a path's log-density against its Gamma reference.  Everything
is computed and consumed in log space; acceptance compares a log ratio to
ln(U).  The path ratio is the formula alone: check_endpoints, which the
sampler runs once on each row where it is pinned, holds every row to its
observed increment, so any two rows it scores share their endpoints.

loglik_ratio_params and psi_log read the bin totals S_0..S_N and C_0..C_N
as sequences of floats and a parameter vector as a ParamTerms: its
Python floats with the bin-mass terms of model.mass_factors and
model.nu_bin_mass.  Each formula is this one function, which the sampler's
moves call by name through mcmc's globals, as compensator_diff calls
model.nu_diff_bin0 and ParamTerms.at model.nu_bin_mass through this
module's.
"""

import functools
from typing import NamedTuple

import numpy as np

from .exceptions import ContractError
from .model import ModelParams, bin_classify, mass_factors, nu_bin_mass, nu_diff_bin0

__all__ = [
    "ParamTerms",
    "check_endpoints",
    "compensator_diff",
    "loglik_ratio_params",
    "loglik_ratio_path",
    "pin_tolerance",
    "psi_log",
]

_PIN_RTOL = 5e-10


def bin_stats_matrix(increments: np.ndarray, bin_edges):
    """Per-row bin sums and counts for a (rows, steps) increment matrix; any
    float edges, assigned by model.bin_classify."""
    rows = increments.shape[0]
    k = len(bin_edges) + 1
    idx = bin_classify(increments, bin_edges)
    idx += _row_offsets(rows, k)                # each row its own k bins of one bincount
    flat = idx.ravel()
    counts = np.bincount(flat, minlength=rows * k).reshape(rows, k)
    sums = np.bincount(flat, weights=increments.ravel(), minlength=rows * k).reshape(rows, k)
    return sums, counts


@functools.lru_cache(maxsize=64)
def _row_offsets(rows: int, k: int) -> np.ndarray:
    """A read-only (rows, 1) column 0, k, 2k, ...: row i's first bin in
    bin_stats_matrix's bincount; once per (rows, k)."""
    offsets = (np.arange(rows) * k)[:, None]
    offsets.flags.writeable = False
    return offsets


class ParamTerms(NamedTuple):
    """One parameter vector as Python floats, with the bin-mass terms the ratios read.

    e1_b1 and units are model.mass_factors's, masses are
    model.nu_bin_mass's nu(B_1), ..., nu(B_N).
    """

    edges: tuple[float, ...]
    alpha: float
    beta: float
    slopes: tuple[float, ...]
    intercepts: tuple[float, ...]
    e1_b1: float
    units: tuple[float, ...]
    masses: tuple[float, ...]

    @classmethod
    def at(cls, edges, alpha: float, beta: float, slopes, intercepts,
           factors=None) -> "ParamTerms":
        """The terms at floats; factors are their mass_factors(alpha, slopes,
        edges), evaluated unless given.  A binless model calls neither
        mass_factors nor nu_bin_mass: its terms are e1_b1 = 0.0 and no units
        or masses, what they return for no edges."""
        if not edges:
            return tuple.__new__(cls, (edges, alpha, beta, slopes, intercepts, 0.0, (), ()))
        e1_b1, units = mass_factors(alpha, slopes, edges) if factors is None else factors
        # tuple.__new__ directly: the same tuple as cls(...), without its generated __new__'s frame
        return tuple.__new__(cls, (edges, alpha, beta, slopes, intercepts, e1_b1, units,
                                   nu_bin_mass(beta, intercepts, units)))

    @classmethod
    def of(cls, params: ModelParams) -> "ParamTerms":
        """The terms of a ModelParams, which share its tuples."""
        return cls.at(params.bin_edges, params.alpha, params.beta, params.theta_slopes,
                      params.theta_intercepts)


def compensator_diff(old: ParamTerms, new: ParamTerms) -> float:
    """Total jump-measure difference sum_{k=0..N} (nu_new - nu_old)(B_k) at one beta.

    The terms must share beta and the bin edges.  For the binless model the
    difference is the log limit beta*ln(a/a°).
    """
    total = nu_diff_bin0(old.beta, new.alpha, old.alpha, new.e1_b1, old.e1_b1)
    for mass_new, mass_old in zip(new.masses, old.masses):
        total += mass_new - mass_old
    return total


def loglik_ratio_params(sums, counts, horizon: float, old: ParamTerms, new: ParamTerms) -> float:
    """Log-likelihood ratio of two parameter vectors (one beta) on one augmented path.

    sums and counts are the per-bin totals S_0..S_N and C_0..C_N as
    sequences of floats, as psi_log reads them, and horizon is T.
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
    return total - horizon * compensator_diff(old, new)


def psi_log(sums, counts, horizon: float, terms: ParamTerms, ref_units) -> float:
    """Log-density of the model's path law against its Gamma reference.

    sums and counts are the per-bin totals S_0..S_N and C_0..C_N as
    sequences of floats.  The reference shares (beta, alpha) and has all
    slopes and intercepts zero, nu_ref(B_k) = beta * ref_units[k-1]
    (model.reference_units), so

        psi = -sum_k th_k * S_k - sum_k rho_k * C_k
              - T * sum_{k=1..N} (nu - nu_ref)(B_k).
    """
    slope_part = intercept_part = comp = 0.0
    for slope, intercept, mass, unit, s, c in zip(terms.slopes, terms.intercepts, terms.masses,
                                                  ref_units, sums[1:], counts[1:]):
        slope_part += slope * s
        intercept_part += intercept * c
        comp += mass - terms.beta * unit
    return -(slope_part + intercept_part + horizon * comp)


def pin_tolerance(targets) -> np.ndarray:
    """How far a pinned row's total may lie from its target: 5e-10 relative,
    so two rows that pass for one target lie within 1e-9 of each other."""
    return _PIN_RTOL * np.abs(targets)


def check_endpoints(stats: np.ndarray, targets, tolerance=None) -> None:
    """ContractError unless every row of stats sums to its target.

    stats holds rows [S_0..S_N | C_0..C_N], (2N+2,) for one path or a stack
    (..., 2N+2); targets, and tolerance when given, broadcast against its
    rows.  A row passes when |sum_k S_k - target| <= tolerance, by default
    pin_tolerance(targets); a caller whose targets are fixed passes theirs,
    computed once.  A NaN in any S or C column makes the row's total
    NaN, which fails.  The sampler checks each row once, where it is pinned,
    so loglik_ratio_path takes its rows as sharing their endpoints.
    """
    if tolerance is None:
        tolerance = pin_tolerance(targets)
    # row totals are dot products with the S columns' mask (a sum over a short
    # axis costs more, and a C column's NaN or inf makes 0 * it a NaN total),
    # one gemv over the rows as a matrix: a stack's own dot makes no BLAS call
    width = stats.shape[-1]
    totals = stats.reshape(-1, width).dot(_sums_mask(width)).reshape(stats.shape[:-1])
    drift = np.abs(totals - targets)
    # a NaN drift compares False, so it counts as a mismatch
    n_matched = np.count_nonzero(drift <= tolerance)
    if n_matched != drift.size:
        raise ContractError(f"paths do not share endpoints: totals differ in "
                            f"{drift.size - n_matched} row(s)")


def loglik_ratio_path(stats_new: np.ndarray, stats_old: np.ndarray, slopes, intercepts):
    """Log-likelihood ratio of endpoint-matched paths under one model, row-wise.

    Takes bin statistics [S_0..S_N | C_0..C_N] of shape (2N+2,) for one
    path or (rows, 2N+2) for many, and the model's N slopes and intercepts
    as float sequences, and returns a float or one value per row.  Only the
    bins with nonzero slope or intercept contribute; the value is
    independent of alpha, beta and of the compensator entirely:

        -sum_k th_k * (S°_k - S_k) - sum_k rho_k * (C°_k - C_k) = (old - new) . (0, th, 0, rho).

    The formula alone: each pair of rows must share its endpoint, which the
    sampler checks where it makes rows (check_endpoints).
    """
    # one dot per row, which a one-row call repeats; gemv's order depends on the row count
    return np.vecdot(stats_old - stats_new, np.array((0.0, *slopes, 0.0, *intercepts)))


@functools.cache
def _sums_mask(width: int) -> np.ndarray:
    """A read-only vector over [S_0..S_N | C_0..C_N], 1 on each S, 0 on each C;
    once per row width 2N+2."""
    mask = np.repeat((1.0, 0.0), width // 2)
    mask.flags.writeable = False
    return mask
