"""Bulk effective sample size (Vehtari, Gelman, Simpson, Carpenter and
Buerkner 2021, arXiv:1903.08008), with numpy and scipy only.

Bulk-ESS rank-normalises the pooled draws, splits every chain in half and
applies the multi-chain autocorrelation estimator truncated by Geyer's
initial monotone sequence.  Run this file to self-test the estimator on
AR(1) chains of known ESS n(1-phi)/(1+phi) and on iid draws:

    python3 bench/ess.py
"""

import sys

import numpy as np
from scipy.signal import lfilter
from scipy.special import ndtri
from scipy.stats import rankdata


def _autocov(chains: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row at every lag, through the FFT."""
    n = chains.shape[1]
    centred = chains - chains.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centred, n=size, axis=1)
    return np.fft.irfft(spec * np.conj(spec), n=size, axis=1)[:, :n] / n


def ess(chains) -> float:
    """Multi-chain ESS of a (chains, draws) array, without rank-normalising."""
    x = np.atleast_2d(np.asarray(chains, dtype=float))
    n_chain, n = x.shape
    if n < 4:
        raise ValueError(f"need at least 4 draws per chain, got {n}")
    if np.ptp(x) < np.finfo(float).resolution:
        return float(x.size)
    acov = _autocov(x)
    mean_var = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = mean_var * (n - 1.0) / n
    if n_chain > 1:
        var_plus += x.mean(axis=1).var(ddof=1)
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    # Geyer's initial positive sequence over pairs (rho_{2k}, rho_{2k+1})
    kept = np.zeros(n)
    kept[0], kept[1] = 1.0, rho[1]
    even, odd = 1.0, rho[1]
    t = 1
    while t < n - 3 and even + odd > 0.0:
        even, odd = rho[t + 1], rho[t + 2]
        if even + odd >= 0.0:
            kept[t + 1], kept[t + 2] = even, odd
        t += 2
    max_t = t - 2
    if even > 0.0:
        kept[max_t + 1] = even
    # Geyer's initial monotone sequence
    for t in range(1, max_t - 1, 2):
        prev = kept[t - 1] + kept[t]
        if kept[t + 1] + kept[t + 2] > prev:
            kept[t + 1] = kept[t + 2] = prev / 2.0
    tau = -1.0 + 2.0 * kept[: max_t + 1].sum() + kept[max_t + 1: max_t + 2].sum()
    tau = max(tau, 1.0 / np.log10(x.size))
    return float(x.size / tau)


def split_chains(chains) -> np.ndarray:
    """Halve every chain, dropping the middle draw of an odd-length chain."""
    x = np.atleast_2d(np.asarray(chains, dtype=float))
    half = x.shape[1] // 2
    return np.concatenate([x[:, :half], x[:, x.shape[1] - half:]], axis=0)


def rank_normalise(chains) -> np.ndarray:
    """Normal scores of the pooled average ranks, with the (r - 3/8)/(S + 1/4) offset."""
    x = np.asarray(chains, dtype=float)
    ranks = rankdata(x, method="average").reshape(x.shape)
    return ndtri((ranks - 0.375) / (x.size + 0.25))


def bulk_ess(chains) -> float:
    """Bulk-ESS of a (chains, draws) array or a single chain."""
    return ess(rank_normalise(split_chains(chains)))


def _ar1(rng: np.random.Generator, phi: float, n_chain: int, n: int) -> np.ndarray:
    noise = rng.standard_normal((n_chain, n)) * np.sqrt(1.0 - phi * phi)
    noise[:, 0] = rng.standard_normal(n_chain)      # start in the stationary law
    return lfilter([1.0], [1.0, -phi], noise, axis=1)


def self_test() -> list[str]:
    """Check bulk-ESS against known values; returns the failures, if any.

    Each case averages the estimate over 20 independent 4-chain sets with a
    fixed seed, so the outcome is deterministic; the tolerance is 10 percent
    of the exact ESS, several times the estimator's standard error here.
    """
    rng = np.random.Generator(np.random.Philox(20210331))
    failures = []
    n_chain, n = 4, 2000
    for phi in (0.0, 0.5, 0.9):
        exact = n_chain * n * (1.0 - phi) / (1.0 + phi)
        est = np.mean([bulk_ess(_ar1(rng, phi, n_chain, n)) for _ in range(20)])
        if abs(est / exact - 1.0) > 0.10:
            failures.append(f"AR(1) phi={phi}: bulk-ESS {est:.1f}, exact {exact:.1f}")
    # a constant chain carries as many draws as it has
    if bulk_ess(np.ones((2, 100))) != 200.0:
        failures.append("constant chain: bulk-ESS differs from the draw count")
    return failures


if __name__ == "__main__":
    problems = self_test()
    for line in problems:
        print("FAIL", line)
    print("ess self-test:", "FAIL" if problems else "PASS")
    sys.exit(1 if problems else 0)
