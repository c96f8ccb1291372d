"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or ``-rA``)
and enforces both the tolerance and the runtime bound of its criterion.
Monte Carlo checks use fixed seeds; the expected values come from
independent oracles (adaptive quadrature, dense-grid posteriors, direct
sampling), never from the code paths under test.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import gammaln

import gammasub as g
from gammasub.cli import main as cli_main
from gammasub.likelihood import bin_stats_matrix
from gammasub.paths import as_generator, augment_rows, bridge_rows, thin_rows


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_01_exp_integral_vs_quadrature():
    """E1 within 1e-10 relative of adaptive quadrature on 1000 points; < 1 s."""
    t0 = time.perf_counter()
    zs = np.logspace(-6, math.log10(50.0), 1000)
    f = lambda t: math.exp(-t) / t
    oracle = np.empty_like(zs)
    oracle[-1], _ = integrate.quad(f, zs[-1], np.inf, epsabs=0, epsrel=1e-13, limit=200)
    for i in range(zs.size - 2, -1, -1):
        seg, _ = integrate.quad(f, zs[i], zs[i + 1], epsabs=0, epsrel=1e-13, limit=200)
        oracle[i] = oracle[i + 1] + seg
    mine = np.array([g.exp_integral_e1(float(z)) for z in zs])
    rel = float(np.max(np.abs(mine - oracle) / np.abs(oracle)))
    elapsed = time.perf_counter() - t0
    report(1, rel <= 1e-10 and elapsed < 1.0,
           f"max rel err {rel:.2e} (tol 1e-10), {elapsed:.2f}s (limit 1s)")


def test_02_bin_mass_vs_quadrature():
    """nu bin masses match density quadrature within 1e-8 on 200 cases; < 5 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 6))
        edges = np.sort(rng.uniform(0.2, 6.0, size=n))
        while n > 1 and np.any(np.diff(edges) < 1e-2):
            edges = np.sort(rng.uniform(0.2, 6.0, size=n))
        slopes = rng.normal(0.0, 0.8, size=n)
        slopes[-1] = abs(slopes[-1]) + 0.05
        params = g.ModelParams(rng.uniform(0.3, 3.0), rng.uniform(0.2, 4.0),
                               edges, slopes, rng.normal(0.0, 0.8, size=n))
        k = int(rng.integers(1, n + 1))
        hi = np.inf if k == n else float(edges[k])
        ref, _ = integrate.quad(lambda x: g.levy_density(params, x),
                                float(edges[k - 1]), hi,
                                epsabs=0, epsrel=1e-11, limit=400)
        rel = abs(g.nu_bin_mass(params, k) - ref) / abs(ref)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    report(2, worst <= 1e-8 and elapsed < 5.0,
           f"max rel err {worst:.2e} (tol 1e-8) over 200 cases, {elapsed:.2f}s (limit 5s)")


def test_03_bridge_endpoints_and_midpoint_law():
    """Row sums pinned to 1e-13; Beta midpoint law within 3 SE at 1e5; < 30 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(50):
        T, m = float(rng.uniform(0.5, 5.0)), int(rng.integers(2, 20))
        a = float(rng.uniform(0.0, 2.0))
        b = a + float(rng.uniform(0.1, 5.0))
        beta = float(rng.uniform(0.5, 3.0))
        rng.uniform(0.5, 3.0)                   # alpha: the bridge is scale free
        row = bridge_rows(rng, np.array([[beta * (T / m)]]), np.array([b - a]), m)
        worst = max(worst, abs(row.sum() - (b - a)) / (b - a))
    pinned = worst <= 1e-13

    beta, T, reps = 2.0, 1.0, 100_000
    # each row is one 0 -> 1 bridge on two sub-steps of Gamma shape beta * T / 2
    mids = bridge_rows(np.random.default_rng(42), np.array([[beta * T / 2]]),
                       np.ones(reps), 2)[:, 0]
    se_mean = mids.std() / math.sqrt(reps)
    mean_ok = abs(mids.mean() - 0.5) < 3 * se_mean
    target_var = 1.0 / (4.0 * (beta * T + 1.0))
    v = mids.var()
    se_var = math.sqrt((np.mean((mids - mids.mean()) ** 4) - v * v) / reps)
    var_ok = abs(v - target_var) < 3 * se_var
    elapsed = time.perf_counter() - t0
    report(3, pinned and mean_ok and var_ok and elapsed < 30.0,
           f"row sums within {worst:.1e} relative (tol 1e-13), "
           f"mean dev {abs(mids.mean() - 0.5) / se_mean:.2f} SE, "
           f"var dev {abs(v - target_var) / se_var:.2f} SE, {elapsed:.1f}s (limit 30s)")


def test_04_beta_move_transform_marginals():
    """Augment/thin increments match direct Gamma sampling; KS p > 0.01; < 60 s."""
    t0 = time.perf_counter()
    alpha, n = 1.5, 100_000
    details = []
    ok = True
    for beta_old, beta_new in ((1.0, 2.0), (2.0, 0.5)):
        for h in (0.1, 1.0):
            base = as_generator(1000).gamma(beta_old * h, 1.0 / alpha, size=(1, n))
            if beta_new > beta_old:
                out = augment_rows(as_generator(1001), base, h, beta_old, beta_new, alpha)
            else:
                out = thin_rows(as_generator(1001), base, h, beta_old, beta_new)
            inc = out[0]
            target_mean = h * beta_new / alpha
            target_var = h * beta_new / alpha ** 2
            se_mean = inc.std() / math.sqrt(n)
            v = inc.var()
            se_var = math.sqrt(max(np.mean((inc - inc.mean()) ** 4) - v * v, 0.0) / n)
            direct = np.random.default_rng(1002).gamma(h * beta_new, 1 / alpha, size=10_000)
            ks = stats.ks_2samp(inc[:10_000], direct)
            case_ok = (abs(inc.mean() - target_mean) < 3 * se_mean
                       and abs(v - target_var) < 3 * se_var
                       and ks.pvalue > 0.01)
            ok &= case_ok
            details.append(f"({beta_old}->{beta_new}, h={h}): "
                           f"mean {abs(inc.mean() - target_mean) / se_mean:.1f}SE "
                           f"var {abs(v - target_var) / se_var:.1f}SE KS p={ks.pvalue:.3f}")
    elapsed = time.perf_counter() - t0
    report(4, ok and elapsed < 60.0,
           "; ".join(details) + f"; {elapsed:.1f}s (limit 60s)")


def test_05_likelihood_ratio_identities():
    """Chain rule/antisymmetry within 1e-10 on 1000 triples; unit expectation; < 60 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    edges = np.array([1.0, 2.0])
    worst = 0.0
    for _ in range(1000):
        stats_rand = g.BinStats(rng.uniform(0, 5, size=3),
                                rng.integers(0, 20, size=3), rng.uniform(0.5, 4))
        trio = []
        for _ in range(3):
            slopes = rng.normal(0, 0.3, 2)
            slopes[-1] = abs(slopes[-1])  # keep the tail bin integrable
            trio.append(g.ModelParams(rng.uniform(0.5, 2.0), 1.3, edges,
                                      slopes, rng.normal(0, 0.3, 2)))
        ab = g.loglik_ratio_params(stats_rand, trio[0], trio[1])
        bc = g.loglik_ratio_params(stats_rand, trio[1], trio[2])
        ac = g.loglik_ratio_params(stats_rand, trio[0], trio[2])
        ba = g.loglik_ratio_params(stats_rand, trio[1], trio[0])
        worst = max(worst, abs(ab + bc - ac), abs(ab + ba))
    identities_ok = worst <= 1e-10

    # unit expectation of the path likelihood ratio under the Gamma reference;
    # instance chosen where the O(h) discretization artifact is negligible
    p = g.ModelParams(1.0, 1.0, [1.5], [0.1], [-0.24])
    T, m, reps = 1.0, 20, 100_000
    inc = np.random.default_rng(2024).gamma(shape=1.0 * T / m, scale=1.0, size=(reps, m))
    sums, counts = bin_stats_matrix(inc, p.bin_edges)
    comp = g.psi_log(g.BinStats([1.0, 0.0], [1, 0], T), p)
    vals = np.exp(-(sums[:, 1] * 0.1 + counts[:, 1] * (-0.24)) + comp)
    se = vals.std() / math.sqrt(reps)
    mc_ok = abs(vals.mean() - 1.0) < 3 * se
    elapsed = time.perf_counter() - t0
    report(5, identities_ok and mc_ok and elapsed < 60.0,
           f"identity worst {worst:.2e} (tol 1e-10), "
           f"E[exp(psi)] dev {abs(vals.mean() - 1.0) / se:.2f} SE, {elapsed:.1f}s (limit 60s)")


def test_06_sampler_exactness_binless():
    """Posterior mean of alpha matches dense quadrature within 3 MC SE; < 5 min."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(91)
    n, beta_true, alpha_true = 50, 1.0, 2.0
    inc = rng.gamma(beta_true, 1 / alpha_true, size=n)
    obs = g.Observations.from_increments(np.arange(n + 1, dtype=float), inc)
    prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0))
    recs = list(g.run_mcmc(obs, g.ModelParams(1.0, beta_true), prior,
                           g.ProposalSpec(sigma_alpha=0.15), iterations=20_000,
                           burn_in=2_000, seed=92, m=5))
    chain = np.array([r.alpha for r in recs])
    T, XT = obs.times[-1], float(inc.sum())
    a = np.linspace(1e-6, 10.0, 400_001)
    logpost = (2 - 1) * np.log(a) - a + beta_true * T * np.log(a) - a * XT
    w = np.exp(logpost - logpost.max())
    target = float(np.trapezoid(a * w, a) / np.trapezoid(w, a))
    batches = chain[: 20 * (chain.size // 20)].reshape(20, -1).mean(axis=1)
    se = batches.std(ddof=1) / math.sqrt(batches.size)
    dev = abs(chain.mean() - target)
    elapsed = time.perf_counter() - t0
    report(6, dev < 3 * se and elapsed < 300.0,
           f"chain {chain.mean():.4f} vs quadrature {target:.4f} "
           f"({dev / se:.2f} MC SE), {elapsed:.0f}s (limit 300s)")


def test_07_beta_move_stationarity():
    """Marginal beta chain matches the quadrature posterior; < 5 min."""
    t0 = time.perf_counter()
    T, x_T, alpha, beta0 = 50.0, 100.0, 2.0, 4.0
    obs = g.Observations([0.0, T], [0.0, x_T])
    prior = g.PriorSpec(alpha=g.Prior("uniform", 1.0, 3.0),
                        beta=g.Prior("uniform", 0.1, 1000.0))
    prop = g.ProposalSpec(sigma_alpha=1e-3, sigma_beta=0.6, update_schedule=("beta",))
    recs = list(g.run_mcmc(obs, g.ModelParams(alpha, beta0), prior, prop,
                           iterations=100_000, burn_in=10_000, seed=77, m=8))
    chain = np.array([r.beta for r in recs])

    bs = np.linspace(0.5, 12.0, 400_001)
    logp = bs * T * math.log(alpha) + (bs * T - 1) * math.log(x_T) - gammaln(bs * T)
    w = np.exp(logp - logp.max())
    z = np.trapezoid(w, bs)
    mean_q = float(np.trapezoid(bs * w, bs) / z)
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    q05_q, q95_q = np.interp([0.05, 0.95], cdf, bs)
    q05_c, q95_c = np.quantile(chain, [0.05, 0.95])
    devs = {
        "mean": abs(chain.mean() - mean_q) / mean_q,
        "q05": abs(q05_c - q05_q) / q05_q,
        "q95": abs(q95_c - q95_q) / q95_q,
    }
    elapsed = time.perf_counter() - t0
    report(7, all(v <= 0.05 for v in devs.values()) and elapsed < 300.0,
           "rel devs " + ", ".join(f"{k}={v:.3%}" for k, v in devs.items())
           + f" (tol 5%), {elapsed:.0f}s (limit 300s)")


def test_08_two_gamma_mixture_desk_scale():
    """Mixture recovery: alpha within 15 percent, band coverage >= 80; < 20 min."""
    t0 = time.perf_counter()
    obs, truth = g.synth_two_gamma(2.0, 0.4, 0.2, 0.04, T=200.0, n=1000, seed=103)
    params0 = g.ModelParams(2.0, truth.beta_bar, [1.0, 2.0, 4.0],
                            [0.0] * 3, [0.0] * 3)
    prior = g.PriorSpec(
        alpha=g.Prior("gamma", 2.0, 1.0),
        theta=tuple(g.Prior("normal", 0.0, 1.0) for _ in range(3)),
        rho=tuple(g.Prior("normal", 0.0, 1.5) for _ in range(3)),
    )
    prop = g.ProposalSpec(sigma_alpha=0.025, sigma_theta=0.025, sigma_rho=0.15)
    recs = list(g.run_mcmc(obs, params0, prior, prop, iterations=20_000,
                           burn_in=4_000, seed=202, m=10))
    alphas = np.array([r.alpha for r in recs])
    rel_dev = abs(alphas.mean() - truth.alpha_bar) / truth.alpha_bar

    grid = np.arange(0.5, 4.01, 0.1)
    spec = g.BandSpec(x_grid=grid, level=0.95, functional="theta_plus_alpha_x")
    lo, hi = g.credible_band([r.to_params(params0.bin_edges) for r in recs], spec)
    target = truth.theta(grid) + truth.alpha_bar * grid
    coverage = float(((lo <= target) & (target <= hi)).mean())
    elapsed = time.perf_counter() - t0
    report(8, rel_dev <= 0.15 and coverage >= 0.80 and elapsed < 1200.0,
           f"alpha {alphas.mean():.3f} vs {truth.alpha_bar:.3f} ({rel_dev:.1%}, tol 15%), "
           f"band coverage {coverage:.0%} (floor 80%), {elapsed:.0f}s (limit 1200s)")


def test_09_posterior_contraction():
    """95 percent interval for alpha strictly narrower at n=2000 than n=200, 3 reps; < 15 min."""
    t0 = time.perf_counter()
    prior = g.PriorSpec(alpha=g.Prior("gamma", 2.0, 1.0))
    results = []
    ok = True
    for rep in range(3):
        widths = {}
        for n in (200, 2000):
            rng = np.random.default_rng(1000 + rep)
            inc = rng.gamma(1.0, 1 / 2.0, size=n)
            obs = g.Observations.from_increments(np.arange(n + 1, dtype=float), inc)
            recs = list(g.run_mcmc(obs, g.ModelParams(1.0, 1.0), prior,
                                   g.ProposalSpec(sigma_alpha=0.1), iterations=4_000,
                                   burn_in=1_000, seed=500 + rep, m=4))
            chain = np.array([r.alpha for r in recs])
            qlo, qhi = np.quantile(chain, [0.025, 0.975])
            widths[n] = qhi - qlo
        ok &= widths[2000] < widths[200]
        results.append(f"rep{rep}: {widths[200]:.3f} -> {widths[2000]:.3f}")
    elapsed = time.perf_counter() - t0
    report(9, ok and elapsed < 900.0,
           "; ".join(results) + f"; {elapsed:.0f}s (limit 900s)")


def test_10_fit_determinism(tmp_path):
    """Identical seeds give byte-identical chain.csv."""
    t0 = time.perf_counter()
    obs_csv = tmp_path / "obs.csv"
    cli_main(["simulate", "--horizon", "20", "--n", "40", "--seed", "5",
              "--out", str(obs_csv)])
    cfg = tmp_path / "model.cfg"
    cfg.write_text(
        "bin_edges = 1 2\n"
        "alpha_init = 1.0\nbeta_init = 0.44\n"
        "alpha_prior = gamma 2 1\nbeta_prior = uniform 0.05 100\n"
        "theta_prior = normal 0 1\nrho_prior = normal 0 1.5\n"
        "sigma_alpha = 0.05\nsigma_theta = 0.05\nsigma_rho = 0.15\n"
        "sigma_beta = 0.05\nupdate_schedule = beta params params params params\n"
        "refinement = 4\n"
    )
    blobs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        rc = cli_main(["fit", "--config", str(cfg), "--observations", str(obs_csv),
                       "--iterations", "400", "--burn-in", "100", "--seed", "99",
                       "--out-dir", str(out)])
        assert rc == 0
        blobs.append((out / "chain.csv").read_bytes())
    elapsed = time.perf_counter() - t0
    report(10, blobs[0] == blobs[1] and len(blobs[0]) > 0,
           f"chain.csv byte-identical across reruns ({len(blobs[0])} bytes), {elapsed:.1f}s")
