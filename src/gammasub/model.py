"""Subordinator model: parameters, Levy density, bin masses, priors.

The jump intensity of the process has density

    v(x) = (beta / x) * exp(-alpha * x - theta(x)),   x > 0,

where theta is piecewise linear on half-open size bins B_k = [b_k, b_{k+1})
with b_0 = 0 and b_{N+1} = inf, and identically zero on B_0.  bin_classify
assigns values to bins, an edge to the bin on its right, for the bin
statistics of likelihood and for theta alike.  Bin masses nu(B_k) are
available in closed form through the exponential integral; the tail bin's
is +inf for slope_N <= -alpha, where prior_logpdf is -inf.

Each formula the sampler's ratios read is one function on Python floats:
mass_factors takes a parameter vector's E1 factors from one
specfun.exp_integral_e1 call, nu_bin_mass turns them into the masses
nu(B_1), ..., nu(B_N), nu_diff_bin0 gives the B_0 mass difference between
two tilt rates, and prior_logpdf a PriorSpec's joint log prior.  The
sampler calls them by these names, through this module's globals and
likelihood's.  ModelParams is the validated parameter type of the API edge
(run_mcmc's start, ChainRecord.to_params, the credible bands), held as
floats and tuples of floats; theta_at and levy_density evaluate it at points.
"""

import dataclasses
import math
import operator
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .exceptions import ConfigError, DomainError
from .specfun import exp_integral_e1, exp_integral_ei_values

__all__ = [
    "ModelParams",
    "Prior",
    "PriorSpec",
    "theta_at",
    "theta_rows",
    "levy_density",
    "nu_bin_mass",
    "nu_diff_bin0",
    "mass_factors",
    "reference_units",
    "prior_logpdf",
]


def _float_tuple(values) -> tuple[float, ...]:
    """values itself when it is a tuple of floats, else flattened into a new one."""
    if type(values) is tuple and all(type(v) is float for v in values):
        return values
    return tuple(np.asarray(values, dtype=float).reshape(-1).tolist())


def _all_finite(values) -> bool:
    return all(map(math.isfinite, values))


# the largest x whose math.exp(x) is a float: exp(-rho) overflows for rho below -709.78
_LOG_MAX = math.log(sys.float_info.max)


# slots: no per-instance dict, so vars(params) does not work; a chain's
# records become one ModelParams each (ChainRecord.to_params)
@dataclass(frozen=True, slots=True)
class ModelParams:
    """Immutable parameter triple (alpha, beta, piecewise theta), as floats.

    The vector fields are tuples of floats, as ParamTerms' and ChainRecord's
    are, so equal parameters compare equal, hash alike and pickle as they
    are.  A tuple of floats is kept, not copied; any other input is
    flattened into one.

    Attributes:
        alpha: exponential tilt rate, > 0.
        beta: activity/shape rate, > 0.
        bin_edges: strictly increasing positive edges b_1 < ... < b_N.
            Empty means the pure Gamma process (theta identically 0).
        theta_slopes: slope perturbations per bin, length N.
        theta_intercepts: intercept perturbations per bin, length N.
    """

    alpha: float
    beta: float
    bin_edges: tuple[float, ...] = ()
    theta_slopes: tuple[float, ...] = ()
    theta_intercepts: tuple[float, ...] = ()

    def __post_init__(self):
        alpha, beta = float(self.alpha), float(self.beta)
        edges, slopes, intercepts = (_float_tuple(self.bin_edges), _float_tuple(self.theta_slopes),
                                     _float_tuple(self.theta_intercepts))
        for name, value in (("alpha", alpha), ("beta", beta), ("bin_edges", edges),
                            ("theta_slopes", slopes), ("theta_intercepts", intercepts)):
            object.__setattr__(self, name, value)      # past the frozen __setattr__
        if not (math.isfinite(alpha) and alpha > 0):
            raise DomainError(f"alpha must be finite and > 0, got {alpha}")
        if not (math.isfinite(beta) and beta > 0):
            raise DomainError(f"beta must be finite and > 0, got {beta}")
        if edges and (not _all_finite(edges) or edges[0] <= 0
                      or not all(map(operator.lt, edges, edges[1:]))):
            raise DomainError("bin_edges must be strictly increasing positive reals")
        n = len(edges)
        if len(slopes) != n or len(intercepts) != n:
            raise DomainError(
                f"need {n} slopes and intercepts for {n} bin edges, got "
                f"{len(slopes)} and {len(intercepts)}"
            )
        if not (_all_finite(slopes) and _all_finite(intercepts)):
            raise DomainError("theta slopes and intercepts must be finite")

    @property
    def n_bins(self) -> int:
        return len(self.bin_edges)

    def with_updates(self, **changes) -> "ModelParams":
        """Return a validated copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)


def bin_classify(values: np.ndarray, bin_edges) -> np.ndarray:
    """Half-open bin index of each value (0 for B_0, edges go right).

    The index is the number of edges at or below the value: one
    searchsorted(side="right"), cheaper than a comparison pass per edge even
    for a few edges.  A NaN value sorts above every edge, into B_N.
    """
    return np.asarray(bin_edges, dtype=float).searchsorted(values, side="right")


def theta_rows(slopes, intercepts) -> tuple[np.ndarray, np.ndarray]:
    """theta's slopes and intercepts by bin, bin B_0's zeros first.

    slopes and intercepts are (N,) for one sample or (N, S), one column per
    sample; the results are (N+1,) or (N+1, S), row k bin B_k's.  theta at a
    point x of bin k (bin_classify) is intercepts[k] + slopes[k] * x: for
    one sample at many points (theta_at) or for S samples at one point
    (diagnostics.credible_band).
    """
    pad = np.zeros((1,) + np.shape(slopes)[1:])
    return np.concatenate((pad, slopes)), np.concatenate((pad, intercepts))


def theta_at(params: ModelParams, x):
    """Evaluate the piecewise-linear perturbation theta at x (scalar or array).

    theta is 0 below the first edge; on [b_k, b_{k+1}) it equals
    intercept_k + slope_k * x, with edges assigned to the right bin, read
    from theta_rows.  x is checked finite and > 0.
    """
    x_arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x_arr)) or np.any(x_arr <= 0):
        raise DomainError("x must be finite and > 0")
    slopes, intercepts = theta_rows(params.theta_slopes, params.theta_intercepts)
    k = bin_classify(x_arr, params.bin_edges)
    out = intercepts[k] + slopes[k] * x_arr
    return float(out) if x_arr.ndim == 0 else out


def levy_density(params: ModelParams, x):
    """Jump intensity (beta / x) * exp(-alpha*x - theta(x)) at x (scalar or
    array); theta_at checks x."""
    theta = theta_at(params, x)
    x_arr = np.asarray(x, dtype=float)
    out = (params.beta / x_arr) * np.exp(-params.alpha * x_arr - theta)
    return float(out) if x_arr.ndim == 0 else out


def mass_factors(alpha: float, slopes, edges):
    """The E1 factors of the bin masses at float parameters, from one exp1 call.

    Returns (e1_b1, units) for alpha, the slopes and the edges b_1 < ... <
    b_N as floats:

    - e1_b1 = E1(alpha * b_1), the B_0 term of nu_diff_bin0; 0.0 for a
      binless model, whose B_0 reaches b_1 = inf;
    - units[k-1] = nu(B_k) / (beta * exp(-rho_k)), the integral of
      exp(-c x) / x over B_k with c = slope_k + alpha: E1(c b_k) - E1(c b_{k+1}),
      E1(c b_N) for the tail bin, and for an interior bin with c <= 0 its
      finite limit, ln(b_{k+1} / b_k) at c = 0 and an Ei difference below,
      +inf once Ei(-c b_{k+1}) overflows (a move's ratio to it is -inf), and
      +inf for the tail bin with c <= 0, whose integral diverges.

    E1 is evaluated at alpha * b_1 and the bins' points, up to 2N points.
    Neither beta nor the intercepts enter, so a move that changes only those
    reuses the factors.
    """
    n = len(edges)
    if n == 0:
        return 0.0, ()
    zs = [alpha * edges[0]]
    rates = [s + alpha for s in slopes]
    for k, c in enumerate(rates):
        if c > 0:
            zs.append(c * edges[k])
            if k + 1 < n:
                zs.append(c * edges[k + 1])
    e1 = exp_integral_e1(zs)
    bins = iter(e1[1:])
    units = []
    for k, c in enumerate(rates):
        if c > 0:
            units.append(next(bins) - next(bins) if k + 1 < n else next(bins))
        elif k + 1 == n:
            units.append(math.inf)
        elif c == 0:
            units.append(math.log(edges[k + 1] / edges[k]))
        else:
            upper, lower = exp_integral_ei_values([-c * edges[k + 1], -c * edges[k]])
            units.append(upper - lower if upper < math.inf else math.inf)
    return e1[0], tuple(units)


def reference_units(alpha: float, edges, e1_b1: float) -> tuple[float, ...]:
    """nu_ref(B_k) / beta, k = 1..N, of the Gamma reference (theta zero), which psi_log
    reads: E1(alpha b_k) - E1(alpha b_{k+1}), and E1(alpha b_N) for the tail bin, from
    mass_factors's e1_b1 = E1(alpha b_1) and one exp_integral_e1 call at the other points."""
    e1 = [e1_b1, *exp_integral_e1([alpha * b for b in edges[1:]])] if edges else []
    return tuple(map(operator.sub, e1, e1[1:])) + tuple(e1[-1:])


def nu_bin_mass(beta: float, intercepts, units) -> tuple[float, ...]:
    """The bin masses nu(B_k) = beta * exp(-rho_k) * units[k-1], k = 1..N, from
    mass_factors's units.

    Each mass is that float product where the product is finite.  Elsewhere
    it is +inf for an infinite unit (the product is NaN where exp(-rho_k)
    underflows to 0, rho_k > 745), and for a finite unit it is formed from
    logs, exp(ln beta - rho_k + ln unit), +inf past the float range: what a
    rho_k below -709.78, where exp(-rho_k) overflows, needs.
    """
    masses = []
    for rho, unit in zip(intercepts, units):
        mass = beta * math.exp(-rho) * unit if rho >= -_LOG_MAX else math.nan
        masses.append(mass if mass < math.inf else _mass_from_logs(beta, rho, unit))
    return tuple(masses)


def _mass_from_logs(beta: float, rho: float, unit: float) -> float:
    """beta * exp(-rho) * unit where the float product is not finite (see nu_bin_mass)."""
    if unit == math.inf:
        return math.inf
    if not unit:
        return 0.0
    log_mass = math.log(beta) - rho + math.log(unit)
    return math.inf if log_mass > _LOG_MAX else math.exp(log_mass)


def nu_diff_bin0(beta: float, alpha_new: float, alpha_old: float, e1_new: float,
                 e1_old: float) -> float:
    """(nu_new - nu_old)(B_0) between two tilt rates, from e1 = E1(alpha * b_1) at each.

    Equals beta*ln(alpha_old/alpha_new) - beta*(e1_new - e1_old); the log
    term is the limiting value of the E1 difference at the origin.  Equal
    rates with equal e1 give exactly 0.0, as ln(1.0) and e1 - e1 are 0.0.  A
    binless model passes e1 = 0.0 (b_1 = inf).
    """
    return beta * (math.log(alpha_old / alpha_new) - (e1_new - e1_old))


def _log_density(kind: str, a: float, b: float) -> Callable[[float], float]:
    """The log-density of a Prior as a function of a float, constants hoisted."""
    log, isfinite = math.log, math.isfinite
    if kind == "uniform":
        density = -math.log(b - a)
        return lambda x: density if a <= x <= b else -math.inf
    if kind == "gamma":
        head, power, tail = a * math.log(b), a - 1, math.lgamma(a)
        return lambda x: head + power * log(x) - b * x - tail if 0 < x < math.inf else -math.inf
    log_sd, log_root = math.log(b), 0.5 * math.log(2 * math.pi)

    def normal(x):
        if not isfinite(x):
            return -math.inf
        z = (x - a) / b
        return -0.5 * z * z - log_sd - log_root
    return normal


@dataclass(frozen=True)
class Prior:
    """One-dimensional prior: uniform(lo, hi), gamma(shape, rate), or normal(mean, sd).

    logpdf(x) is the log-density at a float x, -inf outside the support and
    at non-finite x; it is built once per prior.
    """

    kind: str
    a: float
    b: float
    logpdf: Callable[[float], float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("uniform", "gamma", "normal"):
            raise ConfigError(f"unknown prior kind {self.kind!r}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ConfigError("prior hyperparameters must be finite")
        if self.kind == "uniform" and not self.a < self.b:
            raise ConfigError(f"uniform prior needs lo < hi, got ({self.a}, {self.b})")
        if self.kind in ("gamma", "normal") and self.b <= 0:
            raise ConfigError(f"{self.kind} prior needs positive scale parameter, got {self.b}")
        if self.kind == "gamma" and self.a <= 0:
            raise ConfigError(f"gamma prior needs positive shape, got {self.a}")
        object.__setattr__(self, "logpdf", _log_density(self.kind, self.a, self.b))

    def __reduce__(self):
        # logpdf is a closure, which pickle cannot store; it is rebuilt from the fields
        return Prior, (self.kind, self.a, self.b)


@dataclass(frozen=True)
class PriorSpec:
    """Joint prior over the free parameters.

    In the default (natural) mode, components cover alpha, optionally beta,
    and the per-bin slopes/intercepts.  ``beta=None`` declares beta known and
    fixed, which also disables the transdimensional beta move.

    With ``reparam=True`` the slope/intercept priors are read, per bin and
    with beta fixed or random, as priors on each bin's rate alpha + slope_k
    and mass scale beta * exp(-intercept_k).  This changes the prior alone
    (prior_logpdf); the moves are those of the default mode.
    """

    alpha: Prior
    beta: Prior | None = None
    theta: tuple[Prior, ...] = ()
    rho: tuple[Prior, ...] = ()
    reparam: bool = False

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(self.theta))
        object.__setattr__(self, "rho", tuple(self.rho))
        if len(self.theta) != len(self.rho):
            raise ConfigError("need one slope prior per intercept prior")

    @property
    def n_bins(self) -> int:
        return len(self.theta)

    @property
    def beta_is_random(self) -> bool:
        return self.beta is not None


def prior_logpdf(spec: PriorSpec, alpha: float, beta: float, slopes, intercepts) -> float:
    """Sum of spec's component prior log-densities at float parameters.

    Precondition: the slopes and intercepts are sequences of N floats, N =
    spec.n_bins, as ChainState.score checks: the bins are zipped.
    In reparam mode the components are densities, per bin and with beta
    fixed or random, of (alpha, beta, alpha + slope_k, beta exp(-rho_k)), and
    the sum gains that map's log-Jacobian sum_k (ln(beta) - rho_k).  Returns
    -inf when any parameter leaves its support, is NaN or infinite, or the
    tail bin has infinite mass (slope_N <= -alpha); in reparam mode also
    for beta outside (0, inf), fixed or not.  A binless model outside reparam
    mode returns after the alpha and beta terms, with no bin loop.
    """
    if (slopes and slopes[-1] <= -alpha) or (spec.reparam and not 0.0 < beta < math.inf):
        return -math.inf
    total = spec.alpha.logpdf(alpha)
    if spec.beta is not None:
        total += spec.beta.logpdf(beta)
    if not (slopes or spec.reparam):
        return total
    if spec.reparam:
        # beta exp(-rho_k) is a bin mass at unit 1, the same bits where it is finite
        rates = [alpha + s for s in slopes]
        scales = nu_bin_mass(beta, intercepts, (1.0,) * len(intercepts))
    else:
        rates, scales = slopes, intercepts
    for slope_prior, intercept_prior, x, y in zip(spec.theta, spec.rho, rates, scales):
        total += slope_prior.logpdf(x)
        total += intercept_prior.logpdf(y)
    if spec.reparam and total > -math.inf:
        # fsum, not sum, whose rounding changed in Python 3.12: the same bits everywhere
        return total + len(intercepts) * math.log(beta) - math.fsum(intercepts)
    return total
