"""Subordinator model: parameters, Levy density, bin masses, priors.

The jump intensity of the process has density

    v(x) = (beta / x) * exp(-alpha * x - theta(x)),   x > 0,

where theta is piecewise linear on half-open size bins B_k = [b_k, b_{k+1})
with b_0 = 0 and b_{N+1} = inf, and identically zero on B_0.  Bin masses
nu(B_k) are available in closed form through the exponential integral.
"""

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import integrate, special

from .exceptions import ConfigError, DomainError
from .specfun import exp_integral_e1, exp_integral_e1_values

__all__ = [
    "ModelParams",
    "Prior",
    "PriorSpec",
    "theta_at",
    "levy_density",
    "nu_bin_mass",
    "nu_diff_bin0",
    "bin0_mass_diff",
    "mass_factors",
    "bin_mass_values",
    "gamma_drift",
    "prior_logpdf",
]


_FLOAT = np.dtype(float)


def _as_readonly(values) -> np.ndarray:
    """A read-only 1-D float copy of values; a read-only 1-D float array that
    owns its data, as this returns, is shared instead of copied."""
    if (type(values) is np.ndarray and values.dtype is _FLOAT and values.ndim == 1
            and values.base is None and not values.flags.writeable):
        return values
    arr = np.array(values, dtype=float, ndmin=1)
    if arr.ndim != 1:
        arr = arr.flatten()
    arr.setflags(write=False)
    return arr


_NONE = _as_readonly(())     # the binless model's edges, slopes and intercepts


def _all_finite(values) -> bool:
    return all(map(math.isfinite, values))


@dataclass(frozen=True)
class ModelParams:
    """Immutable parameter triple (alpha, beta, piecewise theta).

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
    bin_edges: np.ndarray = field(default_factory=lambda: _NONE)
    theta_slopes: np.ndarray = field(default_factory=lambda: _NONE)
    theta_intercepts: np.ndarray = field(default_factory=lambda: _NONE)

    def __post_init__(self):
        alpha, beta = float(self.alpha), float(self.beta)
        edges, slopes, intercepts = (_as_readonly(self.bin_edges), _as_readonly(self.theta_slopes),
                                     _as_readonly(self.theta_intercepts))
        # one write past the frozen __setattr__
        self.__dict__.update(alpha=alpha, beta=beta, bin_edges=edges, theta_slopes=slopes,
                             theta_intercepts=intercepts)
        if not (math.isfinite(alpha) and alpha > 0):
            raise DomainError(f"alpha must be finite and > 0, got {alpha}")
        if not (math.isfinite(beta) and beta > 0):
            raise DomainError(f"beta must be finite and > 0, got {beta}")
        # checked on float lists: numpy reductions cost more at these sizes
        edges = edges.tolist()
        if edges and (not _all_finite(edges) or edges[0] <= 0
                      or not all(map(operator.lt, edges, edges[1:]))):
            raise DomainError("bin_edges must be strictly increasing positive reals")
        n = len(edges)
        if slopes.size != n or intercepts.size != n:
            raise DomainError(
                f"need {n} slopes and intercepts for {n} bin edges, got "
                f"{slopes.size} and {intercepts.size}"
            )
        if not (_all_finite(slopes.tolist()) and _all_finite(intercepts.tolist())):
            raise DomainError("theta slopes and intercepts must be finite")

    @property
    def tail_integrable(self) -> bool:
        """Whether the tail bin has finite mass (last slope exceeds -alpha).

        Proposals violating this are representable so that the -inf prior can
        reject them; every retained sampler state satisfies it.
        """
        return self.n_bins == 0 or self.theta_slopes[-1] > -self.alpha

    @property
    def n_bins(self) -> int:
        return self.bin_edges.size

    def with_updates(self, **changes) -> "ModelParams":
        """Return a copy with the given fields replaced."""
        fields = {
            "alpha": self.alpha,
            "beta": self.beta,
            "bin_edges": self.bin_edges,
            "theta_slopes": self.theta_slopes,
            "theta_intercepts": self.theta_intercepts,
        }
        fields.update(changes)
        return ModelParams(**fields)

    def gamma_reference(self) -> "ModelParams":
        """The pure Gamma model sharing (beta, alpha) and bins, theta zeroed."""
        n = self.n_bins
        return self.with_updates(theta_slopes=np.zeros(n), theta_intercepts=np.zeros(n))


def _check_positive_x(x: np.ndarray) -> None:
    if x.size == 0:
        return
    if not np.all(np.isfinite(x)) or np.any(x <= 0):
        raise DomainError("x must be finite and > 0")


def theta_at(params: ModelParams, x):
    """Evaluate the piecewise-linear perturbation theta at x (scalar or array).

    theta is 0 below the first edge; on [b_k, b_{k+1}) it equals
    intercept_k + slope_k * x, with edges assigned to the right bin.
    """
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    _check_positive_x(x_arr)
    if params.n_bins == 0:
        out = np.zeros_like(x_arr)
    else:
        idx = np.searchsorted(params.bin_edges, x_arr, side="right")
        slopes = np.concatenate(([0.0], params.theta_slopes))
        intercepts = np.concatenate(([0.0], params.theta_intercepts))
        out = intercepts[idx] + slopes[idx] * x_arr
    return float(out[0]) if scalar else out


def levy_density(params: ModelParams, x):
    """Jump intensity (beta / x) * exp(-alpha*x - theta(x)) at x (scalar or array)."""
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    _check_positive_x(x_arr)
    out = (params.beta / x_arr) * np.exp(-params.alpha * x_arr - theta_at(params, x_arr))
    return float(out[0]) if scalar else out


def nu_bin_mass(params: ModelParams, k: int) -> float:
    """Mass of the jump measure on bin B_k = [b_k, b_{k+1}), for k in 1..N.

    beta * exp(-rho_k) * {E1(c*b_k) - E1(c*b_{k+1})} with c = slope_k + alpha,
    from mass_factors and bin_mass_values; the last bin has the single-term
    tail formula.  Raises DomainError for k outside 1..N, and when the tail
    bin has slope + alpha <= 0 (its mass is infinite).
    """
    n = params.n_bins
    if not 1 <= k <= n:
        raise DomainError(f"bin index must be in 1..{n}, got {k}")
    _, units, _ = mass_factors(params.alpha, params.theta_slopes.tolist(),
                               params.bin_edges.tolist())
    return bin_mass_values(params.beta, params.theta_intercepts.tolist(), units)[k - 1]


def mass_factors(alpha: float, slopes, edges, reference: bool = False):
    """The E1 factors of the bin masses at float parameters, from one exp1 call.

    Returns (e1_b1, units, ref_units) for alpha, the slopes and the edges
    b_1 < ... < b_N as floats:

    - e1_b1 = E1(alpha * b_1), the B_0 term of bin0_mass_diff; 0.0 for a
      binless model, whose B_0 reaches b_1 = inf;
    - units[k-1] = nu(B_k) / (beta * exp(-rho_k)), the integral of
      exp(-c x) / x over B_k with c = slope_k + alpha: E1(c b_k) - E1(c b_{k+1}),
      E1(c b_N) for the tail bin, and for an interior bin with c <= 0 its
      finite limit, ln(b_{k+1} / b_k) at c = 0 and an Ei difference below;
    - ref_units[k-1] = nu_ref(B_k) / beta for the Gamma reference (theta
      zero), or None unless reference is true.

    Neither beta nor the intercepts enter, so a move that changes only those
    reuses the factors.  Raises DomainError when the tail bin has
    slope + alpha <= 0.
    """
    n = len(edges)
    if n == 0:
        return 0.0, (), () if reference else None
    n_ref = n if reference else 1
    zs = [alpha * b for b in edges[:n_ref]]
    rates = [s + alpha for s in slopes]
    for k, c in enumerate(rates):
        if c > 0:
            zs.append(c * edges[k])
            if k + 1 < n:
                zs.append(c * edges[k + 1])
        elif k + 1 == n:
            raise DomainError(f"tail bin requires slope + alpha > 0, got {c}")
    e1 = exp_integral_e1_values(zs)
    bins = iter(e1[n_ref:])
    units = []
    for k, c in enumerate(rates):
        if c > 0:
            units.append(next(bins) - next(bins) if k + 1 < n else next(bins))
        elif c == 0:
            units.append(math.log(edges[k + 1] / edges[k]))
        else:
            units.append(float(special.expi(-c * edges[k + 1]) - special.expi(-c * edges[k])))
    ref_units = None
    if reference:
        ref_units = tuple(e1[k] - e1[k + 1] for k in range(n - 1)) + (e1[n - 1],)
    return e1[0], tuple(units), ref_units


def bin_mass_values(beta: float, intercepts, units) -> tuple[float, ...]:
    """The bin masses nu(B_k) = beta * exp(-rho_k) * units[k-1], k = 1..N, from
    mass_factors's units."""
    return tuple([beta * math.exp(-rho) * unit for rho, unit in zip(intercepts, units)])


def bin0_mass_diff(beta: float, alpha_new: float, alpha_old: float, e1_new: float,
                   e1_old: float) -> float:
    """(nu_new - nu_old)(B_0) between two tilt rates, from e1 = E1(alpha * b_1) at each.

    Equals beta*ln(alpha_old/alpha_new) - beta*(e1_new - e1_old), exactly 0.0
    for equal rates; the log term is the limiting value of the E1 difference
    at the origin.  A binless model passes e1 = 0.0 (b_1 = inf).
    """
    if alpha_new == alpha_old:
        return 0.0
    return beta * (math.log(alpha_old / alpha_new) - (e1_new - e1_old))


def nu_diff_bin0(alpha_new: float, alpha_old: float, beta: float, b1: float) -> float:
    """Difference of jump-measure masses on B_0 = (0, b_1) between two tilt rates.

    bin0_mass_diff with E1(alpha * b1) at both rates.
    """
    for name, v in (("alpha_new", alpha_new), ("alpha_old", alpha_old), ("beta", beta), ("b1", b1)):
        if not (math.isfinite(v) and v > 0):
            raise DomainError(f"nu_diff_bin0 requires finite {name} > 0, got {v!r}")
    return bin0_mass_diff(beta, alpha_new, alpha_old, exp_integral_e1(alpha_new * b1),
                          exp_integral_e1(alpha_old * b1))


def gamma_drift(params: ModelParams) -> float:
    """Numerical drift diagnostic: integral of x * v(x) over (0, 1].

    The sampler never needs this; it is exposed for model checking only.
    """
    # x * v(x) = beta*exp(-alpha*x - theta(x)) is bounded, with kinks at edges.
    def integrand(x):
        return params.beta * math.exp(-params.alpha * x - theta_at(params, x))

    interior = [float(b) for b in params.bin_edges if 0.0 < b < 1.0]
    val, _ = integrate.quad(integrand, 0.0, 1.0, points=interior or None,
                            epsrel=1e-10, epsabs=0, limit=200)
    return val


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

    @staticmethod
    def from_mean_variance(mean: float, variance: float) -> "Prior":
        """Gamma prior with the given mean and variance (moment matching)."""
        if mean <= 0 or variance <= 0:
            raise ConfigError("mean and variance must be positive")
        return Prior("gamma", mean * mean / variance, mean / variance)


@dataclass(frozen=True)
class PriorSpec:
    """Joint prior over the free parameters.

    In the default (natural) mode, components cover alpha, optionally beta,
    and the per-bin slopes/intercepts.  ``beta=None`` declares beta known and
    fixed, which also disables the transdimensional beta move.

    With ``reparam=True`` (single-bin models only) the slope/intercept priors
    are read as priors on the transformed coordinates alpha + slope_1 and
    beta * exp(-intercept_1), matching a two-regime rate/activity description.
    """

    alpha: Prior
    beta: Prior | None = None
    theta: tuple[Prior, ...] = ()
    rho: tuple[Prior, ...] = ()
    tail_constraint: bool = True
    reparam: bool = False

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(self.theta))
        object.__setattr__(self, "rho", tuple(self.rho))
        if len(self.theta) != len(self.rho):
            raise ConfigError("need one slope prior per intercept prior")
        if self.reparam:
            if len(self.theta) != 1:
                raise ConfigError("reparam mode requires exactly one bin")
            if self.beta is None:
                raise ConfigError("reparam mode requires a beta prior")

    @property
    def n_bins(self) -> int:
        return len(self.theta)

    @property
    def beta_is_random(self) -> bool:
        return self.beta is not None

    def logpdf(self, alpha: float, beta: float, slopes, intercepts) -> float:
        """Sum of component prior log-densities at float parameters.

        The slopes and intercepts are sequences of N floats.  Returns -inf
        when any parameter leaves its support or when the tail constraint
        slope_N > -alpha is requested and violated.
        """
        if self.tail_constraint and slopes and slopes[-1] <= -alpha:
            return -math.inf
        total = self.alpha.logpdf(alpha)
        if self.beta is not None:
            total += self.beta.logpdf(beta)
        if self.reparam:
            total += self.theta[0].logpdf(alpha + slopes[0])
            total += self.rho[0].logpdf(beta * math.exp(-intercepts[0]))
            return total
        for slope_prior, intercept_prior, slope, intercept in zip(self.theta, self.rho, slopes,
                                                                  intercepts):
            total += slope_prior.logpdf(slope)
            total += intercept_prior.logpdf(intercept)
        return total


def prior_logpdf(spec: PriorSpec, params: ModelParams) -> float:
    """spec.logpdf at the given parameters; ConfigError when their bins differ from the spec's."""
    if spec.n_bins != params.n_bins:
        raise ConfigError(
            f"prior covers {spec.n_bins} bins but params have {params.n_bins}"
        )
    return spec.logpdf(params.alpha, params.beta, params.theta_slopes.tolist(),
                       params.theta_intercepts.tolist())
