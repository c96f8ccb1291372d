"""Subordinator model: parameters, Levy density, bin masses, priors.

The jump intensity of the process has density

    v(x) = (beta / x) * exp(-alpha * x - theta(x)),   x > 0,

where theta is piecewise linear on half-open size bins B_k = [b_k, b_{k+1})
with b_0 = 0 and b_{N+1} = inf, and identically zero on B_0.  Bin masses
nu(B_k) are available in closed form through the exponential integral.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

from .exceptions import ConfigError, DomainError
from .specfun import exp_integral_e1

__all__ = [
    "ModelParams",
    "Prior",
    "PriorSpec",
    "theta_at",
    "levy_density",
    "nu_bin_mass",
    "nu_diff_bin0",
    "gamma_drift",
    "prior_logpdf",
]


def _as_readonly(values, dtype=float) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype).flatten()
    arr.flags.writeable = False
    return arr


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
    bin_edges: np.ndarray = field(default_factory=lambda: np.empty(0))
    theta_slopes: np.ndarray = field(default_factory=lambda: np.empty(0))
    theta_intercepts: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "bin_edges", _as_readonly(self.bin_edges))
        object.__setattr__(self, "theta_slopes", _as_readonly(self.theta_slopes))
        object.__setattr__(self, "theta_intercepts", _as_readonly(self.theta_intercepts))
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise DomainError(f"alpha must be finite and > 0, got {self.alpha}")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise DomainError(f"beta must be finite and > 0, got {self.beta}")
        edges = self.bin_edges
        if edges.size:
            if not np.isfinite(edges).all() or edges[0] <= 0 or (edges[1:] <= edges[:-1]).any():
                raise DomainError("bin_edges must be strictly increasing positive reals")
        n = edges.size
        if self.theta_slopes.size != n or self.theta_intercepts.size != n:
            raise DomainError(
                f"need {n} slopes and intercepts for {n} bin edges, got "
                f"{self.theta_slopes.size} and {self.theta_intercepts.size}"
            )
        if not (np.isfinite(self.theta_slopes).all() and np.isfinite(self.theta_intercepts).all()):
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

    Closed form beta * exp(-rho_k) * {E1(c*b_k) - E1(c*b_{k+1})} with
    c = slope_k + alpha; the last bin uses the single-term tail formula.
    Interior bins stay finite for any c and fall back to Ei / log limits
    when c <= 0; the tail bin requires c > 0.
    """
    n = params.n_bins
    if not 1 <= k <= n:
        raise DomainError(f"bin index must be in 1..{n}, got {k}")
    c = params.theta_slopes[k - 1] + params.alpha
    scale = params.beta * math.exp(-params.theta_intercepts[k - 1])
    lo = params.bin_edges[k - 1]
    if k == n:
        if c <= 0:
            raise DomainError(f"tail bin requires slope + alpha > 0, got {c}")
        return scale * exp_integral_e1(c * lo)
    hi = params.bin_edges[k]
    if c > 0:
        return scale * (exp_integral_e1(c * lo) - exp_integral_e1(c * hi))
    if c == 0:
        return scale * math.log(hi / lo)
    # c < 0: integral of exp(-c x)/x over [lo, hi) via Ei, still finite.
    return scale * float(special.expi(-c * hi) - special.expi(-c * lo))


def nu_diff_bin0(alpha_new: float, alpha_old: float, beta: float, b1: float) -> float:
    """Difference of jump-measure masses on B_0 = (0, b_1) between two tilt rates.

    Equals beta*ln(alpha_old/alpha_new) - beta*{E1(alpha_new*b1) - E1(alpha_old*b1)};
    the log term is the limiting value of the E1 difference at the origin.
    """
    for name, v in (("alpha_new", alpha_new), ("alpha_old", alpha_old), ("beta", beta), ("b1", b1)):
        if not (math.isfinite(v) and v > 0):
            raise DomainError(f"nu_diff_bin0 requires finite {name} > 0, got {v!r}")
    if alpha_new == alpha_old:
        return 0.0
    return beta * (
        math.log(alpha_old / alpha_new)
        - (exp_integral_e1(alpha_new * b1) - exp_integral_e1(alpha_old * b1))
    )


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


@dataclass(frozen=True)
class Prior:
    """One-dimensional prior: uniform(lo, hi), gamma(shape, rate), or normal(mean, sd)."""

    kind: str
    a: float
    b: float

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

    def logpdf(self, x: float) -> float:
        """Log-density at x; -inf outside the support."""
        if not math.isfinite(x):
            return -math.inf
        if self.kind == "uniform":
            if self.a <= x <= self.b:
                return -math.log(self.b - self.a)
            return -math.inf
        if self.kind == "gamma":
            if x <= 0:
                return -math.inf
            return self.a * math.log(self.b) + (self.a - 1) * math.log(x) - self.b * x - math.lgamma(self.a)
        # normal(mean, sd)
        z = (x - self.a) / self.b
        return -0.5 * z * z - math.log(self.b) - 0.5 * math.log(2 * math.pi)

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


def prior_logpdf(spec: PriorSpec, params: ModelParams) -> float:
    """Sum of component prior log-densities at the given parameters.

    Returns -inf when any parameter leaves its support or when the tail
    constraint slope_N > -alpha is requested and violated.
    """
    if spec.n_bins != params.n_bins:
        raise ConfigError(
            f"prior covers {spec.n_bins} bins but params have {params.n_bins}"
        )
    n = params.n_bins
    if spec.tail_constraint and n and params.theta_slopes[-1] <= -params.alpha:
        return -math.inf
    total = spec.alpha.logpdf(params.alpha)
    if spec.beta is not None:
        total += spec.beta.logpdf(params.beta)
    if spec.reparam:
        total += spec.theta[0].logpdf(params.alpha + params.theta_slopes[0])
        total += spec.rho[0].logpdf(params.beta * math.exp(-params.theta_intercepts[0]))
        return total
    for k in range(n):
        total += spec.theta[k].logpdf(params.theta_slopes[k])
        total += spec.rho[k].logpdf(params.theta_intercepts[k])
    return total
