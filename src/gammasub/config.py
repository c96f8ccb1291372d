"""Flat key-value run configuration.

A config file is plain text, one ``key = value`` pair per line, ``#`` starts
a comment.  Recognized keys:

    bin_edges       = 1 2 4          strictly increasing positive reals
                                     (omit or leave empty for the binless model)
    alpha_init      = 1.0
    beta_init       = 1.0
    theta_init      = 0 0 0          defaults to zeros
    rho_init        = 0 0 0          defaults to zeros

    alpha_prior     = gamma 2 1      one of: uniform LO HI | gamma SHAPE RATE
    beta_prior      = uniform 0.1 1000   | normal MEAN SD; omit beta_prior to
    theta_prior     = normal 0 3.2       fix beta (disables the beta move)
    rho_prior       = normal 0 7.1   theta/rho priors broadcast over bins
    reparam         = false          per bin, with beta fixed or random: priors
                                     on alpha + slope_k and beta*exp(-rho_k)
                                     (theta/rho_prior); the moves and
                                     sigma_rho are unchanged

    sigma_alpha     = 0.025          proposal scales; these values and the
    sigma_theta     = 0.025          schedule below are mcmc.ProposalSpec's
    sigma_rho       = 0.15           defaults
    sigma_beta      = 0.01
    update_schedule = params         stages cycled per sweep, params | beta,
                                     in any case; a beta stage is required
                                     exactly when beta_prior is set, e.g.
                                     beta params params params params
    refinement      = 10             imputed points per observation interval
"""

from dataclasses import dataclass

from .exceptions import ConfigError
from .mcmc import ProposalSpec
from .model import ModelParams, Prior, PriorSpec

__all__ = ["RunConfig", "parse_config", "load_config"]

_SIGMAS = ("sigma_alpha", "sigma_theta", "sigma_rho", "sigma_beta")


@dataclass(frozen=True)
class RunConfig:
    params0: ModelParams
    prior: PriorSpec
    proposal: ProposalSpec
    refinement: int
    raw: dict

    def echo(self) -> dict:
        """The parsed key-value pairs, for the run manifest."""
        return dict(self.raw)


def _parse_pairs(text: str) -> dict[str, str]:
    pairs = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {line_no}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        key = key.strip().lower()
        if key in pairs:
            raise ConfigError(f"config line {line_no}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs


def _number(value: str, key: str, kind=float):
    """value as a kind (float or int); ConfigError naming key when it is not one."""
    try:
        return kind(value)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key}: expected {expected}, got {value!r}") from None


def _floats(value: str, key: str) -> tuple[float, ...]:
    return tuple(_number(v, key) for v in value.replace(",", " ").split())


def _bool(value: str, key: str) -> bool:
    low = value.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _prior(value: str, key: str) -> Prior:
    parts = value.split()
    if len(parts) != 3:
        raise ConfigError(f"{key}: expected 'KIND A B', got {value!r}")
    kind = parts[0].lower()
    try:
        a, b = float(parts[1]), float(parts[2])
    except ValueError:
        raise ConfigError(f"{key}: bad hyperparameters in {value!r}") from None
    return Prior(kind, a, b)


def parse_config(text: str) -> RunConfig:
    """Parse flat key-value text into the model, prior, and proposal specs."""
    pairs = _parse_pairs(text)
    known = {
        "bin_edges", "alpha_init", "beta_init", "theta_init", "rho_init",
        "alpha_prior", "beta_prior", "theta_prior", "rho_prior",
        "reparam", *_SIGMAS, "update_schedule", "refinement",
    }
    unknown = set(pairs) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    edges = _floats(pairs.get("bin_edges", ""), "bin_edges")
    n = len(edges)

    def _scalar(key: str, default: str, kind=float):
        return _number(pairs.get(key, default), key, kind)

    def _vector(key: str) -> tuple[float, ...]:
        if key not in pairs:
            return (0.0,) * n
        vec = _floats(pairs[key], key)
        if len(vec) == 1 and n > 1:
            vec *= n
        if len(vec) != n:
            raise ConfigError(f"{key}: expected {n} values, got {len(vec)}")
        return vec

    if "alpha_init" not in pairs:
        raise ConfigError("config must set alpha_init")
    params0 = ModelParams(
        alpha=_number(pairs["alpha_init"], "alpha_init"),
        beta=_scalar("beta_init", "1.0"),
        bin_edges=edges,
        theta_slopes=_vector("theta_init"),
        theta_intercepts=_vector("rho_init"),
    )

    if "alpha_prior" not in pairs:
        raise ConfigError("config must set alpha_prior")
    alpha_prior = _prior(pairs["alpha_prior"], "alpha_prior")
    beta_prior = _prior(pairs["beta_prior"], "beta_prior") if "beta_prior" in pairs else None
    if n:
        if "theta_prior" not in pairs or "rho_prior" not in pairs:
            raise ConfigError("binned models must set theta_prior and rho_prior")
        theta_priors = (_prior(pairs["theta_prior"], "theta_prior"),) * n
        rho_priors = (_prior(pairs["rho_prior"], "rho_prior"),) * n
    else:
        theta_priors = ()
        rho_priors = ()
    prior = PriorSpec(
        alpha=alpha_prior,
        beta=beta_prior,
        theta=theta_priors,
        rho=rho_priors,
        reparam=_bool(pairs.get("reparam", "false"), "reparam"),
    )

    # only the keys the file sets: ProposalSpec holds the defaults
    proposal_keys = {key: _number(pairs[key], key) for key in _SIGMAS if key in pairs}
    if "update_schedule" in pairs:
        # stage names, like keys, prior kinds and booleans, in any case
        proposal_keys["update_schedule"] = tuple(pairs["update_schedule"].lower().split())
    proposal = ProposalSpec(**proposal_keys)

    # run_mcmc's TimeGrid checks that refinement is >= 1
    return RunConfig(params0=params0, prior=prior, proposal=proposal,
                     refinement=_scalar("refinement", "10", int), raw=pairs)


def load_config(path) -> RunConfig:
    """parse_config of a UTF-8 file, a leading byte-order mark dropped."""
    with open(path, encoding="utf-8-sig") as fh:
        return parse_config(fh.read())
