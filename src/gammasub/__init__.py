"""Nonparametric Bayesian inference for Gamma-type Levy subordinators.

Fits the jump density (beta/x)*exp(-alpha*x - theta(x)), theta piecewise
linear on size bins, to discretely observed non-decreasing data.  The
intractable likelihood is handled by Gamma bridge data augmentation; the
activity rate beta moves through a transdimensional superposition/thinning
step.
"""

from .data import Observations, TwoGammaTruth, ingest_losses, synth_two_gamma
from .diagnostics import BandSpec, credible_band, histogram, running_average
from .exceptions import (
    ConfigError,
    ContractError,
    DataError,
    DegeneratePathError,
    DomainError,
    GammasubError,
)
from .likelihood import ParamTerms, loglik_ratio_params, loglik_ratio_path, psi_log
from .mcmc import (
    ChainRecord,
    ChainState,
    ProposalSpec,
    init_chain,
    refresh_segments,
    run_mcmc,
    update_beta,
    update_params,
)
from .model import (
    ModelParams,
    Prior,
    PriorSpec,
    levy_density,
    nu_bin_mass,
    nu_diff_bin0,
    prior_logpdf,
    theta_at,
)
from .paths import TimeGrid, augment_path, gamma_bridge, sample_gamma_bridge, thin_path
from .specfun import exp_integral_e1, gamma_logpdf

__version__ = "0.1.0"

__all__ = [
    "Observations", "TwoGammaTruth", "ingest_losses", "synth_two_gamma",
    "BandSpec", "credible_band", "histogram", "running_average",
    "GammasubError", "DomainError", "ContractError", "ConfigError",
    "DataError", "DegeneratePathError",
    "ParamTerms", "loglik_ratio_params", "loglik_ratio_path", "psi_log",
    "ChainRecord", "ChainState", "ProposalSpec", "init_chain",
    "refresh_segments", "run_mcmc", "update_beta", "update_params",
    "ModelParams", "Prior", "PriorSpec", "levy_density",
    "nu_bin_mass", "nu_diff_bin0", "prior_logpdf", "theta_at",
    "TimeGrid", "augment_path", "gamma_bridge", "sample_gamma_bridge", "thin_path",
    "exp_integral_e1", "gamma_logpdf",
    "__version__",
]
