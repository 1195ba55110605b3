"""hypoexp: phase-type sums of exponentials and what they characterize.

Distributions (exponential, Erlang, hypoexponential,
exponentially modified Erlang) with densities, transforms, moments, sampling
and maximum-likelihood fitting; exact and compensated-float verification of
the transform identities behind the exponential characterization; a
bootstrap goodness-of-fit test for exponentiality built on that
characterization; and sequential-chain absorption-time simulation.
"""

from ._util import DEFAULT_SEED, derive_rng
from .chains import (
    KS_CRITICAL_1PCT,
    SimResult,
    StageChain,
    eme_chain,
    ks_distance,
    simulate_absorption,
    validate_against,
)
from .distributions import (
    EME,
    Erlang,
    Exponential,
    Hypoexponential,
    StageSum,
    family_name,
    make_distribution,
)
from .errors import (
    ConvergenceError,
    DataError,
    DomainError,
    HypoexpError,
    ParameterError,
)
from .fitting import eme_log_likelihood, fit_eme, moment_start
from .gof import (
    GofConfig,
    GofResult,
    empirical_laplace,
    gof_residual_curve,
    gof_statistic,
    gof_test,
)
from .identities import (
    DD,
    CoefficientBrackets,
    IdentityReport,
    binomial_sum_residual,
    characterization_residual,
    exp_lt_identity_residual,
    functional_equation_residual,
    gap_vanishes,
    geometric_weight_gap,
    geometric_weight_gap_closed_form,
    partial_fraction_residual,
    reciprocal_series_from_moments,
    run_identity_checks,
    series_coefficient_brackets,
    shifted_binomial_sum_residual,
)
from .io import (
    dist_from_dict,
    dist_to_dict,
    load_dist,
    read_samples,
    save_dist,
    write_samples,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED",
    "derive_rng",
    "KS_CRITICAL_1PCT",
    "SimResult",
    "StageChain",
    "eme_chain",
    "ks_distance",
    "simulate_absorption",
    "validate_against",
    "EME",
    "Erlang",
    "Exponential",
    "Hypoexponential",
    "StageSum",
    "family_name",
    "make_distribution",
    "ConvergenceError",
    "DataError",
    "DomainError",
    "HypoexpError",
    "ParameterError",
    "eme_log_likelihood",
    "fit_eme",
    "moment_start",
    "GofConfig",
    "GofResult",
    "empirical_laplace",
    "gof_residual_curve",
    "gof_statistic",
    "gof_test",
    "DD",
    "CoefficientBrackets",
    "IdentityReport",
    "binomial_sum_residual",
    "characterization_residual",
    "exp_lt_identity_residual",
    "functional_equation_residual",
    "gap_vanishes",
    "geometric_weight_gap",
    "geometric_weight_gap_closed_form",
    "partial_fraction_residual",
    "reciprocal_series_from_moments",
    "run_identity_checks",
    "series_coefficient_brackets",
    "shifted_binomial_sum_residual",
    "dist_from_dict",
    "dist_to_dict",
    "load_dist",
    "read_samples",
    "save_dist",
    "write_samples",
    "__version__",
]
