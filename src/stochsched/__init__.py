"""Probabilistic analysis of uniform-machines scheduling.

Exact laws of the total work of a random job stream, threshold discard sets
with exact COST accounting under EFT, LPT and the optimum, spectral rates of
the normalized total time with achievability/converse experiments, Monte-Carlo
average-case brackets, and second-order Gaussian analysis of the optimal
discard threshold.
"""

__version__ = "0.1.0"

from .core import JobAlphabet, MachineSet, SchedulingProblem, as_fraction, scaled_inverse_speeds
from .errors import ConfigError, DomainError, NumericError, ResourceError
from .schedulers import (
    SCHEDULERS,
    ThresholdDiscardSet,
    batch_eft_loads,
    cost_exact,
    discard_probability,
    makespans_scaled,
    max_kept_total_time,
)
from .second_order import SecondOrderRow, second_order_table
from .spectrum import (
    AverageCaseResult,
    RateExperimentRow,
    SpectralReport,
    achievability_experiment,
    average_case_bracket,
    converse_experiment,
    spectral_rates,
    spectral_scan,
)
from .stochastic import (
    IIDModel,
    JobProcess,
    MarkovModel,
    MixtureModel,
    SumDistribution,
    flatten_mixture,
    mean_total_time_exact,
    sample_index_matrix,
    sample_time_matrix,
    stationary_distribution,
    sum_distribution,
    sum_distributions,
)

__all__ = [name for name in dir() if not name.startswith("_")]
