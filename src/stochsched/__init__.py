"""Probabilistic analysis of uniform-machines scheduling.

Exact makespan bounds and brute-force optima, threshold discard sets with
exact COST accounting, spectral rates of the normalized total time with
achievability/converse experiments, and second-order Gaussian analysis of
the optimal discard threshold.
"""

__version__ = "0.1.0"

from .core import (
    Assignment,
    JobAlphabet,
    JobSequence,
    MachineSet,
    SchedulingProblem,
    as_fraction,
    machine_loads,
    makespan,
    scaled_inverse_speeds,
    span_lower_bound,
    span_upper_bound,
    total_processing_time,
)
from .errors import ConfigError, DomainError, NumericError, ResourceError
from .schedulers import (
    BruteForce,
    EarliestFinishTime,
    LPT,
    Scheduler,
    ThresholdDiscardSet,
    batch_eft_loads,
    brute_force_optimal,
    cost_exact,
    discard_probability,
    makespans_scaled,
    max_kept_total_time,
    schedule,
)
from .second_order import (
    SecondOrderRow,
    berry_esseen_error_bound,
    berry_esseen_prediction,
    r_n_plus,
    second_order_table,
)
from .spectrum import (
    AverageCaseResult,
    RateExperimentRow,
    SpectralReport,
    achievability_experiment,
    average_case_bracket,
    converse_experiment,
    ebar_theoretical,
    ebar_underline_theoretical,
    spectral_scan,
    strong_converse_holds,
)
from .stochastic import (
    IIDModel,
    JobProcess,
    MarkovModel,
    MixtureModel,
    SumDistribution,
    flatten_mixture,
    mean_time_exact,
    mean_total_time_exact,
    sample_index_matrix,
    sample_time_matrix,
    stationary_distribution,
    sum_distribution,
    sum_distributions,
)

__all__ = [name for name in dir() if not name.startswith("_")]
