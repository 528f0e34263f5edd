"""Spectral rates of the normalized total time and the experiments around them.

The normalized total T_n/(n*v_sum) concentrates; its upper spectral rate
(ebar) is the smallest rate whose exceedance probability vanishes, and the
lower rate (ebar_underline) is the largest rate undershot with vanishing
probability.  ebar equals the best achievable per-job cost with vanishing
discard probability, which the experiments here certify at finite n with
exact tail probabilities and exact rational cost accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import SchedulingProblem, _int_dtype, _span_bracket, as_fraction
from .errors import DomainError, NumericError, ResourceError
from .schedulers import (
    _WORK_BUDGET,
    Scheduler,
    ThresholdDiscardSet,
    cost_exact,
    makespans_scaled,
    max_kept_total_time,
)
from .stochastic import (
    SumDistribution,
    _check_grid,
    flatten_mixture,
    mean_time_exact,
    mean_total_time_exact,
    sample_time_matrix,
    sum_distributions,
)


def _component_rates(problem: SchedulingProblem) -> list[Fraction]:
    """Long-run per-job rate mean/v_sum of every leaf of flatten_mixture.

    IID and Markov processes are their own single leaf; mixtures are
    flattened, nested ones included.
    """
    v_sum = problem.machines.v_sum
    return [mean_time_exact(leaf, problem.alphabet) / v_sum for _, leaf in flatten_mixture(problem.process)]


def ebar_theoretical(problem: SchedulingProblem) -> Fraction:
    """Exact upper spectral rate of T_n/(n*v_sum): the largest component rate.

    IID: mean time over v_sum.  Markov (irreducible): stationary mean over
    v_sum.  Mixture: the largest rate among its components.
    """
    return max(_component_rates(problem))


def ebar_underline_theoretical(problem: SchedulingProblem) -> Fraction:
    """Exact lower spectral rate: the smallest component rate."""
    return min(_component_rates(problem))


def strong_converse_holds(problem: SchedulingProblem) -> bool:
    """True when the two spectral rates coincide (exact rational comparison)."""
    return ebar_theoretical(problem) == ebar_underline_theoretical(problem)


@dataclass(frozen=True)
class SpectralReport:
    """Exceedance tails over an (n, alpha) grid plus per-alpha convergence flags."""

    alpha_grid: tuple[Fraction, ...]
    n_grid: tuple[int, ...]
    tail: tuple[tuple[float, ...], ...]  # tail[i][j] = P(T_n_i/(n_i*v_sum) > alpha_j)
    converged: tuple[bool, ...]
    ebar_estimate: Fraction | None


def _tails(dist: SumDistribution, problem: SchedulingProblem, alphas: Sequence[Fraction]) -> list[float]:
    """P(T_n/(n*v_sum) > alpha) for each alpha, read from the law of T_n."""
    v_sum = problem.machines.v_sum
    return [dist.prob_above(dist.n * v_sum * alpha) for alpha in alphas]


def spectral_scan(
    problem: SchedulingProblem,
    alpha_grid: Sequence,
    n_grid: Sequence[int],
    delta: float = 1e-3,
) -> SpectralReport:
    """Exact tail matrix over the grid; flags alphas whose tails have converged.

    An alpha counts as converged when its tail at the largest n is below
    delta and the tail is non-increasing over the last three grid lengths.
    ebar_estimate is the smallest converged alpha (None when there is none).
    The table runs one `sum_distributions` sweep over n_grid: a Markov grid
    costs what its largest n costs, and IID squares the law of n >> 1 for
    each n.
    """
    alphas = tuple(as_fraction(a) for a in alpha_grid)
    ns = tuple(n_grid)
    if not alphas or not ns:
        raise DomainError("alpha_grid and n_grid must be non-empty")
    if any(a < 0 for a in alphas):
        raise DomainError("threshold rates must be non-negative")
    _check_grid(alphas, "alpha_grid")
    if not 0 < delta < 1:
        raise DomainError(f"delta must lie in (0, 1), got {delta!r}")

    dists = sum_distributions(problem.process, problem.alphabet, ns)
    tail = tuple(tuple(_tails(dist, problem, alphas)) for dist in dists)
    window = min(3, len(ns))
    converged = []
    for j in range(len(alphas)):
        col = [tail[i][j] for i in range(len(ns))]
        last = col[-window:]
        ok = col[-1] < delta and all(a >= b for a, b in zip(last, last[1:]))
        converged.append(ok)
    estimate = next((alphas[j] for j, ok in enumerate(converged) if ok), None)
    return SpectralReport(
        alpha_grid=alphas, n_grid=ns, tail=tail, converged=tuple(converged), ebar_estimate=estimate
    )


@dataclass(frozen=True)
class RateExperimentRow:
    """One achievability row: exact discard probability and certified cost.

    When `exact` is True, cost is the scheduler's exact COST over the kept
    set and cost_lower equals it.  Otherwise [cost_lower, cost] is the
    `_span_bracket` of the largest kept total: no scheduler beats
    cost_lower, and EFT provably stays under cost.
    """

    n: int
    discard_prob: float
    cost: Fraction
    cost_per_job: Fraction
    cost_lower: Fraction
    exact: bool

    def __post_init__(self):
        if self.cost_per_job != Fraction(self.cost) / self.n:
            raise DomainError("cost_per_job must equal cost/n exactly")


def achievability_experiment(
    problem: SchedulingProblem,
    gamma,
    scheduler: Scheduler,
    n_grid: Sequence[int],
    budget: int = _WORK_BUDGET,
) -> list[RateExperimentRow]:
    """Certify that rate ebar + gamma is achievable with vanishing discard probability.

    For each n, builds the threshold discard set at alpha = ebar + gamma,
    reads the exact discard probability from the law of T_n, and computes
    either the exact scheduler COST over the kept set or (when enumeration
    exceeds the budget) the analytic bracket from the largest kept total
    time.  The laws come from one `sum_distributions` sweep over n_grid: a
    Markov grid costs what its largest n costs, and IID squares the law of
    n >> 1 for each n.
    """
    gamma = as_fraction(gamma)
    if gamma <= 0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    alpha = ebar_theoretical(problem) + gamma
    rows = []
    for dist in sum_distributions(problem.process, problem.alphabet, n_grid):
        discard = ThresholdDiscardSet(n=dist.n, alpha=alpha)
        p = dist.prob_above(discard.keep_threshold(problem))
        try:
            cost = cost_lower = cost_exact(scheduler, discard, problem, budget=budget)
            exact = True
        except ResourceError:
            cost_lower, cost = _span_bracket(max_kept_total_time(discard, problem), problem)
            exact = False
        rows.append(
            RateExperimentRow(
                n=discard.n,
                discard_prob=p,
                cost=cost,
                cost_per_job=cost / discard.n,
                cost_lower=cost_lower,
                exact=exact,
            )
        )
    return rows


def converse_experiment(
    problem: SchedulingProblem, epsilon_gap, n_grid: Sequence[int]
) -> list[tuple[int, float]]:
    """Minimum feasible discard probability when targeting rate ebar - epsilon_gap.

    Any schedule fitting the kept sequences under per-job cost alpha must
    keep only sequences with T_n <= n*v_sum*alpha (the total-work floor),
    so the discard probability is at least P(T_n/(n*v_sum) > alpha).
    Returns that exact tail for each n, from one `sum_distributions` sweep
    over n_grid (a Markov grid costs what its largest n costs; IID squares
    the law of n >> 1 for each n).
    """
    gap = as_fraction(epsilon_gap)
    ebar = ebar_theoretical(problem)
    if not 0 < gap < ebar:
        raise DomainError(f"gap out of range: need 0 < gap < ebar = {ebar}, got {gap}")
    alpha = ebar - gap
    dists = sum_distributions(problem.process, problem.alphabet, n_grid)
    return [(dist.n, _tails(dist, problem, [alpha])[0]) for dist in dists]


@dataclass(frozen=True)
class AverageCaseResult:
    """Monte-Carlo mean per-job makespan, the exact bracket of its expectation, and the sampler's z-score.

    total_z is (sampled mean of T_n - exact E[T_n]) / its standard error:
    about standard normal for a faithful sampler.  It is 0.0 when every
    sampled total is E[T_n], and infinite when the totals do not vary but
    miss E[T_n].
    """

    n: int
    trials: int
    mc_mean_span_per_job: float
    bracket_lo: float
    bracket_hi: float
    std_error: float
    total_z: float


def _z_score(totals: np.ndarray, exact_mean: Fraction) -> float:
    """(mean of the sampled totals - exact_mean) / the mean's standard error; the difference is taken exactly."""
    gap = float(Fraction(int(totals.sum()), len(totals)) - exact_mean)
    std_error = float(np.asarray(totals, dtype=np.float64).std(ddof=1)) / math.sqrt(len(totals))
    if std_error == 0.0:
        return 0.0 if gap == 0.0 else math.copysign(math.inf, gap)
    return gap / std_error


def average_case_bracket(
    problem: SchedulingProblem,
    n: int,
    trials: int,
    seed: int,
    scheduler: Scheduler,
) -> AverageCaseResult:
    """Monte-Carlo mean of SPAN/n against the exact bracket [E T_n/(n v_sum), + t_max/(n v_min)].

    The sampled rows' makespans come from one `makespans_scaled` call, which
    raises DomainError for an unknown scheduler.

    Every sampled makespan must lie in the `_span_bracket` of its own row's
    total, [T/v_sum, T/v_sum + t_max/v_min]; the check is exact, in
    integers, and a makespan outside raises NumericError.  The mean of these
    brackets is the bracket above, so the mean makespan falls in it up to
    Monte-Carlo noise, which `total_z` measures on T_n without raising.
    """
    if not isinstance(trials, int) or trials < 2:
        raise DomainError(f"trials must be an integer >= 2, got {trials!r}")
    times = sample_time_matrix(problem.process, problem.alphabet, n, trials, seed)
    scaled, scale = makespans_scaled(scheduler, times, problem.machines)
    totals = times.astype(_int_dtype(n * problem.alphabet.t_max), copy=False).sum(axis=1)
    # a row's bracket is linear in its total T, (a*T + [0, b]) / d in integers,
    # and its makespan scaled/scale is compared to it cross-multiplied
    per_unit, slack = _span_bracket(1, problem)[0], _span_bracket(0, problem)[1]
    d = math.lcm(per_unit.denominator, slack.denominator)
    a, b = int(per_unit * d), int(slack * d)
    dtype = _int_dtype(max(int(scaled.max()) * d, (n * problem.alphabet.t_max * a + b) * scale))
    span = scaled.astype(dtype) * d
    low = totals.astype(dtype) * (a * scale)
    outside = np.flatnonzero((span < low) | (span > low + b * scale))
    if outside.size:
        row = int(outside[0])
        lo, hi = _span_bracket(int(totals[row]), problem)
        raise NumericError(
            f"sampled row {row}: makespan {Fraction(int(scaled[row]), scale)} outside its bracket [{lo}, {hi}]"
        )
    per_job = np.asarray(scaled / scale, dtype=np.float64) / n  # Python ints divide exactly
    exact_mean = mean_total_time_exact(problem.process, problem.alphabet, n)
    lo, hi = _span_bracket(exact_mean, problem)
    return AverageCaseResult(
        n=n,
        trials=trials,
        mc_mean_span_per_job=float(per_job.mean()),
        bracket_lo=float(lo / n),
        bracket_hi=float(hi / n),
        std_error=float(per_job.std(ddof=1) / math.sqrt(trials)),
        total_z=_z_score(totals, exact_mean),
    )
