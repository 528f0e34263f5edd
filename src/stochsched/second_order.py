"""Second-order (finite-n) analysis of the optimal discard threshold.

A `second_order_table` row's r_n_plus is the smallest rate whose exceedance
probability is at most epsilon, an exact rational s/(n*v_sum) at a lattice
point s of the law of T_n; n times it brackets the optimal epsilon-discard
COST within an additive t_max/v_min.  The Gaussian prediction
    n*E[T]/v_sum - sqrt(V*n)*Phi^{-1}(epsilon)/v_sum
matches that cost up to a bounded residual; the Berry-Esseen bound
rho/(sigma^3 sqrt(n)) quantifies how far the exact tail may sit from the
Gaussian tail, with the lattice atom at the quantile covering the
strict/non-strict tail convention.  The quantile total s is read from the law
of T_n as an exact integer, and the Gaussian tail takes its z from the exact
s - n*E[T], so no float holds a total and every column holds at any job time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist
from typing import Sequence

from .core import SchedulingProblem, _span_bracket
from .errors import DomainError
from .stochastic import IIDModel, _iid_central_moments, sum_distributions

_NORMAL = NormalDist()


@dataclass(frozen=True)
class SecondOrderRow:
    """One grid length: exact optimal rate, its cost bracket, and the Gaussian view."""

    n: int
    epsilon: float
    r_n_plus: Fraction
    cost_lo: Fraction
    cost_hi: Fraction
    prediction: float
    residual: float
    be_bound: float
    quantile_atom: float
    gaussian_tail: float


def second_order_table(n_grid: Sequence[int], epsilon: float, problem: SchedulingProblem) -> list[SecondOrderRow]:
    """Exact-vs-Gaussian comparison of the optimal discard cost along n_grid.

    Per n: the cost bracket [cost_lo, cost_hi], `_span_bracket` of the exact
    quantile total, the exact rate r_n_plus = cost_lo/n, the Gaussian
    prediction, and the residual midpoint(bracket) - prediction.
    gaussian_tail is the normal approximation of the exceedance probability
    at the chosen quantile, to be compared against epsilon within be_bound
    plus the lattice atom there.  be_bound is the uniform CDF error bound
    rho/(sigma^3 sqrt(n)) of the normalized total: with the per-job summand
    (T - E[T])/v_sum the v_sum factors cancel, so it is E|T-E[T]|^3 /
    (Var[T]^{3/2} sqrt(n)).  The laws come from one `sum_distributions` call
    over n_grid, which squares the law of n >> 1 for each n.

    Raises DomainError for a process that is not IID, a one-point time law
    (variance zero) or an epsilon outside (0, 1).
    """
    if not isinstance(problem.process, IIDModel):
        raise DomainError("second-order analysis covers IID job streams only")
    mu, var, rho = _iid_central_moments(problem.process, problem.alphabet)
    if var == 0:
        raise DomainError("degenerate one-point time law: variance is zero")
    if not 0.0 < float(epsilon) < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    epsilon = float(epsilon)
    v_sum = float(problem.machines.v_sum)
    q = _NORMAL.inv_cdf(epsilon)
    rows = []
    for dist in sum_distributions(problem.process, problem.alphabet, n_grid):
        n = dist.n
        s = dist.upper_quantile_total(epsilon)
        lo, hi = _span_bracket(s, problem)
        pred = n * float(mu) / v_sum - math.sqrt(float(var) * n) * q / v_sum
        z = float(s - n * mu) / math.sqrt(n * float(var))
        rows.append(
            SecondOrderRow(
                n=n,
                epsilon=epsilon,
                r_n_plus=lo / n,
                cost_lo=lo,
                cost_hi=hi,
                prediction=pred,
                residual=float(lo + hi) / 2.0 - pred,
                be_bound=float(rho) / (float(var) ** 1.5 * math.sqrt(n)),
                quantile_atom=dist.mass_at(s),
                gaussian_tail=0.5 * math.erfc(z / math.sqrt(2.0)),  # P(Z > z); 1 - cdf(z) would cancel
            )
        )
    return rows
