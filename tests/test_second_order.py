import math
from fractions import Fraction

import pytest

from stochsched import (
    DomainError,
    IIDModel,
    SchedulingProblem,
    berry_esseen_error_bound,
    berry_esseen_prediction,
    second_order_table,
    sum_distribution,
)

from .oracles import normal_quantile_by_bisection, normal_upper_tail_by_quadrature


def exact_rate(n: int, epsilon: float, problem) -> Fraction:
    """The r_n_plus column of the one-row `second_order_table` at length n."""
    (row,) = second_order_table([n], epsilon, problem)
    return row.r_n_plus


class TestExactRate:
    def test_desk_values(self, iid_problem):
        assert exact_rate(2, 0.3, iid_problem) == Fraction(2, 3)
        assert exact_rate(2, 0.25, iid_problem) == Fraction(2, 3)  # boundary: P(>4) = 0.25
        assert exact_rate(2, 0.2, iid_problem) == 1
        assert exact_rate(2, 0.75, iid_problem) == Fraction(1, 3)
        assert exact_rate(2, 1e-12, iid_problem) == 1  # epsilon -> 0 gives t_max/v_sum
        assert exact_rate(1, 0.6, iid_problem) == Fraction(1, 3)
        assert exact_rate(1, 0.4, iid_problem) == 1

    def test_definition_holds_on_the_lattice(self, iid_problem):
        v_sum = iid_problem.machines.v_sum
        for n in (3, 17, 64):
            dist = sum_distribution(iid_problem.process, iid_problem.alphabet, n)
            support = dist.support()
            for eps in (0.01, 0.1, 0.35, 0.9):
                r = exact_rate(n, eps, iid_problem)
                s = n * v_sum * r
                assert s.denominator == 1
                s = int(s)
                assert dist.prob_above(s) <= eps
                below = [t for t in support if t < s]
                if below:  # r is the smallest such rate
                    assert dist.prob_above(below[-1]) > eps

    def test_nonincreasing_in_epsilon(self, iid_problem):
        rates = [exact_rate(40, eps, iid_problem) for eps in (0.01, 0.1, 0.3, 0.6, 0.9)]
        assert rates == sorted(rates, reverse=True)

    def test_half_epsilon_tracks_the_median(self, iid_problem):
        # the law of T_n is symmetric about 2n, so the eps=1/2 rate stays
        # within one job of the mean: |n*v_sum*r - n*E[T]| <= t_max
        for n in range(1, 41):
            scaled = 3 * n * exact_rate(n, 0.5, iid_problem)
            assert abs(scaled - 2 * n) <= 3

    def test_epsilon_domain(self, iid_problem):
        with pytest.raises(DomainError):
            exact_rate(2, 0.0, iid_problem)
        with pytest.raises(DomainError):
            exact_rate(2, 1.0, iid_problem)


class TestGaussianApproximation:
    def test_prediction_formula(self, iid_problem):
        # (n*mu - sqrt(n*var)*quantile(eps)) / v_sum with mu=2, var=1, v_sum=3
        pred = berry_esseen_prediction(100, 0.1, iid_problem)
        assert pred == pytest.approx(70.93850521848, abs=1e-8)
        q = normal_quantile_by_bisection(0.25)
        assert berry_esseen_prediction(64, 0.25, iid_problem) == pytest.approx(
            (64 * 2 - 8 * q) / 3, abs=1e-7
        )

    def test_error_bound_values(self, iid_problem, desk_alphabet, desk_machines):
        assert berry_esseen_error_bound(64, iid_problem) == 0.125  # rho/sigma^3 = 1
        skew = IIDModel({"a": Fraction(3, 4), "b": Fraction(1, 4)})
        problem = SchedulingProblem(desk_alphabet, desk_machines, skew)
        expect = 0.9375 / (0.75**1.5 * math.sqrt(100))
        assert berry_esseen_error_bound(100, problem) == pytest.approx(expect, rel=1e-12)

    def test_rejects_non_iid_and_degenerate(self, markov_problem, desk_alphabet, desk_machines):
        with pytest.raises(DomainError):
            berry_esseen_error_bound(10, markov_problem)
        sure = IIDModel({"a": Fraction(1), "b": Fraction(0)})
        degenerate = SchedulingProblem(desk_alphabet, desk_machines, sure)
        with pytest.raises(DomainError):
            berry_esseen_prediction(10, 0.1, degenerate)

    def test_epsilon_domain(self, iid_problem):
        with pytest.raises(DomainError):
            berry_esseen_prediction(10, 0.0, iid_problem)
        with pytest.raises(DomainError):
            second_order_table([10], 1.0, iid_problem)


class TestSecondOrderTable:
    def test_row_consistency(self, iid_problem):
        rows = second_order_table([16, 64, 256], 0.1, iid_problem)
        for row in rows:
            assert row.cost_hi - row.cost_lo == 3  # t_max / v_min
            assert row.cost_lo == row.n * row.r_n_plus
            assert row.residual == pytest.approx(
                float(row.cost_lo + row.cost_hi) / 2 - row.prediction, abs=1e-12
            )
            assert row.be_bound == pytest.approx(1 / math.sqrt(row.n), rel=1e-12)
            assert 0.0 <= row.quantile_atom <= 1.0

    def test_gaussian_tail_sandwich(self, iid_problem):
        for n, eps in ((100, 0.3), (50, 0.2), (200, 0.45)):
            (row,) = second_order_table([n], eps, iid_problem)
            lo = max(0.0, eps - row.be_bound - row.quantile_atom)
            hi = min(1.0, eps + row.be_bound + row.quantile_atom)
            assert lo <= row.gaussian_tail <= hi

    def test_gaussian_tail_relative_precision(self, iid_problem):
        # deep in the tail 1 - Phi(z) cancels to 0.0; the column must keep the tail itself
        for eps in (1e-6, 1e-12, 1e-20):
            (row,) = second_order_table([100], eps, iid_problem)
            z = (float(300 * row.r_n_plus) - 200.0) / 10.0  # (s* - n*mu) / sqrt(n*var)
            assert row.gaussian_tail == pytest.approx(normal_upper_tail_by_quadrature(z), rel=1e-12, abs=0.0)

    def test_rejects_markov(self, markov_problem):
        with pytest.raises(DomainError):
            second_order_table([10], 0.1, markov_problem)
