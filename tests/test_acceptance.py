"""End-to-end acceptance checks.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion, each with its runtime.  Every check here is self-contained:
expected values come from exhaustive enumeration, exact rational arithmetic,
or closed forms derived independently of the code under test.
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from stochsched import (
    IIDModel,
    JobAlphabet,
    MachineSet,
    MarkovModel,
    MixtureModel,
    SchedulingProblem,
    ThresholdDiscardSet,
    achievability_experiment,
    average_case_bracket,
    converse_experiment,
    cost_exact,
    discard_probability,
    makespans_scaled,
    second_order_table,
    spectral_rates,
    sum_distribution,
)
from stochsched.core import _span_bracket

from .oracles import (
    discard_probability_by_enumeration,
    eft_by_loop,
    lpt_by_loop,
    makespan_of,
    optimal_cost_by_enumeration,
)


@contextmanager
def criterion(label: str, limit_s: float):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        assert elapsed < limit_s, f"{label} took {elapsed:.1f}s (limit {limit_s}s)"
    except BaseException:
        print(f"{label}: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    print(f"{label}: PASS ({elapsed:.1f}s)")


def uniform_problem(times, speeds):
    syms = "abcdefghij"
    alphabet = JobAlphabet({syms[i]: t for i, t in enumerate(times)})
    process = IIDModel({s: Fraction(1, len(times)) for s in alphabet.symbols})
    return alphabet, SchedulingProblem(alphabet, MachineSet(tuple(speeds)), process)


def test_01_exact_bound_sandwich():
    """Every tiny instance: total/v_sum <= optimum <= total/v_sum + t_max/v_min."""
    with criterion("criterion 1: exact bound sandwich on all tiny instances", 60):
        speed_palette = (Fraction(1), Fraction(3, 2), Fraction(2))
        checked = 0
        for m in (1, 2, 3):
            for speeds in itertools.combinations_with_replacement(speed_palette, m):
                for k in (1, 2, 3):
                    for times in itertools.combinations((1, 2, 3), k):
                        _, problem = uniform_problem(times, speeds)
                        for n in range(1, 7):
                            rows = np.array(list(itertools.product(times, repeat=n)))
                            scaled, scale = makespans_scaled("brute-force", rows, problem.machines)
                            for row, opt in zip(rows.tolist(), scaled):
                                lb, ub = _span_bracket(sum(row), problem)
                                assert lb <= Fraction(int(opt), scale) <= ub  # exact rationals
                                checked += 1
        # 19 speed multisets x (3 singleton + 3 pair + 1 triple alphabets)
        # x all raw sequences of length 1..6: 19 * (3*6 + 3*126 + 1*1092)
        assert checked == 28_272


def test_02_heuristics_within_certified_bound():
    """EFT and LPT stay under the certified bound on 1e5 random instances."""
    with criterion("criterion 2: heuristics under the certified bound (1e5 instances)", 60):
        rng = np.random.default_rng(20260814)
        palette = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3), Fraction(4)]
        instances = 0
        brute_checked = 0
        spot_checked = 0
        for batch in range(500):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 201))
            speeds = tuple(palette[i] for i in rng.integers(0, len(palette), size=m))
            machines = MachineSet(speeds)
            times = rng.integers(1, 11, size=(200, n), dtype=np.int64)
            S, V = machines.v_sum, machines.v_min
            total = times.sum(axis=1).astype(object)
            worst = times.max(axis=1).astype(object)
            spans = {}
            for name in ("eft", "lpt"):
                scaled, scale = makespans_scaled(name, times, machines)
                # exact check of scaled/scale <= total/S + worst/V via cross-multiplication
                lhs = scaled.astype(object) * (S.numerator * V.numerator)
                rhs = scale * (
                    total * (S.denominator * V.numerator) + worst * (V.denominator * S.numerator)
                )
                assert (lhs <= rhs).all()
                spans[name] = (scaled, scale)
            instances += 200

            alphabet, problem = uniform_problem(range(1, 11), speeds)
            if m**n <= 2048:  # brute force is feasible: heuristics can never beat it
                optimal, opt_scale = makespans_scaled("brute-force", times, machines)
                for i in range(200):
                    opt = Fraction(int(optimal[i]), opt_scale)
                    assert _span_bracket(int(total[i]), problem)[0] <= opt
                    for name in ("eft", "lpt"):
                        scaled, scale = spans[name]
                        assert opt <= Fraction(int(scaled[i]), scale)
                    brute_checked += 1
            if batch % 100 == 0:  # vectorized engine == the one-job loops
                for i in range(3):
                    seq = tuple(alphabet.symbols[t - 1] for t in times[i])
                    eft_span = makespan_of(eft_by_loop(seq, problem), seq, problem)
                    lpt_span = makespan_of(lpt_by_loop(seq, problem), seq, problem)
                    assert Fraction(int(spans["eft"][0][i]), spans["eft"][1]) == eft_span
                    assert Fraction(int(spans["lpt"][0][i]), spans["lpt"][1]) == lpt_span
                    spot_checked += 1
        assert instances == 100_000
        assert brute_checked > 0
        assert spot_checked == 15


def canonical_iid():
    alphabet = JobAlphabet({"a": 1, "b": 3})
    machines = MachineSet((Fraction(1), Fraction(2)))
    process = IIDModel({"a": Fraction(1, 2), "b": Fraction(1, 2)})
    return SchedulingProblem(alphabet, machines, process)


def canonical_mixture():
    alphabet = JobAlphabet({"a": 1, "b": 3})
    machines = MachineSet((Fraction(1), Fraction(2)))
    uniform = IIDModel({"a": Fraction(1, 2), "b": Fraction(1, 2)})
    skewed = IIDModel({"a": Fraction(3, 4), "b": Fraction(1, 4)})
    return SchedulingProblem(
        alphabet, machines, MixtureModel(((Fraction(1, 2), uniform), (Fraction(1, 2), skewed)))
    )


def test_03_achievability_above_ebar():
    """At rate 2/3 + 1/10 the discard probability vanishes and cost/n obeys the bound."""
    with criterion("criterion 3: achievability at rate 2/3 + 1/10", 30):
        problem = canonical_iid()
        rows = achievability_experiment(
            problem, Fraction(1, 10), "eft", [10, 50, 200, 1000, 2000]
        )
        probs = [r.discard_prob for r in rows]
        assert all(a > b for a, b in zip(probs, probs[1:]))  # strictly decreasing
        assert probs[-1] < 1e-3
        for row in rows:
            assert row.cost_per_job <= Fraction(2, 3) + Fraction(1, 10) + Fraction(3, row.n)
        # both certification routes ran: exact enumeration and the analytic bracket
        assert [r.exact for r in rows] == [True, True, True, True, False]
        bracket = rows[-1]
        assert bracket.cost_lower <= bracket.cost
        assert bracket.cost - bracket.cost_lower == 3  # t_max/v_min


def test_04_converse_forces_discards():
    """Below ebar the discard floor rises to 1; for the mixture it sticks at 1/2."""
    with criterion("criterion 4: converse discard floor and mixture plateau", 30):
        problem = canonical_iid()
        rows = converse_experiment(problem, Fraction(1, 6), [10, 50, 200, 1000, 2000])
        probs = [p for _, p in rows]
        assert all(a <= b for a, b in zip(probs, probs[1:]))
        assert probs[-1] >= 0.99

        mixture = canonical_mixture()
        assert spectral_rates(mixture)[0] - Fraction(7, 60) == Fraction(11, 20)  # target 0.55
        plateau = converse_experiment(mixture, Fraction(7, 60), [1000, 2000])
        for _, p in plateau:
            assert 0.49 <= p <= 0.51


def test_05_second_order_gaussian_accuracy():
    """Exact rate vs Gaussian prediction: consistency, residual decay, sandwich."""
    with criterion("criterion 5: second-order Gaussian accuracy", 60):
        problem = canonical_iid()
        v_sum = problem.machines.v_sum
        for eps in (0.1, 0.01):
            rows = second_order_table([64, 256, 1024, 4096], eps, problem)
            for row in rows:
                dist = sum_distribution(problem.process, problem.alphabet, row.n)
                s = row.n * v_sum * row.r_n_plus
                assert s.denominator == 1
                s = int(s)
                assert dist.prob_above(s) <= eps  # the rate is feasible...
                below = [t for t in dist.support() if t < s]
                if below:
                    assert dist.prob_above(below[-1]) > eps  # ...and minimal
                window = row.be_bound + row.quantile_atom
                lo = max(0.0, eps - window)
                hi = min(1.0, eps + window)
                assert lo <= row.gaussian_tail <= hi
            assert abs(rows[-1].residual) <= 2 * abs(rows[0].residual)
            normalized = [abs(r.residual) / math.sqrt(r.n) for r in rows]
            assert all(a > b for a, b in zip(normalized, normalized[1:]))


def test_06_average_case_window():
    """Monte-Carlo mean span per job falls in the exact bracket up to 3 SE."""
    with criterion("criterion 6: average-case bracket (1e4 trials)", 120):
        iid = canonical_iid()
        res = average_case_bracket(iid, 1000, 10_000, seed=2026, scheduler="eft")
        assert res.bracket_lo == float(Fraction(2, 3))
        assert res.bracket_hi == float(Fraction(2, 3) + Fraction(3, 1000))
        assert res.bracket_lo - 3 * res.std_error <= res.mc_mean_span_per_job
        assert res.mc_mean_span_per_job <= res.bracket_hi + 3 * res.std_error

        alphabet = JobAlphabet({"a": 1, "b": 3})
        machines = MachineSet((Fraction(1), Fraction(2)))
        markov = SchedulingProblem(
            alphabet,
            machines,
            MarkovModel(
                ("a", "b"),
                ((Fraction(9, 10), Fraction(1, 10)), (Fraction(1, 2), Fraction(1, 2))),
                (Fraction(5, 6), Fraction(1, 6)),
            ),
        )
        res = average_case_bracket(markov, 1000, 10_000, seed=2026, scheduler="eft")
        assert res.bracket_lo == float(Fraction(4, 9))
        assert res.bracket_lo - 3 * res.std_error <= res.mc_mean_span_per_job
        assert res.mc_mean_span_per_job <= res.bracket_hi + 3 * res.std_error


def test_07_rate_dispatch_exact():
    """The spectral-rate dispatch returns exact rationals for all three model kinds."""
    with criterion("criterion 7: spectral-rate dispatch", 1):
        iid = canonical_iid()
        mixture = canonical_mixture()
        alphabet = JobAlphabet({"a": 1, "b": 3})
        machines = MachineSet((Fraction(1), Fraction(2)))
        markov = SchedulingProblem(
            alphabet,
            machines,
            MarkovModel(
                ("a", "b"),
                ((Fraction(9, 10), Fraction(1, 10)), (Fraction(1, 2), Fraction(1, 2))),
                (Fraction(5, 6), Fraction(1, 6)),
            ),
        )
        # the strong converse holds exactly when the two rates coincide
        assert spectral_rates(iid) == (Fraction(2, 3), Fraction(2, 3))
        assert spectral_rates(markov) == (Fraction(4, 9), Fraction(4, 9))
        assert spectral_rates(mixture) == (Fraction(2, 3), Fraction(1, 2))


def test_08_multiset_enumeration_cross_oracle():
    """Raw-sequence enumeration reproduces the multiset cost and DP tail exactly."""
    with criterion("criterion 8: raw-sequence enumeration cross-oracle", 10):
        problem = canonical_iid()
        alphas = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(23, 30), Fraction(1), Fraction(7, 6))
        for n in (1, 2, 3, 4):
            for alpha in alphas:
                discard = ThresholdDiscardSet(n=n, alpha=alpha)
                assert cost_exact("brute-force", discard, problem) == optimal_cost_by_enumeration(
                    discard, problem
                )
                expect = discard_probability_by_enumeration(discard, problem.process, problem)
                # dyadic sequence probabilities: both routes are exact in floats
                assert discard_probability(discard, problem) == float(expect)
