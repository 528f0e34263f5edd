import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from stochsched import (
    BruteForce,
    DomainError,
    EarliestFinishTime,
    JobSequence,
    LPT,
    MachineSet,
    ResourceError,
    ThresholdDiscardSet,
    batch_eft_loads,
    batch_eft_makespans_scaled,
    brute_force_optimal,
    cost_exact,
    discard_probability,
    eft_list_schedule,
    lpt_schedule,
    machine_loads,
    makespan,
    max_kept_total_time,
    schedule,
    span_lower_bound,
    span_upper_bound,
)

from .oracles import (
    best_makespan_by_enumeration,
    discard_probability_by_enumeration,
    optimal_assignments_by_enumeration,
    optimal_cost_by_enumeration,
)
from .test_core import make_problem


class TestBruteForce:
    def test_desk_instance(self, iid_problem):
        seq = JobSequence(("a", "b", "b"))
        assignment, opt = brute_force_optimal(seq, iid_problem)
        assert opt == 3
        assert assignment.machine_of == (0, 1, 1)

    def test_matches_enumeration_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            m = rng.randint(1, 3)
            times = sorted(rng.sample(range(1, 9), rng.randint(1, 3)))
            speeds = [Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(m)]
            alphabet, problem = make_problem(times, speeds)
            seq = JobSequence(tuple(rng.choices(alphabet.symbols, k=rng.randint(1, 5))))
            assignment, opt = brute_force_optimal(seq, problem)
            assert opt == best_makespan_by_enumeration(seq, problem)
            assert makespan(assignment, seq, problem) == opt

    def test_returns_lexicographically_smallest_optimum(self):
        rng = random.Random(40)
        for _ in range(40):
            m = rng.randint(2, 3)
            times = sorted(set(rng.choices(range(1, 6), k=2)))
            alphabet, problem = make_problem(times, [Fraction(rng.randint(1, 2)) for _ in range(m)])
            seq = JobSequence(tuple(rng.choices(alphabet.symbols, k=4)))
            assignment, _ = brute_force_optimal(seq, problem)
            assert assignment.machine_of == optimal_assignments_by_enumeration(seq, problem)[0]

    def test_budget_guard(self, iid_problem):
        seq = JobSequence(("a",) * 30)
        with pytest.raises(ResourceError):
            brute_force_optimal(seq, iid_problem, budget=10**6)

    def test_single_machine_needs_no_search(self):
        alphabet, problem = make_problem([2, 5], [Fraction(3, 2)])
        seq = JobSequence(tuple(alphabet.symbols[i % 2] for i in range(3000)))
        assignment, opt = brute_force_optimal(seq, problem)
        assert assignment.machine_of == (0,) * 3000
        assert opt == Fraction(2 * 1500 + 5 * 1500) / Fraction(3, 2)
        assert makespan(assignment, seq, problem) == opt

    def test_deep_search_refused_before_recursing(self, iid_problem):
        seq = JobSequence(("a",) * 3000)
        with pytest.raises(ResourceError, match="depth"):
            brute_force_optimal(seq, iid_problem, budget=2**3000)


class TestListSchedulers:
    def test_eft_trace(self, iid_problem):
        seq = JobSequence(("b", "b", "a"))
        assignment = eft_list_schedule(seq, iid_problem)
        assert assignment.machine_of == (1, 0, 1)
        assert makespan(assignment, seq, iid_problem) == 3

    def test_eft_never_beats_lower_bound_nor_upper(self):
        rng = random.Random(99)
        for _ in range(200):
            m = rng.randint(1, 4)
            times = sorted(rng.sample(range(1, 11), rng.randint(1, 4)))
            speeds = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(m)]
            alphabet, problem = make_problem(times, speeds)
            seq = JobSequence(tuple(rng.choices(alphabet.symbols, k=rng.randint(1, 30))))
            span = makespan(eft_list_schedule(seq, problem), seq, problem)
            assert span_lower_bound(seq, problem) <= span <= span_upper_bound(seq, problem)

    def test_lpt_trace(self, iid_problem):
        seq = JobSequence(("a", "b", "b"))
        assignment = lpt_schedule(seq, iid_problem)
        assert assignment.machine_of == (1, 1, 0)
        assert makespan(assignment, seq, iid_problem) == 3

    def test_lpt_within_bounds_and_often_at_optimum(self):
        rng = random.Random(5)
        hits = 0
        for _ in range(80):
            m = rng.randint(1, 3)
            times = sorted(rng.sample(range(1, 9), rng.randint(1, 3)))
            alphabet, problem = make_problem(times, [Fraction(rng.randint(1, 3)) for _ in range(m)])
            seq = JobSequence(tuple(rng.choices(alphabet.symbols, k=rng.randint(1, 7))))
            lpt_span = makespan(lpt_schedule(seq, problem), seq, problem)
            _, opt = brute_force_optimal(seq, problem)
            assert opt <= lpt_span <= span_upper_bound(seq, problem)
            hits += lpt_span == opt
        assert hits > 40  # LPT is usually optimal on tiny instances

    def test_dispatch(self, iid_problem):
        seq = JobSequence(("b", "a"))
        assert schedule(EarliestFinishTime(), seq, iid_problem) == eft_list_schedule(seq, iid_problem)
        assert schedule(LPT(), seq, iid_problem) == lpt_schedule(seq, iid_problem)
        a, _ = brute_force_optimal(seq, iid_problem)
        assert schedule(BruteForce(), seq, iid_problem) == a
        with pytest.raises(DomainError):
            schedule(object(), seq, iid_problem)


class TestBatchEft:
    def test_matches_scalar_eft(self):
        rng = random.Random(11)
        for speeds in ([Fraction(1)], [Fraction(1), Fraction(2)], [Fraction(3, 2), Fraction(1), Fraction(7, 3)]):
            alphabet, problem = make_problem([1, 2, 5], speeds)
            rows = []
            seqs = []
            for _ in range(50):
                seq = JobSequence(tuple(rng.choices(alphabet.symbols, k=12)))
                seqs.append(seq)
                rows.append([alphabet.time_of(s) for s in seq.items])
            loads = batch_eft_loads(np.array(rows), problem.machines)
            scaled, scale = batch_eft_makespans_scaled(np.array(rows), problem.machines)
            for i, seq in enumerate(seqs):
                a = eft_list_schedule(seq, problem)
                expect = machine_loads(a, seq, alphabet, problem.machines.m)
                assert loads[i].tolist() == expect
                assert Fraction(int(scaled[i]), scale) == makespan(a, seq, problem)

    def test_huge_loads_fall_back_to_float(self):
        # scaled finish times would overflow int64; the float path must agree
        machines = MachineSet((Fraction(1), Fraction(999_999_937)))
        times = np.full((3, 4), 2**31, dtype=np.int64)
        loads = batch_eft_loads(times, machines)
        assert loads.sum() == times.sum()
        assert (loads[:, 1] > 0).all()  # nearly all work goes to the fast machine


class TestDiscardSets:
    def test_validation(self):
        with pytest.raises(DomainError):
            ThresholdDiscardSet(n=0, alpha=Fraction(1))
        with pytest.raises(DomainError):
            ThresholdDiscardSet(n=2, alpha=Fraction(-1, 2))

    def test_keep_threshold(self, iid_problem):
        discard = ThresholdDiscardSet(n=2, alpha=Fraction(23, 30))
        assert discard.keep_threshold(iid_problem) == Fraction(23, 5)

    def test_desk_cost_and_probability(self, iid_problem):
        discard = ThresholdDiscardSet(n=2, alpha=Fraction(23, 30))
        assert cost_exact(BruteForce(), discard, iid_problem) == Fraction(3, 2)
        assert discard_probability(discard, iid_problem.process, iid_problem) == 0.25
        assert max_kept_total_time(discard, iid_problem) == 4

    def test_threshold_edges(self, iid_problem):
        everything = ThresholdDiscardSet(n=3, alpha=Fraction(2))  # keeps all sequences
        assert discard_probability(everything, iid_problem.process, iid_problem) == 0.0
        nothing = ThresholdDiscardSet(n=3, alpha=Fraction(1, 4))  # drops all sequences
        assert discard_probability(nothing, iid_problem.process, iid_problem) == 1.0
        with pytest.raises(DomainError):
            cost_exact(BruteForce(), nothing, iid_problem)
        with pytest.raises(DomainError):
            max_kept_total_time(nothing, iid_problem)

    @pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(1, 2), Fraction(23, 30), Fraction(1), Fraction(7, 6)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cost_matches_sequence_enumeration(self, iid_problem, n, alpha):
        discard = ThresholdDiscardSet(n=n, alpha=alpha)
        assert cost_exact(BruteForce(), discard, iid_problem) == optimal_cost_by_enumeration(
            discard, iid_problem
        )

    @pytest.mark.parametrize("fixture", ["iid_problem", "markov_problem", "mixture_problem"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_discard_probability_matches_enumeration(self, request, fixture, n):
        problem = request.getfixturevalue(fixture)
        discard = ThresholdDiscardSet(n=n, alpha=Fraction(23, 30))
        expect = discard_probability_by_enumeration(discard, problem.process, problem)
        # dyadic masses: the DP sums are exact in binary floating point
        assert discard_probability(discard, problem.process, problem) == float(expect)

    def test_cost_monotone_in_alpha(self, iid_problem):
        grid = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(4, 3)]
        for scheduler in (BruteForce(), EarliestFinishTime(), LPT()):
            costs = [
                cost_exact(scheduler, ThresholdDiscardSet(n=5, alpha=a), iid_problem)
                for a in grid
            ]
            assert costs == sorted(costs)

    def test_heuristic_cost_dominates_optimal_cost(self, iid_problem):
        for n in (2, 3, 5, 8):
            discard = ThresholdDiscardSet(n=n, alpha=Fraction(1))
            opt = cost_exact(BruteForce(), discard, iid_problem)
            for scheduler in (EarliestFinishTime(), LPT()):
                assert cost_exact(scheduler, discard, iid_problem) >= opt

    def test_cost_budget_guard(self, iid_problem):
        discard = ThresholdDiscardSet(n=100, alpha=Fraction(1))
        with pytest.raises(ResourceError):
            cost_exact(BruteForce(), discard, iid_problem, budget=5000)

    def test_max_kept_total_by_enumeration(self, iid_problem):
        for n in (1, 2, 3, 4, 5):
            for alpha in (Fraction(1, 3), Fraction(3, 5), Fraction(1), Fraction(23, 30)):
                discard = ThresholdDiscardSet(n=n, alpha=alpha)
                threshold = discard.keep_threshold(iid_problem)
                totals = [
                    sum(iid_problem.alphabet.time_of(s) for s in items)
                    for items in itertools.product("ab", repeat=n)
                ]
                kept = [t for t in totals if t <= threshold]
                if kept:
                    assert max_kept_total_time(discard, iid_problem) == max(kept)
                else:
                    with pytest.raises(DomainError):
                        max_kept_total_time(discard, iid_problem)
