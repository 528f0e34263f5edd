import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochsched import (
    Assignment,
    DomainError,
    IIDModel,
    JobAlphabet,
    JobSequence,
    MachineSet,
    SchedulingProblem,
    as_fraction,
    brute_force_optimal,
    machine_loads,
    makespan,
    scaled_inverse_speeds,
    span_lower_bound,
    span_upper_bound,
    total_processing_time,
)


def make_problem(times, speeds):
    syms = "abcdefghij"
    alphabet = JobAlphabet({syms[i]: t for i, t in enumerate(times)})
    uniform = IIDModel({sym: Fraction(1, len(times)) for sym in alphabet.symbols})
    return alphabet, SchedulingProblem(alphabet, MachineSet(tuple(speeds)), uniform)


class TestAsFraction:
    def test_accepts_common_forms(self):
        assert as_fraction(2) == 2
        assert as_fraction("3/2") == Fraction(3, 2)
        assert as_fraction("1.5") == Fraction(3, 2)
        assert as_fraction(0.5) == Fraction(1, 2)
        assert as_fraction(Fraction(7, 3)) == Fraction(7, 3)

    def test_rejects_junk(self):
        for bad in ("speed", "1/0", float("nan"), float("inf"), True, None, [1]):
            with pytest.raises(DomainError):
                as_fraction(bad)


class TestContainers:
    def test_alphabet_validation(self):
        with pytest.raises(DomainError):
            JobAlphabet({})
        with pytest.raises(DomainError):
            JobAlphabet({"a": 0})
        with pytest.raises(DomainError):
            JobAlphabet({"a": 1.5})

    def test_alphabet_extremes(self):
        alphabet = JobAlphabet({"a": 1, "b": 3})
        assert alphabet.t_min == 1
        assert alphabet.t_max == 3
        assert alphabet.time_of("b") == 3
        with pytest.raises(DomainError):
            alphabet.time_of("z")

    def test_machine_validation(self):
        with pytest.raises(DomainError):
            MachineSet(())
        with pytest.raises(DomainError):
            MachineSet((Fraction(0),))
        with pytest.raises(DomainError):
            MachineSet((Fraction(1), Fraction(-2)))

    def test_machine_aggregates(self, desk_machines):
        assert desk_machines.m == 2
        assert desk_machines.v_sum == 3
        assert desk_machines.v_min == 1
        assert desk_machines.v_max == 2

    def test_sequence_must_be_nonempty(self):
        with pytest.raises(DomainError):
            JobSequence(())

    def test_problem_checks_symbol_sets(self, desk_alphabet, desk_machines):
        stray = IIDModel({"a": Fraction(1, 2), "c": Fraction(1, 2)})
        with pytest.raises(DomainError):
            SchedulingProblem(desk_alphabet, desk_machines, stray)


class TestMakespan:
    def test_known_instance(self, iid_problem):
        seq = JobSequence(("a", "b", "b"))
        assert total_processing_time(seq, iid_problem.alphabet) == 7
        loads = machine_loads(Assignment((0, 1, 1)), seq, iid_problem.alphabet, 2)
        assert loads == [1, 6]
        assert makespan(Assignment((0, 1, 1)), seq, iid_problem) == 3

    def test_assignment_length_and_range_checked(self, iid_problem):
        seq = JobSequence(("a", "b"))
        with pytest.raises(DomainError):
            machine_loads(Assignment((0,)), seq, iid_problem.alphabet, 2)
        with pytest.raises(DomainError):
            machine_loads(Assignment((0, 2)), seq, iid_problem.alphabet, 2)

    def test_scaled_weights_agree_with_rationals(self):
        speeds = (Fraction(3, 2), Fraction(1), Fraction(7, 3))
        weights, scale = scaled_inverse_speeds(MachineSet(speeds))
        for load in (0, 1, 5, 42):
            for w, v in zip(weights, speeds):
                assert Fraction(load * w, scale) == Fraction(load) / v


class TestSpanBounds:
    def test_desk_values(self, iid_problem):
        seq = JobSequence(("a", "b", "b"))
        assert span_lower_bound(seq, iid_problem) == Fraction(7, 3)
        assert span_upper_bound(seq, iid_problem) == Fraction(16, 3)

    def test_single_machine_lower_bound_is_tight(self):
        alphabet, problem = make_problem([2, 5], [Fraction(3, 2)])
        seq = JobSequence(("a", "b", "b"))
        assignment, opt = brute_force_optimal(seq, problem)
        assert opt == span_lower_bound(seq, problem) == 8
        assert assignment.machine_of == (0, 0, 0)

    def test_sandwich_on_random_instances(self):
        rng = random.Random(20260814)
        palette = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
        for _ in range(200):
            m = rng.randint(1, 3)
            times = sorted(rng.sample(range(1, 12), rng.randint(1, 3)))
            alphabet, problem = make_problem(times, rng.choices(palette, k=m))
            seq = JobSequence(tuple(rng.choices(alphabet.symbols, k=rng.randint(1, 6))))
            _, opt = brute_force_optimal(seq, problem)
            assert span_lower_bound(seq, problem) <= opt <= span_upper_bound(seq, problem)

    @settings(max_examples=60, deadline=None)
    @given(
        times=st.lists(st.integers(1, 8), min_size=1, max_size=5),
        perm_seed=st.integers(0, 10**6),
    )
    def test_bounds_are_permutation_invariant(self, times, perm_seed):
        alphabet, problem = make_problem(sorted(set(times)), [Fraction(1), Fraction(2)])
        base = tuple(alphabet.symbols[i % len(alphabet.symbols)] for i in range(len(times)))
        shuffled = list(base)
        random.Random(perm_seed).shuffle(shuffled)
        a, b = JobSequence(base), JobSequence(tuple(shuffled))
        assert span_lower_bound(a, problem) == span_lower_bound(b, problem)
        assert span_upper_bound(a, problem) == span_upper_bound(b, problem)
        _, opt_a = brute_force_optimal(a, problem)
        _, opt_b = brute_force_optimal(b, problem)
        assert opt_a == opt_b

    @settings(max_examples=40, deadline=None)
    @given(
        scale=st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(5, 3)]),
        seed=st.integers(0, 10**6),
    )
    def test_speed_scaling_rescales_optimum(self, scale, seed):
        rng = random.Random(seed)
        times = sorted(rng.sample(range(1, 9), 2))
        speeds = [Fraction(rng.randint(1, 4)) for _ in range(2)]
        alphabet, problem = make_problem(times, speeds)
        _, fast = make_problem(times, [v * scale for v in speeds])
        seq = JobSequence(tuple(rng.choices(alphabet.symbols, k=4)))
        a1, opt = brute_force_optimal(seq, problem)
        a2, opt_scaled = brute_force_optimal(seq, fast)
        assert opt_scaled == opt / scale
        assert a1.machine_of == a2.machine_of

