import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochsched import (
    DomainError,
    IIDModel,
    JobAlphabet,
    MachineSet,
    SchedulingProblem,
    ThresholdDiscardSet,
    achievability_experiment,
    as_fraction,
    average_case_bracket,
    converse_experiment,
    makespans_scaled,
    scaled_inverse_speeds,
    second_order_table,
    spectral_scan,
)
from stochsched.core import _span_bracket

from .oracles import loads_of, makespan_of


def optimum(rows, machines) -> list[Fraction]:
    """Optimal makespan of each row of job times, by `makespans_scaled("brute-force")`."""
    scaled, scale = makespans_scaled("brute-force", np.array(rows), machines)
    return [Fraction(int(v), scale) for v in scaled]


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

    def test_problem_checks_symbol_sets(self, desk_alphabet, desk_machines):
        stray = IIDModel({"a": Fraction(1, 2), "c": Fraction(1, 2)})
        with pytest.raises(DomainError):
            SchedulingProblem(desk_alphabet, desk_machines, stray)


# each caller of the positive-integer rule, given two increasing integers (a grid, or two scalars)
_INTEGER_CALLERS = {
    "spectral_scan": lambda p, ints: spectral_scan(p, ["1/2", "1"], ints),
    "converse_experiment": lambda p, ints: converse_experiment(p, "1/10", ints),
    "achievability_experiment": lambda p, ints: achievability_experiment(p, "1/10", "eft", ints),
    "second_order_table": lambda p, ints: second_order_table(ints, 0.1, p),
    "average_case_bracket": lambda p, ints: average_case_bracket(p, ints[0], ints[1], 7, "eft"),
    "ThresholdDiscardSet": lambda p, ints: [ThresholdDiscardSet(n, 1) for n in ints],
    "JobAlphabet": lambda p, ints: JobAlphabet({"a": ints[0], "b": ints[1]}),
}


class TestPositiveIntegers:
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    @pytest.mark.parametrize("caller", list(_INTEGER_CALLERS))
    def test_any_integral_type_but_bool(self, iid_problem, caller, dtype):
        run = _INTEGER_CALLERS[caller]
        # the repr shows a numpy integer that leaks into a result, e.g. as a reported n
        assert repr(run(iid_problem, np.arange(3, 6, 2, dtype=dtype))) == repr(run(iid_problem, [3, 5]))
        for bad in (True, np.bool_(True), 2.5, np.float64(3.0)):
            for ints in ([bad, 5], [3, bad]):
                with pytest.raises(DomainError, match="must be a positive integer"):
                    run(iid_problem, ints)


class TestMakespan:
    def test_known_instance(self, iid_problem):
        # jobs (1, 3, 3) on speeds (1, 2): every scheduler reaches makespan 3, as (0, 1, 1) does
        assert loads_of((0, 1, 1), ("a", "b", "b"), iid_problem) == [1, 6]
        assert makespan_of((0, 1, 1), ("a", "b", "b"), iid_problem) == 3
        for scheduler in ("eft", "lpt", "brute-force"):
            scaled, scale = makespans_scaled(scheduler, np.array([[1, 3, 3]]), iid_problem.machines)
            assert Fraction(int(scaled[0]), scale) == 3

    def test_scaled_weights_agree_with_rationals(self):
        speeds = (Fraction(3, 2), Fraction(1), Fraction(7, 3))
        weights, scale = scaled_inverse_speeds(MachineSet(speeds))
        for load in (0, 1, 5, 42):
            for w, v in zip(weights, speeds):
                assert Fraction(load * w, scale) == Fraction(load) / v


class TestSpanBounds:
    def test_desk_values(self, iid_problem):
        assert _span_bracket(7, iid_problem) == (Fraction(7, 3), Fraction(16, 3))

    def test_single_machine_lower_bound_is_tight(self):
        _, problem = make_problem([2, 5], [Fraction(3, 2)])
        assert optimum([[2, 5, 5]], problem.machines) == [_span_bracket(12, problem)[0]] == [8]

    def test_sandwich_on_random_instances(self):
        rng = random.Random(20260814)
        palette = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
        for _ in range(200):
            m = rng.randint(1, 3)
            times = sorted(rng.sample(range(1, 12), rng.randint(1, 3)))
            _, problem = make_problem(times, rng.choices(palette, k=m))
            row = rng.choices(times, k=rng.randint(1, 6))
            (opt,) = optimum([row], problem.machines)
            lo, hi = _span_bracket(sum(row), problem)
            assert lo <= opt <= hi

    @settings(max_examples=60, deadline=None)
    @given(
        times=st.lists(st.integers(1, 8), min_size=1, max_size=5),
        perm_seed=st.integers(0, 10**6),
    )
    def test_bounds_are_permutation_invariant(self, times, perm_seed):
        _, problem = make_problem(sorted(set(times)), [Fraction(1), Fraction(2)])
        shuffled = list(times)
        random.Random(perm_seed).shuffle(shuffled)
        opt_a, opt_b = optimum([times, shuffled], problem.machines)
        assert opt_a == opt_b
        assert _span_bracket(sum(times), problem) == _span_bracket(sum(shuffled), problem)

    @settings(max_examples=40, deadline=None)
    @given(
        scale=st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(5, 3)]),
        seed=st.integers(0, 10**6),
    )
    def test_speed_scaling_rescales_optimum(self, scale, seed):
        rng = random.Random(seed)
        times = sorted(rng.sample(range(1, 9), 2))
        speeds = [Fraction(rng.randint(1, 4)) for _ in range(2)]
        _, problem = make_problem(times, speeds)
        _, fast = make_problem(times, [v * scale for v in speeds])
        row = rng.choices(times, k=4)
        assert optimum([row], fast.machines) == [opt / scale for opt in optimum([row], problem.machines)]
