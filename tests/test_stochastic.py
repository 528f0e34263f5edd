import gc
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochsched import (
    DomainError,
    EarliestFinishTime,
    IIDModel,
    JobAlphabet,
    MachineSet,
    MarkovModel,
    MixtureModel,
    ResourceError,
    SchedulingProblem,
    SumDistribution,
    ThresholdDiscardSet,
    achievability_experiment,
    converse_experiment,
    discard_probability,
    ebar_theoretical,
    flatten_mixture,
    mean_time_exact,
    mean_total_time_exact,
    sample_index_matrix,
    sample_time_matrix,
    second_order_table,
    spectral_scan,
    stationary_distribution,
    sum_distribution,
    sum_distributions,
)

from stochsched import schedulers, second_order, spectrum, stochastic

from . import oracles
from .oracles import (
    TailsFromMass,
    mean_total_time_by_steps,
    pow_convolve,
    rng_stream,
    sample_index_matrix_by_kind,
    sum_law_by_direct_dp,
    sum_law_by_enumeration,
)

UNIFORM = IIDModel({"a": Fraction(1, 2), "b": Fraction(1, 2)})
SKEWED = IIDModel({"a": Fraction(3, 4), "b": Fraction(1, 4)})


class TestModelValidation:
    def test_iid_rejects_bad_vectors(self):
        with pytest.raises(DomainError):
            IIDModel({})
        with pytest.raises(DomainError):
            IIDModel({"a": Fraction(-1, 2), "b": Fraction(3, 2)})
        with pytest.raises(DomainError):
            IIDModel({"a": 0.5, "b": 0.4})

    def test_iid_stores_exact_rationals(self):
        model = IIDModel({"a": 0.5, "b": "1/4", "c": "0.25"})
        assert model.probs == {"a": Fraction(1, 2), "b": Fraction(1, 4), "c": Fraction(1, 4)}

    def test_iid_tolerates_float_roundoff(self):
        third = 1.0 / 3.0
        IIDModel({"a": third, "b": third, "c": third})  # sums to 1 - 5.5e-17

    def test_vectors_normalised_to_an_exact_sum(self, desk_alphabet, desk_machines):
        short = Fraction(1, 10**13)  # sums to 1 - 1e-13, inside the tolerance
        model = IIDModel({"a": Fraction(1, 2), "b": Fraction(1, 2) - short})
        total = 1 - short
        assert model.probs == {"a": Fraction(1, 2) / total, "b": (Fraction(1, 2) - short) / total}
        problem = SchedulingProblem(desk_alphabet, desk_machines, model)
        ebar = ebar_theoretical(problem)
        assert ebar == (Fraction(1, 2) * 1 + (Fraction(1, 2) - short) * 3) / total / 3
        assert ebar != (Fraction(1, 2) * 1 + (Fraction(1, 2) - short) * 3) / 3
        half = Fraction(1, 2)
        chain = MarkovModel(("a", "b"), ((half, half - short), (half, half)), (half - short, half))
        assert all(sum(row) == 1 for row in chain.transition) and sum(chain.initial) == 1
        mix = MixtureModel(((half, UNIFORM), (half - short, SKEWED)))
        assert sum(w for w, _ in mix.components) == 1

    def test_markov_rejects_bad_shapes(self):
        rows = ((Fraction(1, 2), Fraction(1, 2)),)
        with pytest.raises(DomainError):
            MarkovModel(("a", "b"), rows, (Fraction(1), Fraction(0)))
        with pytest.raises(DomainError):
            MarkovModel(
                ("a", "a"),
                ((Fraction(1, 2), Fraction(1, 2)),) * 2,
                (Fraction(1, 2), Fraction(1, 2)),
            )
        with pytest.raises(DomainError):
            MarkovModel(
                ("a", "b"),
                ((Fraction(1, 2), Fraction(1, 2)),) * 2,
                (Fraction(1),),
            )

    def test_markov_rejects_reducible_chain(self):
        identity = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        with pytest.raises(DomainError):
            MarkovModel(("a", "b"), identity, (Fraction(1, 2), Fraction(1, 2)))

    def test_markov_accepts_periodic_chain(self):
        flip = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
        model = MarkovModel(("a", "b"), flip, (Fraction(1), Fraction(0)))
        assert stationary_distribution(model) == (Fraction(1, 2), Fraction(1, 2))

    def test_mixture_validation(self):
        with pytest.raises(DomainError):
            MixtureModel(((Fraction(1), UNIFORM),))
        with pytest.raises(DomainError):
            MixtureModel(((Fraction(0), UNIFORM), (Fraction(1), SKEWED)))
        with pytest.raises(DomainError):
            MixtureModel(((Fraction(1, 2), UNIFORM), (Fraction(1, 4), SKEWED)))
        other = IIDModel({"a": Fraction(1, 2), "z": Fraction(1, 2)})
        with pytest.raises(DomainError):
            MixtureModel(((Fraction(1, 2), UNIFORM), (Fraction(1, 2), other)))

    def test_flatten_nested_mixture(self):
        inner = MixtureModel(((Fraction(1, 2), UNIFORM), (Fraction(1, 2), SKEWED)))
        outer = MixtureModel(((Fraction(1, 2), inner), (Fraction(1, 2), UNIFORM)))
        flat = flatten_mixture(outer)
        assert [w for w, _ in flat] == [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]
        assert sum(w for w, _ in flat) == 1


class TestSumDistribution:
    def test_two_job_law_is_exact(self, iid_problem):
        dist = sum_distribution(iid_problem.process, iid_problem.alphabet, 2)
        assert dist.mass == {2: 0.25, 4: 0.5, 6: 0.25}
        assert dist.support() == [2, 4, 6]
        assert dist.mean() == 4.0

    def test_tail_placement_between_lattice_points(self, iid_problem):
        dist = sum_distribution(iid_problem.process, iid_problem.alphabet, 2)
        assert dist.prob_above(4) == 0.25
        assert dist.prob_above(Fraction(7, 2)) == 0.75
        assert dist.prob_above(1) == 1.0
        assert dist.prob_above(6) == 0.0
        assert dist.prob_below(4) == 0.25
        assert dist.prob_below(2) == 0.0
        assert dist.prob_below(Fraction(13, 2)) == 1.0

    def test_upper_quantile_total(self, iid_problem):
        dist = sum_distribution(iid_problem.process, iid_problem.alphabet, 2)
        assert dist.upper_quantile_total(0.3) == 4
        assert dist.upper_quantile_total(0.25) == 4  # boundary: P(>4) = 0.25
        assert dist.upper_quantile_total(0.2) == 6
        assert dist.upper_quantile_total(0.75) == 2
        with pytest.raises(DomainError):
            dist.upper_quantile_total(0.0)

    @pytest.mark.parametrize("fixture", ["iid_problem", "markov_problem", "mixture_problem"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_enumeration(self, request, fixture, n):
        problem = request.getfixturevalue(fixture)
        law = sum_law_by_enumeration(problem.process, problem.alphabet, n)
        dist = sum_distribution(problem.process, problem.alphabet, n)
        assert set(dist.support()) == set(law)
        for total, p in law.items():
            assert dist.mass_at(total) == pytest.approx(float(p), abs=1e-14)

    def test_markov_with_iid_rows_matches_iid(self, desk_alphabet):
        half = Fraction(1, 2)
        chain = MarkovModel(("a", "b"), ((half, half), (half, half)), (half, half))
        a = sum_distribution(chain, desk_alphabet, 50)
        b = sum_distribution(UNIFORM, desk_alphabet, 50)
        assert a.support() == b.support()
        for s in a.support():
            assert a.mass_at(s) == pytest.approx(b.mass_at(s), abs=1e-12)

    def test_mixture_law_is_weighted_combination(self, mixture_problem):
        n = 30
        alphabet = mixture_problem.alphabet
        mix = sum_distribution(mixture_problem.process, alphabet, n)
        parts = [
            sum_distribution(sub, alphabet, n) for _, sub in mixture_problem.process.components
        ]
        for s in mix.support():
            expect = 0.5 * parts[0].mass_at(s) + 0.5 * parts[1].mass_at(s)
            assert mix.mass_at(s) == pytest.approx(expect, abs=1e-15)

    @pytest.mark.parametrize("fixture", ["iid_problem", "markov_problem", "mixture_problem"])
    def test_mass_conserved_at_large_n(self, request, fixture):
        problem = request.getfixturevalue(fixture)
        dist = sum_distribution(problem.process, problem.alphabet, 10_000)
        assert abs(dist.total_mass() - 1.0) < 1e-10

    def test_mean_matches_exact_recursion(self, markov_problem):
        for n in (1, 3, 17, 200):
            dist = sum_distribution(markov_problem.process, markov_problem.alphabet, n)
            exact = float(mean_total_time_exact(markov_problem.process, markov_problem.alphabet, n))
            assert dist.mean() == pytest.approx(exact, rel=1e-10)

    def test_lattice_guards(self, iid_problem):
        with pytest.raises(ResourceError):  # 2^53 jobs of span 2: refused by the byte budget before allocating
            sum_distribution(iid_problem.process, iid_problem.alphabet, 2**53)
        wide = JobAlphabet({"a": 1, "b": 3})
        with pytest.raises(ResourceError):
            sum_distribution(UNIFORM, wide, 300_000_000)
        with pytest.raises(DomainError):
            sum_distribution(iid_problem.process, iid_problem.alphabet, 0)

    @pytest.mark.parametrize("kind", ["iid", "markov", "mixture"])
    def test_equal_job_times_give_one_point_at_any_n(self, kind):
        # T_n = 4n surely; no kernel runs, so n = 10^9 costs what n = 1 does
        equal = JobAlphabet({"a": 4, "b": 4})
        third = Fraction(1, 3)
        iid = IIDModel({"a": third, "b": 1 - third})
        chain = MarkovModel(("a", "b"), ((third, 1 - third), (Fraction(1, 2), Fraction(1, 2))), (1, 0))
        process = {"iid": iid, "markov": chain, "mixture": MixtureModel(((third, iid), (1 - third, chain)))}[kind]
        n = 10**9
        dist = sum_distribution(process, equal, n)
        assert dist.offset == 4 * n
        assert dist.masses.tolist() == [1.0]
        assert dist.prob_above(4 * n - 1) == 1.0
        assert dist.prob_above(4 * n) == 0.0


def _periodic_chain():
    """Period 2: a is followed by b or c, and b and c by a."""
    one, half, zero = Fraction(1), Fraction(1, 2), Fraction(0)
    rows = ((zero, half, half), (one, zero, zero), (one, zero, zero))
    return MarkovModel(("a", "b", "c"), rows, (zero, Fraction(1, 3), Fraction(2, 3)))


def _chain_with_zero_start():
    rows = (
        (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)),
        (Fraction(1, 10), Fraction(4, 5), Fraction(1, 10)),
        (Fraction(0), Fraction(2, 3), Fraction(1, 3)),
    )
    return MarkovModel(("a", "b", "c"), rows, (Fraction(0), Fraction(0), Fraction(1)))


_WIDE = JobAlphabet({"a": 2, "b": 5, "c": 11})  # shifts 0, 3, 9: the Markov DP runs on the lattice of stride 3
_COPRIME = JobAlphabet({"a": 2, "b": 5, "c": 10})  # shifts 0, 3, 8: stride 1
# shifts 0, 5*10^6 + 1 and 10^7: stride 1, so a Markov leaf's buffers are as wide as the dense lattice
_SPAN_TEN_MILLION = JobAlphabet({"a": 1, "b": 5_000_002, "c": 10_000_001})
_IID_EDGE_ZERO = IIDModel({"a": Fraction(1, 2), "b": Fraction(1, 2), "c": Fraction(0)})
_IID3 = IIDModel({"a": Fraction(1, 5), "b": Fraction(1, 2), "c": Fraction(3, 10)})
_DENSE_CASES = {
    "iid": _IID3,
    "iid-zero-at-edge": _IID_EDGE_ZERO,
    "markov-zero-start": _chain_with_zero_start(),
    "markov-periodic": _periodic_chain(),
    "mixture": MixtureModel(((Fraction(1, 3), _chain_with_zero_start()), (Fraction(2, 3), _IID3))),
    "mixture-nested": MixtureModel(
        (
            (Fraction(1, 4), _periodic_chain()),
            (Fraction(3, 4), MixtureModel(((Fraction(1, 2), _IID_EDGE_ZERO), (Fraction(1, 2), _chain_with_zero_start())))),
        )
    ),
}


def _four_state_chain():
    """k=4 with zero transition entries; irreducible through a -> b -> c -> d -> a."""
    zero = Fraction(0)
    rows = (
        (zero, Fraction(1, 2), zero, Fraction(1, 2)),
        (Fraction(1, 3), zero, Fraction(2, 3), zero),
        (zero, zero, Fraction(1, 4), Fraction(3, 4)),
        (Fraction(1, 5), Fraction(2, 5), zero, Fraction(2, 5)),
    )
    return MarkovModel(("a", "b", "c", "d"), rows, (Fraction(1, 2), zero, Fraction(1, 2), zero))


# (process, alphabet) shapes at the edges of the Markov kernel's buffers
_EDGE_SHAPES = {
    "one-state": (MarkovModel(("b",), ((Fraction(1),),), (Fraction(1),)), _WIDE),
    "span-0": (_chain_with_zero_start(), JobAlphabet({"a": 4, "b": 4, "c": 4})),
    "four-state-zero-entries": (_four_state_chain(), JobAlphabet({"a": 2, "b": 5, "c": 11, "d": 7})),
}


def _assert_matches_direct_dp(process, alphabet, n):
    dist = sum_distribution(process, alphabet, n)
    oracle = sum_law_by_direct_dp(process, alphabet, n)
    assert set(dist.mass) == set(oracle)
    for total, p in oracle.items():
        if p >= 1e-290:
            assert abs(dist.mass_at(total) - p) <= 1e-12 * p
    assert abs(float(dist.masses.sum()) - 1.0) <= 1e-12
    tails = TailsFromMass(dist.mass)
    for s in dist.support():
        assert dist.prob_above(s) == min(1.0, tails.above[s])
        assert dist.prob_below(s) == min(1.0, tails.below[s])
        if 0.0 < tails.above[s] < 1.0:
            assert dist.upper_quantile_total(tails.above[s]) == tails.upper_quantile_total(tails.above[s])


def _assert_peak_within_budget(monkeypatch, process, alphabet, grid):
    # the bytes sum_distributions budgets must cover what its kernels hold
    with monkeypatch.context() as patch:
        patch.setattr(stochastic, "_MAX_BYTES", 0)
        with pytest.raises(ResourceError) as refused:
            sum_distributions(process, alphabet, grid)
    needed = int(re.search(r"needs (\d+) bytes", str(refused.value)).group(1))
    tracemalloc.start()
    try:
        sum_distributions(process, alphabet, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= needed + (64 << 10)


class TestDenseKernelAgainstDirectDP:
    @pytest.mark.parametrize("case", sorted(_DENSE_CASES))
    @pytest.mark.parametrize("n", [1, 2, 7, 150, 400])
    def test_masses_and_queries(self, case, n):
        _assert_matches_direct_dp(_DENSE_CASES[case], _WIDE, n)

    @pytest.mark.parametrize("case", ["markov-zero-start", "markov-periodic", "mixture", "mixture-nested"])
    @pytest.mark.parametrize("n", [1, 2, 7, 150, 400])
    def test_markov_on_unit_stride(self, case, n):
        # _WIDE's Markov laws come from the DP on the lattice of stride 3;
        # on _COPRIME it runs on every lattice point
        _assert_matches_direct_dp(_DENSE_CASES[case], _COPRIME, n)

    @pytest.mark.parametrize("case", ["markov-zero-start", "markov-periodic", "mixture"])
    def test_masses_where_they_underflow(self, case):
        # at n=1200 the zero-start chain has subnormal masses and most of its
        # lattice is 0.0; the two DPs may round a subnormal total differently,
        # so only masses >= 1e-290 are compared
        process = _DENSE_CASES[case]
        n = 1200
        dist = sum_distribution(process, _WIDE, n)
        oracle = sum_law_by_direct_dp(process, _WIDE, n)
        normal = {s for s, p in oracle.items() if p >= 1e-290}
        assert {s for s, p in dist.mass.items() if p >= 1e-290} == normal
        for total in normal:
            assert abs(dist.mass_at(total) - oracle[total]) <= 1e-12 * oracle[total]
        assert abs(float(dist.masses.sum()) - 1.0) <= 1e-12

    @pytest.mark.parametrize("case", sorted(_EDGE_SHAPES))
    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_edge_shapes(self, case, n):
        process, alphabet = _EDGE_SHAPES[case]
        dist = sum_distribution(process, alphabet, n)
        oracle = sum_law_by_direct_dp(process, alphabet, n)
        assert set(dist.mass) == set(oracle)
        for total, p in oracle.items():
            assert abs(dist.mass_at(total) - p) <= 1e-12 * p
        assert abs(float(dist.masses.sum()) - 1.0) <= 1e-12

    @pytest.mark.parametrize("case", ["iid", "markov-zero-start", "mixture", "mixture-nested"])
    def test_peak_memory_within_the_budget(self, monkeypatch, case):
        # the laws kept for a grid's smaller lengths count too; an odd IID
        # length holds a square and its product with the one-job law
        grids = [[3000], [1000, 2000, 3000]]
        if case == "iid":
            grids += [[3001], [4097], [1000, 2001, 4097]]
        for grid in grids:
            _assert_peak_within_budget(monkeypatch, _DENSE_CASES[case], _WIDE, grid)

    @pytest.mark.parametrize(
        "process, alphabet, grid",
        [
            (_IID_EDGE_ZERO, _WIDE, [1000, 2001, 4097]),
            (_chain_with_zero_start(), JobAlphabet({"a": 1, "b": 7, "c": 13}), [1000, 2000, 3000]),
            (_chain_with_zero_start(), _COPRIME, [1000, 2000, 3000]),
        ],
        ids=["iid-banded", "markov-stride-6", "markov-stride-1"],
    )
    def test_peak_memory_on_bands_and_strides(self, monkeypatch, process, alphabet, grid):
        # a banded IID law is held as its band and placed into zeros once, at the end;
        # a strided Markov DP sums each kept law into every g-th dense entry
        _assert_peak_within_budget(monkeypatch, process, alphabet, grid)

    def test_strided_dp_holds_its_buffers_on_the_reduced_lattice(self, monkeypatch):
        # times 1, 7, 13: the shifts 0, 6, 12 share g = 6, so the two state
        # buffers and the product buffer are 6 times narrower than the dense
        # law their sum is written into.  The budget counts them so: a budget
        # of that count, a quarter of the dense one, admits the chain and
        # bounds its peak, and a byte less refuses it
        k, g, n = 3, 6, 3000
        points = n * 12 + 1
        needed = 8 * (3 * k * ((points - 1) // g + 1) + points)
        assert 8 * (3 * k + 1) * points > 3 * needed
        chain, alphabet = _chain_with_zero_start(), JobAlphabet({"a": 1, "b": 7, "c": 13})
        monkeypatch.setattr(stochastic, "_MAX_BYTES", needed)
        tracemalloc.start()
        try:
            sum_distribution(chain, alphabet, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= needed + (64 << 10)
        monkeypatch.setattr(stochastic, "_MAX_BYTES", needed - 1)
        with pytest.raises(ResourceError, match=f"needs {needed} bytes"):
            sum_distribution(chain, alphabet, n)

    def test_byte_budget_refuses_before_allocating(self):
        n, span, k = 10, 10_000_000, 3
        wide = _SPAN_TEN_MILLION
        chain = _chain_with_zero_start()
        points = n * span + 1
        assert points < 200_000_000  # admitted by the former lattice-point limit
        assert 8 * 2 * k * points > stochastic._MAX_BYTES
        for grid in ([n], [1000, 2000, 3000]):
            tracemalloc.start()
            try:
                with pytest.raises(ResourceError, match="bytes"):
                    sum_distributions(chain, wide, grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20


    def test_nested_mixture_budget_counts_the_largest_leaf_once(self):
        # a k-state Markov leaf holds 3k+1 lattice-wide rows (two state
        # buffers, the product buffer and the sum); a mixture adds one
        # accumulator, however deeply it nests
        n, span, k = 10, 10_000_000, 3
        wide = _SPAN_TEN_MILLION
        inner = MixtureModel(((Fraction(1, 2), _periodic_chain()), (Fraction(1, 2), _chain_with_zero_start())))
        nested = MixtureModel(((Fraction(1, 3), inner), (Fraction(2, 3), _IID3)))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match=f"needs {8 * (n * span + 1) * (3 * k + 2)} bytes"):
                sum_distribution(nested, wide, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


_MACHINES = MachineSet((Fraction(1), Fraction(3, 2), Fraction(2)))


class TestSumLawsOverAGrid:
    """One sweep over a grid gives, bit for bit, the law each length gives on its own."""

    # the last grid straddles the underflow of the two-halves law's extreme
    # masses, 2^-n: the law of 2151 squares the nonzero band of the law of 1075
    GRIDS = [[1], [1, 2, 7], [3, 4, 5], [7, 150, 400], [1000, 1075, 2151]]
    CASES = {
        **{name: (process, _WIDE) for name, process in _DENSE_CASES.items()},
        **_EDGE_SHAPES,
        "markov-zero-start-stride-1": (_chain_with_zero_start(), _COPRIME),
        "mixture-stride-1": (_DENSE_CASES["mixture"], _COPRIME),
        "iid-two-halves": (UNIFORM, JobAlphabet({"a": 1, "b": 2})),
    }

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda grid: ",".join(map(str, grid)))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_each_law_equals_its_own_length(self, case, grid):
        process, alphabet = self.CASES[case]
        laws = sum_distributions(process, alphabet, grid)
        assert [law.n for law in laws] == grid
        for law, n in zip(laws, grid, strict=True):
            alone = sum_distribution(process, alphabet, n)
            assert law.offset == alone.offset
            assert np.array_equal(law.masses, alone.masses)

    def test_empty_grid(self):
        assert sum_distributions(_IID3, _WIDE, []) == []

    @pytest.mark.parametrize("grid", [[2, 1], [3, 3], [0, 1], [-1], [1, 2.0]])
    def test_bad_grid_is_a_domain_error(self, grid):
        with pytest.raises(DomainError):
            sum_distributions(_chain_with_zero_start(), _WIDE, grid)

    @pytest.mark.parametrize("case", ["markov-zero-start", "mixture-nested"])
    def test_budget_counts_the_held_laws(self, case):
        # a k=3 Markov leaf holds 3k+1 rows as wide as the largest n's
        # lattice and keeps the law at each smaller n; a mixture adds one
        # weighted sum per n
        grid, span, k = [1000, 2000, 3000], 10_000_000, 3
        wide = _SPAN_TEN_MILLION
        points = [n * span + 1 for n in grid]
        held = points[0] + points[1] + (case == "mixture-nested") * sum(points)
        needed = 8 * ((3 * k + 1) * points[2] + held)
        with pytest.raises(ResourceError, match=f"needs {needed} bytes"):
            sum_distributions(_DENSE_CASES[case], wide, grid)

    def test_each_table_runs_one_sweep(self, monkeypatch):
        # scan, converse, achievability and second-order ask once for every law of their grid
        calls = []

        def counted(process, alphabet, n_grid):
            calls.append(list(n_grid))
            return sum_distributions(process, alphabet, n_grid)

        def refused(*args):
            raise AssertionError("a law was computed for one length alone")

        for module in (spectrum, second_order):
            monkeypatch.setattr(module, "sum_distributions", counted)
            assert not hasattr(module, "sum_distribution")  # no law of one length alone to call
        monkeypatch.setattr(schedulers, "sum_distribution", refused)
        grid = [3, 5, 9]
        problem = SchedulingProblem(_WIDE, _MACHINES, _IID3)
        spectral_scan(problem, [Fraction(3)], grid)
        converse_experiment(problem, Fraction(1, 10), grid)
        achievability_experiment(problem, Fraction(1, 10), EarliestFinishTime(), grid)
        second_order_table(grid, 0.1, problem)
        assert calls == [grid] * 4

    @pytest.mark.parametrize("length", [2.5, True], ids=["2.5", "True"])
    @pytest.mark.parametrize("table", ["scan", "converse", "achievability", "second-order"])
    def test_tables_refuse_lengths_that_are_not_integers(self, table, length):
        # each grid reaches sum_distributions as given, so no length is rounded to one nobody asked for
        problem = SchedulingProblem(_WIDE, _MACHINES, _IID3)
        run = {
            "scan": lambda grid: spectral_scan(problem, [Fraction(3)], grid),
            "converse": lambda grid: converse_experiment(problem, Fraction(1, 10), grid),
            "achievability": lambda grid: achievability_experiment(problem, Fraction(1, 10), EarliestFinishTime(), grid),
            "second-order": lambda grid: second_order_table(grid, 0.1, problem),
        }[table]
        with pytest.raises(DomainError):
            run([length])




class TestIIDSquaring:
    """The IID kernel: squares that count each mirrored product once, and left-to-right powering."""

    @pytest.mark.parametrize("length", [1, 2, 1023, 1024, 1025, 4097])
    def test_square_is_exact_on_integer_inputs(self, length):
        # small integers, a third of them exact zeros: every float sum is exact
        x = np.random.default_rng(length).integers(0, 3, size=length).astype(float)
        x[: length // 7] = 0.0
        assert np.array_equal(stochastic._square(x), np.convolve(x, x))

    @pytest.mark.parametrize("length", [1500, 3000, 4097])
    def test_square_on_positive_inputs(self, length):
        x = np.random.default_rng(length).random(length) + 1e-3
        direct = np.convolve(x, x)
        assert np.all(np.abs(stochastic._square(x) - direct) <= 1e-15 * length * direct)

    @pytest.mark.parametrize(
        "process, alphabet",
        [
            (_IID3, JobAlphabet({"a": 4, "b": 6, "c": 14})),
            (_IID_EDGE_ZERO, _WIDE),
            (IIDModel({"a": Fraction(0), "b": Fraction(1, 2), "c": Fraction(1, 2)}), _WIDE),
        ],
        ids=["gcd-2", "iid-zero-at-edge", "iid-zero-at-lower-edge"],
    )
    def test_law_matches_the_former_kernel(self, process, alphabet):
        # below 1e-290 the two kernels may round a subnormal total differently,
        # so only masses >= 1e-290 are compared; lattice points no sequence
        # reaches stay exactly 0.0
        grid = [1023, 1024, 1025, 2047, 4097]
        times = [alphabet.time_of(sym) for sym in process.symbols]
        base = np.zeros(max(times) - min(times) + 1)
        for sym, t in zip(process.symbols, times):
            base[t - min(times)] += float(process.probs[sym])
        step = math.gcd(*(t - min(times) for t in times))
        for law, n in zip(sum_distributions(process, alphabet, grid), grid, strict=True):
            former = pow_convolve(base, n)
            assert law.masses.shape == former.shape
            normal = former >= 1e-290
            assert np.array_equal(law.masses >= 1e-290, normal)
            assert np.all(np.abs(law.masses[normal] - former[normal]) <= 1e-13 * former[normal])
            assert not law.masses[np.arange(len(former)) % step != 0].any()

    @staticmethod
    def _unbanded(base, n):
        # _iid_law with every square and product on the whole lattice
        up = stochastic._LIFT**0.5
        lifted = base * up
        law = base
        for bit in bin(n)[3:]:
            law = stochastic._square(lifted if law is base else law * up) / stochastic._LIFT
            if bit == "1":
                law = np.convolve(law * up, lifted) / stochastic._LIFT
        return law

    @pytest.mark.parametrize("n", [2, 7, 150, 401, 1500, 3001])
    def test_band_changes_only_laws_with_zero_edges(self, n):
        # _IID3's extreme masses are 5^-n and (10/3)^-n; the first falls below
        # 2^-1075 near n = 463.  Below that every law is its own band and the
        # kernel's bits are the unbanded ones; above, only the order of a
        # square's sums moves
        base = np.array([0.2, 0, 0, 0.5, 0, 0, 0, 0, 0, 0.3])
        law, unbanded = stochastic._iid_law(base, n), self._unbanded(base, n)
        assert np.array_equal(law > 0, unbanded > 0)
        if n < 460:
            assert np.array_equal(law, unbanded)
        else:
            assert law[0] == law[-1] == 0.0
            normal = unbanded >= 1e-290
            assert np.all(np.abs(law[normal] - unbanded[normal]) <= 1e-13 * unbanded[normal])

    @settings(max_examples=100, deadline=None)
    @given(
        weights=st.lists(st.integers(0, 20), min_size=1, max_size=10).filter(any),
        below=st.integers(0, 4),
        above=st.integers(0, 4),
        n=st.integers(1, 3000),
    )
    @example(weights=[1, 1], below=2, above=1, n=2151)
    @example(weights=[2, 0, 0, 5, 0, 3], below=0, above=3, n=1501)
    def test_zero_edges_shift_the_law(self, weights, below, above, n):
        # zero-probability times below and above the one-job law shift the
        # law of n by n * below, bit for bit, with exact zeros around it;
        # the kernel leaves its input as it was
        base = np.array(weights, dtype=float) / sum(weights)
        padded = np.concatenate([np.zeros(below), base, np.zeros(above)])
        before = padded.copy()
        law = stochastic._iid_law(base, n)
        shifted = stochastic._iid_law(padded, n)
        assert padded.tobytes() == before.tobytes()
        assert len(shifted) == len(law) + n * (below + above)
        assert shifted[n * below : n * below + len(law)].tobytes() == law.tobytes()
        assert not shifted[: n * below].any() and not shifted[n * below + len(law) :].any()


_DYADIC_TIMES = JobAlphabet({"a": 1, "b": 2, "c": 5})
# c, the longest job, follows itself with 1/8, so the upper tail passes
# below 2^-1022 by n = 400
_DYADIC_CHAIN = MarkovModel(
    ("a", "b", "c"),
    (
        (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
        (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)),
        (Fraction(3, 4), Fraction(1, 8), Fraction(1, 8)),
    ),
    (Fraction(0), Fraction(1, 2), Fraction(1, 2)),
)


class TestDeepTailAgainstTheExactLaw:
    """Masses below 2^-1022: within 2^-1074 of the exact law, and 0.0 only where it is below 2^-1074."""

    SMALLEST = Fraction(2) ** -1074

    @pytest.mark.parametrize(
        "process, alphabet, n",
        [
            (IIDModel({"a": Fraction(1, 2), "b": Fraction(1, 4), "c": Fraction(1, 4)}), _DYADIC_TIMES, 700),
            (_DYADIC_CHAIN, _DYADIC_TIMES, 400),
            (_DYADIC_CHAIN, JobAlphabet({"a": 2, "b": 5, "c": 14}), 400),
        ],
        ids=["iid", "markov", "markov-stride-3"],
    )
    def test_every_total(self, process, alphabet, n):
        # dyadic probabilities: every mass is an integer over 4^n or 8^n;
        # each law has 20 to 40 totals in [2^-1074, 2^-1022)
        exact = oracles.sum_law_exact(process, alphabet, n)
        assert sum(self.SMALLEST <= p < Fraction(2) ** -1022 for p in exact.values()) >= 20
        dist = sum_distribution(process, alphabet, n)
        assert set(dist.mass) <= set(exact)
        for total, p in exact.items():
            got = Fraction(dist.mass_at(total))
            assert abs(got - p) <= self.SMALLEST + p / 10**13
            assert got > 0 or p < self.SMALLEST
        # no sequence reaches a total off the stride of the shifts t - t_min
        times = [alphabet.time_of(sym) for sym in process.symbols]
        stride = math.gcd(*(t - min(times) for t in times))
        assert not dist.masses[np.arange(len(dist.masses)) % stride != 0].any()

    @pytest.mark.parametrize("n", [1075, 1076, 1500, 2151, 3001])
    def test_two_halves_against_the_binomial_law(self, n):
        # P(T_n = n + j) = C(n, j) / 2^n.  From n = 1075 on the extreme masses
        # are below 2^-1074 and read 0.0, and the laws of 2151 and 3001 square
        # (and multiply once more) only the nonzero band of a law with zero edges
        dist = sum_distribution(UNIFORM, JobAlphabet({"a": 1, "b": 2}), n)
        assert (dist.offset, len(dist.masses)) == (n, n + 1)
        assert dist.masses[0] == dist.masses[-1] == 0.0
        for j, got in enumerate(dist.masses.tolist()):
            p = Fraction(math.comb(n, j), 2**n)
            assert abs(Fraction(got) - p) <= self.SMALLEST + p / 10**13
            assert got > 0 or p < self.SMALLEST

    @pytest.mark.parametrize("n", [1, 2, 1022, 1023, 1024, 1025, 1073, 1074])
    def test_extreme_totals_of_two_halves(self, n):
        # P(T_n = n) = P(T_n = 2n) = 2^-n, a double down to 2^-1074
        dist = sum_distribution(UNIFORM, JobAlphabet({"a": 1, "b": 2}), n)
        assert dist.masses[0] == dist.masses[-1] == math.ldexp(1.0, -n)


def _three_cycle():
    """Deterministic a -> b -> c -> a: its cumulative rows hold only 0 and 1."""
    one, zero = Fraction(1), Fraction(0)
    rows = ((zero, one, zero), (zero, zero, one), (one, zero, zero))
    return MarkovModel(("a", "b", "c"), rows, (zero, one, zero))


def _eight_state_chain():
    """(chain, alphabet): each state stays with 1/2 and moves 1 on with 1/3 and 3 on with 1/6; job times 1, 2, 3, 1, ..."""
    rows = []
    for i in range(8):
        row = [Fraction(0)] * 8
        for step, p in ((0, Fraction(1, 2)), (1, Fraction(1, 3)), (3, Fraction(1, 6))):
            row[(i + step) % 8] = p
        rows.append(tuple(row))
    initial = (Fraction(1),) + (Fraction(0),) * 7
    return MarkovModel(tuple("abcdefgh"), tuple(rows), initial), JobAlphabet({s: 1 + i % 3 for i, s in enumerate("abcdefgh")})


class TestLiftedKernelsStayInRange:
    """Lifted masses never overflow: a law's masses sum to 1, so none exceeds 2^1022 while lifted."""

    CASES = {
        "iid-near-point-mass": (IIDModel({"a": Fraction(999_999, 10**6), "b": Fraction(1, 10**6), "c": Fraction(0)}), _WIDE),
        "three-cycle": (_three_cycle(), _WIDE),
        "eight-state": _eight_state_chain(),
        "mixture-nested": (_DENSE_CASES["mixture-nested"], _WIDE),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_finite_and_summing_to_one(self, case):
        process, alphabet = self.CASES[case]
        for law in sum_distributions(process, alphabet, [1, 2, 1024, 1025, 4097]):
            assert np.isfinite(law.masses).all()
            assert abs(float(law.masses.sum()) - 1.0) <= 1e-12


def test_sum_laws_leave_no_reference_cycles():
    # a law that sits in a cycle lives until the cyclic collector runs, which
    # keeps a table's arrays alive long after the table is done
    grid = [300, 601, 1200]
    nested = _DENSE_CASES["mixture-nested"]
    gc.collect()
    gc.disable()
    try:
        for process in (_IID3, _chain_with_zero_start(), nested):
            sum_distributions(process, _WIDE, grid)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestTranslationInvariance:
    """Adding c to every job time moves T_n by exactly n*c: its masses and every tail stay as they are."""

    SHIFTS = [2**53, 2**62, 2**70]
    N_GRID = (1, 7, 40)
    ALPHAS = tuple(Fraction(t) / _MACHINES.v_sum for t in (3, 5, 6, 8))

    @staticmethod
    def _problems(process, c):
        shifted = JobAlphabet({sym: t + c for sym, t in _WIDE.proc_time.items()})
        return SchedulingProblem(_WIDE, _MACHINES, process), SchedulingProblem(shifted, _MACHINES, process)

    @pytest.mark.parametrize("c", SHIFTS, ids=lambda c: f"2^{c.bit_length() - 1}")
    @pytest.mark.parametrize("case", ["iid", "markov-zero-start", "mixture-nested"])
    def test_law_and_tails(self, case, c):
        base, moved = self._problems(_DENSE_CASES[case], c)
        shift = Fraction(c) / _MACHINES.v_sum
        for n in self.N_GRID:
            a = sum_distribution(base.process, base.alphabet, n)
            b = sum_distribution(moved.process, moved.alphabet, n)
            assert b.offset == a.offset + n * c
            assert b.masses.tobytes() == a.masses.tobytes()
            assert b.support() == [s + n * c for s in a.support()]
            for s in [a.offset - 1, *a.support(), a.offset + len(a.masses)]:
                for x in (s, Fraction(2 * s + 1, 2)):
                    assert b.prob_above(x + n * c) == a.prob_above(x)
                    assert b.prob_below(x + n * c) == a.prob_below(x)
            for alpha in self.ALPHAS:
                kept_a, kept_b = ThresholdDiscardSet(n, alpha), ThresholdDiscardSet(n, alpha + shift)
                assert discard_probability(kept_b, moved) == discard_probability(kept_a, base)
        scan_a = spectral_scan(base, self.ALPHAS, self.N_GRID)
        scan_b = spectral_scan(moved, [alpha + shift for alpha in self.ALPHAS], self.N_GRID)
        assert scan_b.tail == scan_a.tail
        gap = Fraction(1, 10)
        assert converse_experiment(moved, gap, self.N_GRID) == converse_experiment(base, gap, self.N_GRID)

    @pytest.mark.parametrize("c", SHIFTS, ids=lambda c: f"2^{c.bit_length() - 1}")
    def test_second_order_table(self, c):
        base, moved = self._problems(_IID3, c)
        for epsilon in (0.01, 0.1, 0.5):
            rows_a = second_order_table(self.N_GRID, epsilon, base)
            rows_b = second_order_table(self.N_GRID, epsilon, moved)
            for a, b in zip(rows_a, rows_b, strict=True):
                assert (b.quantile_atom, b.be_bound, b.gaussian_tail) == (a.quantile_atom, a.be_bound, a.gaussian_tail)
                assert b.r_n_plus == a.r_n_plus + Fraction(c) / _MACHINES.v_sum


_MASS_ENTRY = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=2.2e-308),  # subnormal
    st.floats(min_value=1e-6, max_value=1 / 64),  # up to 64 entries sum below 1
)


class TestQueriesOnTheDenseLaw:
    """Every query of SumDistribution(n, offset, masses) against sequential sums over its positive masses."""

    @settings(max_examples=150, deadline=None)
    @given(
        masses=st.lists(_MASS_ENTRY, min_size=1, max_size=64).filter(any),
        offset=st.sampled_from([0, 2**62, 2**63 + 1]),
    )
    @example(masses=[0.0, 0.0, 5e-324, 1 / 64, 0.0, 0.0, 1e-6, 0.0], offset=2**63 + 1)
    def test_matches_sequential_sums(self, masses, offset):
        dist = SumDistribution(1, offset, np.array(masses))
        mass = {offset + i: p for i, p in enumerate(masses) if p > 0.0}
        tails = TailsFromMass(mass)
        support = tails.support
        at_least_first = tails.above[support[0]] + mass[support[0]]  # P(T_n >= first total), from the top
        at_most_last = tails.below[support[-1]] + mass[support[-1]]  # P(T_n <= last total), from the bottom
        assert dist.support() == support
        assert dist.mass == mass
        ends = [offset - 1, Fraction(2 * offset - 1, 2), offset + len(masses), Fraction(2 * offset + 2 * len(masses) + 1, 2)]
        for x in [*ends, *support, *(Fraction(2 * s + 1, 2) for s in support)]:
            not_above = [s for s in support if s <= x]
            not_below = [s for s in support if s >= x]
            assert dist.prob_above(x) == (tails.above[not_above[-1]] if not_above else at_least_first)
            assert dist.prob_below(x) == (tails.below[not_below[0]] if not_below else at_most_last)
        epsilons = {e for p in tails.above.values() for e in (p, np.nextafter(p, 0.0), np.nextafter(p, 1.0))}
        for epsilon in sorted(e for e in epsilons | {1e-300, 0.5} if 0.0 < e < 1.0):
            s = dist.upper_quantile_total(float(epsilon))
            assert s == tails.upper_quantile_total(epsilon)
            assert dist.mass_at(s) > 0.0


class _Opaque:
    """A process type the kernels do not know, over the symbols of _WIDE."""

    symbols = ("a", "b", "c")


class TestUnsupportedProcess:
    @pytest.mark.parametrize(
        "process",
        [_Opaque(), MixtureModel(((Fraction(1, 2), _IID3), (Fraction(1, 2), _Opaque())))],
        ids=["bare", "in-mixture"],
    )
    def test_every_entry_point_raises_domain_error(self, process):
        problem = SchedulingProblem(_WIDE, MachineSet((Fraction(1), Fraction(2))), process)
        with pytest.raises(DomainError, match="unsupported process type _Opaque"):
            flatten_mixture(process)
        with pytest.raises(DomainError, match="unsupported process type"):
            sum_distribution(process, _WIDE, 3)
        with pytest.raises(DomainError, match="unsupported process type"):
            mean_total_time_exact(process, _WIDE, 3)
        with pytest.raises(DomainError, match="unsupported process type"):
            sample_index_matrix(process, 3, 2, master_seed=0)
        with pytest.raises(DomainError, match="unsupported process type"):
            ebar_theoretical(problem)


class TestExactMoments:
    def test_stationary_desk_value(self, markov_problem):
        pi = stationary_distribution(markov_problem.process)
        assert pi == (Fraction(5, 6), Fraction(1, 6))
        # fixed point, exactly
        P = markov_problem.process.transition
        for i in range(2):
            assert sum(pi[j] * P[j][i] for j in range(2)) == pi[i]

    def test_stationary_three_state(self):
        third = Fraction(1, 3)
        P = (
            (Fraction(0), Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
        )
        model = MarkovModel(("a", "b", "c"), P, (third, third, third))
        pi = stationary_distribution(model)
        assert sum(pi) == 1
        for i in range(3):
            assert sum(pi[j] * P[j][i] for j in range(3)) == pi[i]

    def test_mean_time_exact(self, desk_alphabet, markov_problem, mixture_problem):
        assert mean_time_exact(UNIFORM, desk_alphabet) == 2
        assert mean_time_exact(SKEWED, desk_alphabet) == Fraction(3, 2)
        assert mean_time_exact(markov_problem.process, desk_alphabet) == Fraction(4, 3)
        with pytest.raises(DomainError):
            mean_time_exact(mixture_problem.process, desk_alphabet)

    def test_central_moments(self, desk_alphabet):
        # (mean, variance, E|T - mean|^3) of the one-job time, as second_order uses them
        assert stochastic._iid_central_moments(UNIFORM, desk_alphabet)[1:] == (1, 1)
        assert stochastic._iid_central_moments(SKEWED, desk_alphabet)[1:] == (Fraction(3, 4), Fraction(15, 16))

    def test_mean_total_time(self, desk_alphabet, markov_problem, mixture_problem):
        assert mean_total_time_exact(UNIFORM, desk_alphabet, 7) == 14
        # stationary start keeps every marginal stationary
        assert mean_total_time_exact(markov_problem.process, desk_alphabet, 9) == 12
        assert mean_total_time_exact(mixture_problem.process, desk_alphabet, 4) == 7

    @pytest.mark.parametrize("start", ["stationary", "transient"])
    def test_mean_total_time_matches_per_step_marginals(self, start):
        alphabet = JobAlphabet({"a": 1, "b": 5, "c": 9})
        P = (
            (Fraction(3, 20), Fraction(13, 20), Fraction(4, 20)),
            (Fraction(11, 20), Fraction(1, 20), Fraction(8, 20)),
            (Fraction(2, 20), Fraction(7, 20), Fraction(11, 20)),
        )
        chain = MarkovModel(("a", "b", "c"), P, (Fraction(1, 20), Fraction(0), Fraction(19, 20)))
        if start == "stationary":
            chain = MarkovModel(("a", "b", "c"), P, stationary_distribution(chain))
        for n in (1, 2, 3, 7, 64, 300):
            assert mean_total_time_exact(chain, alphabet, n) == mean_total_time_by_steps(chain, alphabet, n)

    def test_mean_total_time_transient_start(self, desk_alphabet):
        chain = MarkovModel(
            ("a", "b"),
            ((Fraction(9, 10), Fraction(1, 10)), (Fraction(1, 2), Fraction(1, 2))),
            (Fraction(1), Fraction(0)),
        )
        for n in (1, 2, 3, 4):
            law = sum_law_by_enumeration(chain, desk_alphabet, n)
            expect = sum((p * s for s, p in law.items()), Fraction(0))
            assert mean_total_time_exact(chain, desk_alphabet, n) == expect


_SAMPLER_CASES = {**_DENSE_CASES, "markov-3-cycle": _three_cycle()}

_SAMPLER_PEAK_CASES = {
    **_DENSE_CASES,
    "mixture-heavy-iid-leaf": MixtureModel(((Fraction(99, 100), _IID3), (Fraction(1, 100), _chain_with_zero_start()))),
}


def _bin_edges(process) -> set[float]:
    """Every cumulative probability a sampler compares its uniforms with."""
    leaves = flatten_mixture(process)
    vectors = [[w for w, _ in leaves]]
    for _, leaf in leaves:
        vectors += [leaf.probs.values()] if isinstance(leaf, IIDModel) else [leaf.initial, *leaf.transition]
    return {float(c) for v in vectors for c in np.cumsum([float(p) for p in v])}


# uniforms on every bin edge below 1, and between them
_EDGE_GRID = np.array(
    sorted({0.0, 0.05, 0.45, 0.55, 0.95} | {c for p in _SAMPLER_CASES.values() for c in _bin_edges(p) if c < 1.0})
)


class _EdgeStream:
    """Stands in for a trial's stream: draws from _EDGE_GRID, keyed by the trial's seed words."""

    def __init__(self, words):
        self._rng = np.random.default_rng(words)

    def random(self, size):
        return self._rng.choice(_EDGE_GRID, size)


def _edge_rng_stream(master_seed, trial):
    """Stands in for the reference rng_stream: the edge stream keyed by SeedSequence's own words."""
    key = np.random.SeedSequence((master_seed & (2**64 - 1), 0, trial))
    return _EdgeStream(key.generate_state(4, np.uint64))


class TestSamplerAgainstPerKindReference:
    @pytest.mark.parametrize("case", sorted(_SAMPLER_CASES))
    @pytest.mark.parametrize("n, trials", [(1, 5), (37, 200), (3, 63), (3, 64), (3, 65), (3, 129)])  # blocks of 64
    def test_draws_bit_identical(self, case, n, trials):
        process = _SAMPLER_CASES[case]
        idx, symbols = sample_index_matrix(process, n, trials, master_seed=2024)
        ref, ref_symbols = sample_index_matrix_by_kind(process, n, trials, master_seed=2024)
        assert symbols == ref_symbols
        assert idx.dtype == ref.dtype
        assert np.array_equal(idx, ref)

    @pytest.mark.parametrize("case", sorted(_SAMPLER_CASES))
    def test_draws_on_bin_edges(self, monkeypatch, case):
        # a uniform equal to a cumulative probability falls in the bin above it
        process = _SAMPLER_CASES[case]
        monkeypatch.setattr(stochastic, "_trial_stream", _EdgeStream)
        monkeypatch.setattr(oracles, "rng_stream", _edge_rng_stream)
        idx, _ = sample_index_matrix(process, 37, 200, master_seed=5)
        ref, _ = sample_index_matrix_by_kind(process, 37, 200, master_seed=5)
        assert np.array_equal(idx, ref)


class TestPick:
    """`_pick` counts the edges a uniform reaches: searchsorted(side="right") clipped to the last bin."""

    @pytest.mark.parametrize(
        "probs",
        [
            (Fraction(1),),
            (Fraction(1, 3),) * 3,
            (Fraction(1, 4), Fraction(0), Fraction(0), Fraction(3, 4)),  # repeated edges
            (Fraction(0), Fraction(1, 2), Fraction(1, 2)),  # an edge at 0
            (Fraction(1, 2), Fraction(1, 2), Fraction(0)),  # repeated edges at 1
            (Fraction(1, 10),) * 10,  # rounding leaves the last edge below 1
        ],
        ids=["one-bin", "thirds", "zero-inside", "zero-first", "zero-last", "tenths"],
    )
    def test_matches_clipped_searchsorted(self, probs):
        cum = stochastic._cumulative(probs)
        below_one = np.nextafter(1.0, 0.0)
        edges = cum[cum < 1.0]
        u = np.concatenate(
            [
                edges,  # exactly on each edge
                np.nextafter(edges, 0.0),
                np.nextafter(edges, 1.0),
                [0.0, below_one],
                np.linspace(min(cum[-1], below_one), below_one, 5),  # [cum[-1], 1) when cum[-1] < 1
                np.random.default_rng(3).random(200),
            ]
        )
        u = u[(u >= 0.0) & (u < 1.0)]
        if probs == (Fraction(1, 10),) * 10:
            assert cum[-1] < 1.0 and (u >= cum[-1]).sum() >= 5
        expect = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
        for shape in ((len(u),), (len(u) // 2, 2)):  # one job, and a job-major block
            idx = stochastic._pick(cum, u[: math.prod(shape)].reshape(shape))
            assert idx.dtype == np.int64
            assert np.array_equal(idx.ravel(), expect[: math.prod(shape)])


def _assert_seed_words_match(master_seed, trials):
    """Each trial's words are SeedSequence's, and its stream draws as the reference rng_stream's."""
    words = stochastic._seed_words(master_seed, np.array(trials, dtype=np.uint32))
    assert words.dtype == np.uint64 and words.shape == (len(trials), 4)
    for row, t in zip(words, trials):
        key = np.random.SeedSequence((master_seed & (2**64 - 1), 0, t))
        assert np.array_equal(row, key.generate_state(4, np.uint64))
        assert np.array_equal(stochastic._trial_stream(row).random(6), rng_stream(master_seed, t).random(6))


@pytest.mark.filterwarnings("error::RuntimeWarning")  # as numpy warns of a scalar overflow
class TestSeedWords:
    """`_seed_words` is numpy's SeedSequence hash over all trials at once."""

    @pytest.mark.parametrize(
        "master_seed",
        [0, 1, 5, 2**31 - 1, 2**32 - 1, 2**32, 2**40 + 7, 2**64 - 1, -3, -(2**70), 2**64, 2**64 + 2**32 + 5, 2**70],
    )
    def test_edge_seeds(self, master_seed):
        # seeds below 2^32 fill one key word, larger ones two; the rest are masked to 64 bits
        _assert_seed_words_match(master_seed, [0, 1, 2, 7, 2**16, 10**6, 2**32 - 1])

    @settings(max_examples=60, deadline=None)
    @given(
        master_seed=st.integers(-(2**70), 2**70),
        trials=st.lists(st.integers(0, 10**6), min_size=1, max_size=5),
    )
    def test_matches_seed_sequence(self, master_seed, trials):
        _assert_seed_words_match(master_seed, trials)

    @pytest.mark.parametrize("master_seed", [2**40 + 7, -3])
    def test_sampler_draws_the_reference_streams(self, master_seed):
        # a two-word and a masked seed; the by-kind sampler builds each trial's SeedSequence
        process = _SAMPLER_CASES["mixture-nested"]
        idx, _ = sample_index_matrix(process, 20, 50, master_seed=master_seed)
        ref, _ = sample_index_matrix_by_kind(process, 20, 50, master_seed=master_seed)
        assert np.array_equal(idx, ref)


class TestSampling:
    def test_rng_stream_is_counter_addressed(self):
        a = rng_stream(123, 7).random(5)
        b = rng_stream(123, 7).random(5)
        c = rng_stream(123, 8).random(5)
        d = rng_stream(124, 7).random(5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)
        # the stream key is (master_seed, 0, trial), so every sampled table keeps its draws
        key = np.random.SeedSequence((123, 0, 7))
        assert np.array_equal(a, np.random.Generator(np.random.PCG64(key)).random(5))

    @pytest.mark.parametrize("n, trials", [(2.5, 4), (4, 2.0), (True, 4), (4, True), (0, 4), (4, 0), (4, -1)])
    def test_sizes_must_be_positive_integers(self, iid_problem, n, trials):
        with pytest.raises(DomainError, match="must be a positive integer"):
            sample_index_matrix(iid_problem.process, n, trials, master_seed=0)

    def test_trial_streams_independent_of_batching(self, iid_problem):
        wide, _ = sample_index_matrix(iid_problem.process, 10, 8, master_seed=99)
        for t in range(8):
            row, _ = sample_index_matrix(iid_problem.process, 10, t + 1, master_seed=99)
            assert np.array_equal(row[t], wide[t])

    def test_degenerate_law_samples_constant(self, desk_alphabet):
        sure = IIDModel({"a": Fraction(1), "b": Fraction(0)})
        idx, symbols = sample_index_matrix(sure, 20, 5, master_seed=1)
        assert symbols == ("a", "b")
        assert np.all(idx == 0)

    def test_alternating_chain_samples_alternate(self, desk_alphabet):
        flip = MarkovModel(
            ("a", "b"),
            ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
            (Fraction(1), Fraction(0)),
        )
        idx, _ = sample_index_matrix(flip, 9, 4, master_seed=3)
        assert np.array_equal(idx % 2, np.tile(np.arange(9) % 2, (4, 1)))

    def test_mixture_holds_one_component_per_trial(self, desk_alphabet):
        all_a = IIDModel({"a": Fraction(1), "b": Fraction(0)})
        all_b = IIDModel({"a": Fraction(0), "b": Fraction(1)})
        mix = MixtureModel(((Fraction(1, 2), all_a), (Fraction(1, 2), all_b)))
        idx, _ = sample_index_matrix(mix, 15, 40, master_seed=11)
        row_min = idx.min(axis=1)
        row_max = idx.max(axis=1)
        assert np.array_equal(row_min, row_max)  # never mixes within a sequence
        assert set(np.unique(row_min)) == {0, 1}  # both components appear in 40 trials

    def test_iid_law_of_large_numbers(self, iid_problem):
        idx, _ = sample_index_matrix(iid_problem.process, 5, 20_000, master_seed=42)
        freq = float((idx == 1).mean())
        assert abs(freq - 0.5) < 0.01

    def test_sample_time_matrix_maps_times(self, iid_problem):
        times = sample_time_matrix(iid_problem.process, iid_problem.alphabet, 6, 10, master_seed=2)
        assert set(np.unique(times)) <= {1, 3}

    @pytest.mark.parametrize("fixture", ["iid_problem", "markov_problem", "mixture_problem"])
    def test_empirical_total_matches_dp_law(self, request, fixture):
        problem = request.getfixturevalue(fixture)
        n, trials = 50, 100_000
        times = sample_time_matrix(problem.process, problem.alphabet, n, trials, master_seed=7)
        totals = times.sum(axis=1)
        dist = sum_distribution(problem.process, problem.alphabet, n)
        support = np.array(dist.support())
        counts = np.bincount(totals, minlength=int(support.max()) + 1)
        tv = 0.5 * sum(
            abs(counts[s] / trials - dist.mass_at(int(s))) for s in range(len(counts))
        )
        assert tv < 0.02

    def test_sampling_rejects_bad_sizes(self, iid_problem):
        with pytest.raises(DomainError):
            sample_index_matrix(iid_problem.process, 0, 1, master_seed=0)
        with pytest.raises(DomainError):
            sample_index_matrix(iid_problem.process, 1, 0, master_seed=0)

    @pytest.mark.parametrize("case", ["iid", "markov-zero-start", "mixture", "mixture-heavy-iid-leaf"])
    def test_sampling_peak_memory_within_the_prediction(self, monkeypatch, case):
        # the bytes sample_index_matrix budgets must cover what it and
        # sample_time_matrix hold; a mixture whose IID leaf draws nearly
        # every trial holds that leaf's copy of the uniforms and its indices
        process = _SAMPLER_PEAK_CASES[case]
        n, trials = 500, 2000
        with monkeypatch.context() as patch:
            patch.setattr(stochastic, "_MAX_BYTES", 0)
            with pytest.raises(ResourceError) as refused:
                sample_index_matrix(process, n, trials, master_seed=8)
        needed = int(re.search(r"needs (\d+) bytes", str(refused.value)).group(1))
        sample_time_matrix(process, _WIDE, 2, 2, master_seed=8)  # one-time allocations of the stream setup
        for sample in (
            lambda: sample_index_matrix(process, n, trials, master_seed=8),
            lambda: sample_time_matrix(process, _WIDE, n, trials, master_seed=8),
        ):
            tracemalloc.start()
            try:
                sample()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= needed + (64 << 10)

    def test_sampling_refuses_before_allocating(self, iid_problem, mixture_problem):
        # 10^10 trials of 10^9 jobs: more bytes than numpy can address, so a
        # missing check fails here instead of allocating
        for process in (iid_problem.process, mixture_problem.process):
            tracemalloc.start()
            try:
                with pytest.raises(ResourceError, match="bytes"):
                    sample_index_matrix(process, 10**9, 10**10, master_seed=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
