import itertools
import random
import re
import tracemalloc
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
    ResourceError,
    SchedulingProblem,
    ThresholdDiscardSet,
    achievability_experiment,
    average_case_bracket,
    batch_eft_loads,
    cost_exact,
    discard_probability,
    makespans_scaled,
    max_kept_total_time,
    sample_index_matrix,
    scaled_inverse_speeds,
    schedulers,
    spectrum,
    stochastic,
    sum_distribution,
)
from stochsched.core import _int_dtype, _span_bracket
from stochsched.schedulers import _kept_count_vectors, _optimal_scaled

from .oracles import (
    best_makespan_by_enumeration,
    count_vectors,
    discard_probability_by_enumeration,
    eft_by_loop,
    eft_worst_cost_by_enumeration,
    loads_of,
    lpt_by_loop,
    makespan_of,
    max_kept_total_time_by_steps,
    optimal_cost_by_enumeration,
)
from .test_core import make_problem


def _rows(seqs, problem) -> np.ndarray:
    """The job times of symbol sequences, one row each, in the dtype `cost_exact` lays them out in."""
    times = [[problem.alphabet.time_of(sym) for sym in items] for items in seqs]
    return np.array(times, dtype=_int_dtype(problem.alphabet.t_max))


def _spans(scheduler, seqs, problem) -> list[Fraction]:
    """Makespans of symbol sequences under one scheduler, by `makespans_scaled`."""
    scaled, scale = makespans_scaled(scheduler, _rows(seqs, problem), problem.machines)
    return [Fraction(int(v), scale) for v in scaled]


class TestBruteForce:
    def test_desk_instance(self, iid_problem):
        seq = ("a", "b", "b")
        assert _spans("brute-force", [seq], iid_problem) == [3]
        assert best_makespan_by_enumeration(seq, iid_problem) == 3

    def test_matches_enumeration_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            m = rng.randint(1, 3)
            times = sorted(rng.sample(range(1, 9), rng.randint(1, 3)))
            speeds = [Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(m)]
            alphabet, problem = make_problem(times, speeds)
            seq = tuple(rng.choices(alphabet.symbols, k=rng.randint(1, 5)))
            assert _spans("brute-force", [seq], problem) == [best_makespan_by_enumeration(seq, problem)]

    def test_budget_guard(self, monkeypatch, iid_problem):
        monkeypatch.setattr(schedulers, "_BRUTE_FORCE_BUDGET", 10**6)
        with pytest.raises(ResourceError, match=r"2\^30 assignments \(budget 1000000\); use eft or lpt instead$"):
            makespans_scaled("brute-force", np.ones((1, 30), dtype=np.int64), iid_problem.machines)

    def test_single_machine_needs_no_search(self):
        _, problem = make_problem([2, 5], [Fraction(3, 2)])
        assert _spans("brute-force", [("a", "b") * 1500], problem) == [Fraction(2 * 1500 + 5 * 1500) / Fraction(3, 2)]

    def test_long_sequence_solved_without_a_depth_limit(self, monkeypatch, iid_problem):
        # 3000 unit jobs on speeds (1, 2): 1000 and 2000 of them finish together at 1000
        monkeypatch.setattr(schedulers, "_BRUTE_FORCE_BUDGET", 2**3000)
        assert _spans("brute-force", [("a",) * 3000], iid_problem) == [1000]


def _sequence(alphabet, counts) -> tuple[str, ...]:
    return tuple(sym for sym, c in zip(alphabet.symbols, counts) for _ in range(c))


def _maximal_by_upgrades(kept, times, threshold):
    """Kept count vectors where no job can change to a later type of at least its time and stay kept."""
    rank = sorted(range(len(times)), key=lambda j: (times[j], j))
    out = []
    for c in kept:
        total = sum(ci * t for ci, t in zip(c, times))
        if not any(
            c[j] and total - times[j] + times[longer] <= threshold
            for i, j in enumerate(rank)
            for longer in rank[i + 1 :]
        ):
            out.append(c)
    return out


class TestCountVectorOptimum:
    def test_matches_assignment_enumeration(self):
        rng = random.Random(61)
        seen = set()
        for m in (1, 2, 3, 4):
            for _ in range(40):
                k = rng.randint(1, 4)
                times = [rng.randint(1, 6) for _ in range(k)]
                if rng.random() < 0.3:
                    speeds = [Fraction(rng.randint(1, 3), rng.randint(1, 2))] * m
                else:
                    speeds = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(m)]
                counts = [0] * k
                for _ in range(rng.randint(1, 6 if m < 4 else 5)):
                    counts[rng.randrange(k)] += 1
                alphabet, problem = make_problem(times, speeds)
                weights, scale = scaled_inverse_speeds(problem.machines)
                got = Fraction(_optimal_scaled(counts, times, weights), scale)
                assert got == best_makespan_by_enumeration(_sequence(alphabet, counts), problem)
                seen.update(
                    {
                        "zero count": 0 in counts,
                        "equal times": len(set(times)) < k,
                        "identical speeds": m > 1 and len(set(speeds)) == 1,
                    }.items()
                )
        assert all((case, True) in seen for case in ("zero count", "equal times", "identical speeds"))

    def test_python_int_weights(self):
        # scaled finish times near 2^31 * 999_999_937 * 3 overflow int64's safe range
        times = [2**31, 2**31 * 999_999_936, 5]
        alphabet, problem = make_problem(times, [Fraction(1), Fraction(999_999_937)])
        weights, scale = scaled_inverse_speeds(problem.machines)
        for counts in ([2, 1, 0], [1, 1, 1], [0, 2, 1], [3, 0, 0]):
            total = sum(c * t for c, t in zip(counts, times))
            assert (total + 1) * max(weights) >= 2**62  # the finish-time bound: the programme runs on Python ints
            got = Fraction(_optimal_scaled(counts, times, weights), scale)
            assert got == best_makespan_by_enumeration(_sequence(alphabet, counts), problem)
            rows = np.array([[t for t, c in zip(times, counts) for _ in range(c)]] * 2)
            scaled, batch_scale = makespans_scaled("brute-force", rows, problem.machines)
            assert [Fraction(v, batch_scale) for v in scaled] == [got, got]

    def test_batch_solves_each_row(self):
        rng = random.Random(9)
        alphabet, problem = make_problem([2, 3, 7], [Fraction(1), Fraction(3, 2), Fraction(5, 2)])
        seqs = [tuple(rng.choices(alphabet.symbols, k=6)) for _ in range(30)]
        assert _spans("brute-force", seqs, problem) == [best_makespan_by_enumeration(seq, problem) for seq in seqs]

    def test_kept_count_vectors_match_the_recursive_generator(self):
        rng = random.Random(23)
        for _ in range(200):
            k = rng.randint(1, 4)
            n = rng.randint(1, 8)
            times = [rng.randint(1, 9) for _ in range(k)]
            limit = rng.randint(n * min(times) - 3, n * max(times) + 3)
            counts, totals = _kept_count_vectors(times, n, limit)
            want = [c for c in count_vectors(n, k) if sum(ci * t for ci, t in zip(c, times)) <= limit]
            assert counts.shape == (len(want), k)
            assert [tuple(c) for c in counts.tolist()] == want
            assert totals.tolist() == [sum(ci * t for ci, t in zip(c, times)) for c in want]

    def test_cost_on_the_antichain_matches_sequence_enumeration(self):
        # brute force counts jobs per distinct time, so symbols of equal time merge
        rng = random.Random(83)
        checked = 0
        equal_times = False
        while checked < 40:
            m = rng.randint(1, 3)
            k = rng.randint(2, 3)
            n = rng.randint(2, 5)
            if (k * m) ** n > 5000:
                continue
            times = [rng.randint(1, 7) for _ in range(k)]
            _, problem = make_problem(times, [Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(m)])
            alpha = Fraction(rng.randint(2, 12), 6) * max(times) / problem.machines.v_sum / 2
            discard = ThresholdDiscardSet(n=n, alpha=alpha)
            threshold = discard.keep_threshold(problem)
            kept = [c for c in count_vectors(n, k) if sum(ci * t for ci, t in zip(c, times)) <= threshold]
            if not kept or len(_maximal_by_upgrades(kept, times, threshold)) == len(kept):
                continue
            assert cost_exact("brute-force", discard, problem) == optimal_cost_by_enumeration(discard, problem)
            checked += 1
            equal_times |= len(set(times)) < k
        assert equal_times


class TestCountVectorByteBudget:
    """The count-vector DP refuses, before allocating, tables beyond stochastic._MAX_BYTES."""

    def test_refused_before_allocating(self, monkeypatch):
        # 40 job types of one job each: a 2^40-entry grid, whatever m^n budget is given
        times = list(range(1, 41))
        alphabet = JobAlphabet({f"j{t}": t for t in times})
        uniform = IIDModel({sym: Fraction(1, 40) for sym in alphabet.symbols})
        problem = SchedulingProblem(alphabet, MachineSet((Fraction(1), Fraction(2))), uniform)
        monkeypatch.setattr(schedulers, "_BRUTE_FORCE_BUDGET", 2**3000)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match="bytes"):
                makespans_scaled("brute-force", np.array([times]), problem.machines)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "m,times,counts",
        [
            (2, [3, 5, 7], [40, 30, 20]),
            (3, [3, 5, 7], [30, 20, 12]),
            (4, [3, 5, 7], [12, 10, 8]),
            (3, [2**70 + 3, 2**70 + 5, 2**70 + 7], [20, 15, 10]),  # Python-int grids
        ],
    )
    def test_peak_memory_within_the_budget(self, monkeypatch, m, times, counts):
        # the bytes the DP budgets must cover the grids it holds; numpy's
        # ufunc buffers for strided operands, a fixed size, come on top
        _, problem = make_problem(times, [Fraction(i + 2, 2) for i in range(m)])
        rows = np.array([[t for t, c in zip(times, counts) for _ in range(c)]])
        slack = (64 << 10) + 2 * 8 * np.getbufsize()
        monkeypatch.setattr(schedulers, "_BRUTE_FORCE_BUDGET", 2**3000)

        def solve():
            return makespans_scaled("brute-force", rows, problem.machines)

        with monkeypatch.context() as patch:
            patch.setattr(stochastic, "_MAX_BYTES", 0)
            with pytest.raises(ResourceError) as refused:
                solve()
        needed = int(re.search(r"needs (\d+) bytes", str(refused.value)).group(1))
        with monkeypatch.context() as patch:
            patch.setattr(stochastic, "_MAX_BYTES", needed)
            solve()  # admitted at exactly its budget
            patch.setattr(stochastic, "_MAX_BYTES", needed - 1)
            with pytest.raises(ResourceError):
                solve()
        tracemalloc.start()
        try:
            solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= needed + slack


class TestCostByteBudget:
    """cost_exact refuses, before allocating, arrays beyond stochastic._MAX_BYTES, whatever work budget it is given."""

    @pytest.mark.parametrize(
        "scheduler,times,speeds,n,refused",
        [
            ("lpt", [2, 5], [1, 2], 2000, "kept rows"),  # 2001 rows of 2000 jobs and their sorted copy: 64 MB
            ("lpt", [1, 2, 3, 4, 5, 6], [1, 2], 20, "kept count vectors"),  # 53130 count vectors of 6 types
            ("eft", [2, 5, 11], [1, Fraction(3, 2), 2], 14, "EFT order sweep"),  # ~0.7 MB at its peak
        ],
        ids=["lpt-rows", "lpt-count-vectors", "eft-sweep"],
    )
    def test_refused_before_allocating(self, monkeypatch, scheduler, times, speeds, n, refused):
        _, problem = make_problem(times, [Fraction(v) for v in speeds])
        discard = ThresholdDiscardSet(n=n, alpha=Fraction(10**6))  # keeps every sequence
        monkeypatch.setattr(stochastic, "_MAX_BYTES", 256 << 10)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match=f"{refused}.* needs \\d+ bytes"):
                cost_exact(scheduler, discard, problem, budget=10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestOneByteRefusal:
    """Every byte refusal, from the sum law to EFT's order sweep, is one check with one message."""

    @pytest.mark.parametrize(
        "times,max_bytes,what,refused",
        [
            ([2, 5, 11], 0, "sum law", lambda p: sum_distribution(p.process, p.alphabet, 10)),
            ([2, 5, 11], 0, "sampling", lambda p: sample_index_matrix(p.process, 10, 2, 0)),
            ([2, 5, 11], 0, "count-vector programme", lambda p: _spans("brute-force", [("a", "b")], p)),
            ([1, 2, 3, 4, 5, 6], 256 << 10, "kept count vectors", lambda p: _cost_keeping_all("lpt", 20, p)),
            ([2, 5], 256 << 10, "kept rows", lambda p: _cost_keeping_all("lpt", 2000, p)),
            ([2, 5, 11], 256 << 10, "EFT order sweep", lambda p: _cost_keeping_all("eft", 14, p)),
        ],
        ids=["sum-law", "sampler", "dp-grid", "enumeration", "kept-rows", "eft-step"],
    )
    def test_every_refusal_reads_alike(self, monkeypatch, times, max_bytes, what, refused):
        _, problem = make_problem(times, [Fraction(1), Fraction(3, 2), Fraction(2)])
        monkeypatch.setattr(stochastic, "_MAX_BYTES", max_bytes)
        with pytest.raises(ResourceError, match=rf"{what}.* needs \d+ bytes \(budget {max_bytes}\)$"):
            refused(problem)


def _cost_keeping_all(scheduler, n: int, problem):
    return cost_exact(scheduler, ThresholdDiscardSet(n=n, alpha=Fraction(10**6)), problem, budget=10**12)


class TestListSchedulerAnomalies:
    """Lengthening a job can shorten a list schedule, so EFT and LPT COST must not be taken on the antichain."""

    def test_eft_shortens_when_a_job_grows(self):
        _, problem = make_problem([2, 5, 9], [Fraction(3, 2), Fraction(1, 2)])
        seqs = [tuple("aabbca"), tuple("aacbca")]  # the third job lengthened from b to c
        assert _spans("eft", seqs, problem) == [Fraction(46, 3), Fraction(44, 3)]

    def test_lpt_shortens_when_a_job_grows(self):
        _, problem = make_problem([7, 8, 9], [Fraction(2), Fraction(1, 2), Fraction(1)])
        seqs = [tuple("aaaabc"), tuple("aaaacc")]  # b lengthened to c
        assert _spans("lpt", seqs, problem) == [15, 14]

    def test_lpt_cost_needs_every_kept_vector(self):
        times = [5, 8, 9]
        alphabet, problem = make_problem(times, [Fraction(2), Fraction(1)])
        discard = ThresholdDiscardSet(n=4, alpha=Fraction(9, 4))
        threshold = discard.keep_threshold(problem)
        kept = [c for c in count_vectors(4, 3) if sum(ci * t for ci, t in zip(c, times)) <= threshold]

        def worst(vectors):
            seqs = [_sequence(alphabet, c) for c in vectors]
            return max(makespan_of(lpt_by_loop(seq, problem), seq, problem) for seq in seqs)

        assert worst(_maximal_by_upgrades(kept, times, threshold)) == Fraction(19, 2)
        assert cost_exact("lpt", discard, problem) == worst(kept) == 10


class TestListSchedulers:
    def test_eft_trace(self, iid_problem):
        seq = ("b", "b", "a")
        assert eft_by_loop(seq, iid_problem) == (1, 0, 1)
        assert batch_eft_loads(_rows([seq], iid_problem), iid_problem.machines).tolist() == [[3, 4]]
        assert loads_of((1, 0, 1), seq, iid_problem) == [3, 4]
        assert _spans("eft", [seq], iid_problem) == [3]

    def test_eft_never_beats_lower_bound_nor_upper(self):
        rng = random.Random(99)
        for _ in range(200):
            m = rng.randint(1, 4)
            times = sorted(rng.sample(range(1, 11), rng.randint(1, 4)))
            speeds = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(m)]
            alphabet, problem = make_problem(times, speeds)
            seq = tuple(rng.choices(alphabet.symbols, k=rng.randint(1, 30)))
            (span,) = _spans("eft", [seq], problem)
            assert span == makespan_of(eft_by_loop(seq, problem), seq, problem)
            lo, hi = _span_bracket(sum(alphabet.time_of(sym) for sym in seq), problem)
            assert lo <= span <= hi

    def test_lpt_trace(self, iid_problem):
        seq = ("a", "b", "b")
        assert lpt_by_loop(seq, iid_problem) == (1, 1, 0)
        assert makespan_of((1, 1, 0), seq, iid_problem) == 3
        assert _spans("lpt", [seq], iid_problem) == [3]

    def test_lpt_within_bounds_and_often_at_optimum(self):
        rng = random.Random(5)
        hits = 0
        for _ in range(80):
            m = rng.randint(1, 3)
            times = sorted(rng.sample(range(1, 9), rng.randint(1, 3)))
            alphabet, problem = make_problem(times, [Fraction(rng.randint(1, 3)) for _ in range(m)])
            seq = tuple(rng.choices(alphabet.symbols, k=rng.randint(1, 7)))
            (lpt_span,) = _spans("lpt", [seq], problem)
            assert lpt_span == makespan_of(lpt_by_loop(seq, problem), seq, problem)
            (opt,) = _spans("brute-force", [seq], problem)
            assert opt <= lpt_span <= _span_bracket(sum(alphabet.time_of(sym) for sym in seq), problem)[1]
            hits += lpt_span == opt
        assert hits > 40  # LPT is usually optimal on tiny instances

    def test_lpt_ties_follow_alphabet_then_position(self):
        alphabet, problem = make_problem([2, 2, 5], [Fraction(1), Fraction(1), Fraction(1)])
        rng = random.Random(12)
        seqs = [tuple(rng.choices(alphabet.symbols, k=8)) for _ in range(30)]
        assert _spans("lpt", seqs, problem) == [makespan_of(lpt_by_loop(seq, problem), seq, problem) for seq in seqs]

    def test_dispatch(self, iid_problem):
        seq = ("b", "a")
        for scheduler, want in (
            ("eft", makespan_of(eft_by_loop(seq, iid_problem), seq, iid_problem)),
            ("lpt", makespan_of(lpt_by_loop(seq, iid_problem), seq, iid_problem)),
            ("brute-force", best_makespan_by_enumeration(seq, iid_problem)),
        ):
            assert _spans(scheduler, [seq], iid_problem) == [want]


class TestBatchEft:
    def test_matches_scalar_eft(self):
        rng = random.Random(11)
        for speeds in ([Fraction(1)], [Fraction(1), Fraction(2)], [Fraction(3, 2), Fraction(1), Fraction(7, 3)]):
            alphabet, problem = make_problem([1, 2, 5], speeds)
            seqs = [tuple(rng.choices(alphabet.symbols, k=12)) for _ in range(50)]
            loads = batch_eft_loads(_rows(seqs, problem), problem.machines)
            spans = _spans("eft", seqs, problem)
            for i, seq in enumerate(seqs):
                a = eft_by_loop(seq, problem)
                assert loads[i].tolist() == loads_of(a, seq, problem)
                assert spans[i] == makespan_of(a, seq, problem)

    def test_huge_loads_fall_back_to_float(self):
        # scaled finish times would overflow int64; the Python-int path must agree
        machines = MachineSet((Fraction(1), Fraction(999_999_937)))
        times = np.full((3, 4), 2**31, dtype=np.int64)
        loads = batch_eft_loads(times, machines)
        assert loads.sum() == times.sum()
        assert (loads[:, 1] > 0).all()  # nearly all work goes to the fast machine
        _, problem = make_problem([2**31], machines.speeds)
        seq = ("a",) * 4
        assert loads.tolist() == [loads_of(eft_by_loop(seq, problem), seq, problem)] * 3

    def test_python_int_branch_matches_oracle(self):
        # machine 1 is 999_999_937 times faster; after a first job of about 2^61
        # on it, a job of 2^31 ties with the slow machine to within d time
        # units, far below the 256-unit spacing of doubles at that size
        tie = 2**31 * 999_999_936
        alphabet, problem = make_problem([2**31, tie - 1, tie, tie + 1], [Fraction(1), Fraction(999_999_937)])
        big = alphabet.symbols[1:]
        seqs = [
            (first, alphabet.symbols[0], *tail)
            for first in big
            for tail in itertools.product(alphabet.symbols[:1] + big[:1], repeat=2)
        ]
        loads = batch_eft_loads(_rows(seqs, problem), problem.machines)
        eft_spans = _spans("eft", seqs, problem)
        lpt_spans = _spans("lpt", seqs, problem)
        second = []
        for i, seq in enumerate(seqs):
            a = eft_by_loop(seq, problem)
            assert loads[i].tolist() == loads_of(a, seq, problem)
            assert eft_spans[i] == makespan_of(a, seq, problem)
            assert lpt_spans[i] == makespan_of(lpt_by_loop(seq, problem), seq, problem)
            second.append(a[1])
        # first job d = -1, 0, +1 below/at/above the tie: fast, slow (tie), slow
        assert second == [1] * 4 + [0] * 4 + [0] * 4

    @pytest.mark.parametrize(
        "times,speeds",
        [
            ([1, 2, 2, 3], [1] * 4),  # equal speeds: every empty machine ties
            ([1, 2, 2, 3], [1] * 5),
            ([1, 2, 3, 6], [1, 2, 3]),  # scaled finish times tie across unequal speeds
            ([1, 2, 3, 6], [Fraction(3, 2), 3, 1, 3]),
            ([2**58, 2**59, 3 * 2**58], [1, 2, 3]),  # the same ties in an object array
        ],
        ids=["equal-m4", "equal-m5", "scaled-m3", "scaled-m4", "object-m3"],
    )
    def test_ties_go_to_the_lowest_machine_on_every_route(self, times, speeds):
        alphabet, problem = make_problem(times, [Fraction(v) for v in speeds])
        rng = random.Random(len(times) * 100 + len(speeds))
        seqs = [tuple(rng.choices(alphabet.symbols, k=11)) for _ in range(60)]
        rows = np.array([[alphabet.time_of(s) for s in seq] for seq in seqs])
        weights, _ = scaled_inverse_speeds(problem.machines)
        ties = 0
        for seq in seqs:
            loads = [0] * len(speeds)
            for sym in seq:
                finish = [(load + alphabet.time_of(sym)) * w for load, w in zip(loads, weights)]
                ties += finish.count(min(finish)) > 1
                loads[finish.index(min(finish))] += alphabet.time_of(sym)
        assert ties > len(seqs)  # the rows exercise the tie rule
        for layout in (rows, np.asfortranarray(rows)):  # row-major, and job-major as the sampler returns
            loads = batch_eft_loads(layout, problem.machines)
            scaled, scale = makespans_scaled("eft", layout, problem.machines)
            assert (loads.dtype == object) == (max(times) > 2**40)
            for i, seq in enumerate(seqs):
                a = eft_by_loop(seq, problem)
                assert loads[i].tolist() == loads_of(a, seq, problem)
                assert Fraction(int(scaled[i]), scale) == makespan_of(a, seq, problem)
        for n in (3, 5):
            discard = ThresholdDiscardSet(n=n, alpha=Fraction(2 * max(times)) / problem.machines.v_sum)
            assert cost_exact("eft", discard, problem) == eft_worst_cost_by_enumeration(discard, problem)


@st.composite
def _list_instances(draw):
    """m from 1 to 5 from few speeds, so equal speeds and tied finish times occur; k <= 4 times; up to 40 rows."""
    pool = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(1, 2)]
    speeds = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    times = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(st.integers(0, len(times) - 1), min_size=n, max_size=n), min_size=1, max_size=40))
    _, problem = make_problem(times, speeds)
    return problem, [tuple(problem.alphabet.symbols[j] for j in row) for row in rows]


class TestListSchedulersAgainstTheLoops:
    """`batch_eft_loads` and `makespans_scaled` for EFT and LPT against the one-job-at-a-time oracles."""

    @staticmethod
    def _check(problem, seqs):
        rows = _rows(seqs, problem)
        for layout in (rows, np.asfortranarray(rows)):  # row-major, and job-major as the sampler returns
            loads = batch_eft_loads(layout, problem.machines)
            eft, scale = makespans_scaled("eft", layout, problem.machines)
            lpt, lpt_scale = makespans_scaled("lpt", layout, problem.machines)
            for i, seq in enumerate(seqs):
                a = eft_by_loop(seq, problem)
                assert loads[i].tolist() == loads_of(a, seq, problem)
                assert Fraction(int(eft[i]), scale) == makespan_of(a, seq, problem)
                assert Fraction(int(lpt[i]), lpt_scale) == makespan_of(lpt_by_loop(seq, problem), seq, problem)
        return loads.dtype

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_list_instances())
    def test_property(self, instance):
        self._check(*instance)

    # weights (2, 1, 1), m = 3 and n = 2, so the key bound ((2*t_max + 1)*2 + 1)*3 is 12*t_max + 9
    _BELOW = (2**62 - 4) // 12 - 1  # 12*t_max + 9 = 2**62 - 7
    _ABOVE = (2**62 - 4) // 12  # 2**62 + 5
    _WRAPS = 2**60 - 1  # the bound without its factor m is 2**62 - 1, and keys reach 3 * 2**62

    @pytest.mark.parametrize(
        "t_max, dtype", [(_BELOW, np.int64), (_ABOVE, object), (_WRAPS, object)], ids=["below", "above", "wraps"]
    )
    def test_key_dtype_at_2_to_the_62(self, t_max, dtype):
        assert (((2 * t_max + 1) * 2 + 1) * 3 < 2**62) == (dtype is np.int64)
        _, problem = make_problem([1, t_max // 3, t_max - 1, t_max], [Fraction(1), Fraction(2), Fraction(2)])
        seqs = list(itertools.product(problem.alphabet.symbols, repeat=2))
        assert self._check(problem, seqs) == dtype


class TestMakespansScaled:
    def test_lpt_matches_the_loop(self):
        tie = 2**31 * 999_999_936
        rng = random.Random(17)
        for times, speeds in (
            ([1, 2, 2, 5], [Fraction(3, 2), Fraction(1), Fraction(7, 3)]),  # equal times
            ([2**31, tie - 1, tie, tie + 1], [Fraction(1), Fraction(999_999_937)]),  # Python-int weights
        ):
            alphabet, problem = make_problem(times, speeds)
            seqs = [tuple(rng.choices(alphabet.symbols, k=3)) for _ in range(40)]
            spans = _spans("lpt", seqs, problem)
            assert spans == [makespan_of(lpt_by_loop(seq, problem), seq, problem) for seq in seqs]

    def test_unknown_scheduler_is_a_domain_error(self, monkeypatch, iid_problem):
        drawn = []
        monkeypatch.setattr(spectrum, "sample_time_matrix", lambda *args: drawn.append(args))
        for unknown in (object(), "bogus"):
            with pytest.raises(DomainError, match="unknown scheduler"):
                makespans_scaled(unknown, np.array([[1, 3]]), iid_problem.machines)
            with pytest.raises(DomainError, match="unknown scheduler"):
                cost_exact(unknown, ThresholdDiscardSet(n=3, alpha=Fraction(1)), iid_problem)
            # refused first: before the empty kept set, the bracketed rows and any sample
            with pytest.raises(DomainError, match="unknown scheduler"):
                cost_exact(unknown, ThresholdDiscardSet(n=5, alpha=Fraction(0)), iid_problem)
            with pytest.raises(DomainError, match="unknown scheduler"):
                achievability_experiment(iid_problem, Fraction(1, 10), unknown, [50, 200], budget=10)
            with pytest.raises(DomainError, match="unknown scheduler"):
                average_case_bracket(iid_problem, 4, 8, seed=0, scheduler=unknown)
            with pytest.raises(DomainError, match="unknown scheduler"):
                average_case_bracket(iid_problem, 2000, 20000, 0, unknown)
        assert drawn == []


class TestExactAtEveryMagnitude:
    """Speeds (1, 3/2), n=4, every sequence kept: each route against its Python-int oracle.

    Times {t, t+1, t+3} at every magnitude, and times {1, 2, 2**63 + 1},
    which numpy lays out as float64, rounding the largest, unless told otherwise.
    """

    TIMES = [(t, t + 1, t + 3) for t in (2**40, 2**61, 2**62, 2**63, 2**70)] + [(1, 2, 2**63 + 1)]
    IDS = [f"2^{times[0].bit_length() - 1}" for times in TIMES[:-1]] + ["mixed"]

    @staticmethod
    def _instance(times):
        _, problem = make_problem(times, [Fraction(1), Fraction(3, 2)])
        return problem, ThresholdDiscardSet(n=4, alpha=max(times) / problem.machines.v_sum)

    @pytest.mark.parametrize("times", TIMES, ids=IDS)
    def test_cost_exact(self, times):
        problem, discard = self._instance(times)
        symbols = problem.alphabet.symbols
        assert cost_exact("eft", discard, problem) == eft_worst_cost_by_enumeration(discard, problem)
        multisets = itertools.combinations_with_replacement(symbols, 4)
        lpt_worst = max(makespan_of(lpt_by_loop(seq, problem), seq, problem) for seq in multisets)
        assert cost_exact("lpt", discard, problem) == lpt_worst
        assert cost_exact("brute-force", discard, problem) == optimal_cost_by_enumeration(discard, problem)

    @pytest.mark.parametrize("times", TIMES, ids=IDS)
    def test_schedule(self, times):
        problem, _ = self._instance(times)
        seqs = list(itertools.product(problem.alphabet.symbols, repeat=4))
        loads = batch_eft_loads(_rows(seqs, problem), problem.machines)
        eft_spans = _spans("eft", seqs, problem)
        lpt_spans = _spans("lpt", seqs, problem)
        for i, seq in enumerate(seqs):
            a = eft_by_loop(seq, problem)
            assert loads[i].tolist() == loads_of(a, seq, problem)
            assert eft_spans[i] == makespan_of(a, seq, problem)
            assert lpt_spans[i] == makespan_of(lpt_by_loop(seq, problem), seq, problem)

    def test_generous_alpha_keeps_the_eft_sweep_in_int64(self, monkeypatch):
        # no load passes n * t_max, so a limit far above it keeps the same sequences and the same dtypes
        _, problem = make_problem([2, 5, 11], [Fraction(1), Fraction(3, 2), Fraction(2)])
        dtypes = []
        int_dtype = schedulers._int_dtype
        monkeypatch.setattr(schedulers, "_int_dtype", lambda bound: dtypes.append(int_dtype(bound)) or dtypes[-1])
        for alpha in (Fraction(22, 9), 10**18):
            assert cost_exact("eft", ThresholdDiscardSet(n=14, alpha=alpha), problem) == Fraction(110, 3)
        assert dtypes and object not in dtypes

    def test_job_times_past_int64_that_no_kept_sequence_holds(self):
        # a threshold of 4 keeps only the four unit jobs; the time 2^70 never enters the int64 EFT sweep
        _, problem = make_problem([1, 2**70], [Fraction(1), Fraction(2)])
        kept = ThresholdDiscardSet(n=4, alpha=Fraction(1, 3))
        for scheduler in ("eft", "lpt", "brute-force"):
            assert cost_exact(scheduler, kept, problem) == Fraction(3, 2)
        with pytest.raises(DomainError, match="keeps no sequences"):
            cost_exact("eft", ThresholdDiscardSet(n=4, alpha=Fraction(1, 4)), problem)

    @pytest.mark.parametrize("scheduler", ["eft", "lpt", "brute-force"])
    def test_row_total_past_int64(self, scheduler):
        scaled, scale = makespans_scaled(scheduler, np.array([[2**62, 2**62]]), MachineSet((Fraction(1),)))
        assert isinstance(scaled, np.ndarray)
        assert (scaled.tolist(), scale) == ([2**63], 1)


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
        assert cost_exact("brute-force", discard, iid_problem) == Fraction(3, 2)
        assert discard_probability(discard, iid_problem) == 0.25
        assert max_kept_total_time(discard, iid_problem) == 4

    def test_threshold_edges(self, iid_problem):
        everything = ThresholdDiscardSet(n=3, alpha=Fraction(2))  # keeps all sequences
        assert discard_probability(everything, iid_problem) == 0.0
        nothing = ThresholdDiscardSet(n=3, alpha=Fraction(1, 4))  # drops all sequences
        assert discard_probability(nothing, iid_problem) == 1.0
        with pytest.raises(DomainError):
            cost_exact("brute-force", nothing, iid_problem)
        with pytest.raises(DomainError):
            max_kept_total_time(nothing, iid_problem)

    def test_empty_kept_set_refused_before_the_sweep(self, iid_problem):
        # a 10^9-step bitset sweep would never end; n * t_min above the threshold decides at once
        nothing = ThresholdDiscardSet(n=10**9, alpha=Fraction(1, 4))
        with pytest.raises(DomainError, match="keeps no sequences"):
            max_kept_total_time(nothing, iid_problem)

    @pytest.mark.parametrize("scheduler", ["lpt", "brute-force"], ids=["lpt", "brute-force"])
    def test_empty_kept_set_refused_before_the_byte_budget(self, scheduler):
        # 12.5 million count vectors of 3 types fit a 10^12 work budget, not the 1 GiB byte budget
        _, problem = make_problem([2, 5, 11], [Fraction(1), Fraction(2)])
        nothing = ThresholdDiscardSet(n=5000, alpha=Fraction(1, 2))
        with pytest.raises(DomainError, match="keeps no sequences"):
            cost_exact(scheduler, nothing, problem, budget=10**12)
        with pytest.raises(ResourceError, match="work units"):  # the work budget is still checked first
            cost_exact(scheduler, nothing, problem)

    @pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(1, 2), Fraction(23, 30), Fraction(1), Fraction(7, 6)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cost_matches_sequence_enumeration(self, iid_problem, n, alpha):
        discard = ThresholdDiscardSet(n=n, alpha=alpha)
        assert cost_exact("brute-force", discard, iid_problem) == optimal_cost_by_enumeration(
            discard, iid_problem
        )

    @pytest.mark.parametrize("fixture", ["iid_problem", "markov_problem", "mixture_problem"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_discard_probability_matches_enumeration(self, request, fixture, n):
        problem = request.getfixturevalue(fixture)
        discard = ThresholdDiscardSet(n=n, alpha=Fraction(23, 30))
        expect = discard_probability_by_enumeration(discard, problem.process, problem)
        # dyadic masses: the DP sums are exact in binary floating point
        assert discard_probability(discard, problem) == float(expect)

    def test_cost_monotone_in_alpha(self, iid_problem):
        grid = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(4, 3)]
        for scheduler in ("brute-force", "eft", "lpt"):
            costs = [
                cost_exact(scheduler, ThresholdDiscardSet(n=5, alpha=a), iid_problem)
                for a in grid
            ]
            assert costs == sorted(costs)

    def test_heuristic_cost_dominates_optimal_cost(self, iid_problem):
        for n in (2, 3, 5, 8):
            discard = ThresholdDiscardSet(n=n, alpha=Fraction(1))
            opt = cost_exact("brute-force", discard, iid_problem)
            for scheduler in ("eft", "lpt"):
                assert cost_exact(scheduler, discard, iid_problem) >= opt

    def test_eft_cost_counts_every_order(self, iid_problem):
        # one alphabet-ordered sequence per multiset reaches only 15/2 here
        discard = ThresholdDiscardSet(n=10, alpha=Fraction(23, 30))
        assert cost_exact("eft", discard, iid_problem) == 8
        assert eft_worst_cost_by_enumeration(discard, iid_problem) == 8

    def test_eft_cost_matches_order_enumeration(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 120:
            m = rng.choice((2, 3))
            k = rng.choice((2, 3))
            n = rng.randint(1, 8 if k == 2 else 6)
            times = sorted(rng.sample(range(1, 8), k))
            speeds = [Fraction(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(m)]
            _, problem = make_problem(times, speeds)
            alpha = Fraction(rng.randint(1, 12), 6) * max(times) / problem.machines.v_sum / 2
            discard = ThresholdDiscardSet(n=n, alpha=alpha)
            try:
                want = eft_worst_cost_by_enumeration(discard, problem)
            except ValueError:  # nothing kept
                with pytest.raises(DomainError):
                    cost_exact("eft", discard, problem)
                continue
            assert cost_exact("eft", discard, problem) == want
            checked += 1
        # seven machines and a limit near 4000: load-vector keys outgrow int64
        _, problem = make_problem([1, 700, 1300], [Fraction(v, 3) for v in range(3, 10)])
        discard = ThresholdDiscardSet(n=4, alpha=Fraction(1300 * 3, 4) / problem.machines.v_sum)
        assert cost_exact("eft", discard, problem) == eft_worst_cost_by_enumeration(discard, problem)

    def test_lpt_cost_matches_per_multiset_loop(self):
        rng = random.Random(17)
        for _ in range(40):
            m = rng.randint(1, 3)
            k = rng.randint(1, 3)
            n = rng.randint(1, 9)
            times = sorted(rng.sample(range(1, 9), k))
            _, problem = make_problem(times, [Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(m)])
            alpha = Fraction(rng.randint(3, 8), 6) * max(times) / problem.machines.v_sum
            discard = ThresholdDiscardSet(n=n, alpha=alpha)
            threshold = discard.keep_threshold(problem)
            want = None
            for counts in itertools.product(range(n + 1), repeat=k):
                if sum(counts) != n or sum(c * t for c, t in zip(counts, times)) > threshold:
                    continue
                seq = _sequence(problem.alphabet, counts)
                span = makespan_of(lpt_by_loop(seq, problem), seq, problem)
                want = span if want is None or span > want else want
            if want is None:
                with pytest.raises(DomainError):
                    cost_exact("lpt", discard, problem)
            else:
                assert cost_exact("lpt", discard, problem) == want

    def test_eft_order_sweep_budget(self, iid_problem):
        # 21 multisets x 20 jobs fit the budget; the reachable EFT load vectors do not
        discard = ThresholdDiscardSet(n=20, alpha=Fraction(1))
        assert cost_exact("eft", discard, iid_problem, budget=2000) == cost_exact(
            "eft", discard, iid_problem
        )
        with pytest.raises(ResourceError, match="kept more than 500 load vectors"):
            cost_exact("eft", discard, iid_problem, budget=500)

    def test_eft_order_sweep_refuses_a_step_before_extending_it(self):
        # eight job times on eight machines: up to 8^4 vectors after four jobs,
        # whose 8 * 8^4 extensions are counted before they are allocated
        speeds = [Fraction(v) for v in (1, 2, 3, 5, 7, 11, 13, 17)]
        _, problem = make_problem([1, 97, 211, 307, 401, 503, 601, 701], speeds)
        discard = ThresholdDiscardSet(n=6, alpha=Fraction(701) / problem.machines.v_sum)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match="would extend more than 20000 load vectors at job 5"):
                cost_exact("eft", discard, problem, budget=20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**21

    def test_cost_budget_guard(self, iid_problem):
        discard = ThresholdDiscardSet(n=100, alpha=Fraction(1))
        with pytest.raises(ResourceError):
            cost_exact("brute-force", discard, iid_problem, budget=5000)

    def test_max_kept_total_matches_the_stepwise_array(self):
        rng = random.Random(31)
        empty = 0
        for _ in range(300):
            k = rng.randint(1, 4)
            times = [rng.randint(1, 12) for _ in range(k)]
            speeds = [Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
            _, problem = make_problem(times, speeds)
            alpha = Fraction(rng.randint(0, 40), 20) * max(times) / problem.machines.v_sum
            discard = ThresholdDiscardSet(n=rng.randint(1, 60), alpha=alpha)
            try:
                want = max_kept_total_time_by_steps(discard, problem)
            except DomainError:
                empty += 1
                with pytest.raises(DomainError):
                    max_kept_total_time(discard, problem)
                continue
            assert max_kept_total_time(discard, problem) == want
        assert empty > 0

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
