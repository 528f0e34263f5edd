"""Every CLI kind but second-order, on small random problems, against the enumeration oracles.

One property draws a problem (k <= 3 symbols of times 1-6, one to three
speeds p/q, an IID, Markov or two-leaf mixture process with denominators
<= 20) and a length n <= 6, runs each table through `cli.run(parse_config(...))`
and checks every cell it reads in rationals against `tests/oracles.py`:
the rates against each leaf's stationary mean, tails and discard
probabilities against the enumerated law, costs against the enumerated
worst case over the kept sequences, and the average-case bracket against
the exact mean of T_n advanced one job at a time.  Thresholds are drawn on
the lattice of totals, so kept sets often end exactly at a reachable total.
"""

import functools
import itertools
import json
from fractions import Fraction
from types import SimpleNamespace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stochsched import SCHEDULERS, DomainError, IIDModel, ThresholdDiscardSet, stationary_distribution
from stochsched.cli import parse_config, run

from .oracles import (
    best_makespan_by_enumeration,
    discard_probability_by_enumeration,
    eft_by_loop,
    lpt_by_loop,
    makespan_of,
    mean_total_time_by_steps,
    sample_index_matrix_by_kind,
    sum_law_by_enumeration,
)

@st.composite
def _vector(draw, k: int) -> list[str]:
    """k probabilities over one denominator <= 20, zeros allowed."""
    den = draw(st.integers(1, 20))
    cuts = sorted(draw(st.lists(st.integers(0, den), min_size=k - 1, max_size=k - 1)))
    return [f"{b - a}/{den}" for a, b in zip([0, *cuts], [*cuts, den])]


def _irreducible(rows: list[list[str]]) -> bool:
    k = len(rows)
    reach = [[i == j or Fraction(rows[i][j]) > 0 for j in range(k)] for i in range(k)]
    for via in range(k):
        reach = [[reach[i][j] or (reach[i][via] and reach[via][j]) for j in range(k)] for i in range(k)]
    return all(map(all, reach))


@st.composite
def _leaf(draw, symbols: list[str]) -> dict:
    k = len(symbols)
    if draw(st.booleans()):
        return {"kind": "iid", "probs": dict(zip(symbols, draw(_vector(k))))}
    transition = [draw(_vector(k)) for _ in symbols]
    assume(_irreducible(transition))
    initial = draw(st.just("stationary") | _vector(k))
    return {"kind": "markov", "symbols": symbols, "transition": transition, "initial": initial}


@st.composite
def _problems(draw) -> dict:
    symbols = list("abc"[: draw(st.sampled_from([3, 2, 1]))])
    speeds = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)), min_size=1, max_size=3))
    if draw(st.booleans()):
        process = draw(_leaf(symbols))
    else:
        den = draw(st.integers(2, 20))
        weight = draw(st.integers(1, den - 1))
        components = [(f"{weight}/{den}", draw(_leaf(symbols))), (f"{den - weight}/{den}", draw(_leaf(symbols)))]
        process = {"kind": "mixture", "components": [{"weight": w, "process": p} for w, p in components]}
    return {
        "alphabet": {s: draw(st.integers(1, 6)) for s in symbols},
        "machines": [f"{p}/{q}" for p, q in speeds],
        "process": process,
    }


def _table(problem: dict, **experiment):
    return run(parse_config(json.dumps({"problem": problem, "experiment": experiment})))


class _Oracle:
    """Exact answers for one problem, by enumerating its k^n sequences."""

    def __init__(self, problem):
        self.problem = problem
        self.alphabet, self.machines, self.process = problem.alphabet, problem.machines, problem.process
        self.leaves = getattr(self.process, "components", [(Fraction(1), self.process)])

    def rate(self, leaf) -> Fraction:
        """The leaf's long-run mean time over v_sum, from a stationary vector checked exactly."""
        if isinstance(leaf, IIDModel):
            pi = list(leaf.probs.values())
        else:
            pi = stationary_distribution(leaf)
            k = len(pi)
            assert sum(pi) == 1
            assert [sum(pi[i] * leaf.transition[i][j] for i in range(k)) for j in range(k)] == list(pi)
        times = [self.alphabet.time_of(s) for s in leaf.symbols]
        return sum((p * t for p, t in zip(pi, times)), Fraction(0)) / self.machines.v_sum

    @functools.cached_property
    def rates(self) -> list[Fraction]:
        return [self.rate(leaf) for _, leaf in self.leaves]

    @functools.cache
    def law(self, n: int) -> dict[int, Fraction]:
        return sum_law_by_enumeration(self.process, self.alphabet, n)

    def tail(self, n: int, alpha: Fraction) -> Fraction:
        threshold = n * self.machines.v_sum * alpha
        return sum((p for total, p in self.law(n).items() if total > threshold), Fraction(0))

    @functools.cache
    def kept(self, n: int, alpha: Fraction) -> list[tuple[str, ...]]:
        threshold = n * self.machines.v_sum * alpha
        sequences = itertools.product(self.alphabet.symbols, repeat=n)
        return [items for items in sequences if sum(map(self.alphabet.time_of, items)) <= threshold]

    @functools.cache
    def optimum(self, multiset: tuple[str, ...]) -> Fraction:
        return best_makespan_by_enumeration(multiset, self.problem)

    def span(self, scheduler: str, items: tuple[str, ...]) -> Fraction:
        """The makespan the scheduler gives the sequence, its jobs placed one at a time or all assignments tried."""
        if scheduler == "brute-force":
            return self.optimum(tuple(sorted(items)))
        assign = eft_by_loop if scheduler == "eft" else lpt_by_loop
        return makespan_of(assign(items, self.problem), items, self.problem)

    @functools.cache
    def cost(self, scheduler: str, n: int, alpha: Fraction) -> Fraction | None:
        """The scheduler's worst makespan over the kept sequences; None when none is kept."""
        kept = self.kept(n, alpha)
        return max((self.span(scheduler, items) for items in kept), default=None)

    def sampled_span_per_job(self, scheduler: str, n: int, trials: int, seed: int) -> Fraction:
        """Mean makespan per job over the sequences the reference sampler draws."""
        index, symbols = sample_index_matrix_by_kind(self.process, n, trials, seed)
        spans = (self.span(scheduler, tuple(symbols[i] for i in row)) for row in index.tolist())
        return sum(spans, Fraction(0)) / (trials * n)

    def mean_total(self, n: int) -> Fraction:
        """E[T_n], each leaf advanced one job at a time; an IID leaf as the chain whose rows are its law."""
        total = Fraction(0)
        for w, leaf in self.leaves:
            if isinstance(leaf, IIDModel):
                probs = tuple(leaf.probs.values())
                leaf = SimpleNamespace(symbols=leaf.symbols, initial=probs, transition=[probs] * len(probs))
            total += w * mean_total_time_by_steps(leaf, self.alphabet, n)
        return total


def _close(got: float, want: Fraction) -> bool:
    return abs(got - float(want)) <= 1e-12 * float(want)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    problem=_problems(),
    n=st.integers(1, 6),
    grid=st.lists(st.integers(1, 6), min_size=1, max_size=2, unique=True).map(sorted),
    cuts=st.lists(st.integers(0, 13), min_size=1, max_size=3, unique=True).map(sorted),
    cut=st.integers(-1, 36),
    eighths=st.integers(1, 7),
    seed=st.integers(0, 2**16),
)
def test_every_cell_against_the_oracles(problem, n, grid, cuts, cut, eighths, seed):
    oracle = _Oracle(parse_config(json.dumps({"problem": problem, "experiment": {"kind": "validate"}})).problem)
    alphabet, machines = oracle.alphabet, oracle.machines
    v_sum = machines.v_sum
    ebar, ebar_under = max(oracle.rates), min(oracle.rates)

    (row,) = _table(problem, kind="validate").rows
    assert row == (alphabet.t_min, alphabet.t_max, machines.m, v_sum, machines.v_min, machines.v_max,
                   ebar, ebar_under, ebar == ebar_under)

    # rates c/(2 v_sum) put the threshold n*c/2 on the lattice of totals for every even n or c
    alphas = [Fraction(c, 2) / v_sum for c in cuts]
    scan = _table(problem, kind="scan", alpha_grid=[str(a) for a in alphas], n_grid=grid)
    assert [r[:2] for r in scan.rows] == [(m, a) for m in grid for a in alphas]
    for m, alpha, tail, _ in scan.rows:
        assert _close(tail, oracle.tail(m, alpha)), (m, alpha)

    gap = ebar * Fraction(eighths, 8)
    converse = _table(problem, kind="converse", gap=str(gap), n_grid=grid)
    assert [m for m, _ in converse.rows] == grid
    for m, tail in converse.rows:
        assert _close(tail, oracle.tail(m, ebar - gap)), m

    alpha = Fraction(n * alphabet.t_min + cut, n) / v_sum  # threshold n*t_min + cut, from below every total up
    for scheduler in SCHEDULERS:
        want = oracle.cost(scheduler, n, alpha)
        try:
            table = _table(problem, kind="cost", n=n, alpha=str(alpha), scheduler=scheduler)
        except DomainError:
            assert want is None, scheduler
            continue
        ((m, a, discard, cost, per_job),) = table.rows
        assert (m, a, cost, per_job) == (n, alpha, want, want / n), scheduler
        kept = ThresholdDiscardSet(n, alpha)
        assert _close(discard, discard_probability_by_enumeration(kept, oracle.process, oracle.problem)), scheduler

    gamma = Fraction(cuts[0] + 1, 2) / v_sum
    for scheduler, budget in itertools.product(SCHEDULERS, (10, 2_000_000)):
        rows = _table(problem, kind="achievability", gamma=str(gamma), n_grid=grid, scheduler=scheduler, budget=budget).rows
        assert [r[0] for r in rows] == grid
        for m, discard, cost, per_job, cost_lower, exact in rows:
            want = oracle.cost(scheduler, m, ebar + gamma)
            assert _close(discard, oracle.tail(m, ebar + gamma)), (scheduler, budget, m)
            assert per_job == cost / m
            if exact:
                assert cost_lower == cost == want, (scheduler, budget, m)
            else:
                assert cost_lower <= want <= cost, (scheduler, budget, m)

    mean = oracle.mean_total(n)
    for scheduler in SCHEDULERS:
        (row,) = _table(problem, kind="average-case", n=n, trials=50, scheduler=scheduler, master_seed=seed).rows
        assert row[:2] == (n, 50)
        # every sampled stream is scheduled, so a change of tie rule moves this mean
        assert _close(row[2], oracle.sampled_span_per_job(scheduler, n, 50, seed)), scheduler
        assert row[3:5] == (float(mean / v_sum / n), float((mean / v_sum + Fraction(alphabet.t_max) / machines.v_min) / n))
