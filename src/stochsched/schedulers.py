"""Schedulers and discard-set cost evaluation.

Three scheduling strategies share one dispatch surface:

* BruteForce      exact optimum by pruned depth-first search,
* EarliestFinishTime  list scheduling onto the machine that finishes first,
* LPT             EFT over the jobs reordered longest-first.

EFT and LPT run on one kernel, `_eft_step`: one job per row of a (rows, m)
load matrix goes to the machine where it finishes first, comparing exact
scaled-integer finish times.  `schedule` runs it on one row, batch EFT on
many rows at once, and `cost_exact` on every kept multiset (LPT) or on every
reachable EFT load vector (EFT).

A ThresholdDiscardSet drops every length-n sequence whose normalized total
time exceeds alpha; COST of a scheduler against a discard set is the largest
makespan over the kept sequences.  Keeping or dropping a sequence depends
only on its job multiset, and so do the brute-force optimum and the LPT
makespan, so their COST walks job count vectors.  The EFT makespan depends
on job order, so its COST walks every order of every kept sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

import numpy as np

from .core import (
    Assignment,
    JobSequence,
    SchedulingProblem,
    as_fraction,
    scaled_inverse_speeds,
)
from .errors import DomainError, ResourceError
from .stochastic import JobProcess, sum_distribution

_MAX_DFS_DEPTH = 500  # brute-force DFS recursion depth, well inside the interpreter's limit


@dataclass(frozen=True)
class BruteForce:
    budget: int = 10_000_000


@dataclass(frozen=True)
class EarliestFinishTime:
    pass


@dataclass(frozen=True)
class LPT:
    pass


Scheduler = Union[BruteForce, EarliestFinishTime, LPT]


@dataclass(frozen=True)
class ThresholdDiscardSet:
    """Discard rule: drop length-n sequences with total time > n * v_sum * alpha."""

    n: int
    alpha: Fraction

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise DomainError(f"discard-set length must be a positive integer, got {self.n!r}")
        alpha = as_fraction(self.alpha)
        if alpha < 0:
            raise DomainError(f"threshold rate must be non-negative, got {alpha}")
        object.__setattr__(self, "alpha", alpha)

    def keep_threshold(self, problem: SchedulingProblem) -> Fraction:
        """Largest total time a kept sequence may have."""
        return self.n * problem.machines.v_sum * self.alpha


def brute_force_optimal(
    seq: JobSequence, problem: SchedulingProblem, budget: int = 10_000_000
) -> tuple[Assignment, Fraction]:
    """Exact optimal assignment by pruned DFS over machine choices.

    Prunes a branch as soon as its partial makespan reaches the incumbent,
    and skips machines identical in (speed, current load) to an earlier one.
    Among optimal assignments, returns the lexicographically smallest
    machine vector (DFS visits machines in index order, so the first
    optimum found is that one).
    """
    m = problem.machines.m
    n = seq.n
    times = [problem.alphabet.time_of(sym) for sym in seq.items]
    weights, scale = scaled_inverse_speeds(problem.machines)
    if m == 1:
        return Assignment((0,) * n), Fraction(sum(times) * weights[0], scale)
    if m**n > budget:
        raise ResourceError(
            f"brute force would enumerate {m}^{n} assignments (budget {budget}); "
            "use EarliestFinishTime or LPT instead"
        )
    if n > _MAX_DFS_DEPTH:
        raise ResourceError(f"brute force recurses once per job; n={n} exceeds the depth limit {_MAX_DFS_DEPTH}")
    loads = [0] * m
    choice = [0] * n
    best_scaled: int | None = None
    best: tuple[int, ...] | None = None

    def dfs(pos: int, cur_max: int) -> None:
        nonlocal best_scaled, best
        if pos == n:
            if best_scaled is None or cur_max < best_scaled:
                best_scaled = cur_max
                best = tuple(choice)
            return
        t = times[pos]
        seen: set[tuple[int, int]] = set()
        for i in range(m):
            key = (weights[i], loads[i])
            if key in seen:
                continue
            seen.add(key)
            finish = (loads[i] + t) * weights[i]
            new_max = finish if finish > cur_max else cur_max
            if best_scaled is not None and new_max >= best_scaled:
                continue
            loads[i] += t
            choice[pos] = i
            dfs(pos + 1, new_max)
            loads[i] -= t
        return

    dfs(0, 0)
    assert best is not None and best_scaled is not None
    return Assignment(best), Fraction(best_scaled, scale)


def _weight_array(weights: tuple[int, ...], max_total: int) -> np.ndarray:
    """Scaled inverse speeds as int64 when every finish time up to max_total fits, else as Python ints."""
    exact_int64 = (max_total + 1) * max(weights) < 2**62
    return np.array(weights, dtype=np.int64 if exact_int64 else object)


def _eft_step(loads: np.ndarray, t, weights: np.ndarray) -> np.ndarray:
    """Place one job per row (t: one time per row, or one for all) where it finishes first.

    Finish times are compared as scaled integers, ties going to the lowest
    machine index.  Updates the int64 loads (rows, m) in place and returns
    the chosen machine of each row.
    """
    t = np.broadcast_to(t, loads.shape[:1])
    choice = ((loads + t[:, None]) * weights).argmin(axis=1)
    loads[np.arange(len(loads)), choice] += t
    return choice


def schedule(scheduler: Scheduler, seq: JobSequence, problem: SchedulingProblem) -> Assignment:
    """Run one scheduling strategy on a sequence.

    EFT places the jobs in sequence order; LPT places them longest first,
    equal times in alphabet order and then by position.
    """
    if isinstance(scheduler, BruteForce):
        return brute_force_optimal(seq, problem, budget=scheduler.budget)[0]
    if not isinstance(scheduler, (EarliestFinishTime, LPT)):
        raise DomainError(f"unknown scheduler {scheduler!r}")
    times = [problem.alphabet.time_of(sym) for sym in seq.items]
    order = range(seq.n)
    if isinstance(scheduler, LPT):
        rank = {sym: i for i, sym in enumerate(problem.alphabet.symbols)}
        order = sorted(order, key=lambda i: (-times[i], rank[seq.items[i]]))
    weights = _weight_array(scaled_inverse_speeds(problem.machines)[0], sum(times))
    loads = np.zeros((1, problem.machines.m), dtype=np.int64)
    machine_of = [0] * seq.n
    for i in order:
        machine_of[i] = int(_eft_step(loads, times[i], weights)[0])
    return Assignment(tuple(machine_of))


def batch_eft_loads(times: np.ndarray, machines) -> np.ndarray:
    """EFT over many integer job rows at once, one kernel step per column; int64 loads (rows, m)."""
    times = np.asarray(times, dtype=np.int64)
    weights = _weight_array(scaled_inverse_speeds(machines)[0], int(times.sum(axis=1).max(initial=0)))
    loads = np.zeros((len(times), machines.m), dtype=np.int64)
    for column in times.T:
        _eft_step(loads, column, weights)
    return loads


def batch_eft_makespans_scaled(times: np.ndarray, machines) -> tuple[np.ndarray, int]:
    """EFT makespans as (scaled integers, scale): makespan = scaled/scale.

    The scaled values are int64, or Python ints where int64 could overflow.
    """
    weights, scale = scaled_inverse_speeds(machines)
    loads = batch_eft_loads(times, machines)
    return (loads * _weight_array(weights, int(loads.sum(axis=1).max(initial=0)))).max(axis=1), scale


def _count_vectors(n: int, k: int) -> Iterator[tuple[int, ...]]:
    if k == 1:
        yield (n,)
        return
    for c in range(n + 1):
        for rest in _count_vectors(n - c, k - 1):
            yield (c,) + rest


def _distinct_rows(loads: np.ndarray, limit: int) -> np.ndarray:
    """The distinct rows of a load matrix with entries in [0, limit], keyed base limit+1.

    The keys are int64 when every key fits, else Python ints.
    """
    powers = [(limit + 1) ** i for i in range(loads.shape[1])]
    dtype = np.int64 if (limit + 1) * powers[-1] <= 2**63 else object
    keys = loads.astype(dtype) @ np.array(powers, dtype=dtype)
    return loads[np.unique(keys, return_index=True)[1]]


def _eft_worst_scaled(times: list[int], n: int, limit: int, weights: tuple[int, ...], budget: int) -> int | None:
    """Largest scaled EFT makespan over every order of every kept sequence; None when none is kept.

    A forward sweep over the distinct EFT load vectors of kept prefixes: each
    step extends every vector by every job time that still leaves room for
    the remaining jobs at t_min under the limit.  Refused once the distinct
    vectors, summed over steps, or the extensions of one step exceed budget;
    the second check comes before the extensions are allocated.
    """
    t_min = min(times)
    loads = np.zeros((1, len(weights)), dtype=np.int64)
    weights = _weight_array(weights, limit)
    swept = 0
    for step in range(1, n + 1):
        room = limit - (n - step) * t_min
        totals = loads.sum(axis=1)
        extend = [(t, totals + t <= room) for t in sorted(set(times))]
        if sum(int(mask.sum()) for _, mask in extend) > budget:
            raise ResourceError(f"EFT order sweep would extend more than {budget} load vectors at job {step} of {n}")
        parts = []
        for t, mask in extend:
            part = loads[mask]
            _eft_step(part, t, weights)
            parts.append(part)
        loads = _distinct_rows(np.concatenate(parts), limit)
        swept += len(loads)
        if swept > budget:
            raise ResourceError(f"EFT order sweep kept more than {budget} load vectors by job {step} of {n}")
        if not len(loads):
            return None
    return int((loads * weights).max())


def cost_exact(
    scheduler: Scheduler,
    discard: ThresholdDiscardSet,
    problem: SchedulingProblem,
    budget: int = 2_000_000,
) -> Fraction:
    """Largest makespan the scheduler produces over the kept sequences.

    Every scheduler is refused (ResourceError) when multisets * n exceeds
    budget.  BruteForce and LPT do not depend on job order, so they walk the
    kept job count vectors: the brute-force optimum of each, and for LPT one
    batch EFT pass over all of them laid out longest-first.  EFT does depend
    on order, so its cost is the worst over every order of every kept
    sequence, found by sweeping the distinct EFT load vectors of kept
    prefixes; it is also refused once the vectors kept, summed over steps,
    or the extensions of one step exceed budget.
    """
    n = discard.n
    symbols = problem.alphabet.symbols
    k = len(symbols)
    n_multisets = math.comb(n + k - 1, k - 1)
    if n_multisets * n > budget:
        raise ResourceError(
            f"cost enumeration needs ~{n_multisets * n} work units (budget {budget})"
        )
    limit = math.floor(discard.keep_threshold(problem))
    times = [problem.alphabet.time_of(sym) for sym in symbols]
    weights, scale = scaled_inverse_speeds(problem.machines)
    best: Fraction | None = None
    if isinstance(scheduler, EarliestFinishTime):
        scaled = _eft_worst_scaled(times, n, limit, weights, budget)
        best = None if scaled is None else Fraction(scaled, scale)
    else:
        kept = [c for c in _count_vectors(n, k) if sum(ci * t for ci, t in zip(c, times)) <= limit]
        if isinstance(scheduler, BruteForce):
            for counts in kept:
                seq = JobSequence(tuple(sym for sym, c in zip(symbols, counts) for _ in range(c)))
                opt = brute_force_optimal(seq, problem, budget=scheduler.budget)[1]
                best = opt if best is None or opt > best else best
        elif not isinstance(scheduler, LPT):
            raise DomainError(f"unknown scheduler {scheduler!r}")
        elif kept:
            rank = sorted(range(k), key=lambda j: (-times[j], j))
            counts = np.array(kept, dtype=np.int64)[:, rank]
            rows = np.repeat(np.tile(np.array(times)[rank], len(kept)), counts.ravel()).reshape(len(kept), n)
            scaled, _ = batch_eft_makespans_scaled(rows, problem.machines)
            best = Fraction(int(scaled.max()), scale)
    if best is None:
        raise DomainError(
            f"discard set keeps no sequences (alpha={discard.alpha} drops every length-{n} stream)"
        )
    return best


def max_kept_total_time(discard: ThresholdDiscardSet, problem: SchedulingProblem) -> int:
    """Largest attainable total time among kept sequences, via reachability DP."""
    n = discard.n
    threshold = math.floor(discard.keep_threshold(problem))
    tvals = sorted(set(problem.alphabet.proc_time.values()))
    t_min, t_max = tvals[0], tvals[-1]
    span = t_max - t_min
    reach = np.zeros(span + 1, dtype=bool)
    for t in tvals:
        reach[t - t_min] = True
    for step in range(1, n):
        new = np.zeros(step * span + span + 1, dtype=bool)
        width = step * span + 1
        for t in tvals:
            off = t - t_min
            new[off : off + width] |= reach
        reach = new
    offset = n * t_min
    kept = np.nonzero(reach)[0] + offset
    kept = kept[kept <= threshold]
    if kept.size == 0:
        raise DomainError(
            f"discard set keeps no sequences (alpha={discard.alpha} drops every length-{n} stream)"
        )
    return int(kept.max())


def discard_probability(
    discard: ThresholdDiscardSet, process: JobProcess, problem: SchedulingProblem
) -> float:
    """Probability that a random length-n sequence is discarded."""
    dist = sum_distribution(process, problem.alphabet, discard.n)
    return dist.prob_above(discard.keep_threshold(problem))
