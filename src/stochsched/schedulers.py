"""Schedulers and discard-set cost evaluation.

Three scheduling strategies share one dispatch surface:

* BruteForce      exact optimum by pruned depth-first search,
* EarliestFinishTime  list scheduling onto the machine that finishes first,
* LPT             longest-processing-time ordering followed by EFT.

A ThresholdDiscardSet drops every length-n sequence whose normalized total
time exceeds alpha; COST of a scheduler against a discard set is the largest
makespan over the kept sequences.  Keeping or dropping a sequence depends
only on its job multiset, and so does the brute-force optimal makespan, so
the exact COST enumeration walks job count vectors instead of raw sequences.
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
    makespan,
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


def eft_list_schedule(seq: JobSequence, problem: SchedulingProblem) -> Assignment:
    """Assign each job, in order, to the machine where it would finish first.

    Ties go to the lowest machine index.  The resulting makespan never
    exceeds span_upper_bound(seq, problem).
    """
    weights, _ = scaled_inverse_speeds(problem.machines)
    m = problem.machines.m
    loads = [0] * m
    out = []
    for sym in seq.items:
        t = problem.alphabet.time_of(sym)
        k = min(range(m), key=lambda i: (loads[i] + t) * weights[i])
        out.append(k)
        loads[k] += t
    return Assignment(tuple(out))


def lpt_schedule(seq: JobSequence, problem: SchedulingProblem) -> Assignment:
    """EFT over jobs reordered longest-first; time ties break by alphabet order."""
    alpha_index = {sym: i for i, sym in enumerate(problem.alphabet.symbols)}
    times = [problem.alphabet.time_of(sym) for sym in seq.items]
    order = sorted(range(seq.n), key=lambda i: (-times[i], alpha_index[seq.items[i]]))
    weights, _ = scaled_inverse_speeds(problem.machines)
    m = problem.machines.m
    loads = [0] * m
    out = [0] * seq.n
    for pos in order:
        t = times[pos]
        k = min(range(m), key=lambda i: (loads[i] + t) * weights[i])
        out[pos] = k
        loads[k] += t
    return Assignment(tuple(out))


def schedule(scheduler: Scheduler, seq: JobSequence, problem: SchedulingProblem) -> Assignment:
    """Run one scheduling strategy on a sequence."""
    if isinstance(scheduler, BruteForce):
        return brute_force_optimal(seq, problem, budget=scheduler.budget)[0]
    if isinstance(scheduler, EarliestFinishTime):
        return eft_list_schedule(seq, problem)
    if isinstance(scheduler, LPT):
        return lpt_schedule(seq, problem)
    raise DomainError(f"unknown scheduler {scheduler!r}")


def batch_eft_loads(times: np.ndarray, machines) -> np.ndarray:
    """Vectorized EFT over many integer job rows; returns int64 loads (rows, m).

    Identical decisions to eft_list_schedule (scaled-integer finish times,
    ties to the lowest machine index), vectorized across rows.  Falls back
    to float finish-time comparisons only if the scaled integers could
    overflow int64.
    """
    times = np.asarray(times, dtype=np.int64)
    rows, n = times.shape
    weights, _ = scaled_inverse_speeds(machines)
    m = machines.m
    loads = np.zeros((rows, m), dtype=np.int64)
    row_idx = np.arange(rows)
    w = np.array(weights, dtype=np.float64)
    exact = (int(times.sum(axis=1).max(initial=0)) + 1) * max(weights) < 2**62
    if exact:
        w = np.array(weights, dtype=np.int64)
    inv_v = np.array([1.0 / float(v) for v in machines.speeds])
    for i in range(n):
        t = times[:, i]
        if exact:
            finish = (loads + t[:, None]) * w[None, :]
        else:
            finish = (loads + t[:, None]) * inv_v[None, :]
        k = np.argmin(finish, axis=1)
        loads[row_idx, k] += t
    return loads


def batch_eft_makespans_scaled(times: np.ndarray, machines) -> tuple[np.ndarray, int]:
    """Vectorized EFT makespans as (scaled int64 array, scale): makespan = scaled/scale."""
    weights, scale = scaled_inverse_speeds(machines)
    loads = batch_eft_loads(times, machines)
    return (loads * np.array(weights, dtype=np.int64)).max(axis=1), scale


def _count_vectors(n: int, k: int) -> Iterator[tuple[int, ...]]:
    if k == 1:
        yield (n,)
        return
    for c in range(n + 1):
        for rest in _count_vectors(n - c, k - 1):
            yield (c,) + rest


def cost_exact(
    scheduler: Scheduler,
    discard: ThresholdDiscardSet,
    problem: SchedulingProblem,
    budget: int = 2_000_000,
) -> Fraction:
    """Largest makespan the scheduler produces over the kept sequences.

    Enumerates job count vectors (the kept/dropped decision and the
    brute-force optimum are invariant under permuting the sequence) and
    schedules one canonical alphabet-ordered sequence per multiset.  For
    order-sensitive schedulers (EFT, LPT) the canonical sequence defines
    the evaluated cost.  Work is bounded by budget ~ multisets * n.
    """
    n = discard.n
    symbols = problem.alphabet.symbols
    k = len(symbols)
    n_multisets = math.comb(n + k - 1, k - 1)
    if n_multisets * n > budget:
        raise ResourceError(
            f"cost enumeration needs ~{n_multisets * n} work units (budget {budget})"
        )
    threshold = discard.keep_threshold(problem)
    times = [problem.alphabet.time_of(sym) for sym in symbols]
    best: Fraction | None = None
    for counts in _count_vectors(n, k):
        total = sum(c * t for c, t in zip(counts, times))
        if total > threshold:
            continue
        seq = JobSequence(tuple(sym for sym, c in zip(symbols, counts) for _ in range(c)))
        sp = makespan(schedule(scheduler, seq, problem), seq, problem)
        if best is None or sp > best:
            best = sp
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
