"""Schedulers and discard-set cost evaluation.

A scheduler is one of the names in `SCHEDULERS`, and two routes dispatch on
it, `makespans_scaled` and `cost_exact`, each refusing any other value first:

* "eft"          list scheduling onto the machine that finishes first,
* "lpt"          EFT over the jobs reordered longest-first,
* "brute-force"  exact optimum: `_optimal_scaled`, one dynamic programme
                 over machines on the sub-multisets of a job multiset's
                 count vector, its last machine one vector operation.

EFT and LPT run on one kernel, `_eft_step`, over keyed finish times: one
exact integer key per machine and row, key_i = load_i * w_i * m + i, the
scaled load with the machine index as its low digit, held as (m, rows).  A
step is a few branch-free vector operations of length rows per machine.
EFT's COST runs it on every reachable EFT load vector, held as keys from
step to step.  `makespans_scaled` is the one route from many job rows to
makespans under every scheduler, for the average case and for the COST of
LPT and the optimum; job-major rows, as the sampler returns them and as LPT
sorts them, give each step one contiguous job column.

Every array of job times, loads, finish times or keys takes its dtype from
`core._int_dtype` and a bound on its entries: int64 below 2**62, Python ints
in an object array above, so no route wraps and every makespan is exact.
A key is at most ((max_total + 1) * max(w) + 1) * m: the finish-time bound
times the factor m of its machine digit.

A ThresholdDiscardSet drops every length-n sequence whose normalized total
time exceeds alpha; COST of a scheduler against a discard set is the largest
makespan over the kept sequences.  Keeping or dropping a sequence depends
only on its job multiset, and so do the brute-force optimum and the LPT
makespan, so their COST walks job count vectors.  The optimum never falls
when a job is lengthened, so its COST is attained on the maximal kept count
vectors, those where no job can move to the next longer type and stay kept.
List schedules can fall when a job is lengthened (Graham's timing
anomalies), so LPT walks every kept count vector.  The EFT makespan depends
on job order, so its COST walks every order of every kept sequence.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import SchedulingProblem, _int_dtype, _positive_int, as_fraction, scaled_inverse_speeds
from .errors import DomainError, ResourceError
from .stochastic import _refuse_bytes, sum_distribution

_WORK_BUDGET = 2_000_000  # cost_exact's default budget of multisets * n work units
_BRUTE_FORCE_BUDGET = 10_000_000  # brute force is refused when m^n exceeds this

SCHEDULERS = ("eft", "lpt", "brute-force")


def _check_scheduler(scheduler) -> None:
    if scheduler not in SCHEDULERS:
        raise DomainError(f"unknown scheduler {scheduler!r}")


@dataclass(frozen=True)
class ThresholdDiscardSet:
    """Discard rule: drop length-n sequences with total time > n * v_sum * alpha."""

    n: int
    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "n", _positive_int(self.n, "discard-set length"))
        alpha = as_fraction(self.alpha)
        if alpha < 0:
            raise DomainError(f"threshold rate must be non-negative, got {alpha}")
        object.__setattr__(self, "alpha", alpha)

    def keep_threshold(self, problem: SchedulingProblem) -> Fraction:
        """Largest total time a kept sequence may have."""
        return self.n * problem.machines.v_sum * self.alpha


def _key_weights(weights: tuple[int, ...], max_total: int) -> np.ndarray:
    """The column m*w_i, in the dtype of keys of loads up to max_total: ((max_total+1)*max(w)+1)*m bounds them."""
    m = len(weights)
    return np.array([m * w for w in weights], dtype=_int_dtype(((max_total + 1) * max(weights) + 1) * m))[:, None]


def _eft_step(keys: np.ndarray, t, wm: np.ndarray) -> None:
    """Place one job per column of keys (t: one time per column, or one for all) where it finishes first.

    keys (m, rows) holds key_i = load_i * w_i * m + i, and wm is the column
    m * w_i.  The candidates key_i + wm_i * t are scaled finish times with
    the machine index as low digit, all distinct, so the least is the
    earliest finish on the lowest machine, and that machine alone takes its
    candidate: max(keys, cand * (cand == least)), with no choice array,
    masked assignment or scatter-add.  In place, in the keys' dtype.
    """
    cand = wm * t + keys
    cand *= cand == np.minimum.reduce(cand, axis=0)
    np.maximum(keys, cand, out=keys)


# grids of the sub-multiset lattice that `_optimal_scaled` holds at once: the
# loads, the previous and the next table, a machine's finish times and one temporary
_PREFIX_GRIDS = 5


def _optimal_scaled(counts, times, weights: tuple[int, ...]) -> int:
    """Optimal scaled makespan of counts[j] jobs of time times[j] on machines with scaled inverse speeds weights.

    A dynamic programme over machines on the grid of sub-multisets a <=
    counts, whose total times are load[a].  f[a] is the least scaled
    makespan of placing a on the machines so far: the first machine takes
    load[a]*w; each middle machine takes min over b <= a of max(f[a-b],
    load[b]*w), one slice operation per b, and only the latest table is
    kept; the last machine takes the rest, so the optimum is the least
    max(f[a], load[counts-a]*w) over a, one vector operation.  The loads and
    weights take the dtype of every finish time, and the programme is
    refused before allocating when its `_PREFIX_GRIDS` grids exceed the
    byte budget.
    """
    present = [(int(c), int(t)) for c, t in zip(counts, times) if c]
    max_total = sum(c * t for c, t in present)
    if len(weights) == 1:
        return max_total * weights[0]
    largest = (max_total + 1) * max(weights)
    grid = math.prod(c + 1 for c, _ in present)
    _refuse_bytes(_PREFIX_GRIDS * grid, "brute force's count-vector programme", largest)
    w = np.array(weights, dtype=_int_dtype(largest))
    load = np.zeros([c + 1 for c, _ in present], dtype=w.dtype)
    for along_axis in np.ix_(*(np.arange(c + 1, dtype=w.dtype) * t for c, t in present)):
        load = load + along_axis
    f = load * w[0]
    for wi in w[1:-1]:
        machine = load * wi
        g = f.copy()  # b = 0: the machine stays empty
        for b in itertools.islice(np.ndindex(*load.shape), 1, None):
            upper = g[tuple(slice(x, None) for x in b)]
            np.minimum(upper, np.maximum(f[tuple(slice(s - x) for s, x in zip(load.shape, b))], machine[b]), out=upper)
        f = g
    return int(np.maximum(f, load[(slice(None, None, -1),) * load.ndim] * w[-1]).min())


def batch_eft_loads(times: np.ndarray, machines) -> np.ndarray:
    """EFT over many integer job rows (rows, n) at once, one kernel step per job; loads (rows, m) in the keys' dtype.

    The keys are an (m, rows) array, each machine's contiguous, and each
    step reads one job column of `times`: contiguous when `times` is
    job-major, as the sampler's (n, trials) arrays viewed as (trials, n)
    are.  A step costs a few vector operations of length rows per machine.
    Every row total is bounded by n * t_max, so no row sum is taken.  The
    loads are decoded once, at the end, as keys // (m * w_i), and returned
    as the transpose view of that (m, rows) array.
    """
    times = np.asarray(times)
    weights = scaled_inverse_speeds(machines)[0]
    wm = _key_weights(weights, int(times.max(initial=0)) * times.shape[1])
    keys = np.repeat(np.arange(machines.m)[:, None], len(times), axis=1).astype(wm.dtype)
    for column in times.astype(wm.dtype, copy=False).T:  # an object row of small times, too
        _eft_step(keys, column, wm)
    return (keys // wm).T


def makespans_scaled(scheduler: str, times, machines) -> tuple:
    """Makespans of integer job rows (rows, n) under one scheduler as (scaled, scale): makespan = scaled/scale.

    EFT takes each row in order and LPT longest first, in one batch EFT pass
    whose makespans keep its loads' dtype.  Brute force solves each distinct
    count vector of job times once, its Python ints in an object array; it
    is refused when m^n exceeds `_BRUTE_FORCE_BUDGET`, and its tables beyond
    the byte budget before they are allocated.
    """
    _check_scheduler(scheduler)
    weights, scale = scaled_inverse_speeds(machines)
    times = np.asarray(times)
    if scheduler == "brute-force":
        m, n = machines.m, times.shape[1]
        if m > 1 and m**n > _BRUTE_FORCE_BUDGET:
            raise ResourceError(
                f"brute force would enumerate {m}^{n} assignments (budget {_BRUTE_FORCE_BUDGET}); "
                "use eft or lpt instead"
            )
        tvals = np.unique(times).tolist()
        counts = [tuple(c) for c in np.stack([(times == t).sum(axis=1) for t in tvals], axis=1).tolist()]
        optimum = {c: _optimal_scaled(c, tvals, weights) for c in dict.fromkeys(counts)}
        return np.array([optimum[c] for c in counts], dtype=object), scale
    if scheduler == "lpt":
        times = np.sort(times.T, axis=0)[::-1].T  # longest first, sorted job-major
    loads = batch_eft_loads(times, machines)
    return (loads * np.array(weights, dtype=loads.dtype)).max(axis=1), scale


def _kept_count_vectors(times: list[int], n: int, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Every job count vector (one column per symbol, n jobs) whose total time is at most limit, with its total.

    Rows come in lexicographic order.  The vectors are built one column at a
    time, and a partial vector survives only while its remaining jobs fit
    under the limit at the shortest time still to come, so every partial
    vector extends to a kept one.
    """
    dtype = _int_dtype(n * max(times))
    counts = np.zeros((1, 0), dtype=np.int64)
    totals = np.zeros(1, dtype=dtype)
    for j, t in enumerate(times):
        left = n - counts.sum(axis=1)
        if j == len(times) - 1:
            rows, c = np.arange(len(counts)), left
        else:
            rows = np.repeat(np.arange(len(counts)), left + 1)
            c = np.arange(len(rows)) - np.repeat(np.cumsum(left + 1) - (left + 1), left + 1)
        grown = totals[rows] + c.astype(dtype) * t
        fit = grown + (left[rows] - c).astype(dtype) * min(times[j + 1 :], default=0) <= limit
        counts = np.column_stack([counts[rows[fit]], c[fit]])
        totals = grown[fit]
    return counts, totals


def _maximal(counts: np.ndarray, totals: np.ndarray, times: list[int], limit: int) -> np.ndarray:
    """The kept count vectors where no job can move to the next longer type and stay kept.

    Types are ordered by time, then index, so a job of a type with equal
    times always moves, and only the last type of each time keeps jobs.
    """
    order = sorted(range(len(times)), key=lambda j: (times[j], j))
    maximal = np.ones(len(counts), dtype=bool)
    for j, longer in zip(order, order[1:]):
        maximal &= (counts[:, j] == 0) | (totals + (times[longer] - times[j]) > limit)
    return counts[maximal]


def _eft_worst_scaled(times: list[int], n: int, limit: int, weights: tuple[int, ...], budget: int) -> int:
    """Largest scaled EFT makespan over every order of every kept sequence, for a `_kept_limit` limit.

    A forward sweep over the distinct EFT load vectors of kept prefixes,
    held as columns of their `_eft_step` keys and their total: each step
    extends every vector by every job time that still leaves room for the
    remaining jobs at t_min under the limit.  Refused once the distinct
    vectors, summed over steps, or the extensions of one step exceed budget,
    or once one step's arrays would exceed the byte budget; the last two
    checks come before the extensions are allocated.
    """
    t_min = min(times)
    m = len(weights)
    wm = _key_weights(weights, limit)
    # the others fit no kept sequence
    times = np.array(sorted(t for t in set(times) if t <= limit - (n - 1) * t_min), dtype=wm.dtype)
    # sum_i key_i * lcm(w)/w_i * (limit+1)^i is m*lcm(w) times the load vector read
    # base limit+1, plus a constant, so one product tells the vectors apart undecoded
    lcm = math.lcm(*weights)
    largest = 2 * m * lcm * (limit + 1) ** m  # bounds that product, and so every key too
    digits = np.array([lcm // w * (limit + 1) ** i for i, w in enumerate(weights)] + [0], dtype=_int_dtype(largest))
    state = np.array([*range(m), 0], dtype=wm.dtype)[:, None]  # one column per load vector: its m keys, then its total
    swept = 0
    for step in range(1, n + 1):
        fits = state[m] <= limit - (n - step) * t_min - times[:, None]  # fits[j, v]: time j extends vector v
        extensions = int(fits.sum())
        if extensions > budget:
            raise ResourceError(f"EFT order sweep would extend more than {budget} load vectors at job {step} of {n}")
        # the vectors; the extended ones with their job index, time, candidates and key product; the distinct ones
        _refuse_bytes((state.shape[1] + 4 * extensions) * (m + 1), f"EFT order sweep at job {step} of {n}", largest)
        job, vector = np.nonzero(fits)
        state, t = state[:, vector], times[job]
        _eft_step(state[:m], t, wm)
        state[m] += t
        state = state[:, np.unique(digits @ state.astype(digits.dtype, copy=False), return_index=True)[1]]
        swept += state.shape[1]
        if swept > budget:
            raise ResourceError(f"EFT order sweep kept more than {budget} load vectors by job {step} of {n}")
    return int(state[:m].max()) // m  # key_i // m is load_i * w_i


def _kept_limit(discard: ThresholdDiscardSet, problem: SchedulingProblem) -> int:
    """Largest total time of a kept sequence that any sequence reaches: min(floor(n*v_sum*alpha), n*t_max).

    Raises DomainError when the limit is below n*t_min: the all-shortest
    sequence is kept whenever any sequence is, so then none is.
    """
    n, alphabet = discard.n, problem.alphabet
    limit = min(math.floor(discard.keep_threshold(problem)), n * alphabet.t_max)
    if limit < n * alphabet.t_min:
        raise DomainError(
            f"discard set keeps no sequences (alpha={discard.alpha} drops every length-{n} stream)"
        )
    return limit


def cost_exact(
    scheduler: str,
    discard: ThresholdDiscardSet,
    problem: SchedulingProblem,
    budget: int = _WORK_BUDGET,
) -> Fraction:
    """Largest makespan the scheduler produces over the kept sequences.

    Refused (DomainError) for an unknown scheduler, then (ResourceError)
    when multisets * n exceeds budget, then (DomainError) when nothing is
    kept.  Brute force takes the maximal kept count vectors, as the optimum
    cannot fall when a job is lengthened, and LPT every kept vector, as
    rows of one `makespans_scaled` call.  EFT depends on job order, so it
    sweeps the distinct EFT load vectors of kept prefixes, refused once
    their sum over steps or one step's extensions exceed budget.  Every
    route refuses arrays beyond the byte budget before allocating them.
    """
    _check_scheduler(scheduler)
    n = discard.n
    symbols = problem.alphabet.symbols
    k = len(symbols)
    n_multisets = math.comb(n + k - 1, k - 1)
    if n_multisets * n > budget:
        raise ResourceError(
            f"cost enumeration needs ~{n_multisets * n} work units (budget {budget})"
        )
    limit = _kept_limit(discard, problem)
    times = [problem.alphabet.time_of(sym) for sym in symbols]
    weights, scale = scaled_inverse_speeds(problem.machines)
    if scheduler == "eft":
        return Fraction(_eft_worst_scaled(times, n, limit, weights, budget), scale)
    # the enumeration holds at most 3k + 4 entries per count vector
    _refuse_bytes((3 * k + 4) * n_multisets, "the enumeration of kept count vectors", n * max(times))
    kept, totals = _kept_count_vectors(times, n, limit)
    if scheduler == "brute-force":
        kept = _maximal(kept, totals, times, limit)
    # one row of n job times per kept vector, and LPT's copy of them sorted longest first
    copies = 2 if scheduler == "lpt" else 1
    _refuse_bytes(copies * len(kept) * n, "the layout of kept rows", max(times))
    tiled = np.tile(np.array(times, dtype=_int_dtype(max(times))), len(kept))
    rows = np.repeat(tiled, kept.ravel()).reshape(len(kept), n)
    scaled, _ = makespans_scaled(scheduler, rows, problem.machines)
    return Fraction(int(np.max(scaled)), scale)


def max_kept_total_time(discard: ThresholdDiscardSet, problem: SchedulingProblem) -> int:
    """Largest attainable total time among kept sequences, by a big-integer bitset sweep.

    Bit s of reach is set when some sequence of the jobs so far has total
    s + (jobs so far) * t_min; each job ORs in reach shifted by t - t_min for
    every time t, and the bits above `_kept_limit` are masked off at the end.
    An empty kept set is refused before the sweep.
    """
    n = discard.n
    limit = _kept_limit(discard, problem)
    tvals = sorted(set(problem.alphabet.proc_time.values()))
    t_min = tvals[0]
    reach = 1
    for _ in range(n):
        step = reach
        for t in tvals[1:]:
            step |= reach << (t - t_min)
        reach = step
    reach &= (1 << (limit - n * t_min + 1)) - 1
    return n * t_min + reach.bit_length() - 1


def discard_probability(discard: ThresholdDiscardSet, problem: SchedulingProblem) -> float:
    """Probability that a random length-n sequence of the problem's process is discarded."""
    dist = sum_distribution(problem.process, problem.alphabet, discard.n)
    return dist.prob_above(discard.keep_threshold(problem))
