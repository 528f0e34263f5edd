"""Independent reference implementations used to validate the fast paths.

Everything here is deliberately naive: full enumeration with exact rational
arithmetic, and quadrature-based normal quantiles.  No pruning and no closed
forms shared with the library code.  Some routines are earlier versions of
the package's own code, kept as references for the kernels that replaced
them at sizes enumeration cannot reach: the per-step sum-law DP, in floats
and in exact integers, the right-to-left binary powering of the IID law,
the one-job-at-a-time EFT and LPT loops, the per-step exact Markov mean,
the sampler with one block per process kind, and one `SeedSequence` per
trial stream.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from stochsched import (
    DomainError,
    IIDModel,
    MarkovModel,
    MixtureModel,
    SchedulingProblem,
    ThresholdDiscardSet,
    flatten_mixture,
    scaled_inverse_speeds,
)


def loads_of(machine_of: tuple[int, ...], items: tuple[str, ...], problem: SchedulingProblem) -> list[int]:
    """Total processing units that the assignment machine_of places on each machine."""
    loads = [0] * problem.machines.m
    for sym, k in zip(items, machine_of, strict=True):
        loads[k] += problem.alphabet.time_of(sym)
    return loads


def makespan_of(machine_of: tuple[int, ...], items: tuple[str, ...], problem: SchedulingProblem) -> Fraction:
    """Exact makespan of an assignment: the largest machine finish time."""
    return max(Fraction(u) / v for u, v in zip(loads_of(machine_of, items, problem), problem.machines.speeds))


def best_makespan_by_enumeration(items: tuple[str, ...], problem: SchedulingProblem) -> Fraction:
    """Exact optimal makespan over all m^n assignments, no pruning."""
    choices = itertools.product(range(problem.machines.m), repeat=len(items))
    return min(makespan_of(choice, items, problem) for choice in choices)


def sequence_probability(process, items: tuple[str, ...]) -> Fraction:
    """Exact probability of one symbol tuple under any process."""
    if isinstance(process, IIDModel):
        p = Fraction(1)
        for sym in items:
            p *= process.probs[sym]
        return p
    if isinstance(process, MarkovModel):
        index = {s: i for i, s in enumerate(process.symbols)}
        p = process.initial[index[items[0]]]
        for prev, cur in zip(items, items[1:]):
            p *= process.transition[index[prev]][index[cur]]
        return p
    if isinstance(process, MixtureModel):
        return sum(
            (w * sequence_probability(sub, items) for w, sub in process.components), Fraction(0)
        )
    raise TypeError(type(process))


def sum_law_by_enumeration(process, alphabet, n: int) -> dict[int, Fraction]:
    """Exact law of the total time by enumerating all |J|^n sequences."""
    law: dict[int, Fraction] = {}
    for items in itertools.product(process.symbols, repeat=n):
        total = sum(alphabet.time_of(sym) for sym in items)
        law[total] = law.get(total, Fraction(0)) + sequence_probability(process, items)
    return {s: p for s, p in law.items() if p > 0}


def sum_law_by_direct_dp(process, alphabet, n: int) -> dict[int, float]:
    """Float law of the total time by the per-step DP the package first shipped.

    Markov: the state-resolved law of the running total, advanced one job at
    a time with one slice update per (source, destination) pair.  IID runs
    as the Markov chain whose rows all equal the IID law.  Mixtures merge
    the component dicts with their weights.  Totals of zero mass are left out.
    """
    if isinstance(process, MixtureModel):
        mass: dict[int, float] = {}
        for w, sub in process.components:
            for s, p in sum_law_by_direct_dp(sub, alphabet, n).items():
                mass[s] = mass.get(s, 0.0) + float(w) * p
        return {s: p for s, p in mass.items() if p > 0.0}
    if isinstance(process, IIDModel):
        initial = [float(p) for p in process.probs.values()]
        trans = np.array([initial] * len(initial))
    else:
        initial = [float(p) for p in process.initial]
        trans = np.array([[float(p) for p in row] for row in process.transition])
    times = [alphabet.time_of(sym) for sym in process.symbols]
    t_min, span = min(times), max(times) - min(times)
    k = len(times)
    cur = np.zeros((k, span + 1))
    for j in range(k):
        cur[j, times[j] - t_min] = initial[j]
    for step in range(1, n):
        new = np.zeros((k, step * span + span + 1))
        width = step * span + 1
        for j in range(k):
            col = cur[j]
            if not col.any():
                continue
            for kk in range(k):
                p = trans[j, kk]
                if p:
                    off = times[kk] - t_min
                    new[kk, off : off + width] += col * p
        cur = new
    arr = cur.sum(axis=0)
    return {n * t_min + int(i): float(arr[i]) for i in np.nonzero(arr > 0.0)[0]}


def sum_law_exact(process, alphabet, n: int) -> dict[int, Fraction]:
    """Exact law of the total time by the per-step DP of `sum_law_by_direct_dp`, in rationals.

    Every probability is an integer over one common denominator d, so after
    `step` jobs the state-resolved law is integers over d**step, held as
    Python ints in object arrays.  IID runs as the chain whose rows all
    equal the IID law.  Totals of zero mass are left out.
    """
    if isinstance(process, IIDModel):
        initial = list(process.probs.values())
        rows = [initial] * len(initial)
    else:
        initial, rows = list(process.initial), [list(row) for row in process.transition]
    d = math.lcm(*(p.denominator for p in [*initial, *itertools.chain(*rows)]))
    times = [alphabet.time_of(sym) for sym in process.symbols]
    t_min = min(times)
    shifts = [t - t_min for t in times]
    cur = np.zeros((len(times), n * max(shifts) + 1), dtype=object)
    for j, shift in enumerate(shifts):
        cur[j, shift] = int(initial[j] * d)
    for step in range(1, n):
        width = step * max(shifts) + 1
        nxt = np.zeros_like(cur)
        for i, shift in enumerate(shifts):
            for j, row in enumerate(rows):
                if row[i]:
                    nxt[i, shift : shift + width] += int(row[i] * d) * cur[j, :width]
        cur = nxt
    den = d**n
    return {n * t_min + s: Fraction(int(m), den) for s, m in enumerate(cur.sum(axis=0)) if m}


def pow_convolve(base: np.ndarray, n: int) -> np.ndarray:
    """n-fold self-convolution of `base` by right-to-left binary powering: the package's former IID kernel."""
    result = np.array([1.0])
    while n:
        if n & 1:
            result = np.convolve(result, base)
        n >>= 1
        if n:
            base = np.convolve(base, base)
    return result


class TailsFromMass:
    """Tails and upper quantiles of a {total: prob} law by sequential sums.

    above[s] = P(T > s) summed from the top of the support down, below[s] =
    P(T < s) summed from the bottom up: the order the package's queries add in.
    """

    def __init__(self, mass: dict[int, float]):
        self.support = sorted(mass)
        self.above: dict[int, float] = {}
        self.below: dict[int, float] = {}
        acc = 0.0
        for s in reversed(self.support):
            self.above[s] = acc
            acc += mass[s]
        acc = 0.0
        for s in self.support:
            self.below[s] = acc
            acc += mass[s]

    def upper_quantile_total(self, epsilon: float) -> int:
        return next(s for s in self.support if self.above[s] <= epsilon)


def discard_probability_by_enumeration(
    discard: ThresholdDiscardSet, process, problem: SchedulingProblem
) -> Fraction:
    threshold = discard.keep_threshold(problem)
    total = Fraction(0)
    for items in itertools.product(process.symbols, repeat=discard.n):
        if sum(problem.alphabet.time_of(sym) for sym in items) > threshold:
            total += sequence_probability(process, items)
    return total


def optimal_cost_by_enumeration(
    discard: ThresholdDiscardSet, problem: SchedulingProblem
) -> Fraction:
    """Max over kept raw sequences of the enumerated optimal makespan."""
    threshold = discard.keep_threshold(problem)
    best = None
    for items in itertools.product(problem.alphabet.symbols, repeat=discard.n):
        if sum(problem.alphabet.time_of(sym) for sym in items) > threshold:
            continue
        span = best_makespan_by_enumeration(items, problem)
        if best is None or span > best:
            best = span
    if best is None:
        raise ValueError("empty kept set")
    return best


def count_vectors(n: int, k: int):
    """Every count vector of n jobs over k symbols, in lexicographic order."""
    if k == 1:
        yield (n,)
        return
    for c in range(n + 1):
        for rest in count_vectors(n - c, k - 1):
            yield (c,) + rest


def max_kept_total_time_by_steps(discard: ThresholdDiscardSet, problem: SchedulingProblem) -> int:
    """Largest kept total time from a boolean array of reachable totals, grown one job at a time."""
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
    kept = np.nonzero(reach)[0] + n * t_min
    kept = kept[kept <= threshold]
    if kept.size == 0:
        raise DomainError("discard set keeps no sequences")
    return int(kept.max())


def eft_by_loop(items: tuple[str, ...], problem: SchedulingProblem) -> tuple[int, ...]:
    """Each job, in order, onto the machine where it finishes first; ties to the lowest index."""
    weights, _ = scaled_inverse_speeds(problem.machines)
    m = problem.machines.m
    loads = [0] * m
    out = []
    for sym in items:
        t = problem.alphabet.time_of(sym)
        k = min(range(m), key=lambda i: (loads[i] + t) * weights[i])
        out.append(k)
        loads[k] += t
    return tuple(out)


def lpt_by_loop(items: tuple[str, ...], problem: SchedulingProblem) -> tuple[int, ...]:
    """EFT over the jobs reordered longest-first; time ties break by alphabet order, then position."""
    alpha_index = {sym: i for i, sym in enumerate(problem.alphabet.symbols)}
    times = [problem.alphabet.time_of(sym) for sym in items]
    order = sorted(range(len(items)), key=lambda i: (-times[i], alpha_index[items[i]]))
    weights, _ = scaled_inverse_speeds(problem.machines)
    m = problem.machines.m
    loads = [0] * m
    out = [0] * len(items)
    for pos in order:
        t = times[pos]
        k = min(range(m), key=lambda i: (loads[i] + t) * weights[i])
        out[pos] = k
        loads[k] += t
    return tuple(out)


def eft_worst_cost_by_enumeration(discard: ThresholdDiscardSet, problem: SchedulingProblem) -> Fraction:
    """Max over all k^n kept raw sequences of the EFT makespan, every order scheduled."""
    threshold = discard.keep_threshold(problem)
    best = None
    for items in itertools.product(problem.alphabet.symbols, repeat=discard.n):
        if sum(problem.alphabet.time_of(sym) for sym in items) > threshold:
            continue
        span = makespan_of(eft_by_loop(items, problem), items, problem)
        if best is None or span > best:
            best = span
    if best is None:
        raise ValueError("empty kept set")
    return best


def mean_total_time_by_steps(process, alphabet, n: int) -> Fraction:
    """Exact E[T_n] of a Markov chain by advancing the rational marginal one job at a time."""
    times = [Fraction(alphabet.time_of(sym)) for sym in process.symbols]
    marg = list(process.initial)
    total = sum((p * t for p, t in zip(marg, times)), Fraction(0))
    for _ in range(n - 1):
        marg = [
            sum((marg[j] * process.transition[j][i] for j in range(len(marg))), Fraction(0))
            for i in range(len(marg))
        ]
        total += sum((p * t for p, t in zip(marg, times)), Fraction(0))
    return total


def _pick(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)


def _cumulative(probs) -> np.ndarray:
    return np.cumsum(np.array([float(p) for p in probs]))


def _sample_iid_block(model: IIDModel, u: np.ndarray, canon_index: dict[str, int]) -> np.ndarray:
    remap = np.array([canon_index[s] for s in model.symbols])
    return remap[_pick(_cumulative(model.probs.values()), u)]


def _sample_markov_block(model: MarkovModel, u: np.ndarray, canon_index: dict[str, int]) -> np.ndarray:
    rows, n = u.shape
    cum_init = _cumulative(model.initial)
    cum_rows = [_cumulative(r) for r in model.transition]
    remap = np.array([canon_index[s] for s in model.symbols])
    out = np.empty((rows, n), dtype=np.int64)
    states = _pick(cum_init, u[:, 0])
    out[:, 0] = states
    for i in range(1, n):
        nxt = np.empty(rows, dtype=np.int64)
        for j in range(len(model.symbols)):
            mask = states == j
            if mask.any():
                nxt[mask] = _pick(cum_rows[j], u[mask, i])
        states = nxt
        out[:, i] = states
    return remap[out]


def rng_stream(master_seed: int, trial: int) -> np.random.Generator:
    """Counter-style stream: (master_seed, trial) fully determines the draws.

    The stream is PCG64 seeded by numpy's own SeedSequence((master_seed mod
    2^64, 0, trial)), built anew for each trial.
    """
    key = (int(master_seed) & (2**64 - 1), 0, int(trial))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def sample_index_matrix_by_kind(process, n: int, trials: int, master_seed: int):
    """The sampler with one block per process kind: a searchsorted per IID
    block, a per-state mask loop per Markov step, and a mixture that spends
    the first uniform of each trial's stream on its flattened component.
    Draws come from `rng_stream`, looked up at call time.
    """
    symbols = process.symbols
    canon_index = {s: i for i, s in enumerate(symbols)}
    is_mixture = isinstance(process, MixtureModel)
    cols = n + 1 if is_mixture else n
    u = np.empty((trials, cols), dtype=np.float64)
    for t in range(trials):
        u[t] = rng_stream(master_seed, t).random(cols)
    if not is_mixture:
        block = _sample_iid_block if isinstance(process, IIDModel) else _sample_markov_block
        return block(process, u, canon_index), symbols
    flat = flatten_mixture(process)
    comp = _pick(_cumulative([w for w, _ in flat]), u[:, 0])
    body = u[:, 1:]
    out = np.empty((trials, n), dtype=np.int64)
    for c, (_, sub) in enumerate(flat):
        mask = comp == c
        if not mask.any():
            continue
        block = _sample_iid_block if isinstance(sub, IIDModel) else _sample_markov_block
        out[mask] = block(sub, body[mask], canon_index)
    return out, symbols


def _normal_density(t: float) -> float:
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def _normal_cdf_by_quadrature(x: float) -> float:
    integral, _ = quad(_normal_density, 0.0, x)
    return 0.5 + integral


def normal_upper_tail_by_quadrature(z: float) -> float:
    """P(Z > z) integrated directly over [z, z + 40], so deep tails keep their relative precision."""
    integral, _ = quad(_normal_density, z, z + 40.0, epsabs=0.0, epsrel=1e-13)
    return integral


def normal_quantile_by_bisection(p: float) -> float:
    """Inverse normal CDF via bisection against a quadrature CDF."""
    lo, hi = -12.0, 12.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _normal_cdf_by_quadrature(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
