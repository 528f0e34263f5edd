"""Job-stream models and the exact law of the total processing time.

Three model families over a common symbol set: i.i.d. draws, a Markov chain,
and a finite mixture (one component drawn per sequence, then held fixed).
`flatten_mixture` is the only code that knows what a mixture is: it resolves
any process, nested mixtures included, into weighted i.i.d./Markov leaves.
Each leaf type has one entry in `_LEAVES` (its sum-law kernel, the working
arrays that kernel holds, its sampler block and its exact E[T_n]), and
`sum_distribution`, `mean_total_time_exact` and `sample_index_matrix` are
each one loop over the weighted leaves.

Probabilities are stored as exact rationals so that closed-form quantities
(means, stationary vectors, spectral rates) come out exact; dynamic programs
and samplers work in binary floating point.  The law of T_n is
`SumDistribution(n, offset, masses)`, whose queries index the float masses by
exact integer totals, so tails and quantiles hold at any job time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .core import JobAlphabet, _int_dtype, as_fraction
from .errors import DomainError, NumericError, ResourceError

_PROB_TOL = Fraction(1, 10**12)
_MAX_BYTES = 1 << 30  # refuse sum laws and samples whose working arrays would exceed 1 GiB


def _normalised(values: Sequence[Fraction], what: str) -> tuple[Fraction, ...]:
    """Check a probability vector (sum within _PROB_TOL of 1), then rescale it to sum exactly 1."""
    for p in values:
        if p < 0:
            raise DomainError(f"{what} has a negative entry: {p}")
    total = sum(values, Fraction(0))
    if abs(total - 1) > _PROB_TOL:
        raise DomainError(f"{what} must sum to 1 (got {float(total)!r})")
    return tuple(values) if total == 1 else tuple(p / total for p in values)


@dataclass(frozen=True)
class IIDModel:
    """Independent, identically distributed job symbols."""

    probs: Mapping[str, Fraction]

    def __post_init__(self):
        if not self.probs:
            raise DomainError("IID model needs at least one symbol")
        probs = _normalised([as_fraction(p) for p in self.probs.values()], "IID probability vector")
        object.__setattr__(self, "probs", dict(zip(self.probs, probs)))

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(self.probs)


@dataclass(frozen=True)
class MarkovModel:
    """Markov chain over job symbols; requires irreducibility, not aperiodicity."""

    symbols: tuple[str, ...]
    transition: tuple[tuple[Fraction, ...], ...]
    initial: tuple[Fraction, ...]

    def __post_init__(self):
        symbols = tuple(self.symbols)
        if not symbols or len(set(symbols)) != len(symbols):
            raise DomainError("Markov symbols must be non-empty and distinct")
        k = len(symbols)
        rows = tuple(tuple(as_fraction(p) for p in row) for row in self.transition)
        if len(rows) != k or any(len(row) != k for row in rows):
            raise DomainError(f"transition matrix must be {k}x{k}")
        rows = tuple(_normalised(row, f"transition row for {symbols[i]!r}") for i, row in enumerate(rows))
        initial = tuple(as_fraction(p) for p in self.initial)
        if len(initial) != k:
            raise DomainError(f"initial distribution must have {k} entries")
        initial = _normalised(initial, "initial distribution")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "transition", rows)
        object.__setattr__(self, "initial", initial)
        if not _strongly_connected(rows):
            raise DomainError("Markov chain is reducible; spectral rates need an irreducible chain")

    @cached_property
    def _stationary(self) -> tuple[Fraction, ...]:
        return _solve_stationary(self)


def _strongly_connected(rows: Sequence[Sequence[Fraction]]) -> bool:
    k = len(rows)
    adj = [[j for j in range(k) if rows[i][j] > 0] for i in range(k)]
    radj = [[i for i in range(k) if rows[i][j] > 0] for j in range(k)]

    def reaches_all(start: int, edges) -> bool:
        seen = {start}
        stack = [start]
        while stack:
            for nxt in edges[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == k

    return reaches_all(0, adj) and reaches_all(0, radj)


@dataclass(frozen=True)
class MixtureModel:
    """Weighted mixture of job processes sharing one symbol set.

    A sequence is generated by drawing a component once, then sampling the
    whole sequence from it; the total-time law is the weighted combination
    of the component laws.
    """

    components: tuple[tuple[Fraction, "JobProcess"], ...]

    def __post_init__(self):
        comps = tuple((as_fraction(w), model) for w, model in self.components)
        if len(comps) < 2:
            raise DomainError("mixture needs at least two components")
        for w, _ in comps:
            if w <= 0:
                raise DomainError(f"mixture weights must be positive, got {w}")
        weights = _normalised([w for w, _ in comps], "mixture weight vector")
        comps = tuple((w, model) for w, (_, model) in zip(weights, comps))
        base = set(comps[0][1].symbols)
        for _, model in comps[1:]:
            if set(model.symbols) != base:
                raise DomainError("all mixture components must share one symbol set")
        object.__setattr__(self, "components", comps)

    @property
    def symbols(self) -> tuple[str, ...]:
        return self.components[0][1].symbols


JobProcess = Union[IIDModel, MarkovModel, MixtureModel]


def flatten_mixture(process: JobProcess) -> list[tuple[Fraction, IIDModel | MarkovModel]]:
    """Flatten nested mixtures into weighted IID/Markov leaves; a leaf is its own single leaf.

    Raises DomainError for any other process type.
    """
    if isinstance(process, MixtureModel):
        return [(w * sw, leaf) for w, sub in process.components for sw, leaf in flatten_mixture(sub)]
    if type(process) not in _LEAVES:
        raise DomainError(f"unsupported process type {type(process).__name__}")
    return [(Fraction(1), process)]


# ---------------------------------------------------------------------------
# exact law of the total processing time


@dataclass(frozen=True, eq=False)
class SumDistribution:
    """Exact lattice law of the total processing time of n jobs.

    masses[i] = P(T_n = offset + i), dense over every reachable total.  Every
    query indexes masses by the exact integer total - offset, so tails and
    quantiles hold at any job time.  The support and the {total: probability}
    view `mass` hold the totals of positive mass; totals whose probability
    underflows double precision drop out.
    """

    n: int
    offset: int
    masses: np.ndarray

    def _index(self, total: int) -> int:
        """total - offset, clipped to [0, len(masses)]."""
        return min(max(total - self.offset, 0), len(self.masses))

    @cached_property
    def _at_least(self) -> np.ndarray:
        # _at_least[i] = P(T_n >= offset + i), summed from the top; one trailing 0 entry
        return np.concatenate([np.cumsum(self.masses[::-1])[::-1], [0.0]])

    @cached_property
    def _below(self) -> np.ndarray:
        # _below[i] = P(T_n < offset + i); one leading 0 entry
        return np.concatenate([[0.0], np.cumsum(self.masses)])

    @cached_property
    def mass(self) -> dict[int, float]:
        index = np.flatnonzero(self.masses > 0.0)
        totals = index.astype(_int_dtype(self.offset + len(self.masses))) + self.offset
        return dict(zip(totals.tolist(), self.masses[index].tolist()))

    def support(self) -> list[int]:
        return list(self.mass)

    def mass_at(self, total: int) -> float:
        i = total - self.offset
        return float(self.masses[int(i)]) if 0 <= i < len(self.masses) and i == int(i) else 0.0

    def prob_above(self, threshold) -> float:
        """P(T_n > threshold), exact placement for rational thresholds."""
        cut = math.floor(as_fraction(threshold)) + 1  # T_n > thr  <=>  T_n >= cut
        return float(min(1.0, max(0.0, self._at_least[self._index(cut)])))

    def prob_below(self, threshold) -> float:
        """P(T_n < threshold)."""
        cut = math.ceil(as_fraction(threshold))  # T_n < thr  <=>  T_n < cut
        return float(min(1.0, max(0.0, self._below[self._index(cut)])))

    def mean(self) -> float:
        steps = np.dot(np.arange(len(self.masses), dtype=np.float64), self.masses)
        return self.offset * float(self.masses.sum()) + float(steps)

    def total_mass(self) -> float:
        return float(self.masses.sum())

    def upper_quantile_total(self, epsilon: float) -> int:
        """Smallest total s of positive mass with P(T_n > s) <= epsilon."""
        if not 0 < epsilon < 1:
            raise DomainError(f"epsilon must lie in (0, 1), got {epsilon!r}")
        # the tail after a total only falls as the total grows, and is 0 after the last one
        first = int(np.argmax(self._at_least[1:] <= epsilon))
        return self.offset + first + int(np.argmax(self.masses[first:] > 0.0))


def _symbol_times(process: JobProcess, alphabet: JobAlphabet) -> list[int]:
    return [alphabet.time_of(sym) for sym in process.symbols]


def _pow_convolve(base: np.ndarray, n: int) -> np.ndarray:
    """n-fold self-convolution by binary exponentiation."""
    result = np.array([1.0])
    while n:
        if n & 1:
            result = np.convolve(result, base)
        n >>= 1
        if n:
            base = np.convolve(base, base)
    return result


# Each kernel returns the masses over [n*t_min, n*t_max] of its symbol times.
def _iid_sum(model: IIDModel, alphabet: JobAlphabet, n: int) -> np.ndarray:
    times = _symbol_times(model, alphabet)
    t_min = min(times)
    base = np.zeros(max(times) - t_min + 1)
    for sym, t in zip(model.symbols, times):
        base[t - t_min] += float(model.probs[sym])
    return _pow_convolve(base, n)


def _markov_sum(model: MarkovModel, alphabet: JobAlphabet, n: int) -> np.ndarray:
    times = _symbol_times(model, alphabet)
    shifts = [t - min(times) for t in times]
    span = max(shifts)
    trans_t = np.array([[float(p) for p in row] for row in model.transition]).T.copy()
    # state-resolved law of the running total re-based at step*t_min, in two
    # buffers used in turn; after `step` jobs the first step*span+1 columns
    # are live.  Each job is one k x k product of the live window into a
    # reused buffer (BLAS reads the strided window in place), whose row j is
    # then copied to [shift_j, shift_j + width) of the next state.  That
    # range grows every step, so row j's other columns stay zero.
    cur = np.zeros((len(times), n * span + 1))
    nxt = np.zeros_like(cur)
    product = np.empty_like(cur)
    for j, shift in enumerate(shifts):
        cur[j, shift] = float(model.initial[j])
    for step in range(1, n):
        width = step * span + 1
        moved = np.matmul(trans_t, cur[:, :width], out=product[:, :width])
        for j, shift in enumerate(shifts):
            nxt[j, shift : shift + width] = moved[j]
        cur, nxt = nxt, cur
    return cur.sum(axis=0)


# ---------------------------------------------------------------------------
# exact closed-form moments


def stationary_distribution(model: MarkovModel) -> tuple[Fraction, ...]:
    """Exact stationary vector of an irreducible chain (pi @ P == pi, sum 1), solved once per model."""
    return model._stationary


def _solve_stationary(model: MarkovModel) -> tuple[Fraction, ...]:
    """Rational Gaussian elimination on (P^T - I) with the last equation replaced by normalization."""
    k = len(model.symbols)
    rows: list[list[Fraction]] = [
        [model.transition[j][i] - (1 if i == j else 0) for j in range(k)] for i in range(k)
    ]
    rows[k - 1] = [Fraction(1)] * k
    rhs = [Fraction(0)] * (k - 1) + [Fraction(1)]

    for col in range(k):
        pivot = next((r for r in range(col, k) if rows[r][col] != 0), None)
        if pivot is None:
            raise NumericError("stationary solve hit a singular system despite irreducibility")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        rhs[col] = rhs[col] * inv
        for r in range(k):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
                rhs[r] = rhs[r] - f * rhs[col]

    pi = tuple(rhs)
    residual = max(
        abs(sum(pi[j] * model.transition[j][i] for j in range(k)) - pi[i]) for i in range(k)
    )
    if residual != 0 or any(p < 0 for p in pi):
        raise NumericError(f"stationary vector failed verification (residual {float(residual)})")
    return pi


def mean_time_exact(process: JobProcess, alphabet: JobAlphabet) -> Fraction:
    """Exact long-run mean processing time of one job.

    IID: sum p(j) T(j).  Markov: the stationary mean.  Mixtures have no
    single long-run mean, so they are rejected here.
    """
    if isinstance(process, IIDModel):
        return sum((p * alphabet.time_of(sym) for sym, p in process.probs.items()), Fraction(0))
    if isinstance(process, MarkovModel):
        pi = stationary_distribution(process)
        return sum((p * alphabet.time_of(sym) for sym, p in zip(process.symbols, pi)), Fraction(0))
    raise DomainError("mixtures do not have a single per-job mean; query the components")


def _iid_central_moments(model: IIDModel, alphabet: JobAlphabet) -> tuple[Fraction, Fraction, Fraction]:
    mu = mean_time_exact(model, alphabet)
    var = Fraction(0)
    rho = Fraction(0)
    for sym, p in model.probs.items():
        d = alphabet.time_of(sym) - mu
        var += p * d * d
        rho += p * abs(d) ** 3
    return mu, var, rho


def _matvec(a, v) -> list[Fraction]:
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def _matmul(a, b) -> list[list[Fraction]]:
    columns = list(zip(*b))
    return [_matvec(columns, row) for row in a]


def _markov_mean_total(model: MarkovModel, alphabet: JobAlphabet, n: int) -> Fraction:
    # initial . (sum_{i<n} P^i) . t by doubling a through the bits of n,
    # carrying P^a and (sum_{i<a} P^i) . t: O(log n) k x k products
    times = [Fraction(t) for t in _symbol_times(model, alphabet)]
    k = len(times)
    power = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    partial = [Fraction(0)] * k
    for bit in bin(n)[2:]:
        partial = [s + x for s, x in zip(partial, _matvec(power, partial))]
        power = _matmul(power, power)
        if bit == "1":
            partial = [s + x for s, x in zip(partial, _matvec(power, times))]
            power = _matmul(power, model.transition)
    return sum((p * s for p, s in zip(model.initial, partial)), Fraction(0))


# ---------------------------------------------------------------------------
# sampling


def rng_stream(master_seed: int, trial: int) -> np.random.Generator:
    """Counter-style stream: (master_seed, trial) fully determines the draws."""
    # the middle entry is fixed: a key of another shape would change every sampled table
    key = (int(master_seed) & (2**64 - 1), 0, int(trial))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def _cumulative(probs: Iterable[Fraction]) -> np.ndarray:
    return np.cumsum(np.array([float(p) for p in probs]))


def _pick(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(cum, u, side="right")
    return np.minimum(idx, len(cum) - 1, out=idx)


# Each sampler block maps uniforms u of shape (trials, n) to indices into its own symbols.
def _sample_iid(model: IIDModel, u: np.ndarray) -> np.ndarray:
    return _pick(_cumulative(model.probs.values()), u)


def _sample_markov(model: MarkovModel, u: np.ndarray) -> np.ndarray:
    cum_rows = np.array([_cumulative(row) for row in model.transition])
    last = len(model.symbols) - 1
    out = np.empty(u.shape, dtype=np.int64)
    states = _pick(_cumulative(model.initial), u[:, 0])
    out[:, 0] = states
    for i in range(1, u.shape[1]):
        # entries of each current state's cumulative row that are <= u: the
        # count searchsorted(row, u, side="right") returns
        states = np.minimum((cum_rows[states] <= u[:, i, None]).sum(axis=1), last)
        out[:, i] = states
    return out


# ---------------------------------------------------------------------------
# one entry per leaf type; every process is a weighted list of leaves


class _Leaf(NamedTuple):
    sum_law: Callable  # (leaf, alphabet, n) -> masses over [n*t_min, n*t_max]
    rows: Callable  # leaf -> lattice-wide float64 arrays sum_law holds at once
    sample: Callable  # (leaf, u) -> (trials, n) indices into leaf.symbols
    mean_total: Callable  # (leaf, alphabet, n) -> exact E[T_n]


_LEAVES = {
    IIDModel: _Leaf(
        sum_law=_iid_sum,
        rows=lambda model: 3,  # the largest convolution: both factors and the product
        sample=_sample_iid,
        mean_total=lambda model, alphabet, n: n * mean_time_exact(model, alphabet),
    ),
    MarkovModel: _Leaf(
        sum_law=_markov_sum,
        rows=lambda model: 3 * len(model.symbols) + 1,  # two state buffers, the product buffer and the sum
        sample=_sample_markov,
        mean_total=_markov_mean_total,
    ),
}


def _check_length(n) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"sequence length must be a positive integer, got {n!r}")


def sum_distribution(process: JobProcess, alphabet: JobAlphabet, n: int) -> SumDistribution:
    """Exact dynamic-programming law of the n-job total processing time.

    Cost: O(k^2 * n^2 * span) for a k-state Markov chain, O(log n)
    convolutions for IID, and O(1) when every job time is equal.  A mixture
    adds its leaves' laws with their weights; they share one symbol set,
    hence one lattice.  Raises ResourceError,
    before allocating, when the largest leaf kernel's working arrays plus the
    weighted sum of a mixture would exceed _MAX_BYTES.
    """
    _check_length(n)
    leaves = flatten_mixture(process)
    times = _symbol_times(process, alphabet)
    t_min, t_max = min(times), max(times)
    if t_min == t_max:  # every sequence totals n*t_min; no kernel needs to run
        return SumDistribution(n, n * t_min, np.ones(1))
    rows = max(_LEAVES[type(leaf)].rows(leaf) for _, leaf in leaves) + (len(leaves) > 1)
    needed = 8 * (n * (t_max - t_min) + 1) * rows
    if needed > _MAX_BYTES:
        raise ResourceError(f"sum law for n={n} needs {needed} bytes of working arrays (budget {_MAX_BYTES})")
    masses = None
    for w, leaf in leaves:
        part = _LEAVES[type(leaf)].sum_law(leaf, alphabet, n)
        if w != 1:  # a single leaf's law is returned as it is
            part *= float(w)
        masses = part if masses is None else np.add(masses, part, out=masses)
        del part  # not alive while the next leaf's kernel runs
    return SumDistribution(n, n * t_min, masses)


def mean_total_time_exact(process: JobProcess, alphabet: JobAlphabet, n: int) -> Fraction:
    """Exact E[T_n] for any model, honoring Markov initial distributions."""
    _check_length(n)
    return sum(
        (w * _LEAVES[type(leaf)].mean_total(leaf, alphabet, n) for w, leaf in flatten_mixture(process)),
        Fraction(0),
    )


def sample_index_matrix(process: JobProcess, n: int, trials: int, master_seed: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """Sample `trials` independent length-n symbol sequences, one stream per trial.

    Returns (matrix of symbol indices, canonical symbol order).  Trial t uses
    the stream (master_seed, t), so any subset of trials reproduces
    identically regardless of how work is scheduled.  A mixture spends the
    first uniform of each stream on choosing the trial's leaf; a single
    stream spends none.  Raises ResourceError, before allocating, when the
    uniforms, the indices and the time matrix built from them would exceed
    _MAX_BYTES.
    """
    if n < 1 or trials < 1:
        raise DomainError("n and trials must be positive")
    needed = 3 * 8 * trials * (n + 1)
    if needed > _MAX_BYTES:
        raise ResourceError(f"sampling {trials} trials of n={n} needs {needed} bytes of arrays (budget {_MAX_BYTES})")
    leaves = flatten_mixture(process)
    symbols = process.symbols
    lead = len(leaves) > 1
    u = np.empty((trials, n + lead), dtype=np.float64)
    for t in range(trials):
        u[t] = rng_stream(master_seed, t).random(n + lead)
    if not lead:
        return _LEAVES[type(process)].sample(process, u), symbols
    chosen = _pick(_cumulative(w for w, _ in leaves), u[:, 0])
    body = u[:, 1:]
    out = np.empty((trials, n), dtype=np.int64)
    for c, (_, leaf) in enumerate(leaves):
        mask = chosen == c
        if mask.any():
            remap = np.array([symbols.index(s) for s in leaf.symbols])
            out[mask] = remap[_LEAVES[type(leaf)].sample(leaf, body[mask])]
    return out, symbols


def sample_time_matrix(process: JobProcess, alphabet: JobAlphabet, n: int, trials: int, master_seed: int) -> np.ndarray:
    """Processing-time matrix (trials, n) sampled per-trial as in sample_index_matrix."""
    idx, symbols = sample_index_matrix(process, n, trials, master_seed)
    times = [alphabet.time_of(s) for s in symbols]
    return np.array(times, dtype=_int_dtype(max(times)))[idx]
