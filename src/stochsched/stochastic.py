"""Job-stream models and the exact law of the total processing time.

Three model families over a common symbol set: i.i.d. draws, a Markov chain,
and a finite mixture (one component drawn per sequence, then held fixed).
`flatten_mixture` is the only code that knows what a mixture is: it resolves
any process, nested mixtures included, into weighted i.i.d./Markov leaves.
Each leaf type has one entry in `_LEAVES` (its sum-law kernel, the working
arrays that kernel holds, its sampler block and its exact E[T_n]), and
`sum_distributions`, `mean_total_time_exact` and `sample_index_matrix` are
each one loop over the weighted leaves.  A sum-law kernel serves a whole
grid of lengths in one call: the Markov DP runs once, to the largest n,
on the lattice of the shifts' gcd, and the IID kernel powers each n on its
own, squaring only the nonzero band of each law.

Probabilities are stored as exact rationals so that closed-form quantities
(means, stationary vectors, spectral rates) come out exact; dynamic programs
and samplers work in binary floating point.  The law of T_n is
`SumDistribution(n, offset, masses)`, whose queries index the float masses by
exact integer totals, so tails and quantiles hold at any job time.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .core import JobAlphabet, _int_dtype, as_fraction
from .errors import DomainError, NumericError, ResourceError

_PROB_TOL = Fraction(1, 10**12)
_MAX_BYTES = 1 << 30  # refuse any route whose working arrays would exceed 1 GiB
_SAMPLE_BLOCK = 64  # trials whose uniforms the sampler draws row by row before one transposed write


def _refuse_bytes(entries: int, what: str, largest: int = 0) -> None:
    """Refuse (ResourceError), before they are allocated, arrays of `entries` numbers beyond `_MAX_BYTES`.

    An entry counts 8 bytes, or, in an object array of integers up to
    `largest` (see `core._int_dtype`), its pointer plus the size of `largest`.
    """
    needed = entries * (8 if _int_dtype(largest) is np.int64 else 8 + sys.getsizeof(largest))
    if needed > _MAX_BYTES:
        raise ResourceError(f"{what} needs {needed} bytes (budget {_MAX_BYTES})")


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
    view `mass` hold the totals of positive mass.  The kernels compute
    masses below 2^-1022 as normal doubles and round them into the
    subnormal range only as they scale them back (see _LIFT), so a total
    drops out only when its probability rounds to 0.0, below about 2^-1075.
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


_SQUARE_CUTOFF = 1024  # at or below this length one np.convolve beats splitting
# The sum-law kernels multiply masses lifted by a power of two, 2^511 on each
# IID factor and _LIFT on the Markov state, and scale each result back by
# 1/_LIFT: masses sum to at most 1, so nothing lifted exceeds 2^1022, every
# product and sum that is a normal double unlifted has the same bits lifted,
# and those below 2^-1022 are computed as normal doubles and rounded once.
_LIFT = 2.0**1022


def _square(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x convolved with itself, each mirrored product counted once, written into `out` (made if None).

    With x = [a | b] split at h = len(x) // 2, x*x is a*a at 0, plus 2*(a*b)
    shifted by h, plus b*b shifted by 2h; the two squares recurse.  That is
    about len(x)^2 / 2 multiply-adds in place of len(x)^2.  Every term is a
    product of two entries of x and the doubling is exact, so each entry
    keeps the relative error of a direct sum wherever no product or partial
    sum is subnormal, and scaling x by a power of two scales the result
    exactly there; `_iid_law` squares masses lifted by 2^511 (see _LIFT),
    and only their nonzero band (see _band).
    """
    if out is None:
        out = np.empty(2 * len(x) - 1)
    if len(x) <= _SQUARE_CUTOFF:
        out[:] = np.convolve(x, x)
        return out
    h = len(x) // 2
    a, b = x[:h], x[h:]
    _square(a, out[: 2 * h - 1])
    out[2 * h - 1] = 0.0
    _square(b, out[2 * h :])
    cross = np.convolve(a, b)
    cross *= 2.0
    out[h : h + len(cross)] += cross
    return out


def _band(x: np.ndarray) -> tuple[int, int]:
    """(first, last + 1): the indices that bound x's nonzero entries; x has one.

    O(1) when both end entries are nonzero, and one O(len(x)) pass otherwise.
    """
    if x[0] and x[-1]:
        return 0, len(x)
    nonzero = x != 0.0
    return int(np.argmax(nonzero)), len(x) - int(np.argmax(nonzero[::-1]))


def _iid_law(base: np.ndarray, n: int) -> np.ndarray:
    """Law of n jobs from `base`, the one-job law, powering from the left.

    Each bit of n after the leading one squares the law so far, and a set
    bit convolves it once more with `base`: the law of n is the square of the
    law of n >> 1, times `base` for odd n.  The steps depend on n alone, so
    a law is the same bit for bit on any grid.  Each square and product
    runs on factors lifted by 2^511 and is scaled back by 1/_LIFT at once,
    which rounds only its masses below 2^-1022; the law is lifted in place,
    and the one-job band through its one lifted copy, so `base` is never
    written.

    The law is held as its nonzero band (see _band) at lattice offset lo,
    trimmed after every square and product, and placed once, at the end,
    into the zero-filled lattice: a law whose extreme masses rounded to
    0.0, or a one-job law with a zero-probability extreme time, skips the
    lattice points that cannot hold mass.  A law without zero edges is its
    own band, so it takes the same steps as an unbanded kernel, bit for bit;
    a banded square splits at a different index, which changes only the
    order of its sums.
    """
    up = _LIFT**0.5
    first, last = _band(base)
    law, lo = base[first:last], first
    one_job = law * up
    for i, bit in enumerate(bin(n)[3:]):
        law = _square(np.multiply(law, up, out=law) if i else one_job)
        law *= 1 / _LIFT
        a, b = _band(law)
        law, lo = law[a:b], 2 * lo + a
        if bit == "1":
            law = np.convolve(np.multiply(law, up, out=law), one_job)
            law *= 1 / _LIFT
            a, b = _band(law)
            law, lo = law[a:b], lo + first + a
    placed = np.zeros(n * (len(base) - 1) + 1)
    placed[lo : lo + len(law)] = law
    return placed


# Each kernel takes a strictly increasing grid ns and returns, per n, the
# masses over [n*t_min, n*t_max] of its symbol times.
def _iid_sums(model: IIDModel, alphabet: JobAlphabet, ns: Sequence[int]) -> list[np.ndarray]:
    times = _symbol_times(model, alphabet)
    t_min = min(times)
    base = np.zeros(max(times) - t_min + 1)
    for sym, t in zip(model.symbols, times):
        base[t - t_min] += float(model.probs[sym])
    return [_iid_law(base, n) for n in ns]


def _markov_sums(model: MarkovModel, alphabet: JobAlphabet, ns: Sequence[int]) -> list[np.ndarray]:
    """Per n of ns, the law of T_n over [n*t_min, n*t_max], from one DP on the shifts' gcd lattice.

    The shifts t - t_min share a gcd g, so every total is n*t_min + g*i and
    g - 1 of every g dense lattice points hold no mass.  The DP runs on the
    reduced shifts (t - t_min) / g, over step*span/g + 1 points after `step`
    jobs, and each kept law is summed straight into every g-th entry of its
    zero-filled dense array.  Every reduced point sees the products and sums
    its dense point saw, in the same order, so each law is the one a DP on
    the dense lattice gives, bit for bit, at O(k^2 * n^2 * span / g) cost.
    """
    times = _symbol_times(model, alphabet)
    shifts = [t - min(times) for t in times]
    stride = math.gcd(*shifts)  # > 0: sum_distributions runs no kernel when every time is equal
    shifts = [shift // stride for shift in shifts]
    span = max(shifts)
    trans_t = np.array([[float(p) for p in row] for row in model.transition]).T.copy()
    # state-resolved law of the running total re-based at step*t_min, on the
    # reduced lattice, in two buffers used in turn; after `step` jobs the
    # first step*span+1 columns are live.  Each job is one k x k product of
    # the live window into a reused buffer (BLAS reads the strided window in
    # place), whose row j is then copied to [shift_j, shift_j + width) of the
    # next state.  That range grows every step, so row j's other columns stay
    # zero.  One DP runs to the largest n and keeps the law at each smaller
    # grid length.  The state starts at _LIFT times the initial law, so its
    # rows sum to at most _LIFT and the k x k products stay off the
    # subnormal path until a mass falls below 2^-2044; each kept law is
    # scaled back in place.
    cur = np.zeros((len(times), ns[-1] * span + 1))
    nxt = np.zeros_like(cur)
    product = np.empty_like(cur)
    for j, shift in enumerate(shifts):
        cur[j, shift] = float(model.initial[j]) * _LIFT

    def kept(state: np.ndarray) -> np.ndarray:
        law = np.zeros((state.shape[1] - 1) * stride + 1)
        np.sum(state, axis=0, out=law[::stride])
        return law

    laws = []
    for step in range(1, ns[-1]):
        width = step * span + 1
        if step == ns[len(laws)]:
            laws.append(kept(cur[:, :width]))
        moved = np.matmul(trans_t, cur[:, :width], out=product[:, :width])
        for j, shift in enumerate(shifts):
            nxt[j, shift : shift + width] = moved[j]
        cur, nxt = nxt, cur
    laws.append(kept(cur))
    for law in laws:
        law *= 1 / _LIFT
    return laws


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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), whose
# constants every key shares: hashmix starts at INIT_A and multiplies by
# MULT_A per use, generate_state at INIT_B and MULT_B, and mix takes the pool
# words with MIX_MULT_L and MIX_MULT_R
_HASHMIX = (0x43B0D7E5, 0x931E8875)
_GENERATE = (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hasher(init: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's hashmix over uint32 lanes; its constant starts at `init` and is multiplied by `mult` at each use."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value *= np.uint32(const)
        value ^= value >> 16
        return value

    return hashmix


def _seed_words(master_seed: int, trial: np.ndarray) -> np.ndarray:
    """Row i: the 4 uint64 words SeedSequence((master_seed mod 2^64, 0, trial[i])) generates for PCG64.

    `trial` holds uint32 indices.  The key's uint32 words are the seed's,
    least significant first, then 0, then the trial, and the pool of four
    pads them with 0.  Only the trial varies, so each of the hash's steps is
    one vector operation over all trials.
    """
    seed = int(master_seed) & (2**64 - 1)
    head = [seed & 0xFFFFFFFF, seed >> 32] if seed >> 32 else [seed]
    pool = np.zeros((4, len(trial)), dtype=np.uint32)
    pool[: len(head)] = np.array(head, dtype=np.uint32)[:, None]
    pool[len(head) + 1] = trial
    hashmix = _hasher(*_HASHMIX)
    for word in pool:
        word[:] = hashmix(word)
    for src in range(4):  # every word mixed into every other
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * _MIX_L
                mixed -= hashmix(pool[src]) * _MIX_R
                mixed ^= mixed >> 16
                pool[dst] = mixed
    generate = _hasher(*_GENERATE)
    state = np.empty((len(trial), 8), dtype=np.uint32)
    for i in range(8):
        state[:, i] = generate(pool[i % 4])
    # as numpy does: each pair of uint32 words, read little-endian, is one uint64
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@cache
def _seed_words_type() -> type:
    """The class that hands PCG64 one trial's row of `_seed_words` in place of that trial's SeedSequence.

    It is made on first use: numpy.random costs about 6 MiB of resident
    memory, which a table that samples nothing should not pay.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.words  # PCG64 asks for 4 uint64 words, exactly these

    return SeedWords


def _trial_stream(words: np.ndarray) -> np.random.Generator:
    """The stream of one trial, from its row of `_seed_words`."""
    return np.random.Generator(np.random.PCG64(_seed_words_type()(words)))


def _cumulative(probs: Iterable[Fraction]) -> np.ndarray:
    return np.cumsum(np.array([float(p) for p in probs]))


def _pick(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Bin of each uniform: how many of the first len(cum) - 1 cumulative probabilities it reaches.

    That is searchsorted(cum, u, side="right") clipped to the last bin, as
    cum never falls, in one compare-and-add per bin edge.
    """
    idx = np.zeros(u.shape, dtype=np.int64)
    for c in cum[:-1]:
        idx += u >= c
    return idx


# Each sampler block maps job-major uniforms u of shape (n, trials) to job-major
# indices into its own symbols.
def _sample_iid(model: IIDModel, u: np.ndarray) -> np.ndarray:
    return _pick(_cumulative(model.probs.values()), u)


def _sample_markov(model: MarkovModel, u: np.ndarray) -> np.ndarray:
    # edges[j][s] is the j-th cumulative probability of state s's row; a
    # trial's next state counts the edges of its current state that its
    # uniform reaches, one gather and compare per edge and job
    edges = np.array([_cumulative(row) for row in model.transition]).T[:-1]
    out = np.empty(u.shape, dtype=np.int64)
    out[0] = _pick(_cumulative(model.initial), u[0])
    for i in range(1, len(u)):
        states, state = out[i - 1], out[i]
        state[:] = 0
        for edge in edges:
            state += edge[states] <= u[i]
    return out


# ---------------------------------------------------------------------------
# one entry per leaf type; every process is a weighted list of leaves


class _Leaf(NamedTuple):
    sum_law: Callable  # (leaf, alphabet, ns) -> per n, masses over [n*t_min, n*t_max]
    # (leaf, points, stride) -> float64 entries sum_law holds at once, for the largest n's
    # lattice of `points` points, on whose every stride-th point (the shifts' gcd) the masses sit
    held: Callable
    sample: Callable  # (leaf, u) -> (n, trials) indices into leaf.symbols, for (n, trials) uniforms u
    mean_total: Callable  # (leaf, alphabet, n) -> exact E[T_n]


_LEAVES = {
    IIDModel: _Leaf(
        sum_law=_iid_sums,
        # lattice-wide rows: a square, its input and cross term (2.25 rows
        # together); a square and its odd-n product; or the last band and
        # the zeros it is placed in, once, at the end
        held=lambda model, points, stride: 3 * points,
        sample=_sample_iid,
        mean_total=lambda model, alphabet, n: n * mean_time_exact(model, alphabet),
    ),
    MarkovModel: _Leaf(
        sum_law=_markov_sums,
        # two state buffers and the product buffer, k rows each on the lattice
        # of the stride, and the dense law their sum is written into
        held=lambda model, points, stride: 3 * len(model.symbols) * ((points - 1) // stride + 1) + points,
        sample=_sample_markov,
        mean_total=_markov_mean_total,
    ),
}


def _check_length(n, what: str = "sequence length") -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"{what} must be a positive integer, got {n!r}")


def _check_grid(grid: Sequence, what: str) -> None:
    """Refuse (DomainError) a grid that is not sorted and duplicate-free."""
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise DomainError(f"{what} must be strictly increasing")


def sum_distributions(process: JobProcess, alphabet: JobAlphabet, n_grid: Sequence[int]) -> list[SumDistribution]:
    """Exact dynamic-programming laws of the n-job total processing time, one per n of a strictly increasing grid.

    Cost: one O(k^2 * N^2 * span / g) sweep for a k-state Markov chain,
    where N is the largest n and g the gcd of the shifts t - t_min, keeping
    the law at each smaller n on its way; for IID, per n, one square of the
    law of n >> 1 after that law's own squares, about L^2/6 multiply-adds in
    all for a law of L lattice points, fewer where its extreme masses read
    0.0, as each square runs on the nonzero band; and O(1) per n when every
    job time is equal.  A mixture adds its leaves' laws with their weights;
    they share one symbol set, hence one lattice.
    The kernels run on masses lifted by a power of two (see _LIFT): a mass
    has the bits the unlifted arithmetic gives it unless that arithmetic
    rounds a subnormal on the way, which happens only deep in a tail, and
    a mass below 2^-1022 is computed as a normal double and rounded when
    it is scaled back, so it is as accurate as that rounding allows and
    reads 0.0 only below about 2^-1075.
    An empty grid gives [].  Raises DomainError for an unsorted or repeated
    grid or an n < 1, and ResourceError, before allocating, when the largest
    leaf kernel's working arrays, the laws it holds for the smaller lengths
    and a mixture's weighted sum at every length would exceed _MAX_BYTES.
    A Markov leaf's buffers are counted on the lattice of stride g, as its
    DP holds them.
    """
    ns = list(n_grid)
    for n in ns:
        _check_length(n)
    _check_grid(ns, "n_grid")
    if not ns:
        return []
    leaves = flatten_mixture(process)
    times = _symbol_times(process, alphabet)
    t_min, t_max = min(times), max(times)
    if t_min == t_max:  # every sequence totals n*t_min; no kernel needs to run
        return [SumDistribution(n, n * t_min, np.ones(1)) for n in ns]
    points = [n * (t_max - t_min) + 1 for n in ns]
    stride = math.gcd(*(t - t_min for t in times))
    kernel = max(_LEAVES[type(leaf)].held(leaf, points[-1], stride) for _, leaf in leaves)
    held = sum(points[:-1]) + (len(leaves) > 1) * sum(points)  # smaller lengths' laws; a mixture's sums
    _refuse_bytes(kernel + held, f"sum law for n={ns[-1]}")
    masses = None
    for w, leaf in leaves:
        parts = _LEAVES[type(leaf)].sum_law(leaf, alphabet, ns)
        if w != 1:  # a single leaf's laws are returned as they are
            parts = [np.multiply(part, float(w), out=part) for part in parts]
        masses = parts if masses is None else [np.add(m, part, out=m) for m, part in zip(masses, parts)]
        del parts  # not alive while the next leaf's kernel runs
    return [SumDistribution(n, n * t_min, m) for n, m in zip(ns, masses)]


def sum_distribution(process: JobProcess, alphabet: JobAlphabet, n: int) -> SumDistribution:
    """Exact law of the n-job total processing time: `sum_distributions` on the grid [n]."""
    return sum_distributions(process, alphabet, [n])[0]


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
    the PCG64 stream of SeedSequence((master_seed mod 2^64, 0, t)), so any
    subset of trials reproduces identically regardless of how work is
    scheduled.  A mixture spends the first uniform of each stream on
    choosing the trial's leaf; a single stream spends none.

    Cost: one pass of about 170 operations over (trials,) uint32 arrays
    hashes every trial's seed words (under 0.1 us a trial); then each trial
    builds its PCG64 from its words and draws its uniforms, a few
    microseconds a trial.  The work is job-major: the uniforms of a block
    of `_SAMPLE_BLOCK` (64) trials fill a (64, n) block row by row, and one
    transposed copy writes the block into 64 columns of an (n, trials)
    array, in place of one strided column write per trial.  The leaf blocks
    then pick every trial's symbol for one job in a few vector operations
    per bin edge.  The matrix is returned as (trials, n), the transpose view
    of the (n, trials) indices.

    Raises DomainError unless n and trials are positive integers, and
    ResourceError, before allocating, when the arrays held at once would
    exceed _MAX_BYTES: the seed words, 4 entries a trial, and as many again
    for the hash's uint32 pool and temporaries; the block of 64 trials'
    uniforms; the uniforms and the indices, and for a mixture a leaf's copy
    of its trials' uniforms and its own indices, each as large at most.  An
    IID pick adds one boolean comparison, an eighth of those arrays, and
    numpy's cast buffer of 8192 entries for adding it.
    """
    _check_length(n)
    _check_length(trials, "trials")
    leaves = flatten_mixture(process)
    symbols = process.symbols
    lead = len(leaves) > 1
    entries = trials * (n + lead)
    seeding = 8 * trials  # the words, and the hash's pool and temporaries
    per_block = min(_SAMPLE_BLOCK, trials)
    held = (4 if lead else 2) * entries + entries // 8 + 8192 + seeding + per_block * (n + lead)
    _refuse_bytes(held, f"sampling {trials} trials of n={n}")
    u = np.empty((n + lead, trials), dtype=np.float64)
    block = np.empty((per_block, n + lead), dtype=np.float64)  # a block of trials' uniforms, one row each
    # refused far below 2^32 trials, so each trial index is one uint32 word
    words = _seed_words(master_seed, np.arange(trials, dtype=np.uint32))
    for start in range(0, trials, per_block):
        rows = block[: trials - start]
        for row, trial in zip(rows, words[start:]):
            row[:] = _trial_stream(trial).random(n + lead)
        u[:, start : start + len(rows)] = rows.T
    del block, rows, words, trial  # trial, a view, would keep every trial's words through the picking
    if not lead:
        return _LEAVES[type(process)].sample(process, u).T, symbols
    chosen = _pick(_cumulative(w for w, _ in leaves), u[0])
    body = u[1:]
    out = np.empty((n, trials), dtype=np.int64)
    for c, (_, leaf) in enumerate(leaves):
        mask = chosen == c
        if mask.any():
            remap = np.array([symbols.index(s) for s in leaf.symbols])
            out[:, mask] = remap[_LEAVES[type(leaf)].sample(leaf, body[:, mask])]
    return out.T, symbols


def sample_time_matrix(process: JobProcess, alphabet: JobAlphabet, n: int, trials: int, master_seed: int) -> np.ndarray:
    """Processing-time matrix (trials, n) sampled per-trial as in sample_index_matrix.

    Like the indices it is the transpose view of a job-major (n, trials)
    array, one table lookup per draw, so each job's times are contiguous.
    """
    idx, symbols = sample_index_matrix(process, n, trials, master_seed)
    times = [alphabet.time_of(s) for s in symbols]
    return np.array(times, dtype=_int_dtype(max(times)))[idx.T].T
