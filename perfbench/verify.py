"""Checks of every table's JSONL output against references computed here.

Probabilities are compared with the direct dynamic programme the package
shipped with (binary-exponentiation convolution for IID, the per-step
state-resolved DP for Markov, a weighted merge for mixtures), reimplemented
in this file so that it stays the oracle when the package's kernel changes.
Exact costs are compared with enumeration where it is small enough, and
with the certified bracket otherwise.  Average-case rows are checked
against the exact bracket and the three-standard-error window, not against
pinned means, so a change of random streams does not fail them.

`check` returns a list of problems; an empty list means the table passed.
A problem starting with EFT_ORDER is the exact-label defect of EFT costs:
the package schedules one order per multiset, while EFT depends on order.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from exact import components, fractions, initial_vector, rates

RTOL = 1e-9  # relative tolerance on probabilities
ATOL = 1e-290  # absolute floor: a tail that underflowed to 0.0 may later read 1e-310
ENUM_SEQUENCES = 8192  # enumerate all k^n sequences (EFT) up to this many
ENUM_MULTISETS = 5000  # enumerate multisets (LPT, brute force) up to this many
ENUM_PLACEMENTS = 300_000  # brute-force oracle: placements of counts over machines
BRUTE_FORCE_BUDGET = 10_000_000  # the CLI's BruteForce() refuses m^n above this
EFT_ORDER = "eft-order"

COLUMNS = {
    "validate": ("t_min", "t_max", "m", "v_sum", "v_min", "v_max", "ebar", "ebar_under", "strong_converse"),
    "scan": ("n", "alpha", "tail_prob", "alpha_converged"),
    "achievability": ("n", "discard_prob", "cost", "cost_per_job", "cost_lower", "exact"),
    "converse": ("n", "min_discard_prob"),
    "second-order": ("n", "epsilon", "r_n_plus", "cost_lo", "cost_hi", "prediction", "residual"),
    "average-case": ("n", "trials", "mc_mean_span_per_job", "bracket_lo", "bracket_hi", "std_error"),
    "cost": ("n", "alpha", "discard_prob", "cost", "cost_per_job"),
}


class Problem:
    """The parsed problem block with the exact quantities the checks share."""

    def __init__(self, config: dict):
        p = config["problem"]
        self.alphabet: dict[str, int] = p["alphabet"]
        self.symbols = list(self.alphabet)
        self.speeds = fractions(p["machines"])
        self.process = p["process"]
        self.v_sum = sum(self.speeds, Fraction(0))
        self.v_min = min(self.speeds)
        self.t_min = min(self.alphabet.values())
        self.t_max = max(self.alphabet.values())
        self.slack = Fraction(self.t_max) / self.v_min
        self.ebar, self.ebar_under = rates(self.process, self.alphabet, self.speeds)
        self._laws: dict[int, tuple[int, np.ndarray]] = {}

    def law(self, n: int) -> tuple[int, np.ndarray]:
        if n not in self._laws:
            self._laws[n] = reference_law(self.process, self.alphabet, n)
        return self._laws[n]

    def tail(self, n: int, threshold: Fraction) -> float:
        """Reference P(T_n > threshold)."""
        offset, arr = self.law(n)
        cut = math.floor(threshold) + 1 - offset
        suffix = np.cumsum(arr[::-1])[::-1]
        value = float(suffix[cut]) if 0 <= cut < len(arr) else (1.0 if cut < 0 else 0.0)
        return min(1.0, max(0.0, value))


# ---------------------------------------------------------------------------
# reference law of T_n


def reference_law(spec: dict, alphabet: dict[str, int], n: int) -> tuple[int, np.ndarray]:
    """(offset, dense masses): masses[i] = P(T_n = offset + i)."""
    if spec["kind"] == "iid":
        return _iid_law(spec, alphabet, n)
    if spec["kind"] == "markov":
        return _markov_law(spec, alphabet, n)
    total = None
    for comp in spec["components"]:
        offset, arr = reference_law(comp["process"], alphabet, n)
        part = float(Fraction(comp["weight"])) * arr
        total = part if total is None else total + part
    return offset, total


def _iid_law(spec, alphabet, n):
    symbols = list(spec["probs"])
    times = [alphabet[s] for s in symbols]
    t_min = min(times)
    base = np.zeros(max(times) - t_min + 1)
    for s, t in zip(symbols, times):
        base[t - t_min] += float(Fraction(spec["probs"][s]))
    result, power, k = np.array([1.0]), base, n
    while k:
        if k & 1:
            result = np.convolve(result, power)
        k >>= 1
        if k:
            power = np.convolve(power, power)
    return n * t_min, result


def _markov_law(spec, alphabet, n):
    times = [alphabet[s] for s in spec["symbols"]]
    k = len(times)
    t_min = min(times)
    span = max(times) - t_min
    trans = [[float(Fraction(p)) for p in row] for row in spec["transition"]]
    cur = np.zeros((k, span + 1))
    for j, p in enumerate(initial_vector(spec)):
        cur[j, times[j] - t_min] = float(p)
    for step in range(1, n):
        width = step * span + 1
        new = np.zeros((k, width + span))
        for j in range(k):
            for i in range(k):
                if trans[j][i]:
                    off = times[i] - t_min
                    new[i, off : off + width] += cur[j] * trans[j][i]
        cur = new
    return n * t_min, cur.sum(axis=0)


def _mean_total(spec: dict, alphabet: dict[str, int], n: int) -> float:
    """E[T_n] in floating point, honouring Markov initial vectors."""
    total = 0.0
    for w, sub in components(spec):
        if sub["kind"] == "iid":
            mean = sum(float(Fraction(p)) * alphabet[s] for s, p in sub["probs"].items())
            total += float(w) * n * mean
            continue
        times = np.array([alphabet[s] for s in sub["symbols"]], dtype=float)
        trans = np.array([[float(Fraction(p)) for p in row] for row in sub["transition"]])
        marg = np.array([float(p) for p in initial_vector(sub)])
        acc = 0.0
        for _ in range(n):
            acc += float(marg @ times)
            marg = marg @ trans
        total += float(w) * acc
    return total


# ---------------------------------------------------------------------------
# exact cost oracles


def _scaled_weights(speeds: list[Fraction]) -> tuple[list[int], int]:
    """Integers w_i and scale with load / v_i == load * w_i / scale."""
    scale = 1
    for v in speeds:
        scale = scale * v.numerator // math.gcd(scale, v.numerator)
    return [v.denominator * scale // v.numerator for v in speeds], scale


def _eft_step(loads: list[int], t: int, weights) -> int:
    """Machine where a job of time t finishes first (scaled); ties go to the lowest index."""
    best, finish = 0, (loads[0] + t) * weights[0]
    for i in range(1, len(weights)):
        f = (loads[i] + t) * weights[i]
        if f < finish:
            best, finish = i, f
    return best


def _eft_scaled(times, weights) -> int:
    loads = [0] * len(weights)
    for t in times:
        loads[_eft_step(loads, t, weights)] += t
    return max(u * w for u, w in zip(loads, weights))


def _eft_worst_scaled(times: list[int], n: int, threshold: Fraction, weights) -> int | None:
    """Largest EFT makespan over every kept length-n sequence, by a walk of the prefix tree."""
    t_min = min(times)
    best = None

    def walk(depth: int, loads: list[int], total: int) -> None:
        nonlocal best
        if depth == n:
            span = max(u * w for u, w in zip(loads, weights))
            best = span if best is None or span > best else best
            return
        for t in times:
            if total + t + (n - depth - 1) * t_min > threshold:
                continue  # no completion of this prefix is kept
            i = _eft_step(loads, t, weights)
            loads[i] += t
            walk(depth + 1, loads, total + t)
            loads[i] -= t

    walk(0, [0] * len(weights), 0)
    return best


def _count_vectors(n: int, k: int):
    if k == 1:
        yield (n,)
        return
    for c in range(n + 1):
        for rest in _count_vectors(n - c, k - 1):
            yield (c, *rest)


def _optimal_scaled(counts, times, weights) -> int:
    """Optimal makespan (scaled) by placing each symbol's count over the machines."""
    m = len(weights)
    best = None

    def place(j: int, loads: tuple[int, ...]):
        nonlocal best
        if j == len(counts):
            span = max(u * w for u, w in zip(loads, weights))
            if best is None or span < best:
                best = span
            return
        for split in _count_vectors(counts[j], m):
            place(j + 1, tuple(u + c * times[j] for u, c in zip(loads, split)))

    place(0, (0,) * m)
    return best


def _placements(counts, m: int) -> int:
    return math.prod(math.comb(c + m - 1, m - 1) for c in counts)


def enumerated_cost(scheduler: str, n: int, threshold: Fraction, pb: Problem) -> Fraction | None:
    """Worst makespan over kept sequences by enumeration; None when too large."""
    times = [pb.alphabet[s] for s in pb.symbols]
    k, m = len(times), len(pb.speeds)
    weights, scale = _scaled_weights(pb.speeds)
    best = None
    if scheduler == "eft":
        if k**n > ENUM_SEQUENCES:
            return None
        best = _eft_worst_scaled(times, n, threshold, weights)
    else:
        if math.comb(n + k - 1, k - 1) > ENUM_MULTISETS:
            return None
        kept = [c for c in _count_vectors(n, k) if sum(ci * t for ci, t in zip(c, times)) <= threshold]
        if scheduler == "brute-force" and sum(_placements(c, m) for c in kept) > ENUM_PLACEMENTS:
            return None
        rank = sorted(range(k), key=lambda j: (-times[j], j))  # longest first, ties by alphabet order
        for c in kept:
            if scheduler == "lpt":
                span = _eft_scaled([times[j] for j in rank for _ in range(c[j])], weights)
            else:
                span = _optimal_scaled(c, times, weights)
            best = span if best is None or span > best else best
    return None if best is None else Fraction(best, scale)


def max_kept_total(n: int, threshold: Fraction, pb: Problem) -> int:
    """Largest attainable total <= threshold, by a bitset reachability sweep."""
    reach = 1  # bit s set <=> total s attainable
    steps = set(pb.alphabet.values())
    for _ in range(n):
        nxt = 0
        for t in steps:
            nxt |= reach << t
        reach = nxt
    reach &= (1 << (math.floor(threshold) + 1)) - 1
    return reach.bit_length() - 1


# ---------------------------------------------------------------------------
# per-kind checks


def _cell(value):
    if isinstance(value, dict) and set(value) == {"num", "den"}:
        return Fraction(value["num"], value["den"])
    return value


def _close(got, want: float) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= RTOL * abs(want) + ATOL


def _cost_problems(tag: str, scheduler: str, n: int, threshold: Fraction, cost: Fraction, pb: Problem) -> list[str]:
    """Checks of a cost reported as exact: the certified bracket, then enumeration where feasible."""
    out = []
    kept_max = max_kept_total(n, threshold, pb)
    if kept_max < 0:
        return [f"{tag}: reference keeps no sequence"]
    lower = Fraction(kept_max) / pb.v_sum
    if not lower <= cost <= lower + pb.slack:
        out.append(f"{tag}: cost {cost} outside certified bracket [{lower}, {lower + pb.slack}]")
    want = enumerated_cost(scheduler, n, threshold, pb)
    if want is not None and cost != want:
        if scheduler == "eft" and cost < want:
            out.append(f"{EFT_ORDER}: {tag}: exact=true cost {cost} < enumerated worst EFT makespan {want}")
        else:
            out.append(f"{tag}: cost {cost} != enumerated {want}")
    return out


def check(config: dict, rc, stdout: str) -> list[str]:
    kind = config["experiment"]["kind"]
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        lines = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except ValueError as exc:
        return [f"output is not JSON lines: {exc}"]
    if not lines or not all(isinstance(line, dict) for line in lines) or not isinstance(lines[0].get("metadata"), dict):
        return ["output is not a metadata object followed by row objects"]
    if lines[0]["metadata"].get("experiment") != kind:
        return [f"metadata names experiment {lines[0]['metadata'].get('experiment')!r}"]
    rows = [{k: _cell(v) for k, v in row.items()} for row in lines[1:]]
    for i, row in enumerate(rows):
        missing = [c for c in COLUMNS[kind] if c not in row]
        if missing:
            return [f"row {i} lacks columns {missing}"]
    try:
        return CHECKS[kind](config["experiment"], rows, Problem(config))
    except (TypeError, ValueError, ZeroDivisionError) as exc:  # a cell of the wrong type fails its table
        return [f"malformed cell: {type(exc).__name__}: {exc}"]


def _expect_rows(rows, count) -> list[str]:
    return [] if len(rows) == count else [f"{len(rows)} rows, expected {count}"]


def _check_validate(exp, rows, pb: Problem):
    if len(rows) != 1:
        return _expect_rows(rows, 1)
    r = rows[0]
    want = {
        "t_min": pb.t_min, "t_max": pb.t_max, "m": len(pb.speeds), "v_sum": pb.v_sum,
        "v_min": pb.v_min, "v_max": max(pb.speeds), "ebar": pb.ebar, "ebar_under": pb.ebar_under,
        "strong_converse": pb.ebar == pb.ebar_under,
    }
    return [
        f"{c}={r[c]!r}, expected {v!r}"
        for c, v in want.items()
        if r[c] != v or isinstance(r[c], bool) != isinstance(v, bool)
    ]


def _check_scan(exp, rows, pb: Problem):
    alphas, ns = fractions(exp["alpha_grid"]), exp["n_grid"]
    out = _expect_rows(rows, len(alphas) * len(ns))
    if out:
        return out
    delta = exp.get("delta", 1e-3)
    tails = [[rows[i * len(alphas) + j]["tail_prob"] for j in range(len(alphas))] for i in range(len(ns))]
    window = min(3, len(ns))
    for i, n in enumerate(ns):
        for j, alpha in enumerate(alphas):
            r = rows[i * len(alphas) + j]
            if r["n"] != n or r["alpha"] != alpha:
                out.append(f"row ({i},{j}) is (n={r['n']}, alpha={r['alpha']})")
                continue
            want = pb.tail(n, n * pb.v_sum * alpha)
            if not _close(r["tail_prob"], want):
                out.append(f"tail n={n} alpha={alpha}: {r['tail_prob']!r} vs reference {want!r}")
            col = [tails[x][j] for x in range(len(ns))][-window:]
            converged = col[-1] < delta and all(a >= b for a, b in zip(col, col[1:]))
            if r["alpha_converged"] is not converged:
                out.append(f"alpha_converged n={n} alpha={alpha} is {r['alpha_converged']}")
    return out


def _check_converse(exp, rows, pb: Problem):
    ns = exp["n_grid"]
    out = _expect_rows(rows, len(ns))
    alpha = pb.ebar - Fraction(exp["gap"])
    for n, r in zip(ns, rows):
        want = pb.tail(n, n * pb.v_sum * alpha)
        if r["n"] != n or not _close(r["min_discard_prob"], want):
            out.append(f"n={n}: ({r['n']}, {r['min_discard_prob']!r}) vs reference {want!r}")
    return out


def _check_second_order(exp, rows, pb: Problem):
    ns, eps = exp["n_grid"], float(exp["epsilon"])
    out = _expect_rows(rows, len(ns))
    mu = sum((Fraction(p) * pb.alphabet[s] for s, p in pb.process["probs"].items()), Fraction(0))
    var = sum((Fraction(p) * (pb.alphabet[s] - mu) ** 2 for s, p in pb.process["probs"].items()), Fraction(0))
    z = NormalDist().inv_cdf(eps)
    v = float(pb.v_sum)
    for n, r in zip(ns, rows):
        r_rate = r["r_n_plus"]
        if r["n"] != n or r["epsilon"] != eps or not isinstance(r_rate, Fraction):
            out.append(f"n={n}: row ({r['n']}, {r['epsilon']}, {r_rate!r})")
            continue
        s = n * pb.v_sum * r_rate
        offset, arr = pb.law(n)
        support = [offset + int(i) for i in np.nonzero(arr > 0.0)[0]]
        below = [t for t in support if t < s]
        if s.denominator != 1 or int(s) not in support:
            out.append(f"n={n}: r_n_plus {r_rate} is not an attainable total over n*v_sum")
        elif pb.tail(n, s) > eps * (1 + RTOL) + ATOL:
            out.append(f"n={n}: P(T_n > {s}) = {pb.tail(n, s)!r} exceeds epsilon {eps}")
        elif below and pb.tail(n, Fraction(below[-1])) <= eps * (1 - RTOL) - ATOL:
            out.append(f"n={n}: smaller total {below[-1]} already meets epsilon {eps}")
        if r["cost_lo"] != n * r_rate or r["cost_hi"] != n * r_rate + pb.slack:
            out.append(f"n={n}: cost bracket ({r['cost_lo']}, {r['cost_hi']})")
        pred = n * float(mu) / v - math.sqrt(float(var) * n) * z / v
        if abs(r["prediction"] - pred) > 1e-6 * math.sqrt(float(var) * n) / v + 1e-9 * abs(pred):
            out.append(f"n={n}: prediction {r['prediction']!r} vs {pred!r}")
        resid = float(r["cost_lo"] + r["cost_hi"]) / 2.0 - r["prediction"]
        if abs(r["residual"] - resid) > 1e-9 * (1 + abs(pred)):
            out.append(f"n={n}: residual {r['residual']!r} vs {resid!r}")
    return out


def _must_be_exact(exp, n: int, pb: Problem) -> bool | None:
    """Order-independent schedulers have no reason to bracket a row inside budget."""
    k, m = len(pb.symbols), len(pb.speeds)
    within = math.comb(n + k - 1, k - 1) * n <= exp.get("budget", 2_000_000)
    if exp["scheduler"] == "lpt":
        return within
    if exp["scheduler"] == "brute-force":
        return within and m**n <= BRUTE_FORCE_BUDGET
    return None  # eft: a certified bracket is an honest answer at any size


def _check_achievability(exp, rows, pb: Problem):
    ns = exp["n_grid"]
    out = _expect_rows(rows, len(ns))
    alpha = pb.ebar + Fraction(exp["gamma"])
    for n, r in zip(ns, rows):
        tag = f"n={n}"
        threshold = n * pb.v_sum * alpha
        want = pb.tail(n, threshold)
        if r["n"] != n or not _close(r["discard_prob"], want):
            out.append(f"{tag}: ({r['n']}, {r['discard_prob']!r}) vs reference {want!r}")
            continue
        cost, exact = r["cost"], r["exact"]
        if not isinstance(cost, Fraction) or r["cost_per_job"] != cost / n:
            out.append(f"{tag}: cost {cost!r}, cost_per_job {r['cost_per_job']!r}")
            continue
        expected = _must_be_exact(exp, n, pb)
        if expected is not None and exact is not expected:
            out.append(f"{tag}: exact={exact}, expected {expected}")
        if exact:
            if r["cost_lower"] != cost:
                out.append(f"{tag}: exact row with cost_lower {r['cost_lower']} != cost {cost}")
            out.extend(_cost_problems(tag, exp["scheduler"], n, threshold, cost, pb))
        else:
            lower = Fraction(max_kept_total(n, threshold, pb)) / pb.v_sum
            if r["cost_lower"] != lower or cost != lower + pb.slack:
                out.append(f"{tag}: bracket ({r['cost_lower']}, {cost}) vs ({lower}, {lower + pb.slack})")
    return out


def _check_cost(exp, rows, pb: Problem):
    if len(rows) != 1:
        return _expect_rows(rows, 1)
    r, n, alpha = rows[0], exp["n"], Fraction(exp["alpha"])
    threshold = n * pb.v_sum * alpha
    out = []
    want = pb.tail(n, threshold)
    if r["n"] != n or r["alpha"] != alpha or not _close(r["discard_prob"], want):
        out.append(f"row ({r['n']}, {r['alpha']}, {r['discard_prob']!r}) vs reference {want!r}")
    cost = r["cost"]
    if not isinstance(cost, Fraction) or r["cost_per_job"] != cost / n:
        return out + [f"cost {cost!r}, cost_per_job {r['cost_per_job']!r}"]
    return out + _cost_problems(f"n={n}", exp["scheduler"], n, threshold, cost, pb)


def _check_average_case(exp, rows, pb: Problem):
    if len(rows) != 1:
        return _expect_rows(rows, 1)
    r, n = rows[0], exp["n"]
    lo = _mean_total(pb.process, pb.alphabet, n) / (n * float(pb.v_sum))
    hi = lo + pb.t_max / (n * float(pb.v_min))
    out = []
    if r["n"] != n or r["trials"] != exp["trials"]:
        out.append(f"row (n={r['n']}, trials={r['trials']})")
    if not (abs(r["bracket_lo"] - lo) <= RTOL * lo and abs(r["bracket_hi"] - hi) <= RTOL * hi):
        out.append(f"bracket ({r['bracket_lo']!r}, {r['bracket_hi']!r}) vs ({lo!r}, {hi!r})")
    se, mean = r["std_error"], r["mc_mean_span_per_job"]
    if not (se > 0 and math.isfinite(se)):
        out.append(f"std_error {se!r}")
    elif not lo - 3 * se <= mean <= hi + 3 * se:
        out.append(f"mean {mean!r} outside [{lo} - 3 SE, {hi} + 3 SE], SE {se!r}")
    return out


CHECKS = {
    "validate": _check_validate,
    "scan": _check_scan,
    "converse": _check_converse,
    "second-order": _check_second_order,
    "achievability": _check_achievability,
    "cost": _check_cost,
    "average-case": _check_average_case,
}
