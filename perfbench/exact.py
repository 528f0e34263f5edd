"""Exact rational helpers shared by the workload generator and the output checks.

Standard library only: the benchmark times `import stochsched.cli`, so
nothing imported before that may pull in numpy.  Every quantity here is
computed without calling the package under test.
"""

from __future__ import annotations

from fractions import Fraction


def fractions(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


def stationary(transition: list[list[Fraction]]) -> list[Fraction]:
    """Stationary vector of an irreducible chain: fix pi_0 = 1, solve, normalise.

    Solves pi_j = sum_i pi_i P[i][j] for j >= 1 by Gauss-Jordan elimination
    with pi_0 pinned to 1, then divides by the total.
    """
    k = len(transition)
    if k == 1:
        return [Fraction(1)]
    # unknowns pi_1..pi_{k-1}; equation j: sum_{i>=1} pi_i (P[i][j] - [i==j]) = -P[0][j]
    rows = [
        [transition[i][j] - (1 if i == j else 0) for i in range(1, k)] + [-transition[0][j]]
        for j in range(1, k)
    ]
    size = k - 1
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(size):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    pi = [Fraction(1)] + [rows[r][size] for r in range(size)]
    total = sum(pi)
    return [p / total for p in pi]


def components(spec: dict) -> list[tuple[Fraction, dict]]:
    """Flatten a process spec into weighted IID/Markov component specs."""
    if spec["kind"] == "mixture":
        out = []
        for comp in spec["components"]:
            w = Fraction(comp["weight"])
            out.extend((w * sw, sub) for sw, sub in components(comp["process"]))
        return out
    return [(Fraction(1), spec)]


def initial_vector(spec: dict) -> list[Fraction]:
    transition = [fractions(row) for row in spec["transition"]]
    if spec["initial"] == "stationary":
        return stationary(transition)
    return fractions(spec["initial"])


def job_mean(spec: dict, alphabet: dict[str, int]) -> Fraction:
    """Long-run mean time of one job for an IID or Markov component."""
    if spec["kind"] == "iid":
        return sum((Fraction(p) * alphabet[s] for s, p in spec["probs"].items()), Fraction(0))
    pi = stationary([fractions(row) for row in spec["transition"]])
    return sum((p * alphabet[s] for s, p in zip(spec["symbols"], pi)), Fraction(0))


def rates(spec: dict, alphabet: dict[str, int], speeds: list[Fraction]) -> tuple[Fraction, Fraction]:
    """(ebar, ebar_under): largest and smallest component rate mean / v_sum."""
    v_sum = sum(speeds, Fraction(0))
    means = [job_mean(sub, alphabet) / v_sum for w, sub in components(spec) if w > 0]
    return max(means), min(means)
