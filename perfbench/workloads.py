"""Seeded table generators for the four benchmark workloads.

A workload is a fixed *round* of table templates that the benchmark runs
back to back, round after round.  The seed draws each table's alphabet,
probabilities, machine speeds, grids, trials and scheduler; the template
fixes the size class (CLI kind, process kind, k, time spread, n range,
trials x n), so the work in one round is comparable across seeds while the
inputs differ.  No two tables of a run, the warm-up table included, ask for
the same (process, n) law: a CLI user runs one process per table, so a cache
shared across tables must not show a gain that user would not get.

Standard library only (see exact.py).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from exact import rates

SYMBOLS = "abcdefgh"
SPEEDS = ("1", "1", "4/3", "3/2", "2", "2", "5/2", "3")


@dataclass
class Table:
    template: str
    config: dict
    sizes: dict

    @property
    def kind(self) -> str:
        return self.config["experiment"]["kind"]


# ---------------------------------------------------------------------------
# random draws


def _split(rng: random.Random, total: int, k: int, floor: int) -> list[int]:
    """k integers >= floor summing to total, from uniform cut points."""
    free = total - k * floor
    cuts = sorted(rng.randint(0, free) for _ in range(k - 1))
    return [floor + b - a for a, b in zip([0, *cuts], [*cuts, free])]


def _probs(rng, k, den, floor) -> list[str]:
    return [str(Fraction(c, den)) for c in _split(rng, den, k, floor)]


def _alphabet(rng, k: int, spread: int) -> dict[str, int]:
    t_min = rng.randint(1, 2)
    times = [t_min, t_min + spread, *rng.sample(range(t_min + 1, t_min + spread), k - 2)]
    rng.shuffle(times)
    return dict(zip(SYMBOLS, times))


def _machines(rng, m: int) -> list[str]:
    return [rng.choice(SPEEDS) for _ in range(m)]


def _iid(rng, symbols) -> dict:
    return {"kind": "iid", "probs": dict(zip(symbols, _probs(rng, len(symbols), 1000, 40)))}


def _markov(rng, symbols, stationary: bool = False) -> dict:
    k = len(symbols)
    initial = "stationary" if stationary else _probs(rng, k, 20, 1)
    return {
        "kind": "markov",
        "symbols": list(symbols),
        "transition": [_probs(rng, k, 20, 1) for _ in range(k)],
        "initial": initial,
    }


def _mixture(rng, *parts) -> dict:
    weights = _probs(rng, len(parts), 10, 2)
    return {
        "kind": "mixture",
        "components": [{"weight": w, "process": p} for w, p in zip(weights, parts)],
    }


def _process(rng, kind: str, symbols) -> dict:
    if kind == "iid":
        return _iid(rng, symbols)
    if kind in ("markov", "markov-st"):
        return _markov(rng, symbols, stationary=kind == "markov-st")
    if kind == "mix-markov-iid":
        return _mixture(rng, _markov(rng, symbols), _iid(rng, symbols))
    if kind == "mix-markov-markov":
        return _mixture(rng, _markov(rng, symbols), _markov(rng, symbols))
    if kind == "mix-iid-iid":
        return _mixture(rng, _iid(rng, symbols), _iid(rng, symbols))
    raise ValueError(kind)


def _grid(rng, base: list[int], jitter: float = 0.02) -> list[int]:
    """Base grid with each length moved by up to +-jitter; stays strictly increasing."""
    out = []
    for b in base:
        n = max(1, round(b * (1 + rng.uniform(-jitter, jitter))))
        out.append(max(n, out[-1] + 1) if out else n)
    return out


def _fraction_list(values) -> list[str]:
    return [str(v) for v in values]


# ---------------------------------------------------------------------------
# templates


@dataclass(frozen=True)
class Template:
    name: str
    kind: str  # CLI kind
    process: str  # iid | markov | markov-st (stationary start) | mix-*
    k: int
    m: int
    spread: int
    base: tuple  # n grid (one entry for single-n kinds)
    trials: int = 0
    scheduler: str = ""
    budget: int = 0
    speeds: tuple = ()  # fixed machine speeds; drawn from SPEEDS when empty


def _problem(rng, t: Template) -> tuple[dict, list[Fraction]]:
    alphabet = _alphabet(rng, t.k, t.spread)
    machines = list(t.speeds) or _machines(rng, t.m)
    process = _process(rng, t.process, list(alphabet))
    return {"alphabet": alphabet, "machines": machines, "process": process}, [Fraction(v) for v in machines]


def _experiment(rng, t: Template, problem: dict, speeds, scheduler: str) -> dict:
    ebar, _ = rates(problem["process"], problem["alphabet"], speeds)
    exp: dict = {"kind": t.kind}
    if t.kind == "scan":
        factors = [Fraction(9, 10), Fraction(1), Fraction(21, 20), Fraction(11, 10), Fraction(6, 5), Fraction(3, 2)]
        exp.update(alpha_grid=_fraction_list(ebar * f for f in factors), n_grid=_grid(rng, list(t.base)), workers=1)
    elif t.kind == "converse":
        exp.update(gap=str(ebar * Fraction(rng.randint(2, 10), 100)), n_grid=_grid(rng, list(t.base)))
    elif t.kind == "second-order":
        exp.update(epsilon=rng.choice([0.2, 0.1, 0.05, 0.01, 0.001]), n_grid=_grid(rng, list(t.base)))
    elif t.kind == "average-case":
        (n,) = _grid(rng, list(t.base))
        exp.update(n=n, trials=_grid(rng, [t.trials])[0], scheduler=scheduler, master_seed=rng.randrange(2**31))
    elif t.kind == "achievability":
        gamma = ebar * Fraction(rng.randint(8, 12), 100)
        exp.update(gamma=str(gamma), n_grid=_grid(rng, list(t.base)), scheduler=scheduler, budget=t.budget)
    elif t.kind == "cost":
        # threshold at a fixed share of the time range, so the kept share of
        # multisets (and the cost of enumerating them) does not follow the probabilities
        (n,) = _grid(rng, list(t.base))
        times = problem["alphabet"].values()
        per_job = min(times) + Fraction(rng.randint(55, 60), 100) * (max(times) - min(times))
        exp.update(n=n, alpha=str(per_job / sum(speeds)), scheduler=scheduler)
    elif t.kind != "validate":
        raise ValueError(t.kind)
    return exp


def _sizes(t: Template, config: dict) -> dict:
    """Size parameters recorded beside each table so runs compare across PRs."""
    exp = config["experiment"]
    problem = config["problem"]
    k = len(problem["alphabet"])
    times = problem["alphabet"].values()
    spread = max(times) - min(times)
    ns = exp.get("n_grid") or ([exp["n"]] if "n" in exp else [])
    sizes = {
        "kind": exp["kind"],
        "process": t.process,
        "k": k,
        "m": len(problem["machines"]),
        "n_grid": ns,
        "time_spread": spread,
        "lattice_points": sum(n * spread + 1 for n in ns),
    }
    if exp["kind"] == "scan":
        sizes["alphas"] = len(exp["alpha_grid"])
    if exp["kind"] == "average-case":
        sizes["trials"] = exp["trials"]
        sizes["trials_x_n"] = exp["trials"] * exp["n"]
    if exp["kind"] in ("cost", "achievability"):
        budget = exp.get("budget", 2_000_000)
        multisets = [math.comb(n + k - 1, k - 1) for n in ns]
        sizes["multisets"] = sum(multisets)
        sizes["rows_over_budget"] = sum(1 for c, n in zip(multisets, ns) if c * n > budget)
    if "scheduler" in exp:
        sizes["scheduler"] = exp["scheduler"]
    return sizes


def _law_keys(config: dict) -> list:
    """(process, n) pairs the table asks for; n is None for kinds without a length."""
    key = json.dumps(config["problem"]["process"], sort_keys=True)
    exp = config["experiment"]
    ns = exp.get("n_grid") or ([exp["n"]] if "n" in exp else [None])
    return [(key, n) for n in ns]


# Size classes per workload, sized so that a 15-second run completes about a
# hundred tables (about 35 on sampled-eft, whose tables are larger).  Each
# round has an odd number of templates, so the median table sits inside a
# size class rather than on the gap between two.  Seed costs on a 2-core x86
# machine: IID sum law with spread 9 takes 0.06 s at n=2000 and 0.2 s at
# n=4000; Markov k=3 takes 0.07 s at n=1000 and 0.23 s at n=2000;
# average-case with about 2.5 million draws takes 0.3 s on IID streams and
# 0.55 to 0.65 s with a Markov component.
WORKLOADS: dict[str, list[Template]] = {
    # IID streams, wide spreads, n up to a few thousand: sum law and tail
    # queries do the work; the schedulers and the sampler do none.
    "tails-iid": [
        Template("scan-k3", "scan", "iid", 3, 2, 9, (250, 500, 1000, 2000)),
        Template("converse-k3", "converse", "iid", 3, 3, 9, (700, 1400, 2100)),
        Template("second-order-k3", "second-order", "iid", 3, 2, 9, (300, 600, 1200, 2400)),
        Template("scan-small", "scan", "iid", 3, 2, 3, (100, 200, 400, 800)),
        Template("scan-k4", "scan", "iid", 4, 3, 12, (200, 400, 800, 1500)),
        Template("converse-k5", "converse", "iid", 5, 2, 6, (1000, 2000, 3000)),
        Template("second-order-k4", "second-order", "iid", 4, 3, 12, (300, 900, 1600)),
    ],
    # k=3 Markov chains and mixtures with a Markov component: the per-step
    # Markov DP and the mixture merge of the same sum-law layer.
    "tails-markov": [
        Template("scan-markov", "scan", "markov", 3, 2, 9, (150, 300, 600, 1100)),
        Template("converse-markov", "converse", "markov", 3, 3, 9, (400, 800, 1200)),
        Template("scan-mix-markov-iid", "scan", "mix-markov-iid", 3, 2, 9, (250, 500, 1000)),
        Template("converse-small", "converse", "markov", 3, 2, 3, (100, 200, 400)),
        Template("converse-mix-markov-markov", "converse", "mix-markov-markov", 3, 2, 6, (300, 600, 900)),
        Template("scan-markov-narrow", "scan", "markov", 3, 3, 4, (400, 800, 1600)),
        Template("scan-markov-stationary", "scan", "markov-st", 3, 2, 6, (300, 600, 1200)),
    ],
    # average-case with eft and lpt, trials x n about 2.5 million: sampler,
    # batch EFT and the exact Markov mean do the work; no sum law.
    "sampled-eft": [
        Template("avg-iid", "average-case", "iid", 3, 3, 9, (1000,), trials=2500),
        Template("avg-iid-k4", "average-case", "iid", 4, 2, 12, (500,), trials=5000),
        Template("avg-iid-k5", "average-case", "iid", 5, 3, 8, (800,), trials=3100),
        Template("avg-mix-iid-iid", "average-case", "mix-iid-iid", 3, 4, 9, (1000,), trials=2500),
        Template("avg-markov", "average-case", "markov", 3, 3, 9, (600,), trials=4200),
        Template("avg-markov-stationary", "average-case", "markov-st", 3, 2, 6, (250,), trials=10000),
        Template("avg-mix-markov-iid", "average-case", "mix-markov-iid", 3, 3, 9, (500,), trials=5000),
    ],
    # small-n exact worst-case costs: multiset enumeration, scalar
    # schedulers, Fraction makespans, the brute-force DFS and the
    # reachability DP.  Achievability grids cross their budgets, so some
    # rows take the certified bracket.  The eft tables run on one machine:
    # there the EFT makespan does not depend on job order, so the package's
    # one-order-per-multiset cost is the true worst case and the enumeration
    # oracle can check it exactly.  On two or more machines the package
    # labels that cost exact while enumeration finds a larger one (the
    # eft-order defect that verify.py reports), and a workload must not fail.
    # Brute force runs on fixed speeds: which machines are identical changes
    # its pruning, and so its cost, several-fold from one draw to the next.
    "exact-cost": [
        Template("validate-iid", "validate", "iid", 3, 3, 9, ()),
        Template("validate-mix", "validate", "mix-markov-iid", 3, 2, 6, ()),
        Template("validate-markov", "validate", "markov-st", 4, 3, 7, ()),
        Template("cost-bf", "cost", "iid", 3, 3, 4, (9,), scheduler="brute-force", speeds=("1", "3/2", "2")),
        Template("cost-lpt", "cost", "markov", 3, 2, 5, (60,), scheduler="lpt"),
        Template("cost-eft-small", "cost", "iid", 2, 1, 3, (10,), scheduler="eft"),
        Template("ach-eft", "achievability", "iid", 2, 1, 3, (10, 12, 50, 200, 800), scheduler="eft", budget=20_000),
        Template("ach-lpt", "achievability", "markov", 3, 3, 6, (16, 40, 80, 320), scheduler="lpt", budget=60_000),
        Template("ach-bf", "achievability", "iid", 3, 2, 4, (6, 9, 12, 400), scheduler="brute-force", budget=40_000,
                 speeds=("1", "5/2")),
    ],
}

# Untimed warm-up table, drawn before the rounds: at least as large as any
# timed table, so the process has grown to its working size before timing.
WARMUP: dict[str, Template] = {
    "tails-iid": Template("warmup", "converse", "iid", 3, 2, 10, (1200, 2600)),
    "tails-markov": Template("warmup", "converse", "markov", 3, 2, 9, (600, 1400)),
    "sampled-eft": Template("warmup", "average-case", "iid", 3, 4, 12, (1000,), trials=3200),
    "exact-cost": Template("warmup", "cost", "markov", 3, 3, 5, (66,), scheduler="lpt"),
}


def _table(rng, t: Template, scheduler: str, seen: set) -> Table:
    while True:
        problem, speeds = _problem(rng, t)
        config = {"problem": problem, "experiment": {}}
        config["experiment"] = _experiment(rng, t, problem, speeds, scheduler)
        laws = _law_keys(config)
        if not seen.intersection(laws):
            seen.update(laws)
            return Table(t.name, config, _sizes(t, config))


def _schedulers(rng, templates: list[Template]) -> list[str]:
    """Balanced eft/lpt draw for average-case templates; fixed elsewhere."""
    sampled = [i for i, t in enumerate(templates) if t.kind == "average-case"]
    pool = ["eft", "lpt"] * (len(sampled) // 2) + ["eft"] * (len(sampled) % 2)
    rng.shuffle(pool)
    out = [t.scheduler for t in templates]
    for i, s in zip(sampled, pool):
        out[i] = s
    return out


def generate(workload: str, seed: int, rounds: int) -> tuple[Table, list[list[Table]]]:
    """(warm-up table, rounds of tables), fully determined by workload and seed."""
    templates = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    seen: set = set()
    warm = WARMUP[workload]
    warmup = _table(rng, warm, warm.scheduler or "eft", seen)
    out = []
    for _ in range(rounds):
        schedulers = _schedulers(rng, templates)
        out.append([_table(rng, t, s, seen) for t, s in zip(templates, schedulers)])
    return warmup, out
