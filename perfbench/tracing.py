"""Spans around the package's public functions, installed from the benchmark.

`Tracer.install` wraps every public function of the six layer modules and
rebinds each wrapper wherever the package binds the original, so the
`from .stochastic import sum_distribution`-style copies in `schedulers`,
`spectrum`, `second_order` and `cli` are traced as well, and so are calls
made through module globals such as `schedulers.schedule` and
`schedulers.makespan` inside `cost_exact`.  The `SumDistribution` query
methods are wrapped on the class.

A span is (name, start, end, parent), kept in flat arrays and written out at
the end.  Counts that need the arguments or results (lattice points,
subnormal masses, draws, rows x jobs, multisets) are derived after each
table, outside its timed interval.  A layer's self time is its span time
minus the time of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "spectrum", "second_order", "stochastic", "schedulers", "core")

# Span names used by the per-layer metrics; other functions keep "<layer>.<function>".
RENAMES = {
    "stochastic.sample_index_matrix": "stochastic.sample",
    "stochastic.mean_total_time_exact": "stochastic.mean_total_exact",
    "stochastic.stationary_distribution": "stochastic.stationary",
    "schedulers.batch_eft_loads": "schedulers.batch_eft",
    "schedulers.brute_force_optimal": "schedulers.brute_force",
    "schedulers.max_kept_total_time": "schedulers.max_kept",
    "spectrum.spectral_scan": "spectrum.scan",
    "spectrum.converse_experiment": "spectrum.converse",
    "spectrum.achievability_experiment": "spectrum.achievability",
    "spectrum.average_case_bracket": "spectrum.average_case",
    "second_order.second_order_table": "second_order.table",
}
SUM_LAW = {"IIDModel": "iid", "MarkovModel": "markov", "MixtureModel": "mixture"}
QUERY_METHODS = ("support", "mass_at", "prob_above", "prob_below", "mean", "total_mass", "upper_quantile_total")
SMALLEST_NORMAL = 2.2250738585072014e-308


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self._stack = [-1]
        self._pending: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self._seen_laws: set = set()
        self._restore: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def mark(self) -> int:
        return len(self.start)

    # -- installation ------------------------------------------------------

    def _wrap(self, fn, name: str, name_of=None):
        start, end, names, parent = self.start, self.end, self.name, self.parent
        stack, pending, clock = self._stack, self._pending, time.perf_counter
        fixed = self._id(name)
        derive = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            names.append(fixed if name_of is None else name_of(args))
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                stack.pop()
                pending.append((name, derive, fn, args, kwargs, None, exc))
                raise
            end[idx] = clock()
            stack.pop()
            if derive is not None:
                pending.append((name, derive, fn, args, kwargs, result, None))
            return result

        return traced

    def install(self, package) -> None:
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = RENAMES.get(f"{layer}.{attr}", f"{layer}.{attr}")
                if name == "stochastic.sum_distribution":
                    ids = {cls: self._id(f"stochastic.sum_law.{kind}") for cls, kind in SUM_LAW.items()}
                    wrappers[obj] = self._wrap(obj, "stochastic.sum_law", lambda a, ids=ids: ids[type(a[0]).__name__])
                else:
                    wrappers[obj] = self._wrap(obj, name)
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        cls = modules["stochastic"].SumDistribution
        for attr in QUERY_METHODS:
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, f"stochastic.sum_query.{attr}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- counts derived after each table ------------------------------------

    def flush(self) -> None:
        """Derive argument/result counts for the spans closed since the last flush."""
        for name, derive, fn, args, kwargs, result, exc in self._pending:
            if exc is not None:
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
            if derive is not None:
                bound = inspect.signature(fn).bind(*args, **kwargs)
                bound.apply_defaults()
                derive(self, bound.arguments, result, exc)
        self._pending.clear()

    # -- aggregation --------------------------------------------------------

    def aggregate(self, begin: int, stop: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds over [begin, stop)."""
        child = [0.0] * (stop - begin)
        for idx in range(stop - 1, begin - 1, -1):
            p = self.parent[idx]
            if p >= begin:
                child[p - begin] += self.end[idx] - self.start[idx]
        out: dict[str, dict[str, float]] = {}
        for idx in range(begin, stop):
            dur = self.end[idx] - self.start[idx]
            row = out.setdefault(self.names[self.name[idx]], {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child[idx - begin]
        return out

    def dump(self, path) -> None:
        """Write spans as a JSON header line followed by the four arrays in native byte order."""
        arrays = (self.start, self.end, self.name, self.parent)
        header = {
            "names": self.names,
            "arrays": [["start", "d"], ["end", "d"], ["name", "l"], ["parent", "l"]],
            "count": len(self.start),
            "byteorder": sys.byteorder,
            "itemsize": [a.itemsize for a in arrays],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for a in arrays:
                a.tofile(fh)


# ---------------------------------------------------------------------------
# counters: (tracer, bound arguments, result, exception)


def _spread_points(alphabet, symbols, n: int) -> int:
    times = [alphabet.time_of(s) for s in symbols]
    return n * (max(times) - min(times)) + 1


def _sum_law(tr: Tracer, a, result, exc) -> None:
    process, n = a["process"], a["n"]
    kind = SUM_LAW.get(type(process).__name__, "other")
    key = (repr(process), n)
    if key in tr._seen_laws:
        tr.counts["stochastic.sum_law.repeat_calls"] += 1
    tr._seen_laws.add(key)
    if kind == "mixture" or exc is not None:
        return
    tr.counts[f"stochastic.sum_law.{kind}.lattice_points"] += _spread_points(a["alphabet"], process.symbols, n)
    tr.counts[f"stochastic.sum_law.{kind}.subnormal_points"] += sum(
        1 for v in result.mass.values() if 0.0 < v < SMALLEST_NORMAL
    )


def _sample(tr: Tracer, a, result, exc) -> None:
    mixture = type(a["process"]).__name__ == "MixtureModel"
    tr.counts["stochastic.sample.draws"] += a["trials"] * (a["n"] + (1 if mixture else 0))


def _batch_eft(tr: Tracer, a, result, exc) -> None:
    shape = getattr(a["times"], "shape", (0, 0))
    tr.counts["schedulers.batch_eft.row_jobs"] += shape[0] * shape[1]


def _cost_exact(tr: Tracer, a, result, exc) -> None:
    k = len(a["problem"].alphabet.symbols)
    tr.counts["schedulers.cost_exact.multisets"] += math.comb(a["discard"].n + k - 1, k - 1)
    if exc is not None and type(exc).__name__ == "ResourceError":
        tr.counts["schedulers.cost_exact.budget_refusals"] += 1


def _max_kept(tr: Tracer, a, result, exc) -> None:
    alphabet = a["problem"].alphabet
    tr.counts["schedulers.max_kept.lattice_points"] += _spread_points(alphabet, alphabet.symbols, a["discard"].n)


def _achievability(tr: Tracer, a, result, exc) -> None:
    for row in result or ():
        tr.counts["spectrum.achievability.rows_exact" if row.exact else "spectrum.achievability.rows_bracket"] += 1


def _emit(tr: Tracer, a, result, exc) -> None:
    tr.counts["cli.emit.bytes"] += len(result or "")


_COUNTERS = {
    "stochastic.sum_law": _sum_law,
    "stochastic.sample": _sample,
    "schedulers.batch_eft": _batch_eft,
    "schedulers.cost_exact": _cost_exact,
    "schedulers.max_kept": _max_kept,
    "spectrum.achievability": _achievability,
    "cli.emit": _emit,
}
