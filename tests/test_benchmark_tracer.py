"""The names and parameters the benchmark's tracer looks up in the package still exist.

`perfbench/tracing.py` wraps package functions and methods by name, and its
counters read their arguments by parameter name; a renamed or deleted one
would only surface as a crash of a traced benchmark run, so a small table
of every CLI kind is also run traced here.  The tracing module imports only
the standard library, so it is loaded by path, without the rest of the
benchmark.
"""

import importlib.util
import inspect
import json
from pathlib import Path

import pytest

import stochsched
import stochsched.cli
from stochsched import stochastic

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _public_function(layer: str, name: str) -> bool:
    module = getattr(stochsched, layer)
    obj = vars(module).get(name)
    return not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__


def test_query_methods_are_defined_on_sum_distribution(tracing):
    for name in tracing.QUERY_METHODS:
        assert inspect.isfunction(stochastic.SumDistribution.__dict__.get(name)), name


def test_sum_law_keys_name_process_classes(tracing):
    assert _public_function("stochastic", "sum_distribution")
    for name in tracing.SUM_LAW:
        assert inspect.isclass(vars(stochastic).get(name)), name


# Functions deleted from the package on purpose whose spans the benchmark still
# renames; such a span reads 0, and the benchmark's next change drops the entry.
_RETIRED = {"schedulers.brute_force_optimal"}


def test_renamed_spans_name_public_functions(tracing):
    for key in tracing.RENAMES:
        layer, name = key.split(".")
        assert layer in tracing.LAYERS, key
        assert _public_function(layer, name) != (key in _RETIRED), key


_IID = {
    "alphabet": {"a": 1, "b": 3},
    "machines": ["1", "2"],
    "process": {"kind": "iid", "probs": {"a": "1/2", "b": "1/2"}},
}
_MARKOV = {
    **_IID,
    "process": {"kind": "markov", "symbols": ["a", "b"], "transition": [["1/2", "1/2"], ["1/4", "3/4"]], "initial": ["1", "0"]},
}
_MARKOV_AND_IID = {
    **_IID,
    "process": {
        "kind": "mixture",
        "components": [{"weight": "1/3", "process": _MARKOV["process"]}, {"weight": "2/3", "process": _IID["process"]}],
    },
}
_TABLES = [
    *(
        (_IID, experiment)
        for experiment in (
            {"kind": "validate"},
            {"kind": "scan", "alpha_grid": ["1/2", "1"], "n_grid": [2, 4, 8]},
            {"kind": "achievability", "gamma": "1/10", "n_grid": [3, 40], "budget": 100},  # n=40 takes the bracket
            {"kind": "converse", "gap": "1/10", "n_grid": [4]},
            {"kind": "second-order", "epsilon": 0.1, "n_grid": [4, 8]},
            *({"kind": "average-case", "n": 6, "trials": 20, "scheduler": s} for s in ("eft", "lpt", "brute-force")),
            *({"kind": "cost", "n": 4, "alpha": "1", "scheduler": s} for s in ("eft", "lpt", "brute-force")),
        )
    ),
    # the chain's rate is its stationary mean: each of these tables solves for it
    (_MARKOV_AND_IID, {"kind": "validate"}),
    (_MARKOV, {"kind": "converse", "gap": "1/10", "n_grid": [4, 8]}),
]


def test_traced_tables_run_and_feed_every_counter(tracing, tmp_path, capsys):
    # a renamed parameter that a counter reads would raise in flush()
    tracer = tracing.Tracer()
    tracer.install(stochsched)
    solves = []
    try:
        for i, (problem, experiment) in enumerate(_TABLES):
            path = tmp_path / f"{i}.json"
            path.write_text(json.dumps({"problem": problem, "experiment": experiment}))
            begin = tracer.mark()
            assert stochsched.cli.main([experiment["kind"], "--config", str(path), "--format", "jsonl"]) == 0
            tracer.flush()
            solves.append(tracer.aggregate(begin, tracer.mark()).get("stochastic.stationary", {}).get("calls", 0))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert solves[-2] > 0 and solves[-1] > 0
    for counter in (
        "schedulers.batch_eft.row_jobs",
        "stochastic.sample.draws",
        "schedulers.cost_exact.multisets",
        "schedulers.max_kept.lattice_points",
        "stochastic.sum_law.iid.lattice_points",
        "cli.emit.bytes",
    ):
        assert tracer.counts[counter] > 0, counter
