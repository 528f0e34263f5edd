"""The names the benchmark's tracer looks up in the package still exist.

`perfbench/tracing.py` wraps package functions and methods by name; a
renamed or deleted one would only surface as a crash of a traced benchmark
run.  The module imports only the standard library, so it is loaded here by
path, without the rest of the benchmark.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

import stochsched
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


def test_renamed_spans_name_public_functions(tracing):
    for key in tracing.RENAMES:
        layer, name = key.split(".")
        assert layer in tracing.LAYERS, key
        assert _public_function(layer, name), key
