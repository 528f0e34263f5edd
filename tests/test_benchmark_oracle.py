"""The benchmark's checks and the package agree on the law of T_n and on exact routes.

`perfbench/verify.py` checks every benchmark table's probabilities against
its own copy of the direct dynamic programme, `reference_law`; tier-1 checks
the package against `tests/oracles.sum_law_by_direct_dp`.  If the two
oracles agree, both gates check the same law.  verify.py also decides which
achievability rows must be exact; that decision must follow the package's
budgets, or the benchmark fails correct rows.  verify.py imports its sibling
`exact` by bare name, so it is loaded by path with `perfbench/` briefly on
`sys.path`.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from stochsched import (
    IIDModel,
    JobAlphabet,
    MachineSet,
    MarkovModel,
    MixtureModel,
    SchedulingProblem,
    achievability_experiment,
    schedulers,
)
from stochsched.cli import _emit_process

from .oracles import sum_law_by_direct_dp

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def verify():
    sys.path.insert(0, str(_PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_verify", _PERFBENCH / "verify.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(_PERFBENCH))
        sys.modules.pop("exact", None)
    return module


_ALPHABET = JobAlphabet({"a": 2, "b": 5, "c": 11})
_IID = IIDModel({"a": Fraction(1, 5), "b": Fraction(1, 2), "c": Fraction(3, 10)})
_CHAIN = MarkovModel(
    ("a", "b", "c"),
    (
        (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)),
        (Fraction(1, 10), Fraction(4, 5), Fraction(1, 10)),
        (Fraction(0), Fraction(2, 3), Fraction(1, 3)),
    ),
    (Fraction(0), Fraction(0), Fraction(1)),
)
_PROCESSES = {
    "iid": _IID,
    "markov": _CHAIN,
    "mixture": MixtureModel(((Fraction(1, 3), _CHAIN), (Fraction(2, 3), _IID))),
}


@pytest.mark.parametrize("case", sorted(_PROCESSES))
@pytest.mark.parametrize("n", [1, 37, 300])
def test_reference_law_matches_direct_dp(verify, case, n):
    process = _PROCESSES[case]
    offset, masses = verify.reference_law(_emit_process(process), dict(_ALPHABET.proc_time), n)
    reference = {offset + i: float(p) for i, p in enumerate(masses) if p > 0.0}
    oracle = sum_law_by_direct_dp(process, _ALPHABET, n)
    assert set(reference) == set(oracle)
    for total, p in oracle.items():
        assert abs(reference[total] - p) <= 1e-12 * p


def test_brute_force_budget_matches_the_package(verify):
    assert verify.BRUTE_FORCE_BUDGET == schedulers._BRUTE_FORCE_BUDGET


def test_must_be_exact_matches_achievability_routes(verify):
    # two symbols: n(n+1) work units against budget 30 flips between n=5 and n=6;
    # m^n against _BRUTE_FORCE_BUDGET = 10^7 flips between n=23 and 24 (m=2) and n=14 and 15 (m=3)
    alphabet = JobAlphabet({"a": 1, "b": 3})
    process = IIDModel({"a": Fraction(1, 2), "b": Fraction(1, 2)})
    n_grid = [5, 6, 14, 15, 23, 24]
    routes = set()
    for m in (1, 2, 3):
        speeds = ["1", "3/2", "2"][:m]
        problem = SchedulingProblem(alphabet, MachineSet(tuple(Fraction(v) for v in speeds)), process)
        pb = verify.Problem(
            {"problem": {"alphabet": dict(alphabet.proc_time), "machines": speeds, "process": _emit_process(process)}}
        )
        for name in ("lpt", "brute-force"):
            for budget in (30, 2_000_000):
                rows = achievability_experiment(problem, Fraction(1, 10), name, n_grid, budget=budget)
                for n, row in zip(n_grid, rows):
                    expected = verify._must_be_exact({"scheduler": name, "budget": budget}, n, pb)
                    assert row.exact is expected, (name, m, budget, n)
                    routes.add((name, m, budget, n, row.exact))
    assert {("lpt", 1, 30, 5, True), ("lpt", 1, 30, 6, False)} <= routes
    assert {("brute-force", 2, 2_000_000, 23, True), ("brute-force", 2, 2_000_000, 24, False)} <= routes
    assert {("brute-force", 3, 2_000_000, 14, True), ("brute-force", 3, 2_000_000, 15, False)} <= routes
    assert ("brute-force", 1, 2_000_000, 24, True) in routes
