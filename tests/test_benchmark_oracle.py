"""The benchmark's reference law and the tests' direct DP give one law of T_n.

`perfbench/verify.py` checks every benchmark table's probabilities against
its own copy of the direct dynamic programme, `reference_law`; tier-1 checks
the package against `tests/oracles.sum_law_by_direct_dp`.  If the two
oracles agree, both gates check the same law.  verify.py imports its sibling
`exact` by bare name, so it is loaded by path with `perfbench/` briefly on
`sys.path`.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from stochsched import IIDModel, JobAlphabet, MarkovModel, MixtureModel
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
