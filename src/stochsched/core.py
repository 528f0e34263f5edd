"""Deterministic scheduling domain: job alphabets, uniform machines, the makespan bracket.

Machines run at individual speeds; a job with processing requirement t
occupies a machine of speed v for t/v time units.  All quantities here are
exact: processing requirements are positive integers, speeds are positive
rationals, and every derived time (finish time, bound) is a
`fractions.Fraction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral, Rational
from typing import Mapping

import numpy as np

from .errors import DomainError


def as_fraction(value) -> Fraction:
    """Convert ints, rationals, decimal/ratio strings, and floats to an exact Fraction.

    Strings accept both decimal ("1.5") and ratio ("3/2") notation.  Floats
    convert to the exact rational value of the double, so callers that need a
    tame denominator should pass strings or Fractions.
    """
    if isinstance(value, bool):
        raise DomainError(f"expected a rational number, got {value!r}")
    if isinstance(value, (int, Rational)):
        return Fraction(value)
    if isinstance(value, (str, float)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"cannot interpret {value!r} as a rational: {exc}") from None
    raise DomainError(f"expected a rational number, got {type(value).__name__}")


def _positive_int(value, what: str) -> int:
    """int(value) for an integer >= 1 of any integral type (numpy's included) but bool; else DomainError."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise DomainError(f"{what} must be a positive integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class JobAlphabet:
    """Finite set of job types with integer processing requirements."""

    proc_time: Mapping[str, int]

    def __post_init__(self):
        if not self.proc_time:
            raise DomainError("job alphabet must contain at least one symbol")
        clean = {}
        for sym, t in self.proc_time.items():
            if not isinstance(sym, str) or not sym:
                raise DomainError(f"alphabet symbol {sym!r} must be a non-empty string")
            clean[sym] = _positive_int(t, f"processing time for {sym!r}")
        object.__setattr__(self, "proc_time", clean)

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(self.proc_time)

    @property
    def t_min(self) -> int:
        return min(self.proc_time.values())

    @property
    def t_max(self) -> int:
        return max(self.proc_time.values())

    def time_of(self, symbol: str) -> int:
        try:
            return self.proc_time[symbol]
        except KeyError:
            raise DomainError(f"unknown job symbol {symbol!r}") from None


@dataclass(frozen=True)
class MachineSet:
    """Uniform machines described by their positive rational speeds."""

    speeds: tuple[Fraction, ...]

    def __post_init__(self):
        speeds = tuple(as_fraction(v) for v in self.speeds)
        if not speeds:
            raise DomainError("machine set must contain at least one machine")
        for v in speeds:
            if v <= 0:
                raise DomainError(f"machine speed must be positive, got {v}")
        object.__setattr__(self, "speeds", speeds)

    @property
    def m(self) -> int:
        return len(self.speeds)

    @property
    def v_sum(self) -> Fraction:
        return sum(self.speeds, Fraction(0))

    @property
    def v_min(self) -> Fraction:
        return min(self.speeds)

    @property
    def v_max(self) -> Fraction:
        return max(self.speeds)


@dataclass(frozen=True)
class SchedulingProblem:
    """A job alphabet, a machine set, and the stochastic law of the job stream."""

    alphabet: JobAlphabet
    machines: MachineSet
    process: object  # a JobProcess; duck-typed here to keep this module self-contained

    def __post_init__(self):
        proc_syms = set(self.process.symbols)
        if proc_syms != set(self.alphabet.symbols):
            raise DomainError(
                "process symbols do not match the alphabet: "
                f"{sorted(proc_syms)} vs {sorted(self.alphabet.symbols)}"
            )


def scaled_inverse_speeds(machines: MachineSet) -> tuple[tuple[int, ...], int]:
    """Integer weights (w, scale) with load/speed_i == load*w_i/scale exactly.

    Lets schedulers compare finish times with pure integer arithmetic.
    """
    scale = math.lcm(*(v.numerator for v in machines.speeds))
    weights = tuple(v.denominator * (scale // v.numerator) for v in machines.speeds)
    return weights, scale


def _int_dtype(bound: int):
    """The dtype of an array of exact integers that never exceed bound: int64, else Python ints (object).

    int64 only below 2**62, so that the sum of two entries cannot wrap either.
    """
    return np.int64 if bound < 2**62 else object


def _span_bracket(total, problem: SchedulingProblem) -> tuple[Fraction, Fraction]:
    """(total/v_sum, total/v_sum + t_max/v_min): the makespan bracket of jobs of one total time.

    No schedule of the jobs finishes before the total work over the total
    speed, and earliest-finish-time list scheduling provably finishes no
    later than that plus one longest job on the slowest machine.
    """
    machines = problem.machines
    lower = Fraction(total) / machines.v_sum
    return lower, lower + Fraction(problem.alphabet.t_max) / machines.v_min

