"""Command-line front end: JSON experiment configs in, CSV/JSONL tables out.

Config schema (JSON object with two keys)::

    {
      "problem": {
        "alphabet": {"a": 1, "b": 3},              # symbol -> integer time
        "machines": ["1", "2"],                    # speeds: "1.5", "3/2", or numbers
        "process": {                               # one of three kinds
          "kind": "iid", "probs": {"a": "1/2", "b": "1/2"}
          # {"kind": "markov", "symbols": [...], "transition": [[...]],
          #  "initial": [...] | "stationary"}
          # {"kind": "mixture", "components":
          #     [{"weight": "1/2", "process": {...}}, ...]}
        }
      },
      "experiment": {"kind": "<subcommand>", ...}  # parameters per kind below
    }

Experiment parameters:

    validate       (none)
    scan           alpha_grid, n_grid, [delta=1e-3], [workers=1, and only 1]
    achievability  gamma, n_grid, [scheduler="eft"], [budget=2000000, >= 0]
    converse       gap, n_grid
    second-order   epsilon, n_grid
    average-case   n, trials, [scheduler="eft"]
    cost           n, alpha, [scheduler="brute-force"], [budget=2000000, >= 0]

All kinds accept "master_seed" (default 0; --seed overrides).  scan's
"workers" is read so that older configs still parse, and used nowhere:
every table is computed in this one process.  Rational parameters accept
"p/q", decimal strings, or numbers; speeds and probabilities given as
strings are parsed exactly.  Exit codes: 0 success, 2 configuration
problem, 3 budget exceeded, 4 numeric failure.

Each kind is one entry of the `_EXPERIMENTS` registry: its parameters (a
parser and a default each), its output columns and its runner.  The
command line's kind argument, config validation and `run` all read that one
table; the columns of achievability, second-order and average-case are the
fields of their result dataclasses.  One combinator, `_record(fields)`,
parses every JSON object of a config; each process kind is one `_PROCESSES`
entry, its constructor and its fields.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import __version__
from .core import JobAlphabet, MachineSet, SchedulingProblem, as_fraction
from .errors import ConfigError, DomainError, NumericError, ResourceError
from .schedulers import _WORK_BUDGET, SCHEDULERS, ThresholdDiscardSet, cost_exact, discard_probability
from .second_order import SecondOrderRow, second_order_table
from .spectrum import (
    AverageCaseResult,
    RateExperimentRow,
    achievability_experiment,
    average_case_bracket,
    converse_experiment,
    spectral_rates,
    spectral_scan,
)
from .stochastic import IIDModel, MarkovModel, MixtureModel

@dataclass(frozen=True)
class ExperimentConfig:
    problem: SchedulingProblem
    kind: str
    params: dict
    master_seed: int

    def to_dict(self) -> dict:
        """Canonical JSON-compatible form; parse_config inverts it exactly."""
        experiment = {"kind": self.kind, "master_seed": self.master_seed}
        for name, value in self.params.items():
            experiment[name] = _emit_value(value)
        return {
            "problem": {
                "alphabet": dict(self.problem.alphabet.proc_time),
                "machines": [str(v) for v in self.problem.machines.speeds],
                "process": _emit_process(self.problem.process),
            },
            "experiment": experiment,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


def _emit_value(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return [_emit_value(v) for v in value]
    return value


def _emit_process(process) -> dict:
    if isinstance(process, IIDModel):
        return {"kind": "iid", "probs": {s: str(p) for s, p in process.probs.items()}}
    if isinstance(process, MarkovModel):
        return {
            "kind": "markov",
            "symbols": list(process.symbols),
            "transition": [[str(p) for p in row] for row in process.transition],
            "initial": [str(p) for p in process.initial],
        }
    if isinstance(process, MixtureModel):
        return {
            "kind": "mixture",
            "components": [
                {"weight": str(w), "process": _emit_process(sub)}
                for w, sub in process.components
            ],
        }
    raise DomainError(f"unsupported process type {type(process).__name__}")


class _Errors:
    def __init__(self):
        self.items: list[str] = []

    def add(self, path: str, message: str) -> None:
        self.items.append(f"{path or 'config'}: {message}")

    def check(self) -> None:
        if self.items:
            raise ConfigError(self.items)


def _no_duplicate_keys(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate key {key!r}")
        out[key] = value
    return out


# A parser takes (value, path, errors), reports each problem it finds at its
# path and returns the parsed value, or None when it found a problem.


def _parse_fraction(value, path: str, errors: _Errors) -> Fraction | None:
    try:
        return as_fraction(value)
    except DomainError as exc:
        errors.add(path, str(exc))
        return None


def _typed(types, what: str, convert=None):
    """Parser of a JSON value of one of `types`, booleans excluded, passed through `convert`."""

    def parse_typed(value, path: str, errors: _Errors):
        if isinstance(value, bool) or not isinstance(value, types):
            errors.add(path, f"expected {what}, got {value!r}")
            return None
        return value if convert is None else convert(value)

    return parse_typed


_parse_int = _typed(int, "an integer")
_parse_float = _typed((int, float), "a number", float)
_parse_str = _typed(str, "a string")


def _int_in(lo: int, hi: float = math.inf):
    """Parser of an integer n with lo <= n <= hi."""

    def parse_int_in(value, path: str, errors: _Errors) -> int | None:
        n = _parse_int(value, path, errors)
        if n is not None and not lo <= n <= hi:
            errors.add(path, f"expected an integer n with {lo} <= n <= {hi}, got {n}")
            return None
        return n

    return parse_int_in


def _one_of(names):
    """Parser of one of the strings in `names`."""
    names = tuple(names)

    def parse_name(value, path: str, errors: _Errors) -> str | None:
        if value not in names:
            errors.add(path, f"expected one of {list(names)}, got {value!r}")
            return None
        return value

    return parse_name


def _list_of(parse, what: str):
    """Parser of a non-empty JSON list whose items each go through `parse`; returns a tuple."""

    def parse_list(value, path: str, errors: _Errors) -> tuple | None:
        if not isinstance(value, list) or not value:
            errors.add(path, f"expected a non-empty list of {what}")
            return None
        out = tuple(parse(v, f"{path}[{i}]", errors) for i, v in enumerate(value))
        return None if any(v is None for v in out) else out

    return parse_list


def _map_of(parse):
    """Parser of a JSON object whose values each go through `parse`; returns a dict."""

    def parse_map(value, path: str, errors: _Errors) -> dict | None:
        if not isinstance(value, dict):
            errors.add(path, f"expected an object, got {type(value).__name__}")
            return None
        out = {key: parse(v, f"{path}.{key}", errors) for key, v in value.items()}
        return None if any(v is None for v in out.values()) else out

    return parse_map


_REQUIRED = object()  # default of a field the config must give


def _record(fields: dict):
    """Parser of a JSON object with the given fields, name -> (parser, default or _REQUIRED).

    It reports a non-object, each unknown key, each missing required field
    and every field's own problems at `path.name`, and returns {name: value}
    when no field has a problem.  An absent field reads as its default, which
    goes through the field's parser like a given value.
    """

    def parse_record(spec, path: str, errors: _Errors) -> dict | None:
        if not isinstance(spec, dict):
            errors.add(path, f"expected an object, got {type(spec).__name__}")
            return None
        prefix = f"{path}." if path else ""
        for key in spec:
            if key not in fields:
                errors.add(prefix + key, "unknown key")
        out = {}
        for name, (parse, default) in fields.items():
            if name in spec or default is not _REQUIRED:
                out[name] = parse(spec.get(name, default), prefix + name, errors)
            else:
                errors.add(prefix + name, "required parameter is missing")
                out[name] = None
        return None if any(v is None for v in out.values()) else out

    return parse_record


def _build(make, parse):
    """Parser that hands what `parse` returns to `make`, reporting make's own errors at the same path."""

    def parse_and_make(value, path: str, errors: _Errors):
        parsed = parse(value, path, errors)
        if parsed is None:
            return None
        try:
            return make(parsed)
        except (DomainError, NumericError) as exc:
            errors.add(path, str(exc))
            return None

    return parse_and_make


def _kind_of(spec, table: dict, default=None):
    """The entry of `table` that the object's "kind" (else `default`) names, or None."""
    kind = spec.get("kind", default) if isinstance(spec, dict) else default
    return table.get(kind) if isinstance(kind, str) else None


def _process_fields(spec, path: str, errors: _Errors) -> dict | None:
    _, fields = _kind_of(spec, _PROCESSES) or (None, {})
    return _record({"kind": (_one_of(_PROCESSES), _REQUIRED), **fields})(spec, path, errors)


_parse_process = _build(lambda fields: _PROCESSES[fields.pop("kind")][0](**fields), _process_fields)


def _parse_initial(value, path: str, errors: _Errors):
    if value == "stationary":
        return value
    return _list_of(_parse_fraction, 'rationals, or "stationary"')(value, path, errors)


_fraction_list = _list_of(_parse_fraction, "rationals")
_int_list = _list_of(_parse_int, "integers")
_component = _record({"weight": (_parse_fraction, _REQUIRED), "process": (_parse_process, _REQUIRED)})

# process kind -> (constructor, fields); the constructor takes the fields as keywords
_PROCESSES = {
    "iid": (IIDModel, {"probs": (_map_of(_parse_fraction), _REQUIRED)}),
    "markov": (
        MarkovModel,
        {
            "symbols": (_list_of(_parse_str, "strings"), _REQUIRED),
            "transition": (_list_of(_fraction_list, "rows"), _REQUIRED),
            "initial": (_parse_initial, _REQUIRED),
        },
    ),
    "mixture": (
        MixtureModel,
        {"components": (_list_of(_build(lambda c: (c["weight"], c["process"]), _component), "components"), _REQUIRED)},
    ),
}

_parse_problem = _build(
    lambda fields: SchedulingProblem(**fields),
    _record(
        {
            "alphabet": (_build(JobAlphabet, _map_of(_parse_int)), _REQUIRED),
            "machines": (_build(MachineSet, _list_of(_parse_fraction, "speeds")), _REQUIRED),
            "process": (_parse_process, _REQUIRED),
        }
    ),
)


# ---------------------------------------------------------------------------
# the experiment registry: per kind, its parameters, its columns and its runner
#
# A runner takes (problem, params, master_seed) and returns the rows and any
# metadata beyond the four keys every table carries.


def _values(result) -> tuple:
    """A result dataclass as one row, in field order."""
    return tuple(getattr(result, f.name) for f in dataclasses.fields(result))


def _columns(result_type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(result_type))


def _run_validate(problem: SchedulingProblem, p: dict, seed: int):
    machines = problem.machines
    ebar, ebar_under = spectral_rates(problem)
    row = (
        problem.alphabet.t_min,
        problem.alphabet.t_max,
        machines.m,
        machines.v_sum,
        machines.v_min,
        machines.v_max,
        ebar,
        ebar_under,
        ebar == ebar_under,
    )
    return [row], {}


def _run_scan(problem: SchedulingProblem, p: dict, seed: int):
    report = spectral_scan(problem, p["alpha_grid"], p["n_grid"], delta=p["delta"])
    rows = [
        (n, alpha, report.tail[i][j], report.converged[j])
        for i, n in enumerate(report.n_grid)
        for j, alpha in enumerate(report.alpha_grid)
    ]
    estimate = "none" if report.ebar_estimate is None else str(report.ebar_estimate)
    return rows, {"ebar_estimate": estimate, "delta": repr(p["delta"])}


def _run_achievability(problem: SchedulingProblem, p: dict, seed: int):
    result = achievability_experiment(problem, p["gamma"], p["scheduler"], p["n_grid"], budget=p["budget"])
    alpha = spectral_rates(problem)[0] + p["gamma"]
    return [_values(r) for r in result], {"alpha": str(alpha), "scheduler": p["scheduler"]}


def _run_converse(problem: SchedulingProblem, p: dict, seed: int):
    rows = converse_experiment(problem, p["gap"], p["n_grid"])
    return rows, {"alpha": str(spectral_rates(problem)[0] - p["gap"])}


def _run_second_order(problem: SchedulingProblem, p: dict, seed: int):
    return [_values(r) for r in second_order_table(p["n_grid"], p["epsilon"], problem)], {}


def _run_average_case(problem: SchedulingProblem, p: dict, seed: int):
    result = average_case_bracket(problem, p["n"], p["trials"], seed, p["scheduler"])
    return [_values(result)], {"scheduler": p["scheduler"]}


def _run_cost(problem: SchedulingProblem, p: dict, seed: int):
    discard = ThresholdDiscardSet(n=p["n"], alpha=p["alpha"])
    cost = cost_exact(p["scheduler"], discard, problem, budget=p["budget"])
    prob = discard_probability(discard, problem)
    return [(p["n"], p["alpha"], prob, cost, cost / p["n"])], {"scheduler": p["scheduler"]}


@dataclass(frozen=True)
class _Experiment:
    params: dict  # name -> (parser, default or _REQUIRED)
    columns: tuple[str, ...]
    run: Callable


_scheduler = _one_of(SCHEDULERS)

_EXPERIMENTS: dict[str, _Experiment] = {
    "validate": _Experiment(
        {},
        ("t_min", "t_max", "m", "v_sum", "v_min", "v_max", "ebar", "ebar_under", "strong_converse"),
        _run_validate,
    ),
    "scan": _Experiment(
        {
            "alpha_grid": (_fraction_list, _REQUIRED),
            "n_grid": (_int_list, _REQUIRED),
            "delta": (_parse_float, 1e-3),
            "workers": (_int_in(1, 1), 1),
        },
        ("n", "alpha", "tail_prob", "alpha_converged"),
        _run_scan,
    ),
    "achievability": _Experiment(
        {
            "gamma": (_parse_fraction, _REQUIRED),
            "n_grid": (_int_list, _REQUIRED),
            "scheduler": (_scheduler, "eft"),
            "budget": (_int_in(0), _WORK_BUDGET),
        },
        _columns(RateExperimentRow),
        _run_achievability,
    ),
    "converse": _Experiment(
        {"gap": (_parse_fraction, _REQUIRED), "n_grid": (_int_list, _REQUIRED)},
        ("n", "min_discard_prob"),
        _run_converse,
    ),
    "second-order": _Experiment(
        {"epsilon": (_parse_float, _REQUIRED), "n_grid": (_int_list, _REQUIRED)},
        _columns(SecondOrderRow),
        _run_second_order,
    ),
    "average-case": _Experiment(
        {
            "n": (_parse_int, _REQUIRED),
            "trials": (_parse_int, _REQUIRED),
            "scheduler": (_scheduler, "eft"),
        },
        _columns(AverageCaseResult),
        _run_average_case,
    ),
    "cost": _Experiment(
        {
            "n": (_parse_int, _REQUIRED),
            "alpha": (_parse_fraction, _REQUIRED),
            "scheduler": (_scheduler, "brute-force"),
            "budget": (_int_in(0), _WORK_BUDGET),
        },
        ("n", "alpha", "discard_prob", "cost", "cost_per_job"),
        _run_cost,
    ),
}

EXPERIMENT_KINDS = tuple(_EXPERIMENTS)


def _parse_experiment(expected_kind: str | None):
    """Parser of the experiment block: its kind, master_seed and the parameters of its registry entry."""

    def parse_kind(value, path: str, errors: _Errors) -> str | None:
        kind = _one_of(EXPERIMENT_KINDS)(value, path, errors)
        if kind is None or expected_kind in (None, kind):
            return kind
        errors.add(path, f"config says {kind!r} but the {expected_kind!r} subcommand was invoked")
        return None

    common = {"kind": (parse_kind, expected_kind or _REQUIRED), "master_seed": (_parse_int, 0)}

    def parse_experiment(spec, path: str, errors: _Errors) -> dict | None:
        experiment = _kind_of(spec, _EXPERIMENTS, expected_kind)
        return _record({**common, **(experiment.params if experiment else {})})(spec, path, errors)

    return parse_experiment


def parse_config(text: str, expected_kind: str | None = None) -> ExperimentConfig:
    """Parse and validate configuration text, reporting every problem found."""
    try:
        raw = json.loads(text, object_pairs_hook=_no_duplicate_keys)
    except ValueError as exc:
        raise ConfigError([f"config: not valid JSON ({exc})"]) from None
    errors = _Errors()
    fields = {"problem": (_parse_problem, _REQUIRED), "experiment": (_parse_experiment(expected_kind), {})}
    config = _record(fields)(raw, "", errors)
    errors.check()
    params = config["experiment"]
    kind, master_seed = params.pop("kind"), params.pop("master_seed")
    return ExperimentConfig(problem=config["problem"], kind=kind, params=params, master_seed=master_seed)


# ---------------------------------------------------------------------------
# running experiments


@dataclass
class ResultTable:
    columns: tuple[str, ...]
    rows: list[tuple]
    metadata: dict


def run(config: ExperimentConfig) -> ResultTable:
    """Execute the configured experiment through its registry entry."""
    t0 = time.perf_counter()
    experiment = _EXPERIMENTS.get(config.kind)
    if experiment is None:
        raise DomainError(f"unknown experiment kind {config.kind!r}")
    metadata = {
        "experiment": config.kind,
        "config_sha256": config.sha256(),
        "master_seed": config.master_seed,
        "tool_version": __version__,
    }
    rows, extra = experiment.run(config.problem, config.params, config.master_seed)
    metadata.update(extra)
    metadata["wall_time_s"] = f"{time.perf_counter() - t0:.3f}"
    return ResultTable(columns=experiment.columns, rows=rows, metadata=metadata)


# ---------------------------------------------------------------------------
# output rendering


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return f"{value:#.12g}"
    return str(value)


def _json_cell(value):
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    return value


def emit(table: ResultTable, fmt: str = "csv") -> str:
    """Render a result table as CSV (with '#' metadata preamble) or JSON lines."""
    for row in table.rows:
        if len(row) != len(table.columns):
            raise DomainError("result table rows must match the column count")
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        for key in sorted(table.metadata):
            buf.write(f"# {key}={table.metadata[key]}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([_csv_cell(v) for v in row])
        return buf.getvalue()
    if fmt == "jsonl":
        lines = [json.dumps({"metadata": table.metadata}, sort_keys=True)]
        for row in table.rows:
            lines.append(
                json.dumps(
                    {col: _json_cell(v) for col, v in zip(table.columns, row)}, sort_keys=True
                )
            )
        return "\n".join(lines) + "\n"
    raise DomainError(f'output format must be "csv" or "jsonl", got {fmt!r}')


# ---------------------------------------------------------------------------
# entry point


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochsched",
        description="Probabilistic makespan analysis for uniform machines.",
    )
    parser.add_argument("kind", choices=EXPERIMENT_KINDS, help="the experiment to run")
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    parser.add_argument("--seed", type=int, help="override experiment.master_seed")
    return parser


def _fail(category: str, message: str, detail=None) -> None:
    record = {"error": category, "message": message}
    if detail:
        record["detail"] = detail
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        _fail("config", f"cannot read config file: {exc}")
        return 2
    try:
        config = parse_config(text, expected_kind=args.kind)
        if args.seed is not None:
            config = dataclasses.replace(config, master_seed=args.seed)
        table = run(config)
        rendered = emit(table, args.format)
        if args.out:
            Path(args.out).write_text(rendered)
        else:
            sys.stdout.write(rendered)
        return 0
    except ConfigError as exc:
        _fail("config", "configuration is invalid", detail=exc.problems)
        return 2
    except DomainError as exc:
        _fail("domain", str(exc))
        return 2
    except ResourceError as exc:
        _fail("resource", str(exc))
        return 3
    except NumericError as exc:
        _fail("numeric", str(exc))
        return 4


if __name__ == "__main__":
    sys.exit(main())
