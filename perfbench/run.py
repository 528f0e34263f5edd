"""stochsched benchmark: one closed-loop client running CLI tables back to back.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository.  Every table goes through
`stochsched.cli.main(argv)` in this process, the function the `stochsched`
script calls, with `--format jsonl`, so table times measure the library and
not interpreter start-up.  Set-up (`import stochsched.cli`, generating the
workload, `parse_config` of every generated table, one untimed warm-up
table) is timed on its own, in this process and in fresh set-up-only
processes, and reported as the median.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of a traced pass over the same
tables that an untraced child process ran first.  Details (every table's
size parameters, time, exit code and check results; the tail percentile;
the spans of a traced pass) go to `.perfbench_run/records/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "stochsched"
WORK = ROOT / ".perfbench_run"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (standard library only; see exact.py)

SETUP_SAMPLES = 3  # set-ups per run: this process plus fresh set-up-only processes
TAIL_BEYOND = 10  # table_s_tail: highest percentile with this many tables beyond it
ENTRY = "cli.main"  # the root span of every traced table
TRACE_SLACK = 0.10  # layer self times below ENTRY must cover traced table time within this share
CHILD_TIMEOUT_S = 170
# Rounds generated (and parsed) in set-up per measured second: about three
# times the seed's rate on a 2-core x86 sandbox.  A program fast enough to
# run out of distinct tables ends its loop early; the record says so.
ROUNDS_PER_SECOND = {"tails-iid": 6.0, "tails-markov": 3.0, "sampled-eft": 1.0, "exact-cost": 7.0}


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with a non-zero exit."""


# ---------------------------------------------------------------------------
# set-up and tables


def import_cli():
    if not (PACKAGE / "cli.py").is_file():
        raise BenchError(f"no package source at {PACKAGE.relative_to(ROOT)}; run from a repository checkout")
    sys.path.insert(0, str(PACKAGE.parent))
    import stochsched.cli as cli

    if Path(cli.__file__).resolve().parent != PACKAGE.resolve():
        raise BenchError(f"imported stochsched from {cli.__file__}, not from this checkout")
    return cli


def run_table(cli, path: Path, kind: str):
    """(exit code, stdout, stderr, seconds) of one CLI table, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    argv = [kind, "--config", str(path), "--format", "jsonl"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash fails its table, not the benchmark
            rc = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), seconds


class Run:
    """One process's set-up: the package, the generated tables and their config files."""

    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path, tracer=None):
        t0 = time.perf_counter()
        self.cli = import_cli()
        if tracer is not None:
            import stochsched

            tracer.install(stochsched)
        rounds = math.ceil(seconds * ROUNDS_PER_SECOND[workload]) + 1
        self.warmup, self.rounds = workloads.generate(workload, seed, rounds)
        self.paths = {}
        workdir.mkdir(parents=True, exist_ok=True)
        for i, table in enumerate([self.warmup] + [t for r in self.rounds for t in r]):
            text = json.dumps(table.config)
            path = workdir / f"{i:05d}.json"
            path.write_text(text)
            self.paths[id(table)] = path
            self.cli.parse_config(text, expected_kind=table.kind)
        self.warmup_result = self.run(self.warmup)
        self.setup_s = time.perf_counter() - t0

    def run(self, table):
        return run_table(self.cli, self.paths[id(table)], table.kind)

    def loop(self, seconds: float, limit: int | None = None, after_table=None):
        """Whole rounds until `seconds` have passed, or exactly `limit` tables."""
        results = []
        t0 = time.perf_counter()
        for r, tables in enumerate(self.rounds):
            for table in tables:
                results.append((r, table, *self.run(table)))
                if after_table is not None:
                    after_table()
                if limit is not None and len(results) == limit:
                    return results, time.perf_counter() - t0
            if limit is None and time.perf_counter() - t0 >= seconds:
                break
        return results, time.perf_counter() - t0


def normalized(stdout: str) -> str:
    """Table output without its wall-time field."""
    lines = stdout.splitlines()
    if lines:
        try:
            head = json.loads(lines[0])
            head.get("metadata", {}).pop("wall_time_s", None)
            lines[0] = json.dumps(head, sort_keys=True)
        except (ValueError, AttributeError):
            pass
    return "\n".join(lines)


def check_all(results, warmup_result, warmup):
    """(problems per table, check seconds per table, problems of the warm-up)."""
    import verify

    problems, seconds = [], []
    for _, table, rc, out, _, _ in results:
        t0 = time.perf_counter()
        problems.append(verify.check(table.config, rc, out))
        seconds.append(time.perf_counter() - t0)
    rc, out, _, _ = warmup_result
    return problems, seconds, verify.check(warmup.config, rc, out)


def causes(problems: list[list[str]]) -> dict[str, int]:
    """Failed tables per cause: the known EFT label defect, or the first problem's text."""
    import verify

    out: dict[str, int] = {}
    for p in problems:
        if p:
            cause = verify.EFT_ORDER if p[0].startswith(verify.EFT_ORDER) else p[0][:120]
            out[cause] = out.get(cause, 0) + 1
    return out


def table_records(results, problems, check_s=None) -> list[dict]:
    check_s = check_s or [None] * len(results)
    return [
        {"round": r, "template": t.template, "sizes": t.sizes, "exit": rc, "time_s": dt, "check_s": c, "problems": p}
        for (r, t, rc, _, _, dt), p, c in zip(results, problems, check_s)
    ]


def src_loc() -> int:
    count = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        for line in path.read_text().splitlines():
            stripped = line.strip()
            count += bool(stripped) and not stripped.startswith("#")
    return count


def write_record(args, suffix: str, record: dict) -> Path:
    out = WORK / "records"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-{suffix}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    return path


def child(args, seconds: float, *extra: str) -> str:
    """Last stdout line of this script run untraced in a fresh process."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", "0", *extra,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(extra)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


# ---------------------------------------------------------------------------
# modes


def end_to_end(args, workdir: Path) -> dict:
    run = Run(args.workload, args.seed, args.seconds, workdir)
    results, wall = run.loop(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems, check_s, warm_problems = check_all(results, run.warmup_result, run.warmup)
    if args.dump:  # reference pass of a traced run: hand over outputs, write no record
        Path(args.dump).write_text(json.dumps({
            "wall_s": wall,
            "tables": [{"exit": rc, "output": normalized(out)} for _, _, rc, out, _, _ in results],
            "problems": problems,
            "warmup_problems": warm_problems,
        }))
        return {}
    setup = [run.setup_s]
    for _ in range(SETUP_SAMPLES - 1):
        setup.append(json.loads(child(args, args.seconds, "--setup-only"))["setup_s"])
    times = sorted(dt for *_, dt in results)
    n = len(times)
    tail_index = max(0, n - 1 - TAIL_BEYOND)
    failed = sum(1 for p in problems if p)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "tables_per_s": (n / wall, "tables/s"),
        "table_s_p50": (statistics.median(times), "s"),
        "table_s_tail": (times[tail_index], "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds": results[-1][0] + 1, "tables": n, "wall_s": wall, "setup_samples_s": setup,
        "pool_rounds": len(run.rounds), "pool_exhausted": wall < args.seconds,
        "tail": {"percentile": 100.0 * (tail_index + 1) / n, "samples": n, "beyond": n - 1 - tail_index},
        "tables_failed": failed / n, "failure_causes": causes(problems), "warmup_problems": warm_problems,
        "src_loc": src_loc(), "metrics": {k: v for k, (v, _) in metrics.items()},
        "table_records": table_records(results, problems, check_s),
    }
    path = write_record(args, "trace0", record)
    print(f"{args.workload}: {n} tables in {record['rounds']} rounds, {wall:.2f} s; "
          f"tail = p{record['tail']['percentile']:.1f} of {n}; failed {failed} {record['failure_causes']}; "
          f"record {path.relative_to(ROOT)}")
    return {
        "correct": failed == 0 and not warm_problems,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def per_layer(args, workdir: Path) -> dict:
    import tracing

    dump = workdir / "untraced.json"
    workdir.mkdir(parents=True, exist_ok=True)
    child(args, args.seconds / 2, "--dump", str(dump))
    untraced = json.loads(dump.read_text())
    n = len(untraced["tables"])

    tracer = tracing.Tracer()
    run = Run(args.workload, args.seed, args.seconds, workdir, tracer=tracer)
    tracer.flush()
    tracer.counts.clear()  # counts cover the traced tables only; set-up has its own spans
    setup_end = tracer.mark()
    results, wall = run.loop(0.0, limit=n, after_table=tracer.flush)
    stop = tracer.mark()
    tracer.uninstall()

    problems = [list(p) for p in untraced["problems"]]
    for i, ((_, _, rc, out, _, _), ref) in enumerate(zip(results, untraced["tables"])):
        if rc != ref["exit"] or normalized(out) != ref["output"]:
            problems[i].append("traced output differs from the untraced run")
    table_s = sum(dt for *_, dt in results)
    agg = tracer.aggregate(setup_end, stop)
    setup_agg = tracer.aggregate(0, setup_end)
    # Self times of the spans below the entry point.  What they leave out of
    # the table time is the entry point's own code (argument parsing, reading
    # the config file, writing the output) and the harness call around it.
    self_sum = sum(row["self_s"] for name, row in agg.items() if name != ENTRY)
    negative = sum(1 for row in agg.values() if row["self_s"] < -1e-6)
    one_root = agg.get(ENTRY, {}).get("calls") == n
    accounting_ok = 1 - TRACE_SLACK <= self_sum / table_s <= 1 and negative == 0 and one_root
    metrics = layer_metrics(agg, setup_agg, tracer.counts, n, table_s)
    metrics["trace.overhead"] = ((n / wall) / (n / untraced["wall_s"]), "ratio")
    metrics["trace.self_sum_ratio"] = (self_sum / table_s, "ratio")
    failed = sum(1 for p in problems if p)
    metrics["tables_failed"] = (failed / n, "share")
    metrics["src_loc"] = (src_loc(), "lines")

    spans = WORK / "records" / f"{args.workload}-seed{args.seed}-spans.bin"
    spans.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(spans)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "tables": n,
        "traced_wall_s": wall, "untraced_wall_s": untraced["wall_s"], "traced_table_s": table_s,
        "trace_slack": TRACE_SLACK, "self_sum_s": self_sum, "negative_self_spans": negative,
        "accounting_ok": accounting_ok,
        "failure_causes": causes(problems), "spans_file": spans.name,
        "layers": agg, "setup_layers": setup_agg, "counts": dict(tracer.counts),
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "table_records": table_records(results, problems),
    }
    path = write_record(args, "trace1", record)
    print(f"{args.workload}: traced {n} tables, overhead x{1 / metrics['trace.overhead'][0]:.2f}, "
          f"layer self-time sum {self_sum / table_s:.4f} of table time "
          f"({'within' if accounting_ok else 'OUTSIDE'} slack {TRACE_SLACK}); record {path.relative_to(ROOT)}")
    return {
        "correct": failed == 0 and accounting_ok and not untraced["warmup_problems"],
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# Span name -> fields reported, as means per traced table.
LAYER_SPANS = [
    ("stochastic.sum_law.iid", ("calls", "s")),
    ("stochastic.sum_law.markov", ("calls", "s")),
    ("stochastic.sum_law.mixture", ("calls", "self_s")),
    ("stochastic.sum_query", ("calls", "s")),
    ("stochastic.sample", ("calls", "s")),
    ("stochastic.mean_total_exact", ("calls", "s")),
    ("stochastic.stationary", ("calls", "s")),
    ("schedulers.batch_eft", ("calls", "s")),
    ("schedulers.cost_exact", ("calls", "self_s")),
    ("schedulers.schedule", ("calls", "s")),
    ("core.makespan", ("calls", "s")),
    ("schedulers.brute_force", ("calls", "s")),
    ("schedulers.max_kept", ("calls", "s")),
    ("cli.main", ("self_s",)),
    ("cli.parse_config", ("s",)),
    ("cli.run", ("self_s",)),
    ("cli.emit", ("s",)),
    ("spectrum.scan", ("self_s",)),
    ("spectrum.converse", ("self_s",)),
    ("spectrum.achievability", ("self_s",)),
    ("spectrum.average_case", ("self_s",)),
    ("second_order.table", ("self_s",)),
    ("second_order.r_n_plus", ("calls",)),
]
# Counts derived from arguments and results, as means per traced table.
LAYER_COUNTS = [
    ("stochastic.sum_law.iid.lattice_points", "points/table"),
    ("stochastic.sum_law.iid.subnormal_points", "points/table"),
    ("stochastic.sum_law.markov.lattice_points", "points/table"),
    ("stochastic.sum_law.markov.subnormal_points", "points/table"),
    ("stochastic.sample.draws", "draws/table"),
    ("schedulers.batch_eft.row_jobs", "jobs/table"),
    ("schedulers.cost_exact.multisets", "multisets/table"),
    ("schedulers.cost_exact.budget_refusals", "calls/table"),
    ("schedulers.max_kept.lattice_points", "points/table"),
    ("spectrum.achievability.rows_exact", "rows/table"),
    ("spectrum.achievability.rows_bracket", "rows/table"),
    ("cli.emit.bytes", "bytes/table"),
]
# Kernel time / traced table time: the ROADMAP kernels, plus the tail queries.
SHARES = [
    ("share.sum_law.iid", "stochastic.sum_law.iid", "s"),
    ("share.sum_law.markov", "stochastic.sum_law.markov", "s"),
    ("share.sum_law.mixture", "stochastic.sum_law.mixture", "self_s"),
    ("share.sum_query", "stochastic.sum_query", "s"),
    ("share.sample", "stochastic.sample", "s"),
    ("share.mean_total_exact", "stochastic.mean_total_exact", "s"),
    ("share.batch_eft", "schedulers.batch_eft", "s"),
    ("share.multiset_enumeration", "schedulers.cost_exact", "self_s"),
    ("share.schedule", "schedulers.schedule", "s"),
    ("share.brute_force", "schedulers.brute_force", "s"),
    ("share.makespan", "core.makespan", "s"),
    ("share.max_kept", "schedulers.max_kept", "s"),
]


def _span(agg: dict, name: str) -> dict:
    """Aggregate of one span name, or of every span under it (`stochastic.sum_query`)."""
    rows = [row for key, row in agg.items() if key == name or key.startswith(name + ".")]
    return {f: sum(row[f] for row in rows) for f in ("calls", "s", "self_s")}


def layer_metrics(agg, setup_agg, counts, n: int, table_s: float) -> dict:
    units = {"calls": "calls/table", "s": "s/table", "self_s": "s/table"}
    metrics = {}
    for name, fields in LAYER_SPANS:
        row = _span(agg, name)
        for f in fields:
            metrics[f"{name}.{f}"] = (row[f] / n, units[f])
    for name, unit in LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0.0) / n, unit)
    metrics["stochastic.sum_law.repeat_calls"] = (counts.get("stochastic.sum_law.repeat_calls", 0.0), "calls")
    for name, span, f in SHARES:
        metrics[name] = (_span(agg, span)[f] / table_s, "share")
    for name in ("cli.parse_config", "stochastic.stationary"):
        row = _span(setup_agg, name)
        metrics[f"setup.{name}.calls"] = (row["calls"], "calls")
        metrics[f"setup.{name}.s"] = (row["s"], "s")
    return metrics


def setup_only(args, workdir: Path) -> None:
    run = Run(args.workload, args.seed, args.seconds, workdir)
    print(json.dumps({"setup_s": run.setup_s}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workdir = WORK / f"run-{os.getpid()}"
    try:
        if args.setup_only:
            setup_only(args, workdir)
            return 0
        result = per_layer(args, workdir) if args.trace else end_to_end(args, workdir)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
