import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from stochsched import ConfigError, DomainError, NumericError, stochastic
from stochsched.cli import (
    EXPERIMENT_KINDS,
    ExperimentConfig,
    ResultTable,
    _build_parser,
    emit,
    main,
    parse_config,
    run,
)

PROBLEM_IID = {
    "alphabet": {"a": 1, "b": 3},
    "machines": ["1", "2"],
    "process": {"kind": "iid", "probs": {"a": "1/2", "b": "1/2"}},
}
PROBLEM_MARKOV = {
    "alphabet": {"a": 1, "b": 3},
    "machines": ["1", "2"],
    "process": {
        "kind": "markov",
        "symbols": ["a", "b"],
        "transition": [["9/10", "1/10"], ["1/2", "1/2"]],
        "initial": ["5/6", "1/6"],
    },
}
PROBLEM_MIXTURE = {
    "alphabet": {"a": 1, "b": 3},
    "machines": ["1", "2"],
    "process": {
        "kind": "mixture",
        "components": [
            {"weight": "1/2", "process": {"kind": "iid", "probs": {"a": "1/2", "b": "1/2"}}},
            {"weight": "1/2", "process": {"kind": "iid", "probs": {"a": "3/4", "b": "1/4"}}},
        ],
    },
}


def config_text(problem, **experiment):
    return json.dumps({"problem": problem, "experiment": experiment})


COST_TEXT = config_text(PROBLEM_IID, kind="cost", n=2, alpha="23/30")


class TestParsing:
    @pytest.mark.parametrize(
        "problem,experiment",
        [
            (PROBLEM_IID, {"kind": "validate"}),
            (PROBLEM_MARKOV, {"kind": "scan", "alpha_grid": ["1/2", "9/10"], "n_grid": [10, 20]}),
            (PROBLEM_MIXTURE, {"kind": "achievability", "gamma": "1/10", "n_grid": [2, 4]}),
            (PROBLEM_IID, {"kind": "converse", "gap": "1/6", "n_grid": [4, 8]}),
            (PROBLEM_IID, {"kind": "second-order", "epsilon": 0.1, "n_grid": [16]}),
            (PROBLEM_MARKOV, {"kind": "average-case", "n": 10, "trials": 20, "master_seed": 5}),
            (PROBLEM_IID, {"kind": "cost", "n": 2, "alpha": "23/30", "scheduler": "eft"}),
        ],
    )
    def test_round_trip(self, problem, experiment):
        config = parse_config(config_text(problem, **experiment))
        again = parse_config(config.to_json())
        assert again == config
        assert again.sha256() == config.sha256()

    def test_values_parse_exactly(self):
        config = parse_config(COST_TEXT)
        assert config.kind == "cost"
        assert config.params["alpha"] == Fraction(23, 30)
        assert config.params["n"] == 2
        assert config.params["scheduler"] == "brute-force"  # default
        assert config.params["budget"] == 2_000_000  # default
        assert config.master_seed == 0  # default
        assert config.problem.machines.speeds == (Fraction(1), Fraction(2))

    def test_stationary_initial_keyword(self):
        problem = json.loads(json.dumps(PROBLEM_MARKOV))
        problem["process"]["initial"] = "stationary"
        config = parse_config(config_text(problem, kind="validate"))
        assert config.problem.process.initial == (Fraction(5, 6), Fraction(1, 6))

    @pytest.mark.parametrize("initial", [["1/3", "1/3", "1/3"], "stationary"])
    def test_bad_markov_entry_reported_once(self, initial):
        process = {
            "kind": "markov",
            "symbols": ["a", "b", "c"],
            "transition": [["1/2", "1/2", "0"], ["1/2", "0", "x"], ["1", "0", "0"]],
            "initial": initial,
        }
        problem = {**PROBLEM_IID, "alphabet": {"a": 1, "b": 3, "c": 5}, "process": process}
        with pytest.raises(ConfigError) as exc:
            parse_config(config_text(problem, kind="validate"))
        assert len(exc.value.problems) == 1
        assert exc.value.problems[0].startswith("problem.process.transition[1][2]: ")

    def test_all_errors_reported_together(self):
        text = json.dumps(
            {
                "problem": {
                    "alphabet": {"a": 0, "b": 3},
                    "machines": ["zero", "2"],
                    "process": {"kind": "iid", "probs": {"a": "1/2", "b": "1/2"}},
                },
                "experiment": {"kind": "achievability", "n_grid": [2]},
            }
        )
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        joined = "\n".join(exc.value.problems)
        assert len(exc.value.problems) >= 3
        assert "alphabet" in joined
        assert "machines" in joined
        assert "gamma" in joined

    def test_duplicate_keys_rejected(self):
        text = '{"problem": {}, "problem": {}}'
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(config_text(PROBLEM_IID, kind="validate", bogus=1))
        assert any("bogus" in p for p in exc.value.problems)

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(config_text(PROBLEM_IID, kind="cost", n=2, alpha="1", scheduler="opt"))
        assert exc.value.problems == ["experiment.scheduler: expected one of ['eft', 'lpt', 'brute-force'], got 'opt'"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(config_text(PROBLEM_IID, kind="frobnicate"))

    def test_kind_mismatch_with_subcommand(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(config_text(PROBLEM_IID, kind="validate"), expected_kind="scan")
        assert any("subcommand" in p for p in exc.value.problems)

    def test_not_json(self):
        with pytest.raises(ConfigError):
            parse_config("not json at all {")

    def test_every_mixture_component_reported(self):
        bad_weight = {"weight": "heavy", "process": PROBLEM_IID["process"]}
        bad_prob_and_key = {"weight": "1/2", "process": {"kind": "iid", "probs": {"a": "x", "b": "1/2"}, "extra": 1}}
        process = {"kind": "mixture", "components": [bad_weight, bad_prob_and_key]}
        with pytest.raises(ConfigError) as exc:
            parse_config(config_text({**PROBLEM_IID, "process": process}, kind="validate"))
        paths = sorted(p.split(": ")[0] for p in exc.value.problems)
        assert paths == [
            "problem.process.components[0].weight",
            "problem.process.components[1].process.extra",
            "problem.process.components[1].process.probs.a",
        ]

    def test_iid_bad_probability_and_unknown_key_both_reported(self):
        process = {"kind": "iid", "probs": {"a": "x", "b": "1/2"}, "extra": 1}
        with pytest.raises(ConfigError) as exc:
            parse_config(config_text({**PROBLEM_IID, "process": process}, kind="validate"))
        paths = sorted(p.split(": ")[0] for p in exc.value.problems)
        assert paths == ["problem.process.extra", "problem.process.probs.a"]

    def test_missing_machines_named(self):
        problem = {key: value for key, value in PROBLEM_IID.items() if key != "machines"}
        with pytest.raises(ConfigError) as exc:
            parse_config(config_text(problem, kind="validate"))
        assert exc.value.problems == ["problem.machines: required parameter is missing"]

    def test_missing_experiment_block_takes_the_subcommand(self):
        text = json.dumps({"problem": PROBLEM_IID})
        assert parse_config(text, expected_kind="validate").kind == "validate"
        with pytest.raises(ConfigError) as exc:
            parse_config(text, expected_kind="scan")
        assert exc.value.problems == [
            "experiment.alpha_grid: required parameter is missing",
            "experiment.n_grid: required parameter is missing",
        ]

    def test_scan_workers_must_be_one(self):
        # the key is read so that older configs parse; every scan runs in this one process
        scan = dict(kind="scan", alpha_grid=["9/10"], n_grid=[10])
        assert parse_config(config_text(PROBLEM_IID, **scan, workers=1)).params["workers"] == 1
        for workers in (0, 2, 3, True, "1"):
            with pytest.raises(ConfigError) as exc:
                parse_config(config_text(PROBLEM_IID, **scan, workers=workers))
            assert [p.split(": ")[0] for p in exc.value.problems] == ["experiment.workers"]


class TestRun:
    def test_validate_row(self):
        table = run(parse_config(config_text(PROBLEM_IID, kind="validate")))
        assert table.columns == (
            "t_min", "t_max", "m", "v_sum", "v_min", "v_max", "ebar", "ebar_under", "strong_converse",
        )
        (row,) = table.rows
        assert row[0] == 1 and row[1] == 3 and row[2] == 2
        assert row[6] == Fraction(2, 3)
        assert row[8] is True

    def test_cost_row(self):
        table = run(parse_config(COST_TEXT))
        assert table.columns == ("n", "alpha", "discard_prob", "cost", "cost_per_job")
        (row,) = table.rows
        assert row == (2, Fraction(23, 30), 0.25, Fraction(3, 2), Fraction(3, 4))
        assert table.metadata["scheduler"] == "brute-force"

    def test_scan_metadata(self):
        text = config_text(PROBLEM_IID, kind="scan", alpha_grid=["9/10"], n_grid=[10, 20, 40])
        table = run(parse_config(text))
        assert table.metadata["ebar_estimate"] == "9/10"
        assert table.metadata["delta"] == repr(1e-3)
        assert table.columns == ("n", "alpha", "tail_prob", "alpha_converged")
        assert [r[3] for r in table.rows] == [True, True, True]

    def test_scan_workers_key_changes_nothing(self):
        scan = dict(kind="scan", alpha_grid=["3/5", "9/10"], n_grid=[10, 20, 40])
        with_key = run(parse_config(config_text(PROBLEM_MARKOV, **scan, workers=1)))
        without = run(parse_config(config_text(PROBLEM_MARKOV, **scan)))
        for table in (with_key, without):
            table.metadata.pop("wall_time_s"), table.metadata.pop("config_sha256")
        assert with_key == without

    def test_second_order_columns(self):
        text = config_text(PROBLEM_IID, kind="second-order", epsilon=0.1, n_grid=[16, 32])
        table = run(parse_config(text))
        assert table.columns == (
            "n", "epsilon", "r_n_plus", "cost_lo", "cost_hi", "prediction", "residual",
            "be_bound", "quantile_atom", "gaussian_tail",
        )
        assert [r[0] for r in table.rows] == [16, 32]

    @pytest.mark.parametrize(
        "experiment",
        [
            {"kind": "validate"},
            {"kind": "converse", "gap": "1/10", "n_grid": [4]},
            {"kind": "achievability", "gamma": "1/10", "n_grid": [3]},
        ],
    )
    def test_markov_leaf_stationary_vector_solved_once(self, monkeypatch, experiment):
        markov_and_iid = {
            "kind": "mixture",
            "components": [
                {"weight": "1/2", "process": PROBLEM_MARKOV["process"]},
                {"weight": "1/2", "process": PROBLEM_IID["process"]},
            ],
        }
        solved = []
        solve = stochastic._solve_stationary
        monkeypatch.setattr(stochastic, "_solve_stationary", lambda model: solved.append(model) or solve(model))
        run(parse_config(config_text({**PROBLEM_IID, "process": markov_and_iid}, **experiment)))
        assert len(solved) == 1

    def test_stationary_start_solved_once(self, monkeypatch):
        problem = json.loads(json.dumps(PROBLEM_MARKOV))
        problem["process"]["initial"] = "stationary"
        solved = []
        solve = stochastic._solve_stationary
        monkeypatch.setattr(stochastic, "_solve_stationary", lambda model: solved.append(model) or solve(model))
        config = parse_config(config_text(problem, kind="validate"))
        assert len(solved) == 1
        run(config)
        assert len(solved) == 1

    def test_deterministic_apart_from_wall_time(self):
        config = parse_config(COST_TEXT)
        a, b = run(config), run(config)
        a.metadata.pop("wall_time_s"), b.metadata.pop("wall_time_s")
        assert a == b

    def test_config_sha_pins_inputs(self):
        a = parse_config(COST_TEXT)
        b = parse_config(config_text(PROBLEM_IID, kind="cost", n=2, alpha="24/30"))
        assert a.sha256() != b.sha256()
        assert run(a).metadata["config_sha256"] == a.sha256()


class TestEmit:
    def test_csv_rendering(self):
        table = run(parse_config(COST_TEXT))
        text = emit(table, "csv")
        lines = text.splitlines()
        preamble = [l for l in lines if l.startswith("# ")]
        assert any(l.startswith("# config_sha256=") for l in preamble)
        assert preamble == sorted(preamble)
        body = [l for l in lines if not l.startswith("# ")]
        assert body[0] == "n,alpha,discard_prob,cost,cost_per_job"
        assert body[1] == "2,23/30,0.250000000000,3/2,3/4"

    def test_csv_booleans(self):
        table = run(parse_config(config_text(PROBLEM_IID, kind="validate")))
        last = emit(table, "csv").splitlines()[-1]
        assert last.endswith(",true")

    def test_jsonl_rendering(self):
        table = run(parse_config(COST_TEXT))
        lines = emit(table, "jsonl").splitlines()
        head = json.loads(lines[0])
        assert head["metadata"]["experiment"] == "cost"
        row = json.loads(lines[1])
        assert row["alpha"] == {"num": 23, "den": 30}
        assert row["cost"] == {"num": 3, "den": 2}
        assert row["discard_prob"] == 0.25

    def test_row_width_checked(self):
        table = ResultTable(columns=("a", "b"), rows=[(1,)], metadata={})
        with pytest.raises(DomainError):
            emit(table, "csv")

    def test_unknown_format(self):
        table = ResultTable(columns=("a",), rows=[(1,)], metadata={})
        with pytest.raises(DomainError):
            emit(table, "toml")


class TestMain:
    def write(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        return str(path)

    def test_happy_path_writes_csv(self, tmp_path, capsys):
        config = self.write(tmp_path, COST_TEXT)
        out = tmp_path / "result.csv"
        assert main(["cost", "--config", config, "--out", str(out)]) == 0
        assert "3/2" in out.read_text()
        assert capsys.readouterr().err == ""

    def test_stdout_jsonl(self, tmp_path, capsys):
        config = self.write(tmp_path, COST_TEXT)
        assert main(["cost", "--config", config, "--format", "jsonl"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[1])["cost"] == {"num": 3, "den": 2}

    def test_seed_override(self, tmp_path, capsys):
        text = config_text(PROBLEM_IID, kind="average-case", n=10, trials=20, master_seed=1)
        config = self.write(tmp_path, text)
        assert main(["average-case", "--config", config, "--format", "jsonl"]) == 0
        head = json.loads(capsys.readouterr().out.splitlines()[0])
        assert head["metadata"]["master_seed"] == 1
        assert main(["average-case", "--config", config, "--seed", "7", "--format", "jsonl"]) == 0
        head = json.loads(capsys.readouterr().out.splitlines()[0])
        assert head["metadata"]["master_seed"] == 7

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        assert main(["cost", "--config", str(tmp_path / "nope.json")]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "config"

    def test_invalid_config_reports_details(self, tmp_path, capsys):
        config = self.write(tmp_path, config_text(PROBLEM_IID, kind="cost", n=2))
        assert main(["cost", "--config", config]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "config"
        assert any("alpha" in d for d in record["detail"])

    def test_kind_mismatch_exit_code(self, tmp_path, capsys):
        config = self.write(tmp_path, COST_TEXT)
        assert main(["validate", "--config", config]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_domain_error_exit_code(self, tmp_path, capsys):
        # gap == ebar is out of range, caught at run time
        text = config_text(PROBLEM_IID, kind="converse", gap="2/3", n_grid=[4])
        assert main(["converse", "--config", self.write(tmp_path, text)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "domain"

    @pytest.mark.parametrize(
        "experiment",
        [
            {"kind": "scan", "alpha_grid": ["1/2"], "n_grid": [20, 10, 10]},
            {"kind": "achievability", "gamma": "1/10", "n_grid": [20, 10, 10]},
            {"kind": "converse", "gap": "1/10", "n_grid": [20, 10, 10]},
            {"kind": "second-order", "epsilon": 0.1, "n_grid": [20, 10, 10]},
        ],
        ids=lambda e: e["kind"],
    )
    def test_unsorted_grid_is_a_domain_error(self, tmp_path, capsys, experiment):
        # every grid must be sorted and duplicate-free, not only scan's
        code = main([experiment["kind"], "--config", self.write(tmp_path, config_text(PROBLEM_IID, **experiment))])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "domain"

    @pytest.mark.parametrize(
        "kind,experiment,problem",
        [
            (
                "scan",
                {"alpha_grid": ["9/10"], "n_grid": [10], "workers": 2},
                "experiment.workers: expected an integer n with 1 <= n <= 1, got 2",
            ),
            (
                "cost",
                {"n": 2, "alpha": "23/30", "budget": -5},
                "experiment.budget: expected an integer n with 0 <= n <= inf, got -5",
            ),
            (
                "achievability",
                {"gamma": "1/10", "n_grid": [2], "budget": -5},
                "experiment.budget: expected an integer n with 0 <= n <= inf, got -5",
            ),
        ],
        ids=["scan-workers", "cost-budget", "achievability-budget"],
    )
    def test_out_of_range_integer_exit_code(self, tmp_path, capsys, kind, experiment, problem):
        # a config error that names its key; a negative budget is not a budget exceeded
        code = main([kind, "--config", self.write(tmp_path, config_text(PROBLEM_IID, kind=kind, **experiment))])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "config"
        assert record["detail"] == [problem]

    def test_import_starts_no_process_pool(self):
        pools = {"concurrent.futures.process", "multiprocessing"}
        code = f"import sys, stochsched.cli; print(sorted({pools!r} & set(sys.modules)))"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert loaded.stdout.strip() == "[]"

    def test_resource_error_exit_code(self, tmp_path, capsys):
        text = config_text(PROBLEM_IID, kind="cost", n=100, alpha="1", budget=10)
        assert main(["cost", "--config", self.write(tmp_path, text)]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "resource"

    def test_zero_budget_is_a_resource_error(self, tmp_path, capsys):
        # zero is in range, so it parses and is then exceeded, unlike a negative budget
        text = config_text(PROBLEM_IID, kind="cost", n=100, alpha="1", budget=0)
        assert main(["cost", "--config", self.write(tmp_path, text)]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "resource"

    @pytest.mark.parametrize("t", [2**62, 2**63], ids=["2^62", "2^63"])
    @pytest.mark.parametrize(
        "experiment",
        [
            {"kind": "validate"},
            {"kind": "scan", "alpha_grid": ["1/2"], "n_grid": [2]},
            {"kind": "achievability", "gamma": "1/10", "n_grid": [2]},
            {"kind": "converse", "gap": "1/10", "n_grid": [2]},
            {"kind": "second-order", "epsilon": 0.1, "n_grid": [2]},
            *({"kind": "average-case", "n": 4, "trials": 20, "scheduler": s} for s in ("eft", "lpt", "brute-force")),
            *({"kind": "cost", "n": 2, "scheduler": s} for s in ("eft", "lpt", "brute-force")),
        ],
        ids=lambda e: "-".join(v for k, v in e.items() if k in ("kind", "scheduler")),
    )
    def test_job_times_past_int64(self, tmp_path, capsys, t, experiment):
        # every kind gives its table: the sum law, the schedulers and the sampler are exact at any job time
        problem = {**PROBLEM_IID, "alphabet": {"a": t, "b": t + 2}}
        if experiment["kind"] == "cost":
            experiment = {**experiment, "alpha": str(t + 2)}  # keeps every sequence
        code = main([experiment["kind"], "--config", self.write(tmp_path, config_text(problem, **experiment))])
        assert code == 0, capsys.readouterr().err

    def test_readme_worked_example(self, tmp_path, capsys):
        # the README's config, run through main, prints the README's table apart from the wall time
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("### Worked example", 1)[1]
        config = example.split("```json\n", 1)[1].split("```", 1)[0]
        shown = example.split("```text\n", 1)[1].split("```", 1)[0].splitlines()
        assert shown[0] == "$ stochsched achievability --config demo.json"
        assert main(["achievability", "--config", self.write(tmp_path, config)]) == 0
        printed = _without_wall_time(capsys.readouterr().out)
        assert printed == _without_wall_time("\n".join(shown[1:]))
        assert "# config_sha256=c1e588604dc906d53367bd703571455fd07c1a3445a5ab70b03bf336662ad03a" in printed
        assert printed[-3:] == [
            "10,0.171875000000,8,4/5,8,true",
            "50,0.0164195687821,39,39/50,39,true",
            "200,6.92872578618e-06,154,77/100,154,true",
        ]

    def test_oversized_sample_exit_code(self, tmp_path, capsys):
        # more bytes than numpy can address: refused before any array is made
        text = config_text(PROBLEM_IID, kind="average-case", n=10**9, trials=10**10)
        assert main(["average-case", "--config", self.write(tmp_path, text)]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "resource"

    def test_numeric_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def explode(config):
            raise NumericError("statistical check failed")

        monkeypatch.setattr("stochsched.cli.run", explode)
        assert main(["cost", "--config", self.write(tmp_path, COST_TEXT)]) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "numeric"

    def test_every_kind_has_a_subcommand(self, capsys):
        for kind in EXPERIMENT_KINDS:
            with pytest.raises(SystemExit):  # argparse exits on missing --config
                main([kind])
            capsys.readouterr()

    def test_repeated_calls_match_fresh_processes(self, tmp_path, capsys):
        # the parser is built once per process; a second call must not see the first one's arguments
        cost = self.write(tmp_path, COST_TEXT)
        validate = tmp_path / "validate.json"
        validate.write_text(config_text(PROBLEM_MARKOV, kind="validate"))
        calls = [["cost", "--config", cost, "--format", "jsonl"], ["validate", "--config", str(validate)]]
        _build_parser()
        outputs = []
        for argv in calls:
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert _build_parser.cache_info().misses == 1
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        for argv, out in zip(calls, outputs):
            fresh = subprocess.run(
                [sys.executable, "-m", "stochsched.cli", *argv], capture_output=True, text=True, env=env, check=True
            )
            assert _without_wall_time(out) == _without_wall_time(fresh.stdout)


def _without_wall_time(text: str) -> list[str]:
    lines = []
    for line in text.splitlines():
        if line.startswith("{"):
            record = json.loads(line)
            record.get("metadata", {}).pop("wall_time_s", None)
            line = json.dumps(record, sort_keys=True)
        elif line.startswith("# wall_time_s="):
            continue
        lines.append(line)
    return lines
