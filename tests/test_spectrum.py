import json
import math
from fractions import Fraction

import numpy as np
import pytest

from stochsched import (
    DomainError,
    IIDModel,
    MachineSet,
    MixtureModel,
    NumericError,
    RateExperimentRow,
    ResourceError,
    SchedulingProblem,
    ThresholdDiscardSet,
    achievability_experiment,
    average_case_bracket,
    converse_experiment,
    cost_exact,
    makespans_scaled,
    sample_time_matrix,
    spectral_rates,
    spectral_scan,
)

from stochsched import cli, schedulers, spectrum
from stochsched.cli import parse_config
from stochsched.core import _span_bracket

from .oracles import best_makespan_by_enumeration, lpt_by_loop, makespan_of


class TestTheoreticalRates:
    def test_desk_values(self, iid_problem, markov_problem, mixture_problem):
        assert spectral_rates(iid_problem) == (Fraction(2, 3), Fraction(2, 3))
        assert spectral_rates(markov_problem) == (Fraction(4, 9), Fraction(4, 9))
        assert spectral_rates(mixture_problem) == (Fraction(2, 3), Fraction(1, 2))

    def test_strong_converse_flags(self, iid_problem, markov_problem, mixture_problem):
        # validate's last three cells: ebar, ebar_under and whether they coincide
        for problem, holds in ((iid_problem, True), (markov_problem, True), (mixture_problem, False)):
            [row], _ = cli._run_validate(problem, {}, 0)
            assert row[-3:] == (*spectral_rates(problem), holds)
            assert row[-1] is holds

    def test_nested_mixture_flattens(self, desk_alphabet, desk_machines, iid_problem, mixture_problem):
        from stochsched import SchedulingProblem

        slow = IIDModel({"a": Fraction(1, 4), "b": Fraction(3, 4)})  # mean 5/2
        nested = MixtureModel(
            ((Fraction(1, 2), mixture_problem.process), (Fraction(1, 2), slow))
        )
        problem = SchedulingProblem(desk_alphabet, desk_machines, nested)
        assert spectral_rates(problem) == (Fraction(5, 6), Fraction(1, 2))

    def test_equal_mean_mixture_keeps_converse(self, desk_machines):
        from stochsched import JobAlphabet, SchedulingProblem

        alphabet = JobAlphabet({"a": 1, "b": 2, "c": 3})
        spread = IIDModel({"a": Fraction(1, 2), "b": Fraction(0), "c": Fraction(1, 2)})
        point = IIDModel({"a": Fraction(0), "b": Fraction(1), "c": Fraction(0)})
        mixed = MixtureModel(((Fraction(1, 2), spread), (Fraction(1, 2), point)))
        problem = SchedulingProblem(alphabet, desk_machines, mixed)
        # both components have mean 2, so the rate spectrum collapses to a point
        assert spectral_rates(problem) == (Fraction(2, 3), Fraction(2, 3))

    def test_lower_tail_vanishes_below_underline_rate(self, iid_problem):
        from stochsched import sum_distribution

        alpha = Fraction(1, 2)
        assert alpha < spectral_rates(iid_problem)[1]
        tails = []
        for n in (50, 100, 200):
            dist = sum_distribution(iid_problem.process, iid_problem.alphabet, n)
            tails.append(dist.prob_below(n * 3 * alpha))
        assert tails[0] >= tails[1] >= tails[2]
        assert tails[2] < 1e-6


class TestSpectralScan:
    def test_converges_just_above_ebar(self, iid_problem):
        report = spectral_scan(
            iid_problem,
            [Fraction(3, 5), Fraction(7, 10)],
            [50, 200, 1000, 2000],
            delta=1e-3,
        )
        assert report.converged == (False, True)
        assert report.ebar_estimate == Fraction(7, 10)
        assert report.tail[-1][0] == 1.0  # below ebar the tail saturates
        assert report.tail[-1][1] < 1e-3
        for j in range(2):  # tails are probabilities
            for i in range(4):
                assert 0.0 <= report.tail[i][j] <= 1.0
        for row in report.tail:  # larger alpha, smaller tail
            assert row[0] >= row[1]

    def test_no_converged_alpha_gives_none(self, iid_problem):
        report = spectral_scan(iid_problem, [Fraction(1, 2)], [10, 20, 40])
        assert report.converged == (False,)
        assert report.ebar_estimate is None

    def test_grid_validation(self, iid_problem):
        with pytest.raises(DomainError):
            spectral_scan(iid_problem, [], [10])
        with pytest.raises(DomainError):
            spectral_scan(iid_problem, [Fraction(2), Fraction(1)], [10])
        with pytest.raises(DomainError):
            spectral_scan(iid_problem, [Fraction(1)], [10, 10])
        with pytest.raises(DomainError):
            spectral_scan(iid_problem, [Fraction(1)], [10], delta=1.0)


class TestAchievability:
    def test_desk_row(self, iid_problem):
        rows = achievability_experiment(iid_problem, Fraction(1, 10), "brute-force", [2])
        (row,) = rows
        assert row.n == 2
        assert row.discard_prob == 0.25
        assert row.cost == Fraction(3, 2)
        assert row.cost_per_job == Fraction(3, 4)
        assert row.cost_lower == row.cost
        assert row.exact is True

    def test_bracket_rows_bound_the_exact_cost(self, iid_problem):
        exact_rows = achievability_experiment(
            iid_problem, Fraction(1, 10), "eft", [40]
        )
        forced = achievability_experiment(
            iid_problem, Fraction(1, 10), "eft", [40], budget=10
        )
        assert exact_rows[0].exact is True
        assert forced[0].exact is False
        assert forced[0].cost_lower <= exact_rows[0].cost <= forced[0].cost
        assert forced[0].cost - forced[0].cost_lower == 3  # t_max / v_min
        assert forced[0].discard_prob == exact_rows[0].discard_prob

    def test_cost_row_consistency(self, iid_problem):
        rows = achievability_experiment(
            iid_problem, Fraction(1, 10), "eft", [5, 10, 20]
        )
        alpha = Fraction(23, 30)
        for row in rows:
            assert row.cost_per_job == row.cost / row.n
            # per-job cost of any kept sequence obeys alpha + t_max/(n v_min)
            assert row.cost_per_job <= alpha + Fraction(3, row.n)

    def test_row_invariant_enforced(self):
        with pytest.raises(DomainError):
            RateExperimentRow(
                n=2,
                discard_prob=0.0,
                cost=Fraction(3),
                cost_per_job=Fraction(1),
                cost_lower=Fraction(3),
                exact=True,
            )

    def test_brute_force_budget_refuses_before_the_dp(self, monkeypatch, iid_problem):
        # 2^24 assignments exceed _BRUTE_FORCE_BUDGET = 10^7 while 25 multisets x 24 jobs fit cost_exact's
        discard = ThresholdDiscardSet(n=24, alpha=Fraction(1))
        with pytest.raises(ResourceError, match=r"2\^24 assignments"):
            cost_exact("brute-force", discard, iid_problem)
        with pytest.raises(ResourceError, match=r"2\^24 assignments"):
            average_case_bracket(iid_problem, 24, 4, seed=0, scheduler="brute-force")
        (row,) = achievability_experiment(iid_problem, Fraction(1, 10), "brute-force", [24])
        assert row.exact is False
        monkeypatch.setattr(schedulers, "_BRUTE_FORCE_BUDGET", 2**24)
        assert cost_exact("brute-force", discard, iid_problem) >= row.cost_lower
        average_case_bracket(iid_problem, 24, 4, seed=0, scheduler="brute-force")

    def test_gamma_must_be_positive(self, iid_problem):
        with pytest.raises(DomainError):
            achievability_experiment(iid_problem, Fraction(0), "brute-force", [2])
        with pytest.raises(DomainError):
            achievability_experiment(iid_problem, Fraction(-1, 10), "brute-force", [2])


class TestConverse:
    def test_desk_value(self, iid_problem):
        assert converse_experiment(iid_problem, Fraction(1, 6), [2]) == [(2, 0.75)]

    def test_tail_grows_toward_one(self, iid_problem):
        rows = converse_experiment(iid_problem, Fraction(1, 6), [10, 50, 200, 800])
        probs = [p for _, p in rows]
        assert probs == sorted(probs)
        assert probs[-1] > 0.99

    def test_mixture_plateaus_at_component_weight(self, mixture_problem):
        # targeting a rate between the two component rates discards (only) the
        # slow component in the limit, so the tail sticks at its weight
        (row,) = converse_experiment(mixture_problem, Fraction(7, 60), [400])
        assert abs(row[1] - 0.5) < 0.05

    def test_gap_range_validation(self, iid_problem):
        for gap in (Fraction(0), Fraction(2, 3), Fraction(1)):
            with pytest.raises(DomainError):
                converse_experiment(iid_problem, gap, [10])


class TestAverageCase:
    def test_deterministic_in_seed(self, iid_problem):
        a = average_case_bracket(iid_problem, 50, 400, seed=3, scheduler="eft")
        b = average_case_bracket(iid_problem, 50, 400, seed=3, scheduler="eft")
        c = average_case_bracket(iid_problem, 50, 400, seed=4, scheduler="eft")
        assert a == b
        assert a.mc_mean_span_per_job != c.mc_mean_span_per_job

    def test_bracket_contains_theory(self, iid_problem):
        res = average_case_bracket(iid_problem, 50, 400, seed=3, scheduler="eft")
        assert res.bracket_lo == pytest.approx(2 / 3)
        assert res.bracket_hi == pytest.approx(2 / 3 + 3 / 50)
        assert res.bracket_lo - 3 * res.std_error <= res.mc_mean_span_per_job
        assert res.mc_mean_span_per_job <= res.bracket_hi + 3 * res.std_error

    def test_optimal_never_beats_heuristics_in_mean(self, iid_problem):
        opt = average_case_bracket(iid_problem, 6, 64, seed=9, scheduler="brute-force")
        eft = average_case_bracket(iid_problem, 6, 64, seed=9, scheduler="eft")
        lpt = average_case_bracket(iid_problem, 6, 64, seed=9, scheduler="lpt")
        assert opt.mc_mean_span_per_job <= eft.mc_mean_span_per_job
        assert opt.mc_mean_span_per_job <= lpt.mc_mean_span_per_job

    def test_brute_force_mean_matches_per_trial_search(self, iid_problem):
        res = average_case_bracket(iid_problem, 7, 50, seed=5, scheduler="brute-force")
        times = sample_time_matrix(iid_problem.process, iid_problem.alphabet, 7, 50, 5)
        symbol = {t: sym for sym, t in iid_problem.alphabet.proc_time.items()}
        seqs = [tuple(symbol[t] for t in row) for row in times.tolist()]
        spans = [float(best_makespan_by_enumeration(seq, iid_problem)) for seq in seqs]
        assert res.mc_mean_span_per_job == float((np.array(spans) / 7).mean())

    def test_lpt_mean_matches_per_trial_loop(self, iid_problem):
        res = average_case_bracket(iid_problem, 7, 50, seed=5, scheduler="lpt")
        times = sample_time_matrix(iid_problem.process, iid_problem.alphabet, 7, 50, 5)
        symbol = {t: sym for sym, t in iid_problem.alphabet.proc_time.items()}
        seqs = [tuple(symbol[t] for t in row) for row in times.tolist()]
        spans = [float(makespan_of(lpt_by_loop(seq, iid_problem), seq, iid_problem)) for seq in seqs]
        assert res.mc_mean_span_per_job == float((np.array(spans) / 7).mean())

    def test_markov_run(self, markov_problem):
        res = average_case_bracket(markov_problem, 80, 300, seed=1, scheduler="eft")
        assert res.bracket_lo == pytest.approx(4 / 9)

    def test_degenerate_process_has_zero_spread(self, desk_alphabet, desk_machines):
        from stochsched import SchedulingProblem

        sure = IIDModel({"a": Fraction(1), "b": Fraction(0)})
        problem = SchedulingProblem(desk_alphabet, desk_machines, sure)
        res = average_case_bracket(problem, 5, 16, seed=0, scheduler="eft")
        # every trial is the same all-a sequence: EFT packs loads (2, 3), span 2
        assert res.std_error == 0.0
        assert res.total_z == 0.0
        assert res.mc_mean_span_per_job == pytest.approx(0.4)
        assert res.bracket_lo <= res.mc_mean_span_per_job <= res.bracket_hi

    def test_trials_validation(self, iid_problem):
        with pytest.raises(DomainError):
            average_case_bracket(iid_problem, 10, 1, seed=0, scheduler="eft")

    def test_chance_low_mean_is_reported_not_raised(self):
        # a k=3 stationary chain under LPT on two equal machines: each makespan
        # sits a hair above T/v_sum, so the mean rides the bracket's lower end,
        # and at this seed the sampled T_n falls 3.17 standard errors low
        config = parse_config(json.dumps({
            "problem": {
                "alphabet": {"a": 3, "b": 1, "c": 7},
                "machines": ["1", "1"],
                "process": {
                    "kind": "markov",
                    "symbols": ["a", "b", "c"],
                    "transition": [["7/20", "7/20", "3/10"], ["1/20", "3/4", "1/5"], ["1/20", "9/10", "1/20"]],
                    "initial": "stationary",
                },
            },
            "experiment": {"kind": "average-case", "n": 252, "trials": 9830, "scheduler": "lpt", "master_seed": 1764256832},
        }))
        res = average_case_bracket(config.problem, 252, 9830, config.master_seed, "lpt")
        assert res.mc_mean_span_per_job < res.bracket_lo - 3 * res.std_error
        assert res.total_z == pytest.approx(-3.17, abs=0.01)

    def test_many_seeds_never_raise(self, iid_problem, markov_problem):
        # every sampled makespan lies in its own row's bracket whatever the
        # draw; the z-scores of the sampled totals look standard normal
        equal = SchedulingProblem(iid_problem.alphabet, MachineSet((Fraction(1), Fraction(1))), iid_problem.process)
        scores = []
        for seed in range(100):
            for problem, scheduler in ((equal, "lpt"), (markov_problem, "eft")):
                scores.append(average_case_bracket(problem, 24, 200, seed, scheduler).total_z)
        assert max(abs(z) for z in scores) < 4.5
        assert 0.7 < sum(z * z for z in scores) / len(scores) < 1.3

    @pytest.mark.parametrize("edge", ["below", "at-low", "at-high", "above"])
    def test_each_makespan_is_checked_in_its_own_bracket(self, monkeypatch, iid_problem, edge):
        # row 7's makespan set to an end of its row's bracket, or one scaled unit past it
        def moved(scheduler, times, machines):
            scaled, scale = makespans_scaled(scheduler, times, machines)
            lo, hi = _span_bracket(int(times[7].sum()), iid_problem)
            ends = {"at-low": math.ceil(lo * scale), "at-high": math.floor(hi * scale)}
            ends.update(below=ends["at-low"] - 1, above=ends["at-high"] + 1)
            scaled = scaled.copy()
            scaled[7] = ends[edge]
            return scaled, scale

        monkeypatch.setattr(spectrum, "makespans_scaled", moved)
        if edge.startswith("at"):
            average_case_bracket(iid_problem, 30, 20, seed=1, scheduler="eft")
        else:
            with pytest.raises(NumericError, match="sampled row 7"):
                average_case_bracket(iid_problem, 30, 20, seed=1, scheduler="eft")
