"""Regression tests: the warm-started ranking LP.

The contract: across the whole counterexample loop, every fresh solve of
``LP(V, Constraints(I))`` on the persistent warm-started tableau returns
the same status and the exact optimum (Fraction equality) as the textbook
formulation solved cold from scratch, its point satisfies every textbook
constraint, and the warm path spends fewer simplex pivots than the cold
one.  :class:`ShadowCheck` enforces this by shadow-solving
:meth:`RankingLp.textbook_program` next to each fresh
:meth:`RankingLp.solve`; the corpus tests run it over every program of
the golden invariant corpus.
"""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from repro.api import Analysis, AnalysisConfig
from repro.benchsuite.registry import get_suite
from repro.core.lp_instance import LpStatistics, RankingLp, record_lp
from repro.linalg.vector import Vector
from repro.lp.problem import LpStatus
from repro.metrics import recording
from repro.synthesis.engine import CegisEngine
from repro.synthesis.oracles import make_oracle

GOLDEN = (
    Path(__file__).parent.parent / "invariants" / "data" / "golden_invariants.json"
)

#: Programs ``termite`` proves per suite of the golden corpus, without
#: certificate checking.
PROVED = {"wtc": 34, "termcomp": 97, "sorts": 4, "polybench": 5}

CONFIG = AnalysisConfig(check_certificates=False)


def _problem(automaton):
    return Analysis(automaton, config=CONFIG).problem()


def _engine():
    """The paper's configuration: smt oracle, extremal counterexamples."""
    return CegisEngine(make_oracle("smt"))


def _counted(call, *args):
    """``call(*args)`` and the :class:`LpStatistics` view of its counts."""
    with recording() as counts:
        result = call(*args)
    return result, LpStatistics.from_metrics(counts)


def _component(problem):
    return _counted(_engine().synthesize_component, problem)


def _lexicographic(problem):
    return _counted(_engine().synthesize_lexicographic, problem)


def _generator(problem, head):
    """A stacked generator whose first coordinates are *head*."""
    tail = [Fraction(0)] * (problem.stacked_dimension - len(head))
    return Vector([Fraction(value) for value in head] + tail)


def _textbook_mismatches(lp, solution):
    """Solve *lp*'s textbook program cold; list where *solution* differs.

    Returns the mismatches and the cold solve's pivots.
    """
    program = lp.textbook_program()
    cold = program.solve()
    if cold.status is not LpStatus.OPTIMAL:
        return ["status OPTIMAL vs %s" % cold.status], cold.pivots
    if cold.objective != sum(solution.deltas):
        return (
            ["optimum %s vs %s" % (sum(solution.deltas), cold.objective)],
            cold.pivots,
        )
    # The textbook variables are the γ's, then the δ's.
    point = dict(zip(program.variables(), solution.gammas + solution.deltas))
    violated = [
        "violates %s" % constraint
        for constraint in program.constraints
        if not constraint.satisfied_by(point)
    ]
    return violated, cold.pivots


class ShadowCheck:
    """Shadow-solves every fresh :meth:`RankingLp.solve` cold.

    A warm solve that is not optimal raises inside :meth:`RankingLp.solve`
    itself, so only the textbook side's status needs checking here.
    """

    def __init__(self):
        self.mismatches = []
        self.pivots = Counter()
        self.label = ""

    def install(self, patch):
        original = RankingLp.solve

        def shadowed(lp):
            solution, statistics = _counted(original, lp)
            if not statistics.instances:
                return solution  # cached repeat solve: nothing was solved
            mismatches, cold_pivots = _textbook_mismatches(lp, solution)
            self.mismatches.extend(
                "%s: %s" % (self.label, line) for line in mismatches
            )
            self.pivots["warm"] += statistics.pivots
            self.pivots["cold"] += cold_pivots
            self.pivots["solves"] += 1
            return solution

        patch.setattr(RankingLp, "solve", shadowed)


@pytest.fixture(scope="module")
def corpus_run():
    """Every golden-corpus program through ``termite``, shadow-checked."""
    shadow = ShadowCheck()
    programs = {
        suite: {program.name: program for program in get_suite(suite)}
        for suite in PROVED
    }
    statuses = {}
    with pytest.MonkeyPatch.context() as patch:
        shadow.install(patch)
        for key in sorted(json.loads(GOLDEN.read_text())):
            suite, name = key.split("/")
            shadow.label = key
            result = Analysis(
                programs[suite][name].build(), config=CONFIG, name=name
            ).run("termite")
            statuses[key] = result.status.value
    return shadow, statuses


class TestRankingLpModes:
    """Warm (incremental) solves against cold textbook solves."""

    def test_incremental_solution_matches_cold(self, example1_automaton):
        """Same generators in, same optimum out as a cold textbook solve."""
        problem = _problem(example1_automaton)
        lp = RankingLp(problem)
        with recording() as counts:
            for head in ([1, -1], [-1, -1]):
                lp.add_counterexample(_generator(problem, head))
                solution = lp.solve()
                assert _textbook_mismatches(lp, solution)[0] == []
        statistics = LpStatistics.from_metrics(counts)
        assert statistics.warm_solves == 1
        assert statistics.cold_solves == 1

    def test_textbook_program_shape(self, example1_automaton):
        problem = _problem(example1_automaton)
        lp = RankingLp(problem)
        lp.add_counterexample(_generator(problem, [1, -1]))
        program = lp.textbook_program()
        gammas = len(lp.rows)
        # γ ≥ 0 per invariant row; δ ≥ 0, δ ≤ 1 and one generator row per
        # counterexample.
        assert program.num_rows == gammas + 3
        assert program.num_cols == gammas + 1


class TestAuditModeAcrossTheLoop:
    """The shadow audit finds no warm/cold divergence in either algorithm."""

    def test_monodim_loop_audits_clean(self, example1_automaton, monkeypatch):
        shadow = ShadowCheck()
        shadow.install(monkeypatch)
        problem = _problem(example1_automaton)
        _, lp = _component(problem)
        assert shadow.mismatches == []
        assert shadow.pivots["solves"] == lp.instances >= 1
        assert lp.warm_solves + lp.cold_solves == lp.instances

    def test_multidim_loop_audits_clean(
        self, lexicographic_automaton, monkeypatch
    ):
        shadow = ShadowCheck()
        shadow.install(monkeypatch)
        problem = _problem(lexicographic_automaton)
        result, shared = _lexicographic(problem)
        assert result.success
        assert shadow.mismatches == []
        assert shadow.pivots["solves"] == shared.instances >= 1

    @pytest.mark.parametrize("suite,count", [("termcomp", 6), ("wtc", 6)])
    def test_provers_audit_clean_on_benchmarks(self, suite, count, monkeypatch):
        shadow = ShadowCheck()
        shadow.install(monkeypatch)
        warm_solves = 0
        for program in get_suite(suite)[:count]:
            shadow.label = "%s/%s" % (suite, program.name)
            result = Analysis(
                program.build(), config=CONFIG, name=program.name
            ).run("termite")
            assert result.status.value in ("terminating", "unknown")
            warm_solves += result.lp_statistics.warm_solves
        assert shadow.mismatches == []
        # The slice contains programs whose loops iterate, so warm
        # restarts must actually have happened (and audited clean).
        assert warm_solves >= 1


class TestShadowSolvedCorpus:
    def test_corpus_has_198_programs(self, corpus_run):
        _, statuses = corpus_run
        assert len(statuses) == 198

    def test_no_warm_cold_mismatch(self, corpus_run):
        shadow, statuses = corpus_run
        assert "error" not in statuses.values()
        assert shadow.pivots["solves"] > 0
        assert shadow.mismatches == []


class TestVerdictsAndSavings:
    def test_identical_verdicts_and_fewer_pivots_on_benchmarks(self, corpus_run):
        """The shadow-checked corpus proves the known per-suite counts, and
        the warm solves spend strictly fewer pivots than the cold ones."""
        shadow, statuses = corpus_run
        proved = Counter(
            key.split("/")[0]
            for key, status in statuses.items()
            if status == "terminating"
        )
        assert dict(proved) == PROVED
        assert shadow.pivots["warm"] < shadow.pivots["cold"]

    def test_monodim_statistics_carry_lp_counters(self, countdown_automaton):
        problem = _problem(countdown_automaton)
        _, lp = _component(problem)
        assert lp.instances >= 1
        assert lp.cold_solves == 1  # only the first solve starts cold
        assert lp.warm_solves + lp.cold_solves == lp.instances
        assert lp.pivots >= 1

    def test_shared_statistics_accumulate_across_dimensions(
        self, lexicographic_automaton, monkeypatch
    ):
        per_component = []
        original = CegisEngine.synthesize_component

        def recorded(engine, *args, **kwargs):
            result, statistics = _counted(
                lambda: original(engine, *args, **kwargs)
            )
            per_component.append(statistics)
            return result

        monkeypatch.setattr(CegisEngine, "synthesize_component", recorded)
        problem = _problem(lexicographic_automaton)
        result, shared = _lexicographic(problem)
        assert result.success
        assert len(per_component) == len(result.components)
        for name in ("instances", "pivots", "warm_solves"):
            assert getattr(shared, name) == sum(
                getattr(statistics, name) for statistics in per_component
            )


class TestStatisticsSurviveIterationBudget:
    def test_lp_statistics_merged_when_budget_blows(self, example3_automaton):
        """Hitting max_iterations must not lose the LP work already done."""
        config = CONFIG.replace(max_iterations=1)
        result = Analysis(example3_automaton, config=config).run("termite")
        assert result.status == "unknown"
        assert result.lp_statistics.instances >= 1
        assert result.lp_statistics.cold_solves >= 1


class TestStatisticsMergeAndSerialisation:
    def test_merge_includes_solver_counters(self):
        with recording() as counts:
            with recording():
                record_lp(3, 4, 5, warm=False)
            with recording():
                record_lp(6, 2, 2, warm=True)
        a = LpStatistics.from_metrics(counts)
        assert a.pivots == 7
        assert a.warm_solves == 1
        assert a.cold_solves == 1
        assert (a.max_rows, a.max_cols) == (6, 4)

    def test_removed_counter_in_old_payload_is_ignored(self):
        statistics = LpStatistics.from_dict({"pivots": 4, "warm_solves": 1})
        data = dict(statistics.to_dict(), pivots_saved=3)
        assert LpStatistics.from_dict(data) == statistics
        assert "pivots_saved" not in statistics.to_dict()


class TestRepeatSolveAccounting:
    def test_cached_resolve_not_double_counted(self, example1_automaton):
        """A repeat solve with no new counterexample reuses the cached
        optimum and must not inflate the pivot/solve counters."""
        problem = _problem(example1_automaton)
        lp = RankingLp(problem)
        lp.add_counterexample(_generator(problem, [1, -1]))
        first, statistics = _counted(lp.solve)
        assert statistics.instances == 1
        second, repeat = _counted(lp.solve)
        assert second.gammas == first.gammas and second.deltas == first.deltas
        assert repeat.pivots == 0
        assert repeat.warm_solves + repeat.cold_solves == 0
        assert repeat.instances == 0
