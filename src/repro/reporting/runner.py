"""Run the provers over benchmark suites and aggregate Table-1 statistics.

The engine behind ``benchmarks/table1.py``, ``repro table1`` and the CI
benchmark smoke job, rebuilt on the unified analysis API: tools are
resolved through the **prover registry** (:func:`repro.api.get_prover` —
no per-tool dispatch glue here), every outcome is a unified
:class:`~repro.api.result.AnalysisResult`, and each scheduled task is
*one program with all requested tools*, so the staged pipeline builds the
:class:`~repro.core.problem.TerminationProblem` (invariants, cut-set,
large blocks) **once per program** and shares it across tools — even
across worker-process boundaries.  The wall-clock that sharing saves is
reported in the JSON summary (``totals.problem_sharing``).

A prover crash or timeout records a failed outcome instead of aborting
the table, and the whole run serialises to machine-readable JSON for CI.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.api.config import AnalysisConfig
from repro.api.pipeline import BUILD_STAGES, analyze_many
from repro.api.registry import available_provers, canonical_name, get_prover
from repro.api.result import AnalysisResult
from repro.benchsuite.program import BenchmarkProgram


class _ToolsView(Mapping):
    """A live, read-only view of the prover registry.

    Always consistent with :func:`repro.api.available_provers` — provers
    registered after import appear immediately.  Note this intentionally
    differs from the pre-registry shape: keys are canonical underscore
    names (hyphenated spellings still resolve on lookup) and the values
    are :class:`~repro.api.registry.Prover` objects, not callables —
    see ``docs/MIGRATION.md``.
    """

    def __getitem__(self, name: str):
        return get_prover(name)

    def __iter__(self) -> Iterator[str]:
        return iter(available_provers())

    def __len__(self) -> int:
        return len(available_provers())

    def __repr__(self) -> str:
        return "TOOLS(%s)" % ", ".join(available_provers())


#: The tool column of Table 1 (registry name → prover object), as a live
#: registry view.  Scheduling goes through the registry.
TOOLS: Mapping = _ToolsView()


def _benchmark_config(config: Optional[AnalysisConfig]) -> AnalysisConfig:
    """The effective benchmark config.

    With no explicit *config*, benchmark runs measure synthesis, not the
    (separately tested) certifier.
    """
    if config is not None:
        return config
    return AnalysisConfig(check_certificates=False)


@dataclass
class SuiteReport:
    """Aggregate of one tool over one suite (one cell row of Table 1)."""

    suite: str
    tool: str
    outcomes: List[AnalysisResult] = field(default_factory=list)
    #: Programs whose verdict contradicts the suite's ground truth: a
    #: TERMINATING claim on a diverging program or a NONTERMINATING
    #: claim on a terminating one.
    unsound: List[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def successes(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.proved)

    @property
    def failures(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.error is not None)

    @property
    def timeouts(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.timed_out)

    @property
    def average_time_ms(self) -> float:
        if not self.outcomes:
            return 0.0
        return 1000.0 * sum(o.time_seconds for o in self.outcomes) / len(self.outcomes)

    @property
    def average_lp_rows(self) -> float:
        sizes = [
            o.lp_statistics.average_rows
            for o in self.outcomes
            if o.lp_statistics.instances
        ]
        return sum(sizes) / len(sizes) if sizes else 0.0

    @property
    def average_lp_cols(self) -> float:
        sizes = [
            o.lp_statistics.average_cols
            for o in self.outcomes
            if o.lp_statistics.instances
        ]
        return sum(sizes) / len(sizes) if sizes else 0.0

    @property
    def total_pivots(self) -> int:
        return sum(o.lp_statistics.pivots for o in self.outcomes)

    @property
    def warm_solves(self) -> int:
        return sum(o.lp_statistics.warm_solves for o in self.outcomes)

    @property
    def cold_solves(self) -> int:
        return sum(o.lp_statistics.cold_solves for o in self.outcomes)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "tool": self.tool,
            "total": self.total,
            "successes": self.successes,
            "failures": self.failures,
            "timeouts": self.timeouts,
            "unsound": list(self.unsound),
            "average_time_ms": round(self.average_time_ms, 3),
            "average_lp_rows": round(self.average_lp_rows, 3),
            "average_lp_cols": round(self.average_lp_cols, 3),
            "total_pivots": self.total_pivots,
            "warm_solves": self.warm_solves,
            "cold_solves": self.cold_solves,
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }


def select_programs(
    programs: Sequence[BenchmarkProgram],
    limit: Optional[int] = None,
    name_filter: Optional[str] = None,
) -> List[BenchmarkProgram]:
    """Apply the harness' program filters (substring match, then limit)."""
    selected = list(programs)
    if name_filter:
        selected = [p for p in selected if name_filter in p.name]
    if limit is not None:
        selected = selected[: max(0, limit)]
    return selected


def _run_and_collate(
    suites_programs: Dict[str, List[BenchmarkProgram]],
    tools: Sequence[str],
    config: Optional[AnalysisConfig],
    jobs: int,
    timeout: Optional[float],
) -> List[SuiteReport]:
    """Run every program with all *tools* (:func:`analyze_many`: one task
    per program, sharing its built problem) and group the results into
    (suite, tool) reports, ordered suite-major then tool, with programs
    in selection order."""
    tools = [canonical_name(tool) for tool in tools]
    results = iter(
        analyze_many(
            [p for programs in suites_programs.values() for p in programs],
            tools,
            _benchmark_config(config),
            jobs=jobs,
            timeout=timeout,
        )
    )
    reports: List[SuiteReport] = []
    for suite, programs in suites_programs.items():
        rows = [[next(results) for _ in tools] for _ in programs]
        for position, tool in enumerate(tools):
            report = SuiteReport(suite=suite, tool=tool)
            for program, row in zip(programs, rows):
                outcome = row[position]
                report.outcomes.append(outcome)
                if (outcome.proved and not program.terminating) or (
                    outcome.disproved and program.terminating
                ):
                    report.unsound.append(program.name)
            reports.append(report)
    return reports


def run_suite(
    suite: str,
    programs: Sequence[BenchmarkProgram],
    tool: str = "termite",
    limit: Optional[int] = None,
    jobs: int = 1,
    timeout: Optional[float] = None,
    config: Optional[AnalysisConfig] = None,
) -> SuiteReport:
    """Run *tool* over *programs* and aggregate the Table-1 statistics.

    ``limit`` restricts the run to the first *limit* programs; ``jobs``
    runs that many programs concurrently in crash-isolated processes;
    ``timeout`` kills any single program after that many wall-clock
    seconds and records a failed outcome in its place.  An empty (or
    fully filtered) suite yields an empty report, not an error.
    """
    selected = {suite: select_programs(programs, limit)}
    return _run_and_collate(selected, [tool], config, jobs, timeout)[0]


def run_table1(
    suites: Dict[str, Sequence[BenchmarkProgram]],
    tools: Sequence[str],
    limit: Optional[int] = None,
    jobs: int = 1,
    timeout: Optional[float] = None,
    name_filter: Optional[str] = None,
    config: Optional[AnalysisConfig] = None,
) -> List[SuiteReport]:
    """Run every (suite, tool) cell of Table 1 through one shared task pool.

    One task per *program* covers **all requested tools**: the termination
    problem (invariants + large blocks) is built once inside the worker
    and shared, instead of being rebuilt per tool — the historical
    behaviour this replaces.  ``timeout`` is therefore the per-program
    budget across its tools.  Reports come back grouped and ordered by
    (suite, tool) submission order, programs in selection order,
    deterministically regardless of ``jobs``.
    """
    selected = {
        suite: select_programs(programs, limit, name_filter)
        for suite, programs in suites.items()
    }
    return _run_and_collate(selected, tools, config, jobs, timeout)


def _problem_sharing_totals(reports: Sequence[SuiteReport]) -> dict:
    """How much wall-clock the shared problem build saved.

    Outcomes of the same (suite, program) across tools carry identical
    build-stage timings (the build ran once); every tool beyond the first
    therefore avoided one rebuild worth ``build_seconds``.  Programs are
    identified by their position within the suite's outcome list (aligned
    across that suite's tools), not by name — two same-named programs
    must not be merged.
    """
    by_program: Dict[tuple, List[AnalysisResult]] = {}
    for report in reports:
        for position, outcome in enumerate(report.outcomes):
            if outcome.stages:  # failed envelopes carry no stage breakdown
                by_program.setdefault((report.suite, position), []).append(
                    outcome
                )
    builds = 0
    reuses = 0
    seconds_saved = 0.0
    for outcomes in by_program.values():
        build_seconds = sum(
            outcomes[0].stage_seconds(stage) for stage in BUILD_STAGES
        )
        builds += 1
        reuses += len(outcomes) - 1
        seconds_saved += build_seconds * (len(outcomes) - 1)
    return {
        "problem_builds": builds,
        "rebuilds_avoided": reuses,
        "seconds_saved": round(seconds_saved, 6),
    }


def reports_to_json_dict(
    reports: Sequence[SuiteReport], meta: Optional[dict] = None
) -> dict:
    """The machine-readable run summary consumed by CI and the dashboards.

    ``schema_version`` 2: outcomes are full
    :meth:`~repro.api.result.AnalysisResult.to_dict` documents (supersets
    of the v1 shape) and ``totals.problem_sharing`` reports the wall-clock
    saved by building each program's termination problem once across
    tools.
    """
    document = {
        "schema_version": 2,
        "generator": "repro.reporting.runner",
        "suites": [report.to_dict() for report in reports],
        "totals": {
            "programs": sum(report.total for report in reports),
            "successes": sum(report.successes for report in reports),
            "failures": sum(report.failures for report in reports),
            "timeouts": sum(report.timeouts for report in reports),
            "unsound": sum(len(report.unsound) for report in reports),
            "total_pivots": sum(report.total_pivots for report in reports),
            "warm_solves": sum(report.warm_solves for report in reports),
            "cold_solves": sum(report.cold_solves for report in reports),
            "problem_sharing": _problem_sharing_totals(reports),
        },
    }
    if meta:
        document["meta"] = dict(meta)
    return document
