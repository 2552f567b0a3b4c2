"""The staged analysis pipeline and the batch entry points.

:class:`Analysis` decomposes a termination analysis into named stages —

    ``frontend`` → ``invariants`` → ``cutset`` → ``large_block``
    → ``synthesis`` → ``certificate``

— times each one, notifies observer hooks around them, and **caches the
built** :class:`~repro.core.problem.TerminationProblem`: running several
provers on the same program (``analysis.run("termite")`` then
``analysis.run("heuristic")``) builds the front half of the pipeline once
and shares it, instead of recomputing invariants per tool.

:func:`analyze` is the one-call entry point; :func:`analyze_many` fans a
batch out over the crash-isolated parallel engine of
:mod:`repro.reporting.parallel`, one worker task per program (all
requested tools run inside the same task so the problem cache is shared
even across process boundaries).
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Union

from repro.api.config import AnalysisConfig
from repro.api.registry import canonical_name, get_prover
from repro.api.request import AnalysisRequest
from repro.api.result import AnalysisResult, AnalysisStatus, StageTiming
from repro.core.certificate import check_certificate
from repro.core.lp_instance import LpStatistics
from repro.core.problem import TerminationProblem
from repro.core.relevance import restrict_to_guarded_states
from repro.frontend.lowering import compile_program
from repro.invariants.analyzer import compute_invariants
from repro.invariants.invariant_map import InvariantMap
from repro.metrics import merge, recording
from repro.program.automaton import ControlFlowAutomaton
from repro.program.cutset import compute_cutset
from repro.program.large_block import large_block_encoding

if TYPE_CHECKING:  # pragma: no cover - layering: these import the api
    from repro.checking.checker import CertificateVerdict
    from repro.reporting.parallel import TaskResult
    from repro.synthesis.engine import CegisEvent

#: An observer callback: ``hook(event, stage, seconds)`` with ``event`` in
#: ``{"start", "end"}`` (``seconds`` is ``None`` on ``"start"``).
StageObserver = Callable[[str, str, Optional[float]], None]

#: An engine observer: receives every per-iteration
#: :class:`~repro.synthesis.engine.CegisEvent` of a prover that
#: advertises the ``"events"`` capability (see ``Analysis``).
EngineObserver = Callable[["CegisEvent"], None]

#: Stages that build the shared :class:`TerminationProblem` (run once per
#: program) as opposed to the per-tool ``synthesis``/``certificate`` half.
BUILD_STAGES = ("frontend", "invariants", "cutset", "large_block")

#: All pipeline stages, in execution order.
STAGES = BUILD_STAGES + ("synthesis", "certificate")

#: Anything :class:`Analysis` accepts as its program argument.
ProgramLike = Union[str, ControlFlowAutomaton]


class Analysis:
    """One program moving through the staged termination pipeline.

    *program* is mini-language source text or a prepared control-flow
    automaton.  *invariants* and *cutset* are advanced overrides
    (externally computed invariants, a fixed cut-set); they are not part
    of the serializable config.
    """

    def __init__(
        self,
        program: ProgramLike,
        config: Optional[AnalysisConfig] = None,
        name: Optional[str] = None,
        observers: Sequence[StageObserver] = (),
        engine_observers: Sequence[EngineObserver] = (),
        invariants: Optional[InvariantMap] = None,
        cutset: Optional[Sequence[str]] = None,
    ):
        self.config = config if config is not None else AnalysisConfig()
        if isinstance(program, ControlFlowAutomaton):
            self._source: Optional[str] = None
            self._automaton: Optional[ControlFlowAutomaton] = program
        elif isinstance(program, str):
            self._source = program
            self._automaton = None
        else:
            raise TypeError(
                "program must be source text or a ControlFlowAutomaton, got %r"
                % type(program).__name__
            )
        self.name = name or getattr(self._automaton, "name", "") or "program"
        self._observers: List[StageObserver] = list(observers)
        self._engine_observers: List[EngineObserver] = list(engine_observers)
        self._given_invariants = invariants
        self._given_cutset = list(cutset) if cutset is not None else None
        self._problem: Optional[TerminationProblem] = None
        self._build_stages: List[StageTiming] = []
        self._build_metrics: Dict[str, int] = {}

    # -- observers ---------------------------------------------------------------

    def add_engine_observer(self, observer: EngineObserver) -> None:
        """Subscribe to the synthesis engine's per-iteration events.

        Events flow only from provers advertising the ``"events"``
        capability (the CEGIS-based ``termite``); other tools simply
        produce none.
        """
        self._engine_observers.append(observer)

    def _notify(self, event: str, stage: str, seconds: Optional[float]) -> None:
        for observer in self._observers:
            observer(event, stage, seconds)

    def _notify_engine(self, event: "CegisEvent") -> None:
        for observer in self._engine_observers:
            observer(event)

    @contextmanager
    def _stage(self, stage: str, timings: List[StageTiming]):
        self._notify("start", stage, None)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            timings.append(StageTiming(stage, elapsed))
            self._notify("end", stage, elapsed)

    # -- the front half: building the shared problem -----------------------------

    def automaton(self) -> ControlFlowAutomaton:
        """The control-flow automaton (``frontend`` stage, cached)."""
        if self._automaton is None:
            with self._stage("frontend", self._build_stages):
                self._automaton = compile_program(self._source, self.name)
        return self._automaton

    @property
    def problem_built(self) -> bool:
        return self._problem is not None

    def problem(self) -> TerminationProblem:
        """The built termination problem (cached across :meth:`run` calls)."""
        if self._problem is not None:
            return self._problem
        with recording() as counters:
            self._problem = self._build_problem()
        self._build_metrics = dict(counters)
        return self._problem

    def _build_problem(self) -> TerminationProblem:
        automaton = self.automaton()
        if not any(stage.name == "frontend" for stage in self._build_stages):
            # Automaton was given directly: record a zero-cost frontend
            # stage so every result carries the full stage breakdown.
            self._build_stages.append(StageTiming("frontend", 0.0))
            self._notify("start", "frontend", None)
            self._notify("end", "frontend", 0.0)
        with self._stage("invariants", self._build_stages):
            invariants = self._given_invariants
            if invariants is None:
                invariants = compute_invariants(automaton)
        with self._stage("cutset", self._build_stages):
            cutset = self._given_cutset or compute_cutset(automaton)
            if not cutset:
                # No cycle at all: the program trivially terminates; keep a
                # placeholder cut point so the problem stays well-formed.
                cutset = [automaton.initial_location]
        with self._stage("large_block", self._build_stages):
            invariants = restrict_to_guarded_states(automaton, cutset, invariants)
            blocks = large_block_encoding(automaton, cutset)
            return TerminationProblem(
                automaton.variables,
                cutset,
                invariants,
                blocks,
                sorted(automaton.integer_variables),
            )

    def build_seconds(self) -> float:
        """Wall-clock spent building the shared problem (0.0 until built)."""
        return sum(stage.seconds for stage in self._build_stages)

    # -- the back half: running a prover -----------------------------------------

    def run(self, tool: str = "termite") -> AnalysisResult:
        """Run *tool* (a registry name) on the cached problem.

        The returned result carries the full per-stage breakdown and the
        work counters (:mod:`repro.metrics`) of the build and of this run;
        its ``lp_statistics`` is the view of the ``synthesis`` stage's
        counters.
        The build is shared — its recorded timings and counters reappear
        in every result of this :class:`Analysis`, it is *not* re-run.
        """
        prover = get_prover(tool)
        problem = self.problem()
        run_stages: List[StageTiming] = []
        prove_kwargs = {}
        if self._engine_observers and "events" in prover.capabilities:
            prove_kwargs["observer"] = self._notify_engine
        if self.config.nonterm != "off" and "nontermination" in prover.capabilities:
            prove_kwargs["automaton"] = self.automaton()
        with recording() as counters:
            with self._stage("synthesis", run_stages), recording() as synthesis:
                result = prover.prove(problem, self.config, **prove_kwargs)
            result.lp_statistics = LpStatistics.from_metrics(synthesis)
            if self.config.check_certificates and (
                result.proved or result.disproved
            ):
                with self._stage("certificate", run_stages):
                    verdict = self.certify(result)
                if verdict is not None:
                    key = "certificate_verdict" if result.proved else "lasso_verdict"
                    result.details[key] = verdict.to_dict()
                    result.certificate_checked = verdict.accepted
        merged = merge(dict(self._build_metrics), counters)
        result.metrics = {name: n for name, n in sorted(merged.items()) if n}
        result.program = self.name
        result.problem_statistics = problem.statistics()
        result.stages = list(self._build_stages) + run_stages
        result.time_seconds = sum(stage.seconds for stage in result.stages)
        return result

    def certify(self, result: AnalysisResult) -> Optional["CertificateVerdict"]:
        """Independently audit the claim of *result* on this program.

        The one audit rule, shared by the ``certificate`` stage,
        ``repro check``, the fuzz harness and the service cache:

        * a TERMINATING claim with a ranking function goes to the Farkas
          checker (:func:`~repro.core.certificate.check_certificate`) on
          the built problem;
        * a NONTERMINATING claim with a lasso is replayed by
          :func:`~repro.checking.recurrence.check_recurrence` on the
          automaton alone — the problem is not built;
        * a TERMINATING claim on a cyclic problem without a ranking, or a
          NONTERMINATING claim without a lasso, is ``invalid`` (a missing
          certificate), and no checker runs;
        * anything else has nothing to audit: ``None``.

        Anything a checker raises is a checker bug and propagates: a
        second opinion that fails silently is no opinion.
        """
        from repro.checking.checker import CertificateVerdict
        from repro.checking.recurrence import check_recurrence

        if result.proved:
            if result.ranking is not None:
                return check_certificate(
                    self.problem(),
                    result.ranking,
                    integer_mode=self.config.integer_mode,
                )
            if self.problem().blocks:
                return CertificateVerdict.missing(
                    "TERMINATING claim on a cyclic program without a "
                    "ranking function"
                )
        elif result.disproved:
            if result.lasso is not None:
                return check_recurrence(self.automaton(), result.lasso)
            return CertificateVerdict.missing(
                "NONTERMINATING claim without a lasso witness"
            )
        return None


# -- batch execution ------------------------------------------------------------------


def _program_name(program, name: Optional[str]) -> str:
    if name:
        return name
    return getattr(program, "name", "") or "program"


def run_tools_on_program(
    program,
    tools: Sequence[str],
    config: Optional[AnalysisConfig] = None,
    name: Optional[str] = None,
) -> List[AnalysisResult]:
    """Run every tool in *tools* on one program, sharing the built problem.

    *program* may be source text, a control-flow automaton, or any object
    with ``build()``/``name`` (e.g. a benchmark description).  A failure —
    of the build, or of one tool — is recorded as an ``error`` result; one
    tool crashing never loses the other tools' outcomes.  This is the unit
    of work the parallel engines schedule.
    """
    program_name = _program_name(program, name)
    tools = [canonical_name(tool) for tool in tools]
    try:
        if hasattr(program, "build"):
            program = program.build()
        analysis = Analysis(program, config=config, name=program_name)
        analysis.problem()
    except Exception as error:
        return [
            AnalysisResult(
                tool=tool,
                program=program_name,
                status=AnalysisStatus.ERROR,
                error="%s: %s" % (type(error).__name__, error),
            )
            for tool in tools
        ]
    results = []
    for tool in tools:
        try:
            results.append(analysis.run(tool))
        except Exception as error:
            results.append(
                AnalysisResult(
                    tool=tool,
                    program=program_name,
                    status=AnalysisStatus.ERROR,
                    error="%s: %s" % (type(error).__name__, error),
                )
            )
    return results


def results_from_task(
    task: "TaskResult",
    tools: Sequence[str],
    name: str,
    timeout: Optional[float] = None,
) -> List[AnalysisResult]:
    """Unwrap one parallel-engine envelope into per-tool results.

    A successful task already carries the result list; a timeout, crash or
    engine-level error is expanded into one failed result per tool so the
    batch output stays rectangular.
    """
    if task.ok:
        return list(task.value)
    if task.kind == "timeout":
        return [
            AnalysisResult(
                tool=tool,
                program=name,
                status=AnalysisStatus.TIMEOUT,
                time_seconds=task.elapsed,
                error="timeout after %.1fs" % (timeout or task.elapsed),
                timed_out=True,
            )
            for tool in tools
        ]
    return [
        AnalysisResult(
            tool=tool,
            program=name,
            status=AnalysisStatus.ERROR,
            time_seconds=task.elapsed,
            error=task.message or task.kind,
        )
        for tool in tools
    ]


def analyze(
    program: Union[ProgramLike, AnalysisRequest],
    tool: str = "termite",
    config: Optional[AnalysisConfig] = None,
    name: Optional[str] = None,
    observers: Sequence[StageObserver] = (),
    engine_observers: Sequence[EngineObserver] = (),
) -> AnalysisResult:
    """Analyse one program with one tool — the canonical entry point.

    *program* may be an :class:`~repro.api.request.AnalysisRequest`,
    which already carries its tool, config and name — the same request
    object the ``repro prove`` command line and the JSON-RPC service
    construct.  Passing *tool*/*config*/*name* alongside a request is an
    error: the request is the single source of truth.
    """
    if isinstance(program, AnalysisRequest):
        if tool != "termite" or config is not None or name is not None:
            raise TypeError(
                "analyze(AnalysisRequest) takes no separate tool/config/name; "
                "the request already carries them"
            )
        request = program
        program, tool, config, name = (
            request.program,
            request.tool,
            request.config,
            request.name,
        )
    return Analysis(
        program,
        config=config,
        name=name,
        observers=observers,
        engine_observers=engine_observers,
    ).run(tool)


def analyze_many(
    programs: Sequence,
    tools: Sequence[str] = ("termite",),
    config: Optional[AnalysisConfig] = None,
    names: Optional[Sequence[str]] = None,
    jobs: int = 1,
    timeout: Optional[float] = None,
) -> List[AnalysisResult]:
    """Analyse a batch of programs, optionally in parallel.

    Returns results program-major (all tools of program 0, then program
    1, …), in deterministic submission order regardless of *jobs*.  Each
    program is one crash-isolated task: all its tools run in the same
    worker and share the built problem; *timeout* is the per-program
    budget covering every tool.
    """
    # Imported here, not at module level: the reporting package sits above
    # the api in the layering (its runner is built on these entry points).
    from repro.reporting.parallel import run_tasks

    programs = list(programs)
    if any(isinstance(program, AnalysisRequest) for program in programs):
        if not all(isinstance(program, AnalysisRequest) for program in programs):
            raise TypeError(
                "analyze_many: mix of AnalysisRequest and bare programs; "
                "pass one kind"
            )
        if tools != ("termite",) or config is not None or names is not None:
            raise TypeError(
                "analyze_many(requests) takes no separate tools/config/names; "
                "each request already carries them"
            )
        thunks = [
            functools.partial(
                run_tools_on_program,
                request.program,
                [request.tool],
                request.config,
                request.name,
            )
            for request in programs
        ]
        tasks = run_tasks(thunks, jobs=jobs, timeout=timeout)
        results: List[AnalysisResult] = []
        for task, request in zip(tasks, programs):
            results.extend(
                results_from_task(task, [request.tool], request.name, timeout)
            )
        return results

    tools = [canonical_name(tool) for tool in tools]
    if names is None:
        names = [_program_name(program, None) for program in programs]
    thunks = [
        functools.partial(run_tools_on_program, program, tools, config, name)
        for program, name in zip(programs, names)
    ]
    tasks = run_tasks(thunks, jobs=jobs, timeout=timeout)
    results = []
    for task, name in zip(tasks, names):
        results.extend(results_from_task(task, tools, name, timeout))
    return results
