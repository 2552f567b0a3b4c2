"""Cross-prover differential testing with independent certificate audit.

The harness runs every requested prover from the :mod:`repro.api`
registry on each program (building the termination problem once and
sharing it, exactly like the batch runner), audits every claim with the
pipeline's one audit rule (:meth:`repro.api.Analysis.certify`), and
judges the results by those verdicts and the ground truth:

* a claimed ``TERMINATING`` verdict whose ranking function the
  independent checker *rejects* is a soundness violation
  (``certificate_rejected``) — the checker's witness state is attached;
* any ``TERMINATING`` verdict on a program that is nonterminating by
  construction is a soundness violation (``proved_nonterminating``);
* a prover claiming ``TERMINATING`` on a cyclic program *without*
  producing a ranking is flagged (``missing_certificate``);
* the ground truth is **two-sided**: any ``NONTERMINATING`` verdict on a
  program that is terminating by construction is a soundness violation
  (``nonterm_on_terminating``), and a ``NONTERMINATING`` claim whose
  lasso witness is missing or refuted by the independent recurrence
  checker is one too (``lasso_rejected``).

Prover *disagreements* (one tool proves, another returns UNKNOWN) are
expected — the baselines are incomplete in different ways — and are
tallied, not flagged.  :func:`fuzz` drives the harness over the seeded
generator and greedily shrinks every ``certificate_rejected`` reproducer
(the other kinds are not shrunk: shrinking could silently change the
ground truth the violation is judged against).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.api import AnalysisConfig, Analysis, available_provers, canonical_name
from repro.api.result import AnalysisResult
from repro.checking.checker import CertificateVerdict
from repro.checking.generator import (
    GeneratedProgram,
    NONTERMINATING,
    ProgramGenerator,
    TERMINATING,
    shrink_program,
)
from repro.frontend.errors import FrontendError

#: Report schema version (bump on incompatible changes).
SCHEMA_VERSION = 1


def default_fuzz_config() -> AnalysisConfig:
    """The fuzz campaign's analysis configuration.

    Only the synthesis budgets differ from the defaults, and they are kept
    modest: a hard generated program coming back UNKNOWN is fine — the
    campaign optimises for many diverse programs per second.  The
    ``certificate`` stage keeps its default (on) for anyone running this
    config through the pipeline; :func:`audit_source` audits every claim
    itself, whatever the flag says.
    """
    return AnalysisConfig(
        max_iterations=60,
        max_dimension=4,
        nonterm="auto",
    )


@dataclass
class SoundnessViolation:
    """One observed soundness violation, with a reproducer."""

    kind: str  # "certificate_rejected" | "proved_nonterminating"
    # | "missing_certificate" | "nonterm_on_terminating" | "lasso_rejected"
    program: str
    tool: str
    detail: str
    source: str
    seed: Optional[int] = None
    index: Optional[int] = None
    shape: str = ""
    original_source: str = ""
    failures: List[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "program": self.program,
            "tool": self.tool,
            "detail": self.detail,
            "source": self.source,
            "seed": self.seed,
            "index": self.index,
            "shape": self.shape,
            "original_source": self.original_source,
            "failures": list(self.failures),
        }

    def __repr__(self) -> str:
        return "SoundnessViolation(%s, %s on %s)" % (self.kind, self.tool, self.program)


@dataclass
class ProgramAudit:
    """Everything the harness learned about one program."""

    name: str
    results: List[AnalysisResult] = field(default_factory=list)
    verdicts: Dict[str, CertificateVerdict] = field(default_factory=dict)
    lasso_verdicts: Dict[str, CertificateVerdict] = field(default_factory=dict)
    violations: List[SoundnessViolation] = field(default_factory=list)
    build_error: Optional[str] = None


@dataclass
class FuzzReport:
    """Aggregate outcome of a differential run."""

    seed: Optional[int]
    count: int
    tools: List[str]
    programs: int = 0
    outcomes: Dict[str, Dict[str, int]] = field(default_factory=dict)
    certificates_checked: int = 0
    certificates_valid: int = 0
    certificates_inconclusive: int = 0
    lassos_checked: int = 0
    lassos_valid: int = 0
    lassos_inconclusive: int = 0
    disagreements: int = 0
    violations: List[SoundnessViolation] = field(default_factory=list)
    build_errors: List[str] = field(default_factory=list)
    timeouts: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations and not self.build_errors

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "seed": self.seed,
            "count": self.count,
            "tools": list(self.tools),
            "programs": self.programs,
            "outcomes": {tool: dict(tally) for tool, tally in self.outcomes.items()},
            "certificates_checked": self.certificates_checked,
            "certificates_valid": self.certificates_valid,
            "certificates_inconclusive": self.certificates_inconclusive,
            "lassos_checked": self.lassos_checked,
            "lassos_valid": self.lassos_valid,
            "lassos_inconclusive": self.lassos_inconclusive,
            "disagreements": self.disagreements,
            "violations": [violation.to_dict() for violation in self.violations],
            "build_errors": list(self.build_errors),
            "timeouts": list(self.timeouts),
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "ok": self.ok,
        }

    def summary(self) -> str:
        lines = [
            "%d programs x %d tools | %d certificates audited "
            "(%d valid, %d inconclusive) | %d lassos audited "
            "(%d valid, %d inconclusive) | %d prover disagreements"
            % (
                self.programs,
                len(self.tools),
                self.certificates_checked,
                self.certificates_valid,
                self.certificates_inconclusive,
                self.lassos_checked,
                self.lassos_valid,
                self.lassos_inconclusive,
                self.disagreements,
            )
        ]
        for tool in self.tools:
            tally = self.outcomes.get(tool, {})
            lines.append(
                "  %-22s proved %-4d nonterm %-4d unknown %-4d error %d"
                % (
                    tool,
                    tally.get("terminating", 0),
                    tally.get("nonterminating", 0),
                    tally.get("unknown", 0),
                    tally.get("error", 0) + tally.get("timeout", 0),
                )
            )
        if self.build_errors:
            lines.append("  generator/build errors: %d" % len(self.build_errors))
        if self.timeouts:
            lines.append("  per-program timeouts: %d" % len(self.timeouts))
        lines.append(
            "soundness violations: %d%s"
            % (
                len(self.violations),
                "" if not self.violations else " <-- FAILURE",
            )
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# auditing one program
# ---------------------------------------------------------------------------


def _resolve_tools(tools: Optional[Sequence[str]]) -> List[str]:
    if tools is None:
        return available_provers()
    return [canonical_name(tool) for tool in tools]


def audit_source(
    source: str,
    tools: Optional[Sequence[str]] = None,
    config: Optional[AnalysisConfig] = None,
    name: str = "program",
    expected: str = "unknown",
) -> ProgramAudit:
    """Run *tools* on mini-language *source* and audit every claim.

    Each claim is audited by :meth:`repro.api.Analysis.certify`, called
    outside the prover's error handling: a prover that raises is recorded
    as an ``error`` result, but a checker that raises is a checker bug
    and propagates (the program's task fails, so the report is not ok).
    The provers run with the pipeline's ``certificate`` stage off, so
    each claim is checked once.
    """
    tools = _resolve_tools(tools)
    config = config if config is not None else AnalysisConfig()
    audit = ProgramAudit(name=name)

    analysis = Analysis(
        source, config=config.replace(check_certificates=False), name=name
    )
    try:
        problem = analysis.problem()
    except FrontendError as error:
        audit.build_error = "%s: %s" % (type(error).__name__, error)
        return audit
    except Exception as error:  # lowering/invariant crash: also a finding
        audit.build_error = "%s: %s" % (type(error).__name__, error)
        return audit

    for tool in tools:
        try:
            result = analysis.run(tool)
        except Exception as error:
            result = AnalysisResult(
                tool=tool,
                program=name,
                status="error",
                error="%s: %s" % (type(error).__name__, error),
            )
        audit.results.append(result)
        if result.disproved and expected == TERMINATING:
            audit.violations.append(
                SoundnessViolation(
                    kind="nonterm_on_terminating",
                    program=name,
                    tool=tool,
                    detail="claimed NONTERMINATING on a program that "
                    "is terminating by construction",
                    source=source,
                )
            )
        if result.proved and expected == NONTERMINATING:
            audit.violations.append(
                SoundnessViolation(
                    kind="proved_nonterminating",
                    program=name,
                    tool=tool,
                    detail="claimed TERMINATING on a program that is "
                    "nonterminating by construction",
                    source=source,
                )
            )
        verdict = analysis.certify(result)
        if verdict is None or (result.proved and not problem.blocks):
            continue  # nothing to audit, or trivially terminating
        if verdict.certificate_missing:
            audit.violations.append(
                SoundnessViolation(
                    kind="missing_certificate"
                    if result.proved
                    else "lasso_rejected",
                    program=name,
                    tool=tool,
                    detail=verdict.failures[0].case,
                    source=source,
                )
            )
            continue
        if result.proved:
            audit.verdicts[tool] = verdict
        else:
            audit.lasso_verdicts[tool] = verdict
        if verdict.status == CertificateVerdict.INVALID:
            audit.violations.append(
                SoundnessViolation(
                    kind="certificate_rejected"
                    if result.proved
                    else "lasso_rejected",
                    program=name,
                    tool=tool,
                    detail="; ".join(
                        "%s->%s: %s" % (f.source, f.target, f.case)
                        for f in verdict.failures[:3]
                    ),
                    source=source,
                    failures=[f.to_dict() for f in verdict.failures],
                )
            )
    return audit


def audit_generated_program(
    program: GeneratedProgram,
    tools: Optional[Sequence[str]] = None,
    config: Optional[AnalysisConfig] = None,
) -> ProgramAudit:
    """:func:`audit_source` for a generator program (carries ground truth)."""
    audit = audit_source(
        program.source,
        tools=tools,
        config=config,
        name=program.name,
        expected=program.expected,
    )
    for violation in audit.violations:
        violation.seed = program.seed
        violation.index = program.index
        violation.shape = program.shape
    return audit


# ---------------------------------------------------------------------------
# the campaign driver
# ---------------------------------------------------------------------------


def _tally(report: FuzzReport, audit: ProgramAudit) -> None:
    decided, unproved = 0, 0
    for result in audit.results:
        tally = report.outcomes.setdefault(result.tool, {})
        key = result.status.value
        tally[key] = tally.get(key, 0) + 1
        if result.proved or result.disproved:
            decided += 1
        elif result.status.value == "unknown":
            unproved += 1
    if decided and unproved:
        report.disagreements += 1
    for verdict in audit.verdicts.values():
        report.certificates_checked += 1
        if verdict.status == CertificateVerdict.VALID:
            report.certificates_valid += 1
        elif verdict.status == CertificateVerdict.INCONCLUSIVE:
            report.certificates_inconclusive += 1
    for verdict in audit.lasso_verdicts.values():
        report.lassos_checked += 1
        if verdict.status == CertificateVerdict.VALID:
            report.lassos_valid += 1
        elif verdict.status == CertificateVerdict.INCONCLUSIVE:
            report.lassos_inconclusive += 1


def _shrink_violation(
    violation: SoundnessViolation,
    program: GeneratedProgram,
    config: AnalysisConfig,
    max_checks: int,
    timeout: Optional[float] = None,
) -> SoundnessViolation:
    """Shrink a ``certificate_rejected`` reproducer (other kinds pass through).

    When the campaign runs with a per-program *timeout*, every shrink
    probe is routed through the same crash-isolated worker engine — a
    shrink candidate that hangs a prover costs its budget and simply
    counts as "no longer failing", it cannot stall the campaign.
    """
    if violation.kind != "certificate_rejected":
        return violation

    def audit_candidate(candidate: GeneratedProgram):
        return audit_generated_program(
            candidate,
            tools=[violation.tool],
            config=config,
        )

    def still_failing(candidate: GeneratedProgram) -> bool:
        if timeout is not None:
            from repro.reporting.parallel import run_tasks

            task = run_tasks(
                [functools.partial(audit_candidate, candidate)],
                jobs=1,
                timeout=timeout,
            )[0]
            if not task.ok:
                return False
            audit = task.value
        else:
            audit = audit_candidate(candidate)
        return any(
            v.kind == "certificate_rejected" and v.tool == violation.tool
            for v in audit.violations
        )

    shrunk = shrink_program(program, still_failing, max_checks=max_checks)
    if shrunk is not program:
        violation.original_source = program.source
        violation.source = shrunk.source
    return violation


def run_differential(
    programs: Sequence[GeneratedProgram],
    tools: Optional[Sequence[str]] = None,
    config: Optional[AnalysisConfig] = None,
    shrink: bool = True,
    max_shrink_checks: int = 60,
    jobs: int = 1,
    timeout: Optional[float] = None,
    progress: Optional[Callable[[int, ProgramAudit], None]] = None,
) -> FuzzReport:
    """Audit a batch of generated programs and aggregate the findings.

    With ``jobs > 1`` or a per-program ``timeout``, programs are audited
    in the crash-isolated worker processes of
    :mod:`repro.reporting.parallel` (a hanging generated program then
    costs its budget, not the campaign); results keep submission order
    either way.  Shrinking always happens in the parent process.
    """
    # Imported lazily: the reporting package sits above the api layering.
    from repro.reporting.parallel import run_tasks

    tools = _resolve_tools(tools)
    config = config if config is not None else default_fuzz_config()
    programs = list(programs)
    report = FuzzReport(
        seed=programs[0].seed if programs else None,
        count=len(programs),
        tools=tools,
    )
    started = time.perf_counter()
    thunks = [
        functools.partial(
            audit_generated_program,
            program,
            tools=tools,
            config=config,
        )
        for program in programs
    ]
    tasks = run_tasks(thunks, jobs=jobs, timeout=timeout)
    for position, (program, task) in enumerate(zip(programs, tasks)):
        report.programs += 1
        if task.kind == "timeout":
            report.timeouts.append(
                "%s: timed out after %.1fs" % (program.name, task.elapsed)
            )
            continue
        if not task.ok:
            report.build_errors.append(
                "%s: %s" % (program.name, task.message or task.kind)
            )
            continue
        audit = task.value
        if audit.build_error is not None:
            report.build_errors.append(
                "%s: %s" % (program.name, audit.build_error)
            )
        _tally(report, audit)
        for violation in audit.violations:
            if shrink:
                violation = _shrink_violation(
                    violation,
                    program,
                    config,
                    max_shrink_checks,
                    timeout=timeout,
                )
            report.violations.append(violation)
        if progress is not None:
            progress(position, audit)
    report.elapsed_seconds = time.perf_counter() - started
    return report


def fuzz(
    seed: int = 0,
    count: int = 100,
    tools: Optional[Sequence[str]] = None,
    config: Optional[AnalysisConfig] = None,
    shrink: bool = True,
    jobs: int = 1,
    timeout: Optional[float] = None,
    progress: Optional[Callable[[int, ProgramAudit], None]] = None,
) -> FuzzReport:
    """Generate *count* programs from *seed* and run the differential audit.

    Reproduce any reported violation with its printed ``(seed, index)``::

        ProgramGenerator(seed).generate(index).source
    """
    generator = ProgramGenerator(seed)
    report = run_differential(
        list(generator.programs(count)),
        tools=tools,
        config=config,
        shrink=shrink,
        jobs=jobs,
        timeout=timeout,
        progress=progress,
    )
    report.seed = seed
    return report
