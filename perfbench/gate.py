"""The verdict gate: every verdict against ground truth and an independent checker.

Runs outside the timed region, on the verdict of every pass.  A
TERMINATING verdict is re-checked with :func:`repro.checking.check_ranking`
(the Farkas checker, which shares no code with the SMT-based certificate
stage of the pipeline); a NONTERMINATING verdict is re-checked with
:func:`repro.checking.check_recurrence`, which replays the lasso.  A
program whose passes disagree keeps its worst class (unsound, then
failed, then unverified), and every pass that disagrees with the first
counts as a failed attempt.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Verdict classes, in report order.
CLASSES = ("proved", "disproved", "unknown", "failed", "unverified", "unsound")

#: Which class a program keeps when its passes disagree: the worst.
SEVERITY = {"unsound": 3, "failed": 2, "unverified": 1}


def classify(item, analysis, result, integer_mode: bool) -> Tuple[str, str]:
    """``(class, reason)`` of one program's verdict.

    *result* is an ``AnalysisResult``, or the exception the analysis
    raised.
    """
    from repro.api import AnalysisStatus
    from repro.checking import check_ranking, check_recurrence

    if isinstance(result, BaseException):
        return "failed", "%s: %s" % (type(result).__name__, result)
    status = result.status
    if status in (AnalysisStatus.ERROR, AnalysisStatus.TIMEOUT):
        return "failed", result.error or status.value
    if status is AnalysisStatus.UNKNOWN:
        return "unknown", ""
    if status is AnalysisStatus.TERMINATING:
        if item.terminating is False:
            return "unsound", "proved a non-terminating program"
        verdict = check_ranking(
            analysis.problem(), result.ranking, integer_mode=integer_mode
        )
    else:
        if item.terminating is True:
            return "unsound", "disproved a terminating program"
        verdict = check_recurrence(analysis.automaton(), result.lasso)
    if verdict.status == "invalid":
        return "unsound", "independent checker rejected the %s" % (
            "ranking" if status is AnalysisStatus.TERMINATING else "lasso"
        )
    if verdict.status != "valid" or not result.certificate_checked:
        return "unverified", "independent check %s, pipeline check %s" % (
            verdict.status,
            "passed" if result.certificate_checked else "failed",
        )
    return ("proved" if status is AnalysisStatus.TERMINATING else "disproved"), ""


def status_of(result) -> str:
    """The per-program verdict recorded in the baseline list."""
    if isinstance(result, BaseException):
        return "exception"
    return result.status.value


class Gate:
    """Classifies the verdict of every pass; a program keeps its worst class."""

    def __init__(self, integer_mode: bool):
        self.integer_mode = integer_mode
        self.classes: Dict[str, Tuple[str, str]] = {}
        self.statuses: Dict[str, str] = {}
        self.flips: List[str] = []
        self.attempted = 0
        #: Attempts that failed, or whose verdict differs from the first pass.
        self.failed = 0

    def check(self, item, analysis, result) -> None:
        self.attempted += 1
        status = status_of(result)
        verdict = classify(item, analysis, result, self.integer_mode)
        known = self.statuses.setdefault(item.name, status)
        if known != status:
            # A later pass disagreeing with the first is a verdict that
            # is not reproducible run to run: at least a failure.
            self.flips.append("%s: %s then %s" % (item.name, known, status))
            if verdict[0] != "unsound":
                verdict = ("failed", "verdict changed between passes")
        if verdict[0] == "failed":
            self.failed += 1
        previous = self.classes.get(item.name)
        if previous is None or SEVERITY.get(verdict[0], 0) > SEVERITY.get(previous[0], 0):
            self.classes[item.name] = verdict

    def counts(self) -> Dict[str, int]:
        tally = Counter(cls for cls, _ in self.classes.values())
        return {name: tally.get(name, 0) for name in CLASSES}

    def problems(self) -> List[str]:
        return [
            "%s %s: %s" % (cls, name, reason)
            for name, (cls, reason) in sorted(self.classes.items())
            if cls in ("failed", "unverified", "unsound")
        ]


def baseline_path(workload: str) -> Path:
    return Path(__file__).resolve().parent / "baseline" / ("%s.json" % workload)


def load_baseline(workload: str) -> Optional[dict]:
    path = baseline_path(workload)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def verdict_changes(baseline: dict, statuses: Dict[str, str]) -> List[str]:
    """Programs whose verdict differs from the committed baseline."""
    old = baseline["verdicts"]
    changes = [
        "%s: %s -> %s" % (name, old.get(name, "absent"), status)
        for name, status in sorted(statuses.items())
        if old.get(name) != status
    ]
    changes.extend(
        "%s: %s -> absent" % (name, old[name])
        for name in sorted(set(old) - set(statuses))
    )
    return changes
