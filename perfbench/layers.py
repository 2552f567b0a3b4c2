"""Outside-in per-layer tracing of ``repro``.

The tracer wraps the public functions of each layer with a timed span.  A
span records its name, its duration and the part of that duration its
child spans cover, so each layer gets a call count and a *self* time.
Span stacks are thread-local: ``nonterm="auto"`` races two lanes in two
threads, and each lane keeps its own stack.

Python callers bind a function's name at import time
(``from repro.smt.theory import check_conjunction``), so wrapping the
defining module alone misses them.  :meth:`Tracer.install` therefore
replaces the function at *every* import site: every ``repro`` module
attribute that is the original object.  The label can differ per site,
which is how the same ``check_conjunction`` becomes a DPLL(T) theory
check when called from ``repro.smt.solver`` and a core-extraction LP when
called from the deletion filter inside ``repro.smt.theory``.
:meth:`Tracer.unwrapped_sites` re-scans after a run and reports any site
that still holds an original, so a module imported late cannot hide work.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Packages imported before wrapping, so that every import site exists.
PACKAGES = (
    "repro.api",
    "repro.baselines",
    "repro.checking",
    "repro.core",
    "repro.invariants",
    "repro.lp",
    "repro.nontermination",
    "repro.polyhedra",
    "repro.smt",
    "repro.synthesis",
)

#: Module-level functions: (defining module, name, label, per-site labels).
FUNCTIONS: Tuple[Tuple[str, str, str, Dict[str, str]], ...] = (
    (
        "repro.smt.theory",
        "check_conjunction",
        "smt.theory",
        {
            # The deletion filter re-enters through its own module global.
            "repro.smt.theory": "smt.core",
            "repro.nontermination.engine": "nontermination.theory",
        },
    ),
    ("repro.lp.simplex", "solve_lp", "lp.solve_lp", {}),
    ("repro.lp.branch_bound", "solve_ilp", "lp.ilp", {}),
    ("repro.invariants.analyzer", "compute_invariants", "invariants", {}),
    ("repro.polyhedra.projection", "fourier_motzkin", "polyhedra.project", {}),
    (
        "repro.polyhedra.projection",
        "remove_redundant",
        "polyhedra.remove_redundant",
        {},
    ),
    ("repro.polyhedra.dd", "constraints_to_generators", "polyhedra.dd", {}),
    ("repro.polyhedra.dd", "generators_to_constraints", "polyhedra.dd", {}),
    ("repro.core.certificate", "check_certificate", "certificate", {}),
    (
        "repro.nontermination.engine",
        "synthesize_recurrence",
        "nontermination",
        {},
    ),
    ("repro.checking.recurrence", "check_recurrence", "recurrence", {}),
)

#: Methods: (defining module, class, method, label).  Subclasses that do
#: not override the method inherit the wrapper.
METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.smt.sat", "SatSolver", "solve", "smt.sat"),
    ("repro.smt.solver", "SmtSolver", "__init__", "smt.build"),
    ("repro.smt.solver", "SmtSolver", "assert_formula", "smt.encode"),
    ("repro.smt.optimize", "OptimizingSmtSolver", "minimize", "smt.omt"),
    ("repro.smt.optimize", "OptimizingSmtSolver", "check", "smt.omt"),
    ("repro.synthesis.oracles", "SmtOptimizingOracle", "find", "oracle"),
    ("repro.synthesis.oracles", "DdEnumerationOracle", "find", "oracle"),
    ("repro.synthesis.engine", "CegisEngine", "synthesize_component", "cegis"),
    ("repro.core.lp_instance", "RankingLp", "solve", "ranking_lp"),
    ("repro.lp.simplex", "SimplexState", "solve", "ranking_lp.simplex"),
)

#: Which layer an ``lp.solve_lp`` call is charged to, by nearest ancestor.
LP_PARENTS = {
    "smt.theory": "theory",
    "smt.core": "theory",
    "nontermination.theory": "theory",
    "smt.omt": "omt",
    "lp.ilp": "ilp",
    "invariants": "polyhedra",
    "polyhedra.project": "polyhedra",
    "polyhedra.remove_redundant": "polyhedra",
    "polyhedra.dd": "polyhedra",
    "stage.frontend": "build",
    "stage.invariants": "build",
    "stage.cutset": "build",
    "stage.large_block": "build",
}

#: Spans keep their own name in the certificate stage; SMT and LP work
#: under it is reported apart from synthesis, as ``certificate.<label>``.
CERTIFICATE_OWN = ("certificate", "recurrence", "stage.certificate")


class _ThreadState:
    __slots__ = ("stack", "spans", "counts", "main")

    def __init__(self, main: bool):
        self.stack: List[list] = []  # frames: [label, child seconds]
        self.spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Dict[str, int] = defaultdict(int)
        self.main = main


class Tracer:
    """Thread-local span stacks, aggregated per span name."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._main = threading.get_ident()
        self._installed: List[Tuple[object, str, object]] = []
        self._originals: Dict[int, Tuple[object, str]] = {}
        #: The pipeline stage running on the main thread (set by
        #: :meth:`stage_observer`); race lanes read it from their threads.
        self.stage = ""

    # -- span bookkeeping ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident() == self._main)
            with self._lock:
                self._states.append(state)
            self._local.state = state
        return state

    def enter(self, label: str) -> Tuple[_ThreadState, list, float]:
        state = self._state()
        frame = [label, 0.0]
        state.stack.append(frame)
        return state, frame, time.perf_counter()

    def exit(self, token: Tuple[_ThreadState, list, float]) -> float:
        state, frame, start = token
        elapsed = time.perf_counter() - start
        state.stack.pop()
        label = frame[0]
        if state.stack:
            state.stack[-1][1] += elapsed
        entry = state.spans[self._key(label)]
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - frame[1]
        if label == "lp.solve_lp":
            if self.stage == "certificate":
                owner = "certificate"
            else:
                owner = next(
                    (
                        LP_PARENTS[name]
                        for name, _ in reversed(state.stack)
                        if name in LP_PARENTS
                    ),
                    "other",
                )
            split = state.spans["lp.solve_lp." + owner]
            split[0] += 1
            split[1] += elapsed
        return elapsed

    def _key(self, label: str) -> str:
        if self.stage == "certificate" and label not in CERTIFICATE_OWN:
            return "certificate." + label
        return label

    def count(self, name: str, amount: int = 1) -> None:
        """Add to a counter, kept apart in the certificate stage like spans."""
        self._state().counts[self._key(name)] += amount

    def stage_observer(self) -> Callable[[str, str, Optional[float]], None]:
        """An :class:`repro.api.Analysis` observer making stages spans."""
        tokens: List[Tuple[_ThreadState, list, float]] = []

        def observe(event: str, stage: str, seconds: Optional[float]) -> None:
            if event == "start":
                self.stage = stage
                tokens.append(self.enter("stage." + stage))
            else:
                self.exit(tokens.pop())
                self.stage = ""

        return observe

    # -- results ----------------------------------------------------------------------

    def totals(self) -> Dict[str, List[float]]:
        """``{span: [calls, total seconds, self seconds]}`` over all threads."""
        merged: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for state in self._states:
            for key, (calls, total, own) in state.spans.items():
                entry = merged[key]
                entry[0] += calls
                entry[1] += total
                entry[2] += own
        return dict(merged)

    def counters(self) -> Dict[str, int]:
        merged: Dict[str, int] = defaultdict(int)
        for state in self._states:
            for key, value in state.counts.items():
                merged[key] += value
        return dict(merged)

    def main_thread_self(self, *keys: str) -> float:
        """Self time of the named spans, recorded on the main thread."""
        return sum(
            state.spans[key][2]
            for state in self._states
            if state.main
            for key in keys
            if key in state.spans
        )

    # -- installing the wrappers ----------------------------------------------------

    def _wrap(self, original: Callable, label: str) -> Callable:
        tracer = self
        after = _AFTER.get(label)
        failed = _FAILED.get(label)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            token = tracer.enter(label)
            try:
                result = original(*args, **kwargs)
            except BaseException as error:
                tracer.exit(token)
                if failed is not None:
                    failed(tracer, token[0], error)
                raise
            tracer.exit(token)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def install(self) -> Dict[str, int]:
        """Wrap every traced function at every import site.

        Returns the number of sites wrapped per ``module.function``.
        """
        for package in PACKAGES:
            importlib.import_module(package)
        sites: Dict[str, int] = {}
        modules = _repro_modules()
        for module_name, name, label, per_site in FUNCTIONS:
            original = getattr(sys.modules[module_name], name)
            self._originals[id(original)] = (original, module_name + "." + name)
            wrapped = 0
            for site_name, module in modules:
                if module.__dict__.get(name) is original:
                    self._replace(
                        module, name, self._wrap(original, per_site.get(site_name, label))
                    )
                    wrapped += 1
            sites[module_name + "." + name] = wrapped
        for module_name, class_name, method, label in METHODS:
            owner = getattr(sys.modules[module_name], class_name)
            original = owner.__dict__[method]
            self._originals[id(original)] = (
                original,
                "%s.%s.%s" % (module_name, class_name, method),
            )
            self._replace(owner, method, self._wrap(original, label))
            sites["%s.%s.%s" % (module_name, class_name, method)] = 1
        return sites

    def _replace(self, owner, name: str, value) -> None:
        self._installed.append((owner, name, getattr(owner, name)))
        if isinstance(owner, type):
            setattr(owner, name, value)
        else:
            owner.__dict__[name] = value

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def unwrapped_sites(self) -> List[str]:
        """Import sites that still hold an original traced function."""
        missing = []
        for site_name, module in _repro_modules():
            for attr, value in list(module.__dict__.items()):
                if id(value) in self._originals and self._originals[id(value)][0] is value:
                    missing.append(
                        "%s.%s (%s)"
                        % (site_name, attr, self._originals[id(value)][1])
                    )
                elif isinstance(value, type):
                    for method, member in value.__dict__.items():
                        known = self._originals.get(id(member))
                        if known is not None and known[0] is member:
                            missing.append(
                                "%s.%s.%s (%s)"
                                % (site_name, attr, method, known[1])
                            )
        return sorted(set(missing))


def _repro_modules():
    return [
        (name, module)
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


# -- per-label result hooks ------------------------------------------------------------


def _theory_result(label: str):
    def after(tracer: Tracer, args, result) -> None:
        if not result.satisfiable:
            tracer.count(label + ".conflicts")

    return after


def _oracle_result(tracer: Tracer, args, result) -> None:
    if not result:
        tracer.count("oracle.exhausted")


def _simplex_result(tracer: Tracer, args, result) -> None:
    # SimplexState.solve returns its cached result on a repeat solve;
    # only a fresh result carries pivots that were actually performed.
    state = args[0]
    if result is not getattr(state, "_traced_last", None):
        tracer.count("ranking_lp.pivots", result.pivots)
        state._traced_last = result


def _ilp_failed(tracer: Tracer, state: _ThreadState, error: BaseException) -> None:
    from repro.lp.branch_bound import BranchAndBoundLimit

    outermost = not any(frame[0] == "lp.ilp" for frame in state.stack)
    if isinstance(error, BranchAndBoundLimit) and outermost:
        tracer.count("lp.ilp.bb_limit_fallbacks")


_AFTER = {
    "smt.theory": _theory_result("smt.theory"),
    "smt.core": _theory_result("smt.core"),
    "nontermination.theory": _theory_result("nontermination.theory"),
    "oracle": _oracle_result,
    "ranking_lp.simplex": _simplex_result,
}
_FAILED = {"lp.ilp": _ilp_failed}
