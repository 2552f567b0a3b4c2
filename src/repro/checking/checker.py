"""Independent re-verification of lexicographic ranking certificates.

Given a :class:`~repro.core.problem.TerminationProblem` and a synthesised
:class:`~repro.core.ranking.LexicographicRankingFunction`, this module
re-checks the defining property of Definition 6 of the paper *without*
trusting — or sharing code with — the LP/SMT synthesis loop that produced
it: every proof obligation is discharged by the exact rational
Gauss/Fourier–Motzkin engine of :mod:`repro.checking.farkas`.

For every block transition ``k → k'`` the certificate must guarantee, on
every state pair admitted by ``I_k(x) ∧ φ(x, x')``, that the tuple
``⟨ρ_1, …, ρ_m⟩`` decreases lexicographically with the *active* component
nonnegative before the step: there is a position ``i`` with

    ρ_j(k, x) = ρ_j(k', x')  for all j < i,
    ρ_i(k', x') < ρ_i(k, x),   and   ρ_i(k, x) ≥ 0.

Scanning the first position where the tuple changes shows the negation is
exactly the union of ``2·m + 1`` conjunctive failure patterns — for each
``i``: "prefix equal and component *i* grew" and "prefix equal, component
*i* decreased while negative", plus "no component changed".  Every
pattern is an affine condition on the ranking values ``r_j = ρ_j(k, x)``
and ``s_j = ρ_j(k', x')`` alone, and every (path, pattern) pair must be
refuted.

The block formula is never expanded into its paths.  A depth-first
search walks its NNF DAG: it conjoins atoms and ``And`` operands first
and branches on one ``Or`` at a time, so each node of the search is a
path prefix and each leaf a path.  Each atom becomes a sparse row once
per block, over one variable index that also holds ``r`` and ``s``
(tied to the program variables by ``r_j = ρ_j(k, x)``, ``s_j =
ρ_j(k', x')``).  At every node with new rows, one Gauss/FM pass
(:func:`~repro.checking.farkas.project`) eliminates everything but
``(r, s)``, and the patterns still open are decided on that ≤ 2m-
dimensional projection.  A pattern refuted on a prefix stays refuted on
every path below it, and a prefix with no open pattern is pruned.  A
pattern that survives on a whole path is decided once more, in full, by
:func:`~repro.checking.farkas.decide_system`, which returns a concrete
rational witness state: that is what makes "invalid" verdicts actionable
(and shrinkable) instead of a bare boolean.  A pattern with a witness is
reported once per block.  The search visits at most *node_cap* prefixes
per block; a block that needs more is ``inconclusive``, never ``valid``.

Two deliberate properties of this check:

* it is *weaker* than what Termite's synthesis guarantees (globally
  nonnegative components), so it also validates certificates in the
  per-transition style emitted by the eager baselines;
* it is performed over ℚ.  For the all-integer programs of the
  benchmarks this is sound: ranking values of integer states lie in a
  lattice ``(1/D)·ℤ`` bounded below at the active position, so strict
  rational decrease cannot repeat forever.

The invariants ``I_k`` are taken as given — certificates are *relative*
to them (Definition 5); auditing the abstract interpreter is a separate
concern (see ``docs/TESTING.md``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.checking import farkas
from repro.core.problem import TerminationProblem
from repro.core.ranking import LexicographicRankingFunction
from repro.linalg.sparse import SparseRow
from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr
from repro.linexpr.formula import And, Atom, FALSE, Formula, Or, TRUE, conjunction
from repro.linexpr.transform import prime_suffix
from repro.metrics import count
from repro.program.large_block import BlockTransition

#: Default cap on the search nodes (path prefixes) visited per block.
DEFAULT_NODE_CAP = 10_000


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@dataclass
class ObligationFailure:
    """One unrefuted proof obligation, with its witness state."""

    source: str
    target: str
    case: str
    witness: Dict[str, str] = field(default_factory=dict)
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "target": self.target,
            "case": self.case,
            "witness": dict(self.witness),
            "note": self.note,
        }

    def __repr__(self) -> str:
        return "ObligationFailure(%s->%s: %s)" % (self.source, self.target, self.case)


#: The note marking the verdict on a claim that carries no certificate.
_MISSING_CERTIFICATE = "missing certificate"


@dataclass
class CertificateVerdict:
    """Outcome of independently re-checking one certificate."""

    status: str  # "valid" | "invalid" | "inconclusive"
    dimension: int = 0
    blocks: int = 0
    disjuncts: int = 0
    obligations: int = 0
    refuted: int = 0
    failures: List[ObligationFailure] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    VALID = "valid"
    INVALID = "invalid"
    INCONCLUSIVE = "inconclusive"

    @classmethod
    def missing(cls, case: str) -> "CertificateVerdict":
        """The ``invalid`` verdict on a claim that carries no certificate."""
        return cls(
            status=cls.INVALID,
            failures=[ObligationFailure(source="*", target="*", case=case)],
            notes=[_MISSING_CERTIFICATE],
        )

    @classmethod
    def from_dict(cls, document: dict) -> "CertificateVerdict":
        """Inverse of :meth:`to_dict`.

        Verdicts travel in result ``details`` as plain dictionaries (they
        cross worker-process boundaries that way).
        """
        fields = dict(document)
        fields["failures"] = [
            ObligationFailure(**failure) for failure in document["failures"]
        ]
        return cls(**fields)

    @property
    def accepted(self) -> bool:
        return self.status == self.VALID

    @property
    def certificate_missing(self) -> bool:
        return _MISSING_CERTIFICATE in self.notes

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "dimension": self.dimension,
            "blocks": self.blocks,
            "disjuncts": self.disjuncts,
            "obligations": self.obligations,
            "refuted": self.refuted,
            "failures": [failure.to_dict() for failure in self.failures],
            "notes": list(self.notes),
        }

    def __repr__(self) -> str:
        return "CertificateVerdict(%s, %d/%d obligations refuted)" % (
            self.status,
            self.refuted,
            self.obligations,
        )


# ---------------------------------------------------------------------------
# failure patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Pattern:
    """One failure pattern: its atoms ``(kind, j)``, and its rows over
    ``(r, s)``, where ``r_j``/``s_j`` are indices ``j``/``m + j``."""

    label: str
    atoms: Tuple[Tuple[str, int], ...]
    equalities: Tuple[SparseRow, ...]
    rows: Tuple[Tuple[SparseRow, bool], ...]


#: Each atom kind: ``r_j = s_j``, ``r_j < s_j``, ``s_j < r_j`` or
#: ``r_j < 0``, as the coefficients of ``r_j`` and ``s_j`` and the
#: relation to 0.
_OVER = {
    "equal": (1, -1, Relation.EQ),
    "grew": (1, -1, Relation.LT),
    "fell": (-1, 1, Relation.LT),
    "negative": (1, 0, Relation.LT),
}


def _program_atom(
    kind: str, j: int, before: Sequence[LinExpr], after: Sequence[LinExpr]
) -> Constraint:
    """Atom *kind* of component *j* over the program variables."""
    r_coefficient, s_coefficient, relation = _OVER[kind]
    return Constraint(
        before[j] * r_coefficient + after[j] * s_coefficient, relation
    )


def _patterns(
    dimension: int,
    tighten: Optional[Callable[[Constraint], Constraint]] = None,
    before: Sequence[LinExpr] = (),
    after: Sequence[LinExpr] = (),
) -> Tuple[_Pattern, ...]:
    """The ``2m + 1`` conjunctive ways Definition 6 can fail on one step.

    With *tighten* (integer mode), each atom is tightened over the
    program variables and then rewritten over ``(r, s)``.  That is exact
    because every atom is ``E < 0`` or ``E = 0`` with ``E`` one of
    ``r_j − s_j``, ``s_j − r_j`` or ``r_j``, and tightening turns ``E``
    into ``scale·E + shift``.
    """
    cases: List[Tuple[str, List[Tuple[str, int]]]] = []
    for i in range(dimension):
        prefix = [("equal", j) for j in range(i)]
        cases.append(("component %d grew" % (i + 1), prefix + [("grew", i)]))
        cases.append(
            (
                "component %d decreased while negative" % (i + 1),
                prefix + [("fell", i), ("negative", i)],
            )
        )
    cases.append(("no component decreased", [("equal", j) for j in range(dimension)]))

    patterns: List[_Pattern] = []
    for label, atoms in cases:
        equalities: List[SparseRow] = []
        rows: List[Tuple[SparseRow, bool]] = []
        for kind, j in atoms:
            r_coefficient, s_coefficient, relation = _OVER[kind]
            scale, shift = Fraction(1), Fraction(0)
            if tighten is not None:
                atom = _program_atom(kind, j, before, after)
                tight = tighten(atom)
                if tight is not atom:
                    name, value = next(iter(atom.expr.terms.items()))
                    scale = tight.expr.terms[name] / value
                    shift = tight.expr.constant_term - scale * atom.expr.constant_term
                    relation = tight.relation
            row = SparseRow.from_pairs(
                [
                    (j, scale * r_coefficient),
                    (dimension + j, scale * s_coefficient),
                    (farkas.CONSTANT, shift),
                ]
            ).normalized_direction()
            if relation is Relation.EQ:
                equalities.append(row)
            else:
                rows.append((row, relation is Relation.LT))
        patterns.append(_Pattern(label, tuple(atoms), tuple(equalities), tuple(rows)))
    return tuple(patterns)


#: The rational patterns of each dimension: they depend on nothing else.
_rational_patterns = functools.lru_cache(maxsize=None)(_patterns)


# ---------------------------------------------------------------------------
# the search over one block's formula DAG
# ---------------------------------------------------------------------------


class _Index(dict):
    """Variable name → row index; a new name gets the next index."""

    def __init__(self, names: List[str]):
        super().__init__((name, index) for index, name in enumerate(names))
        self.names = names

    def __missing__(self, name: str) -> int:
        index = self[name] = len(self.names)
        self.names.append(name)
        return index


@dataclass
class _Prefix:
    """A path prefix: its constraints, as rows too, and the ``Or`` nodes
    it has reached but not branched on.

    ``seen`` holds the ids of the DAG nodes conjoined so far, so a shared
    node is conjoined once; ``fresh`` tells whether rows were added since
    the prefix's last projection.
    """

    constraints: List[Constraint]
    equalities: List[SparseRow]
    rows: List[Tuple[SparseRow, bool]]
    seen: Set[int]
    ors: List[Or]
    fresh: bool


class _BlockSearch:
    """The depth-first search over one block; records into *verdict*.

    *is_integer* is the integer-mode predicate on variable names, or
    ``None`` for a rational check.
    """

    def __init__(
        self,
        block: BlockTransition,
        before: Sequence[LinExpr],
        after: Sequence[LinExpr],
        is_integer: Optional[Callable[[str], bool]],
        row_budget: int,
        verdict: CertificateVerdict,
    ):
        self.block = block
        self.before = before
        self.after = after
        self.is_integer = is_integer
        self.row_budget = row_budget
        self.verdict = verdict
        dimension = len(before)
        self.patterns = (
            _rational_patterns(dimension)
            if is_integer is None
            else _patterns(dimension, self.tighten, before, after)
        )
        self.kept = 2 * dimension
        names = ["@r%d" % (j + 1) for j in range(dimension)]
        names += ["@s%d" % (j + 1) for j in range(dimension)]
        self.index = _Index(names)
        self.lowered: Dict[int, tuple] = {}
        self.failed: Set[int] = set()
        self.inconclusive = False
        self.nodes = 0
        self.projections = 0

    def tighten(self, constraint: Constraint) -> Constraint:
        if self.is_integer is None:
            return constraint
        return farkas.tighten_integer_strict([constraint], self.is_integer)[0]

    def note(self, text: str) -> None:
        self.verdict.notes.append(
            "block %s->%s: %s" % (self.block.source, self.block.target, text)
        )
        self.inconclusive = True

    def _root(self) -> _Prefix:
        """The empty prefix: ``r_j − ρ_j(k, x) = 0``, ``s_j − ρ_j(k', x') = 0``."""
        root = _Prefix([], [], [], set(), [], True)
        dimension = len(self.before)
        for j in range(dimension):
            for index, value in ((j, self.before[j]), (dimension + j, self.after[j])):
                pairs = [
                    (self.index[name], -coefficient)
                    for name, coefficient in value.terms.items()
                ]
                pairs += [(index, 1), (farkas.CONSTANT, -value.constant_term)]
                root.equalities.append(SparseRow.from_pairs(pairs).normalized_direction())
        return root

    def _add(self, prefix: _Prefix, constraint: Constraint) -> bool:
        """Conjoin one atom to *prefix*; ``False`` when it is false.

        Each atom is tightened and made a row once per block.
        """
        lowered = self.lowered.get(id(constraint))
        if lowered is None:
            tight = self.tighten(constraint)
            if tight.is_trivially_true():
                lowered = ()
            elif tight.is_trivially_false():
                lowered = (tight,)
            else:
                lowered = (tight, farkas.row_of(tight, self.index))
            self.lowered[id(constraint)] = lowered
        if len(lowered) < 2:
            return not lowered
        tight, row = lowered
        prefix.constraints.append(tight)
        if tight.is_equality():
            prefix.equalities.append(row)
        else:
            prefix.rows.append((row, tight.is_strict()))
        prefix.fresh = True
        return True

    def _conjoin(self, parent: _Prefix, operand: Formula) -> Optional[_Prefix]:
        """*parent* ∧ *operand*, up to the ``Or`` nodes; ``None`` if false."""
        prefix = _Prefix(
            list(parent.constraints),
            list(parent.equalities),
            list(parent.rows),
            set(parent.seen),
            list(parent.ors),
            parent.fresh,
        )
        stack = [operand]
        while stack:
            node = stack.pop()
            if id(node) in prefix.seen:
                continue
            prefix.seen.add(id(node))
            if isinstance(node, Atom):
                if not self._add(prefix, node.constraint):
                    return None
            elif isinstance(node, And):
                stack.extend(reversed(node.operands))
            elif isinstance(node, Or):
                prefix.ors.append(node)
            elif node is FALSE:
                return None
            elif node is not TRUE:
                raise TypeError("unknown formula node %r" % (node,))
        return prefix

    def _refute(self, live: Sequence[int]) -> None:
        self.verdict.obligations += len(live)
        self.verdict.refuted += len(live)

    def _decide(self, prefix: _Prefix, live: List[int]) -> List[int]:
        """The patterns of *live* that the projection of *prefix* admits."""
        self.projections += 1
        prefix.fresh = False
        names = self.index.names
        try:
            projection = farkas.project(
                prefix.equalities, prefix.rows, self.kept, names, self.row_budget
            )
            if projection is None:
                self._refute(live)
                return []
            equalities, rows = projection
            survivors = []
            for position in live:
                pattern = self.patterns[position]
                if farkas.project(
                    [*equalities, *pattern.equalities],
                    [*rows, *pattern.rows],
                    0,
                    names,
                    self.row_budget,
                ) is None:
                    self._refute([position])
                else:
                    survivors.append(position)
            return survivors
        except farkas.FarkasBudgetExceeded as error:
            self.note(str(error))
            return []

    def _witness(self, prefix: _Prefix, live: List[int]) -> None:
        """Decide each pattern *live* on the whole path *prefix*, in full."""
        for position in live:
            pattern = self.patterns[position]
            self.verdict.obligations += 1
            atoms = [
                self.tighten(_program_atom(kind, j, self.before, self.after))
                for kind, j in pattern.atoms
            ]
            try:
                decision = farkas.decide_system(
                    prefix.constraints + atoms, self.row_budget
                )
            except farkas.FarkasBudgetExceeded as error:
                self.note(str(error))
                continue
            if isinstance(decision, farkas.Refutation):  # pragma: no cover
                raise AssertionError(
                    "internal error: a path of %s->%s refutes %s, its "
                    "projection does not"
                    % (self.block.source, self.block.target, pattern.label)
                )
            if self.is_integer is not None and not decision.is_integral(
                [name for name in decision.assignment if self.is_integer(name)]
            ):
                self.note(
                    "%s admits only a non-integral witness; spurious for "
                    "the integer program?" % pattern.label
                )
                continue
            self.failed.add(position)
            self.verdict.failures.append(
                ObligationFailure(
                    source=self.block.source,
                    target=self.block.target,
                    case=pattern.label,
                    witness=decision.to_dict(),
                )
            )

    def run(self, invariant: Sequence[Constraint], node_cap: int) -> None:
        """Search ``invariant ∧ block``, visiting at most *node_cap* prefixes."""
        stack: List[Tuple[_Prefix, Formula, List[int]]] = [
            (
                self._root(),
                conjunction([*invariant, self.block.formula]),
                list(range(len(self.patterns))),
            )
        ]
        while stack:
            parent, operand, live = stack.pop()
            live = [position for position in live if position not in self.failed]
            if not live:
                continue
            self.nodes += 1
            if self.nodes > node_cap:
                self.note("search node cap %d reached" % node_cap)
                count("checking.checker.search_cap_hits")
                return
            prefix = self._conjoin(parent, operand)
            if prefix is None:
                self._refute(live)
                continue
            if not prefix.ors:
                self.verdict.disjuncts += 1
            if prefix.fresh:
                live = self._decide(prefix, live)
                if not live:
                    continue
            if not prefix.ors:
                self._witness(prefix, live)
                continue
            branch = prefix.ors.pop(0)
            for operand in reversed(branch.operands):
                stack.append((prefix, operand, live))


# ---------------------------------------------------------------------------
# the check itself
# ---------------------------------------------------------------------------


def _integer_predicate(problem: TerminationProblem):
    """Whether a (possibly primed/copied) variable name is integer-valued.

    The large-block encoding derives every auxiliary name from a program
    variable: primed names carry a ``'`` suffix, join copies an
    ``@location!bN`` suffix, and havocked values and freshened auxiliaries
    a ``!n`` suffix.
    """
    integers = set(problem.integer_variables)

    def is_integer(name: str) -> bool:
        base = name.rstrip("'").split("@")[0].split("!")[0]
        return base in integers

    return is_integer


def check_ranking(
    problem: TerminationProblem,
    ranking: LexicographicRankingFunction,
    integer_mode: bool = False,
    node_cap: int = DEFAULT_NODE_CAP,
    row_budget: int = farkas.DEFAULT_ROW_BUDGET,
) -> CertificateVerdict:
    """Re-verify *ranking* against *problem*, obligation by obligation.

    ``disjuncts`` of the verdict counts the paths the search reached,
    and ``obligations``/``refuted`` the (prefix or path, pattern) pairs
    it decided/refuted.  A block whose search visits more than
    *node_cap* prefixes is inconclusive.

    With ``integer_mode`` the checker may additionally tighten strict
    atoms over integer-valued variables (matching the synthesiser's
    integer reasoning); an unrefuted obligation whose witness is
    non-integral is then reported as *inconclusive* rather than invalid,
    because the rational counterexample may be spurious for the integer
    program.
    """
    verdict = CertificateVerdict(
        status=CertificateVerdict.VALID,
        dimension=ranking.dimension,
        blocks=len(problem.blocks),
    )
    if not problem.blocks:
        verdict.notes.append("no block transitions: trivially terminating")
        return verdict
    if ranking.dimension == 0:
        verdict.status = CertificateVerdict.INVALID
        verdict.failures.append(
            ObligationFailure(
                source="*",
                target="*",
                case="empty certificate for a program with cycles",
            )
        )
        return verdict

    is_integer = _integer_predicate(problem) if integer_mode else None
    primed = {name: prime_suffix(name) for name in problem.variables}
    inconclusive = False
    nodes = projections = 0
    for block in problem.blocks:
        try:
            before = [
                component.expression(block.source)
                for component in ranking.components
            ]
            after = [
                component.expression(block.target).rename(primed)
                for component in ranking.components
            ]
        except KeyError as error:
            # A malformed certificate (no coefficients for a cut point it
            # must cover) is invalid, not a checker crash.
            verdict.failures.append(
                ObligationFailure(
                    source=block.source,
                    target=block.target,
                    case="certificate undefined at cut point %s" % (error,),
                )
            )
            continue
        search = _BlockSearch(block, before, after, is_integer, row_budget, verdict)
        search.run(problem.invariant(block.source).constraints, node_cap)
        inconclusive = inconclusive or search.inconclusive
        nodes += search.nodes
        projections += search.projections
    count("checking.checker.search_nodes", nodes)
    count("checking.checker.projections", projections)

    if verdict.failures:
        verdict.status = CertificateVerdict.INVALID
    elif inconclusive:
        verdict.status = CertificateVerdict.INCONCLUSIVE
    return verdict
