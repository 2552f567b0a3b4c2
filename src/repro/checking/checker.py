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
*i* decreased while negative", plus "no component changed".  The block
formula is expanded into its path disjuncts and every (disjunct, pattern)
pair must be refuted.  A pattern that cannot be refuted comes back with a
concrete rational witness state, which is what makes "invalid" verdicts
actionable (and shrinkable) instead of a bare boolean.

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

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.checking import farkas
from repro.core.problem import TerminationProblem
from repro.core.ranking import LexicographicRankingFunction
from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr
from repro.linexpr.formula import (
    And,
    Atom,
    FALSE,
    Formula,
    Or,
    TRUE,
)
from repro.linexpr.transform import prime_suffix

#: Default cap on the number of path disjuncts expanded per block.
DEFAULT_DISJUNCT_CAP = 4096


class _DisjunctCapExceeded(Exception):
    pass


class _UnsupportedFormula(Exception):
    pass


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
# formula expansion (self-contained, with an explicit cap)
# ---------------------------------------------------------------------------


def _negate_atom(constraint: Constraint) -> List[List[Constraint]]:
    """DNF of ``¬constraint``."""
    if constraint.is_equality():
        return [
            [Constraint(constraint.expr, Relation.LT)],
            [Constraint(-constraint.expr, Relation.LT)],
        ]
    return [[constraint.negate()]]


def _expand(formula: Formula, negated: bool, cap: int) -> List[List[Constraint]]:
    """DNF expansion of (possibly negated) *formula* as constraint lists."""
    if formula is TRUE:
        return [] if negated else [[]]
    if formula is FALSE:
        return [[]] if negated else []
    if isinstance(formula, Atom):
        if negated:
            return _negate_atom(formula.constraint)
        return [[formula.constraint]]
    if isinstance(formula, (And, Or)):
        is_product = isinstance(formula, And) != negated
        parts = [_expand(op, negated, cap) for op in formula.operands]
        if is_product:
            product: List[List[Constraint]] = [[]]
            for part in parts:
                product = [left + right for left in product for right in part]
                if len(product) > cap:
                    raise _DisjunctCapExceeded()
                if not product:
                    return []
            return product
        union: List[List[Constraint]] = []
        for part in parts:
            union.extend(part)
            if len(union) > cap:
                raise _DisjunctCapExceeded()
        return union
    raise _UnsupportedFormula("unknown formula node %r" % (formula,))


def _dedup(constraints: Sequence[Constraint]) -> List[Constraint]:
    seen = set()
    result: List[Constraint] = []
    for constraint in constraints:
        if constraint in seen:
            continue
        seen.add(constraint)
        result.append(constraint)
    return result


# ---------------------------------------------------------------------------
# the check itself
# ---------------------------------------------------------------------------


def _failure_cases(
    before: Sequence[LinExpr], after: Sequence[LinExpr]
) -> List[tuple]:
    """The ``2m + 1`` conjunctive ways Definition 6 can fail on one step."""
    cases: List[tuple] = []
    for position in range(len(before)):
        prefix = [
            Constraint(before[j] - after[j], Relation.EQ)
            for j in range(position)
        ]
        cases.append(
            (
                "component %d grew" % (position + 1),
                prefix + [Constraint(before[position] - after[position], Relation.LT)],
            )
        )
        cases.append(
            (
                "component %d decreased while negative" % (position + 1),
                prefix
                + [
                    Constraint(after[position] - before[position], Relation.LT),
                    Constraint(before[position], Relation.LT),
                ],
            )
        )
    cases.append(
        (
            "no component decreased",
            [
                Constraint(before[j] - after[j], Relation.EQ)
                for j in range(len(before))
            ],
        )
    )
    return cases


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
    disjunct_cap: int = DEFAULT_DISJUNCT_CAP,
    row_budget: int = farkas.DEFAULT_ROW_BUDGET,
) -> CertificateVerdict:
    """Re-verify *ranking* against *problem*, obligation by obligation.

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

    is_integer = _integer_predicate(problem)
    primed = {name: prime_suffix(name) for name in problem.variables}
    inconclusive = False

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
        invariant = list(problem.invariant(block.source).constraints)
        try:
            disjuncts = _expand(block.formula, False, disjunct_cap)
        except _DisjunctCapExceeded:
            verdict.notes.append(
                "block %s->%s: more than %d path disjuncts, not expanded"
                % (block.source, block.target, disjunct_cap)
            )
            inconclusive = True
            continue
        except _UnsupportedFormula as error:
            verdict.notes.append(
                "block %s->%s: %s" % (block.source, block.target, error)
            )
            inconclusive = True
            continue
        verdict.disjuncts += len(disjuncts)
        cases = _failure_cases(before, after)
        if integer_mode:
            # Tightening is per-atom, so base and pattern can be
            # tightened separately — the patterns once per block, not
            # once per (disjunct, pattern) pair.
            cases = [
                (label, farkas.tighten_integer_strict(pattern, is_integer))
                for label, pattern in cases
            ]
        for disjunct in disjuncts:
            base = _dedup(invariant + disjunct)
            if integer_mode:
                base = farkas.tighten_integer_strict(base, is_integer)
            try:
                if isinstance(
                    farkas.decide_system(base, row_budget), farkas.Refutation
                ):
                    # Unreachable path: every failure pattern on it is
                    # vacuously refuted.
                    verdict.obligations += len(cases)
                    verdict.refuted += len(cases)
                    continue
                for label, pattern in cases:
                    verdict.obligations += 1
                    decision = farkas.decide_system(base + pattern, row_budget)
                    if isinstance(decision, farkas.Refutation):
                        verdict.refuted += 1
                        continue
                    witness = decision
                    if integer_mode and not witness.is_integral(
                        [
                            name
                            for name in witness.assignment
                            if is_integer(name)
                        ]
                    ):
                        inconclusive = True
                        verdict.notes.append(
                            "block %s->%s: %s admits only a non-integral "
                            "witness; spurious for the integer program?"
                            % (block.source, block.target, label)
                        )
                        continue
                    verdict.failures.append(
                        ObligationFailure(
                            source=block.source,
                            target=block.target,
                            case=label,
                            witness=witness.to_dict(),
                        )
                    )
            except farkas.FarkasBudgetExceeded as error:
                verdict.notes.append(
                    "block %s->%s: %s" % (block.source, block.target, error)
                )
                inconclusive = True

    if verdict.failures:
        verdict.status = CertificateVerdict.INVALID
    elif inconclusive:
        verdict.status = CertificateVerdict.INCONCLUSIVE
    return verdict
