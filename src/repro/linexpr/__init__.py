"""Linear expressions, constraints and first-order formulas over them.

This is the small logic the whole library speaks:

* :class:`LinExpr` — affine expression ``Σ c_i · x_i + c0`` over named
  variables with exact rational coefficients.
* :class:`Constraint` — atomic constraint ``expr ⋈ 0`` with
  ``⋈ ∈ {≤, <, =}`` (other comparisons are normalised on construction).
* :mod:`repro.linexpr.formula` — quantifier-free formulas in negation
  normal form, built from atoms with ``And`` / ``Or`` plus the constants
  TRUE/FALSE; ``~f`` is the NNF negation.  The transition relations of
  the paper (large-block encodings) live here.
"""

from repro.linexpr.expr import LinExpr, var, const
from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.formula import (
    And,
    Atom,
    FALSE,
    Formula,
    Or,
    TRUE,
    atom,
    conjunction,
    disjunction,
    negate_constraint,
)
from repro.linexpr.transform import (
    dnf_conjunctions,
    formula_atoms,
    formula_variables,
    prime_suffix,
    rename_formula,
    substitute_formula,
)

__all__ = [
    "LinExpr",
    "var",
    "const",
    "Constraint",
    "Relation",
    "Formula",
    "Atom",
    "And",
    "Or",
    "TRUE",
    "FALSE",
    "atom",
    "conjunction",
    "disjunction",
    "negate_constraint",
    "rename_formula",
    "substitute_formula",
    "formula_variables",
    "formula_atoms",
    "dnf_conjunctions",
    "prime_suffix",
]
