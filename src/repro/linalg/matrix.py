"""Dense exact rational matrices and the decompositions the library needs.

Only a small slice of linear algebra is required by the ranking-function
synthesiser and the polyhedra code:

* Gaussian elimination (row echelon form) over the rationals,
* rank, null space (kernel), row space,
* solving square / overdetermined linear systems,
* orthogonal complement of a family of vectors (used to turn the
  ``AvoidSpace(u, B)`` condition of the paper into linear constraints),
* completing a linearly independent family into a basis.

Matrices are immutable; operations return fresh objects.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.linalg.rational import Rat, as_fraction
from repro.linalg.vector import Vector


class Matrix:
    """An immutable matrix of exact rationals stored in row-major order."""

    __slots__ = ("_rows", "_num_rows", "_num_cols")

    def __init__(self, rows: Iterable[Iterable[Rat]]):
        converted: List[Tuple[Fraction, ...]] = []
        width: Optional[int] = None
        for row in rows:
            entries = tuple(as_fraction(entry) for entry in row)
            if width is None:
                width = len(entries)
            elif len(entries) != width:
                raise ValueError("ragged rows in matrix construction")
            converted.append(entries)
        self._rows = tuple(converted)
        self._num_rows = len(converted)
        self._num_cols = width or 0

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, size: int) -> "Matrix":
        """The ``size`` × ``size`` identity matrix."""
        return cls(
            [
                [Fraction(1) if i == j else Fraction(0) for j in range(size)]
                for i in range(size)
            ]
        )

    @classmethod
    def zeros(cls, num_rows: int, num_cols: int) -> "Matrix":
        """An all-zero matrix."""
        return cls([[Fraction(0)] * num_cols for _ in range(num_rows)])

    @classmethod
    def from_rows(cls, rows: Sequence[Vector]) -> "Matrix":
        """Build a matrix whose rows are the given vectors."""
        return cls([list(row) for row in rows])

    @classmethod
    def from_columns(cls, columns: Sequence[Vector]) -> "Matrix":
        """Build a matrix whose columns are the given vectors."""
        if not columns:
            return cls([])
        height = len(columns[0])
        return cls(
            [[column[i] for column in columns] for i in range(height)]
        )

    # -- basic protocol ----------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def num_cols(self) -> int:
        return self._num_cols

    @property
    def shape(self) -> Tuple[int, int]:
        return (self._num_rows, self._num_cols)

    def row(self, index: int) -> Vector:
        return Vector(self._rows[index])

    def rows(self) -> List[Vector]:
        return [Vector(row) for row in self._rows]

    def column(self, index: int) -> Vector:
        return Vector(row[index] for row in self._rows)

    def columns(self) -> List[Vector]:
        return [self.column(j) for j in range(self._num_cols)]

    def __getitem__(self, key: Tuple[int, int]) -> Fraction:
        i, j = key
        return self._rows[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = "; ".join(
            "[" + ", ".join(str(entry) for entry in row) + "]"
            for row in self._rows
        )
        return "Matrix(%s)" % body

    # -- arithmetic ---------------------------------------------------------

    def transpose(self) -> "Matrix":
        return Matrix(
            [
                [self._rows[i][j] for i in range(self._num_rows)]
                for j in range(self._num_cols)
            ]
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(
            [
                [a + b for a, b in zip(row_a, row_b)]
                for row_a, row_b in zip(self._rows, other._rows)
            ]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(
            [
                [a - b for a, b in zip(row_a, row_b)]
                for row_a, row_b in zip(self._rows, other._rows)
            ]
        )

    def __mul__(self, scalar: Rat) -> "Matrix":
        factor = as_fraction(scalar)
        return Matrix(
            [[entry * factor for entry in row] for row in self._rows]
        )

    __rmul__ = __mul__

    def matmul(self, other: "Matrix") -> "Matrix":
        """Matrix product ``self @ other``."""
        if self._num_cols != other._num_rows:
            raise ValueError("inner dimensions do not match")
        other_cols = other.columns()
        return Matrix(
            [
                [Vector(row).dot(col) for col in other_cols]
                for row in self._rows
            ]
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return self.matmul(other)

    def apply(self, vector: Vector) -> Vector:
        """Matrix-vector product ``self · vector``."""
        if len(vector) != self._num_cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        return Vector(Vector(row).dot(vector) for row in self._rows)

    # -- eliminations and subspaces -----------------------------------------

    def row_echelon(self) -> Tuple["Matrix", List[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        rows = [list(row) for row in self._rows]
        pivots: List[int] = []
        pivot_row = 0
        for col in range(self._num_cols):
            if pivot_row >= len(rows):
                break
            # Find a non-zero pivot in this column.
            chosen = None
            for candidate in range(pivot_row, len(rows)):
                if rows[candidate][col] != 0:
                    chosen = candidate
                    break
            if chosen is None:
                continue
            rows[pivot_row], rows[chosen] = rows[chosen], rows[pivot_row]
            pivot_value = rows[pivot_row][col]
            rows[pivot_row] = [entry / pivot_value for entry in rows[pivot_row]]
            for other in range(len(rows)):
                if other != pivot_row and rows[other][col] != 0:
                    factor = rows[other][col]
                    rows[other] = [
                        entry - factor * pivot_entry
                        for entry, pivot_entry in zip(
                            rows[other], rows[pivot_row]
                        )
                    ]
            pivots.append(col)
            pivot_row += 1
        return Matrix(rows), pivots

    def rank(self) -> int:
        """The rank of the matrix."""
        _, pivots = self.row_echelon()
        return len(pivots)

    def null_space(self) -> List[Vector]:
        """A basis of the kernel ``{x | self · x = 0}``."""
        echelon, pivots = self.row_echelon()
        pivot_set = set(pivots)
        free_columns = [
            col for col in range(self._num_cols) if col not in pivot_set
        ]
        basis: List[Vector] = []
        for free in free_columns:
            entries = [Fraction(0)] * self._num_cols
            entries[free] = Fraction(1)
            for row_index, pivot_col in enumerate(pivots):
                entries[pivot_col] = -echelon[row_index, free]
            basis.append(Vector(entries))
        return basis

    def solve(self, rhs: Vector) -> Optional[Vector]:
        """One solution of ``self · x = rhs`` or ``None`` when inconsistent."""
        if len(rhs) != self._num_rows:
            raise ValueError("right-hand side has wrong dimension")
        augmented = Matrix(
            [
                list(row) + [rhs[i]]
                for i, row in enumerate(self._rows)
            ]
        )
        echelon, pivots = augmented.row_echelon()
        # Inconsistent when a pivot lands in the augmented column.
        if self._num_cols in pivots:
            return None
        solution = [Fraction(0)] * self._num_cols
        for row_index, pivot_col in enumerate(pivots):
            solution[pivot_col] = echelon[row_index, self._num_cols]
        return Vector(solution)

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.shape != other.shape:
            raise ValueError(
                "shape mismatch: %s vs %s" % (self.shape, other.shape)
            )


# ---------------------------------------------------------------------------
# Subspace helpers used by the AvoidSpace machinery (paper, §4.1)
# ---------------------------------------------------------------------------


def orthogonal_complement(vectors: Sequence[Vector], dimension: int) -> List[Vector]:
    """A basis of the orthogonal complement of ``span(vectors)`` in Q^dimension.

    ``u ∈ span(vectors)`` iff ``n · u = 0`` for every returned ``n``; the
    ``AvoidSpace(u, B)`` formula of the paper is therefore the disjunction of
    the dis-equalities ``n · u ≠ 0``.
    """
    if not vectors:
        return [Vector.unit(dimension, i) for i in range(dimension)]
    matrix = Matrix.from_rows(list(vectors))
    if matrix.num_cols != dimension:
        raise ValueError("vectors do not live in the requested dimension")
    return matrix.null_space()


def in_span(vector: Vector, family: Sequence[Vector]) -> bool:
    """Whether *vector* lies in the linear span of *family*."""
    if vector.is_zero():
        return True
    if not family:
        return False
    matrix = Matrix.from_columns(list(family))
    return matrix.solve(vector) is not None


def complete_basis(family: Sequence[Vector], dimension: int) -> List[Vector]:
    """Extend a linearly independent *family* into a basis of Q^dimension."""
    basis: List[Vector] = list(family)
    for index in range(dimension):
        candidate = Vector.unit(dimension, index)
        if not in_span(candidate, basis):
            basis.append(candidate)
        if len(basis) == dimension:
            break
    return basis


def linearly_independent(vectors: Sequence[Vector]) -> bool:
    """Whether the given vectors are linearly independent."""
    if not vectors:
        return True
    matrix = Matrix.from_rows(list(vectors))
    return matrix.rank() == len(vectors)
