"""Exact linear algebra over the rational-function fields.

One elimination engine does everything: the incremental reduced-echelon
``LinearSystem``.  It handles the overdetermined axiom systems used by the
trace oracle, where consistency of redundant equations is part of what is
being checked, and ``solve`` and ``determinant`` feed a square matrix into
it one row at a time.  Pivoting is deterministic: the first nonzero entry of
the reduced row, in column order.  The pipeline itself solves no linear
systems; the tests use this module as an independent oracle.
"""

from __future__ import annotations

from typing import Sequence

from .coeff import RationalFunction

__all__ = ["SingularMatrixError", "determinant", "solve", "LinearSystem"]


class SingularMatrixError(ArithmeticError):
    """A matrix required to be invertible is singular."""


def _square_system(
    matrix: Sequence[Sequence[RationalFunction]], rhs: Sequence[RationalFunction]
) -> "LinearSystem":
    """Row-reduce a square matrix with the given right-hand side."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    if len(rhs) != n:
        raise ValueError("right-hand side has the wrong length")
    system = LinearSystem(n, matrix[0][0].variables)
    for row, value in zip(matrix, rhs):
        if len(row) != n:
            raise ValueError("a square matrix is needed")
        system.add_equation(row, value)
    return system


def determinant(matrix: Sequence[Sequence[RationalFunction]]) -> RationalFunction:
    """Exact determinant: the product of the pivots, times the sign of the
    order in which their columns were found (0 when the rank is short).

    Reducing a row against the stored rows, and back-eliminating, only add
    multiples of other rows, which keeps the determinant.  Normalising a row
    divides the determinant by its pivot.  At full rank the stored rows end
    as the permutation matrix of the pivot columns, in the order the rows
    were added.
    """
    if not matrix:
        raise ValueError("empty matrix")
    zero = RationalFunction.zero(matrix[0][0].variables)
    system = _square_system(matrix, [zero] * len(matrix))
    if system.rank < system.n:
        return zero
    columns = [col for col, _ in system.pivots]
    det = RationalFunction.one(system.variables)
    for _, value in system.pivots:
        det = det * value
    inversions = sum(a > b for i, a in enumerate(columns) for b in columns[i + 1:])
    return -det if inversions % 2 else det


def solve(
    matrix: Sequence[Sequence[RationalFunction]],
    rhs: Sequence[RationalFunction],
) -> list[RationalFunction]:
    """Solve a square nonsingular system exactly (SingularMatrixError if not)."""
    return _square_system(matrix, rhs).unique_solution()


class LinearSystem:
    """Incrementally row-reduced linear system over a rational-function field.

    Equations are added one at a time; each is reduced against the pivots
    found so far.  A dependent equation must reduce to 0 = 0, otherwise the
    system is recorded as inconsistent.  An equation that adds a pivot is
    normalised to a leading 1 and eliminated from the stored rows, so they
    stay in reduced echelon form; ``pivots`` records, in the order they were
    found, each pivot's column and its value before normalisation.
    """

    def __init__(self, n_unknowns: int, variables):
        self.n = n_unknowns
        self.variables = variables
        # pivot column -> (coefficient row with leading 1, rhs)
        self.rows: dict[int, tuple[list[RationalFunction], RationalFunction]] = {}
        self.pivots: list[tuple[int, RationalFunction]] = []
        self.inconsistent = False

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add_equation(self, coeffs: Sequence[RationalFunction], rhs: RationalFunction) -> None:
        if len(coeffs) != self.n:
            raise ValueError("coefficient vector has the wrong length")
        work = list(coeffs)
        rhs_work = rhs
        for col in sorted(self.rows):
            factor = work[col]
            if factor.is_zero:
                continue
            row, row_rhs = self.rows[col]
            for j in range(col, self.n):
                work[j] = work[j] - factor * row[j]
            rhs_work = rhs_work - factor * row_rhs
        pivot = next((j for j in range(self.n) if not work[j].is_zero), None)
        if pivot is None:
            if not rhs_work.is_zero:
                self.inconsistent = True
            return
        self.pivots.append((pivot, work[pivot]))
        inv = work[pivot].inverse()
        work = [c * inv for c in work]
        rhs_work = rhs_work * inv
        # eliminate the new pivot from existing rows to keep reduced form
        for col, (row, row_rhs) in list(self.rows.items()):
            factor = row[pivot]
            if factor.is_zero:
                continue
            new_row = [row[j] - factor * work[j] for j in range(self.n)]
            self.rows[col] = (new_row, row_rhs - factor * rhs_work)
        self.rows[pivot] = (work, rhs_work)

    def unique_solution(self) -> list[RationalFunction]:
        if self.inconsistent:
            raise SingularMatrixError("system is inconsistent")
        if self.rank != self.n:
            raise SingularMatrixError(
                f"system is underdetermined (rank {self.rank} of {self.n})"
            )
        return [self.rows[col][1] for col in range(self.n)]
