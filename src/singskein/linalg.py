"""Exact linear algebra over the rational-function fields.

Square solves and determinants run fraction-free: each row is scaled to a
common polynomial denominator, then Bareiss elimination keeps every
intermediate entry a polynomial (the divisions it performs are exact).
Pivoting is deterministic: the first row with a nonzero entry, in column
order.  The incremental reduced-echelon ``LinearSystem`` handles the
overdetermined axiom systems used by the trace oracle, where consistency
of redundant equations is part of what is being checked.  The pipeline
itself solves no linear systems; the tests use this module as an
independent oracle.
"""

from __future__ import annotations

from typing import Sequence

from .coeff import (
    MultivariatePolynomial,
    RationalFunction,
    poly_divexact,
    poly_lcm,
)

__all__ = ["SingularMatrixError", "determinant", "solve", "invert", "LinearSystem"]


class SingularMatrixError(ArithmeticError):
    """A matrix required to be invertible is singular."""


def _clear_row(row: Sequence[RationalFunction]) -> tuple[list[MultivariatePolynomial], MultivariatePolynomial]:
    """Scale a row of rational functions to polynomials; returns (row, multiplier)."""
    variables = row[0].variables
    lcm = MultivariatePolynomial.one(variables)
    for entry in row:
        if not entry.denominator.is_one:
            lcm = poly_lcm(lcm, entry.denominator)
    cleared = [
        entry.numerator * poly_divexact(lcm, entry.denominator) for entry in row
    ]
    return cleared, lcm


def _bareiss_forward(
    rows: list[list[MultivariatePolynomial]],
) -> tuple[list[list[MultivariatePolynomial]], list[int], int]:
    """Fraction-free forward elimination.

    Returns the reduced rows, the pivot column for each pivot row, and the
    sign from row swaps.  Rows below each pivot are zeroed in that column.
    """
    if not rows:
        return rows, [], 1
    variables = rows[0][0].variables
    n_rows = len(rows)
    n_cols = len(rows[0])
    sign = 1
    prev = MultivariatePolynomial.one(variables)
    pivot_cols: list[int] = []
    r = 0
    for col in range(n_cols):
        if r >= n_rows:
            break
        pivot = next((i for i in range(r, n_rows) if not rows[i][col].is_zero), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        for i in range(r + 1, n_rows):
            row_i = rows[i]
            row_r = rows[r]
            factor_i = row_i[col]
            factor_r = row_r[col]
            for j in range(col, n_cols):
                updated = factor_r * row_i[j] - factor_i * row_r[j]
                row_i[j] = poly_divexact(updated, prev) if not prev.is_one else updated
            row_i[col] = MultivariatePolynomial.zero(variables)
        prev = rows[r][col]
        pivot_cols.append(col)
        r += 1
    return rows, pivot_cols, sign


def determinant(matrix: Sequence[Sequence[RationalFunction]]) -> RationalFunction:
    """Exact determinant via row clearing and Bareiss elimination."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    variables = matrix[0][0].variables
    rows: list[list[MultivariatePolynomial]] = []
    scale = RationalFunction.one(variables)
    for row in matrix:
        if len(row) != n:
            raise ValueError("determinant needs a square matrix")
        cleared, mult = _clear_row(row)
        rows.append(cleared)
        scale = scale * RationalFunction(mult)
    rows, pivot_cols, sign = _bareiss_forward(rows)
    if len(pivot_cols) < n:
        return RationalFunction.zero(variables)
    det_poly = rows[n - 1][n - 1]
    if sign < 0:
        det_poly = -det_poly
    return RationalFunction(det_poly) / scale


def solve(
    matrix: Sequence[Sequence[RationalFunction]],
    rhs: Sequence[RationalFunction],
) -> list[RationalFunction]:
    """Solve a square nonsingular system exactly."""
    return _solve_columns(matrix, [[v] for v in rhs])[0]


def invert(matrix: Sequence[Sequence[RationalFunction]]) -> list[list[RationalFunction]]:
    """Matrix inverse as a list of rows."""
    n = len(matrix)
    variables = matrix[0][0].variables
    one = RationalFunction.one(variables)
    zero = RationalFunction.zero(variables)
    identity_rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
    columns = _solve_columns(matrix, identity_rows)
    return [[columns[i][j] for i in range(n)] for j in range(n)]


def _solve_columns(
    matrix: Sequence[Sequence[RationalFunction]],
    rhs_rows: Sequence[Sequence[RationalFunction]],
) -> list[list[RationalFunction]]:
    """Shared elimination for several right-hand sides.

    ``rhs_rows[i]`` extends row i; the result is one solution vector per
    right-hand-side column.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    variables = matrix[0][0].variables
    width = len(rhs_rows[0])
    rows: list[list[MultivariatePolynomial]] = []
    for row, extra in zip(matrix, rhs_rows):
        if len(row) != n:
            raise ValueError("solve needs a square matrix")
        cleared, _ = _clear_row(list(row) + list(extra))
        rows.append(cleared)
    rows, pivot_cols, _ = _bareiss_forward(rows)
    if len(pivot_cols) < n or pivot_cols[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    solutions: list[list[RationalFunction]] = []
    for k in range(width):
        col = n + k
        values: list[RationalFunction] = [RationalFunction.zero(variables)] * n
        for i in range(n - 1, -1, -1):
            acc = RationalFunction(rows[i][col])
            for j in range(i + 1, n):
                acc = acc - RationalFunction(rows[i][j]) * values[j]
            values[i] = acc / RationalFunction(rows[i][i])
        solutions.append(values)
    return solutions


class LinearSystem:
    """Incrementally row-reduced linear system over a rational-function field.

    Equations are added one at a time; each is reduced against the pivots
    found so far.  A dependent equation must reduce to 0 = 0, otherwise the
    system is recorded as inconsistent.
    """

    def __init__(self, n_unknowns: int, variables):
        self.n = n_unknowns
        self.variables = variables
        self._zero = RationalFunction.zero(variables)
        self._one = RationalFunction.one(variables)
        # pivot column -> (coefficient row with leading 1, rhs)
        self.rows: dict[int, tuple[list[RationalFunction], RationalFunction]] = {}
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
