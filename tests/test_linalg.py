"""The one elimination engine: incremental RREF, and the determinant and
square solve built on it."""

from itertools import permutations
import random

import pytest

from singskein.coeff import QZ, MultivariatePolynomial, RationalFunction
from singskein.linalg import LinearSystem, SingularMatrixError, determinant, solve

ONE = RationalFunction.one(QZ)
ZERO = RationalFunction.zero(QZ)
Q = RationalFunction.coordinate(QZ, "q")
Z = RationalFunction.coordinate(QZ, "z")


def const(v):
    return RationalFunction.constant(QZ, v)


def random_matrix(rng, n, fractional=False):
    def entry():
        num = MultivariatePolynomial(
            QZ, {(rng.randint(0, 1), rng.randint(0, 1)): rng.randint(-3, 3)}
        )
        e = RationalFunction(num)
        if fractional and rng.random() < 0.4:
            e = e / (Q + const(rng.randint(1, 3)))
        return e

    return [[entry() for _ in range(n)] for _ in range(n)]


def mat_vec(m, v):
    out = []
    for row in m:
        acc = ZERO
        for a, b in zip(row, v):
            acc = acc + a * b
        out.append(acc)
    return out


def leibniz(m):
    total = ZERO
    for perm in permutations(range(len(m))):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        term = -ONE if inversions % 2 else ONE
        for i, j in enumerate(perm):
            term = term * m[i][j]
        total = total + term
    return total


def test_determinant_2x2():
    m = [[ONE, Z], [Z, (Q - ONE) * Z + Q]]
    assert determinant(m) == (Q - ONE) * Z + Q - Z * Z


def test_determinant_singular():
    m = [[Q, Z], [Q + Q, Z + Z]]
    assert determinant(m) == ZERO


def test_determinant_with_denominators():
    m = [[ONE / Q, ZERO], [Z, Q]]
    assert determinant(m) == ONE


def test_determinant_matches_leibniz_expansion():
    # rows with a zero leading entry make the pivot columns come out of
    # order, so the sign of that order is exercised
    assert determinant([[ZERO, ONE], [ONE, ZERO]]) == -ONE
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, fractional=True)
        for row in m:
            if rng.random() < 0.4:
                row[0] = ZERO
        assert determinant(m) == leibniz(m)


def test_solve_roundtrip():
    rng = random.Random(6)
    solved = 0
    while solved < 15:
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, fractional=True)
        if determinant(m).is_zero:
            continue
        x = [const(rng.randint(-3, 3)) for _ in range(n)]
        rhs = mat_vec(m, x)
        assert solve(m, rhs) == x
        solved += 1


def test_solve_singular_raises():
    m = [[Q, Q], [Q, Q]]
    with pytest.raises(SingularMatrixError):
        solve(m, [ONE, ONE])


def test_solve_rejects_wrong_rhs_length():
    with pytest.raises(ValueError):
        solve([[ONE]], [ONE, Q])
    with pytest.raises(ValueError):
        solve([[ONE, ZERO], [ZERO, ONE]], [ONE])


def test_linear_system_unique_solution():
    # x + y = q, x - y = z  =>  x = (q+z)/2, y = (q-z)/2
    system = LinearSystem(2, QZ)
    system.add_equation([ONE, ONE], Q)
    system.add_equation([ONE, -ONE], Z)
    x, y = system.unique_solution()
    assert x == (Q + Z).scaled(0.5) or x == (Q + Z) * const(0.5)
    assert x + y == Q
    assert x - y == Z


def test_linear_system_detects_inconsistency():
    system = LinearSystem(1, QZ)
    system.add_equation([ONE], Q)
    system.add_equation([ONE], Q + ONE)
    assert system.inconsistent
    with pytest.raises(SingularMatrixError):
        system.unique_solution()


def test_linear_system_redundant_rows_ok():
    system = LinearSystem(2, QZ)
    system.add_equation([ONE, Z], Q)
    system.add_equation([ONE + ONE, Z + Z], Q + Q)
    assert system.rank == 1
    assert not system.inconsistent
    system.add_equation([ZERO, ONE], ONE)
    assert system.unique_solution() == [Q - Z, ONE]
