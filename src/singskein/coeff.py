"""Exact arithmetic in two bivariate rational-function fields.

Every scalar in the pipeline is a quotient of integer-coefficient
polynomials in one of two variable pairs:

* ``(q, z)`` -- the field the trace engine works over;
* ``(s, u)`` -- the extension used for skein normalisation.  The fresh
  indeterminates model square roots, ``q = s**2`` and ``y = u**2``, so no
  numeric branch of a root is ever chosen.

Polynomials hold int coefficients only; a rational constant enters through
``RationalFunction.constant``, which splits it into an int numerator and an
int denominator.  A :class:`RationalFunction` is always kept in canonical
form: the polynomial gcd of numerator and denominator and any shared integer
content are removed, and the leading coefficient of the denominator
is positive under graded-lex order (total degree first, ties broken by the
first variable).  Canonical form is unique, so structural equality ``==``
decides mathematical equality.

Negative powers (Laurent-style scalars such as ``q**-2``) are ordinary
rational functions with monomial denominators; a product with a monomial
ratio is reduced in closed form.

All values are immutable and safe to share across threads.

The packed kernel.  From the trace components to the skein coefficients,
``markov`` and ``skein`` keep every polynomial as Python ints (Kronecker
substitution).  A polynomial in q and z is a list of rows over z, each row
the value of its polynomial in q at q = 2^W: one balanced W-bit digit per
power of q.  A polynomial in x = s^2 and y = u^2 is one int, x -> 2^W and
y -> 2^S, S = W times the x-slots, so q -> x needs no repacking.
Evaluation at a power of two is a ring homomorphism, so shifts, adds and
products of these ints are exact at any W.  Only the zero tests, the
lowest set bits, the remainder tests and the one decode per coefficient
read digits, and they are exact when every digit is below 2^(W-1) in
absolute value: an int is then 0 iff every digit is, its lowest set bit
lies in its lowest nonzero digit, and its top digit is its bit length over
W.  ``_packed_width`` proves W for one word from L1 norms (sums of absolute
coefficients), which bound every digit.  Start from a numerator over D^d
of L1 at most l1 and z-degree at most L, to be rendered with z^m; let
r = max(-m, 0).

* Division by z - rho, rho = q or -1 (``_divide_linear``), at most d times
  each: Q_(t-1) = sum_(s >= t) rho^(s-t) R_s and the remainder is
  sum_s rho^s R_s.  A digit of either is a diagonal partial sum of the
  dividend's digits, so it is at most the dividend's L1, and
  L1(Q) <= sum_s s L1(R_s) <= L L1(R).  So every L1 stays within
  l1 L^(2d), and so does that of R, the numerator left in lowest terms.
* The embedding (``_embed_packed``): Rtilde = sum_b R_b(x) (x - 1)^b
  (1 - x y)^(level - b), where each factor product has L1 2^level, so
  L1(Rtilde) <= 2^level L1(R), with level <= max(L + max(m, 0), 2d + r).
  Its x-degree is at most D + level, D the q-degree of R, and the x-slots
  are D + level + 1, so no y-row spills into the next.
* Division by x - 1 (``_divide_x_minus_one``), at most r times: a quotient
  digit is a partial sum sum_(s >= i) P_s of the dividend's digits and the
  remainder is P(1), so one division raises L1 by at most the x-slot count.

So every digit that is read is at most l1 L^(2d) 2^level (D + level + 1)^r,
and W is that bound's bit length plus one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from operator import itemgetter
from typing import Mapping

__all__ = [
    "QZ",
    "SU",
    "MixedVariablesError",
    "PoleError",
    "ExactDivisionError",
    "MultivariatePolynomial",
    "RationalFunction",
    "poly_gcd",
    "poly_divexact",
    "embed_qz_to_su",
]

QZ = ("q", "z")
SU = ("s", "u")

# exponent pair (e0, e1) for var0**e0 * var1**e1
Monomial = tuple[int, int]


class MixedVariablesError(ValueError):
    """Operands live over different variable pairs."""


class PoleError(ZeroDivisionError):
    """A rational function was evaluated at a zero of its denominator."""


class ExactDivisionError(ArithmeticError):
    """An exact polynomial division left a remainder."""


def _monomial_key(mono: Monomial) -> tuple[int, int]:
    # graded lex, first variable above the second
    return (mono[0] + mono[1], mono[0])


class MultivariatePolynomial:
    """Sparse polynomial in two named variables with integer coefficients.

    Terms map exponent pairs to nonzero ints; any other coefficient type
    raises TypeError.  Rational scalars live in :class:`RationalFunction`.
    """

    __slots__ = ("variables", "terms", "_hash")

    def __init__(self, variables: tuple[str, str], terms: Mapping[Monomial, int]):
        if len(variables) != 2:
            raise ValueError("exactly two variables expected")
        clean: dict[Monomial, int] = {}
        for mono, coeff in terms.items():
            if not isinstance(coeff, int):
                raise TypeError(f"coefficient {coeff!r} is not an int")
            if coeff:
                if mono[0] < 0 or mono[1] < 0:
                    raise ValueError(f"negative exponent in monomial {mono}")
                clean[mono] = coeff
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("MultivariatePolynomial is immutable")

    @classmethod
    def _raw(cls, variables: tuple[str, str], terms: dict) -> "MultivariatePolynomial":
        """Trusted constructor for terms already mapping exponent pairs to nonzero ints."""
        self = object.__new__(cls)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "MultivariatePolynomial":
        return cls(variables, {})

    @classmethod
    def one(cls, variables) -> "MultivariatePolynomial":
        return cls(variables, {(0, 0): 1})

    @classmethod
    def constant(cls, variables, value) -> "MultivariatePolynomial":
        return cls(variables, {(0, 0): value})

    @classmethod
    def variable(cls, variables, name: str) -> "MultivariatePolynomial":
        if name == variables[0]:
            return cls(variables, {(1, 0): 1})
        if name == variables[1]:
            return cls(variables, {(0, 1): 1})
        raise ValueError(f"{name!r} is not one of {variables}")

    @classmethod
    def monomial(cls, variables, exponents: Monomial, coeff=1) -> "MultivariatePolynomial":
        return cls(variables, {tuple(exponents): coeff})

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_one(self) -> bool:
        return self.terms == {(0, 0): 1}

    def degree_in(self, var_index: int) -> int:
        """Largest exponent of the given variable (zero polynomial: -1)."""
        if not self.terms:
            return -1
        return max(mono[var_index] for mono in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(e0 + e1 for e0, e1 in self.terms)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=_monomial_key)

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "MultivariatePolynomial") -> None:
        if self.variables != other.variables:
            raise MixedVariablesError(
                f"cannot mix variables {self.variables} with {other.variables}"
            )

    def __add__(self, other: "MultivariatePolynomial") -> "MultivariatePolynomial":
        self._check(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono, 0) + coeff
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
        return MultivariatePolynomial(self.variables, out)

    def __sub__(self, other: "MultivariatePolynomial") -> "MultivariatePolynomial":
        return self + (-other)

    def __neg__(self) -> "MultivariatePolynomial":
        return MultivariatePolynomial(
            self.variables, {mono: -coeff for mono, coeff in self.terms.items()}
        )

    def __mul__(self, other: "MultivariatePolynomial") -> "MultivariatePolynomial":
        self._check(other)
        if not self.terms or not other.terms:
            return MultivariatePolynomial(self.variables, {})
        out: dict[Monomial, int] = {}
        for (a0, a1), ca in self.terms.items():
            for (b0, b1), cb in other.terms.items():
                mono = (a0 + b0, a1 + b1)
                acc = out.get(mono, 0) + ca * cb
                if acc:
                    out[mono] = acc
                else:
                    del out[mono]
        return MultivariatePolynomial(self.variables, out)

    def __pow__(self, exponent: int) -> "MultivariatePolynomial":
        if exponent < 0:
            raise ValueError("polynomial powers must be nonnegative")
        result = MultivariatePolynomial.one(self.variables)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base if exponent > 1 else base
            exponent >>= 1
        return result

    def scaled(self, factor: int) -> "MultivariatePolynomial":
        if not factor:
            return MultivariatePolynomial(self.variables, {})
        return MultivariatePolynomial(
            self.variables, {mono: coeff * factor for mono, coeff in self.terms.items()}
        )

    def evaluate(self, point: tuple) -> Fraction:
        """Evaluate at a pair of exact rational values."""
        v0 = Fraction(point[0])
        v1 = Fraction(point[1])
        total = Fraction(0)
        for (e0, e1), coeff in self.terms.items():
            total += coeff * v0**e0 * v1**e1
        return total

    # -- comparison / rendering --------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultivariatePolynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.variables, tuple(sorted(self.terms.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in descending graded-lex order (the rendering order)."""
        return sorted(self.terms.items(), key=lambda kv: _monomial_key(kv[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        var0, var1 = self.variables
        pieces: list[str] = []
        for (e0, e1), coeff in self.sorted_terms():
            factors = []
            if e0:
                factors.append(var0 if e0 == 1 else f"{var0}^{e0}")
            if e1:
                factors.append(var1 if e1 == 1 else f"{var1}^{e1}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not pieces:
                pieces.append(f"-{body}" if coeff < 0 else body)
            else:
                pieces.append(f"- {body}" if coeff < 0 else f"+ {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"<poly {self}>"


# ---------------------------------------------------------------------------
# Integer-polynomial gcd via primitive pseudo-remainder sequences.
#
# Univariate polynomials are little-endian int lists; bivariate ones are
# lists over the main variable whose entries are univariate lists in the
# second variable.  Everything stays in Z throughout.
# ---------------------------------------------------------------------------


def _u_trim(f: list) -> list:
    """Drop trailing zeros, or trailing empty rows of a bivariate list."""
    while f and not f[-1]:
        f.pop()
    return f


def _u_content(f: list[int]) -> int:
    c = 0
    for a in f:
        c = _int_gcd(c, abs(a))
    return c


def _u_pp(f: list[int]) -> list[int]:
    c = _u_content(f)
    if c > 1:
        return [a // c for a in f]
    return f


def _u_mul(f: list[int], g: list[int]) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _u_trim(out)


def _u_sub(f: list[int], g: list[int]) -> list[int]:
    out = list(f) + [0] * (len(g) - len(f))
    for j, b in enumerate(g):
        out[j] -= b
    return _u_trim(out)


def _u_prem(f: list[int], g: list[int]) -> list[int]:
    """A scalar multiple of f mod g; enough for a primitive PRS."""
    f = list(f)
    dg = len(g) - 1
    lg = g[-1]
    while f and len(f) - 1 >= dg:
        lf = f[-1]
        nf = [lg * a for a in f]
        off = len(f) - 1 - dg
        for k, b in enumerate(g):
            nf[off + k] -= lf * b
        nf.pop()
        f = _u_trim(nf)
    return f


def _u_gcd(f: list[int], g: list[int]) -> list[int]:
    f = _u_trim(list(f))
    g = _u_trim(list(g))
    if not f:
        f, g = g, f
    if not g:
        if f and f[-1] < 0:
            return [-a for a in f]
        return f
    cf, cg = _u_content(f), _u_content(g)
    f = [a // cf for a in f]
    g = [a // cg for a in g]
    while g:
        r = _u_prem(f, g)
        f, g = g, _u_pp(r)
    if f[-1] < 0:
        f = [-a for a in f]
    c = _int_gcd(cf, cg)
    return [a * c for a in f] if c != 1 else f


def _u_divexact(f: list[int], g: list[int]) -> list[int]:
    if not f:
        return []
    if not g:
        raise ExactDivisionError("division by zero polynomial")
    dg = len(g) - 1
    lg = g[-1]
    if len(f) - 1 < dg:
        raise ExactDivisionError("quotient is not a polynomial")
    out = [0] * (len(f) - dg)
    r = list(f)
    while r and len(r) - 1 >= dg:
        lr = r[-1]
        if lr % lg:
            raise ExactDivisionError("inexact coefficient division")
        qc = lr // lg
        off = len(r) - 1 - dg
        out[off] = qc
        for k, b in enumerate(g):
            r[off + k] -= qc * b
        _u_trim(r)
    if r:
        raise ExactDivisionError("nonzero remainder")
    return _u_trim(out)


def _b_content(F: list[list[int]]) -> list[int]:
    c: list[int] = []
    for row in F:
        if row:
            c = _u_gcd(c, row)
            if c == [1]:
                break
    return c


def _b_div_rows(F: list[list[int]], c: list[int]) -> list[list[int]]:
    if c == [1]:
        return F
    return [_u_divexact(row, c) if row else [] for row in F]


def _b_prem(F: list[list[int]], G: list[list[int]]) -> list[list[int]]:
    F = [list(row) for row in F]
    dG = len(G) - 1
    lG = G[-1]
    while F and len(F) - 1 >= dG:
        lF = F[-1]
        nF = [_u_mul(row, lG) for row in F]
        off = len(F) - 1 - dG
        for k, row in enumerate(G):
            if row:
                nF[off + k] = _u_sub(nF[off + k], _u_mul(row, lF))
        nF.pop()
        F = _u_trim(nF)
    return F


def _b_gcd(F: list[list[int]], G: list[list[int]]) -> list[list[int]]:
    F = _u_trim([list(r) for r in F])
    G = _u_trim([list(r) for r in G])
    if not F:
        F, G = G, F
    if not G:
        return F
    cF, cG = _b_content(F), _b_content(G)
    F = _b_div_rows(F, cF)
    G = _b_div_rows(G, cG)
    while G:
        R = _b_prem(F, G)
        cR = _b_content(R)
        F, G = G, _b_div_rows(R, cR)
    cc = _u_gcd(cF, cG)
    if cc != [1]:
        F = [_u_mul(row, cc) for row in F]
    return F


def _to_rec(terms: Mapping[Monomial, int]) -> list[list[int]]:
    d0 = max(e0 for e0, _ in terms)
    rows: list[dict[int, int]] = [dict() for _ in range(d0 + 1)]
    for (e0, e1), coeff in terms.items():
        rows[e0][e1] = coeff
    out: list[list[int]] = []
    for row in rows:
        if row:
            lst = [0] * (max(row) + 1)
            for e1, coeff in row.items():
                lst[e1] = coeff
            out.append(lst)
        else:
            out.append([])
    return _u_trim(out)


def _from_rec(F: list[list[int]]) -> dict[Monomial, int]:
    terms: dict[Monomial, int] = {}
    for e0, row in enumerate(F):
        for e1, coeff in enumerate(row):
            if coeff:
                terms[(e0, e1)] = coeff
    return terms


def _terms_content(terms: Mapping[Monomial, int]) -> int:
    c = 0
    for coeff in terms.values():
        c = _int_gcd(c, abs(coeff))
    return c


def _gcd_terms(a: Mapping[Monomial, int], b: Mapping[Monomial, int]) -> dict[Monomial, int]:
    """Gcd of integer-coefficient term dicts, positive leading coefficient."""
    if not a:
        g = dict(b)
    elif not b:
        g = dict(a)
    elif len(a) == 1 or len(b) == 1:
        mono_terms, other = (a, b) if len(a) == 1 else (b, a)
        (m0, m1), mc = next(iter(mono_terms.items()))
        g0 = min(m0, min(e0 for e0, _ in other))
        g1 = min(m1, min(e1 for _, e1 in other))
        g = {(g0, g1): _int_gcd(abs(mc), _terms_content(other))}
    else:
        g = _from_rec(_b_gcd(_to_rec(a), _to_rec(b)))
    if not g:
        return g
    lead = max(g, key=_monomial_key)
    if g[lead] < 0:
        g = {mono: -coeff for mono, coeff in g.items()}
    return g


def _divexact_terms(a: Mapping[Monomial, int], b: Mapping[Monomial, int]) -> dict[Monomial, int]:
    """Exact division of term dicts by long division on the dense form, one
    row at a time; raises if inexact.  An exact quotient is unique."""
    if not b:
        raise ExactDivisionError("division by zero polynomial")
    if not a:
        return {}
    F, G = _to_rec(a), _to_rec(b)
    dG = len(G) - 1
    out: list[list[int]] = [[] for _ in range(len(F) - dG)]
    while len(F) > dG:
        off = len(F) - 1 - dG
        row = out[off] = _u_divexact(F[-1], G[-1])
        for k, g_row in enumerate(G):
            if g_row:
                F[off + k] = _u_sub(F[off + k], _u_mul(g_row, row))
        _u_trim(F)
    if F:
        raise ExactDivisionError("nonzero remainder")
    return _from_rec(out)


def _strip_root(
    polys: list[list[list[int]]], root: int, shift: int, limit: int
) -> tuple[list[list[list[int]]], int]:
    """Divide every polynomial, given as dense rows over x of int lists over
    y, by x - root*y^shift as often as all of them allow, at most limit times;
    returns the quotients and the number of divisions made.

    Synthetic division (Horner's rule): walking down from the top row, each
    quotient row is the input row plus root*y^shift times the row above it,
    and the last such sum is the remainder.
    """
    times = 0
    while times < limit:
        quotients = []
        for rows in polys:
            carry: list[int] = []
            out = []
            for row in reversed(rows):
                acc = list(row) + [0] * (len(carry) + shift - len(row))
                for i, c in enumerate(carry):
                    acc[i + shift] += root * c
                carry = _u_trim(acc)
                out.append(carry)
            if carry:
                return polys, times
            # out holds the quotient rows top row first, then the remainder
            quotients.append(out[-2::-1])
        polys = quotients
        times += 1
    return polys, times


def poly_gcd(a: MultivariatePolynomial, b: MultivariatePolynomial) -> MultivariatePolynomial:
    """Gcd of two integer-coefficient polynomials (positive leading coeff)."""
    if a.variables != b.variables:
        raise MixedVariablesError(f"cannot mix {a.variables} and {b.variables}")
    return MultivariatePolynomial(a.variables, _gcd_terms(a.terms, b.terms))


def poly_divexact(a: MultivariatePolynomial, b: MultivariatePolynomial) -> MultivariatePolynomial:
    """Exact quotient a / b; raises ExactDivisionError when b does not divide a."""
    if a.variables != b.variables:
        raise MixedVariablesError(f"cannot mix {a.variables} and {b.variables}")
    return MultivariatePolynomial(a.variables, _divexact_terms(a.terms, b.terms))


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


def _canonical_pair(num: dict, den: dict) -> tuple[dict, dict]:
    """Reduce a numerator/denominator pair of int-coefficient term dicts."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, {(0, 0): 1}
    g = _gcd_terms(num, den)
    if g and g != {(0, 0): 1}:
        num = _divexact_terms(num, g)
        den = _divexact_terms(den, g)
    if den[max(den, key=_monomial_key)] < 0:
        num = {mono: -c for mono, c in num.items()}
        den = {mono: -c for mono, c in den.items()}
    return num, den


class RationalFunction:
    """Quotient of two integer-coefficient bivariate polynomials, canonical."""

    __slots__ = ("numerator", "denominator", "_hash")

    def __init__(
        self,
        numerator: MultivariatePolynomial,
        denominator: MultivariatePolynomial | None = None,
    ):
        if denominator is None:
            denominator = MultivariatePolynomial.one(numerator.variables)
        elif numerator.variables != denominator.variables:
            raise MixedVariablesError(
                f"cannot mix {numerator.variables} and {denominator.variables}"
            )
        num, den = _canonical_pair(numerator.terms, denominator.terms)
        object.__setattr__(
            self, "numerator", MultivariatePolynomial(numerator.variables, num)
        )
        object.__setattr__(
            self, "denominator", MultivariatePolynomial(numerator.variables, den)
        )
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def _raw(cls, num: MultivariatePolynomial, den: MultivariatePolynomial) -> "RationalFunction":
        """Trusted constructor for pairs already in canonical form."""
        self = object.__new__(cls)
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)
        object.__setattr__(self, "_hash", None)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, variables, value) -> "RationalFunction":
        frac = Fraction(value)
        num = MultivariatePolynomial.constant(variables, frac.numerator)
        den = MultivariatePolynomial.constant(variables, frac.denominator)
        return cls._raw(num, den)

    @classmethod
    def zero(cls, variables) -> "RationalFunction":
        return cls.constant(variables, 0)

    @classmethod
    def one(cls, variables) -> "RationalFunction":
        return cls.constant(variables, 1)

    @classmethod
    def coordinate(cls, variables, name: str) -> "RationalFunction":
        num = MultivariatePolynomial.variable(variables, name)
        return cls._raw(num, MultivariatePolynomial.one(variables))

    @classmethod
    def from_laurent_terms(cls, variables, terms: Mapping[Monomial, int]) -> "RationalFunction":
        """Build from terms whose exponents may be negative (Laurent form)."""
        clean = {mono: c for mono, c in terms.items() if c}
        if not clean:
            return cls.zero(variables)
        s0 = min(e0 for e0, _ in clean)
        s1 = min(e1 for _, e1 in clean)
        s0 = -s0 if s0 < 0 else 0
        s1 = -s1 if s1 < 0 else 0
        num = MultivariatePolynomial(
            variables, {(e0 + s0, e1 + s1): c for (e0, e1), c in clean.items()}
        )
        den = MultivariatePolynomial.monomial(variables, (s0, s1))
        return cls._raw(num, den)

    # -- queries -----------------------------------------------------------

    @property
    def variables(self) -> tuple[str, str]:
        return self.numerator.variables

    @property
    def is_zero(self) -> bool:
        return self.numerator.is_zero

    @property
    def is_one(self) -> bool:
        return self.numerator.is_one and self.denominator.is_one

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "RationalFunction") -> None:
        if self.variables != other.variables:
            raise MixedVariablesError(
                f"cannot mix variables {self.variables} with {other.variables}"
            )

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        self._check(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.denominator.is_one and other.denominator.is_one:
            return RationalFunction._raw(
                self.numerator + other.numerator, self.denominator
            )
        if self.denominator == other.denominator:
            return RationalFunction(self.numerator + other.numerator, self.denominator)
        num = self.numerator * other.denominator + other.numerator * self.denominator
        return RationalFunction(num, self.denominator * other.denominator)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._raw(-self.numerator, self.denominator)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        self._check(other)
        if self.is_zero or other.is_zero:
            return RationalFunction.zero(self.variables)
        if self.is_one:
            return other
        if other.is_one:
            return self
        if self.denominator.is_one and other.denominator.is_one:
            return RationalFunction._raw(
                self.numerator * other.numerator, self.denominator
            )
        if len(other.numerator.terms) == 1 and len(other.denominator.terms) == 1:
            return _times_monomial(self, other)
        if len(self.numerator.terms) == 1 and len(self.denominator.terms) == 1:
            return _times_monomial(other, self)
        return RationalFunction(
            self.numerator * other.numerator, self.denominator * other.denominator
        )

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        return self * other.inverse()

    def inverse(self) -> "RationalFunction":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        num, den = self.denominator, self.numerator
        if den.leading_coefficient() < 0:
            num, den = -num, -den
        return RationalFunction._raw(num, den)

    def __pow__(self, exponent: int) -> "RationalFunction":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = RationalFunction.one(self.variables)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base if exponent > 1 else base
            exponent >>= 1
        return result

    def scaled(self, value) -> "RationalFunction":
        return self * RationalFunction.constant(self.variables, value)

    def evaluate(self, point: tuple) -> Fraction:
        den_value = self.denominator.evaluate(point)
        if den_value == 0:
            raise PoleError(f"denominator vanishes at {point}")
        return self.numerator.evaluate(point) / den_value

    # -- comparison / rendering --------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.numerator == other.numerator and self.denominator == other.denominator

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.numerator, self.denominator))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        if self.numerator.is_zero:
            return "0"
        if self.denominator.is_one:
            return str(self.numerator)

        def wrap(poly: MultivariatePolynomial) -> str:
            text = str(poly)
            if " " in text or "*" in text or text.startswith("-"):
                return f"({text})"
            return text

        return f"{wrap(self.numerator)}/{wrap(self.denominator)}"

    def __repr__(self) -> str:
        return f"<rf {self}>"


def _times_monomial(f: RationalFunction, m: RationalFunction) -> RationalFunction:
    """Product of canonical N/D with a canonical a*x^alpha / (b*x^beta).

    N and D are coprime, so the only common factor of a*N*x^alpha and
    b*D*x^beta is g * x^t, with g = gcd(a*content(N), b*content(D)) and t
    the smaller of the lowest exponents of N*x^alpha and D*x^beta, one
    variable at a time.  Multiplying by a monomial keeps graded-lex order,
    so the denominator's leading coefficient stays positive.
    """
    ((a0, a1), a), = m.numerator.terms.items()
    ((b0, b1), b), = m.denominator.terms.items()
    num, den = f.numerator.terms, f.denominator.terms
    t0 = min(min(e0 for e0, _ in num) + a0, min(e0 for e0, _ in den) + b0)
    t1 = min(min(e1 for _, e1 in num) + a1, min(e1 for _, e1 in den) + b1)
    g = _int_gcd(a * _terms_content(num), b * _terms_content(den))
    num = {(e0 + a0 - t0, e1 + a1 - t1): c * a // g for (e0, e1), c in num.items()}
    den = {(e0 + b0 - t0, e1 + b1 - t1): c * b // g for (e0, e1), c in den.items()}
    return RationalFunction._raw(
        MultivariatePolynomial(f.variables, num), MultivariatePolynomial(f.variables, den)
    )


# ---------------------------------------------------------------------------
# The field embedding
# ---------------------------------------------------------------------------

# The embedding kernel.  A polynomial N of z-degree at most L maps to
# Ntilde / (1 - s^2*u^2)^L with Ntilde = sum_b N_b(x) (x - 1)^b (1 - x*y)^(L - b),
# x = s^2, y = u^2 and N_b the coefficient of z^b; ``_embed_rows`` forms
# Ntilde by Horner's rule in 1 - x*y.  ``skein`` applies it to factored
# coordinates, whose denominators it knows in closed form; ``embed_qz_to_su``
# applies it to both sides of any fraction and is the oracle for that path.
#
# For coprime N and D the images can share only factors that the
# substitution collapses to a point: s, from (q, z) = (0, -1), and s - 1 and
# s + 1, both from (1, 0).  The images are polynomials in s^2, so s - 1 and
# s + 1 come with equal multiplicity and cancel together as s^2 - 1, and the
# common power of s cancels by an exponent shift.  The image of whichever of
# N, D has z-degree L carries no power of 1 - s^2*u^2, so s*u - 1 and
# s*u + 1 never cancel.  s^2 - 1 is stripped from the two images together by
# synthetic division.


def _embed_rows(by_z: list[list[int]], level: int) -> list[list[int]]:
    """Image of N times (1 - s^2*u^2)^level, N given as rows over z of int
    lists over q, as rows over x = s^2 of int lists over y = u^2:
    sum_b N_b(x) (x - 1)^b (1 - x*y)^(level - b), by Horner's rule in 1 - x*y."""
    rows: list[list[int]] = []
    a_pow = [1]
    for b in range(level + 1):
        if b:
            a_pow = _u_sub([0] + a_pow, a_pow)  # (x - 1)^b
            # rows * (1 - x*y): row i loses row i - 1 times y
            rows = [_u_sub(row, [0] + below) for row, below in zip(rows + [[]], [[]] + rows)]
        term = _u_mul(by_z[b], a_pow) if b < len(by_z) else []
        rows += [[] for _ in range(len(term) - len(rows))]
        for i, c in enumerate(term):
            rows[i] = _u_trim([(rows[i][0] if rows[i] else 0) + c] + rows[i][1:])
    return _u_trim(rows)


def _z_rows(poly: MultivariatePolynomial) -> list[list[int]]:
    """A (q, z) polynomial as rows over z of int lists over q."""
    return _to_rec({(ez, eq): c for (eq, ez), c in poly.terms.items()})


def embed_qz_to_su(a: RationalFunction) -> RationalFunction:
    """Ring embedding of Q(q, z) into Q(s, u): q -> s^2, z -> (s^2-1)/(1-s^2*u^2)."""
    if a.variables != QZ:
        raise MixedVariablesError(f"embedding expects variables {QZ}, got {a.variables}")
    if a.is_zero:
        return RationalFunction.zero(SU)
    level = max(a.numerator.degree_in(1), a.denominator.degree_in(1), 0)
    num = _embed_rows(_z_rows(a.numerator), level)
    den = _embed_rows(_z_rows(a.denominator), level)
    (num, den), _ = _strip_root([num, den], 1, 0, len(den))
    low = min(next(i for i, row in enumerate(rows) if row) for rows in (num, den))
    num = {(2 * i, 2 * j): c for i, row in enumerate(num[low:]) for j, c in enumerate(row) if c}
    den = {(2 * i, 2 * j): c for i, row in enumerate(den[low:]) for j, c in enumerate(row) if c}
    g = _int_gcd(_terms_content(num), _terms_content(den))
    if g > 1:
        num = {mono: c // g for mono, c in num.items()}
        den = {mono: c // g for mono, c in den.items()}
    if den[max(den, key=_monomial_key)] < 0:
        num = {mono: -c for mono, c in num.items()}
        den = {mono: -c for mono, c in den.items()}
    return RationalFunction._raw(
        MultivariatePolynomial(SU, num), MultivariatePolynomial(SU, den)
    )


# ---------------------------------------------------------------------------
# The packed kernel (module docstring): polynomials as ints, q -> 2^W
# ---------------------------------------------------------------------------


def _packed_width(l1: int, z_degree: int, q_degree: int, d: int, m: int) -> int:
    """Digit width W proved for a numerator over D^d with L1 at most ``l1``,
    z-degree at most ``z_degree`` and, once its q-shift is taken out, q-degree
    at most ``q_degree``, rendered with z^m (bound in the module docstring)."""
    r = max(-m, 0)
    level = max(z_degree + max(m, 0), 2 * d + r)
    bound = l1 * max(z_degree, 1) ** (2 * d) * 2**level * (q_degree + level + 1) ** r
    return bound.bit_length() + 1


def _pack(laurent: Mapping[Monomial, int], q0: int, width: int) -> list[int]:
    """Laurent terms over (q, z) as rows over z, each an int with the
    coefficient of q^e in digit e - q0 (q -> 2^width)."""
    rows = [0] * (max(map(itemgetter(1), laurent), default=-1) + 1)
    for (eq, ez), v in laurent.items():
        rows[ez] += v << (width * (eq - q0))
    return rows


def _digits(v: int, width: int):
    """(index, digit) for each nonzero balanced width-bit digit of v, lowest
    first; the digits are v's coefficients when each is below 2^(width-1)."""
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    i = 0
    while v:
        digit = v & mask
        if digit >= half:
            digit -= mask + 1
        if digit:
            yield i, digit
        v = (v - digit) >> width
        i += 1


def _divide_linear(rows: list[int], shift: int, sign: int, limit: int) -> tuple[list[int], int]:
    """Divide sum_t rows[t] z^t by z - sign * 2^shift (z - q: shift W, sign 1;
    z + 1: shift 0, sign -1) as often as it divides, at most limit times;
    returns the quotient rows and the number of divisions.  Synthetic
    division: Q_(t-1) = R_t + sign * (Q_t << shift), and the last such sum is
    the remainder, so a division stops at the first nonzero remainder."""
    times = 0
    while times < limit:
        carry = 0
        out = []
        for v in reversed(rows):
            carry = v + sign * (carry << shift)
            out.append(carry)
        if carry:
            break
        rows = out[-2::-1]
        times += 1
    return rows, times


def _embed_packed(rows: tuple[int, ...], level: int, width: int) -> tuple[int, int]:
    """(value, stride): sum_b R_b(x) (x - 1)^b (1 - x*y)^(level - b) for the
    z-rows of R, packed at x -> 2^width (so R_b(q) is R_b(x) as it stands) and
    y -> 2^stride, with stride = width times the x-slots the value needs."""
    slots = max(abs(v).bit_length() for v in rows) // width + level + 1
    stride = width * slots
    xy = width + stride
    acc, a_pow = 0, 1
    for b in range(level + 1):
        if b:
            acc -= acc << xy  # times 1 - x*y
            a_pow = (a_pow << width) - a_pow  # (x - 1)^b
        if b < len(rows) and rows[b]:
            acc += rows[b] * a_pow
    return acc, stride


def _divide_x_minus_one(rows: list[int], width: int, limit: int) -> tuple[list[int], int]:
    """Divide every polynomial in x (packed at x -> 2^width) by x - 1 as
    often as all of them allow, at most limit times.  P(2^W) = (2^W - 1)
    Q(2^W) + P(1), and |P(1)| < 2^(W - 1), so x - 1 divides P iff the int
    remainder mod 2^W - 1 is 0, and the int quotient is then Q packed."""
    modulus = (1 << width) - 1
    times = 0
    while times < limit:
        split = [divmod(v, modulus) for v in rows]
        if any(rem for _, rem in split):
            break
        rows = [quo for quo, _ in split]
        times += 1
    return rows, times
