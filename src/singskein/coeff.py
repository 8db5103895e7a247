"""Exact arithmetic in two bivariate rational-function fields.

Every scalar in the pipeline is a quotient of integer-coefficient
polynomials in one of two variable pairs:

* ``(q, z)`` -- the field the trace engine works over;
* ``(s, u)`` -- the extension used for skein normalisation.  The fresh
  indeterminates model square roots, ``q = s**2`` and ``y = u**2``, so no
  numeric branch of a root is ever chosen.

Polynomials hold int coefficients only; a rational constant enters through
``RationalFunction.constant``, which splits it into an int numerator and an
int denominator (``fractions`` is imported only for a non-int constant).  A
:class:`RationalFunction` is always kept in canonical form: the polynomial
gcd of numerator and denominator and any shared integer content are
removed, and the leading coefficient of the denominator is positive under
graded-lex order (total degree first, ties broken by the first variable).
Canonical form is unique, so structural equality ``==`` decides
mathematical equality.

The production path forms every value on packed ints, writes it down in
canonical form and builds it with the trusted ``_raw`` constructors; a CLI
run then only compares and renders values.  The arithmetic here serves the
oracle's and the tests' values.  The general gcd engine (``poly_gcd``,
``poly_divexact`` and ``_canonical_pair``, on primitive pseudo-remainder
sequences), its ``ExactDivisionError`` and the dense embedding
``embed_qz_to_su`` live in ``singskein.oracle``, which no CLI run imports;
``RationalFunction``'s general constructor imports ``_canonical_pair`` when
it is called.

Negative powers (Laurent-style scalars such as ``q**-2``) are ordinary
rational functions with monomial denominators; a product with a monomial
ratio is reduced in closed form (``_times_monomial``).

All values are ``braid.Record``s: immutable (setting or deleting an
attribute raises ``AttributeError``) and safe to share across threads.

The production path keeps its polynomials as packed ints, whose format and
widths ``singskein.packed`` owns; this module holds only the value types.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd as _int_gcd
from typing import Mapping

from .braid import Record

__all__ = [
    "QZ",
    "SU",
    "MixedVariablesError",
    "PoleError",
    "MultivariatePolynomial",
    "RationalFunction",
]

QZ = ("q", "z")
SU = ("s", "u")

# exponent pair (e0, e1) for var0**e0 * var1**e1
Monomial = tuple[int, int]


class MixedVariablesError(ValueError):
    """Operands live over different variable pairs."""


class PoleError(ZeroDivisionError):
    """A rational function was evaluated at a zero of its denominator."""


def _monomial_key(mono: Monomial) -> tuple[int, int]:
    # graded lex, first variable above the second
    return (mono[0] + mono[1], mono[0])


@lru_cache(maxsize=4096)
def _monomial_text(var0: str, var1: str, e0: int, e1: int) -> str:
    """var0^e0 * var1^e1 as rendered, an exponent 1 left out, "" for 1."""
    factors = []
    if e0:
        factors.append(var0 if e0 == 1 else f"{var0}^{e0}")
    if e1:
        factors.append(var1 if e1 == 1 else f"{var1}^{e1}")
    return "*".join(factors)


class MultivariatePolynomial(Record):
    """Sparse polynomial in two named variables with integer coefficients.

    Terms map exponent pairs to nonzero ints; any other coefficient type
    raises TypeError.  Rational scalars live in :class:`RationalFunction`.
    """

    __slots__ = ("variables", "terms")

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
        self._set(tuple(variables), clean)

    @classmethod
    def _raw(cls, variables: tuple[str, str], terms: dict) -> "MultivariatePolynomial":
        """Trusted constructor for terms already mapping exponent pairs to nonzero ints."""
        self = object.__new__(cls)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", terms)
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
        from fractions import Fraction

        v0 = Fraction(point[0])
        v1 = Fraction(point[1])
        total = Fraction(0)
        for (e0, e1), coeff in self.terms.items():
            total += coeff * v0**e0 * v1**e1
        return total

    # -- comparison / rendering --------------------------------------------

    def __hash__(self) -> int:
        return hash((self.variables, tuple(sorted(self.terms.items()))))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        var0, var1 = self.variables
        # one sort in the rendering order: (e0 + e1, e0) is distinct per
        # term, so the coefficient at the end of the key is never compared
        decorated = []
        for (e0, e1), coeff in self.terms.items():
            decorated.append((e0 + e1, e0, e1, coeff))
        decorated.sort(reverse=True)
        pieces: list[str] = []
        for _, e0, e1, coeff in decorated:
            mono = _monomial_text(var0, var1, e0, e1)
            if coeff < 0:
                pieces.append(" - ")
                coeff = -coeff
            else:
                pieces.append(" + ")
            if not mono:
                pieces.append(str(coeff))
            elif coeff == 1:
                pieces.append(mono)
            else:
                pieces.append(f"{coeff}*{mono}")
        pieces[0] = "-" if pieces[0] == " - " else ""
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"<poly {self}>"


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


def _terms_content(terms: Mapping[Monomial, int]) -> int:
    c = 0
    for coeff in terms.values():
        c = _int_gcd(c, abs(coeff))
    return c


class RationalFunction(Record):
    """Quotient of two integer-coefficient bivariate polynomials, canonical."""

    __slots__ = ("numerator", "denominator")

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
        from .oracle import _canonical_pair  # the general gcd engine; no CLI run calls it

        num, den = _canonical_pair(numerator.terms, denominator.terms)
        variables = numerator.variables
        self._set(MultivariatePolynomial(variables, num), MultivariatePolynomial(variables, den))

    @classmethod
    def _raw(cls, num: MultivariatePolynomial, den: MultivariatePolynomial) -> "RationalFunction":
        """Trusted constructor for pairs already in canonical form."""
        self = object.__new__(cls)
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, variables, value) -> "RationalFunction":
        if isinstance(value, int):
            num, den = int(value), 1
        else:  # a Fraction or a float
            from fractions import Fraction

            frac = Fraction(value)
            num, den = frac.numerator, frac.denominator
        return cls._raw(
            MultivariatePolynomial.constant(variables, num),
            MultivariatePolynomial.constant(variables, den),
        )

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

    _check = MultivariatePolynomial._check

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
        """N^e / D^e is already canonical: N^e and D^e are coprime, so are
        their contents (Gauss's lemma), and lc(D^e) = lc(D)^e > 0, as graded
        lex is a monomial order."""
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return RationalFunction._raw(self.numerator**exponent, self.denominator**exponent)

    def scaled(self, value) -> "RationalFunction":
        return self * RationalFunction.constant(self.variables, value)

    def evaluate(self, point: tuple) -> Fraction:
        den_value = self.denominator.evaluate(point)
        if den_value == 0:
            raise PoleError(f"denominator vanishes at {point}")
        return self.numerator.evaluate(point) / den_value

    # -- comparison / rendering --------------------------------------------

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
