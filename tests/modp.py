"""An independent fold of a singular braid word over GF(p), p = 2^61 - 1;
standard library only.

    PYTHONPATH=src python3 tests/battery.py modp    # the battery's step

Evaluation at a point is a ring homomorphism, so the trace components
C_k(q, z) of ``oracle.trace_components`` can be checked at a point
(q0, z0): sum_k C_k(q0, z0) rho0^k must be the trace of the word's image
in the Hecke algebra at q0, with each double point t_i sent to
1 + rho0 T_i (the deleted copy plus the copy resolved to T_i), and that
trace taken at z0.  A wrong component passes at a random point with
probability at most its degree over p (Schwartz-Zippel).

The fold here shares nothing with the production kernel: the word is
folded as given, on the strands given, with no cyclic reduction, no
compaction, no cut into pieces, no mirror and no packed ints.  It parses
the word itself.  A permutation is its tuple of images (w(1), ..., w(n)),
and the Hecke rule is written out: T_w T_i = T_{w s_i} when w(i) < w(i+1),
and (q - 1) T_w + q T_{w s_i} otherwise; T_i^-1 = q^-1 T_i + q^-1 - 1.
The trace is the coset recursion: for m = n down to 2, a term T_w with
j = w(m) < m is T_{s_j ... s_{m-1}} T_c, c = (s_j ... s_{m-1})^-1 w fixing
m, so tr(T_w) = z tr(T_c T_j ... T_{m-2}) by the Markov property and
cyclicity.  The c of each j join one sum just before its step s_j (Horner
in j), and the terms with w(m) = m stay as they are.

Two more checks read the classes (``class_terms``) at points.  Check 2:
the class over Q(q, z) has trace components sum_k C_k T0^(d-k) T1^k =
sum_ab x_ab A^a B^b with A = T0 + z T1 and B = z T0 + w T1,
w = (q - 1) z + q (``singskein.markov``), so at T0 = 1, T1 = rho

    sum_ab x_ab(q, z) (1 + z rho)^a (z + w rho)^b

must be the fold's value at (q, z, rho) (``check``).  The skein class:
each coefficient of Xhat^a Yhat^b at (s, u) must be
x_ab(s^2, z) z^m u^k with z = (s^2 - 1)/(1 - s^2 u^2),
m = a + b - n + 1 and k = a + e - n + 1, n the strands and e the writhe
(``skein_check``).  Each check draws its point again where a denominator
vanishes there.
"""

P = 2**61 - 1


def parse_word(text):
    """The letters of a word such as ``"s1 S2 t3"``, as (kind, index)
    pairs, kind one of "s", "S" and "t"."""
    letters = [(token[0], int(token[1:])) for token in text.split()]
    if not all(kind in "sSt" and index >= 1 for kind, index in letters):
        raise ValueError(f"not a singular braid word: {text!r}")
    return letters


def _combine(a, x, b, y):
    """a x + b y mod P, elements as {image: coefficient}, no 0 stored."""
    out = {w: a * c for w, c in x.items()}
    for w, c in y.items():
        out[w] = out.get(w, 0) + b * c
    return {w: c % P for w, c in out.items() if c % P}


def _times_generator(x, i, q):
    """x T_i mod P."""
    out = {}
    for w, c in x.items():
        ws = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]
        if w[i - 1] < w[i]:
            out[ws] = out.get(ws, 0) + c
        else:
            out[w] = out.get(w, 0) + (q - 1) * c
            out[ws] = out.get(ws, 0) + q * c
    return {w: c % P for w, c in out.items() if c % P}


def fold(letters, strands, q, rho):
    """The image of the word in the Hecke algebra on ``strands`` strands
    at q, each double point sent to 1 + rho T_i."""
    q_inv = pow(q, -1, P)
    x = {tuple(range(1, strands + 1)): 1}
    for kind, i in letters:
        y = _times_generator(x, i, q)
        if kind == "s":
            x = y
        elif kind == "S":
            x = _combine(q_inv, y, q_inv - 1, x)
        else:
            x = _combine(1, x, rho, y)
    return x


def trace(x, strands, q, z):
    """tr(x) at (q, z) by the coset recursion (module docstring)."""
    for m in range(strands, 1, -1):
        rest, groups = {}, {}
        for w, c in x.items():
            j = w[m - 1]
            if j == m:
                rest[w[:-1]] = c
            else:
                groups.setdefault(j, {})[tuple(v - 1 if v > j else v for v in w[:-1])] = c
        acc = {}
        for i in range(min(groups, default=m), m):
            acc = _combine(1, acc, 1, groups.get(i, {}))
            if i < m - 1:
                acc = _times_generator(acc, i, q)
        x = _combine(1, rest, z, acc)
    return x.get((1,), 0)


def components_at(comps, q, z, rho):
    """sum_k C_k(q, z) rho^k mod P, C_k an integer Laurent dict over
    (q-exponent, z-exponent)."""
    total = 0
    for comp in reversed(comps):
        value = sum(c * pow(q, e, P) * pow(z, f, P) for (e, f), c in comp.items())
        total = (total * rho + value) % P
    return total


def point(rng):
    """A point (q, z, rho) of GF(P), q invertible."""
    return rng.randrange(1, P), rng.randrange(P), rng.randrange(P)


def value(text, strands, q, z, rho):
    """The trace of the word's fold at (q, z, rho)."""
    return trace(fold(parse_word(text), strands, q, rho), strands, q, z)


def class_terms(cls):
    """A class's coefficients as {(a, b): (numerator, denominator)}, each a
    {(exponent, exponent): int} dict: what this module reads of a
    ``ClassPolynomial``."""
    return {ab: (c.numerator.terms, c.denominator.terms) for ab, c in cls.coeffs.items()}


def quotient_at(coeff, x, y):
    """A (numerator, denominator) pair of term dicts at (x, y) mod P, or
    None where the denominator vanishes."""
    num, den = ((sum(c * pow(x, i, P) * pow(y, j, P) for (i, j), c in terms.items()) % P) for terms in coeff)
    return num * pow(den, -1, P) % P if den else None


def class_at(coeffs, q, z, rho):
    """sum_ab x_ab(q, z) (1 + z rho)^a (z + w rho)^b mod P for the class
    ``coeffs`` (``class_terms``), or None where a coefficient's denominator
    vanishes at (q, z)."""
    w = ((q - 1) * z + q) % P
    a_at, b_at = (1 + z * rho) % P, (z + w * rho) % P
    total = 0
    for (a, b), coeff in coeffs.items():
        x = quotient_at(coeff, q, z)
        if x is None:
            return None
        total += x * pow(a_at, a, P) * pow(b_at, b, P)
    return total % P


def check(text, strands, comps, rng, coeffs=None):
    """True iff the components ``comps`` of the word agree with its fold
    mod P at a point drawn from ``rng``, and so does its class over
    Q(q, z), ``coeffs`` (``class_terms``), when it is given (check 2); the
    point is drawn again while a coefficient's denominator vanishes."""
    q, z, rho = point(rng)
    if coeffs is not None:
        while (at := class_at(coeffs, q, z, rho)) is None:
            q, z, rho = point(rng)
    folded = value(text, strands, q, z, rho)
    return components_at(comps, q, z, rho) == folded and (coeffs is None or at == folded)


def skein_at(coeffs, strands, writhe, s, u):
    """{(a, b): x_ab(s^2, z) z^m u^k mod P} for the class over Q(q, z)
    ``coeffs`` (``class_terms``) of a word on ``strands`` strands of writhe
    ``writhe``, z = (s^2 - 1)/(1 - s^2 u^2) (module docstring), or None
    where 1 - s^2 u^2, z or a coefficient's denominator vanishes."""
    s2 = s * s % P
    cut = (1 - s2 * u * u) % P
    z = (s2 - 1) * pow(cut, -1, P) % P if cut else 0
    if not z:
        return None
    out = {}
    for (a, b), coeff in coeffs.items():
        x = quotient_at(coeff, s2, z)
        if x is None:
            return None
        out[a, b] = x * pow(z, a + b - strands + 1, P) * pow(u, a + writhe - strands + 1, P) % P
    return out


def skein_check(coeffs, skein_coeffs, strands, writhe, rng):
    """True iff the skein class ``skein_coeffs`` has the coefficients
    ``skein_at`` reads off the class over Q(q, z) ``coeffs`` (both
    ``class_terms``) at a point (s, u) drawn from ``rng``, u != 0; the point
    is drawn again while a denominator vanishes there."""
    while True:
        s, u = rng.randrange(1, P), rng.randrange(1, P)
        expected = skein_at(coeffs, strands, writhe, s, u)
        found = {ab: quotient_at(coeff, s, u) for ab, coeff in skein_coeffs.items()}
        if expected is not None and None not in found.values():
            return found == expected
