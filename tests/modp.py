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


def check(text, strands, comps, rng):
    """True iff the components ``comps`` of the word agree with its fold
    mod P at a point drawn from ``rng``."""
    q, z, rho = point(rng)
    return components_at(comps, q, z, rho) == value(text, strands, q, z, rho)

