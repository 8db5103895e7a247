"""Exact skein-module classes of closed singular braids.

The pipeline: parse a braid word with crossings and double points, evaluate
its desingularisations in the Hecke algebra, read its class as a polynomial
in X, Y over Q(q, z) off its Markov-trace functionals by a closed-form
change of variables, then rescale into the closure invariant over Q(s, u).
"""

from .braid import (
    Generator,
    MarkovMove,
    SingularBraidWord,
    apply_move,
    exponent_sum,
    parse,
    random_move_sequence,
    shuffle_braid,
    stack,
    underlying_permutation,
    with_strands,
)
from .coeff import (
    QZ,
    SU,
    MultivariatePolynomial,
    RationalFunction,
    embed_qz_to_su,
)
from .hecke import (
    HeckeElement,
    evaluate_word,
    mul_by_generator,
    multiply,
    ocneanu_trace,
    permutation_trace,
)
from .markov import (
    FormalWordSum,
    MarkovClass,
    TraceVector,
    basis_word,
    class_product,
    desing_delete,
    desing_resolve,
    g0_apply,
    g1_apply,
    markov_class,
    pairing_matrix,
    subset_expansion,
    trace_functional,
    trace_vector,
)
from .permutations import Permutation
from .skein import (
    SkeinClass,
    closure_product,
    disjoint_union_coefficient,
    skein_class,
    skein_triple_check,
)

__version__ = "0.1.0"
