"""Exact skein-module classes of closed singular braids.

The pipeline: parse a braid word with crossings and double points, evaluate
its desingularisations in the Hecke algebra, read its class as a polynomial
in X, Y over Q(q, z) off its Markov-trace functionals by a closed-form
change of variables, then rescale into the closure invariant over Q(s, u).

The package root exports the entry points; every other name is imported
from its module (``singskein.braid``, ``singskein.hecke``, ...).  The
reference engines the tests compare against live in ``singskein.oracle``,
which the command line never imports.
"""

from .braid import parse
from .markov import markov_class
from .skein import skein_class, skein_triple_check

__all__ = ["parse", "markov_class", "skein_class", "skein_triple_check"]

__version__ = "0.1.0"
