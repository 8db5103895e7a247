"""Command-line front end.

Reads one braid word, runs the full pipeline, and prints a report as text
or JSON.  Exit codes: 0 success, 2 parse/validation error, 3 internal
theory violation (a ``--verify`` move changed the class, or the
``--skein-check`` relation failed), 4 size caps exceeded or memory
exhausted (a word inside the caps can still run out of memory).

stdout is byte-identical for identical (input, flags, seed); wall-clock
timing goes to stderr.  ``--moves`` is at most ``HARD_MAX_MOVES`` (10,000).
The moves are generated one at a time and each word is dropped once it is
checked, so the cap does not bound a list of words: it bounds the run's
time, linear in the move count, and the verdict memo, which keeps one
cyclic reduction for each distinct word folded.  A run folds
each distinct (strand count, cyclic reduction) of those words once, the
given word's included, and builds a full class only for the first word of
each new (strand count, writhe) shape; every other word is decided on its
trace components.  A fold of a word on 7 strands or more may go in pieces,
cut at strand indices whose letters sit together; the pieces are a function
of the cyclic reduction, so that key still fixes the computation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from json.encoder import encode_basestring_ascii as _json_string

from . import markov
from .braid import Record, SingularBraidWord, _reduced, component_count, exponent_sum, parse
from .hecke import _decoded
from .markov import HARD_MAX_DEGREE, HARD_MAX_STRANDS, CapExceededError, MarkovClass, check_caps
from .packed import PackedProduct
from .skein import SkeinClass, _class_from_components, _legs, _rendered, _triple_check

__all__ = ["main", "run", "RunReport"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_THEORY = 3
EXIT_CAPS = 4

HARD_MAX_MOVES = 10_000


class RunReport(Record):
    """One run's word, its invariants, its classes and its checks; its
    ``verify`` may be a dict, so it has no hash."""

    __slots__ = (
        "word", "strands", "degree", "writhe", "components",
        "markov", "skein", "elapsed_seconds", "verify",
    )
    __hash__ = None

    def __init__(
        self,
        word: SingularBraidWord,
        strands: int,
        degree: int,
        writhe: int,
        components: int,
        markov: MarkovClass,
        skein: SkeinClass,
        elapsed_seconds: float,
        verify: dict | None = None,
    ):
        self._set(
            word, strands, degree, writhe, components, markov, skein, elapsed_seconds, verify
        )


def _move_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("--moves must be an integer") from exc
    if value < 0:
        raise argparse.ArgumentTypeError("--moves must be >= 0")
    if value > HARD_MAX_MOVES:
        raise argparse.ArgumentTypeError(f"--moves must be at most {HARD_MAX_MOVES} (hard cap)")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singskein",
        description=(
            "Map a singular braid word to the skein-module class of its "
            "closure, with optional self-verification."
        ),
    )
    parser.add_argument(
        "--word",
        required=True,
        help='whitespace-separated letters: s<i> crossing, S<i> inverse, t<i> double point (e.g. "s1 S2 t1")',
    )
    parser.add_argument(
        "--strands",
        type=int,
        default=None,
        help="strand count (default: 1 + largest index used)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="fuzz closure-preserving moves and check the class is unchanged",
    )
    parser.add_argument(
        "--moves", type=_move_count, default=25, help="number of verification moves"
    )
    parser.add_argument("--seed", type=int, default=0, help="verification seed")
    parser.add_argument(
        "--skein-check",
        type=int,
        default=None,
        metavar="I",
        help="also check the skein relation at crossing index I",
    )
    parser.add_argument(
        "--max-degree",
        type=int,
        default=None,
        help=f"lower the double-point cap (hard cap {HARD_MAX_DEGREE})",
    )
    parser.add_argument(
        "--max-strands",
        type=int,
        default=None,
        help=f"lower the strand cap (hard cap {HARD_MAX_STRANDS})",
    )
    return parser


def run(args: argparse.Namespace) -> RunReport:
    word = parse(args.word, args.strands)
    strand_cap = check_caps(word, args.max_degree, args.max_strands)
    start = time.perf_counter()
    # before the fold, so that an out-of-range index is refused first
    legs = None if args.skein_check is None else _legs(word, args.skein_check)
    traces = markov._traces(word)
    factored = markov._factored_from(traces, word)
    coords = markov._class_of(factored)
    skein = _rendered(factored, word.strands, exponent_sum(word))
    verify: dict | None = None
    if args.verify or legs is not None:
        verify = {}
        if args.verify:
            verify.update(_verify_moves(word, traces, skein, strand_cap, args))
        if legs is not None:  # the check folds the legs and shares the word's traces
            check = _triple_check(word, legs, traces)
            verify["skein_check"] = {
                "index": args.skein_check,
                "holds": check.holds,
                "lhs": str(check.lhs),
                "rhs": str(check.rhs),
            }
    elapsed = time.perf_counter() - start
    return RunReport(
        word=word,
        strands=word.strands,
        degree=word.degree,
        writhe=exponent_sum(word),
        components=component_count(word),
        markov=coords,
        skein=skein,
        elapsed_seconds=elapsed,
        verify=verify,
    )


def _verify_moves(
    word: SingularBraidWord,
    traces: list | PackedProduct,
    reference: SkeinClass,
    strand_cap: int,
    args: argparse.Namespace,
) -> dict:
    """Check ``args.moves`` random moves of ``word``, whose traces (from
    ``markov._traces``) are ``traces``, against ``reference``, its
    ``skein_class``; no move takes a word past ``strand_cap`` strands, the
    cap ``check_caps`` checked it against."""
    # The move words need no cap check of their own: every move keeps the
    # degree, and the move stream keeps the strand count within the cap.
    # The moves are those of moves.random_move_sequence, read one at a
    # time, so only the current word is held; the move machinery is
    # imported here, on the first --verify.
    from .moves import _move_stream

    passed = 0
    failures: list[str] = []
    steps = _move_stream(word, args.moves, seed=args.seed, max_strands=strand_cap)
    # A class reads the word's strands, degree and exponent sum, and its
    # traces, which hecke._folded folds from _compact(_reduced(letters)),
    # whole or in the pieces and blocks hecke._split cuts it into, a
    # function of those letters alone; the reduction keeps the degree and
    # the exponent sum.
    # So words with equal (strands, reduction) run the same computation on
    # the same input, and each key's verdict is computed once.  The key is
    # not made rotation-canonical: a rotation folds other letters, and its
    # class is equal only by the theory this run checks.
    verdicts = {(word.strands, _reduced(word.letters)): True}
    # A new key is folded once and decided on its components where it can
    # be.  Moves keep the degree d, and for fixed (n, e, d) the class is
    # components -> numerators -> factored coordinates -> embed(c z^m) u^k,
    # each step injective: the change of variables T0 = wA - zB,
    # T1 = B - zA is invertible, as D = -(z - q)(z + 1) != 0; lowest terms
    # are canonical; the embedding is a field embedding, and z^m and u^k
    # are nonzero.  So within a shape (n, e), equal components (Laurent
    # dicts without zero entries) <=> equal classes, and good maps a shape
    # to the components of a word of it whose class is the reference.  The
    # first word of each new shape, and the next word of a shape whose known
    # word failed, takes the full class, straight from its traces (a product
    # stays undecoded): that keeps the normalisation by n and e under check,
    # which no scaling of components derived here would.  Traces are
    # decoded only to be compared or kept in good.
    good = {(word.strands, exponent_sum(word)): _decoded(traces)}
    for step_number, (move, step_word) in enumerate(steps, start=1):
        key = (step_word.strands, _reduced(step_word.letters))
        verdict = verdicts.get(key)
        if verdict is None:
            # through the module, the seam where the fold is wrapped or
            # replaced, given the reduction the key already holds
            step_traces = markov._folded(step_word, key[1])
            shape = (step_word.strands, exponent_sum(step_word))
            known = good.get(shape)
            if known is not None:
                verdict = _decoded(step_traces) == known
            else:
                verdict = _class_from_components(step_traces, step_word) == reference
                if verdict:
                    good[shape] = _decoded(step_traces)
            verdicts[key] = verdict
        if verdict:
            passed += 1
        else:
            failures.append(f"step {step_number}: {move!r} changed the class")
    return {
        "moves": args.moves,
        "seed": args.seed,
        "passed": passed,
        "failed": len(failures),
        "failures": failures,
    }


def _class_json(cls, key_a: str, key_b: str) -> str:
    """The class's terms as the JSON list ``json.dumps(..., indent=2)``
    writes one level down: an object of both exponents and the coefficient's
    text per term, in the rendering order."""
    terms = [
        f'    {{\n      "{key_a}": {a},\n      "{key_b}": {b},\n'
        f'      "coeff": {_json_string(str(coeff))}\n    }}'
        for (a, b), coeff in cls.sorted_terms()
    ]
    return "[\n" + ",\n".join(terms) + "\n  ]" if terms else "[]"


def render_json(report: RunReport) -> str:
    """The report as ``json.dumps(payload, indent=2)`` writes it: the fixed
    fields written here, and the ``verify`` object, when there is one, by
    ``json.dumps`` one level down."""
    fields = [
        f'"strands": {report.strands}',
        f'"degree": {report.degree}',
        f'"writhe": {report.writhe}',
        f'"components": {report.components}',
        f'"markov_class": {_class_json(report.markov, "x", "y")}',
        f'"skein_class": {_class_json(report.skein, "xhat", "yhat")}',
    ]
    if report.verify is not None:
        fields.append('"verify": ' + json.dumps(report.verify, indent=2).replace("\n", "\n  "))
    return "{\n  " + ",\n  ".join(fields) + "\n}"


def render_text(report: RunReport) -> str:
    lines = [
        f"word:         {report.word.display() or '(empty)'}",
        f"strands:      {report.strands}",
        f"degree:       {report.degree}",
        f"writhe:       {report.writhe}",
        f"components:   {report.components}",
        f"markov_class: {report.markov}",
        f"skein_class:  {report.skein}",
    ]
    verify = report.verify or {}
    if "moves" in verify:
        lines.append(
            "verify:       {moves} moves, seed {seed}, {passed} passed, {failed} failed".format(
                **verify
            )
        )
        lines.extend(f"  {failure}" for failure in verify["failures"])
    if "skein_check" in verify:
        check = verify["skein_check"]
        state = "holds" if check["holds"] else "FAILS"
        lines.append(f"skein_check:  index {check['index']}, {state}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = run(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPS
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_CAPS
    except ValueError as exc:  # the braid errors subclass it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    print(render_json(report) if args.format == "json" else render_text(report))
    print(f"elapsed: {report.elapsed_seconds:.3f}s", file=sys.stderr)

    verify = report.verify or {}
    if verify.get("failed"):
        return EXIT_THEORY
    check = verify.get("skein_check")
    if check is not None and not check["holds"]:
        return EXIT_THEORY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
