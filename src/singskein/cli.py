"""Command-line front end.

Reads one braid word, runs the full pipeline, and prints a report as text
or JSON.  Exit codes: 0 success, 2 parse/validation error, 3 internal
theory violation (a ``--verify`` move changed the class, or the
``--skein-check`` relation failed), 4 size caps exceeded or memory
exhausted (a word inside the caps can still run out of memory).

stdout is byte-identical for identical (input, flags, seed); wall-clock
timing goes to stderr.  ``--moves`` is at most ``HARD_MAX_MOVES`` (10,000).
This module parses, runs the pipeline once on the given word and renders.
``--verify`` runs in ``singskein.moves`` (``verify_moves``), which holds
the moves' verdict memo and its rules; it is loaded on the first
``--verify`` and handed the word's cyclic reduction, traces and skein
class.  Only the given word's caps are checked, right after parsing
(``markov``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from json.encoder import encode_basestring_ascii as _json_string

from . import markov
from .braid import Record, _reduced, component_count, exponent_sum, parse
from .markov import HARD_MAX_DEGREE, HARD_MAX_STRANDS, CapExceededError, check_caps
from .skein import _check_numerators, _legs, _rendered, _sides

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
        "--moves",
        type=_move_count,
        default=25,
        help="number of verification moves (read only with --verify)",
    )
    parser.add_argument("--seed", type=int, default=0, help="verification seed (read only with --verify)")
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
    # reduced once: the fold and the --verify verdict key share it
    reduced = _reduced(word.letters)
    traces = markov._folded(word, reduced)
    factored = markov._factored_from(traces, word)
    coords = markov._class_of(factored)
    skein = _rendered(factored, word.strands, exponent_sum(word))
    verify: dict | None = None
    if args.verify or legs is not None:
        verify = {}
        if args.verify:  # the move machinery is imported here, on the first --verify
            from .moves import verify_moves

            verify.update(verify_moves(word, reduced, traces, skein, strand_cap, args.moves, args.seed))
        if legs is not None:  # the check folds the legs and shares the word's traces
            lhs, rhs = _sides(word, *_check_numerators(word, legs, traces))
            verify["skein_check"] = {
                "index": args.skein_check,
                "holds": lhs == rhs,
                "lhs": str(lhs),
                "rhs": str(rhs),
            }
    elapsed = time.perf_counter() - start
    return RunReport(
        word, word.strands, word.degree, exponent_sum(word), component_count(word), coords, skein, elapsed, verify
    )


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
