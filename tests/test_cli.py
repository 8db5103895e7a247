"""Front-end behaviour: formats, determinism, exit codes."""

import ast
import functools
import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import singskein
from singskein import cli, hecke, markov, skein
from singskein.braid import SIGMA, SIGMA_INV, Generator, SingularBraidWord, _reduced, parse
from singskein.coeff import QZ, RationalFunction
from singskein.cli import main
from singskein.moves import random_move_sequence, verify_moves
from singskein.packed import PackedProduct, _decoded
from singskein.skein import skein_class, skein_triple_check

import line_count
from battery import recomputed_verify, seam_spy
from words import crossing_words

TRUE_FOLD = markov._folded


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_json_single_double_point(capsys):
    code, out, _ = invoke(capsys, "--word", "t1", "--strands", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["strands"] == 2
    assert payload["degree"] == 1
    assert payload["writhe"] == 0
    assert payload["components"] == 1
    assert payload["skein_class"] == [{"xhat": 1, "yhat": 0, "coeff": "1"}]
    assert payload["markov_class"] == [{"x": 1, "y": 0, "coeff": "1"}]


def test_empty_word_is_unknot(capsys):
    code, out, _ = invoke(capsys, "--word", "", "--strands", "1")
    assert code == 0
    assert "skein_class:  1" in out
    assert "components:   1" in out


def test_verify_all_moves_pass(capsys):
    code, out, _ = invoke(
        capsys,
        "--word",
        "t1 s1",
        "--strands",
        "2",
        "--verify",
        "--seed",
        "7",
        "--moves",
        "50",
    )
    assert code == 0
    assert "50 passed, 0 failed" in out


def test_skein_check_flag(capsys):
    code, out, _ = invoke(capsys, "--word", "s1 s1", "--strands", "2", "--skein-check", "1")
    assert code == 0
    assert "skein_check:  index 1, holds" in out


def test_skein_check_json_payload(capsys):
    code, out, _ = invoke(
        capsys,
        "--word",
        "t1",
        "--strands",
        "2",
        "--format",
        "json",
        "--skein-check",
        "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verify"]["skein_check"]["holds"] is True


def test_stdout_deterministic(capsys):
    args = ("--word", "t1 S2 s1", "--format", "json", "--verify", "--seed", "3")
    _, first, _ = invoke(capsys, *args)
    _, second, _ = invoke(capsys, *args)
    assert first == second


def test_json_coefficients_rerender_identically(capsys):
    _, out, _ = invoke(capsys, "--word", "t1 S1 S1", "--strands", "2", "--format", "json")
    payload = json.loads(out)
    _, again, _ = invoke(capsys, "--word", "t1 S1 S1", "--strands", "2", "--format", "json")
    assert json.loads(again) == payload


def test_timing_goes_to_stderr_only(capsys):
    _, out, err = invoke(capsys, "--word", "t1", "--strands", "2")
    assert "elapsed" not in out
    assert "elapsed" in err


def doubled(traces) -> list:
    """Trace components whose class is twice those of these traces, Laurent
    dicts or their product (a move word may split): the class is linear in
    them."""
    return [{expo: 2 * v for expo, v in comp.items()} for comp in _decoded(traces)]


def skew_all_but(start: SingularBraidWord, monkeypatch) -> None:
    """Give every folded word but ``start`` doubled components, so a class
    that a run builds, or that a comparison of components stands for, is
    wrong for each of them."""

    def skewed_fold(word, reduced=None):
        traces = TRUE_FOLD(word, reduced)
        return traces if word == start else doubled(traces)

    monkeypatch.setattr(markov, "_folded", skewed_fold)


def test_verify_failure_exits_3(capsys, monkeypatch):
    skew_all_but(parse("t1 s1", 2), monkeypatch)
    code, out, _ = invoke(
        capsys,
        "--word",
        "t1 s1",
        "--strands",
        "2",
        "--format",
        "json",
        "--verify",
        "--moves",
        "5",
    )
    assert code == 3
    assert json.loads(out)["verify"]["failed"] > 0


def test_text_report_lists_each_failure(capsys, monkeypatch):
    # when both checks fail, the text report gives the verify line, then
    # each failure of the same run's JSON report, in order, indented by two
    # spaces, and the skein check's verdict last
    skew_all_but(parse("t1 s1", 2), monkeypatch)
    argv = ("--word", "t1 s1", "--strands", "2", "--verify", "--moves", "5", "--skein-check", "1")
    code, out, _ = invoke(capsys, *argv)
    assert code == 3
    failures = json.loads(invoke(capsys, *argv, "--format", "json")[1])["verify"]["failures"]
    assert len(failures) == 5
    lines = out.splitlines()
    at = lines.index("verify:       5 moves, seed 0, 0 passed, 5 failed")
    assert lines[at + 1:] == ["  " + failure for failure in failures] + ["skein_check:  index 1, FAILS"]


SMALL_WORDS = crossing_words(strands=(1, 6), crossings=8, double_points=3)


def reduction_skewed(word, reduced=None):
    """The trace components, doubled for about half of the (strands, cyclic
    reduction) pairs, picked by a digest of the pair: wrong, but a function
    of the pair, so a run that folds each pair once and decides a word on
    its components must still report exactly the failures of classing
    every word anew from the same skewed components."""
    traces = TRUE_FOLD(word, reduced)
    key = repr((word.strands, _reduced(word.letters))).encode()
    return doubled(traces) if hashlib.sha256(key).digest()[0] % 2 else traces


@settings(max_examples=50)
@given(SMALL_WORDS, st.integers(0, 2**16), st.integers(0, 12))
def test_verify_matches_recomputing_every_class(word, seed, moves):
    for fold in (TRUE_FOLD, reduction_skewed):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(markov, "_folded", fold)
            verify = verify_moves(
                word, _reduced(word.letters), markov._folded(word), skein_class(word),
                markov.HARD_MAX_STRANDS, moves, seed,
            )
            assert verify == recomputed_verify(word, moves, seed, cli.HARD_MAX_STRANDS)


def test_verify_classes_each_new_reduction_once(monkeypatch):
    # a scripted move sequence through cli.run: each new (strands, cyclic
    # reduction) is folded once, the given word's by cli.run itself, and a
    # full class is built only for the first word of a new (strands,
    # writhe) shape, or for the next one of a shape whose first word failed
    start = parse("t1 s1 s2", 3)
    split = parse("t1 s1 s1", 3)  # the given shape, other components: fails
    stabilised = parse("t1 s1 s2 s3", 4)  # a new shape: full class, passes
    widened = parse("t1 s1 s2", 4)  # a new shape: full class, fails
    widened_rotated = parse("s2 t1 s1", 4)  # no good word of the shape: full class
    script = [
        ("insert", parse("t1 s1 S1 s1 s2", 3)),  # reduces to the given word
        ("split", split),
        ("rotate", parse("s2 t1 s1", 3)),  # the given shape and components: passes
        ("stabilise", stabilised),
        ("rotate stabilised", parse("s3 t1 s1 s2", 4)),  # decided on components
        ("widen", widened),
        ("rotate widened", widened_rotated),
        ("split", split),  # seen: neither folded nor classed
    ]
    monkeypatch.setattr("singskein.moves.random_move_sequence", lambda *args, **kwargs: iter(script))
    args = cli.build_parser().parse_args(["--word", "t1 s1 s2", "--verify", "--moves", "8"])
    with seam_spy() as (folded, classed):
        verify = cli.run(args).verify
    assert verify == {
        "moves": 8,
        "seed": 0,
        "passed": 4,
        "failed": 4,
        "failures": [
            "step 2: 'split' changed the class",
            "step 6: 'widen' changed the class",
            "step 7: 'rotate widened' changed the class",
            "step 8: 'split' changed the class",
        ],
    }
    assert folded == [start] + [word for _, word in script[1:7]]
    assert classed == [stabilised, widened, widened_rotated]
    # the verdicts are those of classing every word anew
    reference = skein_class(start)
    assert [skein_class(word) == reference for _, word in script] == [
        True, False, True, True, True, False, False, False
    ]


def test_every_fold_passes_the_seam_once_per_word():
    # a word cut into pieces, blocks among them: the class functions, the
    # skein check and cli.run --verify fold each of their words through
    # markov._folded, once per word (per distinct (strands, cyclic
    # reduction) for --verify), and no piece is folded outside that seam
    word = parse("t1 s1 s2 s3 s2 s3 S4 s5 s6 s5 s6", 7)
    assert isinstance(TRUE_FOLD(word), PackedProduct)
    open_folds, pieces = [], []
    true_piece_fold = hecke._fold

    def piece_fold(*piece):
        assert open_folds, "a piece was folded outside markov._folded"
        pieces.append(piece)
        return true_piece_fold(*piece)

    legs = [SingularBraidWord(7, word.letters + (Generator(kind, 4),)) for kind in (SIGMA, SIGMA_INV)]
    args = cli.build_parser().parse_args(["--word", word.display(), "--verify", "--moves", "20", "--seed", "5"])
    with seam_spy() as (folded, _), pytest.MonkeyPatch.context() as patch:
        recorded_fold = markov._folded

        def open_fold(w, reduced=None):
            open_folds.append(w)
            try:
                return recorded_fold(w, reduced)
            finally:
                open_folds.pop()

        patch.setattr(markov, "_folded", open_fold)
        patch.setattr(hecke, "_fold", piece_fold)
        for call, expected in (
            (lambda: markov.markov_class(word), [word]),
            (lambda: skein_class(word), [word]),
            (lambda: skein_triple_check(word, 4), [word] + legs),
        ):
            folded.clear()
            call()
            assert folded == expected
        folded.clear()
        assert cli.run(args).verify["failed"] == 0
    moved = [step for _, step in random_move_sequence(word, 20, seed=5, max_strands=cli.HARD_MAX_STRANDS)]
    keys = [(w.strands, _reduced(w.letters)) for w in [word] + moved]
    assert [(w.strands, _reduced(w.letters)) for w in folded] == list(dict.fromkeys(keys))
    assert len(pieces) > len(folded)


def test_skein_check_shares_the_given_words_fold():
    # cli.run folds the given word once and hands its traces to the skein
    # check, which folds only w s_i and w S_i; --verify adds its new move
    # words, and an out-of-range index folds nothing
    word = parse("s1 S2 t1 s2")
    legs = [SingularBraidWord(3, word.letters + (Generator(kind, 1),)) for kind in (SIGMA, SIGMA_INV)]
    for flags, folds in (((), 3), (("--verify", "--moves", "5"), 6)):
        argv = ["--word", "s1 S2 t1 s2", "--skein-check", "1", *flags]
        with seam_spy() as (folded, _):
            assert cli.run(cli.build_parser().parse_args(argv)).verify["skein_check"]["holds"]
        assert len(folded) == folds
        assert folded.count(word) == 1 and all(folded.count(leg) == 1 for leg in legs)
    with seam_spy() as (folded, _), pytest.raises(ValueError, match="crossing index 3 out of range"):
        cli.run(cli.build_parser().parse_args(["--word", "s1 S2 t1 s2", "--skein-check", "3"]))
    assert folded == []


def _calls(function, call) -> int:
    """How many times ``call()`` enters ``function``, counted on its code
    object by ``sys.setprofile``, so that every module's binding of the name
    is seen."""
    code, count = function.__code__, 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is code:
            count += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return count


def _entries(function, argv) -> int:
    """How many times ``cli.run`` on ``argv`` enters ``function`` (``_calls``)."""
    args = cli.build_parser().parse_args(argv)
    return _calls(function, lambda: cli.run(args))


def test_each_word_is_checked_against_the_caps_once():
    # check_caps runs once, where a word enters: once per cli.run, whatever
    # it folds after parsing, and once per skein_triple_check and
    # markov_class call; the skein check's legs and the move words keep the
    # degree and the strand cap, so nothing checks them again
    argv = ["--word", "s1 S2 t1 s2"]
    for flags in ([], ["--skein-check", "1"], ["--skein-check", "1", "--verify", "--moves", "5"]):
        assert _entries(markov.check_caps, argv + flags) == 1, flags
    word = parse("s1 S2 t1 s2")
    assert _calls(markov.check_caps, lambda: skein_triple_check(word, 1)) == 1
    assert _calls(markov.check_caps, lambda: markov.markov_class(word)) == 1
    # skein_triple_check refuses a word over the caps before any fold, and
    # an out-of-range index before the caps
    over = parse(" ".join(["t1"] * (markov.HARD_MAX_DEGREE + 1)), 2)
    with seam_spy() as (folded, _):
        with pytest.raises(markov.CapExceededError, match="double points"):
            skein_triple_check(over, 1)
        with pytest.raises(ValueError, match="crossing index 2 out of range") as refused:
            skein_triple_check(over, 2)
    assert refused.type is ValueError
    assert folded == []


def test_skein_check_renders_only_its_two_sides():
    # the word's class has 5 coefficients, and lhs and rhs 5 each; the three
    # leg classes that skein_triple_check also builds (15 more) are never
    # printed, so the CLI does not render them
    from singskein import skein

    word = ["--word", "t1 s2 S1 t2 s3 t1 S2 t3", "--strands", "5"]
    assert _entries(skein._closure_coefficient, word) == 5
    assert _entries(skein._closure_coefficient, word + ["--skein-check", "2"]) == 15


def test_the_given_word_is_reduced_once():
    # the verdict key's cyclic reduction is the one the fold is given
    from singskein import braid

    assert _entries(braid._reduced, ["--word", "s1 S2 t1 s2", "--verify", "--moves", "0"]) == 1


def test_verify_and_skein_check_build_no_qz_fractions(capsys, monkeypatch):
    # only the given word's (q, z) class is shown, so the move and skein-check
    # classes must go from the fold straight to (s, u)
    built = []
    raw, init = RationalFunction._raw.__func__, RationalFunction.__init__

    def counting_raw(cls, num, den):
        built.append(num.variables)
        return raw(cls, num, den)

    def counting_init(self, num, den=None):
        built.append(num.variables)
        init(self, num, den)

    monkeypatch.setattr(RationalFunction, "_raw", classmethod(counting_raw))
    monkeypatch.setattr(RationalFunction, "__init__", counting_init)
    word = ["--word", "t1 s2 S1 t2 s1", "--strands", "3"]
    assert invoke(capsys, *word)[0] == 0
    plain = built.count(QZ)
    built.clear()
    assert invoke(capsys, *word, "--verify", "--moves", "9", "--skein-check", "1")[0] == 0
    assert built.count(QZ) == plain > 0
    assert built.count(("s", "u")) > 0


def holds(message):
    return lambda out, err: message in err


def only(message):
    return lambda out, err: out == "" and err.splitlines() == [message]


# (argv, exit code, stderr check) of what is refused before any fold:
# --moves by argparse, the skein-check index by skein._legs and the caps by
# markov.check_caps; a cap flag out of range prints its one error line only
T1 = ["--word", "t1", "--strands", "2"]
REFUSALS = {
    "negative-moves": (T1 + ["--verify", "--moves", "-1"], 2, holds("--moves must be >= 0")),
    "moves-above-hard-cap": (T1 + ["--verify", "--moves", "10001"], 2, holds("--moves must be at most 10000 (hard cap)")),
    "skein-check-index": (T1 + ["--skein-check", "5"], 2, holds("crossing index 5 out of range for 2 strands")),
    "lowered-degree-cap": (["--word", "t1 t1", "--strands", "2", "--max-degree", "1"], 4, holds("word has 2 double points, cap is 1")),
    "max-degree-99": (["--word", "t1", "--max-degree", "99"], 2, only("error: degree cap must lie in 1..8")),
    "max-degree-0": (["--word", "t1", "--max-degree", "0"], 2, only("error: degree cap must lie in 1..8")),
    "max-strands-13": (["--word", "t1", "--max-strands", "13"], 2, only("error: strand cap must lie in 1..12")),
    "max-strands-0": (["--word", "t1", "--max-strands", "0"], 2, only("error: strand cap must lie in 1..12")),
}


@pytest.mark.parametrize("argv, code, check", REFUSALS.values(), ids=REFUSALS)
def test_refused_before_any_fold(argv, code, check, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a word was folded before its flags were checked")

    monkeypatch.setattr(markov, "_folded", unreachable)
    try:
        exit_code = main(argv)
    except SystemExit as exc:  # argparse's refusals
        exit_code = exc.code
    out, err = capsys.readouterr()
    assert exit_code == code
    assert check(out, err), err


def test_moves_at_the_hard_cap_parse():
    assert cli.HARD_MAX_MOVES == 10_000
    args = cli.build_parser().parse_args(["--word", "t1", "--verify", "--moves", "10000"])
    assert args.moves == 10_000


def test_verify_keeps_move_words_within_the_strand_cap():
    # every word --verify folds, the given one's included, has at most the
    # strands --max-strands allows; at the hard cap this stream goes past it
    def strands_folded(*flags):
        argv = ["--word", "t1 s1 s2", "--verify", "--moves", "40", "--seed", "1", *flags]
        with seam_spy() as (folded, _):
            report = cli.run(cli.build_parser().parse_args(argv))
        assert report.verify["passed"] == 40
        return [word.strands for word in folded]

    assert max(strands_folded()) > 5
    assert max(strands_folded("--max-strands", "5")) == 5


def test_syntax_error_exits_2(capsys):
    code, _, err = invoke(capsys, "--word", "s1 x9")
    assert code == 2
    assert "bad token" in err


def test_index_error_exits_2(capsys):
    code, _, err = invoke(capsys, "--word", "s3", "--strands", "2")
    assert code == 2


def test_cap_exceeded_exits_4(capsys):
    word = " ".join(["t1"] * 9)
    code, _, err = invoke(capsys, "--word", word, "--strands", "2")
    assert code == 4
    assert "double points" in err


def test_memory_exhausted_exits_4_with_one_error_line(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(markov, "_folded", exhausted)
    code, out, err = invoke(capsys, "--word", "t1", "--strands", "2")
    assert code == 4
    assert out == ""
    assert err.splitlines() == ["error: out of memory"]


def test_strands_inferred(capsys):
    code, out, _ = invoke(capsys, "--word", "s1 S2 t1")
    assert code == 0
    assert "strands:      3" in out


# The reach guard's CLI calls and their exit codes: text and JSON, --verify,
# --skein-check and a syntax error, the runs without --verify first.  The
# second --verify word is cut into pieces, blocks among them, so its fold is
# a product, which --verify decodes
_WORD = ["--word", "s1 S2 t1 s2 t2"]
_SPLIT = ["--word", "t1 s1 s2 s3 s2 s3 S4 s5 s6 s5 s6"]
_CORPUS = [
    (_WORD, 0),
    (_WORD + ["--skein-check", "1"], 0),
    (["--word", "s1 x9"], 2),
    (_WORD + ["--verify", "--moves", "9"], 0),
    (_SPLIT + ["--format", "json", "--verify", "--moves", "20", "--seed", "5", "--skein-check", "4"], 0),
]


@functools.lru_cache(maxsize=None)
def _cli_run_calls() -> dict:
    """What a fresh interpreter runs, under ``sys.setprofile``, over the
    import, the ``main`` calls of ``_CORPUS`` and one call of each public
    entry point: "calls", {module file: {function name: calls}}; "entered",
    {module file: the first lines of the functions called}; "loaded", the
    singskein modules imported, by file; and "modules", every module in
    ``sys.modules`` after the import ("import"), after the runs without
    ``--verify`` ("unverified") and at the end ("end").  Module and class
    bodies, which have no CO_OPTIMIZED flag (0x1, read as a number so that
    the probe loads no ``inspect``), are left out."""
    package = os.path.dirname(singskein.__file__)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
    probe = f"""if True:
        import collections, contextlib, io, json, os, sys
        calls = collections.defaultdict(collections.Counter)
        entered = collections.defaultdict(set)
        def count(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_flags & 1:
                head, tail = os.path.split(code.co_filename)
                if head == {package!r}:
                    calls[tail][code.co_name] += 1
                    entered[tail].add(code.co_firstlineno)
        sys.setprofile(count)
        import singskein.cli
        modules = {{"import": sorted(sys.modules)}}
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv, exit_code in {_CORPUS!r}:
                if "--verify" in argv and "unverified" not in modules:
                    modules["unverified"] = sorted(sys.modules)
                assert singskein.cli.main(argv) == exit_code, argv
        word = singskein.parse("t1 s1", 2)
        singskein.markov_class(word)
        singskein.skein_class(word)
        singskein.skein_triple_check(word, 1)
        sys.setprofile(None)
        modules["end"] = sorted(sys.modules)
        loaded = [
            name.partition(".")[2] or "__init__" for name in sys.modules if name.split(".")[0] == "singskein"
        ]
        print(json.dumps({{
            "calls": calls,
            "entered": {{tail: sorted(lines) for tail, lines in entered.items()}},
            "loaded": sorted(name + ".py" for name in loaded),
            "modules": modules,
        }}))
    """
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_cli_import_leaves_the_linalg_oracle_out():
    # the CLI path loads no dataclass machinery, no fractions, no oracle
    # code (linalg and singskein.oracle serve the tests) and no
    # singskein.permutations (braid counts components on its strand
    # table): checked in the reach guard's fresh interpreter after the
    # import, after the runs without --verify and at the end.  The move
    # machinery (singskein.moves) waits for --verify: neither the import
    # nor the runs without it load it
    banned = {
        "dataclasses", "inspect", "fractions", "decimal",
        "singskein.linalg", "singskein.oracle", "singskein.permutations",
    }
    modules = _cli_run_calls()["modules"]
    for when in ("import", "unverified"):
        assert (banned | {"singskein.moves"}) & set(modules[when]) == set(), when
    assert banned & set(modules["end"]) == set()
    assert "singskein.moves" in modules["end"]


def _calls_in_cli_runs(module_file: str) -> set:
    """Names of the functions of this singskein module file that the CLI
    runs of ``_cli_run_calls`` call."""
    return set(_cli_run_calls()["calls"].get(module_file, ()))


def _functions(path) -> dict:
    """{dotted name: first line} of every function a module defines, methods
    and nested functions included (``braid._reduced.last``); the first line
    is the first decorator's, as the function's code object has it."""
    found = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[prefix + child.name] = min([child.lineno] + [d.lineno for d in child.decorator_list])
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text()), f"{path.stem}.")
    return found


_ARITHMETIC = (
    "value arithmetic that the tests and the oracle reach through operators, classmethods "
    "and methods of the production value classes; a forwarder serves module names, not methods"
)
_REPR = "a repr: --verify failure lines and test messages use it, and no corpus run fails"

# every production function that no run of _CORPUS and no public entry point
# enters, with the reason it stays in production
_UNREACHED = {
    **dict.fromkeys([
        "coeff._monomial_key",
        "coeff._summed",
        "coeff._convolved",
        "coeff._terms_content",
        "coeff._times_monomial",
        *(f"coeff.MultivariatePolynomial.{name}" for name in (
            "__init__", "zero", "one", "constant", "variable", "monomial", "degree_in",
            "total_degree", "leading_monomial", "leading_coefficient", "_check", "__add__",
            "__sub__", "__neg__", "__mul__", "__pow__", "scaled", "evaluate", "__hash__",
        )),
        *(f"coeff.RationalFunction.{name}" for name in (
            "__init__", "constant", "zero", "one", "coordinate", "from_laurent_terms", "is_one",
            "__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "inverse", "__pow__",
            "scaled", "evaluate",
        )),
        *(f"markov.ClassPolynomial.{name}" for name in (
            "zero", "constant", "monomial", "homogeneous_degree", "add", "scaled",
            "__sub__", "multiply", "__hash__",
        )),
    ], _ARITHMETIC),
    **dict.fromkeys([
        "braid.Record.__repr__",
        "braid.Generator.__repr__",
        "braid.SingularBraidWord.__repr__",
        "coeff.MultivariatePolynomial.__repr__",
        "coeff.RationalFunction.__repr__",
        "markov.ClassPolynomial.__repr__",
    ], _REPR),
    "braid.Record.__setattr__": "raises on every write: no value is written after it is built",
}


def test_production_holds_only_what_the_cli_and_the_public_entry_points_reach():
    # the reach guard: line_count.REFERENCE is exactly the modules that the
    # corpus never loads, and every function of a production module is
    # entered by the corpus or named in _UNREACHED with its reason
    reach = _cli_run_calls()
    modules = {path.name for path in line_count.SRC.glob("*.py")}
    assert sorted(modules - set(reach["loaded"])) == sorted(line_count.REFERENCE)
    unreached = {
        name
        for path in sorted(line_count.SRC.glob("*.py"))
        if path.name not in line_count.REFERENCE
        for name, line in _functions(path).items()
        if line not in reach["entered"].get(path.name, ())
    }
    assert sorted(unreached - set(_UNREACHED)) == [], "production code that nothing reaches"
    assert sorted(set(_UNREACHED) - unreached) == [], "_UNREACHED names a reached or missing function"


def test_cli_runs_never_enter_the_general_fraction_engine():
    # every class and both sides of the skein check are written down in
    # canonical form, so neither the import nor a plain, --verify or
    # --skein-check run reaches the gcd-based reduction
    assert "_canonical_pair" not in _calls_in_cli_runs("oracle.py")


def test_cli_runs_use_only_the_packed_coefficient_kernel():
    # coefficients stay packed ints from the fold's decode to the skein
    # coefficients; the dense-list helpers serve only the oracles
    dense = {"_to_rec", "_embed_rows", "_u_sub", "_u_mul", "_strip_root"}
    assert not dense & _calls_in_cli_runs("oracle.py")


def test_cli_runs_call_only_the_trusted_constructors_and_reads_of_coeff():
    # every coefficient, the skein constants and the denominators among
    # them, is built on packed ints and written down with the _raw
    # constructors; the CLI then only compares and renders values.  wrap and
    # _monomial_text are what the two __str__ call.
    read_only = {"_raw", "__eq__", "__str__", "is_zero", "is_one", "variables"}
    helpers = {"wrap", "_monomial_text"}
    assert _calls_in_cli_runs("coeff.py") - read_only - helpers == set()


@pytest.mark.parametrize(
    "word, strands, index, digest",
    [
        ("s1 s1", "2", "1", "e62c6e6c4e8dd94f43243f4737ea66a8ff4ff3d095ed8658d5d820028f16a05a"),
        ("t1", "2", "1", "f1c6daff305e66be04b7764b6cde21388b3bfbc21fb19fa8922c2f37f6cae40d"),
        # w s_i is folded as given, w S_i as its mirror
        ("s1 S2 t1", "3", "2", "0a3311af7c2e56bfd57cbaff8fc119cb207dc354e162f3ee276b99b0ef16cd49"),
        ("s1 S2 t1 s2 t2", "3", "1", "4d20f1db5676ac32c36847724370bb1b957cd08d87c7df83b2fbd2d307bf5cb4"),
        # the smoothed leg w reduces across the wrap (to s2); w s_i and w S_i do not
        ("s1 s2 S1", "3", "2", "6072a434d4ab0092694c7a4d375c55a91c87ec255044cfe28c60d0187f269c49"),
        (
            "t1 s2 S1 t2 s3 t1 S2 t3",
            "5",
            "3",
            "308aa108d665eef3a6a007e064310cbb4bd8c2d64451ce75a4b927429ef1c1b1",
        ),
    ],
)
def test_skein_check_json_is_pinned(word, strands, index, digest):
    # SHA-256 of the JSON report, lhs and rhs included, as the general
    # fraction arithmetic rendered it
    argv = ["--word", word, "--strands", strands, "--skein-check", index, "--format", "json"]
    text = cli.render_json(cli.run(cli.build_parser().parse_args(argv)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_run_report_is_an_immutable_unhashable_record():
    w = parse("s1 S2 t1", 3)
    report = cli.RunReport(w, 3, 1, 0, 1, None, None, 0.5, None)
    assert report.verify is None
    assert repr(report) == (
        "RunReport(word=<word s1 S2 t1 on 3>, strands=3, degree=1, writhe=0, "
        "components=1, markov=None, skein=None, elapsed_seconds=0.5, verify=None)"
    )
    assert report == cli.RunReport(w, 3, 1, 0, 1, None, None, 0.5, None)
    assert report != cli.RunReport(w, 3, 1, 0, 1, None, None, 0.5, {})
    with pytest.raises(TypeError):  # verify has no default: a report takes all nine values
        cli.RunReport(w, 3, 1, 0, 1, None, None, 0.5)
    with pytest.raises(AttributeError):
        report.verify = {}
    with pytest.raises(AttributeError):
        del report.elapsed_seconds
    assert report.verify is None and report.elapsed_seconds == 0.5
    with pytest.raises(TypeError):
        hash(report)
    run = cli.run(cli.build_parser().parse_args(["--word", "t1 s1", "--strands", "2"]))
    full = cli.RunReport(run.word, run.strands, run.degree, run.writhe, run.components, run.markov, run.skein, 0.25, None)
    assert repr(full) == (
        "RunReport(word=<word t1 s1 on 2>, strands=2, degree=1, writhe=1, components=2, "
        "markov=<MarkovClass Y>, skein=<SkeinClass Yhat>, elapsed_seconds=0.25, verify=None)"
    )


def dumped(report: cli.RunReport) -> str:
    """The JSON report as ``json.dumps(payload, indent=2)`` wrote it before
    ``render_json`` wrote the fixed fields itself, kept as its oracle."""

    def terms(cls, key_a, key_b):
        return [{key_a: a, key_b: b, "coeff": str(coeff)} for (a, b), coeff in cls.sorted_terms()]

    payload = {
        "strands": report.strands,
        "degree": report.degree,
        "writhe": report.writhe,
        "components": report.components,
        "markov_class": terms(report.markov, "x", "y"),
        "skein_class": terms(report.skein, "xhat", "yhat"),
    }
    if report.verify is not None:
        payload["verify"] = report.verify
    return json.dumps(payload, indent=2)


@settings(max_examples=40)
@given(SMALL_WORDS, st.booleans(), st.booleans(), st.integers(0, 3))
def test_render_json_matches_json_dumps(word, verify, skein_check, moves):
    # reports with and without a verify object, and with and without its
    # skein_check entry
    argv = ["--word", word.display(), "--strands", str(word.strands), "--format", "json"]
    if verify:
        argv += ["--verify", "--moves", str(moves)]
    if skein_check and word.strands > 1:
        argv += ["--skein-check", str(word.strands - 1)]
    report = cli.run(cli.build_parser().parse_args(argv))
    assert cli.render_json(report) == dumped(report)


def test_render_json_matches_json_dumps_on_empty_classes_and_escapes():
    # a zero class renders as [], and the verify object's strings are
    # escaped as json.dumps escapes them, non-ASCII included
    word = parse("t1", 2)
    verify = {
        "moves": 2, "seed": -1, "passed": 1, "failed": 1,
        "failures": ["step 2: 'q\"\u00e9\n' changed the class"], "nested": {"empty": [], "also": {}},
    }
    for extra in (None, verify, {}):
        report = cli.RunReport(word, 2, 1, 0, 1, markov.MarkovClass({}), skein.SkeinClass({}), 0.0, extra)
        assert cli.render_json(report) == dumped(report)
