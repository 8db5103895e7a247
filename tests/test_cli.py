"""Front-end behaviour: formats, determinism, exit codes."""

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
from singskein import cli, hecke, markov
from singskein.braid import SIGMA, SIGMA_INV, TAU, Generator, SingularBraidWord, _reduced, parse
from singskein.coeff import QZ, RationalFunction
from singskein.cli import main
from singskein.moves import random_move_sequence
from singskein.packed import PackedProduct
from singskein.skein import skein_class, skein_triple_check

TRUE_FOLD = markov._folded
TRUE_CLASS_FROM_COMPONENTS = cli._class_from_components


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
    return [{expo: 2 * v for expo, v in comp.items()} for comp in hecke._decoded(traces)]


def test_verify_failure_exits_3(capsys, monkeypatch):
    # every folded word but the given one gets doubled components, so a
    # class that the run builds, or that a comparison of components stands
    # for, is wrong for each of them
    start = parse("t1 s1", 2)

    def skewed_fold(word, reduced=None):
        traces = TRUE_FOLD(word, reduced)
        return traces if word == start else doubled(traces)

    monkeypatch.setattr(markov, "_folded", skewed_fold)
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


def recomputed_verify(word: SingularBraidWord, moves: int, seed: int) -> dict:
    """The ``verify`` dict of a run that classes every move's word anew, by
    ``skein_class``."""
    reference = skein_class(word)
    failures = [
        f"step {k}: {move!r} changed the class"
        for k, (move, step_word) in enumerate(
            random_move_sequence(word, moves, seed=seed, max_strands=cli.HARD_MAX_STRANDS), 1
        )
        if skein_class(step_word) != reference
    ]
    return {
        "moves": moves,
        "seed": seed,
        "passed": moves - len(failures),
        "failed": len(failures),
        "failures": failures,
    }


@st.composite
def small_words(draw):
    """At most 6 strands, at most 8 crossings and 3 double points."""
    n = draw(st.integers(1, 6))
    if n == 1:
        return SingularBraidWord(1, ())
    index = st.integers(1, n - 1)
    letters = draw(st.lists(st.builds(Generator, st.sampled_from((SIGMA, SIGMA_INV)), index), max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        letters.insert(draw(st.integers(0, len(letters))), Generator(TAU, draw(index)))
    return SingularBraidWord(n, tuple(letters))


def reduction_skewed(word, reduced=None):
    """The trace components, doubled for about half of the (strands, cyclic
    reduction) pairs, picked by a digest of the pair: wrong, but a function
    of the pair, so a run that folds each pair once and decides a word on
    its components must still report exactly the failures of classing
    every word anew from the same skewed components."""
    traces = TRUE_FOLD(word, reduced)
    key = repr((word.strands, _reduced(word.letters))).encode()
    return doubled(traces) if hashlib.sha256(key).digest()[0] % 2 else traces


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(small_words(), st.integers(0, 2**16), st.integers(0, 12))
def test_verify_matches_recomputing_every_class(word, seed, moves):
    argv = ["--word", word.display(), "--strands", str(word.strands), "--verify"]
    args = cli.build_parser().parse_args(argv + ["--moves", str(moves), "--seed", str(seed)])
    for fold in (TRUE_FOLD, reduction_skewed):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(markov, "_folded", fold)
            verify = cli._verify_moves(
                word, markov._traces(word), skein_class(word), markov.HARD_MAX_STRANDS, args
            )
            assert verify == recomputed_verify(word, moves, seed)


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
    monkeypatch.setattr("singskein.moves._move_stream", lambda *args, **kwargs: iter(script))
    folded, classed = [], []

    def counted_fold(word, reduced=None):
        folded.append(word)
        return TRUE_FOLD(word, reduced)

    def counted_class(comps, word):
        classed.append(word)
        return TRUE_CLASS_FROM_COMPONENTS(comps, word)

    monkeypatch.setattr(markov, "_folded", counted_fold)
    monkeypatch.setattr(cli, "_class_from_components", counted_class)
    args = cli.build_parser().parse_args(["--word", "t1 s1 s2", "--verify", "--moves", "8"])
    assert cli.run(args).verify == {
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


def test_every_fold_passes_the_seam_once_per_word(monkeypatch):
    # a word cut into pieces and blocks: the class functions, the skein
    # check and cli.run --verify fold each of their words through
    # markov._folded, once per word (per distinct (strands, cyclic
    # reduction) for --verify), and no piece is folded outside that seam
    word = parse("t1 s1 s2 s3 s2 s3 S4 s5 s6 s5 s6", 7)
    assert isinstance(TRUE_FOLD(word), PackedProduct)
    folded, open_folds, pieces = [], [], []
    true_piece_fold = hecke._fold

    def counted_fold(w, reduced=None):
        folded.append(w)
        open_folds.append(w)
        try:
            return TRUE_FOLD(w, reduced)
        finally:
            open_folds.pop()

    def piece_fold(*piece):
        assert open_folds, "a piece was folded outside markov._folded"
        pieces.append(piece)
        return true_piece_fold(*piece)

    monkeypatch.setattr(markov, "_folded", counted_fold)
    monkeypatch.setattr(hecke, "_fold", piece_fold)
    legs = [SingularBraidWord(7, word.letters + (Generator(kind, 4),)) for kind in (SIGMA, SIGMA_INV)]
    for call, expected in (
        (lambda: markov.markov_class(word), [word]),
        (lambda: skein_class(word), [word]),
        (lambda: skein_triple_check(word, 4), [word] + legs),
    ):
        folded.clear()
        call()
        assert folded == expected
    folded.clear()
    args = cli.build_parser().parse_args(["--word", word.display(), "--verify", "--moves", "20", "--seed", "5"])
    assert cli.run(args).verify["failed"] == 0
    moved = [step for _, step in random_move_sequence(word, 20, seed=5, max_strands=cli.HARD_MAX_STRANDS)]
    keys = [(w.strands, _reduced(w.letters)) for w in [word] + moved]
    assert [(w.strands, _reduced(w.letters)) for w in folded] == list(dict.fromkeys(keys))
    assert len(pieces) > len(folded)


def test_skein_check_shares_the_given_words_fold(monkeypatch):
    # cli.run folds the given word once and hands its traces to the skein
    # check, which folds only w s_i and w S_i; --verify adds its new move
    # words, and an out-of-range index folds nothing
    folded = []

    def counted_fold(w, reduced=None):
        folded.append(w)
        return TRUE_FOLD(w, reduced)

    monkeypatch.setattr(markov, "_folded", counted_fold)
    word = parse("s1 S2 t1 s2")
    legs = [SingularBraidWord(3, word.letters + (Generator(kind, 1),)) for kind in (SIGMA, SIGMA_INV)]
    for flags, folds in (((), 3), (("--verify", "--moves", "5"), 6)):
        folded.clear()
        argv = ["--word", "s1 S2 t1 s2", "--skein-check", "1", *flags]
        assert cli.run(cli.build_parser().parse_args(argv)).verify["skein_check"]["holds"]
        assert len(folded) == folds
        assert folded.count(word) == 1 and all(folded.count(leg) == 1 for leg in legs)
    folded.clear()
    with pytest.raises(ValueError, match="crossing index 3 out of range"):
        cli.run(cli.build_parser().parse_args(["--word", "s1 S2 t1 s2", "--skein-check", "3"]))
    assert folded == []


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


def test_negative_moves_rejected_before_any_work(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the class was computed before --moves was checked")

    monkeypatch.setattr(markov, "_folded", unreachable)
    with pytest.raises(SystemExit) as exc:
        main(["--word", "t1", "--strands", "2", "--verify", "--moves", "-1"])
    assert exc.value.code == 2
    assert "--moves must be >= 0" in capsys.readouterr().err


def test_moves_above_the_hard_cap_rejected_before_any_work(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the class was computed before --moves was checked")

    monkeypatch.setattr(markov, "_folded", unreachable)
    with pytest.raises(SystemExit) as exc:
        main(["--word", "t1", "--strands", "2", "--verify", "--moves", str(cli.HARD_MAX_MOVES + 1)])
    assert exc.value.code == 2
    assert "--moves must be at most 10000 (hard cap)" in capsys.readouterr().err


def test_moves_at_the_hard_cap_parse():
    assert cli.HARD_MAX_MOVES == 10_000
    args = cli.build_parser().parse_args(["--word", "t1", "--verify", "--moves", "10000"])
    assert args.moves == 10_000


def test_skein_check_index_rejected_before_any_work(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the class was computed before --skein-check was checked")

    monkeypatch.setattr(markov, "_folded", unreachable)
    code, _, err = invoke(capsys, "--word", "t1", "--strands", "2", "--skein-check", "5")
    assert code == 2
    assert "crossing index 5 out of range for 2 strands" in err


def test_lowered_cap_rejected_before_any_work(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the class was computed before --max-degree was checked")

    monkeypatch.setattr(markov, "_folded", unreachable)
    code, _, err = invoke(capsys, "--word", "t1 t1", "--strands", "2", "--max-degree", "1")
    assert code == 4
    assert "word has 2 double points, cap is 1" in err


def test_verify_keeps_move_words_within_the_strand_cap():
    # every word --verify folds, the given one's included, has at most the
    # strands --max-strands allows; at the hard cap this stream goes past it
    def strands_folded(*flags):
        seen = []

        def recording_fold(word, reduced=None):
            seen.append(word.strands)
            return TRUE_FOLD(word, reduced)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(markov, "_folded", recording_fold)
            argv = ["--word", "t1 s1 s2", "--verify", "--moves", "40", "--seed", "1", *flags]
            report = cli.run(cli.build_parser().parse_args(argv))
        assert report.verify["passed"] == 40
        return seen

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


def test_lowered_cap_applies(capsys):
    code, _, _ = invoke(capsys, "--word", "t1 t1", "--strands", "2", "--max-degree", "1")
    assert code == 4


def test_cap_override_above_hard_cap_rejected(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the class was computed before the cap flags were checked")

    monkeypatch.setattr(markov, "_folded", unreachable)
    for flag, value, message in [
        ("--max-degree", "99", "error: degree cap must lie in 1..8"),
        ("--max-degree", "0", "error: degree cap must lie in 1..8"),
        ("--max-strands", "13", "error: strand cap must lie in 1..12"),
        ("--max-strands", "0", "error: strand cap must lie in 1..12"),
    ]:
        code, out, err = invoke(capsys, "--word", "t1", flag, value)
        assert code == 2, (flag, value)
        assert out == ""
        assert err.splitlines() == [message], (flag, value)


def test_strands_inferred(capsys):
    code, out, _ = invoke(capsys, "--word", "s1 S2 t1")
    assert code == 0
    assert "strands:      3" in out


def test_cli_import_leaves_the_linalg_oracle_out():
    # the CLI path loads no dataclass machinery, no fractions, no oracle
    # code (linalg and singskein.oracle serve the tests) and no
    # singskein.permutations (braid counts components on its strand
    # table): checked in a fresh
    # interpreter after the import and after a plain, a --skein-check and a
    # --verify run.  The move machinery (singskein.moves) waits for --verify:
    # neither the import nor the plain and --skein-check runs load it
    src = os.path.dirname(os.path.dirname(singskein.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = """if True:
        import contextlib, io, sys
        banned = {
            "dataclasses", "inspect", "fractions", "decimal",
            "singskein.linalg", "singskein.oracle", "singskein.permutations",
        }
        moves = banned | {"singskein.moves"}
        import singskein.cli
        print(sorted(moves & set(sys.modules)))
        word = ["--word", "s1 S2 t1 s2 t2"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for extra in ([], ["--skein-check", "1"]):
                assert singskein.cli.main(word + extra) == 0
            print(sorted(moves & set(sys.modules)), file=sys.__stdout__)
            assert singskein.cli.main(word + ["--verify", "--moves", "9"]) == 0
        print(sorted(banned & set(sys.modules)))
        print("singskein.moves" in sys.modules)
    """
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "[]", "[]", "True"]


@functools.lru_cache(maxsize=None)
def _cli_run_calls() -> dict:
    """Calls to singskein's functions, counted by ``sys.setprofile`` in a
    fresh interpreter over the import and a plain, a --verify and a
    --skein-check run on one word: {module file: {function name: calls}}.
    Module and class bodies, which have no CO_OPTIMIZED flag, are left out."""
    package = os.path.dirname(singskein.__file__)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
    probe = f"""if True:
        import collections, contextlib, inspect, io, json, os, sys
        calls = collections.defaultdict(collections.Counter)
        def count(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_flags & inspect.CO_OPTIMIZED:
                head, tail = os.path.split(code.co_filename)
                if head == {package!r}:
                    calls[tail][code.co_name] += 1
        sys.setprofile(count)
        import singskein.cli
        word = ["--word", "s1 S2 t1 s2 t2"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for extra in ([], ["--verify", "--moves", "9"], ["--skein-check", "1"]):
                assert singskein.cli.main(word + extra) == 0
        sys.setprofile(None)
        print(json.dumps(calls))
    """
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def _calls_in_cli_runs(module_file: str) -> set:
    """Names of the functions of this singskein module file that the CLI
    runs of ``_cli_run_calls`` call."""
    return set(_cli_run_calls().get(module_file, ()))


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
    report = cli.RunReport(w, 3, 1, 0, 1, None, None, 0.5)
    assert report.verify is None
    assert repr(report) == (
        "RunReport(word=<word s1 S2 t1 on 3>, strands=3, degree=1, writhe=0, "
        "components=1, markov=None, skein=None, elapsed_seconds=0.5, verify=None)"
    )
    assert report == cli.RunReport(w, 3, 1, 0, 1, None, None, 0.5, verify=None)
    assert report != cli.RunReport(w, 3, 1, 0, 1, None, None, 0.5, verify={})
    with pytest.raises(AttributeError):
        report.verify = {}
    with pytest.raises(AttributeError):
        del report.elapsed_seconds
    assert report.verify is None and report.elapsed_seconds == 0.5
    with pytest.raises(TypeError):
        hash(report)
    run = cli.run(cli.build_parser().parse_args(["--word", "t1 s1", "--strands", "2"]))
    full = cli.RunReport(run.word, run.strands, run.degree, run.writhe, run.components, run.markov, run.skein, 0.25)
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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(small_words(), st.booleans(), st.booleans(), st.integers(0, 3))
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
        report = cli.RunReport(word, 2, 1, 0, 1, markov.MarkovClass({}), cli.SkeinClass({}), 0.0, extra)
        assert cli.render_json(report) == dumped(report)
