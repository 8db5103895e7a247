"""The check battery: the cross-checks behind singskein's classes, one step
each; standard library only.  ``python -m pytest`` runs every step as a
test of its own (``tests/test_battery.py``), and this script runs them
alone:

    PYTHONPATH=src python3 tests/battery.py           # every step
    PYTHONPATH=src python3 tests/battery.py <step>    # one step

Each step pins singskein's classes to an independent path: the README's
library example, the recorded digests of perfbench/reference.json, the
fold in both orientations, the split words' coordinates from their
undecoded product against those from its decode, the skein relation, --verify against
recomputation and its recorded counts, the packed coefficients against the
dense oracle, the trace's L1 bound behind the fold's digit width on every
permutation up to S_8, the 12-strand cap words, the trace components
and both classes against an independent fold over GF(2^61 - 1) (tests/modp.py), the
recorded digests of tests/cap_reference.json, and the CLI's output for the
seeded argv lists of tests/cli_transcript.json; a last step, cap-sweep,
checks how the cap recipe's words are cut against the recorded plan.  A
failed check prints its line; the script exits 1 if any step fails.
Whatever ``singskein`` the interpreter imports is the one checked, so
PYTHONPATH may point at a copy of ``src/``.
"""

import hashlib
import json
import random
import resource
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from itertools import permutations
from pathlib import Path
from typing import NamedTuple

import cli_transcript
import modp
from singskein import cli, hecke, markov, markov_class, parse, skein, skein_class, skein_triple_check
from singskein.braid import SingularBraidWord, _reduced, exponent_sum
from singskein.coeff import QZ, SU, RationalFunction
from singskein.moves import random_move_sequence
from singskein.oracle import embed_qz_to_su, trace_components
from singskein.packed import PackedProduct, _laurent, _width
from singskein.skein import _closure_coefficient

HERE = Path(__file__).resolve().parent
REFERENCE = HERE.parent / "perfbench" / "reference.json"
CAP_REFERENCE = HERE / "cap_reference.json"


class Reference(NamedTuple):
    workload: str
    argv: list
    args: object  # the CLI's parsed arguments
    word: SingularBraidWord
    sha256: str


def reference_words(parts=("strata", "warmup"), workloads=None):
    """The words of perfbench/reference.json, each workload's strata words
    and then its warm-up words (those of ``parts``), parsed as the CLI
    parses them."""
    for name, pool in json.loads(REFERENCE.read_text())["workloads"].items():
        if workloads and name not in workloads:
            continue
        entries = []
        if "strata" in parts:
            entries += [w for s in pool["strata"] for w in s["words"]]
        if "warmup" in parts:
            entries += pool["warmup"]
        for entry in entries:
            args = cli.build_parser().parse_args(entry["argv"])
            yield Reference(name, entry["argv"], args, parse(args.word, args.strands), entry["sha256"])


class Tally:
    """One step's checks: each failed one prints its line."""

    def __init__(self):
        self.total = self.failed = 0

    def __call__(self, ok, *line):
        self.total += 1
        if not ok:
            self.failed += 1
            if line:
                print(*line)

    def report(self, what):
        print(f"{self.total - self.failed}/{self.total} {what}")


def readme_library(tally):
    # the README's "Library" snippet, with the values its comments name;
    # skein_class(word) solves the word itself
    word = parse("t1 s1", 2)
    checks = {
        "markov_class": str(markov_class(word)) == "Y",
        "skein_class": str(skein_class(word)) == "Yhat",
        "skein_triple_check": skein_triple_check(word, 1).holds,
    }
    print(checks)
    for ok in checks.values():
        tally(ok)


def reference_outputs(tally):
    # re-render every reference word in process and compare its SHA-256
    # with the recorded digest
    for ref in reference_words():
        text = cli.render_json(cli.run(ref.args))
        digest = hashlib.sha256(text.encode()).hexdigest()
        tally(digest == ref.sha256, "mismatch:", ref.workload, " ".join(ref.argv))
    tally.report("reference outputs match")


def both_orientations(tally):
    # fold every reference word as given and as its mirror mapped back by
    # z -> q - 1 - z; the direct fold never runs that map, so it is an
    # independent check of it.  Both folds are the unsplit hecke._trace on
    # the letters as given, so they are also the cross-check of
    # oracle.trace_components, which folds the word's cyclic reduction on
    # the strands it spans and, on 7 strands or more, cuts it into pieces
    # at its block indices, each block a one-index piece, and multiplies
    # their traces; the letter totals before and after that reduction, and
    # the number of words that split, are printed
    given = reduced = split = 0
    for ref in reference_words():
        w = ref.word
        folds = [hecke._trace(w.letters, w.strands, m) for m in (False, True)]
        given += len(w.letters)
        reduced += len(_reduced(w.letters))
        split += len(hecke._split(*hecke._compact(_reduced(w.letters)))) > 1
        ok = folds[0] == folds[1] == trace_components(w)
        tally(ok, "folds differ:", ref.workload, " ".join(ref.argv))
    print(f"letters: {given} as given, {reduced} after cyclic reduction")
    print(f"{split}/{tally.total} reference words split at a block index")
    tally.report("reference words agree in both orientations, reduced and split")


def packed_handoff(tally):
    # every reference word and every cap reference word that is cut into
    # pieces, for which hecke._folded returns the pieces' product: the
    # factored coordinates from that product, handed to the numerators
    # undecoded and re-laid out at their width, against those from the
    # decoded components, packed one term at a time.  Coordinates are
    # compared in Q(q, z), as the two paths may pack at different widths
    words = [ref.word for ref in reference_words()]
    words += [parse(entry["word"], 12) for entry in json.loads(CAP_REFERENCE.read_text())["words"]]
    handed = 0
    for w in words:
        product = hecke._folded(w)
        if not isinstance(product, PackedProduct):
            continue
        handed += 1
        from_product = markov._factored_from(product, w)
        decoded = markov._factored_from(trace_components(w), w)
        ok = {ab: c.in_qz() for ab, c in from_product.items()} == {ab: c.in_qz() for ab, c in decoded.items()}
        tally(ok, "coordinates differ:", w)
    print(f"{handed}/{len(words)} reference and cap reference words split at a block index")
    tally.report("split words' coordinates agree from the product and from its decode")


def skein_check(tally):
    # the skein relation t^-1 P - t N = x S at the first and the last
    # crossing site of every reference word: both sides come from the
    # packed sums of the numerators of w s_i, w S_i and w, each word folded
    # on its own
    for ref in reference_words():
        for i in sorted({1, ref.word.strands - 1}):
            holds = skein_triple_check(ref.word, i).holds
            tally(holds, "relation fails:", ref.workload, " ".join(ref.argv), i)
    tally.report("skein checks hold")


# verify_recompute's (words, move words, folded, full classes, new shapes)
# on working code.  The planted fold mutants that --verify cannot see
# printed 661 (the S_i lone-letter factor with +1 for -1) and 647 (the
# decoded trace negated, then in hecke._peel, now in hecke._trace) strata
# full classes, against 598, and passed the step while these counts went
# unchecked.
RECORDED_COUNTS = {"strata": (480, 4320, 1745, 598, 598), "warm-up": (6, 54, 17, 7, 7)}

# cap-sweep's plan per crossing count c of the cap recipe, over seeds
# CAP_SWEEP_SEEDS: {strands of the largest piece that hecke._trace folds:
# words}.  A change to the cut (a new cut rule, handle reduction) changes
# these rows, and updates them as a recorded edit of the check's data.  The
# planted mutant runs[i] == 1 in hecke._blocks changes the rows of c = 40,
# 60 and 80
RECORDED_SWEEP = {
    40: {4: 5, 5: 10, 6: 8, 7: 3, 8: 1, 9: 5, 10: 3, 11: 2, 12: 3},
    50: {4: 1, 5: 3, 6: 3, 7: 9, 8: 5, 9: 3, 10: 2, 11: 7, 12: 7},
    60: {5: 3, 6: 1, 7: 1, 8: 2, 9: 1, 10: 4, 11: 9, 12: 19},
    80: {8: 1, 9: 2, 10: 2, 11: 6, 12: 29},
    100: {11: 1, 12: 39},
}


def recomputed_verify(word, moves, seed, strand_cap):
    """The ``verify`` dict of a run that classes every move's word anew, by
    ``skein_class``: the oracle of --verify."""
    reference = skein_class(word)
    steps = random_move_sequence(word, moves, seed=seed, max_strands=strand_cap)
    failures = [f"step {k}: {move!r} changed the class" for k, (move, step) in enumerate(steps, 1) if skein_class(step) != reference]
    return {"moves": moves, "seed": seed, "passed": moves - len(failures), "failed": len(failures), "failures": failures}


@contextmanager
def seam_spy():
    """Record, in order, the words given to the fold seam (markov._folded)
    and to the full-class seam (skein._class_from_components), each still
    handed to the function the seam held; both seams are restored on exit.
    Yields the two lists, (folded, classed)."""
    fold, full_class = markov._folded, skein._class_from_components
    folded, classed = [], []

    def counted_fold(word, reduced=None):
        folded.append(word)
        return fold(word, reduced)

    def counted_class(comps, word):
        classed.append(word)
        return full_class(comps, word)

    markov._folded, skein._class_from_components = counted_fold, counted_class
    try:
        yield folded, classed
    finally:
        markov._folded, skein._class_from_components = fold, full_class


def verify_recompute(tally):
    # cli.run's verify dict for every verify-fuzz word against
    # recomputed_verify, which classes every move's word anew.  Inside
    # cli.run the folds and the full classes are counted (seam_spy): a run
    # folds each distinct (strand count, cyclic reduction) once, the given
    # word's included, and builds a full class only for a new (strands,
    # writhe) shape with no word known to be good.  Every verify dict must
    # report no failed move, and the counts must be the recorded ones
    # (RECORDED_COUNTS): --verify checks the engine against itself, so a
    # fold that is wrong in the same way for every word of a class passes
    # it, but it moves the counts
    for label, part in (("strata", "strata"), ("warm-up", "warmup")):
        refs = list(reference_words((part,), ("verify-fuzz",)))
        steps = folds = classes = shapes = 0
        failed_before = tally.failed
        for ref in refs:
            w, args = ref.word, ref.args
            strand_cap = markov.check_caps(w, args.max_degree, args.max_strands)
            expected = recomputed_verify(w, args.moves, args.seed, strand_cap)
            steps += args.moves
            with seam_spy() as (folded, classed):
                verify = cli.run(args).verify
            keys = {(s.strands, _reduced(s.letters)) for s in folded}
            shape = (w.strands, exponent_sum(w))
            new_shapes = {(s.strands, exponent_sum(s)) for s in folded[1:]} - {shape}
            # the given word first, then each move word once; a full class
            # for each new shape, and for no word that the given one's shape holds
            ok = (
                verify == expected
                and verify["failed"] == 0
                and folded[0] == w
                and len(keys) == len(folded)
                and new_shapes <= {(s.strands, exponent_sum(s)) for s in classed}
                and all((s.strands, exponent_sum(s)) != shape for s in classed)
            )
            tally(ok, "verify differs:", " ".join(ref.argv))
            folds += len(folded) - 1
            classes += len(classed)
            shapes += len(new_shapes)
        mismatches = tally.failed - failed_before
        print(f"{label}: {len(refs)} words, {steps} move words, {folds} folded, {classes} full classes, {shapes} new shapes, {mismatches} mismatches")
        counts = (len(refs), steps, folds, classes, shapes)
        tally(counts == RECORDED_COUNTS[label], f"{label}: counts differ from the recorded {RECORDED_COUNTS[label]}")


def packed_vs_oracle(tally):
    # write down every skein coefficient of every strata word with the
    # packed kernel and compare it with the dense-list oracle embedding of
    # its Q(q, z) coordinate, embed(c z^m) u^k, which shares no code with
    # the packed kernel
    z = RationalFunction.coordinate(QZ, "z")
    u = RationalFunction.coordinate(SU, "u")
    for ref in reference_words(("strata",)):
        n, e = ref.word.strands, exponent_sum(ref.word)
        for (a, b), c in markov.factored_coordinates(ref.word).items():
            m, k = a + b - n + 1, a + e - n + 1
            ok = _closure_coefficient(c, m, k) == embed_qz_to_su(c.in_qz() * z**m) * u**k
            tally(ok, "differs:", ref.workload, " ".join(ref.argv), (a, b))
    tally.report("packed coefficients match the dense oracle")


def trace_l1(n):
    """{image: L1(tr T_w)} for every w in S_n, each trace peeled by
    hecke._peel at the width of the per-level bound 3^((n-1)(n-2)/2), which
    holds without the width lemma that these values check."""
    bits = _width(3 ** ((n - 1) * (n - 2) // 2))
    l1 = {}
    for image in permutations(range(1, n + 1)):
        comps = _laurent(hecke._peel([{hecke._pack_perm(image): 1}], n, 1, bits), bits, 1, 0)
        l1[image] = sum(abs(v) for v in comps[0].values())
    return l1


def trace_bound(tally):
    # the width lemma of hecke._trace, exhaustively up to S_8: the largest
    # L1(tr T_w) over S_n is 3^(n-2) for n = 2..8, reached at the
    # transposition (1 n), and within 3^e(n) (hecke._peel_exponent) for
    # n = 1..8; above 8 the lemma rests on the per-level bound alone
    for n in range(1, 9):
        l1 = trace_l1(n)
        worst = max(l1.values())
        exact = n < 2 or (worst == 3 ** (n - 2) and l1[(n, *range(2, n), 1)] == worst)
        e = hecke._peel_exponent(n)
        print(f"S_{n}: {len(l1)} permutations, largest L1(tr T_w) {worst}, bound 3^{e}")
        tally(exact and worst <= 3**e, f"S_{n}: the width lemma fails")
    tally.report("symmetric groups within the width lemma")


def cap_word(c, seed):
    """ROADMAP item 5's recipe: c crossings on 12 strands, then 8 double points."""
    rng = random.Random(seed)
    letters = [rng.choice("sS") + str(rng.randrange(1, 12)) for _ in range(c)]
    for _ in range(8):
        letters.insert(rng.randint(0, len(letters)), f"t{rng.randrange(1, 12)}")
    return " ".join(letters)


# (c, seed, SHA-256 of trace_components), the first three recorded before
# the orbit step kernel, c = 30 at seed 12 before the product's row-by-row
# decode, and c = 50 at seed 4 before blocks were cut, when it folded whole
# on 12 strands.  c = 40 at seed 1 does not split.  c = 50 at seeds 1 and 4,
# recorded while they folded whole, pin the block factors: seed 1 folds one
# piece of 8 strands and cuts out four blocks, seed 4 pieces of 4 and 7
# strands, both as mirrors, and two blocks.  c = 50 at seed 3 folds pieces
# of 4 strands, as its mirror, and 8, so it pins the mirror's sign, which
# cancels in a product of two mirrored pieces.  c = 30 at seed 12 folds two
# mirrored pieces of 5 and 3 strands and cuts out a lone s_i, a lone S_i and
# three blocks
CAP_WORDS = (
    (40, 1, "fe73153871557e7f63bd75e107f6ff93f7651baf3475ca0e696ce1f9e81bb145"),
    (50, 1, "0eff38f89cfb195f769b9c71c8f46e05d9f06730b8622016bed2f00b3c4b5d3a"),
    (50, 3, "30d9de9aa22150a8391d670cb87025a181df8d6d5a85a9f47fa266efa88c6dba"),
    (30, 12, "cfb895150d3e228c1ec5723b05813f058d46d56e57860c495bac2a51aaa30cd8"),
    (50, 4, "a0586dd55892ef11477d56b37c8da69a93261fbf2ed396536fbeb7cfc48432b1"),
)
CAP_ADDRESS_SPACE = 2097152 * 1024  # bytes, as `ulimit -v 2097152`
_CAP_CHILD = f"import sys; sys.path.insert(0, {str(HERE)!r}); import battery; battery.fold_cap_word(*sys.argv[1:])"


def fold_cap_word(c, seed, expected):
    """Fold one cap word by trace_components and print its digest check,
    CPU time and peak RSS; the process exits 1 if the digest differs."""
    c, seed = int(c), int(seed)
    word = parse(cap_word(c, seed), 12)
    start = time.process_time()
    comps = trace_components(word)
    cpu = time.process_time() - start
    digest = hashlib.sha256(repr([sorted(comp.items()) for comp in comps]).encode()).hexdigest()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"c = {c}, seed {seed}: {'digest matches' if digest == expected else 'DIGEST DIFFERS'}, CPU {cpu:.2f} s, peak RSS {peak:.0f} MB")
    sys.exit(digest != expected)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CAP_ADDRESS_SPACE, CAP_ADDRESS_SPACE))


def cap_words(tally):
    # each cap word folded in its own process under a 2 GB address-space
    # limit (set in that process only), so a fold blow-up fails this check
    # instead of the machine
    for c, seed, digest in CAP_WORDS:
        child = subprocess.run([sys.executable, "-c", _CAP_CHILD, str(c), str(seed), digest], preexec_fn=_limit_address_space)
        tally(child.returncode == 0)


# every MODP_EVERY-th reference word, in the order of perfbench/reference.json
MODP_EVERY = 16


def modp_fold(tally):
    # hecke.trace_components against tests/modp.py's fold of the word as
    # given over GF(2^61 - 1), which shares no code with the production
    # fold, at a fixed point per word (random.Random(23), in this order):
    # the CAP_WORDS, the words of tests/cap_reference.json and a fixed
    # sample of the reference words.  At the same point the class over
    # Q(q, z) is checked against the fold (check 2), and at a point (s, u)
    # drawn next each skein coefficient against the class over Q(q, z); both
    # classes are built from the components checked.  Each group's CPU time
    # is printed
    rng = random.Random(23)
    groups = {
        "cap words": [(cap_word(c, seed), 12) for c, seed, _ in CAP_WORDS],
        "cap reference words": [(entry["word"], 12) for entry in json.loads(CAP_REFERENCE.read_text())["words"]],
        "reference words": [(ref.args.word, ref.word.strands) for ref in list(reference_words())[::MODP_EVERY]],
    }
    for name, words in groups.items():
        start, failed = time.process_time(), tally.failed
        for text, strands in words:
            word = parse(text, strands)
            comps = trace_components(word)
            factored = markov._factored_from(comps, word)
            coeffs = modp.class_terms(markov._class_of(factored))
            skein_coeffs = modp.class_terms(skein._rendered(factored, strands, exponent_sum(word)))
            checks = {
                "components and class": modp.check(text, strands, comps, rng, coeffs),
                "skein class": modp.skein_check(coeffs, skein_coeffs, strands, exponent_sum(word), rng),
            }
            tally(all(checks.values()), "differs mod p:", text, strands, [k for k, ok in checks.items() if not ok])
        print(f"{len(words) - tally.failed + failed}/{len(words)} {name} agree mod p, CPU {time.process_time() - start:.2f} s")
    tally.report("words agree with the fold mod p, components, class and skein class")


def cap_reference(tally):
    # tests/cap_reference.json must hold c = 22 and c = 30 at seeds 1-10,
    # then c = 50 at seed 3 (12 strands, 8 double points); re-render every
    # word and compare its SHA-256 with the recorded digest.  The words
    # that split at a block index, which go through packed._product, and
    # the total CPU time are printed
    start = time.process_time()
    entries = json.loads(CAP_REFERENCE.read_text())["words"]
    corpus = [(22, seed) for seed in range(1, 11)] + [(30, seed) for seed in range(1, 11)] + [(50, 3)]
    tally([(entry["c"], entry["seed"]) for entry in entries] == corpus, "the corpus is not c = 22 and 30 at seeds 1-10, then c = 50 at seed 3")
    split = matched = 0
    for entry in entries:
        argv = ["--word", entry["word"], "--strands", "12", "--format", "json"]
        report = cli.run(cli.build_parser().parse_args(argv))
        split += len(hecke._split(*hecke._compact(_reduced(report.word.letters)))) > 1
        digest = hashlib.sha256(cli.render_json(report).encode()).hexdigest()
        ok = entry["word"] == cap_word(entry["c"], entry["seed"]) and digest == entry["sha256"]
        matched += ok
        tally(ok, "mismatch:", f"c = {entry['c']}, seed {entry['seed']}")
    print(f"{split}/{len(entries)} cap reference words split at a block index")
    print(f"{matched}/{len(entries)} cap reference outputs match, CPU {time.process_time() - start:.2f} s")


def transcript(tally):
    # every argv list of tests/cli_transcript.json through cli.main in
    # process: the SHA-256 of stdout and of stderr without the elapsed
    # line, and the exit code, must be the recorded ones, and the lists
    # those that tests/cli_transcript.py makes from the recorded seed
    start = time.process_time()
    recorded = json.loads(cli_transcript.TRANSCRIPT.read_text())
    entries = recorded["entries"]
    tally([entry["argv"] for entry in entries] == cli_transcript.argv_lists(recorded["seed"]), "the argv lists are not the generator's")
    matched = 0
    for entry in entries:
        ok = cli_transcript.record(entry["argv"]) == (entry["stdout"], entry["stderr"], entry["exit"])
        matched += ok
        tally(ok, "output differs:", entry["argv"])
    print(f"{matched}/{len(entries)} CLI transcript entries match, CPU {time.process_time() - start:.2f} s")


# the cap recipe's seeds that cap-sweep plans, at each c of RECORDED_SWEEP
CAP_SWEEP_SEEDS = range(1, 41)


def cap_sweep(tally):
    # plan only: each cap_word(c, seed) of RECORDED_SWEEP is reduced and
    # cut as hecke._folded cuts it, and nothing is folded.  Per c, the
    # distribution of the largest piece's strands, over the pieces of 3
    # strands or more that hecke._trace folds (0 where every piece is a
    # one-index block), and the number of words with a piece of 11 or 12
    # strands, which fold for seconds to minutes or run out of memory: the
    # open cap target.  Each distribution must be the recorded one
    # (RECORDED_SWEEP); the total CPU time is printed
    start = time.process_time()
    for c, recorded in RECORDED_SWEEP.items():
        largest = Counter()
        for seed in CAP_SWEEP_SEEDS:
            pieces = hecke._split(*hecke._compact(_reduced(parse(cap_word(c, seed), 12).letters)))
            largest[max((n for _, n in pieces if n > 2), default=0)] += 1
        spread = ", ".join(f"{n}: {largest[n]}" for n in sorted(largest))
        print(f"c = {c}: largest piece's strands {{{spread}}}, {largest[11] + largest[12]}/{len(CAP_SWEEP_SEEDS)} with 11-12")
        tally(largest == recorded, f"c = {c}: the plan differs from the recorded {recorded}")
    print(f"{len(RECORDED_SWEEP) * len(CAP_SWEEP_SEEDS)} cap recipe words planned, CPU {time.process_time() - start:.2f} s")


STEPS = {
    "readme-library": readme_library,
    "reference-outputs": reference_outputs,
    "both-orientations": both_orientations,
    "packed-handoff": packed_handoff,
    "skein-check": skein_check,
    "verify-recompute": verify_recompute,
    "packed-vs-oracle": packed_vs_oracle,
    "trace-bound": trace_bound,
    "cap-words": cap_words,
    "modp": modp_fold,
    "cap-reference": cap_reference,
    "cli-transcript": transcript,
    "cap-sweep": cap_sweep,
}


def run(name):
    """Run one step; True if every check in it holds."""
    tally = Tally()
    try:
        STEPS[name](tally)
    except Exception:  # a step that raises has failed; the others still run
        traceback.print_exc()
        tally(False)
    sys.stdout.flush()
    return not tally.failed


def main(argv):
    if len(argv) > 1 or not set(argv) <= STEPS.keys():
        print(f"usage: battery.py [{'|'.join(STEPS)}]", file=sys.stderr)
        return 2
    if argv:
        return 0 if run(argv[0]) else 1
    failed = []
    for name in STEPS:
        print(f"== {name}", flush=True)
        start = time.perf_counter()
        ok = run(name)
        if not ok:
            failed.append(name)
        print(f"   {'passed' if ok else 'FAILED'} in {time.perf_counter() - start:.1f} s", flush=True)
    print(f"battery: {len(STEPS) - len(failed)}/{len(STEPS)} steps pass" + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
