"""Generate ``reference.json``: the word pools and the digests of their output.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py [--workload NAME ...]

For every pool word this renders the CLI's JSON in process, stores its
SHA-256, and checks the class by paths independent of the one being
digested:

- the class is unchanged by two seeded ``braid.random_move_sequence``
  moves that do not lengthen the word or add strands;
- for degree <= 3, ``markov.trace_functional`` (the literal subset
  expansion) equals ``trace_vector`` for every k;
- for words of at most 12 letters, ``skein_triple_check`` holds at one
  seeded index.  Longer words skip it: appending one crossing to some cap
  words makes their class take minutes.

A ``--verify`` word must also report no failed move.

The anchors ``t1`` -> Xhat, ``t1 s1`` -> Yhat and the classical ``s1 s1 s1``
value are checked before any pool is made.  A failed check stops the
script, so a digest is only written for an output that passed them.
Only the named workloads are regenerated; the others are kept.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import corpus
import tracer as tracing
from singskein import cli, markov
from singskein.braid import random_move_sequence
from singskein.coeff import QZ, RationalFunction
from singskein.markov import MarkovClass, trace_functional, trace_vector
from singskein.skein import SkeinClass, skein_class, skein_triple_check

HERE = Path(__file__).resolve().parent
POOL_SEED = {"cli-cold": 11, "negative-fold": 33, "verify-fuzz": 44}
FOLD_MAX_S = 1.5


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_anchors() -> None:
    from singskein.braid import parse

    if skein_class(parse("t1", 2)) != SkeinClass.monomial(1, 0):
        raise SystemExit("anchor t1 -> Xhat failed")
    if skein_class(parse("t1 s1", 2)) != SkeinClass.monomial(0, 1):
        raise SystemExit("anchor t1 s1 -> Yhat failed")
    one = RationalFunction.one(QZ)
    q = RationalFunction.coordinate(QZ, "q")
    z = RationalFunction.coordinate(QZ, "z")
    expected = ((q - one) * (q - one) + q) * z + q * (q - one)
    if markov.markov_class(parse("s1 s1 s1", 2)) != MarkovClass.constant(expected):
        raise SystemExit("classical s1 s1 s1 value failed")


def reference_entry(entry: dict, rng: random.Random) -> dict:
    args = cli.build_parser().parse_args(entry["argv"])
    start = time.perf_counter()
    report = cli.run(args)
    text = cli.render_json(report)
    cost = time.perf_counter() - start
    word = report.word
    where = " ".join(entry["argv"])
    if report.verify is not None and report.verify["failed"]:
        raise SystemExit(f"verify failed: {where}")
    steps = random_move_sequence(
        word, 2, seed=rng.randrange(2**30), max_strands=word.strands,
        max_length=len(word.letters),
    )
    for move, step in steps:
        if skein_class(step) != report.skein:
            raise SystemExit(f"move {move!r} changed the class: {where}")
    if word.degree <= 3:
        values = trace_vector(word).values
        if any(trace_functional(word, k) != values[k] for k in range(word.degree + 1)):
            raise SystemExit(f"trace_vector differs from the subset expansion: {where}")
    if len(word.letters) <= 12 and word.strands >= 2:
        if not skein_triple_check(word, rng.randrange(1, word.strands)).holds:
            raise SystemExit(f"skein relation failed: {where}")
    return {"argv": entry["argv"], "sha256": digest(text), "cost_s": round(cost, 4)}


def fold_bound(rng: random.Random, wanted: int) -> list[dict]:
    """Negative-fold words on which the Hecke fold is the heaviest layer and
    the op takes at most ``FOLD_MAX_S``: most words of this shape that cost
    less spend more time in exact division than in the fold."""
    kept = []
    tried = 0
    while len(kept) < wanted:
        entry = corpus.negative_word(rng)
        tried += 1
        tracer = tracing.Tracer()
        tracer.install()
        start = time.perf_counter()
        root = tracer.open("op", start)
        cli.render_json(cli.run(cli.build_parser().parse_args(entry["argv"])))
        tracer.close(root, time.perf_counter())
        tracer.remove()
        cost = root[tracing.END] - start
        layers: dict[str, float] = {}
        for span, own in zip(tracer.spans, tracing.self_times(tracer.spans)):
            layers[span[tracing.NAME]] = layers.get(span[tracing.NAME], 0.0) + own
        if cost <= FOLD_MAX_S and max(layers, key=layers.get) == "hecke.trace_components":
            kept.append(entry)
        print(f"  negative-fold: kept {len(kept)} of {tried}", file=sys.stderr, end="\r")
    print(f"  negative-fold: kept {wanted} of {tried} words", file=sys.stderr)
    return kept


def cold(entries: list[dict]) -> list[dict]:
    """Replace each cost with that of a fresh ``python -m singskein.cli``."""
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    for entry in entries:
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "singskein.cli", *entry["argv"]],
            env=env, capture_output=True, check=True,
        )
        entry["cost_s"] = round(time.perf_counter() - start, 4)
    return entries


def by_cost(entries: list[dict], strata: int) -> list[dict]:
    ranked = sorted(entries, key=lambda e: e["cost_s"])
    size = len(ranked) // strata
    return [{"count": 1, "words": ranked[i * size : (i + 1) * size]} for i in range(strata)]


def make_pool(name: str) -> dict:
    rng = random.Random(POOL_SEED[name])
    check = random.Random(POOL_SEED[name] + 1)

    def ref(entries):
        out = []
        for entry in entries:
            out.append(reference_entry(entry, check))
            print(f"  {name}: {len(out)}/{len(entries)}", file=sys.stderr, end="\r")
        return out

    if name == "cli-cold":
        for d in sorted(corpus.COLD_ROUND):
            if d:
                markov.pairing_matrix(d)
        strata = [
            {"count": count, "words": cold(ref([corpus.cold_word(rng, d) for _ in range(6 * count)]))}
            for d, count in sorted(corpus.COLD_ROUND.items())
        ]
        warmup = []  # a cold call has no caches to warm
    elif name == "negative-fold":
        markov.pairing_matrix(2)
        markov.pairing_matrix(3)
        strata = by_cost(ref(fold_bound(rng, 60)), 20)
        warmup = ref(fold_bound(rng, 6))
    else:
        strata = by_cost(ref([corpus.verify_word(rng) for _ in range(480)]), 24)
        warmup = ref([corpus.verify_word(rng) for _ in range(6)])
    return {"strata": strata, "warmup": warmup}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=corpus.WORKLOADS)
    args = parser.parse_args()
    out = HERE / "reference.json"
    reference = json.loads(out.read_text()) if out.exists() else {"workloads": {}}
    check_anchors()
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    ).stdout.strip()
    for name in args.workload or corpus.WORKLOADS:
        start = time.perf_counter()
        reference["workloads"][name] = make_pool(name)
        reference["workloads"][name]["made_at_commit"] = commit or None
        print(f"{name}: {time.perf_counter() - start:.1f}s", file=sys.stderr)
    reference["python"] = sys.version.split()[0]
    out.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
