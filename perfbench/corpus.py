"""Word generators for the benchmark's pools, and the seeded run plan.

Each workload has a pool of words whose rendered JSON was digested once
(``make_reference.py`` writes ``reference.json``).  The pool is split into
strata; one *round* takes ``count`` words from every stratum, so every
round has the same mix of sizes and every run, whatever its seed, measures
the same mix and the same number of words.  The seed decides which words of
each stratum are used, and in which order; it picks them from equal bins of
the stratum ranked by cost, so runs with different seeds have nearly the
same costs too, down to the few costliest words that set the tail.  Set-up
always warms up on the two cheapest warm-up words, so it does the same work
whatever the seed.

Each word's ``cost_s`` is its op's time when the pool was made: in process
for in-process workloads, a fresh process for ``cli-cold``.  In-process
workloads are stratified by it (equal-sized chunks of the pool sorted by
cost), and it sets how many rounds fill a run.  ``cli-cold`` is
stratified by degree, because a cold call's cost is the pairing build for
the word's degree.
"""

from __future__ import annotations

import random

WORKLOADS = ("cli-cold", "negative-fold", "verify-fuzz")
IN_PROCESS = ("negative-fold", "verify-fuzz")

# Words of one cold round, by degree: 100 calls weighted towards d <= 4, with
# three d = 5 and one d = 6 (a cold d = 6 call builds the pairing for about
# 5 s).  One round fills about 30 s and puts ten samples beyond the p90.
# Most calls are d = 3 or 4, so the pairing build, not the interpreter's
# import, is the heaviest part of the round.
COLD_ROUND = {0: 6, 1: 10, 2: 20, 3: 26, 4: 34, 5: 3, 6: 1}

VERIFY_MOVES = 9


def _letters(rng, strands, crossings, degree, negative_share):
    letters = [
        ("S" if rng.random() < negative_share else "s") + str(rng.randrange(1, strands))
        for _ in range(crossings)
    ]
    for _ in range(degree):
        letters.insert(rng.randint(0, len(letters)), f"t{rng.randrange(1, strands)}")
    return letters


def _entry(letters, strands, *extra):
    return {"argv": ["--word", " ".join(letters), "--strands", str(strands), "--format", "json", *extra]}


def cold_word(rng, degree):
    """2-8 strands, up to 12 letters: the pairing build dominates, not the fold."""
    strands = rng.randint(2, 8)
    crossings = rng.randint(0 if degree else 1, max(12 - degree, 1))
    return _entry(_letters(rng, strands, crossings, degree, 1 / 3), strands)


def ladder(sign, rotation=0):
    """The criterion-9 ladders (8 strands, 21 crossings of one sign, 4 double
    points), cyclically rotated: a rotation closes to the same link."""
    letters = [f"{sign}{1 + k % 7}" for k in range(21)]
    for p in (3, 8, 13, 18):
        letters.insert(p, f"t{1 + p % 7}")
    letters = letters[rotation:] + letters[:rotation]
    return _entry(letters, 8)


def negative_word(rng):
    """9-10 strands, 2-3 double points, 22-28 crossings, about 80% negative."""
    strands = rng.randint(9, 10)
    degree = rng.randint(2, 3)
    return _entry(_letters(rng, strands, rng.randint(22, 28), degree, 0.8), strands)


def verify_word(rng):
    """The criterion-2 shape: 2-6 strands, degree 0-3, at most 12 letters."""
    strands = rng.randint(2, 6)
    degree = rng.randint(0, 3)
    length = rng.randint(max(degree, 1), 12)
    letters = _letters(rng, strands, max(length - degree, 0), degree, 1 / 3)
    seed = rng.randrange(2**30)
    return _entry(letters, strands, "--verify", "--moves", str(VERIFY_MOVES), "--seed", str(seed))


def plan(pool: dict, seed: int, seconds: float):
    """Warm-up words and the rounds of one run.

    A run is a fixed number of rounds: as many as the pool's recorded costs
    say fill ``seconds``, at least one, and never so many that a word would
    run twice (a repeated word would find the Hecke caches already full).
    A fixed count keeps the sample count, and so the tail percentile, the
    same on every run however fast the machine is.
    """
    rng = random.Random(seed)
    strata = [(s["count"], sorted(s["words"], key=_cost)) for s in pool["strata"]]
    warmup = sorted(pool["warmup"], key=_cost)[:2]
    round_s = sum(count * sum(map(_cost, words)) / len(words) for count, words in strata)
    distinct = min(len(words) // count for count, words in strata)
    runs = min(max(1, round(seconds / round_s)), distinct)
    picked = []
    for count, words in strata:
        # one word from each of count * runs equal bins of the ranked stratum
        n, k = len(words), count * runs
        chosen = [words[rng.randrange(i * n // k, (i + 1) * n // k)] for i in range(k)]
        rng.shuffle(chosen)
        picked.append((count, chosen))
    rounds = []
    for r in range(runs):
        chosen = [w for count, words in picked for w in words[r * count : (r + 1) * count]]
        rng.shuffle(chosen)
        rounds.append(chosen)
    return warmup, rounds


def _cost(entry: dict) -> float:
    return entry["cost_s"]
