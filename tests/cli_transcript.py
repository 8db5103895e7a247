"""The CLI transcript: seeded argv lists and what ``singskein`` wrote for
each; standard library only.

    PYTHONPATH=src python3 tests/cli_transcript.py    # rewrite tests/cli_transcript.json

Each entry of tests/cli_transcript.json holds one argv list, the SHA-256 of
its stdout, the SHA-256 of its stderr without the ``elapsed`` line, and its
exit code.  The argv lists come from ``argv_lists()`` with a fixed seed:
words on 2-6 strands with 0-4 double points, text and JSON, ``--verify`` at
several move counts and seeds, ``--skein-check`` in and out of range,
``--max-strands`` and ``--max-degree`` in and out of range, and syntax and
index errors.  Battery step ``cli-transcript`` runs every list in process
and checks it against the file, so a change that keeps the file keeps the
CLI's output byte for byte.  Rewrite the file only when the output is meant
to change.
"""

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from singskein import cli

TRANSCRIPT = Path(__file__).resolve().parent / "cli_transcript.json"
SEED = 31
COUNT = 300


def _word(rng, n, d):
    """Up to 8 crossings on n strands, then d double points each inserted at
    a random place."""
    letters = [rng.choice("sS") + str(rng.randrange(1, n)) for _ in range(rng.randrange(9))]
    for _ in range(d):
        letters.insert(rng.randint(0, len(letters)), f"t{rng.randrange(1, n)}")
    return " ".join(letters)


def _argv(rng):
    n, d = rng.randint(2, 6), rng.randint(0, 4)
    argv = ["--word", _word(rng, n, d), "--strands", str(n)]
    roll = rng.random()
    if roll < 0.04:  # a bad token
        argv[1] += rng.choice([" x1", " s0", " t", " s1s2"])
    elif roll < 0.08:  # an index above the strand count
        argv[1] += f" s{n + rng.randint(0, 2)}"
    if rng.random() < 0.4:
        argv += ["--verify", "--moves", str(rng.choice([0, 1, 5, 9, 20])), "--seed", str(rng.randrange(100))]
    if rng.random() < 0.35:  # in range three times in four
        index = rng.randint(1, n - 1) if rng.random() < 0.75 else rng.choice([0, n, n + 3])
        argv += ["--skein-check", str(index)]
    if rng.random() < 0.15:
        argv += ["--max-strands", str(rng.choice([n, n - 1, 0, 12, 13]))]
    if rng.random() < 0.15:
        argv += ["--max-degree", str(rng.choice([max(d, 1), d - 1, 0, 8, 9]))]
    if rng.random() < 0.5:
        argv += ["--format", "json"]
    return argv


def argv_lists(seed=SEED, count=COUNT):
    """The transcript's argv lists, a function of the seed alone."""
    rng = random.Random(seed)
    return [_argv(rng) for _ in range(count)]


def record(argv):
    """Run ``cli.main(argv)`` in process: (SHA-256 of stdout, SHA-256 of
    stderr without its ``elapsed`` line, exit code)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse refuses its input this way
            code = exc.code
    stderr = "".join(line for line in err.getvalue().splitlines(True) if not line.startswith("elapsed: "))
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), hashlib.sha256(stderr.encode()).hexdigest(), code


def main():
    entries = []
    for argv in argv_lists():
        stdout, stderr, code = record(argv)
        entries.append({"argv": argv, "stdout": stdout, "stderr": stderr, "exit": code})
    lines = ",\n".join(f"  {json.dumps(entry)}" for entry in entries)  # one entry a line
    TRANSCRIPT.write_text(f'{{\n "seed": {SEED},\n "entries": [\n{lines}\n ]\n}}\n')
    codes = sorted({entry["exit"] for entry in entries})
    print(f"{len(entries)} entries, exit codes {codes}, written to {TRANSCRIPT.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
