"""Opt-in probe of the cases at singskein's caps (not a benchmark workload).

    python3 perfbench/capprobe.py

Runs, each in its own child process: a cold ``markov.pairing_matrix(7)``,
a cold ``pairing_matrix(8)``, the class of one 12-strand word with 8
double points, and the classes of the two criterion-9 ladders (8 strands,
4 double points, 21 crossings of one sign), whose bound is 10 s each.
The child sets an ``RLIMIT_AS`` of ``MEMORY_MB`` on itself before
importing singskein, and the parent kills it after ``WALL_S``, so a case
that would run for minutes or take gigabytes ends early instead.  For
each case the probe prints whether it finished, its wall time and its
peak RSS (from ``wait4``, so a killed child is measured too).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402

WALL_S = 90.0  # wall-clock limit per case
MEMORY_MB = 2048  # RLIMIT_AS per case


def cap_word() -> str:
    """12 strands, 8 double points, 24 crossings, mostly negative (seeded)."""
    rng = random.Random(12)
    letters = [("S" if rng.random() < 0.75 else "s") + str(rng.randrange(1, 12)) for _ in range(24)]
    for _ in range(8):
        letters.insert(rng.randint(0, len(letters)), f"t{rng.randrange(1, 12)}")
    return " ".join(letters)


def class_of(argv: list[str]) -> str:
    return (
        "from singskein import cli; "
        f"cli.render_json(cli.run(cli.build_parser().parse_args({argv!r})))"
    )


CASES = {
    "pairing_matrix(7)": "from singskein.markov import pairing_matrix; pairing_matrix(7)",
    "pairing_matrix(8)": "from singskein.markov import pairing_matrix; pairing_matrix(8)",
    "12 strands, 8 double points": class_of(["--word", cap_word(), "--strands", "12"]),
    "positive ladder": class_of(corpus.ladder("s")["argv"]),
    "negative ladder": class_of(corpus.ladder("S")["argv"]),
}


def child(code: str) -> None:
    limit = MEMORY_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    exec(code)


def probe(name: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path.cwd() / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "capprobe.py"), "--child", name],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    killed = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() - start > WALL_S:
            proc.send_signal(signal.SIGKILL)
            killed = True
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.05)
    elapsed = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    error = proc.stderr.read().strip().splitlines()
    proc.stderr.close()
    return {
        "case": name,
        "finished": not killed and code == 0,
        "outcome": "killed at the wall-clock limit" if killed else f"exit {code}",
        "error": error[-1] if error and code else None,
        "wall_s": round(elapsed, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "limits": {"wall_s": WALL_S, "address_space_mb": MEMORY_MB},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", choices=sorted(CASES), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(CASES[args.child])
        return
    if not (Path.cwd() / "src" / "singskein").is_dir():
        sys.exit("perfbench: run from the repository root: src/singskein is missing")
    results = [probe(name) for name in CASES]
    print(json.dumps({"python": sys.version.split()[0], "nproc": os.cpu_count(), "cases": results}, indent=1))


if __name__ == "__main__":
    main()
