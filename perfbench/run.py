"""singskein benchmark: one workload, one seed, one JSON result line.

Run from the repository root (the package is not installed; workers get
``PYTHONPATH=src``):

    python3 perfbench/run.py --workload negative-fold --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client, ops run one after another):

- ``cli-cold``: one fresh CLI process (``--format json``) per word;
  every call starts with empty caches, so the pairing build for the word's
  degree dominates.
- ``negative-fold``: in-process ``cli.run`` + ``render_json`` on 9-10 strand
  words with mostly negative crossings; the Hecke fold dominates.
- ``verify-fuzz``: ``cli.run`` with ``--verify --moves 9`` on small words;
  thousands of tiny classes, and the only workload that generates moves.

``README.md`` in this directory describes the metrics and the tracer.

Every op's output is checked against the digest in ``reference.json``.
Every time is corrected for the machine's speed while it was measured
(``speed.py``); the raw median latency and throughput go to the info line.
With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` one fresh worker runs the same ops with each layer's entry
point wrapped (see ``tracer.py``), a second fresh worker runs them
untraced for ``trace.overhead_share``, and the last line holds the
per-layer metrics.  The line
before it (``perfbench-info``) records the run's metadata, the tail
percentile and its sample count, and any failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import tracer as tracing  # noqa: E402

ROOT = Path.cwd()
OUT = HERE / "out"
BUDGET_S = 170.0  # the whole run, set-up included, must end within this
# Untraced in-process runs are split over this many fresh workers, run one
# after another: each is set up (setup_s is their median) and runs every
# third op.
WORKERS = 3

TIMES = {  # per-layer metric -> span name whose self time it sums
    "markov.pairing_s": "markov.pairing",
    "linalg.invert_s": "linalg.invert",
    "linalg.determinant_s": "linalg.determinant",
    "coeff.divexact_s": "coeff.divexact",
    "coeff.embed_s": "coeff.embed",
    "markov.solve_s": "markov.solve",
    "skein.normalise_s": "skein.normalise",
    "hecke.trace_components_s": "hecke.trace_components",
    "braid.parse_s": "braid.parse",
    "braid.moves_s": "braid.moves",
    "cli.run_s": "cli.run",
    "cli.render_s": "cli.render",
    "cli.import_s": "cli.import",
}
CALLS = {  # per-layer metric -> span name whose calls it counts
    "coeff.divexact_calls": "coeff.divexact",
    "coeff.embed_calls": "coeff.embed",
    "hecke.trace_components_calls": "hecke.trace_components",
}
VALUES = {  # per-layer metric -> span name whose result measures it sums
    "hecke.laurent_terms": "hecke.trace_components",
    "braid.moves": "braid.moves",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def worker(args, deadline: float, trace: int, part: int, parts: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        args.workload,
        str(args.seed),
        str(args.seconds),
        str(trace),
        str(part),
        str(parts),
    ]
    # its own process group, so a timeout also ends the CLI children it started
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("worker ran out of time")
    if proc.returncode != 0 or not stdout.strip():
        sys.stderr.write(stderr)
        fail(f"worker exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it (or the
    maximum, for runs too short to have one)."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def combine(results: list[dict]) -> dict:
    """One result from the workers of one run."""
    return {
        "setup_samples_s": [r["setup_s"] for r in results],
        "setup_ok": all(r["setup_ok"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "notes": [note for r in results for note in r["notes"]],
        "latencies": [t for r in results for t in r["latencies"]],
        "raw_latencies": [t for r in results for t in r["raw_latencies"]],
        "wall_s": sum(r["wall_s"] for r in results),
        "worker_peak_rss_mb": [r["peak_rss_mb"] for r in results],
    }


def end_to_end(result: dict) -> tuple[dict, dict]:
    setups = result["setup_samples_s"]
    latencies = result["latencies"]
    ok = result["attempted"] - result["failed"]
    value, percentile, beyond = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (value, "s"),
        "ops_per_s": (ok / sum(latencies), "1/s"),
        # the mean over the workers: each worker's Hecke caches grow with the
        # words it ran, so the largest depends on how the seed split them
        "peak_rss_mb": (statistics.fmean(result["worker_peak_rss_mb"]), "MB"),
        "ok_share": (ok / result["attempted"], "ratio"),
    }
    info = {
        "samples": len(latencies),
        "tail_percentile": round(percentile, 2),
        "tail_samples_beyond": beyond,
        "timed_wall_s": result["wall_s"],
        "raw_latency_p50_s": statistics.median(result["raw_latencies"]),
        "raw_ops_per_s": ok / result["wall_s"],
        "setup_samples_s": setups,
        "worker_peak_rss_mb": result["worker_peak_rss_mb"],
    }
    return metrics, info


def per_layer(args, result: dict, overhead_share: float) -> tuple[dict, dict, bool]:
    spans = result["spans"]
    own = tracing.self_times(spans)
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    ok_calls: dict[str, int] = {}
    values: dict[str, int] = {}
    has_child = {span[tracing.PARENT] for span in spans}
    builds = 0
    per_op: dict = {}
    roots: dict = {}
    for index, (span, self_s) in enumerate(zip(spans, own)):
        name = span[tracing.NAME]
        totals[name] = totals.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        ok_calls[name] = ok_calls.get(name, 0) + bool(span[tracing.OK])
        values[name] = values.get(name, 0) + span[tracing.VALUE]
        if name == "markov.pairing" and index in has_child:
            builds += 1
        op = span[tracing.OP]
        if op != "setup":
            per_op[op] = per_op.get(op, 0.0) + self_s
            if name == "op":
                roots[op] = span[tracing.END] - span[tracing.START]
    # every op's self times must add up to its traced wall time
    consistent = all(abs(per_op[op] - roots.get(op, -1.0)) < 1e-6 for op in per_op)
    divexact = calls.get("coeff.divexact", 0)
    metrics = {key: (totals.get(name, 0.0), "s") for key, name in TIMES.items()}
    metrics.update({key: (calls.get(name, 0), "count") for key, name in CALLS.items()})
    metrics.update({key: (values.get(name, 0), "count") for key, name in VALUES.items()})
    metrics["markov.pairing_builds"] = (builds, "count")
    metrics["coeff.divexact_useful_ratio"] = (
        ok_calls.get("coeff.divexact", 0) / divexact if divexact else 0.0, "ratio",
    )
    metrics["trace.overhead_share"] = (overhead_share, "ratio")
    info = {
        "ops": len(roots),
        "spans": len(spans),
        "min_self_s": min(own, default=0.0),
        "self_times_sum_to_op_time": consistent,
    }
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"spans-{args.workload}-{args.seed}.json"
    dump.write_text(json.dumps({"fields": "name start end parent op ok value self_s".split(),
                                "spans": [s + [t] for s, t in zip(spans, own)]}))
    info["spans_file"] = str(dump.relative_to(ROOT)) if dump.is_relative_to(ROOT) else str(dump)
    return metrics, info, consistent


def metadata(args) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": source.hexdigest(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="singskein benchmark")
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "singskein" / "cli.py").is_file():
        fail("run from the repository root: src/singskein/cli.py is missing")

    deadline = perf_counter() + BUDGET_S
    info = metadata(args)
    if args.trace:
        # each in its own fresh worker, so every word runs once per process
        # and neither side finds the other's caches warm
        traced = worker(args, deadline, 1, 0, 1)
        plain = worker(args, deadline, 0, 0, 1)
        overhead_share = sum(traced["latencies"]) / sum(plain["latencies"]) - 1
        metrics, extra, consistent = per_layer(args, traced, overhead_share)
        result = combine([traced, plain])  # both check every output
    else:
        parts = WORKERS if args.workload in corpus.IN_PROCESS else 1
        result = combine([worker(args, deadline, 0, part, parts) for part in range(parts)])
        metrics, extra = end_to_end(result)
        consistent = True
    info.update(extra)
    info["attempted"] = result["attempted"]
    info["failed_share"] = result["failed"] / result["attempted"]
    info["notes"] = result["notes"]
    print("perfbench-info " + json.dumps(info))
    print(json.dumps({
        "correct": result["failed"] == 0 and result["setup_ok"] and consistent,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
