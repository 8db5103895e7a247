"""One workload in a fresh process; prints one JSON result line.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE PART PARTS

``run.py`` starts this with ``PYTHONPATH=src``, so caches start empty and
the peak RSS belongs to this workload.  In-process workloads time one
``cli.run`` plus ``render_json`` per op; ``cli-cold`` times one
fresh CLI child per op.  Set-up (import, pairing builds
for the pool's degrees, a tiny ``--verify`` self-check and a pass over
two warm-up words) is timed as a whole, not per op.

The run is a fixed number of whole rounds (see ``corpus.py``): as many
as the pool's recorded costs say fill SECONDS, so every run measures the
same words in number and mix, and each word once.  ``run.py`` may split
the run's ops over PARTS workers run one after another; this one runs ops
PART, PART + PARTS, ...  With TRACE 1 every op is traced.

Every time reported (per op and set-up) is corrected for the machine's
speed as sampled during it (see ``speed.py``); the raw wall times are
reported next to them.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import corpus
import speed
import tracer as tracing

HERE = Path(__file__).resolve().parent
CRITERION_BOUND_S = 10.0  # criterion 9: no word may take longer
CHILD_LIMIT_S = 60.0  # a cold child still running by then is killed and counted as failed
SELF_CHECK = ["--word", "s1 t2 S1", "--strands", "3", "--format", "json", "--verify", "--moves", "3"]
TRIVIAL = ["--word", "", "--strands", "1", "--format", "json"]
TRIVIAL_CALLS = 15  # cli-cold set-up: setup_s is the median of these calls


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Run:
    def __init__(self, workload, seed, seconds, trace, part, parts):
        self.pool = json.loads((HERE / "reference.json").read_text())["workloads"][workload]
        self.warmup, rounds = corpus.plan(self.pool, seed, seconds)
        self.ops = [entry for words in rounds for entry in words][part::parts]
        self.tracer = tracing.Tracer() if trace else None
        self.latencies: list[float] = []  # corrected
        self.raw_latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.setup_ok = True
        self.notes: list[str] = []

    def note(self, message: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(message)

    # -- checking ---------------------------------------------------------

    def check(self, entry, elapsed, output, code=0) -> None:
        self.attempted += 1
        where = " ".join(entry["argv"])
        if code != 0:
            problem = f"exit {code}"
        elif output is None or _digest(output) != entry["sha256"]:
            problem = "wrong output"
        elif elapsed > CRITERION_BOUND_S:
            problem = f"{elapsed:.1f}s, over the {CRITERION_BOUND_S}s bound"
        else:
            return
        self.failed += 1
        self.note(f"{problem}: {where}")

    def setup_failure(self, message: str) -> None:
        self.setup_ok = False
        self.note(f"set-up: {message}")

    # -- one op -----------------------------------------------------------

    def op(self, entry) -> tuple[float, float]:
        """Run one op; its corrected and its raw wall time."""
        raise NotImplementedError

    def timed_loop(self) -> float:
        start = perf_counter()
        for entry in self.ops:
            latency, raw = self.op(entry)
            self.latencies.append(latency)
            self.raw_latencies.append(raw)
        return perf_counter() - start

    def stop(self) -> None:
        """Stop sampling: an armed timer would kill the process on its way out."""

    def result(self, setup_s: float, wall_s: float) -> dict:
        out = {
            "setup_s": setup_s,
            "setup_ok": self.setup_ok,
            "attempted": self.attempted,
            "failed": self.failed,
            "notes": self.notes,
        }
        out.update(
            latencies=self.latencies, raw_latencies=self.raw_latencies, wall_s=wall_s,
            peak_rss_mb=self.peak_rss_mb(),
        )
        if self.tracer is not None:
            out["spans"] = self.spans()
        return out

    def spans(self) -> list:
        return self.tracer.spans


class InProcess(Run):
    def setup(self) -> float:
        self.sampler = speed.Sampler()
        self.sampler.install()
        since = self.sampler.mark()
        start = perf_counter()
        if self.tracer is not None:
            importing = self.tracer.open("cli.import", start)
        from singskein import cli, markov

        self.cli = cli
        if self.tracer is not None:
            self.tracer.close(importing, perf_counter())
            self.tracer.install()
        degrees = {
            sum(token.startswith("t") for token in w["argv"][1].split())
            for s in self.pool["strata"]
            for w in s["words"]
        }
        for d in sorted(degrees - {0}):
            markov.pairing_matrix(d)
        report = cli.run(cli.build_parser().parse_args(SELF_CHECK))
        cli.render_json(report)
        if report.verify["failed"]:
            self.setup_failure("a --verify move changed the class of the self-check word")
        for entry in self.warmup:
            output = self.cli.render_json(self.cli.run(self.parsed(entry)))
            if _digest(output) != entry["sha256"]:
                self.setup_failure(f"wrong warm-up output: {' '.join(entry['argv'])}")
        return self.sampler.correct(perf_counter() - start, since)

    def stop(self) -> None:
        self.sampler.stop()

    def parsed(self, entry):
        if "_args" not in entry:
            entry["_args"] = self.cli.build_parser().parse_args(entry["argv"])
        return entry["_args"]

    def op(self, entry) -> tuple[float, float]:
        args = self.parsed(entry)
        cli = self.cli
        tracer = self.tracer
        output = None
        if tracer is not None:
            tracer.op = self.attempted
        since = self.sampler.mark()
        start = perf_counter()
        root = tracer.open("op", start) if tracer is not None else None
        try:
            report = cli.run(args)
            output = cli.render_json(report)
        except Exception as exc:  # a crash is a failed op, not a failed benchmark
            self.note(f"{type(exc).__name__}: {exc}")
        end = perf_counter()
        if tracer is not None:
            tracer.close(root, end)
        elapsed = end - start
        if output is not None and report.verify is not None and report.verify["failed"]:
            output = None
        self.check(entry, elapsed, output)
        return self.sampler.correct(elapsed, since), elapsed

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Cold(Run):
    def __init__(self, *args):
        super().__init__(*args)
        self.child_spans: list[list] = []

    def child(self, argv):
        """One cold CLI process: its corrected and raw wall time, and its result.

        The child is ``speed.py`` (``tracer.py`` when traced), which samples
        its own speed and calls ``singskein.cli.main``: the same as
        ``python -m singskein.cli``."""
        traced = self.tracer is not None
        command = [sys.executable, str(HERE / ("tracer.py" if traced else "speed.py")), *argv]
        start = perf_counter()
        try:
            done = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_LIMIT_S)
        except subprocess.TimeoutExpired as exc:
            done = subprocess.CompletedProcess(command, f"killed after {exc.timeout}s", "", "")
        elapsed = perf_counter() - start
        probes = speed.read_report(done.stderr)
        latency = speed.corrected(elapsed, *probes) if probes else elapsed
        if traced:
            tag = done.stderr.rfind(tracing.SPANS_TAG)
            if tag >= 0:
                spans = json.loads(done.stderr[tag + len(tracing.SPANS_TAG) :])
                self.add_child_spans(spans)
        return latency, elapsed, done

    def add_child_spans(self, spans) -> None:
        base = len(self.child_spans)
        for span in spans:
            if span[tracing.PARENT] >= 0:
                span[tracing.PARENT] += base
            span[tracing.OP] = self.tracer.op
            self.child_spans.append(span)

    def setup(self) -> float:
        if self.tracer is not None:
            self.tracer.op = "setup"
        times = []
        for _ in range(TRIVIAL_CALLS):
            latency, _, done = self.child(TRIVIAL)
            if done.returncode != 0:
                self.setup_failure(f"trivial call exited {done.returncode}")
            times.append(latency)
        _, _, done = self.child(SELF_CHECK)
        if done.returncode != 0:
            self.setup_failure(f"self-check exited {done.returncode}")
        return statistics.median(times)

    def op(self, entry) -> tuple[float, float]:
        if self.tracer is not None:
            self.tracer.op = self.attempted
        latency, elapsed, done = self.child(entry["argv"])
        output = done.stdout[:-1] if done.stdout.endswith("\n") else done.stdout
        self.check(entry, elapsed, output, done.returncode)
        return latency, elapsed

    def spans(self) -> list:
        return self.child_spans

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def main(argv: list[str]) -> None:
    workload, seed, seconds, trace, part, parts = argv
    kind = Cold if workload == "cli-cold" else InProcess
    run = kind(workload, int(seed), float(seconds), trace == "1", int(part), int(parts))
    try:
        setup_s = run.setup()
        wall_s = run.timed_loop()
    finally:
        run.stop()
    sys.stdout.flush()
    print(json.dumps(run.result(setup_s, wall_s)))


if __name__ == "__main__":
    main(sys.argv[1:])
