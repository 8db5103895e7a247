"""Outside-in span tracer for singskein's layers.

The program has no tracing of its own, so the benchmark wraps each layer's
entry point where its caller looks it up.  The modules import functions by
name, so a wrapper goes on the name in the caller's namespace (for example
``singskein.markov.trace_components``, not ``singskein.hecke``).  A seam
that no longer exists is skipped: its layer then records zero calls and
the run still completes.

Each span records its name, start, end, parent span, op id, whether the
call returned normally, and one number taken from the result (moves made,
Laurent terms returned).  Spans stay in memory; the caller writes them out
when the run ends.  A call into a layer directly inside a span of the same
layer is merged into that span, so nested seams of one layer are counted
once.

Run as a script, this module is the traced cold child:
``python perfbench/tracer.py ARGV...`` times ``import singskein.cli``,
installs the wrappers, calls ``singskein.cli.main(ARGV)`` and writes its
probe summary (see ``speed.py``) and then its spans to the last two lines
of stderr.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

SPANS_TAG = "perfbench-spans "


def _laurent_terms(components):
    return sum(len(c) for c in components)


# (module, attribute, layer) or (module, attribute, layer, measure-of-result)
SEAMS = (
    ("singskein.cli", "run", "cli.run"),
    ("singskein.cli", "render_json", "cli.render"),
    ("singskein.cli", "parse", "braid.parse"),
    ("singskein.cli", "random_move_sequence", "braid.moves", len),
    ("singskein.cli", "markov_class", "markov.solve"),
    ("singskein.skein", "markov_class", "markov.solve"),
    ("singskein.cli", "skein_class", "skein.normalise"),
    ("singskein.skein", "skein_class", "skein.normalise"),
    ("singskein.markov", "_pairing", "markov.pairing"),
    ("singskein.markov", "pairing_matrix", "markov.pairing"),
    ("singskein.markov", "invert", "linalg.invert"),
    ("singskein.markov", "determinant", "linalg.determinant"),
    ("singskein.markov", "trace_components", "hecke.trace_components", _laurent_terms),
    ("singskein.markov", "poly_divexact", "coeff.divexact"),
    ("singskein.skein", "poly_divexact", "coeff.divexact"),
    ("singskein.skein", "embed_qz_to_su", "coeff.embed"),
)

# span record fields
NAME, START, END, PARENT, OP, OK, VALUE = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = "setup"
        self._saved: list[tuple] = []

    def open(self, name: str, start: float) -> list:
        parent = self.stack[-1] if self.stack else -1
        record = [name, start, start, parent, self.op, True, 0]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list, end: float) -> None:
        record[END] = end
        self.stack.pop()

    def _wrap(self, name, fn, measure):
        spans, stack, clock = self.spans, self.stack, perf_counter

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            record = self.open(name, clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[OK] = False
                raise
            finally:
                record[END] = clock()
                stack.pop()
            if measure is not None:
                record[VALUE] = measure(result)
            return result

        return wrapper

    def install(self) -> None:
        for seam in SEAMS:
            module_name, attr, name = seam[:3]
            measure = seam[3] if len(seam) > 3 else None
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, measure))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(index)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span[START]
        for child in sorted(children.get(index, ()), key=lambda c: spans[c][START]):
            lo, hi = max(spans[child][START], reach), min(spans[child][END], span[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span[END] - span[START] - covered)
    return out


def child_main(argv: list[str]) -> int:
    import speed

    sampler = speed.Sampler()
    sampler.install()
    tracer = Tracer()
    tracer.op = 0
    root = tracer.open("op", perf_counter())
    importing = tracer.open("cli.import", root[START])
    cli = importlib.import_module("singskein.cli")
    tracer.close(importing, perf_counter())
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.close(root, perf_counter())
        sampler.stop()
        sys.stdout.flush()
        speed.report(sampler)
        print(SPANS_TAG + json.dumps(tracer.spans), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
