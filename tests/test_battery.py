"""CI runs the check battery step by step: no step is dropped or run twice,
and no check hides in the workflow file.  Production code holds no
unbounded memo."""

import re
from pathlib import Path

import battery
import line_count

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"

# lru_cache(maxsize=None) and functools.cache, in any spelling
UNBOUNDED_MEMO = re.compile(
    r"lru_cache\((maxsize *= *)?None\)|functools\.cache\b|from functools import .*\bcache\b|@cache\b"
)


def test_ci_runs_every_battery_step_once_in_order():
    steps = re.findall(r"python3 tests/battery\.py (\S+)", WORKFLOW.read_text())
    assert steps == list(battery.STEPS)


def test_ci_embeds_no_python():
    assert "<<" not in WORKFLOW.read_text()  # a heredoc, the way CI embedded its checks


def test_line_count_keeps_only_lines_that_hold_code():
    # CI's code-only figure: no blank, comment or docstring line; a string
    # that is not first in its body is code
    text = '"""Module\ndocstring."""\n\n# a comment\nx = 1  # code\n\n\ndef f():\n    """Doc."""\n    return """text"""\n'
    assert line_count.code_lines(text) == 3


def test_no_unbounded_memo_in_production():
    # a memo with no bound grows with every word a long-running process
    # sees, so no production module (every one but line_count.REFERENCE)
    # may hold one
    spellings = [
        "@lru_cache(maxsize=None)",
        "@lru_cache(None)",
        "from functools import cache",
        "@functools.cache",
        "@cache",
    ]
    assert all(UNBOUNDED_MEMO.search(line) for line in spellings)
    assert not UNBOUNDED_MEMO.search("@lru_cache(maxsize=1024)")
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(line_count.SRC.glob("*.py"))
        if path.name not in line_count.REFERENCE
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if UNBOUNDED_MEMO.search(line)
    ]
    assert found == []
