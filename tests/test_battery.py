"""CI runs the check battery step by step: no step is dropped or run twice,
and no check hides in the workflow file."""

import re
from pathlib import Path

import battery
import line_count

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


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
