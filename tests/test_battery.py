"""Tier-1 runs the check battery, one test per step, and CI runs it only
there: the workflow calls ``tests/battery.py`` nowhere, so no step is run
twice or dropped, and no check hides in the workflow file.  Production
code holds no unbounded memo, and makes its values one way, as
``braid.Record``s.  Every property test runs under the one Hypothesis
profile of ``tests/conftest.py``.  ``python3 tests/battery.py [step]``
runs the battery alone."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest
from hypothesis import settings

import singskein
from singskein.braid import Record

import battery
import line_count

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"

# lru_cache(maxsize=None) and functools.cache, in any spelling
UNBOUNDED_MEMO = re.compile(
    r"lru_cache\((maxsize *= *)?None\)|functools\.cache\b|from functools import .*\bcache\b|@cache\b"
)


@pytest.mark.parametrize("step", list(battery.STEPS))
def test_battery_step(step):
    assert battery.run(step)


def test_ci_runs_the_battery_only_through_tier1():
    # the tier-1 step runs pytest, and with it every battery step above;
    # a second call of tests/battery.py would run a step twice
    workflow = WORKFLOW.read_text()
    calls = [line for line in workflow.splitlines() if "battery.py" in line and not line.lstrip().startswith("#")]
    assert calls == []
    assert re.search(r"- name: Tier-1 tests\n(?:\s+#.*\n)*\s+run: .*python -m pytest", workflow)


def test_ci_embeds_no_python():
    assert "<<" not in WORKFLOW.read_text()  # a heredoc, the way CI embedded its checks


def test_property_tests_share_one_hypothesis_profile():
    # tests/conftest.py loads the one profile, and a test's settings(...)
    # sets nothing but its example count, so no property test runs with a
    # deadline, random examples or an example database
    assert settings.get_current_profile_name() == "singskein"
    changed = set(settings.default.show_changed().split(", "))  # from Hypothesis's defaults
    assert changed == {"deadline=None", "derandomize=True", "database=None"}
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(line_count.TESTS.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "settings"
        and (node.args or any(k.arg != "max_examples" for k in node.keywords))
    ]
    assert calls == []


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


def test_every_value_class_is_a_record():
    # one way to make an immutable value: a class with fields in __slots__
    # is a Record, whose __slots__ as the class sees it names every slot
    # along its MRO (an empty tuple in a subclass would hide its base's
    # fields from _set, == and the hash); no class is a tuple, which a
    # NamedTuple is, and no module uses dataclasses or NamedTuple
    classes = []
    for info in pkgutil.iter_modules(singskein.__path__):
        module = importlib.import_module(f"singskein.{info.name}")
        classes += [
            obj for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
        ]
    assert Record in classes
    for cls in classes:
        assert not issubclass(cls, tuple), cls
        if cls.__dict__.get("__slots__"):
            assert issubclass(cls, Record), cls
        if issubclass(cls, Record):
            along_mro = {name for base in cls.__mro__ for name in base.__dict__.get("__slots__", ())}
            assert along_mro <= set(cls.__slots__), cls
    imports = [
        path.name
        for path in sorted(line_count.SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses")
        or (isinstance(node, ast.ImportFrom) and any(a.name == "NamedTuple" for a in node.names))
        or (isinstance(node, ast.Attribute) and node.attr == "NamedTuple")
    ]
    assert imports == []
