"""The size of src/singskein, split into production and reference code, and
of tests/; standard library only.

    python3 tests/line_count.py

Reference code (``REFERENCE``) is the modules that no CLI run loads:
oracle.py, the reference engines and the word helpers only they and the
tests use; linalg.py, which only tests import; and permutations.py, which
only the oracle and the tests import.  Production is every other module.
``tests/test_cli.py`` checks that ``REFERENCE`` is exactly the set of
modules its CLI corpus never loads.  For each module, then for each Python
file of tests/, then for each part and for tests/ together, it prints the
lines and the code-only lines: those that are not blank, not a comment and
not in a module, class or function docstring.  It only reports.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "singskein"
REFERENCE = ("oracle.py", "linalg.py", "permutations.py")


def code_lines(text: str) -> int:
    """The lines of this Python source that hold code: not blank, not a
    comment and not in a docstring."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node) is not None:
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    kept = [line.strip() for i, line in enumerate(text.splitlines(), 1) if i not in docs]
    return sum(1 for line in kept if line and not line.startswith("#"))


def main():
    reference = f"reference ({', '.join(REFERENCE)})"
    parts = {"production": [0, 0], reference: [0, 0], "tests": [0, 0]}
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        text = path.read_text()
        lines, code = len(text.splitlines()), code_lines(text)
        print(f"{path.name if path.parent == SRC else 'tests/' + path.name}: {lines} lines, {code} code-only")
        counts = parts["tests" if path.parent == TESTS else reference if path.name in REFERENCE else "production"]
        counts[0] += lines
        counts[1] += code
    for part, (lines, code) in parts.items():
        print(f"{part}: {lines} lines, {code} code-only")


if __name__ == "__main__":
    main()
