"""The size of src/singskein, split into production and reference code;
standard library only.

    python3 tests/line_count.py

Reference code is oracle.py, and linalg.py, which only tests import;
production is every other module.  For each module, and then for each
part, it prints its lines and its code-only lines: those that are not
blank, not a comment and not in a module, class or function docstring.
It only reports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "singskein"
REFERENCE = ("oracle.py", "linalg.py")


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
    parts = {"production": [0, 0], reference: [0, 0]}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines, code = len(text.splitlines()), code_lines(text)
        print(f"{path.name}: {lines} lines, {code} code-only")
        counts = parts[reference if path.name in REFERENCE else "production"]
        counts[0] += lines
        counts[1] += code
    for part, (lines, code) in parts.items():
        print(f"{part}: {lines} lines, {code} code-only")


if __name__ == "__main__":
    main()
