"""Lines and code lines of each module of the package, then the totals.

A code line is any line that is not blank, not a comment alone and not part
of a docstring (the string that opens a module, class or function body).

    python tests/code_lines.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nilforge"


def counts(text: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    lines = text.splitlines()
    docs = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            value = body[0].value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = sum(
        1
        for number, line in enumerate(lines, 1)
        if line.strip() and not line.strip().startswith("#") and number not in docs
    )
    return len(lines), code


def main() -> int:
    total = [0, 0]
    print(f"{'file':16} {'lines':>6} {'code':>6}")
    for path in sorted(PACKAGE.glob("*.py")):
        lines, code = counts(path.read_text(encoding="utf-8"))
        total[0] += lines
        total[1] += code
        print(f"{path.name:16} {lines:6} {code:6}")
    print(f"{'total':16} {total[0]:6} {total[1]:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
