"""Count the code, docstring, comment and blank lines of fracheat's modules.

    python3 tools/line_audit.py [SRC]

``SRC`` is a ``src`` directory holding a ``fracheat`` package (default:
``src`` of this checkout).  Each line of ``SRC/fracheat/*.py`` falls in
one class:

* docstring: a line of a module, class or function docstring (the
  first statement of its body, a string), blank lines inside it too;
* blank: any other line of whitespace only;
* comment: a line whose only token is a comment;
* code: every other line.

The script prints one row per module and a total row, whose four counts
add up to ``wc -l``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLASSES = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based numbers of the lines that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def audit(path: Path) -> dict[str, int]:
    """The number of lines of each class in one module."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    code = set()            # lines that a token other than a comment spans
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                              tokenize.INDENT, tokenize.DEDENT,
                              tokenize.ENDMARKER):
            code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(CLASSES, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        if number in docs:
            kind = "docstring"
        elif not line.strip():
            kind = "blank"
        elif number not in code:
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def main() -> int:
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "src"
    modules = sorted((src / "fracheat").glob("*.py"))
    if not modules:
        sys.exit(f"error: no fracheat modules under {src}")
    total = dict.fromkeys(CLASSES, 0)
    print(f"{'module':<16}" + "".join(f"{c:>10}" for c in CLASSES)
          + f"{'lines':>10}")
    for path in modules:
        counts = audit(path)
        for kind in CLASSES:
            total[kind] += counts[kind]
        print(f"{path.name:<16}" + "".join(f"{counts[c]:>10}" for c in CLASSES)
              + f"{sum(counts.values()):>10}")
    print(f"{'total':<16}" + "".join(f"{total[c]:>10}" for c in CLASSES)
          + f"{sum(total.values()):>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
