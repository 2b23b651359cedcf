#!/usr/bin/env python3
"""Print code, docstring, comment and blank line counts for each snmod module.

    python scripts/code_lines.py [DIR]

``DIR`` defaults to this checkout's ``src/snmod``.  Each line of a module
falls in exactly one column: ``docstring`` (a line that a module, class or
function docstring spans, found with ``ast``), else ``comment`` (a line whose
only token is a comment, found with ``tokenize``), else ``blank``, else
``code``.  A code line with a trailing comment counts as code.  The last row
sums every module, so two checkouts can be compared by code lines, not only
by raw lines.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

COLUMNS = ("lines", "code", "docstring", "comment", "blank")


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def _comment_lines(text: str) -> set[int]:
    """Lines that hold a comment and no other token."""
    commented: set[int] = set()
    coded: set[int] = set()
    ignored = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            commented.add(tok.start[0])
        elif tok.type not in ignored:
            coded.update(range(tok.start[0], tok.end[0] + 1))
    return commented - coded


def count_lines(text: str) -> dict[str, int]:
    """The columns of :data:`COLUMNS` for one module's source text."""
    docs = _docstring_lines(ast.parse(text))
    comments = _comment_lines(text)
    counts = dict.fromkeys(COLUMNS, 0)
    for ln, line in enumerate(text.splitlines(), 1):
        counts["lines"] += 1
        if ln in docs:
            counts["docstring"] += 1
        elif ln in comments:
            counts["comment"] += 1
        elif not line.strip():
            counts["blank"] += 1
        else:
            counts["code"] += 1
    return counts


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("dir", nargs="?", default=Path(__file__).resolve().parents[1] / "src" / "snmod")
    args = ap.parse_args()

    paths = sorted(Path(args.dir).glob("*.py"))
    width = max([len("module") + 2] + [len(path.name) + 2 for path in paths])
    total = dict.fromkeys(COLUMNS, 0)
    print(f"{'module':<{width}}" + "".join(f"{c:>10}" for c in COLUMNS))
    for path in paths:
        counts = count_lines(path.read_text(encoding="utf-8"))
        for c in COLUMNS:
            total[c] += counts[c]
        print(f"{path.name:<{width}}" + "".join(f"{counts[c]:>10}" for c in COLUMNS))
    print(f"{'total':<{width}}" + "".join(f"{total[c]:>10}" for c in COLUMNS))


if __name__ == "__main__":
    main()
