#!/usr/bin/env python3
"""Code lines of Python sources: lines that are not blank, comment or docstring.

A docstring is the leading string constant of a module, class or function.
A line counts when some token on it, or a token that spans it (a multi-line
string that is not a docstring), is code.  Prints one count per file and the
total.  A directory stands for the ``*.py`` files under it; with no PATH the
package sources under ``src/`` are counted.

Usage: python benchmarks/code_lines.py [PATH ...]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) at which each docstring in ``tree`` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(text: str) -> int:
    docs = docstring_starts(ast.parse(text))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(text.encode()).readline):
        if tok.type in NOT_CODE or tok.type == tokenize.STRING and tok.start in docs:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def sources(paths: list[str]) -> list[Path]:
    out = []
    for p in map(Path, paths):
        out.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    return out


def main(argv: list[str]) -> int:
    total = 0
    for path in sources(argv or [str(SRC)]):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
