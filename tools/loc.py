"""Count the code lines of the padiaphony package.

A code line holds a token other than a comment, outside every module,
class and function docstring, so blank lines, comment lines and docstring
lines do not count; every line a multi-line token spans does.  Prints the
count of each file under the package directory and the total.

Usage: python3 tools/loc.py [PACKAGE_DIR]   (default: the repo's src/padiaphony)
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_spans(tree: ast.Module) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    spans = _docstring_spans(ast.parse(source))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in _NOT_CODE:
                continue
            if any(a <= tok.start and tok.end <= b for a, b in spans):
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parents[1] / "src" / "padiaphony"
    root = Path(argv[1]) if len(argv) > 1 else default
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.stem:<12} {n:>6}")
    print(f"{'total':<12} {total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
