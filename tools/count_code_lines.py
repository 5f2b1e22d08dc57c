"""Count the code lines of Python files: physical lines that hold a
token, less blank lines, ``#`` comments and docstrings.

    python tools/count_code_lines.py [path ...]     # default: src/fpualt

Prints one line per file and the total.  A reader that closes the pipe
early (``| head``) ends the run quietly, with exit code 1.
"""

import ast
import os
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path):
    """The number of code lines in the Python file ``path``."""
    text = Path(path).read_text()
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.difference_update(range(body[0].lineno, body[0].end_lineno + 1))
    return len(lines)


def main(argv):
    paths = [Path(arg) for arg in argv] or [Path("src/fpualt")]
    files = sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py")))
    total = 0
    for f in files:
        n = code_lines(f)
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    try:
        main(sys.argv[1:])
    except BrokenPipeError:
        # the reader left early (``| head``): stop without a traceback, and
        # point stdout at devnull so the exit-time flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
