"""Count the code lines of each module under ``src/``, and their total.

A code line holds a Python token other than a comment; blank lines,
comment lines and docstrings are not counted.  A docstring here is a
string statement: a logical line that is one string literal and nothing
else.  A token that spans lines, such as a multi-line string in an
expression, counts every line it spans.  Uses the standard library's
``tokenize`` alone.

Run it from anywhere: ``python tools/code_lines.py`` prints one
``<lines>  <module>`` row per module under ``src/``, then the total.
"""

from __future__ import annotations

import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Tokens that hold no code: layout, comments and the encoding marker.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """The number of code lines in one Python file."""
    lines: set[int] = set()
    logical: list[tokenize.TokenInfo] = []  # the current logical line's code tokens
    with path.open("rb") as source:
        for tok in tokenize.tokenize(source.readline):
            if tok.type not in _LAYOUT:
                logical.append(tok)
            elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and logical:
                if not (len(logical) == 1 and logical[0].type == tokenize.STRING):
                    for t in logical:
                        lines.update(range(t.start[0], t.end[0] + 1))
                logical = []
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.relative_to(ROOT).as_posix()}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
