"""Line counts of the package's modules: `wc -l` lines, and the code lines
left after removing comments, docstrings and blank lines.

A docstring here is any statement that is a string literal alone.  Uses
only the standard library's `tokenize`.  Run from the repository root:

    python tools/src_lines.py [package directory, default src/multisine_wpt]
"""

from __future__ import annotations

import io
import pathlib
import sys
import tokenize

# tokens that carry no code: layout, comments and the end of the file
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of `source` that hold a token of a statement other than a
    string literal alone."""
    lines = set()
    statement = []  # the tokens of the logical line being read
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    package = pathlib.Path(argv[1] if len(argv) > 1 else "src/multisine_wpt")
    total_wc = total_code = 0
    print(f"{'module':<16}{'wc -l':>7}{'code':>7}")
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        wc, code = source.count("\n"), code_lines(source)
        total_wc += wc
        total_code += code
        print(f"{path.name:<16}{wc:>7,}{code:>7,}")
    print(f"{'total':<16}{total_wc:>7,}{total_code:>7,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
