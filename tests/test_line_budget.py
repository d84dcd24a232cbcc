"""The package's size, held to a committed budget of code lines.

A code line is a line of ``src/boolgeo/*.py`` that holds a token other
than a comment and is not part of a docstring.  A change that deletes code
lowers ``LINE_BUDGET`` to the new count; a change that adds code fits in
what is left or raises the budget on purpose, where a reviewer sees it.
"""

import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "boolgeo"

LINE_BUDGET = 1786

# Tokens that end, open or close a statement or block, or the file.
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The lines of ``source`` that hold code.  Blank and comment lines are
    left out, and so is a docstring: a string that stands alone as a
    statement."""
    tokens = [
        token
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type not in (tokenize.NL, tokenize.COMMENT)
    ]
    lines = set()
    for before, token, after in zip([None, *tokens], tokens, [*tokens[1:], None]):
        if token.type in _LAYOUT:
            continue
        alone = (before is None or before.type in _LAYOUT) and after.type in _LAYOUT
        if not (token.type == tokenize.STRING and alone):
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    source = (
        '"""Module."""\n\n# a comment\n'
        'def f(x):\n    """Doc\n    string."""\n'
        '    y = """a\nb"""  # two lines of code\n'
        "    return x\n"
    )
    assert code_lines(source) == 4


def test_the_package_fits_its_line_budget():
    count = sum(code_lines(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py"))
    assert count <= LINE_BUDGET, f"src/boolgeo/ has {count} code lines, over {LINE_BUDGET}"
