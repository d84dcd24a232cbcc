"""The tokenizer's str-method cut of ASCII text gives the regex's tokens.

``_scan`` cuts ASCII text with ``str.replace`` and ``str.split`` and keeps
that cut only where every token is an operator, a separator, a constant,
``vars`` or an ASCII name; anything else takes ``_TOKEN``.  The soups mix
the grammar's tokens with pieces that must leave the cut: control and
non-ASCII blanks, a lone slash or backslash, a digit before a name and a
digit inside one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from boolgeo.syntax import _TOKEN, _scan

GRAMMAR = [
    "x1", "x2", "a", "_b", "vars", "0", "1", "+", "\\/", "*", "&", "!", "'", "(", ")",
    "=", ";", "\n", ",", " ", "\t", "\r",
]
OUTSIDE = ["\x0b", "\x1c", "\x1f", "\x85", "\xa0", "/", "\\", "9x", "x1x2", "\\\\/"]

soups = st.lists(st.sampled_from(GRAMMAR + OUTSIDE), max_size=40).map("".join)


def assert_cut(text):
    tokens, kinds = _scan(text)
    assert tokens == _TOKEN.findall(text) + [""]
    assert len(kinds) == len(tokens)


@settings(max_examples=500, deadline=None)
@given(soups)
def test_token_soup_cut_matches_the_regex(text):
    assert_cut(text)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(GRAMMAR), max_size=40).map("".join))
def test_grammar_soup_cut_matches_the_regex(text):
    assert_cut(text)


def test_each_outside_piece_between_names():
    for piece in OUTSIDE:
        for text in (piece, "x1" + piece + "x2", "x1 = " + piece + "\n", piece + "!(a)"):
            assert_cut(text)
