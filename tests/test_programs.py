"""Postfix term programs: the parser against the recursive-descent parser
it replaced, evaluation of terms of any depth, and the System type built
on programs.

``legacy_syntax`` holds the old tokenizer and parser verbatim.  For every
generated text both parsers must give the same System or Term, or a
ParseError with the same message, line and column.
"""

import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_syntax
from boolgeo import (
    Complement,
    Element,
    Equation,
    Join,
    Meet,
    OrthogonalSystem,
    ParseError,
    RankMismatchError,
    System,
    Var,
    eval_term,
    orthogonalize,
    parse_system,
    parse_term,
    satisfies,
    truth_table,
)
from boolgeo.syntax import MAX_TERM_DEPTH, compile_term, run, term_variables

DIFF = settings(max_examples=300, deadline=None)

GRAMMAR = [
    "x1", "x2", "a", "_b", "0", "1", "+", "\\/", "*", "&", "!", "'", "(", ")",
    "=", ";", "\n", ",", " ",
]
# Characters the old hand-written tokenizer classified one by one: a
# superscript digit (alphanumeric, not a letter), a non-ASCII decimal digit,
# a non-ASCII letter, a lone backslash, CRLF, the keyword and other blanks.
EDGE = [
    "²", "x²", "٣", "ſ", "ſx", "\\", "\r\n", "\r", "vars", "vars ", "varsx", "\t", "\f", "?",
    "2", "01", "_",
]


def outcome(parse, text):
    try:
        result = parse(text)
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.column, str(exc))
    if isinstance(result, System):
        return ("ok", result.variables, result.equations)
    return ("ok", result)


def assert_same(text):
    assert outcome(parse_system, text) == outcome(legacy_syntax.parse_system, text)
    assert outcome(parse_term, text) == outcome(legacy_syntax.parse_term, text)


soups = st.lists(st.sampled_from(GRAMMAR + EDGE), max_size=40).map("".join)

leaves = st.sampled_from(["x1", "x2", "a", "_b", "ſ", "x²", "0", "1"])
terms = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from([" + ", "\\/", " * ", "&", "*"]), sub).map(
            lambda t: f"({t[0]}{t[1]}{t[2]})"
        ),
        st.tuples(sub, st.sampled_from([" + ", " * "]), sub).map("".join),
        sub.map(lambda s: "!" + s),
        sub.map(lambda s: s + "'"),
    ),
    max_leaves=12,
)
headers = st.sampled_from(["", "vars x1, x2, a, _b, ſ, x²;\n", "vars x1, x2\n", "vars a;"])
separators = st.sampled_from([";", "\n", "\r\n", "; ", "\n\n"])


@st.composite
def systems(draw):
    equations = draw(st.lists(st.tuples(terms, terms).map(" = ".join), min_size=1, max_size=4))
    text = draw(headers) + draw(separators).join(equations) + draw(st.sampled_from(["", "\n"]))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(GRAMMAR + EDGE)) + text[at:]
    return text


@st.composite
def deep_systems(draw):
    k = draw(st.integers(MAX_TERM_DEPTH - 3, MAX_TERM_DEPTH + 3))
    shape = draw(st.sampled_from(["parens", "bangs", "chain", "nested", "bang-parens"]))
    if shape == "parens":
        term = "(" * k + "x1" + ")" * k
    elif shape == "bangs":
        term = "!" * k + "x1" + draw(st.sampled_from(["", "'"]))
    elif shape == "chain":
        term = draw(st.sampled_from([" + ", " * ", "&"])).join(["x1", "x2"] * (k // 2 + 1))
    elif shape == "nested":
        term = "x1 + (" * k + "x2" + ")" * k
    else:
        term = "!(" * k + "x1" + ")" * k
    lhs, rhs = draw(st.sampled_from([(term, "x2"), ("x2", term), (term, term)]))
    return draw(st.sampled_from(["", "vars x1, x2;\n"])) + lhs + " = " + rhs


@DIFF
@given(soups)
def test_token_soup_matches_the_old_parser(text):
    assert_same(text)


@DIFF
@given(systems())
def test_systems_match_the_old_parser(text):
    assert_same(text)


@settings(max_examples=100, deadline=None)
@given(deep_systems())
def test_nesting_near_the_limit_matches_the_old_parser(text):
    assert_same(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "x1 = (",
        "x1 ? x2 = 0",
        "x1 x2 = 0 ?",
        "²x = 1",
        "vars x1;\nx1 = ² + x1",
        "vars x1, x2;\nx3 = 0",
        "vars x1;\nx3 = 0 \\ 1",
        "x1 = \\",
        "vars ſ, x²\r\nſ = x²'",
        "x1 = ٣",
        "vars x1; vars = 1",
        "vars x1\n\n",
        "x1 = 1 +",
        "x1 = x2) = 0",
        "(x1 = 0",
        "x1'' = 0",
        "1 = 0",
    ],
)
def test_edge_cases_match_the_old_parser(text):
    assert_same(text)


# --- terms of any depth -----------------------------------------------------

DEEP = 3000


def deep_join():
    t = Var("x1")
    for _ in range(DEEP):
        t = Join(t, Var("x1"))
    return t


def deep_complement():
    t = Var("x1")
    for _ in range(DEEP + 1):
        t = Complement(t)
    return t


def test_truth_table_of_a_deep_hand_built_term():
    assert truth_table(deep_join(), ["x1"]) == 0b10
    assert truth_table(deep_complement(), ["x1"]) == 0b01


def test_eval_term_of_a_deep_hand_built_term():
    assert eval_term(deep_join(), {"x1": Element(1, 1)}) == Element(1, 1)
    assert eval_term(deep_complement(), {"x1": Element(1, 2)}) == Element(2, 2)


def test_system_with_a_deep_hand_built_term():
    system = System(("x1", "x2"), (Equation(deep_join(), Var("x2")),))
    assert satisfies(system, {"x1": Element(1, 1), "x2": Element(1, 1)})
    assert not satisfies(system, {"x1": Element(1, 1), "x2": Element(0, 1)})
    assert orthogonalize(system).zeroed == (1, 2)
    assert term_variables(deep_join()) == ["x1"]


def test_run_evaluates_each_operator():
    program = compile_term(parse_term("!x1 * x2 + 0 + x1' * 1"))
    assert run(program, {"x1": 0b0011, "x2": 0b0101}, 0b1111) == 0b1100


def test_rank_mismatch_in_a_point():
    with pytest.raises(RankMismatchError):
        eval_term(Meet(Var("x1"), Var("x2")), {"x1": Element(1, 1), "x2": Element(1, 2)})


# --- the System type ----------------------------------------------------------


def test_parsed_and_hand_built_systems_are_equal():
    parsed = parse_system("vars x1, x2, x3;\nx1 * !x2 = x3'")
    built = System(
        ("x1", "x2", "x3"),
        (Equation(Meet(Var("x1"), Complement(Var("x2"))), Complement(Var("x3"))),),
    )
    assert parsed == built and hash(parsed) == hash(built)
    assert parsed.equations == built.equations
    assert repr(parsed) == repr(built)
    assert parsed != System(("x1", "x2", "x3"), ())


def test_system_is_frozen_and_pickles():
    s = parse_system("x1 + x2 = 1")
    with pytest.raises(FrozenInstanceError):
        s.variables = ("y",)
    assert pickle.loads(pickle.dumps(s)) == s


# --- repr of large orthogonal systems -----------------------------------------


def test_orthogonal_system_repr_at_twenty_variables():
    text = repr(OrthogonalSystem(20, (1 << (1 << 20)) - 1))
    assert text == "OrthogonalSystem(n=20, zeroed_mask=0x" + "f" * ((1 << 20) // 4) + ")"


def test_orthogonal_system_repr_round_trips():
    o = OrthogonalSystem(2, 0b0100)
    assert repr(o) == "OrthogonalSystem(n=2, zeroed_mask=0x4)"
    assert eval(repr(o)) == o
