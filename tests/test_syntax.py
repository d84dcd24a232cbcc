"""Parsing and printing of terms, equations and systems."""

import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolgeo import (
    Complement,
    Const,
    Equation,
    Join,
    Meet,
    ParseError,
    System,
    Var,
    format_equation,
    format_system,
    format_term,
    parse_system,
    parse_term,
)
from boolgeo.syntax import MAX_TERM_DEPTH
from oracles import random_term

X1, X2 = Var("x1"), Var("x2")


class TestParseSystem:
    def test_meet_equation(self):
        s = parse_system("x1 * x2 = x2")
        assert s.variables == ("x1", "x2")
        assert s.equations == (Equation(Meet(X1, X2), X2),)

    def test_constant_equation(self):
        s = parse_system("x1 = 1")
        assert s.variables == ("x1",)
        assert s.equations == (Equation(X1, Const(True)),)

    def test_mixed_operators(self):
        s = parse_system("!x1 + x2 = !(x3 * x4)")
        assert s.variables == ("x1", "x2", "x3", "x4")
        (eq,) = s.equations
        assert eq.lhs == Join(Complement(X1), X2)
        assert eq.rhs == Complement(Meet(Var("x3"), Var("x4")))

    def test_alternate_operator_spellings(self):
        s = parse_system(r"x1 \/ x2 = x1 & x2")
        (eq,) = s.equations
        assert eq.lhs == Join(X1, X2)
        assert eq.rhs == Meet(X1, X2)

    def test_postfix_complement(self):
        (eq,) = parse_system("x1' = x2").equations
        assert eq.lhs == Complement(X1)

    def test_multiple_equations_and_separators(self):
        s = parse_system("x1 = 0; x2 = 1\n\nx1 = x2;\n")
        assert len(s.equations) == 3
        assert s.variables == ("x1", "x2")

    def test_first_occurrence_order(self):
        s = parse_system("x2 = x1; x3 = x2")
        assert s.variables == ("x2", "x1", "x3")

    def test_vars_header_sets_order_and_allows_unused(self):
        s = parse_system("vars x1, x2, x3;\nx2 = 1")
        assert s.variables == ("x1", "x2", "x3")
        assert len(s.equations) == 1

    def test_vars_header_newline_terminator(self):
        s = parse_system("vars a, b\na = b")
        assert s.variables == ("a", "b")


class TestParseErrors:
    def test_duplicate_declaration(self):
        with pytest.raises(ParseError) as info:
            parse_system("vars x1, x1;\nx1 = 0")
        assert info.value.line == 1
        assert info.value.column == 10

    def test_undeclared_variable(self):
        with pytest.raises(ParseError):
            parse_system("vars x1;\nx2 = 0")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError) as info:
            parse_system("x1 = (x2 + x1")
        assert info.value.line == 1
        assert info.value.column == 14

    def test_unknown_operator(self):
        with pytest.raises(ParseError) as info:
            parse_system("x1 ? x2 = 0")
        assert "?" in str(info.value)
        assert info.value.column == 4

    def test_missing_equals(self):
        with pytest.raises(ParseError):
            parse_system("x1 + x2")

    def test_juxtaposition_is_not_meet(self):
        # 'x1 x2' is two names with no operator between them.
        with pytest.raises(ParseError):
            parse_system("x1 x2 = x2")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_system("")

    def test_vars_is_reserved(self):
        with pytest.raises(ParseError):
            parse_system("vars = 1")

    def test_lone_backslash(self):
        with pytest.raises(ParseError):
            parse_system("x1 \\ x2 = 0")

    def test_error_prefix_carries_position(self):
        try:
            parse_system("x1 = (")
        except ParseError as exc:
            assert str(exc).startswith("line 1, column 7")
        else:
            pytest.fail("expected a parse error")


class TestPrecedence:
    def test_complement_meet_join_ordering(self):
        assert parse_term("!x1 * x2 + x3") == Join(
            Meet(Complement(X1), X2), Var("x3")
        )

    def test_join_is_left_associative(self):
        assert parse_term("x1 + x2 + x3") == Join(Join(X1, X2), Var("x3"))

    def test_meet_is_left_associative(self):
        assert parse_term("x1 * x2 * x3") == Meet(Meet(X1, X2), Var("x3"))

    def test_parens_override(self):
        assert parse_term("x1 * (x2 + x3)") == Meet(X1, Join(X2, Var("x3")))

    def test_double_bang(self):
        assert parse_term("!!x1") == Complement(Complement(X1))

    def test_bang_over_prime(self):
        assert parse_term("!x1'") == Complement(Complement(X1))


class TestFormat:
    def test_meet(self):
        assert format_term(Meet(X1, X2)) == "(x1 * x2)"

    def test_const(self):
        assert format_term(Const(False)) == "0"
        assert format_term(Const(True)) == "1"

    def test_complement_of_join_round_trips(self):
        t = Complement(Join(Var("a"), Const(True)))
        text = format_term(t)
        assert text == "!((a + 1))"
        assert parse_term(text) == t

    def test_format_equation(self):
        equation = Equation(Meet(X1, X2), Complement(Const(True)))
        assert format_equation(equation) == "(x1 * x2) = !(1)"

    def test_format_system_round_trips(self):
        s = parse_system("vars x1, x2, x3;\nx2 = 1; x1 * x3 = x2")
        assert parse_system(format_system(s)) == s

    def test_terms_deeper_than_the_interpreter_stack_format(self):
        # Built through the API, past what the parser accepts; formatting
        # loops over the postfix program and does not recurse.
        t = X1
        for _ in range(5000):
            t = Join(t, X2)
        text = format_term(t)
        assert text == "(" * 5000 + "x1" + " + x2)" * 5000
        system = format_system(System(("x1", "x2"), [Equation(t, Complement(X1))]))
        assert system == f"vars x1, x2;\n{text} = !(x1)"


names = st.sampled_from(["x1", "x2", "x3", "a", "b_2"])
terms = st.recursive(
    st.one_of(
        st.builds(Var, names),
        st.sampled_from([Const(False), Const(True)]),
    ),
    lambda sub: st.one_of(
        st.builds(Join, sub, sub),
        st.builds(Meet, sub, sub),
        st.builds(Complement, sub),
    ),
    max_leaves=30,
)


@given(terms)
def test_round_trip_property(t):
    assert parse_term(format_term(t)) == t


def test_round_trip_seeded_sweep():
    rng = random.Random(20240901)
    pool = ("x1", "x2", "x3", "y", "long_name7")
    for _ in range(500):
        t = random_term(rng, pool, depth=8)
        assert parse_term(format_term(t)) == t


class TestNestingLimit:
    def test_parentheses_up_to_the_limit(self):
        depth = MAX_TERM_DEPTH
        assert parse_term("(" * depth + "x1" + ")" * depth) == X1

    def test_parentheses_past_the_limit(self):
        depth = MAX_TERM_DEPTH + 1
        with pytest.raises(ParseError, match="nested more than") as info:
            parse_term("(" * depth + "x1" + ")" * depth)
        assert info.value.column == depth

    def test_deep_nesting_is_a_parse_error_not_recursion(self):
        with pytest.raises(ParseError):
            parse_system("(" * 1200 + "x1" + ")" * 1200 + " = x1 * x2")

    def test_complements_count_levels(self):
        t = parse_term("!" * (MAX_TERM_DEPTH - 1) + "x1'")
        assert parse_term(format_term(t)) == t
        with pytest.raises(ParseError, match="nested more than"):
            parse_term("!" * MAX_TERM_DEPTH + "x1'")

    def test_flat_chain_up_to_the_limit_round_trips(self):
        t = parse_term(" + ".join(["x1"] * (MAX_TERM_DEPTH + 1)))
        assert parse_term(format_term(t)) == t

    def test_flat_chain_past_the_limit(self):
        with pytest.raises(ParseError, match="nested more than"):
            parse_term(" * ".join(["x1"] * (MAX_TERM_DEPTH + 2)))
        with pytest.raises(ParseError, match="nested more than"):
            parse_system(" + ".join(f"x{i % 4 + 1}" for i in range(3000)) + " = x1")

    def test_balanced_groups_keep_long_joins_shallow(self):
        groups = [" + ".join(["x1", "x2"] * 50)] * 30
        s = parse_system(" + ".join(f"({g})" for g in groups) + " = x1")
        assert s.variables == ("x1", "x2")


class TestSystemType:
    def test_needs_a_variable(self):
        with pytest.raises(ValueError):
            System((), ())

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            System(("x1", "x1"), ())

    def test_rejects_undeclared_equation_variables(self):
        with pytest.raises(ValueError):
            System(("x1",), (Equation(X2, Const(False)),))

    @pytest.mark.parametrize(
        "term, message",
        [(Var(3), "variable name must be a str, got 3"), (Join(1, 2), "not a term: 2")],
        ids=["Var(3)", "Join(1, 2)"],
    )
    def test_terms_are_checked_when_compiled(self, term, message):
        # A term's constructor stores its fields as given; System refuses
        # what is not a term when it compiles the equations.
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            System(("x1",), [Equation(term, X1)])

    def test_empty_equation_list_is_valid(self):
        s = System(("x1", "x2"), ())
        assert s.equations == ()
