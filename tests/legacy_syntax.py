"""The .beq tokenizer and recursive-descent parser as they were before
parsing compiled terms to postfix programs, kept verbatim as the reference
for the differential tests in ``test_programs.py``.  Not part of the
package."""

from __future__ import annotations

from dataclasses import dataclass

from boolgeo.errors import ParseError
from boolgeo.syntax import Complement, Const, Equation, Join, Meet, System, Term, Var


def _deeper_than(t: Term, limit: int) -> bool:
    """True when some root-to-leaf path of ``t`` passes more than ``limit``
    operators and complements.  Iterative, so any depth is safe."""
    stack = [(t, 0)]
    while stack:
        node, depth = stack.pop()
        if depth > limit:
            return True
        if isinstance(node, (Join, Meet)):
            stack.append((node.left, depth + 1))
            stack.append((node.right, depth + 1))
        elif isinstance(node, Complement):
            stack.append((node.term, depth + 1))
    return False


def term_variables(t: Term) -> list[str]:
    """Variable names occurring in ``t``, in first-occurrence order."""
    seen: dict[str, None] = {}
    _collect_vars(t, seen)
    return list(seen)


def _collect_vars(t: Term, seen: dict[str, None]) -> None:
    if isinstance(t, Var):
        seen.setdefault(t.name, None)
    elif isinstance(t, Complement):
        _collect_vars(t.term, seen)
    elif isinstance(t, (Join, Meet)):
        _collect_vars(t.left, seen)
        _collect_vars(t.right, seen)


# --- lexer -------------------------------------------------------------

_VARS_KEYWORD = "vars"

# token kinds
_NAME, _CONST, _JOIN, _MEET, _BANG, _PRIME = "name", "const", "join", "meet", "bang", "prime"
_LPAREN, _RPAREN, _EQ, _SEP, _COMMA, _VARS, _EOF = (
    "lparen", "rparen", "eq", "sep", "comma", "vars", "eof",
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _is_name_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_name_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            tokens.append(_Token(_SEP, "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if c == ";":
            tokens.append(_Token(_SEP, ";", line, start_col))
        elif c == ",":
            tokens.append(_Token(_COMMA, c, line, start_col))
        elif c == "=":
            tokens.append(_Token(_EQ, c, line, start_col))
        elif c == "+":
            tokens.append(_Token(_JOIN, c, line, start_col))
        elif c == "\\":
            if i + 1 < n and text[i + 1] == "/":
                tokens.append(_Token(_JOIN, "\\/", line, start_col))
                i += 1
                col += 1
            else:
                raise ParseError("expected '/' after '\\'", line, start_col)
        elif c in "*&":
            tokens.append(_Token(_MEET, c, line, start_col))
        elif c == "!":
            tokens.append(_Token(_BANG, c, line, start_col))
        elif c == "'":
            tokens.append(_Token(_PRIME, c, line, start_col))
        elif c == "(":
            tokens.append(_Token(_LPAREN, c, line, start_col))
        elif c == ")":
            tokens.append(_Token(_RPAREN, c, line, start_col))
        elif c in "01":
            tokens.append(_Token(_CONST, c, line, start_col))
        elif _is_name_start(c):
            j = i + 1
            while j < n and _is_name_char(text[j]):
                j += 1
            word = text[i:j]
            kind = _VARS if word == _VARS_KEYWORD else _NAME
            tokens.append(_Token(kind, word, line, start_col))
            col += j - i
            i = j
            continue
        else:
            raise ParseError(f"unexpected character {c!r}", line, start_col)
        i += 1
        col += 1
    tokens.append(_Token(_EOF, "", line, col))
    return tokens


# --- parser ------------------------------------------------------------

# Deepest term accepted, counted two ways: binary operators plus
# complements on any root-to-leaf path of the tree (so a flat chain of k
# joins is k - 1 deep), and parentheses open at once.  Term walkers recurse
# up to three frames per tree level and the parser four per parenthesis, so
# 200 stays below Python's default recursion limit of 1000.
MAX_TERM_DEPTH = 200


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.open_parens = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != _EOF:
            self.pos += 1
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    def skip_seps(self) -> None:
        while self.peek().kind == _SEP:
            self.advance()

    def parse_system(self) -> System:
        self.skip_seps()
        declared = None
        if self.peek().kind == _VARS:
            declared = self.parse_header()
            self.skip_seps()
        equations = []
        occurrence: dict[str, None] = {}
        if self.peek().kind == _EOF:
            raise self.fail("expected an equation")
        while self.peek().kind != _EOF:
            eq = self.parse_equation()
            equations.append(eq)
            for name in term_variables(eq.lhs) + term_variables(eq.rhs):
                occurrence.setdefault(name, None)
            if self.peek().kind == _SEP:
                self.skip_seps()
            elif self.peek().kind != _EOF:
                raise self.fail(f"expected ';' or newline, got {self.peek().text!r}")
        if declared is not None:
            names = set(declared)
            for name in occurrence:
                if name not in names:
                    raise ParseError(f"undeclared variable {name!r}")
            variables = tuple(declared)
        else:
            variables = tuple(occurrence)
        if not variables:
            raise ParseError("system declares no variables and uses none")
        return System(variables, tuple(equations))

    def parse_header(self) -> list[str]:
        self.advance()  # 'vars'
        names: list[str] = []
        seen = set()
        while True:
            tok = self.peek()
            if tok.kind != _NAME:
                raise self.fail("expected a variable name in 'vars' declaration")
            if tok.text in seen:
                raise ParseError(
                    f"duplicate variable declaration {tok.text!r}", tok.line, tok.column
                )
            seen.add(tok.text)
            names.append(self.advance().text)
            if self.peek().kind == _COMMA:
                self.advance()
                continue
            break
        if self.peek().kind != _SEP:
            raise self.fail("expected ';' or newline after 'vars' declaration")
        return names

    def parse_equation(self) -> Equation:
        lhs = self.parse_bounded_term()
        if self.peek().kind != _EQ:
            raise self.fail("expected '=' in equation")
        self.advance()
        rhs = self.parse_bounded_term()
        return Equation(lhs, rhs)

    def too_deep(self, tok: _Token) -> ParseError:
        return ParseError(
            f"term nested more than {MAX_TERM_DEPTH} levels deep", tok.line, tok.column
        )

    def parse_bounded_term(self) -> Term:
        """A whole term, rejected when deeper than MAX_TERM_DEPTH.

        Every level of depth is one operator or complement token, so a term
        spanning at most MAX_TERM_DEPTH tokens needs no depth walk.
        """
        first, start = self.peek(), self.pos
        t = self.parse_term()
        if self.pos - start > MAX_TERM_DEPTH and _deeper_than(t, MAX_TERM_DEPTH):
            raise self.too_deep(first)
        return t

    def parse_term(self) -> Term:
        t = self.parse_factor()
        while self.peek().kind == _JOIN:
            self.advance()
            t = Join(t, self.parse_factor())
        return t

    def parse_factor(self) -> Term:
        t = self.parse_unary()
        while self.peek().kind == _MEET:
            self.advance()
            t = Meet(t, self.parse_unary())
        return t

    def parse_unary(self) -> Term:
        # A run of '!' prefixes is counted in a loop, not parsed by
        # recursion; each complements everything after it, prime included.
        bangs = 0
        while self.peek().kind == _BANG:
            self.advance()
            bangs += 1
        t = self.parse_atom()
        if self.peek().kind == _PRIME:
            self.advance()
            t = Complement(t)
        while bangs:
            t = Complement(t)
            bangs -= 1
        return t

    def parse_atom(self) -> Term:
        tok = self.peek()
        if tok.kind == _NAME:
            self.advance()
            return Var(tok.text)
        if tok.kind == _CONST:
            self.advance()
            return Const(tok.text == "1")
        if tok.kind == _LPAREN:
            if self.open_parens >= MAX_TERM_DEPTH:
                raise self.too_deep(tok)
            self.open_parens += 1
            self.advance()
            t = self.parse_term()
            if self.peek().kind != _RPAREN:
                raise self.fail("expected ')'")
            self.advance()
            self.open_parens -= 1
            return t
        if tok.kind == _VARS:
            raise self.fail("the word 'vars' is reserved")
        raise self.fail(f"expected a term, got {tok.text!r}" if tok.text else "unexpected end of input")


def parse_system(text: str) -> System:
    """Parse a whole equation system.

    Variable order is declaration order when a ``vars`` header is present,
    otherwise first-occurrence order across the equations.
    """
    return _Parser(_tokenize(text)).parse_system()


def parse_term(text: str) -> Term:
    """Parse a single term (no '=')."""
    parser = _Parser(_tokenize(text))
    parser.skip_seps()
    t = parser.parse_bounded_term()
    parser.skip_seps()
    if parser.peek().kind != _EOF:
        raise parser.fail(f"unexpected trailing input {parser.peek().text!r}")
    return t
