"""Terms, equations and equation systems, with a text front end.

Concrete syntax (LL(1)):

    system  := [ "vars" name {"," name} sep ] eq { sep eq }
    eq      := term "=" term
    term    := factor { ("+" | "\\/") factor }
    factor  := unary { ("*" | "&") unary }
    unary   := "!" unary | atom ["'"]
    atom    := name | "0" | "1" | "(" term ")"

``sep`` is ``;`` or a newline; runs of separators collapse.  Complement
binds tighter than meet, meet tighter than join.  Juxtaposition is not
meet (``x1x2`` is a single name).  The word ``vars`` is reserved for the
optional declaration header.  Files conventionally use the ``.beq``
extension, UTF-8 encoded.

Terms nest at most :data:`MAX_TERM_DEPTH` levels deep; deeper input is a
:class:`ParseError`, never a ``RecursionError``.  Parsing, evaluation and
formatting loop over postfix programs, so they take terms of any depth.
"""

from __future__ import annotations

import re
from itertools import chain

from ._record import Record, restore, setfield
from .errors import ParseError


# --- abstract syntax ---------------------------------------------------


class Term:
    """Base class of term AST nodes."""

    __slots__ = ()


class Var(Term, Record):
    __slots__ = ("name",)


class Const(Term, Record):
    __slots__ = ("value",)


class Join(Term, Record):
    __slots__ = ("left", "right")


class Meet(Term, Record):
    __slots__ = ("left", "right")


class Complement(Term, Record):
    __slots__ = ("term",)


ZERO = Const(False)
ONE = Const(True)


class Equation(Record):
    __slots__ = ("lhs", "rhs")


class System(Record):
    """An ordered variable list plus a list of equations over it.

    Declared variables may go unused by the equations; they still count
    toward the system's variable space.  ``programs`` holds the postfix
    programs of each equation's two sides, which equality and hashing
    compare; ``equations``, the Term AST, is built from them on each read.
    """

    __slots__ = ("variables", "programs")

    def __init__(self, variables, equations):
        variables, equations = tuple(variables), tuple(equations)
        if len(variables) < 1:
            raise ValueError("a system needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        programs = tuple((compile_term(eq.lhs), compile_term(eq.rhs)) for eq in equations)
        declared = set(variables)
        for name in _names(chain.from_iterable(chain.from_iterable(programs))):
            if name not in declared:
                raise ValueError(f"equation uses undeclared variable {name!r}")
        setfield(self, "variables", variables)
        setfield(self, "programs", programs)

    @classmethod
    def _from_programs(cls, variables, programs) -> "System":
        return restore(cls, (variables, programs))

    @property
    def equations(self) -> tuple[Equation, ...]:
        return tuple(Equation(_build(lhs), _build(rhs)) for lhs, rhs in self.programs)

    def __repr__(self):
        return f"System(variables={self.variables!r}, equations={self.equations!r})"


def term_variables(t: Term) -> list[str]:
    """Variable names occurring in ``t``, in first-occurrence order."""
    return _names(compile_term(t))


# --- postfix programs ----------------------------------------------------

# A program is a term in postfix order: a tuple of variable names (str) and
# these opcodes.  A leaf pushes its value, _NOT complements the top of the
# stack, _JOIN and _MEET replace the top two with one.  Parsing, the
# variable scans, evaluation and formatting loop over programs, so no term
# depth can exhaust the interpreter stack.
_ZERO, _ONE, _JOIN, _MEET, _NOT = range(5)


def compile_term(t: Term) -> tuple:
    """The postfix program of ``t``, built without recursion."""
    # Each node is written before its right and then its left subtree, which
    # is the postfix order read backwards.
    out = []
    todo = [t]
    while todo:
        node = todo.pop()
        if isinstance(node, Var):
            if not isinstance(node.name, str):
                raise TypeError(f"variable name must be a str, got {node.name!r}")
            out.append(node.name)
        elif isinstance(node, Const):
            out.append(_ONE if node.value else _ZERO)
        elif isinstance(node, (Join, Meet)):
            out.append(_JOIN if isinstance(node, Join) else _MEET)
            todo += (node.left, node.right)
        elif isinstance(node, Complement):
            out.append(_NOT)
            todo.append(node.term)
        else:
            raise TypeError(f"not a term: {node!r}")
    out.reverse()
    return tuple(out)


def _fold(program, leaf, join, meet, complement):
    """``program`` folded on one stack: each name or constant opcode becomes
    ``leaf(op)``, and each operator applies its function to the top one or
    two values."""
    stack = []
    for op in program:
        if op is _NOT:
            stack[-1] = complement(stack[-1])
        elif op is _JOIN or op is _MEET:
            right = stack.pop()
            stack[-1] = (join if op is _JOIN else meet)(stack[-1], right)
        else:
            stack.append(leaf(op))
    return stack[0]


def _build(program) -> Term:
    """The Term AST of a postfix program."""
    leaf = {_ZERO: ZERO, _ONE: ONE}.get
    return _fold(program, lambda op: leaf(op) or Var(op), Join, Meet, Complement)


def _text(program) -> str:
    """The fully parenthesized text of a postfix program."""
    leaf, join, meet = {_ZERO: "0", _ONE: "1"}.get, "({} + {})".format, "({} * {})".format
    return _fold(program, lambda op: leaf(op, op), join, meet, "!({})".format)


def _names(items) -> list[str]:
    """The variable names among program items, in first-occurrence order."""
    seen = dict.fromkeys(items)
    for op in (_ZERO, _ONE, _JOIN, _MEET, _NOT):
        seen.pop(op, None)
    return list(seen)


def run(program, masks, full: int) -> int:
    """Evaluate ``program`` on bitmasks: a name reads ``masks[name]``, the
    constants are 0 and ``full``, join and meet are ``|`` and ``&``, and
    complement is XOR with ``full``."""
    stack = []
    push, pop = stack.append, stack.pop
    for op in program:
        if op.__class__ is str:
            push(masks[op])
        elif op is _JOIN:
            push(pop() | pop())
        elif op is _MEET:
            push(pop() & pop())
        elif op is _NOT:
            push(pop() ^ full)
        else:
            push(full if op is _ONE else 0)
    return stack[0]


# --- parser --------------------------------------------------------------

# One match per token: a name, the two-character join, or any other single
# character but a blank.  [^\W\d] also starts a name at numeric characters
# such as '²' that str.isalpha rejects; _check_names catches those.
_TOKEN = re.compile(r"[^\W\d]\w*|\\/|[^ \t\r]")

_BANG, _PRIME, _LPAREN, _RPAREN, _EQ, _SEP, _COMMA, _VARS, _EOF = range(5, 14)
# The kind of every token that is not a name; the empty string marks the end.
_KIND = {
    "0": _ZERO, "1": _ONE, "+": _JOIN, "\\/": _JOIN, "*": _MEET, "&": _MEET,
    "!": _BANG, "'": _PRIME, "(": _LPAREN, ")": _RPAREN, "=": _EQ,
    ";": _SEP, "\n": _SEP, ",": _COMMA, "vars": _VARS, "": _EOF,
}

# Deepest term accepted, counted two ways: binary operators plus
# complements on any root-to-leaf path of the tree (so a flat chain of k
# joins is k - 1 deep), and parentheses open at once.  Everything here
# loops over postfix programs and takes any depth; the bound protects what
# still recurses over the Term AST, the generated __eq__, __hash__ and
# repr of the node classes.
MAX_TERM_DEPTH = 200
_TOO_DEEP = f"term nested more than {MAX_TERM_DEPTH} levels deep"


class _Fail(Exception):
    """(token index or None, message) of a parse error."""


# ASCII text is cut at blanks once every operator and separator token has a
# blank on each side (str.split() would also drop the newlines).  Where that
# gives only tokens of _KIND and ASCII names, the cut is _TOKEN's; a digit
# run, a lone backslash or slash, a control character such as '\x0b', or any
# other character leaves a piece that is neither, and takes _TOKEN.
_PADDED = ("\\/", "(", ")", "!", "'", "*", "&", "+", "=", ";", ",", "\n")


def _cut(text: str) -> list[str] | None:
    """``_TOKEN.findall(text)`` by str methods, or None where they may differ."""
    if not text.isascii():
        return None
    cut = text.replace("\t", " ").replace("\r", " ")
    for token in _PADDED:
        cut = cut.replace(token, " " + token + " ")
    tokens = list(filter(None, cut.split(" ")))
    return tokens if all(map(str.isidentifier, set(tokens).difference(_KIND))) else None


def _scan(text: str) -> tuple[list[str], list]:
    tokens = _cut(text) or _TOKEN.findall(text)
    tokens.append("")
    return tokens, list(map(_KIND.get, tokens))


def _skip_seps(kinds: list, i: int) -> int:
    while kinds[i] is _SEP:
        i += 1
    return i


def _term(tokens: list[str], kinds: list, i: int) -> tuple[tuple, int]:
    """The program of the term starting at token ``i``, and the index of
    the token after it.  Operators wait on ``ops`` until an operand of
    lower or equal binding follows (shunting-yard); each open parenthesis
    saves the operator stack height and the '!' run before it."""
    program = []
    emit = program.append
    ops, groups, base = [], [], 0
    while True:
        bangs = 0
        kind = kinds[i]
        while kind is _BANG:
            bangs += 1
            i += 1
            kind = kinds[i]
        if kind is _LPAREN:
            if len(groups) >= MAX_TERM_DEPTH:
                raise _Fail(i, _TOO_DEEP)
            groups.append((base, bangs))
            base = len(ops)
            i += 1
            continue
        if kind is not None and kind > _ONE:  # not a name or a constant
            got = f"expected a term, got {tokens[i]!r}" if tokens[i] else "unexpected end of input"
            raise _Fail(i, "the word 'vars' is reserved" if kind is _VARS else got)
        emit(tokens[i] if kind is None else kind)
        i += 1
        while True:  # close the groups this operand ends
            if kinds[i] is _PRIME:
                emit(_NOT)
                i += 1
            if bangs:
                program += (_NOT,) * bangs
            kind = kinds[i]
            if kind is not _RPAREN or not groups:
                break
            while len(ops) > base:
                emit(ops.pop())
            base, bangs = groups.pop()
            i += 1
        if kind is _JOIN or kind is _MEET:
            while len(ops) > base and ops[-1] >= kind:
                emit(ops.pop())
            ops.append(kind)
            i += 1
        elif groups:
            raise _Fail(i, "expected ')'")
        else:
            program += reversed(ops)
            return tuple(program), i


def _bounded_term(tokens: list[str], kinds: list, i: int) -> tuple[tuple, int]:
    """:func:`_term`, rejected when deeper than MAX_TERM_DEPTH.  Every
    level is one operator or complement token, so only a term spanning more
    than MAX_TERM_DEPTH tokens needs the height pass."""
    program, end = _term(tokens, kinds, i)
    if end - i > MAX_TERM_DEPTH:
        def higher(left: int, right: int) -> int:  # one level above both operands
            return (left if left > right else right) + 1

        if _fold(program, lambda op: 0, higher, higher, (1).__add__) > MAX_TERM_DEPTH:
            raise _Fail(i, _TOO_DEEP)
    return program, end


def _header(tokens: list[str], kinds: list, i: int) -> tuple[dict, int]:
    """The names of the ``vars`` declaration after token ``i``."""
    names: dict[str, None] = {}
    while True:
        if kinds[i] is not None:
            raise _Fail(i, "expected a variable name in 'vars' declaration")
        if tokens[i] in names:
            raise _Fail(i, f"duplicate variable declaration {tokens[i]!r}")
        names[tokens[i]] = None
        if kinds[i + 1] is not _COMMA:
            break
        i += 2
    if kinds[i + 1] is not _SEP:
        raise _Fail(i + 1, "expected ';' or newline after 'vars' declaration")
    return names, i + 1


def _check_names(names) -> None:
    for name in names:
        if not (name[0].isalpha() or name[0] == "_"):
            raise _Fail(None, "")  # _error reports the character


def _error(text: str, index, msg: str) -> ParseError:
    """The ParseError for ``msg`` at token ``index`` (None: no position),
    unless ``text`` holds a character that starts no token: that is
    reported first, as the first error in the text."""
    offset = len(text)
    for k, match in enumerate(_TOKEN.finditer(text)):
        tok = match.group()
        if k == index:
            offset = match.start()
        if tok not in _KIND and not (tok[0].isalpha() or tok[0] == "_"):
            offset = match.start()
            msg = "expected '/' after '\\'" if tok == "\\" else f"unexpected character {tok[0]!r}"
            break
    else:
        if index is None:
            return ParseError(msg)
    line = text.count("\n", 0, offset) + 1
    return ParseError(msg, line, offset - text.rfind("\n", 0, offset))


def parse_system(text: str) -> System:
    """Parse a whole equation system.

    Variable order is declaration order when a ``vars`` header is present,
    otherwise first-occurrence order across the equations.
    """
    tokens, kinds = _scan(text)
    try:
        i = _skip_seps(kinds, 0)
        declared = None
        if kinds[i] is _VARS:
            declared, i = _header(tokens, kinds, i + 1)
            i = _skip_seps(kinds, i)
        if kinds[i] is _EOF:
            raise _Fail(i, "expected an equation")
        programs = []
        while kinds[i] is not _EOF:
            lhs, i = _bounded_term(tokens, kinds, i)
            if kinds[i] is not _EQ:
                raise _Fail(i, "expected '=' in equation")
            rhs, i = _bounded_term(tokens, kinds, i + 1)
            programs.append((lhs, rhs))
            if kinds[i] is _SEP:
                i = _skip_seps(kinds, i)
            elif kinds[i] is not _EOF:
                raise _Fail(i, f"expected ';' or newline, got {tokens[i]!r}")
        used = _names(chain.from_iterable(chain.from_iterable(programs)))
        undeclared = [name for name in used if declared is not None and name not in declared]
        if undeclared:
            raise _Fail(None, f"undeclared variable {undeclared[0]!r}")
        variables = tuple(used if declared is None else declared)
        if not variables:
            raise _Fail(None, "system declares no variables and uses none")
        _check_names(variables)
    except _Fail as exc:
        raise _error(text, *exc.args) from None
    return System._from_programs(variables, tuple(programs))


def parse_term(text: str) -> Term:
    """Parse a single term (no '=')."""
    tokens, kinds = _scan(text)
    try:
        program, i = _bounded_term(tokens, kinds, _skip_seps(kinds, 0))
        i = _skip_seps(kinds, i)
        if kinds[i] is not _EOF:
            raise _Fail(i, f"unexpected trailing input {tokens[i]!r}")
        _check_names(_names(program))
    except _Fail as exc:
        raise _error(text, *exc.args) from None
    return _build(program)


# --- formatting --------------------------------------------------------


def format_term(t: Term) -> str:
    """Fully parenthesized canonical text; parsing it back yields ``t``."""
    return _text(compile_term(t))


def format_equation(eq: Equation) -> str:
    return f"{format_term(eq.lhs)} = {format_term(eq.rhs)}"


def format_system(s: System) -> str:
    """Render with an explicit ``vars`` header so round trips preserve
    variable order and unused declarations."""
    lines = ["vars " + ", ".join(s.variables) + ";"]
    lines.extend(f"{_text(lhs)} = {_text(rhs)}" for lhs, rhs in s.programs)
    return "\n".join(lines)
