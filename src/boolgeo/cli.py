"""Command-line front end.

Subcommands: orthogonalize, solve, decompose, classify, iso, stats, with
options declared once in ``_OPTIONS``; argparse is built from that table
only for help, usage errors and spellings that the table's reader declines.
Systems are read inline (-e), from a file (-f) or from standard input,
either as ``.beq`` equation text or as orthogonal-system JSON
(auto-detected by a leading '{'), so commands compose in pipelines:

    boolgeo orthogonalize -e "x1 * x2 = x2" | boolgeo decompose --rank 2

Exit codes: 0 success, 1 parse error, 2 limit exceeded, 3 inconsistent
system where consistency is required, 4 bad arguments; ``_EXIT_CODES``
maps each error class to its code.  A reader that closes standard output
early (``| head``) ends the run quietly with exit 0.
"""

from __future__ import annotations

import math
import operator
import os
import sys
from functools import lru_cache, partial
from itertools import chain, repeat
from types import SimpleNamespace

from . import geometry, solve
from .algebra import _INDICES, _byte_texts, bits_text, check_rank
from .errors import (
    BoolgeoError,
    InconsistentSystemError,
    LimitExceededError,
    MissingVariableError,
    ParseError,
    RankMismatchError,
    SystemMismatchError,
)
# perfbench/tracing.py wraps parse_system, orthogonalize and x_from_z here;
# x_from_z is imported for that alone.
from .ortho import (  # noqa: F401
    MAX_VARS_ENV,
    OrthogonalSystem,
    _decimals,
    check_var_limit,
    mask_text,
    minterm_labels,
    orthogonalize,
    x_from_z,
)
from .syntax import parse_system

# The modules that only some commands use (json, csv, decimal, fractions,
# collections and boolgeo.stats) are imported where they are used, so that
# starting the command line imports none of them.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Sequence
    from decimal import Decimal
    from fractions import Fraction
    from typing import IO

# decompose refuses (exit 2) to write more components than this; the count,
# C(s, r) for s surviving minterms, is known before any component is built.
MAX_COMPONENTS = 10**6

# stats refuses (exit 2) an exact value whose cost exceeds this, about 2 s:
# m * (r + _AVG_IRR_TEXT_COST) for --avg-irr, and _STATS_COST_PER_M2 times
# m * m for --iso-prob.  --avg-irr walks r + 1 binomials of up to m bits, r
# big-int steps on m-bit numbers (1.4 s at m = r = 70000), then writes two
# m-bit integers in decimal at about the cost of _AVG_IRR_TEXT_COST walk
# steps per bit (1.4 s at m = 9.7 * 10**6).  --iso-prob's closed form
# comb(2m, m) / 4**m, reduced, and its decimal text take 0.04 s at its
# limit m = 25000 on a 2-vCPU machine (0.1 s for the whole process).
# --avg-ir's m/2 costs nothing at any m and has no limit.
MAX_STATS_COST = 5 * 10**9
_STATS_COST_PER_M2 = {"iso-prob": 8}
_AVG_IRR_TEXT_COST = 512
# --samples N draws N masks of m random bits (2N for --iso-prob), each at
# about the cost of m + _DRAW_COST bits, and refuses (exit 2) more than
# MAX_STATS_COST bits in all: N goes up to 75120 at m = 65536 and 976562
# at m = 4096, about 2 s each.
_DRAW_COST = 1024


class _UsageError(BoolgeoError):
    pass


# The first entry whose classes match an error gives the exit code; any
# other error is a bug and ends in a traceback.
_EXIT_CODES = (
    ((ParseError,), 1),
    ((LimitExceededError,), 2),
    ((InconsistentSystemError,), 3),
    (
        (
            _UsageError,
            SystemMismatchError,
            RankMismatchError,
            MissingVariableError,
            ValueError,
            OSError,
        ),
        4,
    ),
)
_REPORTED = tuple(cls for classes, _ in _EXIT_CODES for cls in classes)


def _row(*flags: str, **kw) -> tuple:
    """An option: its strings and the keywords of argparse's add_argument."""
    return flags, kw


_FORMAT, _FORMAT_JSON = (
    _row("--format", dest="fmt", choices=("text", "json", "csv"), default=default,
         help=f"output format (default {default})") for default in ("text", "json")
)  # fmt: skip
_INPUT = (
    _row("-e", "--expr", help="inline system text"),
    _row("-f", "--file", dest="path", help="read system from a file"),
)
_MAX_VARS = _row("--max-vars", type=int, help="variable limit (default 16 for .beq input, none "
                 f"below the hard cap for JSON input; ${MAX_VARS_ENV})")  # fmt: skip
_RANK_ROWS = (_MAX_VARS, _FORMAT, _row("--rank", type=int, required=True, help="algebra rank r"))
# Each command's options, declared once for the reader and for argparse: its
# help line, the rows that exclude each other and its other rows, in the
# order that its help lists them.
_OPTIONS = {
    "orthogonalize": ("reduce a system to orthogonal form", _INPUT, (_MAX_VARS, _FORMAT_JSON)),
    "solve": ("enumerate or count solutions", _INPUT, (
        *_RANK_ROWS,
        _row("--limit", type=int, help="emit at most this many solutions"),
        _row("--count", dest="count_only", action="store_true",
             help="print the exact solution count only"),
        _row("--z", dest="z_space", action="store_true", help="emit minterm-space points instead"),
    )),
    "decompose": ("split into irreducible components", _INPUT, _RANK_ROWS),
    "classify": ("coordinate rank, irreducibility, component count", _INPUT, _RANK_ROWS),
    "iso": ("decide whether two systems' solution sets are isomorphic", (), (
        _row("files", nargs="*", help="system files (two total inputs needed)"),
        _row("-e", "--expr", action="append", default=[], help="inline system text (repeatable)"),
        _MAX_VARS,
        _FORMAT,
    )),
    "stats": ("exact averages and probabilities", (), (
        _FORMAT,
        _row("--avg-irr", nargs=2, metavar=("M", "R"),
             help="average component count; M may be a comma list"),
        _row("--avg-ir", metavar="M", help="average irreducibility rank; M may be a comma list"),
        _row("--iso-prob", metavar="M", help="isomorphic-pair probability; M may be a comma list"),
        _row("--exhaustive", action="store_true", help="compute --avg-irr by full enumeration"),
        _row("--samples", type=int, help="add a Monte Carlo estimate from N samples"),
        _row("--seed", type=int, default=0, help="seed for --samples (default 0)"),
    )),
}  # fmt: skip


def _reader_table(exclusive: tuple, rows: tuple) -> tuple:
    """A command's rows as :func:`_read` reads them: {option string: (dest,
    values taken, type, choices, whether it appends)}, the defaults, the
    positional's dest or None, the required dests and those of -e and -f."""
    options, defaults, positional, required = {}, {}, None, set()
    for flags, kw in (*exclusive, *rows):
        action = kw.get("action")
        dest = kw.get("dest") or flags[-1].lstrip("-").replace("-", "_")
        defaults[dest] = kw.get("default", False if action == "store_true" else None)
        if kw.get("required"):
            required.add(dest)
        if kw.get("nargs") == "*":
            positional, defaults[dest] = dest, []
            continue
        count = 0 if action == "store_true" else kw.get("nargs", 1)
        spec = (dest, count, kw.get("type"), kw.get("choices"), action == "append")
        options.update(dict.fromkeys(flags, spec))
    return options, defaults, positional, required, {options[flags[0]][0] for flags, _ in exclusive}


_READER = {name: _reader_table(exclusive, rows) for name, (_, exclusive, rows) in _OPTIONS.items()}


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The namespace that argparse gives for argv if argv is a command name
    and exact option strings of that command, each followed by its values,
    none starting with '-'; int values convert with ``int()``, --format is
    one of its choices, iso's files form one run, -e and -f are not both
    given and --rank is.  Otherwise None: help, ``--rank=2``, abbreviations,
    ``--``, negative values and every usage error are left to argparse."""
    if not argv or argv[0] not in _READER:
        return None
    options, defaults, positional, required, exclusive = _READER[argv[0]]
    args = {dest: value[:] if type(value) is list else value for dest, value in defaults.items()}
    given, i, opened, closed = set(), 1, False, False  # iso's files: begun, then ended
    while i < len(argv):
        arg = argv[i]
        if arg not in options:
            if positional is None or closed or arg.startswith("-"):
                return None
            args[positional].append(arg)
            opened, i = True, i + 1
            continue
        dest, count, type_, choices, append = options[arg]
        values = argv[i + 1 : i + 1 + count]
        if len(values) < count or any(value.startswith("-") for value in values):
            return None
        closed, i = opened, i + 1 + count
        value = values[0] if count == 1 else values or True  # a flag takes no value
        if type_ is not None:
            try:
                value = type_(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        if append:
            args[dest].append(value)
        else:
            args[dest] = value
        given.add(dest)
    if len(given & exclusive) > 1 or not given >= required:
        return None
    return SimpleNamespace(command=argv[0], **args)


def _argparse_parser():
    """The argparse parser declared from ``_OPTIONS``, for what :func:`_read`
    declines: it prints help, raises _UsageError or parses the spelling."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

    parser = _Parser(prog="boolgeo", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (text, exclusive, rows) in _OPTIONS.items():
        p = sub.add_parser(name, help=text)
        group = p.add_mutually_exclusive_group() if exclusive else None
        for flags, kw in exclusive:
            group.add_argument(*flags, **kw)
        for flags, kw in rows:
            p.add_argument(*flags, **kw)
    return parser


class _CommandLine:
    def parse_args(self, args: Sequence[str] | None = None) -> SimpleNamespace:
        argv = sys.argv[1:] if args is None else list(args)
        return _read(argv) or _argparse_parser().parse_args(argv, SimpleNamespace())


def build_parser() -> _CommandLine:
    """A new parser for the boolgeo command line: ``parse_args`` reads a
    well-formed command line from the option table alone and builds the
    argparse parser only for the rest (see :func:`_read`)."""
    return _CommandLine()


def _int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"{flag} expects an integer or comma list, got {text!r}") from None


def config_from_args(args: SimpleNamespace) -> SimpleNamespace:
    """Checks and normalizes parsed arguments in place and returns them:
    iso's systems become (text, path) pairs, inline texts first, and each
    stats list becomes a tuple of ints, or None when absent or empty."""
    if args.command == "iso":
        args.inputs = [(text, None) for text in args.expr] + [(None, path) for path in args.files]
    elif args.command == "stats":
        if args.avg_irr:
            ms = _int_list(args.avg_irr[0], "--avg-irr")
            try:
                args.avg_irr = (ms, int(args.avg_irr[1]))
            except ValueError:
                raise _UsageError("--avg-irr R must be an integer") from None
        args.avg_ir = _int_list(args.avg_ir, "--avg-ir") if args.avg_ir else None
        args.iso_prob = _int_list(args.iso_prob, "--iso-prob") if args.iso_prob else None
    return args


# --- input loading ------------------------------------------------------


def _read_input(expr: str | None, path: str | None, stdin: IO[str]) -> str:
    if expr is not None:
        return expr
    if path is not None:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    return stdin.read()


def _load_ortho(text: str, max_vars: int | None):
    """Returns (orthogonal system, source system or None).

    JSON input is held to an explicit limit (``--max-vars`` or
    $BOOLGEO_MAX_VARS) and otherwise only to the hard cap."""
    if text.lstrip().startswith("{"):
        import json

        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc.msg}", exc.lineno, exc.colno) from None
        except (ValueError, RecursionError) as exc:  # an int past the digit cap, or deep nesting
            raise ParseError(f"bad JSON: {exc}") from None
        o = OrthogonalSystem.from_json_dict(data)
        if max_vars is not None or MAX_VARS_ENV in os.environ:
            check_var_limit(o.n, max_vars)
        return o, None
    system = parse_system(text)
    return orthogonalize(system, max_vars=max_vars), system


# --- per-command output -------------------------------------------------


def _emit(fmt: str, out: IO[str], record: dict, text: str) -> None:
    """Writes one record: as JSON, as a csv header of its keys over a row
    of its values, or as the given text."""
    if fmt == "json":
        import json

        print(json.dumps(record), file=out)
    elif fmt == "csv":
        import csv

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(record)
        writer.writerow(record.values())
    else:
        print(text, file=out)


def _cmd_orthogonalize(args: SimpleNamespace, stdin: IO[str], out: IO[str]) -> None:
    o, _ = _load_ortho(_read_input(args.expr, args.path, stdin), args.max_vars)
    # The bytes are those of json.dumps(o.to_json_dict()), of csv.writer
    # rows and of print(o.render_text()).
    if args.fmt == "json":
        zeroed = mask_text(o.n, ", ")(o.zeroed_mask)
        out.write(f'{{"n": {o.n}, "A": [{zeroed}], "layout": "lsb-first"}}\n')
    elif args.fmt == "csv":
        zeroed = mask_text(o.n, " ")(o.zeroed_mask)
        out.write(f"n,zeroed_count,zeroed\n{o.n},{o.num_zeroed},{zeroed}\n")
    elif o.num_zeroed:
        print(o.render_text(), file=out)


def _cmd_solve(args: SimpleNamespace, stdin: IO[str], out: IO[str]) -> None:
    check_rank(args.rank)
    if args.limit is not None and args.limit < 0:
        raise _UsageError("--limit must be nonnegative")
    o, system = _load_ortho(_read_input(args.expr, args.path, stdin), args.max_vars)
    if args.count_only:
        count = solve.count_solutions(o, args.rank)
        _emit(args.fmt, out, {"count": count}, str(count))
        return

    rank = args.rank
    if args.z_space:
        headers = minterm_labels(range(o.num_minterms), o.n)
    elif system is not None:
        headers = list(system.variables)
    else:
        headers = [f"x{i + 1}" for i in range(o.n)]
    # A point is an opening, a prefix and a cell text per column joined by
    # ``between``, and a closing; the bytes are those of printing each ZPoint
    # or XPoint, of csv.writer rows or of json.dumps of the whole payload.
    opening, between, closing, separator, ending = "", " ", "\n", "", ""
    prefixes = [""] * len(headers)
    if args.fmt == "json":
        import json

        opening, between, closing, separator, ending = "{", ", ", "}", ", ", "]}\n"
        if args.z_space:
            opening, closing = '{"cells": [', "]}"
        else:
            prefixes = [json.dumps(h) + ": " for h in headers]
        out.write(f'{{"layout": "lsb-first", "rank": {rank}, "solutions": [')
    elif args.fmt == "csv":
        import csv

        csv.writer(out, lineterminator="\n").writerow(headers)
        between = ","
    else:
        prefixes = [h + "=" for h in headers]

    total = solve.count_solutions(o, rank)
    if args.limit is not None:
        total = min(total, args.limit)
    tails, heads = solve.split_atoms(o, rank, z_space=args.z_space, points=total)
    ((t, table),) = tails.items()
    cells = _cells(args.fmt, rank)
    # The literals around the live columns' cells: one before the first, then
    # one after each, with each forced-zero cell's text folded in.
    literals, text, live = [], separator + opening, set(table.live)
    for column, prefix in enumerate(prefixes):
        text += (between if column else "") + prefix
        if column in live:
            literals.append(text)
            text = ""
        else:
            text += cells[0]
    literals.append(text + closing)
    rows, width, columns = len(table), len(live), []
    if rows == 1:  # one row shares no text: its cells go between the literals
        parts = [literals[0], *chain.from_iterable(zip(repeat(""), literals[1:]))]

        def fill(head):
            parts[1::2] = map(cells.__getitem__, head)
            return parts
    else:  # a slot is a live column and a tail subset j; its texts are built once per head mask
        shifts = [j << rank - t for j in range(1 << t)]

        def slot_texts(lead, end, head):
            return [lead + cells[head | mask] + end for mask in shifts]

        leads = [literals[0]] + [""] * (width - 1)
        columns = [solve.MaskCache(partial(slot_texts, *ends)) for ends in zip(leads, literals[1:])]
        pick = operator.itemgetter(*table.slots)

        def fill(head):
            return pick(list(chain.from_iterable(map(solve.MaskCache.__getitem__, columns, head))))

    # A group's texts hold a point per row; the first drops its separator.
    for done, (head, _) in zip(range(0, total, rows), heads):
        texts = fill(head)
        if done + rows > total:  # the last group, cut short
            texts = texts[: (total - done) * width]
        out.write("".join(texts)[0 if done else len(separator) :])
        if len(cells) > 1 << 16:  # all cells up to rank 16; past it few come back
            for cache in (cells, *columns):
                cache.clear()
    out.write(ending)


def _cells(fmt: str, rank: int) -> list[str] | solve.MaskCache:
    """Each solution cell's text by its mask: the JSON list of its atoms, or
    ``{0,2}``, which csv.writer quotes when it holds a comma.  Up to rank 8
    it wraps each entry of the byte table that bits_text reads; past it each
    mask is rendered on first use."""
    sep = ", " if fmt == "json" else ","
    left, right = ("[", "]") if fmt == "json" else ("{", "}")
    quoted = fmt == "csv"
    atoms = _byte_texts(sep, _INDICES[:8]).__getitem__ if rank <= 8 else bits_text(sep, rank)

    def text(mask: int) -> str:
        body = atoms(mask)
        return '"{' + body + '}"' if quoted and "," in body else left + body + right

    return list(map(text, range(1 << rank))) if rank <= 8 else solve.MaskCache(text)


@lru_cache(maxsize=4)
def _number_block(k: int) -> tuple[str, ...]:
    """The texts of the numbers 1000k to 1000k + 999, built once per block."""
    return tuple(str(k) + d for d in _decimals(3)) if k else _decimals(1)


def _write_groups(out, heads, rows, fill, opening, separator, numbering=None):
    """Writes decompose's items, one ``str.join`` per group.

    ``heads`` yields (head, key); the head's group has an item per entry of
    ``rows[key]``: the index of its text in ``fill(head)`` and the literal
    after it.  An item is ``opening``, with ``numbering`` its number from 1
    and ``numbering``, then its text; ``separator`` joins items.  The
    literals are laid out once per key around empty slots, which one
    ``operator.itemgetter`` and, for numbers, one slice of a block of a
    thousand texts fill."""
    numbered = numbering is not None
    step = 2 + 2 * numbered  # the parts of one item
    texts_at = slice(3, None, 4) if numbered else slice(1, None, 2)

    def layout(key):
        picks, afters = rows[key]
        count = len(picks)
        parts = [""] * (count * step + 1)
        parts[0] = opening
        if numbered:
            parts[2::4], parts[4::4] = [numbering] * count, afters
        else:
            parts[2::2] = afters
        ends = slice(step, -1, step)
        parts[ends] = map(operator.add, parts[ends], repeat(separator + opening))
        if len(picks) == 1:  # itemgetter of one index returns no tuple
            return parts, lambda texts: (texts[picks[0]],), count
        return parts, operator.itemgetter(*picks), count

    layouts = solve.MaskCache(layout)
    lead, written, block, block_texts = "", 0, 0, _number_block(0)
    for head, key in heads:
        parts, pick, count = layouts[key]
        if numbered:
            start = written + 1 - 1000 * block
            texts = block_texts[start : start + count]
            while len(texts) < count:  # the group passes a multiple of 1000
                block += 1
                block_texts = _number_block(block)
                texts += block_texts[: count - len(texts)]
            parts[1::4] = texts
        parts[texts_at] = pick(fill(head))
        out.write(lead + "".join(parts))
        lead, written = separator, written + count


def _cmd_decompose(args: SimpleNamespace, stdin: IO[str], out: IO[str]) -> None:
    check_rank(args.rank)
    o, _ = _load_ortho(_read_input(args.expr, args.path, stdin), args.max_vars)
    parts = geometry.decompose(o, args.rank)
    if len(parts) > MAX_COMPONENTS:
        raise LimitExceededError(
            f"decomposition into {len(parts)} components exceeds the limit "
            f"{MAX_COMPONENTS}"
        )
    # A component is an opening, in csv and text its number, its forced
    # zeros and a closing, or else the text of a component without forced
    # zeros; the bytes are those of json.dumps of the whole payload, of
    # csv.writer rows and of one print per component.  Its forced zeros are
    # its head's text, then its table entry's (Decomposition.split), with
    # ``between`` where both are nonempty: each is rendered once.
    header, opening, between, closing, separator, numbering, empty, ending = {
        "json": (f'{{"layout": "lsb-first", "n": {o.n}, "rank": {args.rank}, "components": [',
                 f'{{"n": {o.n}, "A": [', ", ", "]}", ", ", None, "]}", "]}\n"),
        "csv": ("component,zeroed\n", "", " ", "\n", "", ",", "\n", ""),
        "text": ("", "component ", " = 0, ", " = 0\n", "", ": ", "(no forced-zero minterms)\n", ""),
    }[args.fmt]  # fmt: skip
    out.write(header)
    render = mask_text(o.n, between, labels=args.fmt == "text")
    tails, heads = parts.split()
    # A head gives two texts: its own text and ``between`` (nothing for an
    # empty head), for the entries with text, and its text ending the
    # component, for the one entry that can be empty (Q and the forced zeros
    # from the first tail survivor on both empty).
    rows = {}
    for q, masks in tails.items():
        texts = list(map(render, masks))
        rows[q] = [0 if text else 1 for text in texts], [text and text + closing for text in texts]

    def fill(head):
        text = render(head)
        return (text + between, text + closing) if text else ("", empty)

    _write_groups(out, heads, rows, fill, opening, separator, numbering)
    out.write(ending)


def _cmd_classify(args: SimpleNamespace, stdin: IO[str], out: IO[str]) -> None:
    check_rank(args.rank)
    o, _ = _load_ortho(_read_input(args.expr, args.path, stdin), args.max_vars)
    record = {
        "n": o.n,
        "rank": args.rank,
        "coordinate_rank": geometry.coordinate_rank(o),
        "irreducibility_rank": geometry.irreducibility_rank(o),
        "irreducible": geometry.is_irreducible(o, args.rank),
        "components": geometry.irr_count(o, args.rank),
    }
    text = (
        f"coordinate rank: {record['coordinate_rank']}\n"
        f"irreducibility rank: {record['irreducibility_rank']}\n"
        f"irreducible over rank {args.rank}: {'yes' if record['irreducible'] else 'no'}\n"
        f"components over rank {args.rank}: {record['components']}"
    )
    _emit(args.fmt, out, record, text)


def _cmd_iso(args: SimpleNamespace, stdin: IO[str], out: IO[str]) -> None:
    if len(args.inputs) != 2:
        raise _UsageError("iso needs exactly two systems (via -e and/or file arguments)")
    first, second = (
        _load_ortho(_read_input(text, path, stdin), args.max_vars)[0] for text, path in args.inputs
    )
    verdict = geometry.are_isomorphic(first, second)
    a1, a2 = first.num_zeroed, second.num_zeroed
    word = "isomorphic" if verdict else "not isomorphic"
    record = {"n": first.n, "a1": a1, "a2": a2, "isomorphic": verdict}
    _emit(args.fmt, out, record, f"{word} (|A1| = {a1}, |A2| = {a2})")


# --- stats command ------------------------------------------------------


def _require_m_pow(m: int, flag: str) -> None:
    if m < 2 or m & (m - 1):
        raise _UsageError(f"{flag} needs m to be a power of two >= 2, got {m}")


def _decimal(n: int) -> Decimal:
    """``Decimal(n)``, built from the halves of n's bits when n is large.
    ``Decimal(int)`` takes time quadratic in the digits, while libmpdec
    multiplies big numbers in subquadratic time: a 10**6-bit integer
    converts in 1.7 s one way and 0.14 s this way (2-vCPU VM)."""
    import decimal

    k = n.bit_length() // 2
    if k < 1 << 13:
        return decimal.Decimal(n)
    # Integers of any size stay exact in this context.
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
    high = ctx.multiply(_decimal(n >> k), ctx.power(2, k))
    return ctx.add(high, _decimal(n & ((1 << k) - 1)))


def _exact_text(value: Fraction) -> str:
    """``str(value)`` without the interpreter's cap on int-to-str digits
    (4300 by default), which ``C(2m, m)/4**m`` passes from m of about
    7140; Decimal converts an int exactly at any size."""
    if value.denominator == 1:
        return str(_decimal(value.numerator))
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


def _empirical(kind: str, m: int, r: int | None, samples: int, seed: int) -> float:
    from collections import Counter

    from . import stats

    # Every sampled figure depends on a system only through its forced-zero
    # count, so the sampled masks are read as popcounts.
    draws = 2 * samples if kind == "iso-prob" else samples
    zeroed = map(int.bit_count, stats.sample_masks(m.bit_length() - 1, seed, draws))
    if kind == "iso-prob":
        # Consecutive draws form one pair.
        return sum(map(operator.eq, zeroed, zeroed)) / samples
    tally = Counter(zeroed)
    if kind == "avg-irr":
        total = sum(
            systems * geometry.component_count(m - z, r) for z, systems in tally.items()
        )
        return total / samples
    # The irreducibility rank is the surviving count, 0 when none survive.
    return sum(systems * (m - z) for z, systems in tally.items()) / samples


def _cmd_stats(args: SimpleNamespace, stdin: IO[str], out: IO[str]) -> None:
    from . import stats

    if args.avg_irr is None and args.avg_ir is None and args.iso_prob is None:
        raise _UsageError("stats needs at least one of --avg-irr, --avg-ir, --iso-prob")
    if args.exhaustive and args.avg_irr is None:
        raise _UsageError("--exhaustive applies to --avg-irr")
    if args.samples is not None and args.samples < 1:
        raise _UsageError("--samples must be positive")

    ms, r = args.avg_irr or ((), None)
    jobs = [("avg-irr", m, r) for m in ms]
    jobs += [("avg-ir", m, None) for m in args.avg_ir or ()]
    jobs += [("iso-prob", m, None) for m in args.iso_prob or ()]
    labels = [f"{kind} m={m}" + ("" if r is None else f" r={r}") for kind, m, r in jobs]
    for (kind, m, r), label in zip(jobs, labels):
        limit = m  # --avg-ir has no limit
        if kind in _STATS_COST_PER_M2:
            limit = math.isqrt(MAX_STATS_COST // _STATS_COST_PER_M2[kind])
        elif r is not None:
            # stats refuses r < 1 (exit 4); max keeps the divisor positive.
            limit = MAX_STATS_COST // (max(r, 1) + _AVG_IRR_TEXT_COST)
        if m > limit:
            raise LimitExceededError(f"--{label} exceeds the limit m <= {limit}")
        if args.samples:
            draws = 2 if kind == "iso-prob" else 1
            # --samples refuses m < 2 (exit 4); max keeps the divisor positive.
            limit = MAX_STATS_COST // (draws * (max(m, 0) + _DRAW_COST))
            if args.samples > limit:
                raise LimitExceededError(
                    f"--samples {args.samples} for --{label} exceeds the limit N <= {limit}"
                )
    # The power-of-two checks run before any work, in the order the values
    # would be computed, so that a refused m costs nothing.
    for kind, m, _ in jobs:
        if args.exhaustive and kind == "avg-irr":
            _require_m_pow(m, "--exhaustive")
        if args.samples:
            _require_m_pow(m, "--samples")

    # One entry per result, in the JSON key order; csv reads its columns
    # off the same entries, blank where a key is absent.
    entries = []
    for (kind, m, r), label in zip(jobs, labels):
        if kind == "avg-ir":
            exact = stats.avg_ir_rank(m)
        elif kind == "iso-prob":
            exact = stats.iso_pair_probability(m)
        elif args.exhaustive:
            exact = stats.avg_irr_exhaustive(m.bit_length() - 1, r)
        else:
            exact = stats.avg_irr_closed(m, r)
        try:
            approx = float(exact)
        except OverflowError:
            raise LimitExceededError(f"--{label}: the exact value is past float range") from None
        entry = {"kind": kind, "m": m, "exact": _exact_text(exact), "approx": approx}
        if r is not None:
            entry["r"] = r
        if args.samples:
            entry.update(
                empirical=_empirical(kind, m, r, args.samples, args.seed),
                samples=args.samples,
                seed=args.seed,
                rng=stats.RNG_ALGORITHM,
            )
        entries.append(entry)

    if args.fmt == "json":
        import json

        print(json.dumps({"results": entries}), file=out)
    elif args.fmt == "csv":
        import csv

        columns = ["kind", "m", "r", "exact", "approx", "samples", "seed", "empirical"]
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([entry.get(key, "") for key in columns] for entry in entries)
    else:
        bare = len(entries) == 1 and not args.samples
        for entry, label in zip(entries, labels):
            prefix = "" if bare else f"{label}: "
            print(f"{prefix}{entry['exact']} ({entry['approx']})", file=out)
            if args.samples:
                print(
                    f"  empirical: {entry['empirical']} (samples={args.samples}, "
                    f"seed={args.seed}, rng={stats.RNG_ALGORITHM})",
                    file=out,
                )


_COMMANDS = {
    "orthogonalize": _cmd_orthogonalize,
    "solve": _cmd_solve,
    "decompose": _cmd_decompose,
    "classify": _cmd_classify,
    "iso": _cmd_iso,
    "stats": _cmd_stats,
}


def run(
    args: SimpleNamespace,
    stdin: IO[str] | None = None,
    stdout: IO[str] | None = None,
    stderr: IO[str] | None = None,
) -> int:
    """Execute one configured command; returns the process exit code.  A
    BrokenPipeError from writing ``stdout`` is raised, not reported."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        _COMMANDS[args.command](args, stdin, stdout)
        return 0
    except BrokenPipeError:
        raise  # the reader of stdout stopped reading: main ends quietly
    except _REPORTED as exc:
        print(f"error: {exc}", file=stderr)
        return next(code for classes, code in _EXIT_CODES if isinstance(exc, classes))


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = config_from_args(build_parser().parse_args(argv))
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    code = 0
    try:
        code = run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader chose to stop, as `| head` does: that is no error.  Point
        # stdout at the null device so that the interpreter's final flush of
        # what is still buffered raises nothing either.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
