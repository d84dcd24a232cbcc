"""Command-line front end.

Subcommands: orthogonalize, solve, decompose, classify, iso, stats.
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

import argparse
import io
import math
import operator
import os
import sys

from . import geometry, solve
from .algebra import Element, check_rank
from .errors import (
    BoolgeoError,
    InconsistentSystemError,
    LimitExceededError,
    MissingVariableError,
    ParseError,
    RankMismatchError,
    SystemMismatchError,
)
# perfbench/tracing.py wraps parse_system, orthogonalize and x_from_z in
# this module's namespace, so x_from_z stays imported though solve output
# no longer calls it.
from .ortho import (  # noqa: F401
    MAX_VARS_ENV,
    OrthogonalSystem,
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
# m big-int steps on m-bit numbers for --avg-ir, times 8 for --iso-prob,
# which also squares m/2 of them (8 times as slow at m = 20000).  --avg-irr
# walks r + 1 binomials of up to m bits, as fast per m * r as --avg-ir per
# m * m (1.4 s at m = r = 70000), then writes two m-bit integers in decimal
# at about the cost of _AVG_IRR_TEXT_COST walk steps per bit (1.4 s at
# m = 9.7 * 10**6).
MAX_STATS_COST = 5 * 10**9
_STATS_COST_PER_M2 = {"avg-ir": 1, "iso-prob": 8}
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _Commands(argparse._SubParsersAction):
    """Subcommands whose parsers are built when the command is parsed.

    argparse makes a help formatter for each ``add_argument`` call, so
    declaring the options of all six commands took 25 times as long as
    parsing a command line; a run declares those of its own command only.
    ``choices`` holds every name in order (for "invalid choice" messages)
    and the top-level help lists each name with its help line; the
    parser of a command joins ``_name_parser_map`` when it is built."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.choices = {}

    def add_parser(self, name, *, build, help):
        self.choices[name] = build
        self._choices_actions.append(self._ChoicesPseudoAction(name, (), help))

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]
        if name not in self._name_parser_map:
            self.choices[name](super().add_parser(name))
        super().__call__(parser, namespace, values, option_string)


def _input_options(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("-e", "--expr", help="inline system text")
    group.add_argument("-f", "--file", dest="path", help="read system from a file")
    p.add_argument(
        "--max-vars",
        type=int,
        default=None,
        help=f"variable limit (default 16 for .beq input, none below the hard cap "
        f"for JSON input; ${MAX_VARS_ENV})",
    )


def _format_option(p: argparse.ArgumentParser, default: str = "text") -> None:
    p.add_argument(
        "--format",
        dest="fmt",
        choices=("text", "json", "csv"),
        default=default,
        help=f"output format (default {default})",
    )


def _orthogonalize_options(p: argparse.ArgumentParser) -> None:
    _input_options(p)
    _format_option(p, default="json")


def _rank_options(p: argparse.ArgumentParser) -> None:
    """The options of decompose and classify, which solve extends."""
    _input_options(p)
    _format_option(p)
    p.add_argument("--rank", type=int, required=True, help="algebra rank r")


def _solve_options(p: argparse.ArgumentParser) -> None:
    _rank_options(p)
    p.add_argument("--limit", type=int, default=None, help="emit at most this many solutions")
    p.add_argument(
        "--count", dest="count_only", action="store_true", help="print the exact solution count only"
    )
    p.add_argument("--z", dest="z_space", action="store_true", help="emit minterm-space points instead")


def _iso_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("files", nargs="*", help="system files (two total inputs needed)")
    p.add_argument("-e", "--expr", action="append", default=[], help="inline system text (repeatable)")
    p.add_argument("--max-vars", type=int, default=None)
    _format_option(p)


def _stats_options(p: argparse.ArgumentParser) -> None:
    _format_option(p)
    p.add_argument("--avg-irr", nargs=2, metavar=("M", "R"), help="average component count; M may be a comma list")
    p.add_argument("--avg-ir", metavar="M", help="average irreducibility rank; M may be a comma list")
    p.add_argument("--iso-prob", metavar="M", help="isomorphic-pair probability; M may be a comma list")
    p.add_argument("--exhaustive", action="store_true", help="compute --avg-irr by full enumeration")
    p.add_argument("--samples", type=int, default=None, help="add a Monte Carlo estimate from N samples")
    p.add_argument("--seed", type=int, default=0, help="seed for --samples (default 0)")


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the boolgeo command line; a command's options are
    declared when that command is parsed or asked for ``--help``."""
    parser = _Parser(prog="boolgeo", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(action=_Commands, dest="command", required=True, metavar="command")
    sub.add_parser("orthogonalize", build=_orthogonalize_options, help="reduce a system to orthogonal form")
    sub.add_parser("solve", build=_solve_options, help="enumerate or count solutions")
    sub.add_parser("decompose", build=_rank_options, help="split into irreducible components")
    sub.add_parser(
        "classify", build=_rank_options, help="coordinate rank, irreducibility, component count"
    )
    sub.add_parser(
        "iso", build=_iso_options, help="decide whether two systems' solution sets are isomorphic"
    )
    sub.add_parser("stats", build=_stats_options, help="exact averages and probabilities")
    return parser


def _int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"{flag} expects an integer or comma list, got {text!r}") from None
    return values


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
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


def _cmd_orthogonalize(args: argparse.Namespace, stdin: IO[str], out: IO[str]) -> None:
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


def _cmd_solve(args: argparse.Namespace, stdin: IO[str], out: IO[str]) -> None:
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
    # A format is the text of a cell's mask, an opening, a closing and a
    # prefix per column of each point, and a column and a point separator;
    # the bytes are those of printing each ZPoint or XPoint, of csv.writer
    # rows or of json.dumps of the whole payload.
    opening, closing, between, separator, ending = "", "\n", " ", "", ""
    prefixes = [""] * len(headers)
    if args.fmt == "json":
        import json

        make = lambda mask: json.dumps(list(Element(mask, rank).atoms()))  # noqa: E731
        opening, closing, between, separator, ending = "{", "}", ", ", ", ", "]}\n"
        if args.z_space:
            opening, closing = '{"cells": [', "]}"
        else:
            prefixes = [json.dumps(h) + ": " for h in headers]
        out.write(f'{{"layout": "lsb-first", "rank": {rank}, "solutions": [')
    elif args.fmt == "csv":
        import csv

        csv.writer(out, lineterminator="\n").writerow(headers)
        between = ","

        def make(mask):
            field = io.StringIO()
            csv.writer(field, lineterminator="").writerow([str(Element(mask, rank))])
            return field.getvalue()

    else:
        make = lambda mask: str(Element(mask, rank))  # noqa: E731
        prefixes = [h + "=" for h in headers]

    # A batch is every row of the tail table under one head, written by one
    # str.join over a fixed layout: literal texts with an empty slot between
    # each two.  Every row has the same literals, so the layout is built by
    # list repetition.  A slot value is keyed by column and tail mask; a
    # head looks each distinct one up once in a per-run cache of cell texts
    # and spreads them into the slots with one itemgetter.  The last batch
    # under --limit gets a layout of its first rows.
    total = solve.count_solutions(o, rank)
    if args.limit is not None:
        total = min(total, args.limit)
    tails, heads = solve.split_atoms(o, rank, z_space=args.z_space, points=total)
    cells, lead = solve.MaskCache(make), ""
    if len(tails) == 1:
        # A one-row table places no atom, so each head is one point; joining
        # its cells is cheaper than filling a layout.
        for _, head in zip(range(total), heads):
            texts = map(operator.add, prefixes, map(cells.__getitem__, head))
            out.write(lead + opening + between.join(texts) + closing)
            lead = separator
    else:
        slots = solve.MaskCache(lambda key: len(slots))
        fields = [slots[key] for tail in tails for key in enumerate(tail)]
        columns, tail_masks = [c for c, _ in slots], [m for _, m in slots]
        row = [between + prefix for prefix in prefixes[1:]]
        row.append(closing + separator + opening + prefixes[0])

        def layout(rows):
            parts = [""] * (2 * len(row) * rows + 1)
            parts[::2] = [opening + prefixes[0], *row * rows]
            parts[-1] = closing
            picked = fields[: len(row) * rows]
            if len(picked) == 1:  # itemgetter of one index returns no tuple
                return parts, lambda texts: (texts[picked[0]],)
            return parts, operator.itemgetter(*picked)

        full, rest = divmod(total, len(tails))
        parts, pick = layout(len(tails))
        for k, head in zip(range(full + (rest > 0)), heads):
            if k == full:
                parts, pick = layout(rest)
            masks = map(operator.or_, map(head.__getitem__, columns), tail_masks)
            parts[1::2] = pick(list(map(cells.__getitem__, masks)))
            out.write(lead + "".join(parts))
            lead = separator
    out.write(ending)


def _cmd_decompose(args: argparse.Namespace, stdin: IO[str], out: IO[str]) -> None:
    check_rank(args.rank)
    o, _ = _load_ortho(_read_input(args.expr, args.path, stdin), args.max_vars)
    parts = geometry.decompose(o, args.rank)
    if len(parts) > MAX_COMPONENTS:
        raise LimitExceededError(
            f"decomposition into {len(parts)} components exceeds the limit "
            f"{MAX_COMPONENTS}"
        )
    # Each component is written as it is generated, from its forced-zero
    # mask: index numbers for json and csv, minterm labels for text.
    separator = {"json": ", ", "csv": " "}.get(args.fmt, " = 0, ")
    texts = map(mask_text(o.n, separator, labels=args.fmt == "text"), parts.masks())
    # The bytes are those of json.dumps of the whole payload, of csv.writer
    # rows and of one print per component.
    if args.fmt == "json":
        opening = f'{{"n": {o.n}, "A": ['
        out.write(f'{{"layout": "lsb-first", "n": {o.n}, "rank": {args.rank}, "components": [')
        between = ""
        for text in texts:
            out.write(between + opening + text + "]}")
            between = ", "
        out.write("]}\n")
    elif args.fmt == "csv":
        out.write("component,zeroed\n")
        for i, text in enumerate(texts, 1):
            out.write(f"{i},{text}\n")
    else:
        for i, text in enumerate(texts, 1):
            body = text + " = 0" if text else "(no forced-zero minterms)"
            out.write(f"component {i}: {body}\n")


def _cmd_classify(args: argparse.Namespace, stdin: IO[str], out: IO[str]) -> None:
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


def _cmd_iso(args: argparse.Namespace, stdin: IO[str], out: IO[str]) -> None:
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
        check_rank(r)
        total = sum(
            systems * geometry.component_count(m - z, r) for z, systems in tally.items()
        )
        return total / samples
    # The irreducibility rank is the surviving count, 0 when none survive.
    return sum(systems * (m - z) for z, systems in tally.items()) / samples


def _cmd_stats(args: argparse.Namespace, stdin: IO[str], out: IO[str]) -> None:
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
        if r is None:
            limit = math.isqrt(MAX_STATS_COST // _STATS_COST_PER_M2[kind])
        else:
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
    args: argparse.Namespace,
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
    parser = build_parser()
    try:
        args = config_from_args(parser.parse_args(argv))
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
