"""Command-line front end.

Subcommands: orthogonalize, solve, decompose, classify, iso, stats.
Systems are read inline (-e), from a file (-f) or from standard input,
either as ``.beq`` equation text or as orthogonal-system JSON
(auto-detected by a leading '{'), so commands compose in pipelines:

    boolgeo orthogonalize -e "x1 * x2 = x2" | boolgeo decompose --rank 2

Exit codes: 0 success, 1 parse error, 2 limit exceeded, 3 inconsistent
system where consistency is required, 4 bad arguments.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import operator
import os
import sys
from collections import Counter
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import partial
from typing import IO, Sequence

from . import geometry, solve, stats
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
    mask_flags,
    mask_indices,
    minterm_labels,
    orthogonalize,
    x_from_z,
)
from .syntax import parse_system


# decompose refuses (exit 2) to write more components than this; the count,
# C(s, r) for s surviving minterms, is known before any component is built.
MAX_COMPONENTS = 10**6

# stats refuses (exit 2) an exact --avg-ir or --iso-prob value whose cost
# exceeds this, about 2 s: m big-int steps on m-bit numbers, times 8 for
# --iso-prob, which also squares m/2 of them (8 times as slow at m = 20000).
MAX_STATS_COST = 5 * 10**9
_STATS_COST_PER_M2 = {"avg-ir": 1, "iso-prob": 8}


class _UsageError(BoolgeoError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@dataclass
class RunConfig:
    """Everything one invocation needs, independent of argv parsing."""

    command: str
    expr: str | None = None
    path: str | None = None
    inputs: tuple[str, ...] = ()  # iso: inline texts and/or paths, in order
    rank: int | None = None
    fmt: str = "text"
    limit: int | None = None
    count_only: bool = False
    z_space: bool = False
    max_vars: int | None = None
    seed: int = 0
    samples: int | None = None
    exhaustive: bool = False
    avg_irr: tuple[tuple[int, ...], int] | None = None
    avg_ir: tuple[int, ...] | None = None
    iso_prob: tuple[int, ...] | None = None
    iso_paths_are_files: tuple[bool, ...] = field(default=())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="boolgeo", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_input(p):
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

    def add_format(p, default="text", choices=("text", "json", "csv")):
        p.add_argument(
            "--format",
            dest="fmt",
            choices=choices,
            default=default,
            help=f"output format (default {default})",
        )

    p = sub.add_parser("orthogonalize", help="reduce a system to orthogonal form")
    add_input(p)
    add_format(p, default="json")

    p = sub.add_parser("solve", help="enumerate or count solutions")
    add_input(p)
    add_format(p)
    p.add_argument("--rank", type=int, required=True, help="algebra rank r")
    p.add_argument("--limit", type=int, default=None, help="emit at most this many solutions")
    p.add_argument("--count", action="store_true", help="print the exact solution count only")
    p.add_argument("--z", action="store_true", help="emit minterm-space points instead")

    p = sub.add_parser("decompose", help="split into irreducible components")
    add_input(p)
    add_format(p)
    p.add_argument("--rank", type=int, required=True, help="algebra rank r")

    p = sub.add_parser("classify", help="coordinate rank, irreducibility, component count")
    add_input(p)
    add_format(p)
    p.add_argument("--rank", type=int, required=True, help="algebra rank r")

    p = sub.add_parser("iso", help="decide whether two systems' solution sets are isomorphic")
    p.add_argument("files", nargs="*", help="system files (two total inputs needed)")
    p.add_argument("-e", "--expr", action="append", default=[], help="inline system text (repeatable)")
    p.add_argument("--max-vars", type=int, default=None)
    add_format(p)

    p = sub.add_parser("stats", help="exact averages and probabilities")
    add_format(p)
    p.add_argument("--avg-irr", nargs=2, metavar=("M", "R"), help="average component count; M may be a comma list")
    p.add_argument("--avg-ir", metavar="M", help="average irreducibility rank; M may be a comma list")
    p.add_argument("--iso-prob", metavar="M", help="isomorphic-pair probability; M may be a comma list")
    p.add_argument("--exhaustive", action="store_true", help="compute --avg-irr by full enumeration")
    p.add_argument("--samples", type=int, default=None, help="add a Monte Carlo estimate from N samples")
    p.add_argument("--seed", type=int, default=0, help="seed for --samples (default 0)")

    return parser


def _int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"{flag} expects an integer or comma list, got {text!r}") from None
    if not values:
        raise _UsageError(f"{flag} expects at least one value")
    return values


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command, fmt=getattr(args, "fmt", "text"))
    cfg.max_vars = getattr(args, "max_vars", None)
    if cfg.command == "iso":
        cfg.inputs = tuple(args.expr) + tuple(args.files)
        cfg.iso_paths_are_files = tuple(
            [False] * len(args.expr) + [True] * len(args.files)
        )
    elif cfg.command == "stats":
        if args.avg_irr:
            ms = _int_list(args.avg_irr[0], "--avg-irr")
            try:
                r = int(args.avg_irr[1])
            except ValueError:
                raise _UsageError("--avg-irr R must be an integer") from None
            cfg.avg_irr = (ms, r)
        if args.avg_ir:
            cfg.avg_ir = _int_list(args.avg_ir, "--avg-ir")
        if args.iso_prob:
            cfg.iso_prob = _int_list(args.iso_prob, "--iso-prob")
        cfg.exhaustive = args.exhaustive
        cfg.samples = args.samples
        cfg.seed = args.seed
    else:
        cfg.expr = args.expr
        cfg.path = args.path
    cfg.rank = getattr(args, "rank", None)
    cfg.limit = getattr(args, "limit", None)
    cfg.count_only = getattr(args, "count", False)
    cfg.z_space = getattr(args, "z", False)
    return cfg


# --- input loading ------------------------------------------------------


def _read_input(cfg: RunConfig, stdin: IO[str]) -> str:
    if cfg.expr is not None:
        return cfg.expr
    if cfg.path is not None:
        with open(cfg.path, encoding="utf-8") as handle:
            return handle.read()
    return stdin.read()


def _parse_ortho_json(text: str) -> OrthogonalSystem:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", exc.lineno, exc.colno) from None
    return OrthogonalSystem.from_json_dict(data)


def _load_ortho(text: str, max_vars: int | None):
    """Returns (orthogonal system, source system or None).

    JSON input is held to an explicit limit (``--max-vars`` or
    $BOOLGEO_MAX_VARS) and otherwise only to the hard cap."""
    if text.lstrip().startswith("{"):
        o = _parse_ortho_json(text)
        if max_vars is not None or MAX_VARS_ENV in os.environ:
            check_var_limit(o.n, max_vars)
        return o, None
    system = parse_system(text)
    return orthogonalize(system, max_vars=max_vars), system


# --- per-command output -------------------------------------------------


def _emit_ortho(o: OrthogonalSystem, fmt: str, out: IO[str]) -> None:
    if fmt == "json":
        print(json.dumps(o.to_json_dict()), file=out)
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["n", "zeroed_count", "zeroed"])
        writer.writerow([o.n, o.num_zeroed, " ".join(map(str, o.zeroed))])
    else:
        text = o.render_text()
        if text:
            print(text, file=out)


def _cmd_orthogonalize(cfg: RunConfig, stdin: IO[str], out: IO[str]) -> None:
    o, _ = _load_ortho(_read_input(cfg, stdin), cfg.max_vars)
    _emit_ortho(o, cfg.fmt, out)


def _cmd_solve(cfg: RunConfig, stdin: IO[str], out: IO[str]) -> None:
    check_rank(cfg.rank)
    if cfg.limit is not None and cfg.limit < 0:
        raise _UsageError("--limit must be nonnegative")
    o, system = _load_ortho(_read_input(cfg, stdin), cfg.max_vars)
    if cfg.count_only:
        count = solve.count_solutions(o, cfg.rank)
        if cfg.fmt == "json":
            print(json.dumps({"count": count}), file=out)
        elif cfg.fmt == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(["count"])
            writer.writerow([count])
        else:
            print(count, file=out)
        return

    rank = cfg.rank
    if cfg.z_space:
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
    if cfg.fmt == "json":
        make = lambda mask: json.dumps(list(Element(mask, rank).atoms()))  # noqa: E731
        opening, closing, between, separator, ending = "{", "}", ", ", ", ", "]}\n"
        if cfg.z_space:
            opening, closing = '{"cells": [', "]}"
        else:
            prefixes = [json.dumps(h) + ": " for h in headers]
        out.write(f'{{"layout": "lsb-first", "rank": {rank}, "solutions": [')
    elif cfg.fmt == "csv":
        csv.writer(out, lineterminator="\n").writerow(headers)
        between = ","

        def make(mask):
            field = io.StringIO()
            csv.writer(field, lineterminator="").writerow([str(Element(mask, rank))])
            return field.getvalue()

    else:
        make = lambda mask: str(Element(mask, rank))  # noqa: E731
        prefixes = [h + "=" for h in headers]

    # One str.format template renders a batch: every row of the tail table
    # under one head.  A slot is keyed by column and tail mask, so a head
    # fills each once from a per-run cache of cell texts; the last batch
    # under --limit is cut to its first rows.
    total = solve.count_solutions(o, rank)
    if cfg.limit is not None:
        total = min(total, cfg.limit)
    tails, heads = solve.split_atoms(o, rank, z_space=cfg.z_space, points=total)
    escape = lambda text: text.replace("{", "{{").replace("}", "}}")  # noqa: E731
    opening, closing, prefixes = escape(opening), escape(closing), list(map(escape, prefixes))
    slots = solve.MaskCache(lambda key: f"{prefixes[key[0]]}{{{len(slots)}}}")
    rows = [opening + between.join(map(slots.__getitem__, enumerate(t))) + closing for t in tails]
    columns, tail_masks = [c for c, _ in slots], [m for _, m in slots]
    cells = solve.MaskCache(make)
    full, rest = divmod(total, len(tails))
    batch, lead = separator.join(rows), ""
    for k, head in zip(range(full + (rest > 0)), heads):
        if k == full:
            batch = separator.join(rows[:rest])
        masks = head  # a one-row table places no atom: its slots are the head's cells
        if len(tails) > 1:
            masks = map(operator.or_, map(head.__getitem__, columns), tail_masks)
        out.write(lead + batch.format(*map(cells.__getitem__, masks)))
        lead = separator
    out.write(ending)


def _cmd_decompose(cfg: RunConfig, stdin: IO[str], out: IO[str]) -> None:
    check_rank(cfg.rank)
    o, _ = _load_ortho(_read_input(cfg, stdin), cfg.max_vars)
    parts = geometry.decompose(o, cfg.rank)
    if len(parts) > MAX_COMPONENTS:
        raise LimitExceededError(
            f"decomposition into {len(parts)} components exceeds the limit "
            f"{MAX_COMPONENTS}"
        )
    # Each component is written as it is generated, from the forced-zero
    # mask's index texts: numbers for json/csv, minterm labels for text.
    # When the output lists at least 2**n indices in all, each text is made
    # once into a per-run table of every minterm and picked from it by the
    # mask's bits; otherwise it is made as it is printed.
    size = o.num_minterms
    if cfg.fmt == "text":
        separator, make = " = 0, ", partial(minterm_labels, n=o.n)
    else:
        separator, make = (", " if cfg.fmt == "json" else " "), partial(map, str)
    if len(parts) * (size - min(cfg.rank, size - o.num_zeroed)) >= size:
        table = list(make(range(size)))
        texts = (
            separator.join(itertools.compress(table, mask_flags(m, size))) for m in parts.masks()
        )
    else:
        texts = (separator.join(make(mask_indices(m, size))) for m in parts.masks())
    # The bytes are those of json.dumps of the whole payload, of csv.writer
    # rows and of one print per component.
    if cfg.fmt == "json":
        opening = f'{{"n": {o.n}, "A": ['
        out.write(f'{{"layout": "lsb-first", "n": {o.n}, "rank": {cfg.rank}, "components": [')
        between = ""
        for text in texts:
            out.write(between + opening + text + "]}")
            between = ", "
        out.write("]}\n")
    elif cfg.fmt == "csv":
        out.write("component,zeroed\n")
        for i, text in enumerate(texts, 1):
            out.write(f"{i},{text}\n")
    else:
        for i, text in enumerate(texts, 1):
            body = text + " = 0" if text else "(no forced-zero minterms)"
            out.write(f"component {i}: {body}\n")


def _cmd_classify(cfg: RunConfig, stdin: IO[str], out: IO[str]) -> None:
    check_rank(cfg.rank)
    o, _ = _load_ortho(_read_input(cfg, stdin), cfg.max_vars)
    coord = geometry.coordinate_rank(o)
    ir = geometry.irreducibility_rank(o)
    irreducible = geometry.is_irreducible(o, cfg.rank)
    components = geometry.irr_count(o, cfg.rank)
    if cfg.fmt == "json":
        payload = {
            "n": o.n,
            "rank": cfg.rank,
            "coordinate_rank": coord,
            "irreducibility_rank": ir,
            "irreducible": irreducible,
            "components": components,
        }
        print(json.dumps(payload), file=out)
    elif cfg.fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["n", "rank", "coordinate_rank", "irreducibility_rank", "irreducible", "components"]
        )
        writer.writerow([o.n, cfg.rank, coord, ir, irreducible, components])
    else:
        print(f"coordinate rank: {coord}", file=out)
        print(f"irreducibility rank: {ir}", file=out)
        print(f"irreducible over rank {cfg.rank}: {'yes' if irreducible else 'no'}", file=out)
        print(f"components over rank {cfg.rank}: {components}", file=out)


def _cmd_iso(cfg: RunConfig, stdin: IO[str], out: IO[str]) -> None:
    if len(cfg.inputs) != 2:
        raise _UsageError("iso needs exactly two systems (via -e and/or file arguments)")
    systems = []
    for source, is_file in zip(cfg.inputs, cfg.iso_paths_are_files):
        if is_file:
            with open(source, encoding="utf-8") as handle:
                text = handle.read()
        else:
            text = source
        systems.append(_load_ortho(text, cfg.max_vars)[0])
    first, second = systems
    verdict = geometry.are_isomorphic(first, second)
    a1, a2 = first.num_zeroed, second.num_zeroed
    if cfg.fmt == "json":
        print(
            json.dumps({"n": first.n, "a1": a1, "a2": a2, "isomorphic": verdict}),
            file=out,
        )
    elif cfg.fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["n", "a1", "a2", "isomorphic"])
        writer.writerow([first.n, a1, a2, verdict])
    else:
        word = "isomorphic" if verdict else "not isomorphic"
        print(f"{word} (|A1| = {a1}, |A2| = {a2})", file=out)


# --- stats command ------------------------------------------------------


def _require_m_pow(m: int, flag: str) -> int:
    if m < 2 or m & (m - 1):
        raise _UsageError(f"{flag} needs m to be a power of two >= 2, got {m}")
    return m.bit_length() - 1


def _exact_text(value: Fraction) -> str:
    """``str(value)`` without the interpreter's cap on int-to-str digits
    (4300 by default), which ``C(2m, m)/4**m`` passes from m of about
    7140; Decimal converts an int exactly at any size."""
    if value.denominator == 1:
        return str(Decimal(value.numerator))
    return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


def _empirical(kind: str, m: int, r: int | None, samples: int, seed: int) -> float:
    # Every sampled figure depends on a system only through its forced-zero
    # count, so the sampled masks are read as popcounts.
    m_pow = _require_m_pow(m, "--samples")
    draws = 2 * samples if kind == "iso-prob" else samples
    zeroed = map(int.bit_count, stats.sample_masks(m_pow, seed, draws))
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


def _cmd_stats(cfg: RunConfig, stdin: IO[str], out: IO[str]) -> None:
    if cfg.avg_irr is None and cfg.avg_ir is None and cfg.iso_prob is None:
        raise _UsageError("stats needs at least one of --avg-irr, --avg-ir, --iso-prob")
    if cfg.exhaustive and cfg.avg_irr is None:
        raise _UsageError("--exhaustive applies to --avg-irr")
    if cfg.samples is not None and cfg.samples < 1:
        raise _UsageError("--samples must be positive")

    for kind, ms in (("avg-ir", cfg.avg_ir), ("iso-prob", cfg.iso_prob)):
        limit = math.isqrt(MAX_STATS_COST // _STATS_COST_PER_M2[kind])
        for m in ms or ():
            if m > limit:
                raise LimitExceededError(f"--{kind} m={m} exceeds the limit m <= {limit}")

    results = []  # (kind, m, r, exact Fraction, empirical float | None)
    if cfg.avg_irr is not None:
        ms, r = cfg.avg_irr
        for m in ms:
            if cfg.exhaustive:
                exact = stats.avg_irr_exhaustive(_require_m_pow(m, "--exhaustive"), r)
            else:
                exact = stats.avg_irr_closed(m, r)
            emp = (
                _empirical("avg-irr", m, r, cfg.samples, cfg.seed)
                if cfg.samples
                else None
            )
            results.append(("avg-irr", m, r, exact, emp))
    if cfg.avg_ir is not None:
        for m in cfg.avg_ir:
            emp = (
                _empirical("avg-ir", m, None, cfg.samples, cfg.seed)
                if cfg.samples
                else None
            )
            results.append(("avg-ir", m, None, stats.avg_ir_rank(m), emp))
    if cfg.iso_prob is not None:
        for m in cfg.iso_prob:
            emp = (
                _empirical("iso-prob", m, None, cfg.samples, cfg.seed)
                if cfg.samples
                else None
            )
            results.append(("iso-prob", m, None, stats.iso_pair_probability(m), emp))

    if cfg.fmt == "json":
        payload = {"results": []}
        for kind, m, r, exact, emp in results:
            entry = {"kind": kind, "m": m, "exact": _exact_text(exact), "approx": float(exact)}
            if r is not None:
                entry["r"] = r
            if emp is not None:
                entry.update(
                    empirical=emp,
                    samples=cfg.samples,
                    seed=cfg.seed,
                    rng=stats.RNG_ALGORITHM,
                )
            payload["results"].append(entry)
        print(json.dumps(payload), file=out)
    elif cfg.fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["kind", "m", "r", "exact", "approx", "samples", "seed", "empirical"])
        for kind, m, r, exact, emp in results:
            writer.writerow(
                [
                    kind,
                    m,
                    "" if r is None else r,
                    _exact_text(exact),
                    float(exact),
                    "" if emp is None else cfg.samples,
                    "" if emp is None else cfg.seed,
                    "" if emp is None else emp,
                ]
            )
    else:
        bare = len(results) == 1 and all(emp is None for *_, emp in results)
        for kind, m, r, exact, emp in results:
            if bare:
                print(f"{_exact_text(exact)} ({float(exact)})", file=out)
            else:
                label = f"{kind} m={m}" + ("" if r is None else f" r={r}")
                print(f"{label}: {_exact_text(exact)} ({float(exact)})", file=out)
            if emp is not None:
                print(
                    f"  empirical: {emp} (samples={cfg.samples}, "
                    f"seed={cfg.seed}, rng={stats.RNG_ALGORITHM})",
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
    cfg: RunConfig,
    stdin: IO[str] | None = None,
    stdout: IO[str] | None = None,
    stderr: IO[str] | None = None,
) -> int:
    """Execute one configured command; returns the process exit code."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        _COMMANDS[cfg.command](cfg, stdin, stdout)
        return 0
    except ParseError as exc:
        print(f"error: {exc}", file=stderr)
        return 1
    except LimitExceededError as exc:
        print(f"error: {exc}", file=stderr)
        return 2
    except InconsistentSystemError as exc:
        print(f"error: {exc}", file=stderr)
        return 3
    except (
        _UsageError,
        SystemMismatchError,
        RankMismatchError,
        MissingVariableError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=stderr)
        return 4


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = config_from_args(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
