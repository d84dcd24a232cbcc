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
import itertools
import json
import os
import sys
from dataclasses import dataclass, field
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
    minterm_labels,
    orthogonalize,
    x_from_z,
)
from .syntax import parse_system


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
    points = solve.solution_masks(o, rank, z_space=cfg.z_space)
    if cfg.limit is not None:
        points = itertools.islice(points, cfg.limit)

    # Rows are written as they are generated, each cell looked up by its
    # mask; the bytes are those of printing each ZPoint or XPoint, or of
    # json.dumps of the whole payload.
    if cfg.fmt == "json":
        cells = solve.MaskCache(lambda mask: json.dumps(list(Element(mask, rank).atoms())))
        if cfg.z_space:
            keys, opening, closing = None, '{"cells": [', "]}"
        else:
            keys, opening, closing = [json.dumps(h) + ": " for h in headers], "{", "}"
        out.write(f'{{"layout": "lsb-first", "rank": {rank}, "solutions": [')
        separator = ""
        for masks in points:
            values = map(cells.__getitem__, masks)
            if keys is not None:
                values = map(str.__add__, keys, values)
            out.write(separator + opening + ", ".join(values) + closing)
            separator = ", "
        out.write("]}\n")
        return
    cells = solve.MaskCache(lambda mask: str(Element(mask, rank)))
    if cfg.fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(headers)
        for masks in points:
            writer.writerow(map(cells.__getitem__, masks))
    else:
        prefixes = [h + "=" for h in headers]
        for masks in points:
            out.write(" ".join(map(str.__add__, prefixes, map(cells.__getitem__, masks))) + "\n")


def _cmd_decompose(cfg: RunConfig, stdin: IO[str], out: IO[str]) -> None:
    check_rank(cfg.rank)
    o, _ = _load_ortho(_read_input(cfg, stdin), cfg.max_vars)
    parts = geometry.decompose(o, cfg.rank)
    if cfg.fmt == "json":
        payload = {
            "layout": "lsb-first",
            "n": o.n,
            "rank": cfg.rank,
            "components": [{"n": c.n, "A": list(c.zeroed)} for c in parts],
        }
        print(json.dumps(payload), file=out)
    elif cfg.fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["component", "zeroed"])
        for i, c in enumerate(parts, 1):
            writer.writerow([i, " ".join(map(str, c.zeroed))])
    else:
        for i, c in enumerate(parts, 1):
            labels = minterm_labels(c.zeroed, c.n)
            if labels:
                body = " = 0, ".join(labels) + " = 0"
            else:
                body = "(no forced-zero minterms)"
            print(f"component {i}: {body}", file=out)


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


def _empirical(kind: str, m: int, r: int | None, samples: int, seed: int) -> float:
    m_pow = _require_m_pow(m, "--samples")
    if kind == "iso-prob":
        stream = stats.sample_systems(m_pow, seed, 2 * samples)
        hits = 0
        for first in stream:
            second = next(stream)
            if geometry.are_isomorphic(first, second):
                hits += 1
        return hits / samples
    if kind == "avg-irr":
        total = sum(
            geometry.irr_count(o, r) for o in stats.sample_systems(m_pow, seed, samples)
        )
        return total / samples
    total = sum(
        geometry.irreducibility_rank(o)
        for o in stats.sample_systems(m_pow, seed, samples)
    )
    return total / samples


def _cmd_stats(cfg: RunConfig, stdin: IO[str], out: IO[str]) -> None:
    if cfg.avg_irr is None and cfg.avg_ir is None and cfg.iso_prob is None:
        raise _UsageError("stats needs at least one of --avg-irr, --avg-ir, --iso-prob")
    if cfg.exhaustive and cfg.avg_irr is None:
        raise _UsageError("--exhaustive applies to --avg-irr")
    if cfg.samples is not None and cfg.samples < 1:
        raise _UsageError("--samples must be positive")

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
            entry = {"kind": kind, "m": m, "exact": str(exact), "approx": float(exact)}
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
                    str(exact),
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
                print(f"{exact} ({float(exact)})", file=out)
            else:
                label = f"{kind} m={m}" + ("" if r is None else f" r={r}")
                print(f"{label}: {exact} ({float(exact)})", file=out)
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
