"""Seeded request generators for the three benchmark workloads.

A workload is an endless sequence of blocks.  The shape of every request
in a block (command, format, n, rank, input kind) is fixed by its slot,
so every seed runs the same mix; the seed only draws the content (masks,
equations, m values, sample counts and sampling seeds).  Each request carries
a check built from :mod:`oracle`, never from boolgeo.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import comb
from typing import Callable

import oracle

FORMATS = ("text", "json", "csv")


@dataclass
class Request:
    argv: list[str]
    stdin: str
    # check(exit_code, stdout, stderr) -> True when the outcome is documented
    check: Callable[[int, str, str], bool]
    points: int = 0  # solution points plus components the request emits
    probe: bool = False  # deep-nesting input; a crash is the known defect
    tags: dict = field(default_factory=dict)


def expect_output(expected: Callable[[], str]) -> Callable[[int, str, str], bool]:
    return lambda code, out, err: code == 0 and out == expected()


def expect_error(code_wanted: int) -> Callable[[int, str, str], bool]:
    return lambda code, out, err: (
        code == code_wanted and out == "" and err.startswith("error:")
    )


# --- input text -----------------------------------------------------------


def names(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)]


def header(n: int) -> str:
    return "vars " + ", ".join(names(n)) + ";\n"


def ortho_json(n: int, mask: int) -> str:
    return json.dumps({"n": n, "A": oracle.set_bits(mask), "layout": "lsb-first"})


def random_mask(rng: random.Random, bits: int, density: float) -> int:
    a, b = rng.getrandbits(bits), rng.getrandbits(bits)
    return {0.25: a & b, 0.5: a, 0.75: a | b}[density]


def planted_mask(rng: random.Random, n: int, s: int) -> int:
    """A forced-zero mask leaving exactly ``s`` surviving minterms."""
    size = 1 << n
    surviving = 0
    for alpha in rng.sample(range(size), s):
        surviving |= 1 << alpha
    return ((1 << size) - 1) ^ surviving


def literal(i: int, negated: bool):
    return ("!", ("v", i)) if negated else ("v", i)


def balanced(op: str, items: list):
    if len(items) == 1:
        return items[0]
    mid = len(items) // 2
    return (op, balanced(op, items[:mid]), balanced(op, items[mid:]))


def random_term(rng: random.Random, n: int, ops: int, levels: int):
    """A random term with exactly ``ops`` binary operators and at most
    ``levels`` levels (a complement adds one).  Fixing the operator count
    keeps the parse and truth-table cost of a slot the same across seeds."""
    if ops == 0:
        if rng.random() < 0.03:
            return ("c", rng.randint(0, 1))
        leaf = ("v", rng.randrange(n))
        return ("!", leaf) if levels >= 2 and rng.random() < 0.3 else leaf
    cap = (1 << (levels - 2)) - 1  # most operators a subterm one level down holds
    if ops <= cap and rng.random() < 0.15:
        return ("!", random_term(rng, n, ops, levels - 1))
    left = rng.randint(max(0, ops - 1 - cap), min(ops - 1, cap))
    return (
        rng.choice("+*"),
        random_term(rng, n, left, levels - 1),
        random_term(rng, n, ops - 1 - left, levels - 1),
    )


def term_text(rng: random.Random, t) -> str:
    """Concrete syntax with randomly chosen operator spellings."""
    op = t[0]
    if op == "v":
        return f"x{t[1] + 1}"
    if op == "c":
        return str(t[1])
    if op == "!":
        inner = term_text(rng, t[1])
        if t[1][0] != "!" and rng.random() < 0.5:
            return inner + "'"
        return "!" + inner
    spelling = rng.choice(("+", "\\/")) if op == "+" else rng.choice(("*", "&"))
    return f"({term_text(rng, t[1])} {spelling} {term_text(rng, t[2])})"


def random_equations(rng: random.Random, n: int, count: int) -> list:
    """Equations of depth <= 6 that each force a small share of minterms
    to zero: T + M = T (zero where M and not T) or T * J = T (zero where
    T and not J), with T a random term of 8 operators and M a meet or J a
    join of 3-6 random literals."""
    equations = []
    for j in range(count):
        t = random_term(rng, n, 8, 5)
        lits = [literal(i, rng.random() < 0.5) for i in rng.sample(range(n), 3 + j % 4)]
        if rng.random() < 0.5:
            lhs = ("+", t, balanced("*", lits))
        else:
            lhs = ("*", t, balanced("+", lits))
        equations.append((lhs, t) if rng.random() < 0.5 else (t, lhs))
    return equations


def system_text(rng: random.Random, n: int, equations: list) -> str:
    body = [f"{term_text(rng, lhs)} = {term_text(rng, rhs)}" for lhs, rhs in equations]
    return header(n) + "\n".join(body) + "\n"


def minterm_system_text(n: int, mask: int) -> str:
    """A .beq system whose forced-zero set is exactly ``mask``: one
    ``literal * ... * literal = 0`` equation per forced-zero minterm."""
    body = []
    for alpha in oracle.set_bits(mask):
        lits = [
            f"x{i + 1}" if alpha >> i & 1 else (f"!x{i + 1}" if i % 2 else f"x{i + 1}'")
            for i in range(n)
        ]
        body.append(" * ".join(lits) + " = 0")
    if not body:
        body.append("x1 = x1")
    return header(n) + "\n".join(body) + "\n"


def surviving_count(n: int, mask: int) -> int:
    return (1 << n) - mask.bit_count()


# --- wide -----------------------------------------------------------------

_WIDE_CMDS = ("orth-json", "orth-csv", "orth-text", "classify", "iso", "count")


def _wide_slots() -> list[tuple]:
    slots = []
    for n in range(10, 17):
        for kind in ("json", "beq"):
            for cmd in _WIDE_CMDS:
                slots.append((cmd, n, kind))
        slots.append(("decompose", n, "json"))
    slots += [("err-parse",), ("err-limit",), ("err-inconsistent",), ("err-rank",)]
    # Spread the heavy n=16 requests and error paths through the block;
    # the permutation is fixed, so every seed runs the same order.
    random.Random(0).shuffle(slots)
    slots.insert(len(slots) // 2, ("probe",))
    return slots


WIDE_SLOTS = _wide_slots()


def _wide_input(rng, n, kind, slot_no):
    """(stdin text, forced-zero mask) for one wide input."""
    if kind == "json":
        mask = random_mask(rng, 1 << n, (0.25, 0.5, 0.75)[slot_no % 3])
        return ortho_json(n, mask), mask
    equations = random_equations(rng, n, (20, 30, 40)[slot_no % 3])
    return system_text(rng, n, equations), oracle.disagreement_mask(equations, n)


def _wide_probe(block_no: int) -> Request:
    """Deep-nesting inputs (1200 nested parentheses or a 3000-term join)."""
    if block_no % 2 == 0:
        n = 2
        text = header(n) + "(" * 1200 + "x1" + ")" * 1200 + " = x1 * x2\n"
        mask = 1 << 1  # x1 and not x2: alpha = 1
        kind = "nested-1200"
    else:
        n = 4
        text = header(n) + " + ".join(f"x{i % n + 1}" for i in range(3000)) + " = x1\n"
        # (x1 | x2 | x3 | x4) and not x1: alpha even and nonzero
        mask = sum(1 << a for a in range(2, 1 << n, 2))
        kind = "join-3000"

    def check(code, out, err):
        if code == 0:
            return out == oracle.ortho_output(n, mask, "json")
        return code in (1, 2) and out == "" and err.startswith("error:")

    return Request(
        ["orthogonalize", "--format", "json"],
        text,
        check,
        probe=True,
        tags={"command": "orthogonalize", "format": "json", "n": n, "input": "beq", "probe": kind},
    )


def wide_block(rng: random.Random, block_no: int) -> list[Request]:
    block = []
    for slot_no, slot in enumerate(WIDE_SLOTS):
        kind = slot[0]
        if kind == "probe":
            block.append(_wide_probe(block_no))
        elif kind.startswith("err-"):
            block.append(_wide_error(rng, kind))
        else:
            block.append(_wide_request(rng, slot_no, *slot))
    return block


def _wide_error(rng: random.Random, kind: str) -> Request:
    n = 12
    if kind == "err-parse":
        text = system_text(rng, n, random_equations(rng, n, 20))
        at = rng.randrange(len(header(n)), len(text) - 1)
        return Request(
            ["orthogonalize"],
            text[:at] + "@" + text[at + 1 :],
            expect_error(1),
            tags={"command": "orthogonalize", "format": "json", "n": n, "input": "beq", "error": 1},
        )
    if kind == "err-limit":
        text = system_text(rng, n, random_equations(rng, n, 20))
        return Request(
            ["classify", "--rank", "2", "--max-vars", str(n - 2)],
            text,
            expect_error(2),
            tags={"command": "classify", "format": "text", "n": n, "r": 2, "input": "beq", "error": 2},
        )
    if kind == "err-inconsistent":
        return Request(
            ["classify", "--rank", "2"],
            ortho_json(n, (1 << (1 << n)) - 1),
            expect_error(3),
            tags={"command": "classify", "format": "text", "n": n, "r": 2, "input": "json", "error": 3},
        )
    return Request(
        ["solve", "--rank", "0", "--count"],
        ortho_json(n, random_mask(rng, 1 << n, 0.5)),
        expect_error(4),
        tags={"command": "solve-count", "format": "text", "n": n, "r": 0, "input": "json", "error": 4},
    )


def _wide_request(rng, slot_no, cmd, n, kind) -> Request:
    fmt = FORMATS[(n + (kind == "beq")) % 3]
    r = 1 + slot_no % 8
    tags = {"n": n, "input": kind}
    if cmd.startswith("orth-"):
        fmt = cmd[5:]
        stdin, mask = _wide_input(rng, n, kind, slot_no)
        tags.update(command="orthogonalize", format=fmt)
        return Request(
            ["orthogonalize", "--format", fmt],
            stdin,
            expect_output(lambda: oracle.ortho_output(n, mask, fmt)),
            tags=tags,
        )
    if cmd == "classify":
        stdin, mask = _wide_input(rng, n, kind, slot_no)
        s = surviving_count(n, mask)
        tags.update(command="classify", format=fmt, r=r)
        return Request(
            ["classify", "--rank", str(r), "--format", fmt],
            stdin,
            expect_output(lambda: oracle.classify_output(n, s, r, fmt)),
            tags=tags,
        )
    if cmd == "count":
        stdin, mask = _wide_input(rng, n, kind, slot_no)
        count = surviving_count(n, mask) ** r
        tags.update(command="solve-count", format=fmt, r=r)
        return Request(
            ["solve", "--rank", str(r), "--count", "--format", fmt],
            stdin,
            expect_output(lambda: oracle.count_output(count, fmt)),
            tags=tags,
        )
    if cmd == "iso":
        first, mask1 = _wide_input(rng, n, kind, slot_no)
        if kind == "json" and rng.random() < 0.5:
            # same forced-zero count at other positions: isomorphic
            shift = rng.randrange(1, 1 << n)
            size = 1 << n
            mask2 = ((mask1 << shift) | (mask1 >> (size - shift))) & ((1 << size) - 1)
            second = ortho_json(n, mask2)
        else:
            second, mask2 = _wide_input(rng, n, kind, slot_no + 1)
        a1, a2 = mask1.bit_count(), mask2.bit_count()
        tags.update(command="iso", format=fmt)
        return Request(
            ["iso", "--format", fmt, "-e", first, "-e", second],
            "",
            expect_output(lambda: oracle.iso_output(n, a1, a2, fmt)),
            tags=tags,
        )
    # decompose: planted systems with one to three components
    r = 1 + slot_no % 2
    s = r if n >= 14 else r + 1
    mask = planted_mask(rng, n, s)
    points = oracle.components_count(s, r)
    tags.update(command="decompose", format=fmt, r=r)
    return Request(
        ["decompose", "--rank", str(r), "--format", fmt],
        ortho_json(n, mask),
        expect_output(lambda: oracle.decompose_output(n, mask, r, fmt)),
        points=points,
        tags=tags,
    )


# --- stream ---------------------------------------------------------------


def _stream_slots() -> list[tuple]:
    """(n, s, r, limit, z_space) shapes; each runs in all three formats
    and alternates JSON and .beq input between blocks."""
    shapes = [
        (2, 4, 6, 3000, False),
        (2, 3, 6, 700, True),
        (3, 8, 4, 3000, False),
        (3, 6, 5, 2000, True),
        (4, 12, 3, 1500, False),
        (4, 10, 4, 1500, True),
        (5, 16, 3, 2000, False),
        (5, 6, 5, 2000, False),
        (6, 16, 2, 256, False),
        (6, 4, 6, 1500, False),
    ]
    slots = [shape + (fmt,) for shape in shapes for fmt in FORMATS]
    random.Random(1).shuffle(slots)
    return slots


STREAM_SLOTS = _stream_slots()


def stream_block(rng: random.Random, block_no: int) -> list[Request]:
    block = []
    for slot_no, (n, s, r, limit, z_space, fmt) in enumerate(STREAM_SLOTS):
        mask = planted_mask(rng, n, s)
        kind = "json" if (slot_no + block_no) % 2 == 0 else "beq"
        stdin = ortho_json(n, mask) if kind == "json" else minterm_system_text(n, mask)
        argv = ["solve", "--rank", str(r), "--limit", str(limit), "--format", fmt]
        if z_space:
            argv.append("--z")
        points = min(limit, s**r)
        block.append(
            Request(
                argv,
                stdin,
                _solve_check(n, mask, r, limit, fmt, z_space),
                points=points,
                tags={
                    "command": "solve-z" if z_space else "solve",
                    "format": fmt,
                    "n": n,
                    "r": r,
                    "input": kind,
                },
            )
        )
    return block


def _solve_check(n, mask, r, limit, fmt, z_space):
    # a function of its own so the check binds this slot's values
    return expect_output(lambda: oracle.solve_output(n, mask, r, limit, fmt, z_space, names(n)))


# --- census ---------------------------------------------------------------

_CENSUS_SLOTS = [
    ("exhaustive", 1),
    ("exhaustive", 9),
    ("avg-ir", 0),
    ("avg-ir", 1),
    ("avg-ir", 2),
    ("iso-prob", 0),
    ("iso-prob", 1),
    ("iso-prob", 2),
    ("sample", "avg-irr", 256, 2),
    ("sample", "avg-ir", 1024),
    ("sample", "iso-prob", 64),
    ("sample", "iso-prob", 512),
    ("sweep", 4),
    ("decompose", 4, 12, 4),
    ("decompose", 4, 14, 5),
    ("decompose", 4, 13, 3),
    ("decompose", 4, 15, 2),
    ("decompose", 5, 16, 3),
    ("decompose", 5, 18, 2),
    ("decompose", 5, 17, 4),
]
# Base m of the exact --avg-ir / --iso-prob slots.  Their cost grows as
# m**2, so m only steps up a little per block: distinct inputs at a cost
# that stays the same across seeds.
_CENSUS_M = (300, 800, 1500)


def census_block(rng: random.Random, block_no: int) -> list[Request]:
    block = []
    for slot_no, slot in enumerate(_CENSUS_SLOTS):
        fmt = FORMATS[(slot_no + block_no) % 3]
        block.append(_census_request(rng, slot, fmt, block_no, (slot_no + block_no) % 2))
    return block


def _stats_request(flags, results, samples, seed, fmt, tags) -> Request:
    argv = ["stats", "--format", fmt] + flags
    return Request(
        argv,
        "",
        expect_output(lambda: oracle.stats_output(results(), samples, seed, fmt)),
        tags=dict(tags, format=fmt),
    )


def _census_request(rng, slot, fmt, block_no, parity) -> Request:
    kind = slot[0]
    if kind == "exhaustive":
        # m is fixed at 16, so r cycles to keep the inputs distinct
        r = slot[1] + block_no % 8
        return _stats_request(
            ["--avg-irr", "16", str(r), "--exhaustive"],
            lambda: [("avg-irr", 16, r, oracle.avg_irr(16, r), None)],
            None,
            0,
            fmt,
            {"command": "stats-exhaustive", "m": 16, "r": r},
        )
    if kind in ("avg-ir", "iso-prob"):
        m = _CENSUS_M[slot[1]] + 3 * block_no + rng.randrange(3)
        exact = oracle.avg_ir if kind == "avg-ir" else oracle.iso_prob
        return _stats_request(
            [f"--{kind}", str(m)],
            lambda: [(kind, m, None, exact(m), None)],
            None,
            0,
            fmt,
            {"command": f"stats-{kind}", "m": m},
        )
    if kind == "sample":
        what, m = slot[1], slot[2]
        samples = rng.randint(2000, 2100)
        seed = rng.randrange(1 << 30)
        if what == "avg-irr":
            r = slot[3]
            flags = ["--avg-irr", str(m), str(r)]
            exact = lambda: oracle.avg_irr(m, r)
        else:
            r = None
            flags = [f"--{what}", str(m)]
            exact = (lambda: oracle.avg_ir(m)) if what == "avg-ir" else (lambda: oracle.iso_prob(m))
        return _stats_request(
            flags + ["--samples", str(samples), "--seed", str(seed)],
            lambda: [(what, m, r, exact(), oracle.empirical(what, m, r, samples, seed))],
            samples,
            seed,
            fmt,
            {"command": "stats-samples", "m": m},
        )
    if kind == "sweep":
        ms = sorted(rng.sample(range(8, 257), 3))
        r = slot[1]
        return _stats_request(
            ["--avg-irr", ",".join(map(str, ms)), str(r), "--avg-ir", str(ms[-1])],
            lambda: [("avg-irr", m, r, oracle.avg_irr(m, r), None) for m in ms]
            + [("avg-ir", ms[-1], None, oracle.avg_ir(ms[-1]), None)],
            None,
            0,
            fmt,
            {"command": "stats-sweep", "m": ms[-1], "r": r},
        )
    _, n, s, r = slot
    mask = planted_mask(rng, n, s)
    input_kind = "json" if parity == 0 else "beq"
    stdin = ortho_json(n, mask) if input_kind == "json" else minterm_system_text(n, mask)
    return Request(
        ["decompose", "--rank", str(r), "--format", fmt],
        stdin,
        expect_output(lambda: oracle.decompose_output(n, mask, r, fmt)),
        points=comb(s, r),
        tags={"command": "decompose", "format": fmt, "n": n, "r": r, "input": input_kind},
    )


BLOCKS = {"wide": wide_block, "stream": stream_block, "census": census_block}
