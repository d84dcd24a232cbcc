"""Reference answers for the benchmark, computed without importing boolgeo.

Every expected output the benchmark checks is derived here from the
generator's own data (planted masks, term trees, seeds) with stdlib code
only.  The formats follow the CLI contract in the README: lsb-first
minterm indices, ``z_(a1,...,an)`` minterm names, ``{0,2}`` elements.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import random
from fractions import Fraction
from math import comb

# --- bit masks ----------------------------------------------------------


def set_bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending (string scan)."""
    return [i for i, c in enumerate(reversed(bin(mask)[2:])) if c == "1"]


def minterm_name(alpha: int, n: int) -> str:
    return "z_(" + ",".join("1" if alpha >> i & 1 else "0" for i in range(n)) + ")"


def element_text(mask: int) -> str:
    return "{" + ",".join(map(str, set_bits(mask))) + "}"


# --- terms: ('v', i) | ('c', bit) | ('!', t) | ('+', a, b) | ('*', a, b) --


def variable_columns(n: int) -> list[int]:
    """Column i has bit alpha set iff bit i of alpha is set."""
    size = 1 << n
    cols = []
    for i in range(n):
        block = 1 << i
        pattern = ("0" * block + "1" * block) * (size // (2 * block))
        cols.append(int(pattern[::-1], 2))
    return cols


def eval_columns(t, cols: list[int], full: int) -> int:
    """Bit-parallel evaluation of a term at all 2**n assignments at once."""
    op = t[0]
    if op == "v":
        return cols[t[1]]
    if op == "c":
        return full if t[1] else 0
    if op == "!":
        return full ^ eval_columns(t[1], cols, full)
    a = eval_columns(t[1], cols, full)
    b = eval_columns(t[2], cols, full)
    return a | b if op == "+" else a & b


def eval_at(t, alpha: int) -> int:
    """Value of a term at the single assignment encoded by ``alpha``."""
    op = t[0]
    if op == "v":
        return alpha >> t[1] & 1
    if op == "c":
        return t[1]
    if op == "!":
        return 1 - eval_at(t[1], alpha)
    a, b = eval_at(t[1], alpha), eval_at(t[2], alpha)
    return a | b if op == "+" else a & b


def disagreement_mask(equations, n: int) -> int:
    """Forced-zero mask of a system: assignments where some equation's
    two sides differ."""
    cols = variable_columns(n)
    full = (1 << (1 << n)) - 1
    mask = 0
    for lhs, rhs in equations:
        mask |= eval_columns(lhs, cols, full) ^ eval_columns(rhs, cols, full)
    return mask


def disagreement_mask_pointwise(equations, n: int) -> int:
    """The same mask by evaluating every equation at every assignment."""
    mask = 0
    for alpha in range(1 << n):
        if any(eval_at(lhs, alpha) != eval_at(rhs, alpha) for lhs, rhs in equations):
            mask |= 1 << alpha
    return mask


# --- expected CLI outputs -------------------------------------------------


def _csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _json(obj) -> str:
    return json.dumps(obj) + "\n"


def _lines(lines) -> str:
    return "".join(line + "\n" for line in lines)


def ortho_output(n: int, mask: int, fmt: str) -> str:
    zeroed = set_bits(mask)
    if fmt == "json":
        return _json({"n": n, "A": zeroed, "layout": "lsb-first"})
    if fmt == "csv":
        return _csv([["n", "zeroed_count", "zeroed"], [n, len(zeroed), " ".join(map(str, zeroed))]])
    if not zeroed:
        return ""
    return "\n".join(f"{minterm_name(a, n)} = 0" for a in zeroed) + "\n"


def components_count(s: int, r: int) -> int:
    return 1 if s <= r else comb(s, r)


def classify_output(n: int, s: int, r: int, fmt: str) -> str:
    irreducible = s <= r
    components = components_count(s, r)
    if fmt == "json":
        return _json(
            {
                "n": n,
                "rank": r,
                "coordinate_rank": s,
                "irreducibility_rank": s,
                "irreducible": irreducible,
                "components": components,
            }
        )
    if fmt == "csv":
        return _csv(
            [
                ["n", "rank", "coordinate_rank", "irreducibility_rank", "irreducible", "components"],
                [n, r, s, s, irreducible, components],
            ]
        )
    return _lines(
        [
            f"coordinate rank: {s}",
            f"irreducibility rank: {s}",
            f"irreducible over rank {r}: {'yes' if irreducible else 'no'}",
            f"components over rank {r}: {components}",
        ]
    )


def iso_output(n: int, a1: int, a2: int, fmt: str) -> str:
    verdict = a1 == a2
    if fmt == "json":
        return _json({"n": n, "a1": a1, "a2": a2, "isomorphic": verdict})
    if fmt == "csv":
        return _csv([["n", "a1", "a2", "isomorphic"], [n, a1, a2, verdict]])
    word = "isomorphic" if verdict else "not isomorphic"
    return f"{word} (|A1| = {a1}, |A2| = {a2})\n"


def count_output(count: int, fmt: str) -> str:
    if fmt == "json":
        return _json({"count": count})
    if fmt == "csv":
        return _csv([["count"], [count]])
    return f"{count}\n"


def decompose_components(n: int, mask: int, r: int) -> list[list[int]]:
    """Forced-zero index lists of the irreducible components, in
    ascending combination order of the added indices."""
    zeroed = set_bits(mask)
    surviving = set_bits(((1 << (1 << n)) - 1) ^ mask)
    s = len(surviving)
    if s <= r:
        return [zeroed]
    return [
        sorted(zeroed + list(extra))
        for extra in itertools.combinations(surviving, s - r)
    ]


def decompose_output(n: int, mask: int, r: int, fmt: str) -> str:
    parts = decompose_components(n, mask, r)
    if fmt == "json":
        return _json(
            {
                "layout": "lsb-first",
                "n": n,
                "rank": r,
                "components": [{"n": n, "A": a} for a in parts],
            }
        )
    if fmt == "csv":
        return _csv(
            [["component", "zeroed"]]
            + [[i, " ".join(map(str, a))] for i, a in enumerate(parts, 1)]
        )
    lines = []
    for i, a in enumerate(parts, 1):
        body = ", ".join(f"{minterm_name(x, n)} = 0" for x in a) if a else "(no forced-zero minterms)"
        lines.append(f"component {i}: {body}")
    return _lines(lines)


def solve_output(
    n: int, mask: int, r: int, limit: int, fmt: str, z_space: bool, names: list[str]
) -> str:
    """Expected ``solve`` output: the first ``limit`` atom assignments to
    surviving minterms, atom 0 varying slowest."""
    surviving = set_bits(((1 << (1 << n)) - 1) ^ mask)
    size = 1 << n
    text = [element_text(m) for m in range(1 << r)]
    atom_lists = [set_bits(m) for m in range(1 << r)]
    rows = []
    for assignment in itertools.islice(itertools.product(surviving, repeat=r), limit):
        if z_space:
            masks = [0] * size
            for atom, alpha in enumerate(assignment):
                masks[alpha] |= 1 << atom
        else:
            masks = [0] * n
            for atom, alpha in enumerate(assignment):
                for i in range(n):
                    if alpha >> i & 1:
                        masks[i] |= 1 << atom
        rows.append(masks)
    if z_space:
        headers = [minterm_name(a, n) for a in range(size)]
    else:
        headers = names
    if fmt == "json":
        if z_space:
            solutions = [{"cells": [atom_lists[m] for m in row]} for row in rows]
        else:
            solutions = [dict(zip(names, (atom_lists[m] for m in row))) for row in rows]
        return _json({"layout": "lsb-first", "rank": r, "solutions": solutions})
    if fmt == "csv":
        return _csv([headers] + [[text[m] for m in row] for row in rows])
    return _lines(" ".join(f"{h}={text[m]}" for h, m in zip(headers, row)) for row in rows)


# --- stats ----------------------------------------------------------------


def avg_irr(m: int, r: int) -> Fraction:
    """Mean component count over all 2**m forced-zero sets, grouped by
    the surviving count s (binomially many sets per s)."""
    total = sum(comb(m, s) * components_count(s, r) for s in range(m + 1))
    return Fraction(total, 1 << m)


def avg_ir(m: int) -> Fraction:
    return Fraction(m, 2)


def iso_prob(m: int) -> Fraction:
    return Fraction(comb(2 * m, m), 4**m)


def empirical(kind: str, m: int, r: int | None, samples: int, seed: int) -> float:
    """Replays the documented Monte Carlo stream: mt19937 seeded with
    ``seed``, one ``getrandbits(m)`` forced-zero mask per system."""
    rng = random.Random(seed)
    if kind == "iso-prob":
        hits = 0
        for _ in range(samples):
            if rng.getrandbits(m).bit_count() == rng.getrandbits(m).bit_count():
                hits += 1
        return hits / samples
    total = 0
    for _ in range(samples):
        s = m - rng.getrandbits(m).bit_count()
        total += components_count(s, r) if kind == "avg-irr" else s
    return total / samples


def stats_output(results, samples: int | None, seed: int, fmt: str) -> str:
    """``results`` lists (kind, m, r or None, exact Fraction, empirical
    float or None) in the order the CLI reports them."""
    if fmt == "json":
        entries = []
        for kind, m, r, exact, emp in results:
            entry = {"kind": kind, "m": m, "exact": str(exact), "approx": float(exact)}
            if r is not None:
                entry["r"] = r
            if emp is not None:
                entry.update(empirical=emp, samples=samples, seed=seed, rng="mt19937")
            entries.append(entry)
        return _json({"results": entries})
    if fmt == "csv":
        rows = [["kind", "m", "r", "exact", "approx", "samples", "seed", "empirical"]]
        for kind, m, r, exact, emp in results:
            rows.append(
                [
                    kind,
                    m,
                    "" if r is None else r,
                    str(exact),
                    float(exact),
                    "" if emp is None else samples,
                    "" if emp is None else seed,
                    "" if emp is None else emp,
                ]
            )
        return _csv(rows)
    bare = len(results) == 1 and results[0][4] is None
    lines = []
    for kind, m, r, exact, emp in results:
        if bare:
            lines.append(f"{exact} ({float(exact)})")
        else:
            label = f"{kind} m={m}" + ("" if r is None else f" r={r}")
            lines.append(f"{label}: {exact} ({float(exact)})")
        if emp is not None:
            lines.append(f"  empirical: {emp} (samples={samples}, seed={seed}, rng=mt19937)")
    return _lines(lines)
