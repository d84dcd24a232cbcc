"""Enumerate, count and test solutions over a finite boolean algebra.

The engine rests on one fact: a point satisfies the orthogonal equations
(disjointness plus cover, with some minterm variables forced to zero)
exactly when it distributes the algebra's r atoms among the surviving
minterm variables.  Solutions of an orthogonal system with s surviving
minterms over rank r are therefore the s**r atom assignments.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Mapping
from operator import or_
from types import SimpleNamespace

from .algebra import Element, check_rank
from .errors import MissingVariableError, RankMismatchError
from .ortho import OrthogonalSystem, XPoint, ZPoint, orthogonalize
from .syntax import System, Term, compile_term, run


# Cap on a split's tail table, in cells: entries times the cells of one
# entry (solve's columns, a decomposition's 2**n minterms).  The table fills
# before the first item is written.
_TAIL_TABLE_CELLS = 1 << 14


def _point_rank(point) -> int:
    if isinstance(point, XPoint):
        return point.rank
    for value in point.values() if isinstance(point, Mapping) else ():
        return value.rank
    raise ValueError("cannot infer algebra rank from an empty point")


def _point_masks(point, rank: int) -> "MaskCache":
    """Variable name -> the mask of its value at ``point``, read on first
    use, so a missing variable is reported where evaluation reaches it."""

    def mask(name: str) -> int:
        try:
            value = point[name]
        except KeyError:
            raise MissingVariableError(f"point has no value for variable {name!r}") from None
        if value.rank != rank:
            raise RankMismatchError(
                f"elements of incompatible algebras: rank {rank} vs rank {value.rank}"
            )
        return value.mask

    return MaskCache(mask)


def eval_term(t: Term, point) -> Element:
    """Evaluate ``t`` at ``point`` (an :class:`XPoint` or a nonempty
    mapping from variable names to elements of one algebra)."""
    rank = _point_rank(point)
    return Element(run(compile_term(t), _point_masks(point, rank), (1 << rank) - 1), rank)


def satisfies(system: System, point) -> bool:
    """True when every equation's sides evaluate equal at ``point``."""
    if not system.programs:
        return True
    rank = _point_rank(point)
    masks, full = _point_masks(point, rank), (1 << rank) - 1
    return all(run(lhs, masks, full) == run(rhs, masks, full) for lhs, rhs in system.programs)


def is_consistent(system: OrthogonalSystem) -> bool:
    """True when the system has solutions over some (equivalently, any)
    boolean algebra: at least one minterm variable survives."""
    return system.num_zeroed < system.num_minterms


def count_solutions(system: OrthogonalSystem, rank: int) -> int:
    """Exact number of solutions over the rank ``rank`` algebra:
    (surviving minterms) ** rank, as an unbounded integer."""
    check_rank(rank)
    return (system.num_minterms - system.num_zeroed) ** rank


class MaskCache(dict):
    """Maps a key to ``make(key)``, calling ``make`` once per distinct key:
    a stream of s**r points over rank r repeats at most 2**r masks."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[object], object]):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _tail_size(counts: Callable[[int], tuple[int, int]], last: int, width: int) -> int:
    """The tail size t of a split, given ``counts(t)``, the table entries
    and heads at tail size t <= ``last``: the table grows while it has fewer
    entries than heads and the next one fits in ``_TAIL_TABLE_CELLS`` cells
    of ``width`` per entry, so that entries and heads meet near sqrt(items)."""
    t, (entries, heads) = 0, counts(0)
    while t < last and entries < heads:
        entries, heads = counts(t + 1)
        if entries * width > _TAIL_TABLE_CELLS:
            break
        t += 1
    return t


def _joined(split: tuple[dict, Iterator], join: Callable) -> Iterator:
    """Each head of ``split`` (a table keyed by row and lazy (head, row key)
    pairs) joined by ``join`` with each entry of its table row, in order."""
    tails, heads = split
    for head, key in heads:
        yield from map(join, itertools.repeat(head), tails[key])


class _TailTable(SimpleNamespace):
    """A split's tail table: for each row, in order, and each live column k
    (``live[k]``: each x_i, or each surviving minterm's cell) the slot
    k * 2**t + j, where bit b of j stands for tail atom rank - t + b in that
    column.  A column that is not live is a forced-zero cell, empty in every
    point."""

    def __len__(self) -> int:
        return len(self.slots) // len(self.live)


def split_atoms(
    system: OrthogonalSystem, rank: int, *, z_space: bool = False, points: int | None = None
) -> tuple[dict[int, _TailTable], Iterator[tuple[list[int], int]]]:
    """Split the atoms into the slowest (the head) and the t fastest (the
    tail): {t: the tail table of every placement of the fastest atoms over
    the columns x_1..x_n, or with ``z_space`` the 2**n minterm cells}, and
    a lazy iterator of (the masks of a placement of the slowest in the live
    columns, t).  Each head joined with each row, in order, gives the
    solutions in the order of :func:`solutions_z`.  t is :func:`_tail_size`
    for the points to be written (``points``, at most s**r): about
    sqrt(points) rows.
    """
    check_rank(rank)
    surviving = system.surviving
    s = len(surviving)
    width = system.num_minterms if z_space else system.n
    points = s**rank if points is None else min(points, s**rank)
    t = _tail_size(lambda t: (s**t, -(-points // s**t)), rank, width)
    # With no survivor column 0 stands in for a live one.  An x_i that every
    # survivor sets or clears stays live: folding it saves work only on
    # inputs whose survivors share a bit, so a request's cost would turn on
    # which survivors it drew rather than on n, s and r.
    if z_space:
        live = surviving or (0,)
        # The live column of a survivor's cell is its index among the survivors.
        place = MaskCache(lambda a: (a - (system.zeroed_mask & ~(-1 << a)).bit_count(),))
    else:
        live = tuple(range(width))
        place = MaskCache(lambda alpha: [i for i in live if alpha >> i & 1])
    # With t = 0 the one row holds slot k for live column k.  Otherwise a
    # row is a 16-bit field per live column, k * 2**t plus bit b for tail
    # atom rank - t + b on a survivor that lands there: atom b stays on a
    # survivor for s**(t-1-b) rows, s**b times over.  Fields stay below
    # len(live) * 2**t <= _TAIL_TABLE_CELLS.
    slots = range(len(live))
    if t:
        import struct

        rows, size = s**t, 2 * len(live)
        offsets = struct.pack(f"<{len(live)}H", *(k << t for k in slots))
        packed = int.from_bytes(offsets * rows, "little")
        units = [sum(1 << 16 * k for k in place[a]).to_bytes(size, "little") for a in surviving]
        for b in range(t):
            runs = b"".join(unit * s ** (t - 1 - b) for unit in units)
            packed |= int.from_bytes(runs * s**b, "little") << b
        slots = struct.unpack(f"<{rows * len(live)}H", packed.to_bytes(rows * size, "little"))

    def masks(head) -> list[int]:
        masks = [0] * len(live)
        for atom, alpha in enumerate(head):
            for k in place[alpha]:
                masks[k] |= 1 << atom
        return masks

    heads = itertools.product(surviving, repeat=rank - t)
    table = _TailTable(slots=slots, live=live)
    return {t: table}, ((masks(head), t) for head in heads)


def solution_masks(
    system: OrthogonalSystem, rank: int, *, z_space: bool = False
) -> Iterator[tuple[int, ...]]:
    """Yield each solution over the rank ``rank`` algebra as plain atom
    masks, in the order of :func:`solutions_z`: x_1..x_n, or with
    ``z_space`` the 2**n minterm cells.

    Each point joins the masks of its slowest atoms, built once per
    prefix, with one row of the table of the fastest atoms
    (:func:`split_atoms`), so the stream stays lazy.
    """
    tails, heads = split_atoms(system, rank, z_space=z_space)
    ((t, table),) = tails.items()
    slot_masks = [j << rank - t for j in range(1 << t)] * len(table.live)
    tail = map(slot_masks.__getitem__, table.slots)
    width = system.num_minterms if z_space else system.n

    def widen(masks) -> list[int]:  # the live columns' masks among the empty cells
        point = [0] * width
        for column, mask in zip(table.live, masks):
            point[column] = mask
        return point

    rows = [widen(row) for row in zip(*[tail] * len(table.live))]
    split = {t: rows}, ((widen(head), key) for head, key in heads)
    yield from _joined(split, lambda head, tail: tuple(map(or_, head, tail)))


def solutions_z(system: OrthogonalSystem, rank: int) -> Iterator[ZPoint]:
    """Yield every minterm-space solution over the rank ``rank`` algebra.

    Points are generated lazily in lexicographic atom-assignment order:
    atom 0 varies slowest, candidate minterm indices ascending.  The
    stream is empty iff the system is inconsistent.
    """
    elements = MaskCache(lambda mask: Element(mask, rank))
    for cells in solution_masks(system, rank, z_space=True):
        yield ZPoint(system.n, tuple(map(elements.__getitem__, cells)))


def solutions_x(
    system: System, rank: int, *, max_vars: int | None = None
) -> Iterator[XPoint]:
    """Yield every variable-space solution of ``system`` over the rank
    ``rank`` algebra, duplicate-free and in a deterministic order.

    Implemented by orthogonalizing and building each point's variable
    masks from its atom assignment; the points are those of
    :func:`solutions_z` mapped by :func:`~boolgeo.ortho.x_from_z`, in the
    same order, and the stream length equals :func:`count_solutions` of
    the orthogonal form.
    """
    ortho_system = orthogonalize(system, max_vars=max_vars)
    elements = MaskCache(lambda mask: Element(mask, rank))
    for masks in solution_masks(ortho_system, rank):
        yield XPoint(system.variables, tuple(map(elements.__getitem__, masks)))
