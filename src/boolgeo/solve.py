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

from .algebra import Element, check_rank
from .errors import MissingVariableError, RankMismatchError
from .ortho import OrthogonalSystem, XPoint, ZPoint, orthogonalize
from .syntax import System, Term, compile_term, run


# Cap on the table of the fastest atoms' masks, in mask cells (rows times
# columns).  The table fills before the first point, so the cap bounds the
# work a small --limit pays for it.
_TAIL_TABLE_CELLS = 1 << 12


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


def split_atoms(
    system: OrthogonalSystem, rank: int, *, z_space: bool = False, points: int | None = None
) -> tuple[list[tuple[int, ...]], Iterator[list[int]]]:
    """Split the atoms into the slowest (the head) and the fastest (the tail).

    Returns the tail table, every placement of the fastest atoms as masks
    of the columns x_1..x_n (with ``z_space`` the 2**n minterm cells), and
    a lazy iterator of the masks of each placement of the slowest atoms.
    Each head joined with each tail row, in order, gives the solutions
    over the rank ``rank`` algebra in the order of :func:`solutions_z`.

    The table grows while more than one minterm survives, it stays under
    ``_TAIL_TABLE_CELLS`` and its length squared is below the number of
    points to be written (``points``, at most s**r), which keeps it near
    sqrt(points) rows.
    """
    check_rank(rank)
    surviving = system.surviving
    s = len(surviving)
    width = system.num_minterms if z_space else system.n
    # The columns an atom placed on minterm alpha lands in: its own cell,
    # or each x_i whose bit is set in alpha (found on first use, so a
    # 16-variable stream that places 8 atoms reads 8 minterms, not 65536).
    columns = MaskCache(
        lambda alpha: (alpha,) if z_space else [i for i in range(width) if alpha >> i & 1]
    )

    def place(row, atoms) -> list[int]:
        row = list(row)
        for atom, alpha in atoms:
            for i in columns[alpha]:
                row[i] |= 1 << atom
        return row

    points = s**rank if points is None else min(points, s**rank)
    zeros = (0,) * width
    slow, tails = rank, [zeros]
    while slow and s > 1 and len(tails) ** 2 < points and (
        len(tails) * s * width <= _TAIL_TABLE_CELLS
    ):
        slow -= 1
        tails = [tuple(place(tail, [(slow, alpha)])) for alpha in surviving for tail in tails]
    heads = itertools.product(surviving, repeat=slow)
    return tails, (place(zeros, enumerate(head)) for head in heads)


def solution_masks(
    system: OrthogonalSystem, rank: int, *, z_space: bool = False
) -> Iterator[tuple[int, ...]]:
    """Yield each solution over the rank ``rank`` algebra as plain atom
    masks, in the order of :func:`solutions_z`: x_1..x_n, or with
    ``z_space`` the 2**n minterm cells.

    Each point joins the masks of its slowest atoms, built once per
    prefix, with one row of the table of the fastest atoms
    (:func:`split_atoms`); the table stays under ``_TAIL_TABLE_CELLS``,
    so the stream stays lazy.
    """
    tails, heads = split_atoms(system, rank, z_space=z_space)
    if len(tails) == 1:  # the table places no atom: each head is a point
        yield from map(tuple, heads)
        return
    for head in heads:
        for tail in tails:
            yield tuple(map(or_, head, tail))


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
