"""Enumerate, count and test solutions over a finite boolean algebra.

The engine rests on one fact: a point satisfies the orthogonal equations
(disjointness plus cover, with some minterm variables forced to zero)
exactly when it distributes the algebra's r atoms among the surviving
minterm variables.  Solutions of an orthogonal system with s surviving
minterms over rank r are therefore the s**r atom assignments.
"""

from __future__ import annotations

import itertools
from operator import or_
from typing import Callable, Iterator, Mapping

from .algebra import Element, check_rank
from .errors import MissingVariableError
from .ortho import OrthogonalSystem, XPoint, ZPoint, orthogonalize
from .syntax import Complement, Const, Join, Meet, System, Term, Var

# Maps atom index 0..r-1 to the surviving minterm index receiving that
# atom; one assignment corresponds to one solution point.
AtomAssignment = tuple[int, ...]

# Cap on the table of the fastest atoms' x-space masks, in mask cells
# (rows times variables).  The table fills before the first point, so the
# cap bounds the work a small --limit pays for it.
_TAIL_TABLE_CELLS = 1 << 12


def _point_rank(point) -> int:
    if isinstance(point, XPoint):
        return point.rank
    for value in point.values() if isinstance(point, Mapping) else ():
        return value.rank
    raise ValueError("cannot infer algebra rank from an empty point")


def eval_term(t: Term, point) -> Element:
    """Evaluate ``t`` at ``point`` (an :class:`XPoint` or a nonempty
    mapping from variable names to elements of one algebra)."""
    rank = _point_rank(point)

    def walk(node: Term) -> Element:
        if isinstance(node, Var):
            try:
                return point[node.name]
            except KeyError:
                raise MissingVariableError(
                    f"point has no value for variable {node.name!r}"
                ) from None
        if isinstance(node, Const):
            return Element.one(rank) if node.value else Element.zero(rank)
        if isinstance(node, Join):
            return walk(node.left) | walk(node.right)
        if isinstance(node, Meet):
            return walk(node.left) & walk(node.right)
        if isinstance(node, Complement):
            return ~walk(node.term)
        raise TypeError(f"not a term: {node!r}")

    return walk(t)


def satisfies(system: System, point) -> bool:
    """True when every equation's sides evaluate equal at ``point``."""
    return all(
        eval_term(eq.lhs, point) == eval_term(eq.rhs, point)
        for eq in system.equations
    )


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
    """Maps a coordinate mask to ``make(mask)``, calling ``make`` once per
    distinct mask: a stream of s**r points over rank r repeats at most
    2**r masks."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[int], object]):
        super().__init__()
        self.make = make

    def __missing__(self, mask: int):
        value = self[mask] = self.make(mask)
        return value


def _x_masks(assignment: AtomAssignment, first_atom: int, n: int) -> tuple[int, ...]:
    # x_i holds each atom whose minterm has bit i-1 set; the atoms placed
    # by ``assignment`` are first_atom, first_atom + 1, ...
    masks = [0] * n
    for atom, alpha in enumerate(assignment, first_atom):
        i = 0
        while alpha:
            if alpha & 1:
                masks[i] |= 1 << atom
            alpha >>= 1
            i += 1
    return tuple(masks)


def solution_masks(
    system: OrthogonalSystem, rank: int, *, z_space: bool = False
) -> Iterator[tuple[int, ...]]:
    """Yield each solution over the rank ``rank`` algebra as plain atom
    masks, in the order of :func:`solutions_z`: x_1..x_n, or with
    ``z_space`` the 2**n minterm cells.

    Each point is built from its atom assignment.  A minterm-space point
    is r nonzero cells on a shared all-zero row.  A variable-space point
    joins the masks of its slowest atoms, computed once per prefix, with
    one row of a table holding every placement of the fastest atoms; the
    table stays under ``_TAIL_TABLE_CELLS``, so the stream stays lazy.
    """
    check_rank(rank)
    surviving = system.surviving
    if z_space:
        zeros = [0] * system.num_minterms
        for assignment in itertools.product(surviving, repeat=rank):
            cells = zeros.copy()
            for atom, alpha in enumerate(assignment):
                cells[alpha] |= 1 << atom
            yield tuple(cells)
        return
    n = system.n
    slow = rank
    tails = [(0,) * n]
    while slow and len(tails) * len(surviving) * n <= _TAIL_TABLE_CELLS:
        slow -= 1
        tails = [
            tuple(map(or_, head, tail))
            for head in (_x_masks((alpha,), slow, n) for alpha in surviving)
            for tail in tails
        ]
    for prefix in itertools.product(surviving, repeat=slow):
        head = _x_masks(prefix, 0, n)
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
