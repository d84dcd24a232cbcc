"""Classify the algebraic sets defined by orthogonal systems.

For a consistent orthogonal system with s surviving minterm variables
(the system's coordinate rank), the solution set over the rank-r algebra
is irreducible exactly when s <= r.  Otherwise it splits into C(s, r)
irreducible components, one per way of forcing s - r further minterm
variables to zero.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence
from functools import partial
from math import comb
from typing import Iterator

from .algebra import check_rank
from .errors import InconsistentSystemError, SystemMismatchError
from .ortho import MintermIndex, OrthogonalSystem, _mask_from_indices
from .solve import is_consistent


# Component masks up to this many minterm bits are summed from a table of
# single-bit masks; wider ones are built once each from their indices, so
# no table holds s masks of 2**n bits.
_BIT_TABLE_MINTERMS = 64


class Decomposition(Sequence[OrthogonalSystem]):
    """The irreducible components of a solution set over a rank ``rank``
    algebra, each given by its own orthogonal system (a superset of the
    original forced zeros).

    The sequence is lazy: its length is :func:`irr_count`, iteration
    builds the components one at a time in ascending combination order
    of the added indices, and indexing unranks the k-th combination in
    the combinatorial number system, in O(s) big-int steps.
    """

    __slots__ = ("system", "rank", "_extra", "_count", "_survivors")

    def __init__(self, system: OrthogonalSystem, rank: int):
        check_rank(rank)
        free = coordinate_rank(system)
        self.system = system
        self.rank = rank
        self._extra = max(free - rank, 0)
        self._count = component_count(free, rank)
        self._survivors = system.surviving

    def __len__(self) -> int:
        return self._count

    def masks(self) -> Iterator[int]:
        """The forced-zero mask of each component, in sequence order."""
        base = self.system.zeroed_mask
        if not self._extra:
            return iter((base,))
        if self.system.num_minterms <= _BIT_TABLE_MINTERMS:
            bits = [1 << alpha for alpha in self._survivors]
            return map(base.__or__, map(sum, itertools.combinations(bits, self._extra)))
        extras = itertools.combinations(self._survivors, self._extra)
        return map(base.__or__, map(partial(_mask_from_indices, self.system.n), extras))

    def __iter__(self) -> Iterator[OrthogonalSystem]:
        return map(partial(OrthogonalSystem, self.system.n), self.masks())

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(*k.indices(self._count))))
        k = operator.index(k)
        if k < 0:
            k += self._count
        if not 0 <= k < self._count:
            raise IndexError("component index out of range")
        extra = map(self._survivors.__getitem__, _unrank(k, len(self._survivors), self._extra))
        n = self.system.n
        return OrthogonalSystem(n, self.system.zeroed_mask | _mask_from_indices(n, extra))

    @property
    def components(self) -> tuple[OrthogonalSystem, ...]:
        """Every component, built at once."""
        return tuple(self)

    def __eq__(self, other):
        if not isinstance(other, Decomposition):
            return NotImplemented
        # rank >= 1 leaves at least one survivor free, so the forced zeros
        # shared by all components are the system's: equal component lists
        # mean an equal system and an equal number of added zeros.
        return (self.system, self._extra) == (other.system, other._extra)

    def __hash__(self):
        return hash((self.system, self._extra))

    def __repr__(self):
        # Sizes only: the system's own repr prints its whole 2**n-bit mask
        # (in hex), as long as 2**14 digits at 16 variables.
        return (
            f"Decomposition(n={self.system.n}, zeroed={self.system.num_zeroed}, "
            f"rank={self.rank}, components={self._count})"
        )


def _unrank(k: int, s: int, t: int) -> list[int]:
    """The k-th t-subset of range(s) in ascending lexicographic order,
    0 <= k < C(s, t).  With p places open, the subsets that take candidate
    j next number C(s-1-j, p-1); that count moves to the next candidate in
    one multiply and one exact division, so the walk is O(s) steps."""
    chosen: list[int] = []
    if not t:
        return chosen
    after, open_places = s - 1, t - 1
    count = comb(after, open_places)
    for j in range(s):
        if k < count:
            chosen.append(j)
            if not open_places:
                return chosen
            count = count * open_places // after
            open_places -= 1
        else:
            k -= count
            count = count * (after - open_places) // after
        after -= 1
    raise AssertionError("rank out of range")


def _require_consistent(system: OrthogonalSystem) -> None:
    if not is_consistent(system):
        raise InconsistentSystemError(
            "system is inconsistent (every minterm variable is forced to zero)"
        )


def coordinate_rank(system: OrthogonalSystem) -> int:
    """Rank of the solution set's coordinate algebra: the number of
    surviving minterm variables.  Undefined for inconsistent systems."""
    _require_consistent(system)
    return system.num_minterms - system.num_zeroed


def coordinate_atoms(system: OrthogonalSystem) -> tuple[MintermIndex, ...]:
    """The surviving minterm indices, ascending; their classes are the
    atoms of the coordinate algebra, so the length equals
    :func:`coordinate_rank`."""
    _require_consistent(system)
    return system.surviving


def is_irreducible(system: OrthogonalSystem, rank: int) -> bool:
    """True when the (nonempty) solution set over the rank ``rank``
    algebra is not a finite proper union of algebraic sets."""
    check_rank(rank)
    return coordinate_rank(system) <= rank


def decompose(system: OrthogonalSystem, rank: int) -> Decomposition:
    """Split the solution set over the rank ``rank`` algebra into its
    irreducible components.

    Already-irreducible systems decompose as themselves.  Otherwise each
    component forces coordinate_rank - rank additional surviving minterms
    to zero; components come in ascending combination order of the added
    indices and each has coordinate rank exactly ``rank``.  The result is
    a lazy :class:`Decomposition`: nothing is built until it is read.
    """
    return Decomposition(system, rank)


def component_count(free: int, rank: int) -> int:
    """Component count of a system with ``free`` surviving minterms over
    the rank ``rank`` algebra: 1 when ``free <= rank``, else C(free, rank)."""
    return 1 if free <= rank else comb(free, rank)


def irr_count(system: OrthogonalSystem, rank: int) -> int:
    """Number of irreducible components over the rank ``rank`` algebra:
    1 when the coordinate rank is at most ``rank``, else C(s, rank).

    Inconsistent systems are accepted and count as 1; this matches the
    averaging convention in :mod:`boolgeo.stats`, which weighs every
    forced-zero set equally, empty solution set included.
    """
    check_rank(rank)
    return component_count(system.num_minterms - system.num_zeroed, rank)


def irreducibility_rank(system: OrthogonalSystem) -> int:
    """Least algebra rank at which the solution set is irreducible:
    the count of surviving minterms, or 0 for inconsistent systems."""
    if not is_consistent(system):
        return 0
    return system.num_minterms - system.num_zeroed


def are_isomorphic(first: OrthogonalSystem, second: OrthogonalSystem) -> bool:
    """True when the two solution sets have isomorphic coordinate
    algebras, i.e. equally many forced-zero minterms.  Both systems must
    share the same variable count."""
    if first.n != second.n:
        raise SystemMismatchError(
            f"cannot compare systems over different variable counts "
            f"({first.n} vs {second.n})"
        )
    return first.num_zeroed == second.num_zeroed
