"""Classify the algebraic sets defined by orthogonal systems.

For a consistent orthogonal system with s surviving minterm variables
(the system's coordinate rank), the solution set over the rank-r algebra
is irreducible exactly when s <= r.  Otherwise it splits into C(s, r)
irreducible components, one per way of forcing s - r further minterm
variables to zero.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from functools import partial
from itertools import combinations
from math import comb

from .algebra import check_rank
from .errors import InconsistentSystemError, SystemMismatchError
from .ortho import MintermIndex, OrthogonalSystem, _mask_from_indices
from .solve import _joined, _tail_size, is_consistent


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
        # An irreducible system is its own component: no survivors are listed.
        self._survivors = system.surviving if self._extra else ()

    def __len__(self) -> int:
        return self._count

    def split(self) -> tuple[dict[int, list[int]], Iterator[tuple[int, int]]]:
        """Split the survivors into the first h (the head) and the last t
        (the tail).

        A component adds k survivors: a part P of the head and a part Q of
        the tail.  Returns the tail table, which maps each |Q| that occurs
        to the masks of (the forced zeros at or above the first tail
        survivor) | Q, one per Q in combination order, and a lazy iterator
        of (the forced zeros below it) | P with its |Q|, one per P.  Each
        head joined with each mask of its table row, in order, gives
        :meth:`masks`: in combination order the components that share P
        are contiguous, and they come in the order of P followed by a
        position past the head.

        t is :func:`~boolgeo.solve._tail_size` of the C(s, k) components;
        t = 0 makes one head per component.
        """
        survivors, k, n = self._survivors, self._extra, self.system.n
        zeros = self.system.zeroed_mask
        if not k:
            return {0: [0]}, iter([(zeros, 0)])
        s = len(survivors)

        def counts(t):
            # The entries are the subsets Q of the tail that leave at most
            # h = s - t survivors to the head, and the heads the parts P.
            sizes = range(max(k - t, 0), min(k, s - t) + 1)
            return sum(comb(t, k - p) for p in sizes), sum(comb(s - t, p) for p in sizes)

        t = _tail_size(counts, s - 1, 1 << n)
        h = s - t
        low = zeros & ((1 << survivors[h]) - 1) if t else zeros
        lo, hi = max(k - t, 0), min(k, h)
        tails = {
            q: [zeros ^ low | _bits(n, survivors, tail) for tail in combinations(range(h, s), q)]
            for q in range(k - hi, k - lo + 1)
        }
        return tails, _heads(n, survivors[:h], low, lo, hi, k)

    def masks(self) -> Iterator[int]:
        """The forced-zero mask of each component, in sequence order."""
        yield from _joined(self.split(), operator.or_)

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
        survivors, n = self._survivors, self.system.n
        added = _bits(n, survivors, _unrank(k, len(survivors), self._extra))
        return OrthogonalSystem(n, self.system.zeroed_mask | added)

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


def _bits(n: int, minterms: Sequence[MintermIndex], positions: Sequence[int]) -> int:
    """The mask of the minterms at ``positions``: an OR each, which copies the
    mask, for fewer than 32, else one scatter into 2**n digits."""
    if len(positions) >= 32:
        return _mask_from_indices(n, map(minterms.__getitem__, positions))
    mask = 0
    for i in positions:
        mask |= 1 << minterms[i]
    return mask


def _heads(
    n: int, head: tuple[MintermIndex, ...], low: int, lo: int, hi: int, k: int
) -> Iterator[tuple[int, int]]:
    """(low | P, k - |P|) for each subset P of ``head`` with lo <= |P| <=
    hi, in the order of P followed by a position past the head.

    The sets that share their first lo positions are contiguous and end
    with those lo alone; below them a post-order walk adds up to hi - lo
    later positions, one bit per step."""
    h, depth = len(head), hi - lo
    for first in combinations(range(h), lo):
        masks = [low | _bits(n, head, first)]
        nexts = [first[-1] + 1 if first else 0]
        while masks:
            j = nexts[-1]
            if j < h and len(masks) <= depth:
                nexts[-1] = j + 1
                masks.append(masks[-1] | 1 << head[j])
                nexts.append(j + 1)
            else:
                nexts.pop()
                mask = masks.pop()
                yield mask, k - lo - len(masks)


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
