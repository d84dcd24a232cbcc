"""Arithmetic in a finite boolean algebra of rank r.

An algebra of rank r is the power-set algebra on r atoms; its 2**r
elements are represented as bitmasks over atom indices 0..r-1.  Elements
are immutable values and all operations are pure, so they are safe to
share freely.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from ._record import Record, setfield
from .errors import RankMismatchError

# One machine word of atoms; larger ranks have no desk-scale use.
MAX_RANK = 64


def check_rank(rank: int) -> None:
    """Reject ranks outside 1..MAX_RANK."""
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise TypeError(f"rank must be an int, got {type(rank).__name__}")
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if rank > MAX_RANK:
        raise ValueError(f"rank {rank} exceeds the supported maximum {MAX_RANK}")


class Element(Record):
    """A member of the boolean algebra of rank ``rank``: a set of atoms.

    ``mask`` holds the atom set, bit i standing for atom i.

    >>> a = Element.from_atoms([0, 2], rank=3)
    >>> str(a | ~a)
    '{0,1,2}'
    """

    __slots__ = ("mask", "rank")

    def __init__(self, mask: int, rank: int):
        setfield(self, "mask", mask)
        setfield(self, "rank", rank)
        self.__post_init__()

    def __post_init__(self):
        check_rank(self.rank)
        if not 0 <= self.mask < (1 << self.rank):
            raise ValueError(
                f"mask {self.mask:#x} out of range for rank {self.rank}"
            )

    @classmethod
    def zero(cls, rank: int) -> "Element":
        return cls(0, rank)

    @classmethod
    def one(cls, rank: int) -> "Element":
        return cls((1 << rank) - 1, rank)

    @classmethod
    def from_atoms(cls, atom_indices: Iterable[int], rank: int) -> "Element":
        mask = 0
        for i in atom_indices:
            if not 0 <= i < rank:
                raise ValueError(f"atom index {i} out of range for rank {rank}")
            mask |= 1 << i
        return cls(mask, rank)

    @property
    def is_zero(self) -> bool:
        return self.mask == 0

    @property
    def is_one(self) -> bool:
        return self.mask == (1 << self.rank) - 1

    def atoms(self) -> tuple[int, ...]:
        """Atom indices contained in this element, ascending."""
        return tuple(i for i in range(self.rank) if (self.mask >> i) & 1)

    def join(self, other: "Element") -> "Element":
        _check_same_rank(self, other)
        return Element(self.mask | other.mask, self.rank)

    def meet(self, other: "Element") -> "Element":
        _check_same_rank(self, other)
        return Element(self.mask & other.mask, self.rank)

    def complement(self) -> "Element":
        return Element(self.mask ^ ((1 << self.rank) - 1), self.rank)

    __or__ = join
    __and__ = meet
    __invert__ = complement

    def __str__(self) -> str:
        return format_element(self)


def _check_same_rank(x: Element, y: Element) -> None:
    if x.rank != y.rank:
        raise RankMismatchError(
            f"elements of incompatible algebras: rank {x.rank} vs rank {y.rank}"
        )


def join(x: Element, y: Element) -> Element:
    """Least upper bound: union of atom sets."""
    return x.join(y)


def meet(x: Element, y: Element) -> Element:
    """Greatest lower bound: intersection of atom sets."""
    return x.meet(y)


def complement(x: Element) -> Element:
    """Set complement within the algebra's atom set."""
    return x.complement()


def atoms(rank: int) -> list[Element]:
    """The rank many atoms (singleton elements) of the algebra, ascending."""
    check_rank(rank)
    return [Element(1 << i, rank) for i in range(rank)]


def elements(rank: int) -> Iterator[Element]:
    """All 2**rank elements, in mask order."""
    check_rank(rank)
    for mask in range(1 << rank):
        yield Element(mask, rank)


def format_element(e: Element) -> str:
    """Render as a sorted atom list, e.g. ``{0,2}``; zero prints as ``{}``."""
    return "{" + ",".join(str(i) for i in e.atoms()) + "}"


def parse_element(text: str, rank: int) -> Element:
    """Parse the ``{0,2}`` notation; ``0`` and ``1`` are accepted as
    aliases for the bottom and top elements."""
    check_rank(rank)
    s = text.strip()
    if s == "0":
        return Element.zero(rank)
    if s == "1":
        return Element.one(rank)
    if not (s.startswith("{") and s.endswith("}")):
        raise ValueError(f"not an element: {text!r}")
    body = s[1:-1].strip()
    if not body:
        return Element.zero(rank)
    try:
        indices = [int(part) for part in body.split(",")]
    except ValueError:
        raise ValueError(f"not an element: {text!r}") from None
    return Element.from_atoms(indices, rank)
