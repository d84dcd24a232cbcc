"""Canonical orthogonal form of equation systems.

A system in n variables is equivalent to one over the 2**n minterm
variables, in which each minterm variable is either forced to zero or
left free, subject to the implicit pairwise-disjointness and cover
equations.  The whole system is therefore captured by the set of
forced-zero minterm indices.

Minterm index bit layout (``lsb-first``): a minterm is identified by an
n-bit word whose bit i-1 holds the exponent of variable x_i, so the
tuple (a_1, ..., a_n) maps to the integer sum(a_i << (i-1)).  The word
``alpha`` ranges over 0 .. 2**n - 1.  This layout is fixed across the
library, the JSON wire format and the CLI.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import lru_cache
from itertools import compress, product

from ._record import Record, setfield
from .algebra import MAX_RANK, Element, bits_text
from .errors import (
    LimitExceededError,
    MissingVariableError,
    ParseError,
    SystemMismatchError,
)
from .syntax import System, Term, compile_term, parse_system, run

MintermIndex = int

DEFAULT_MAX_VARS = 16
MAX_VARS_ENV = "BOOLGEO_MAX_VARS"

# Hard representation ceiling: 2**20 minterm bits.  Every conversion
# between the mask and its index list is linear in 2**n; at n=20 a JSON
# system with half its minterms forced to zero takes about 0.24 s to
# classify and, end to end, 0.21 s to orthogonalize to JSON, 0.20 s to
# CSV and 0.36 s to text (2-vCPU VM, Python 3.11), so past 16 variables
# the cost is the 2**n-entry outputs, not the orthogonal form.
HARD_MAX_VARS = 20

# bytes.translate tables from the ASCII digits of a mask to 0/1 flags.
_SET_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
_CLEAR_FLAGS = bytes.maketrans(b"01", b"\x01\x00")


def max_vars_limit() -> int:
    """Effective default variable limit; BOOLGEO_MAX_VARS overrides."""
    raw = os.environ.get(MAX_VARS_ENV)
    if raw is None:
        return DEFAULT_MAX_VARS
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{MAX_VARS_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{MAX_VARS_ENV} must be >= 1, got {value}")
    return value


def check_var_limit(n: int, max_vars: int | None = None) -> None:
    """Raise LimitExceededError when ``n`` variables exceed ``max_vars``,
    or :func:`max_vars_limit` when ``max_vars`` is None."""
    limit = max_vars if max_vars is not None else max_vars_limit()
    if n > limit:
        raise LimitExceededError(
            f"system has {n} variables, limit is {limit} "
            f"(override with max_vars or ${MAX_VARS_ENV})"
        )


def index_to_bits(alpha: MintermIndex, n: int) -> tuple[int, ...]:
    """The exponent tuple (a_1, ..., a_n) encoded by ``alpha``, for ``n``
    up to HARD_MAX_VARS."""
    if not (alpha >= 0 and alpha.bit_length() <= n):
        raise ValueError(f"minterm index {alpha} out of range for n={n}")
    if n > HARD_MAX_VARS:
        raise LimitExceededError(
            f"{n} variables exceed the hard representation cap ({HARD_MAX_VARS})"
        )
    return tuple((alpha >> i) & 1 for i in range(n))


def bits_to_index(bits: Iterable[int]) -> MintermIndex:
    """Inverse of :func:`index_to_bits`."""
    alpha = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"exponents must be 0 or 1, got {b!r}")
        alpha |= b << i
    return alpha


def format_minterm(alpha: MintermIndex, n: int) -> str:
    """Human-readable minterm variable name, e.g. ``z_(0,1)``."""
    return "z_(" + ",".join(str(b) for b in index_to_bits(alpha, n)) + ")"


@lru_cache(maxsize=None)
def _bit_words(width: int) -> tuple[str, ...]:
    # Entry i is the comma-joined lsb-first bits of i; product() varies its
    # first position slowest, so each tuple is read back to front.  Widths
    # are at most half of HARD_MAX_VARS, so the cache stays a few KB.
    return tuple(",".join(bits[::-1]) for bits in product("01", repeat=width))


def minterm_labels(indices: Iterable[MintermIndex], n: int) -> list[str]:
    """:func:`format_minterm` of each in-range index for ``n`` up to
    HARD_MAX_VARS, looked up in two tables of 2**(n/2) half-labels
    instead of built bit by bit."""
    low_width = n // 2
    high = _bit_words(n - low_width)
    if not low_width:
        return [f"z_({high[alpha]})" for alpha in indices]
    low = _bit_words(low_width)
    low_mask = (1 << low_width) - 1
    return [f"z_({low[alpha & low_mask]},{high[alpha >> low_width]})" for alpha in indices]


@lru_cache(maxsize=None)
def _label_table(width: int, tail: str = ")") -> tuple[str, ...]:
    return tuple("z_(" + word + tail for word in _bit_words(width))


@lru_cache(maxsize=None)
def _decimals(digits: int) -> tuple[str, ...]:
    """The texts of the indices below 1000, zero-padded to ``digits``."""
    return tuple(str(i).zfill(digits) for i in range(1000))


_LABEL_BITS = 10


def mask_text(n: int, sep: str, labels: bool = False) -> Callable[[int], str]:
    """A renderer ``mask -> str`` of the set bits of a 2**n-bit mask,
    ascending and joined by ``sep``: ``sep.join(map(str, indices))``, or
    ``sep.join(minterm_labels(indices, n))`` when ``labels`` is true.

    A mask of at most 64 bits is rendered a byte at a time by
    :func:`~boolgeo.algebra.bits_text`.  Up to 1000 indices (2**10 labels),
    each text is picked from one table by the mask's flags.  Past that, the
    index space is walked a block at a time: every decimal index of block
    k >= 1 is ``str(k)`` before a three-digit tail, and every label of a
    2**10-minterm block ends in the same high bits, so the shared part goes
    into the join separator and a block costs one ``str.join``."""
    size = 1 << n
    if size <= MAX_RANK:
        return bits_text(sep, size, _label_table(n)) if labels else bits_text(sep, size)
    if size <= (1 << _LABEL_BITS if labels else 1000):
        table = _label_table(n) if labels else _decimals(1)
        return lambda mask: sep.join(compress(table, mask_flags(mask, size)))
    # One (table, separator, head, tail) per block: a block's text is
    # head + separator.join(picked entries) + tail.
    if labels:
        step, heads = 1 << _LABEL_BITS, _label_table(_LABEL_BITS, tail="")
        blocks = [(heads, f",{w})" + sep, "", f",{w})") for w in _bit_words(n - _LABEL_BITS)]
    else:
        step = 1000
        blocks = [(_decimals(1), sep, "", "")]
        padded = _decimals(3)
        blocks += [(padded, sep + str(k), str(k), "") for k in range(1, -(-size // step))]

    def render(mask: int) -> str:
        flags = mask_flags(mask, size)
        parts = []
        for start, (table, between, head, tail) in zip(range(0, size, step), blocks):
            chunk = flags[start : start + step]
            if 1 in chunk:
                parts.append(head + between.join(compress(table, chunk)) + tail)
        return sep.join(parts)

    return render


def _check_var_count(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"variable count must be a positive int, got {n!r}")
    if n > HARD_MAX_VARS:
        raise LimitExceededError(
            f"{n} variables exceed the hard representation cap "
            f"({HARD_MAX_VARS}); the orthogonal form would need 2**{n} minterms"
        )


def _mask_from_indices(n: int, indices: Iterable[MintermIndex]) -> int | None:
    """The mask with the bits at ``indices`` set, one ASCII digit each and one
    conversion, or None for an entry that is not an index or is past 2**n.
    A negative entry counts back from the end and a bool passes as 0 or 1."""
    _check_var_count(n)
    digits = bytearray(b"0") * (1 << n)
    try:
        for alpha in indices:
            digits[alpha] = 49  # ord("1")
    except (TypeError, IndexError):
        return None
    return int(digits[::-1], 2)


@lru_cache(maxsize=None)
def _index_planes(n: int) -> tuple[int, ...]:
    """Plane k has the bits at the indices below 2**n whose bit k is set.
    Each doubling of the width copies the planes so far and adds the next:
    0.2 ms and 137 KiB at n = 16, 2.8 ms and 2.7 MiB at n = 20."""
    planes: list[int] = []
    for width in map((1).__lshift__, range(n)):
        planes = [plane | plane << width for plane in planes] + [((1 << width) - 1) << width]
    return tuple(planes)


def _index_sum(n: int, mask: int) -> int:
    """The sum of the indices of the set bits of ``mask``, one popcount per
    bit plane: 0.07 ms at n = 16, against 0.6 ms for ``min`` over a list
    of 49152 indices."""
    return sum((mask & plane).bit_count() << k for k, plane in enumerate(_index_planes(n)))


def mask_flags(mask: int, size: int, table: bytes = _SET_FLAGS) -> bytes:
    """One byte per index below ``size``, index 0 first: 1 where ``mask``
    has the bit set, else 0 (the reverse with ``_CLEAR_FLAGS``), so that
    ``compress(seq, mask_flags(mask, size))`` picks the entries of ``seq``
    at the set bits."""
    # The sentinel bit at ``size`` makes bin() give "0b1" and then exactly
    # ``size`` digits.
    return bin(mask | (1 << size))[:2:-1].encode().translate(table)


class OrthogonalSystem(Record):
    """The canonical form of a system: variable count ``n`` plus the set
    of forced-zero minterm indices, stored as a 2**n-bit mask.

    The disjointness equations between distinct minterm variables and the
    cover equation (their join equals 1) are implicit and never stored.
    """

    __slots__ = ("n", "zeroed_mask")

    def __init__(self, n: int, zeroed_mask: int):
        setfield(self, "n", n)
        setfield(self, "zeroed_mask", zeroed_mask)
        self.__post_init__()

    def __post_init__(self):
        if not (isinstance(self.n, int) and 1 <= self.n <= HARD_MAX_VARS):
            _check_var_count(self.n)
        if self.zeroed_mask < 0 or self.zeroed_mask.bit_length() > (1 << self.n):
            raise ValueError("forced-zero mask out of range for the minterm space")

    def __repr__(self) -> str:
        # Hex, because decimal text of a mask past about 14 variables hits
        # the interpreter's int-to-str digit cap.
        return f"OrthogonalSystem(n={self.n}, zeroed_mask={self.zeroed_mask:#x})"

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[MintermIndex]) -> "OrthogonalSystem":
        indices = tuple(indices)
        try:  # a bad n is reported after a bad entry
            mask = _mask_from_indices(n, indices)
            if mask is not None and min(indices, default=0) >= 0:
                return cls(n, mask)
        except (TypeError, ValueError, LimitExceededError):
            pass
        for alpha in indices:
            if not isinstance(alpha, int):
                raise TypeError(f"minterm index {_shown(alpha)} is not an integer")
            if not (alpha >= 0 and alpha.bit_length() <= n):
                raise ValueError(f"minterm index {_shown(alpha)} out of range for n={n}")
        return cls(n, _mask_from_indices(n, indices))

    @property
    def num_minterms(self) -> int:
        """Size of the minterm variable space, 2**n."""
        return 1 << self.n

    @property
    def num_zeroed(self) -> int:
        return self.zeroed_mask.bit_count()

    # zeroed and surviving are recomputed on every read, in time linear in
    # 2**n; callers keep the tuple.  Caching it on the instance would keep
    # index tuples alive for every component of a large decomposition.

    @property
    def zeroed(self) -> tuple[MintermIndex, ...]:
        """Forced-zero minterm indices, ascending."""
        size = self.num_minterms
        return tuple(compress(range(size), mask_flags(self.zeroed_mask, size)))

    @property
    def surviving(self) -> tuple[MintermIndex, ...]:
        """Minterm indices not forced to zero, ascending."""
        size = self.num_minterms
        return tuple(compress(range(size), mask_flags(self.zeroed_mask, size, _CLEAR_FLAGS)))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "A": list(self.zeroed), "layout": "lsb-first"}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "OrthogonalSystem":
        if not isinstance(data, Mapping):
            raise ParseError("orthogonal-system JSON must be an object")
        layout = data.get("layout", "lsb-first")
        if layout != "lsb-first":
            raise ParseError(f"unsupported layout {_shown(layout)} (expected 'lsb-first')")
        n = data.get("n")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ParseError("'n' must be a positive integer")
        indices = data.get("A")
        if not isinstance(indices, list):
            raise ParseError("'A' must be a list of minterm indices")
        # Past the mask's own check, the bit count finds duplicates.  Each
        # negative entry counts back onto index alpha + 2**n, so it makes the
        # list's sum less than the sum of the mask's indices; the type of the
        # sum finds an index that is not an int, and the one entry equal to 0
        # or to 1 a bool.  The ordered loop then names the first bad entry.
        mask = _mask_from_indices(n, indices) if n <= HARD_MAX_VARS else None
        try:
            if (
                mask is not None
                and mask.bit_count() == len(indices)
                and type(total := sum(indices)) is int
                and total == _index_sum(n, mask)
                and not (mask & 1 and indices[indices.index(0)] is False)
                and not (mask & 2 and indices[indices.index(1)] is True)
            ):
                return cls(n, mask)
        except (TypeError, ValueError):
            pass
        _first_bad_index(n, indices)
        return cls(n, _mask_from_indices(n, indices))

    def render_text(self) -> str:
        """One ``z_(...) = 0`` line per forced-zero minterm."""
        text = mask_text(self.n, " = 0\n", labels=True)(self.zeroed_mask)
        return text + " = 0" if text else ""


def _shown(entry) -> str:
    """``entry`` echoed cut short; an int past 128 bits (or the digit cap) by its size."""
    if isinstance(entry, int) and entry.bit_length() > 128:
        return f"<{entry.bit_length()}-bit integer>"
    from reprlib import repr  # imported on the error path only
    return repr(entry)


def _first_bad_index(n: int, indices: list) -> None:
    """Raise the ParseError for the first invalid entry of ``indices``."""
    seen = set()
    for alpha in indices:
        if not isinstance(alpha, int) or isinstance(alpha, bool):
            raise ParseError(f"minterm index {_shown(alpha)} is not an integer")
        if not (alpha >= 0 and alpha.bit_length() <= n):
            raise ParseError(f"minterm index {_shown(alpha)} out of range for n={n}")
        if alpha in seen:
            raise ParseError(f"duplicate minterm index {_shown(alpha)}")
        seen.add(alpha)


class ZPoint(Record):
    """An assignment of algebra elements to all 2**n minterm variables.

    The structural identities (pairwise disjointness, cover) are not
    enforced at construction so that raw candidate assignments can be
    represented; use :meth:`is_orthogonal` to test them.
    """

    __slots__ = ("n", "cells")

    def __init__(self, n: int, cells: tuple[Element, ...]):
        setfield(self, "n", n)
        setfield(self, "cells", cells)
        self.__post_init__()

    def __post_init__(self):
        if len(self.cells) != (1 << self.n):
            raise ValueError(
                f"expected {1 << self.n} cells for n={self.n}, got {len(self.cells)}"
            )
        ranks = {c.rank for c in self.cells}
        if len(ranks) != 1:
            raise ValueError(f"cells of mixed ranks {sorted(ranks)}")

    @property
    def rank(self) -> int:
        return self.cells[0].rank

    @property
    def num_minterms(self) -> int:
        return 1 << self.n

    def __getitem__(self, alpha: MintermIndex) -> Element:
        return self.cells[alpha]

    def is_orthogonal(self) -> bool:
        """True when distinct cells are disjoint and the join of all
        cells is 1, i.e. the cells partition the atom set."""
        union = 0
        total = 0
        for c in self.cells:
            union |= c.mask
            total += c.mask.bit_count()
        return union == (1 << self.rank) - 1 and total == self.rank

    def solves(self, system: OrthogonalSystem) -> bool:
        """True when this point satisfies all three equation groups of
        the orthogonal system."""
        return not self.zero_violation_mask(system) and self.is_orthogonal()

    def zero_violation_mask(self, system: OrthogonalSystem) -> int:
        """Bitmask of forced-zero indices whose cell is nonzero."""
        if system.n != self.n:
            raise SystemMismatchError(
                f"point over n={self.n} cannot solve a system with n={system.n}"
            )
        nonzero = "".join("1" if c.mask else "0" for c in reversed(self.cells))
        return int(nonzero, 2) & system.zeroed_mask

    def __str__(self) -> str:
        labels = minterm_labels(range(self.num_minterms), self.n)
        return " ".join(f"{label}={cell}" for label, cell in zip(labels, self.cells))


class XPoint(Record):
    """An assignment of algebra elements to the system's variables,
    in variable order."""

    __slots__ = ("names", "values")

    def __init__(self, names: tuple[str, ...], values: tuple[Element, ...]):
        setfield(self, "names", names)
        setfield(self, "values", values)
        self.__post_init__()

    def __post_init__(self):
        if len(self.names) != len(self.values):
            raise ValueError("names and values differ in length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        if not self.names:
            raise ValueError("a point needs at least one variable")
        ranks = {v.rank for v in self.values}
        if len(ranks) != 1:
            raise ValueError(f"values of mixed ranks {sorted(ranks)}")

    @classmethod
    def from_mapping(
        cls, assignment: Mapping[str, Element], order: Sequence[str] | None = None
    ) -> "XPoint":
        names = tuple(order) if order is not None else tuple(assignment)
        try:
            values = tuple(assignment[name] for name in names)
        except KeyError as exc:
            raise MissingVariableError(f"no value for variable {exc.args[0]!r}") from None
        return cls(names, values)

    @property
    def rank(self) -> int:
        return self.values[0].rank

    def __getitem__(self, name: str) -> Element:
        try:
            return self.values[self.names.index(name)]
        except ValueError:
            raise KeyError(name) from None

    def items(self):
        return zip(self.names, self.values)

    def as_dict(self) -> dict[str, Element]:
        return dict(self.items())

    def __str__(self) -> str:
        return " ".join(f"{name}={value}" for name, value in self.items())


# --- truth tables and orthogonalization --------------------------------


def _columns(variables: Sequence[str]) -> dict[str, int]:
    columns = dict(zip(variables, _index_planes(len(variables))))
    if len(columns) != len(variables):
        raise ValueError("duplicate variable names")
    return columns


def truth_table(t: Term, variables: Sequence[str]) -> int:
    """Evaluate ``t`` over the 2-element algebra at every exponent tuple.

    Returns a 2**n-bit word; bit ``alpha`` is the value of ``t`` when each
    variable x_i takes bit i-1 of ``alpha``.  Every variable of ``t`` must
    appear in ``variables``.
    """
    columns = _columns(variables)
    try:
        return run(compile_term(t), columns, (1 << (1 << len(variables))) - 1)
    except KeyError as exc:
        name = exc.args[0]
        raise MissingVariableError(f"variable {name!r} is not in the variable list") from None


def table_bit(table: int, alpha: MintermIndex) -> int:
    """Entry ``alpha`` of a truth table word."""
    return (table >> alpha) & 1


def orthogonalize(system: System, *, max_vars: int | None = None) -> OrthogonalSystem:
    """Reduce ``system`` to its canonical orthogonal form.

    A minterm index is forced to zero exactly when some equation's two
    sides disagree there over the 2-element algebra.  Two systems on the
    same variable list orthogonalize identically iff they have the same
    rank-1 solution set.

    >>> orthogonalize(parse_system("x1 * x2 = x2")).zeroed
    (2,)
    """
    n = len(system.variables)
    check_var_limit(n, max_vars)
    columns = _columns(system.variables)
    full = (1 << (1 << n)) - 1
    disagree = 0
    for lhs, rhs in system.programs:
        disagree |= run(lhs, columns, full) ^ run(rhs, columns, full)
    return OrthogonalSystem(n, disagree)


def z_from_x(point: XPoint) -> ZPoint:
    """Minterm coordinates of a variable-space point: cell ``alpha`` is
    the meet over i of x_i (bit set) or its complement (bit clear).

    The result always satisfies disjointness and cover.
    """
    n = len(point.names)
    rank = point.rank
    full = (1 << rank) - 1
    cells = []
    for alpha in range(1 << n):
        mask = full
        for i, value in enumerate(point.values):
            mask &= value.mask if (alpha >> i) & 1 else value.mask ^ full
        cells.append(Element(mask, rank))
    return ZPoint(n, tuple(cells))


def x_from_z(point: ZPoint, variables: Sequence[str] | None = None) -> XPoint:
    """Variable-space coordinates of a minterm-space point: x_i is the
    join of the cells at indices with bit i-1 set.

    ``variables`` names the result's variables (default x1..xn) and must
    have length ``point.n``.
    """
    n = point.n
    if variables is None:
        names = tuple(f"x{i + 1}" for i in range(n))
    else:
        names = tuple(variables)
        if len(names) != n:
            raise ValueError(f"expected {n} variable names, got {len(names)}")
    rank = point.rank
    values = []
    for i in range(n):
        mask = 0
        for alpha in range(1 << n):
            if (alpha >> i) & 1:
                mask |= point.cells[alpha].mask
        values.append(Element(mask, rank))
    return XPoint(names, tuple(values))
