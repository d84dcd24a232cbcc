"""Exact and asymptotic statistics over all orthogonal systems in m
minterm variables, under the uniform model (each of the 2**m forced-zero
sets equally likely).

Every exact value is an unbounded rational; floating point enters only
in the two asymptotic helpers.
"""

from __future__ import annotations

import math
import operator
import random
from collections.abc import Iterator
from fractions import Fraction
from itertools import repeat
from math import comb

from .errors import LimitExceededError
from .geometry import component_count
from .ortho import OrthogonalSystem

# Exact rationals are plain stdlib fractions: reduced, positive denominator.
ExactRational = Fraction

# Exhaustive averaging keeps one popcount byte per forced-zero set, a
# table of 2**(2**m_pow) bytes: 64 KiB at m_pow = 4, while m_pow = 5
# would need 4 GiB.
MAX_EXHAUSTIVE_VARS = 4
# Sampling draws 2**m_pow random bits per system.
MAX_SAMPLING_VARS = 16

RNG_ALGORITHM = "mt19937"

# Byte b -> b + 1: applied to a popcount table, it gives the popcounts of
# the same masks with one more bit set.
_PLUS_ONE = bytes(range(1, 256)) + b"\0"


def _check_m(m: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")


def _check_m_pow(m_pow: int, limit: int, what: str) -> None:
    if not isinstance(m_pow, int) or isinstance(m_pow, bool) or m_pow < 1:
        raise ValueError(f"m_pow must be a positive integer, got {m_pow!r}")
    if m_pow > limit:
        raise LimitExceededError(
            f"{what} over 2**{1 << m_pow} systems is out of reach (m_pow limit is {limit})"
        )


def _binomials(m: int) -> Iterator[int]:
    """C(m, 0), ..., C(m, m), each from the one before in one big-int
    multiply and one exact division; none is kept."""
    c = 1
    yield c
    for a in range(m):
        c = c * (m - a) // (a + 1)
        yield c


def avg_irr_closed(m: int, r: int) -> Fraction:
    """Average number of irreducible components over the rank-r algebra,
    across all orthogonal systems in m minterm variables:

        (sum_{i<r} C(m, i) + 2**(m-r) * C(m, r)) / 2**m

    Inconsistent systems participate with component count 1.  The
    binomials are the first r + 1 of one walk, in O(r) big-int steps.
    """
    _check_m(m)
    if not 1 <= r <= m:
        raise ValueError(f"need 1 <= r <= m, got r={r}, m={m}")
    total = 0
    for i, c in zip(range(r + 1), _binomials(m)):
        total += c if i < r else c << (m - r)
    return Fraction(total, 1 << m)


def avg_irr_exhaustive(m_pow: int, r: int) -> Fraction:
    """The same average computed the long way: enumerate every
    forced-zero subset of the 2**m_pow minterm indices and take the mean
    of the per-system component count.  Must equal
    ``avg_irr_closed(2**m_pow, r)``.

    Every mask gets its own byte in one popcount table, built by
    doubling: the masks with bit k set are those below 2**k plus that
    bit, so their popcounts are the table so far plus one.  A system's
    component count depends only on its forced-zero count z, and
    ``table.count(z)`` tallies the systems with that count.
    """
    _check_m_pow(m_pow, MAX_EXHAUSTIVE_VARS, "exhaustive averaging")
    m = 1 << m_pow
    if not 1 <= r <= m:
        raise ValueError(f"need 1 <= r <= m, got r={r}, m={m}")
    table = b"\0"
    for _ in range(m):
        table += table.translate(_PLUS_ONE)
    total = sum(
        table.count(zeroed) * component_count(m - zeroed, r) for zeroed in range(m + 1)
    )
    return Fraction(total, 1 << m)


def asymptotic_irr(m: int, r: int) -> float:
    """Large-m equivalent of :func:`avg_irr_closed`: C(m, r) / 2**r."""
    _check_m(m)
    if not 0 <= r <= m:
        raise ValueError(f"need 0 <= r <= m, got r={r}, m={m}")
    return comb(m, r) / (1 << r)


def avg_ir_rank(m: int) -> Fraction:
    """Average irreducibility rank across all orthogonal systems in m
    minterm variables; exactly m/2.

    Computed both in closed form and as the weighted sum
    2**(-m) * sum_a (m - a) * C(m, a); the two routes must agree.  The
    binomials are built one from the next in O(m) big-int steps.
    """
    _check_m(m)
    closed = Fraction(m, 2)
    summed = Fraction(
        sum(map(operator.mul, range(m, -1, -1), _binomials(m))), 1 << m
    )
    if closed != summed:
        raise ArithmeticError(f"closed form {closed} != summation {summed}")
    return closed


def iso_pair_probability(m: int) -> Fraction:
    """Probability that two independently uniform orthogonal systems in m
    minterm variables define isomorphic solution sets:

        C(2m, m) / 4**m

    Verified internally against sum_i C(m, i)**2 / 4**m, with the
    binomials built one from the next in O(m) big-int steps.
    """
    _check_m(m)
    pairs = comb(2 * m, m)
    # C(m, i) = C(m, m - i): each square below the middle counts twice.
    by_size = 0
    for i, c in zip(range(m // 2 + 1), _binomials(m)):
        square = c * c
        by_size += square if 2 * i == m else square << 1
    if pairs != by_size:
        raise ArithmeticError(f"C(2m,m)={pairs} != sum of squares {by_size}")
    return Fraction(pairs, 4**m)


def iso_pair_asymptotic(m: int) -> float:
    """Large-m equivalent of :func:`iso_pair_probability`: 1/sqrt(pi*m)."""
    _check_m(m)
    return 1.0 / math.sqrt(math.pi * m)


def sample_ortho(m_pow: int, seed: int) -> OrthogonalSystem:
    """One orthogonal system in 2**m_pow minterm variables, with the
    forced-zero set uniform among all subsets.  Deterministic per seed
    (Mersenne Twister)."""
    return next(sample_systems(m_pow, seed, 1))


def sample_systems(m_pow: int, seed: int, count: int) -> Iterator[OrthogonalSystem]:
    """A reproducible stream of ``count`` independent uniform samples."""
    for mask in sample_masks(m_pow, seed, count):
        yield OrthogonalSystem(m_pow, mask)


def sample_masks(m_pow: int, seed: int, count: int) -> Iterator[int]:
    """The forced-zero masks of :func:`sample_systems`, from the same
    random draws, without building the systems: ``count`` draws of
    2**m_pow bits from ``random.Random(seed)``, made lazily by ``map``
    with no Python frame per draw.  The arguments are checked when this
    is called, not on the first draw."""
    _check_m_pow(m_pow, MAX_SAMPLING_VARS, "sampling")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    return map(random.Random(seed).getrandbits, repeat(1 << m_pow, count))
