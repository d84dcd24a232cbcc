"""Boolean-algebra arithmetic: examples, laws, and the textual notation."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolgeo import (
    Element,
    MAX_RANK,
    RankMismatchError,
    atoms,
    complement,
    elements,
    format_element,
    join,
    meet,
    parse_element,
)
from boolgeo.algebra import check_rank


def el(atom_indices, rank):
    return Element.from_atoms(atom_indices, rank)


class TestOperations:
    def test_join_is_union(self):
        assert join(el([0, 1], 3), el([1, 2], 3)) == el([0, 1, 2], 3)

    def test_join_identity_rank_one(self):
        assert join(Element.zero(1), Element.one(1)) == Element.one(1)

    def test_join_with_zero(self):
        assert join(el([0], 2), Element.zero(2)) == el([0], 2)

    def test_meet_is_intersection(self):
        assert meet(el([0, 1], 3), el([1, 2], 3)) == el([1], 3)

    def test_meet_with_one(self):
        for rank in (1, 2, 5):
            for x in elements(rank):
                assert meet(x, Element.one(rank)) == x

    def test_meet_disjoint_atoms(self):
        assert meet(el([0], 2), el([1], 2)) == Element.zero(2)

    def test_complement(self):
        assert complement(el([0], 3)) == el([1, 2], 3)
        assert complement(Element.zero(4)) == Element.one(4)
        assert complement(Element.zero(4)).is_one and not el([1, 2], 3).is_one

    def test_complement_involution(self):
        for x in elements(3):
            assert complement(complement(x)) == x

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            join(Element.zero(2), Element.zero(3))
        with pytest.raises(RankMismatchError):
            meet(Element.one(2), Element.one(4))

    def test_operator_sugar(self):
        x, y = el([0], 3), el([1], 3)
        assert x | y == join(x, y)
        assert x & y == meet(x, y)
        assert ~x == complement(x)


class TestAtoms:
    def test_rank_one(self):
        assert atoms(1) == [el([0], 1)]

    def test_rank_three(self):
        assert atoms(3) == [el([0], 3), el([1], 3), el([2], 3)]

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_atom_definition_exhaustive(self, rank):
        # a is an atom iff {a*b} = {0, a}; scan all 2**rank elements.
        zero = Element.zero(rank)
        expected = set(atoms(rank))
        found = set()
        for a in elements(rank):
            products = {meet(a, b) for b in elements(rank)}
            if a != zero and products == {zero, a}:
                found.add(a)
        assert found == expected
        assert len(expected) == rank

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_coatom_count_equals_rank(self, rank):
        one = Element.one(rank)
        coatoms = [
            a
            for a in elements(rank)
            if a != one and {join(a, b) for b in elements(rank)} == {a, one}
        ]
        assert len(coatoms) == rank

    def test_element_count(self):
        for rank in (1, 2, 3, 4):
            assert len(list(elements(rank))) == 2**rank


class TestLaws:
    """All boolean-algebra axioms, exhaustively for small ranks."""

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_pair_laws(self, rank):
        pool = list(elements(rank))
        for x, y in itertools.product(pool, repeat=2):
            assert join(x, y) == join(y, x)
            assert meet(x, y) == meet(y, x)
            assert complement(join(x, y)) == meet(complement(x), complement(y))
            assert complement(meet(x, y)) == join(complement(x), complement(y))
            assert join(x, meet(x, y)) == x
            assert meet(x, join(x, y)) == x

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_triple_laws(self, rank):
        pool = list(elements(rank))
        for x, y, z in itertools.product(pool, repeat=3):
            assert join(join(x, y), z) == join(x, join(y, z))
            assert meet(meet(x, y), z) == meet(x, meet(y, z))
            assert meet(x, join(y, z)) == join(meet(x, y), meet(x, z))
            assert join(x, meet(y, z)) == meet(join(x, y), join(x, z))

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_complement_laws(self, rank):
        for x in elements(rank):
            assert join(x, complement(x)) == Element.one(rank)
            assert meet(x, complement(x)) == Element.zero(rank)

    @given(
        st.integers(min_value=1, max_value=MAX_RANK),
        st.integers(min_value=0),
        st.integers(min_value=0),
    )
    def test_laws_at_large_rank(self, rank, a, b):
        x = Element(a % (1 << rank), rank)
        y = Element(b % (1 << rank), rank)
        assert join(x, y) == join(y, x)
        assert complement(complement(x)) == x
        assert complement(join(x, y)) == meet(complement(x), complement(y))
        assert meet(x, complement(x)).is_zero


class TestConstruction:
    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            check_rank(0)
        with pytest.raises(ValueError):
            check_rank(MAX_RANK + 1)
        with pytest.raises(TypeError):
            check_rank(2.0)

    def test_mask_bounds(self):
        with pytest.raises(ValueError):
            Element(4, 2)
        with pytest.raises(ValueError):
            Element(-1, 2)

    def test_from_atoms_bounds(self):
        with pytest.raises(ValueError):
            Element.from_atoms([3], 3)

    def test_atoms_listing(self):
        assert el([0, 2], 3).atoms() == (0, 2)
        assert Element.zero(3).atoms() == ()


class TestNotation:
    def test_format(self):
        assert format_element(el([0, 2], 3)) == "{0,2}"
        assert format_element(Element.zero(2)) == "{}"
        assert format_element(Element.one(2)) == "{0,1}"

    def test_parse_braces(self):
        assert parse_element("{0,2}", 3) == el([0, 2], 3)
        assert parse_element(" { 0 , 2 } ".replace(" ", ""), 3) == el([0, 2], 3)
        assert parse_element("{}", 3) == Element.zero(3)

    def test_parse_aliases(self):
        assert parse_element("0", 3) == Element.zero(3)
        assert parse_element("1", 3) == Element.one(3)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_element("{0;2}", 3)
        with pytest.raises(ValueError):
            parse_element("nope", 3)
        with pytest.raises(ValueError):
            parse_element("{5}", 3)

    @pytest.mark.parametrize("rank", [1, 3])
    def test_round_trip(self, rank):
        for x in elements(rank):
            assert parse_element(format_element(x), rank) == x
