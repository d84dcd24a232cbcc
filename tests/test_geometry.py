"""Classification of solution sets: coordinate rank, irreducibility,
decomposition, isomorphism."""

import itertools
from math import comb

import pytest

from boolgeo import (
    InconsistentSystemError,
    OrthogonalSystem,
    SystemMismatchError,
    are_isomorphic,
    coordinate_atoms,
    coordinate_rank,
    count_solutions,
    decompose,
    irr_count,
    irreducibility_rank,
    is_consistent,
    is_irreducible,
    orthogonalize,
    parse_system,
    solutions_z,
)

EXAMPLE = OrthogonalSystem.from_indices(2, [2])  # x1*x2 = x2 reduced
FULL = OrthogonalSystem(2, 0b1111)


def all_systems(n):
    return [OrthogonalSystem(n, mask) for mask in range(1 << (1 << n))]


class TestCoordinateRank:
    def test_example(self):
        assert coordinate_rank(EXAMPLE) == 3

    def test_free_single_variable(self):
        assert coordinate_rank(OrthogonalSystem(1, 0)) == 2

    def test_single_survivor_is_a_point(self):
        o = OrthogonalSystem.from_indices(2, [0, 1, 2])
        assert coordinate_rank(o) == 1
        assert len(list(solutions_z(o, 2))) == 1

    def test_rejects_inconsistent(self):
        with pytest.raises(InconsistentSystemError):
            coordinate_rank(FULL)


class TestCoordinateAtoms:
    def test_example(self):
        assert coordinate_atoms(EXAMPLE) == (0, 1, 3)

    def test_free_system(self):
        assert coordinate_atoms(OrthogonalSystem(2, 0)) == (0, 1, 2, 3)

    def test_length_is_coordinate_rank(self):
        for o in all_systems(2):
            if is_consistent(o):
                assert len(coordinate_atoms(o)) == coordinate_rank(o)

    def test_rejects_inconsistent(self):
        with pytest.raises(InconsistentSystemError):
            coordinate_atoms(FULL)


class TestIsIrreducible:
    def test_example_thresholds(self):
        for rank in (3, 4, 5):
            assert is_irreducible(EXAMPLE, rank)
        assert not is_irreducible(EXAMPLE, 2)

    def test_single_point_set(self):
        o = OrthogonalSystem.from_indices(1, [0])
        assert is_irreducible(o, 1)

    def test_monotone_in_rank(self):
        for o in all_systems(2):
            if not is_consistent(o):
                continue
            verdicts = [is_irreducible(o, rank) for rank in range(1, 6)]
            assert verdicts == sorted(verdicts)

    def test_rejects_inconsistent(self):
        with pytest.raises(InconsistentSystemError):
            is_irreducible(FULL, 2)


class TestDecompose:
    def test_example_components(self):
        parts = decompose(EXAMPLE, 2)
        assert [c.zeroed for c in parts] == [(0, 2), (1, 2), (2, 3)]

    def test_repr_gives_sizes(self):
        assert repr(decompose(EXAMPLE, 2)) == "Decomposition(n=2, zeroed=1, rank=2, components=3)"

    def test_irreducible_decomposes_as_itself(self):
        assert list(decompose(EXAMPLE, 3)) == [EXAMPLE]

    def test_free_system_rank_one(self):
        parts = decompose(OrthogonalSystem(2, 0), 1)
        assert len(parts) == comb(4, 1)
        # Over rank 1 the four unit-vector points are the solutions, one
        # per component.
        for component in parts:
            sols = list(solutions_z(component, 1))
            assert len(sols) == 1
        union = {
            p for component in parts for p in solutions_z(component, 1)
        }
        assert union == set(solutions_z(OrthogonalSystem(2, 0), 1))

    def test_rejects_inconsistent(self):
        with pytest.raises(InconsistentSystemError):
            decompose(FULL, 1)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_soundness_exhaustive(self, rank):
        for n in (1, 2):
            for o in all_systems(n):
                if not is_consistent(o):
                    continue
                parts = decompose(o, rank)
                assert len(parts) == irr_count(o, rank)
                assert len(set(parts.components)) == len(parts)
                whole = set(solutions_z(o, rank))
                sets = [set(solutions_z(c, rank)) for c in parts]
                assert set().union(*sets) == whole
                for c in parts:
                    assert coordinate_rank(c) == min(rank, coordinate_rank(o))
                    assert is_irreducible(c, rank)
                for a, b in itertools.combinations(range(len(sets)), 2):
                    assert not sets[a] <= sets[b]
                    assert not sets[b] <= sets[a]


class TestIrrCount:
    def test_example(self):
        assert irr_count(EXAMPLE, 2) == 3

    def test_irreducible_counts_one(self):
        assert irr_count(EXAMPLE, 3) == 1
        assert irr_count(OrthogonalSystem(1, 0), 5) == 1

    def test_inconsistent_counts_one(self):
        # Averaging convention: the empty solution set participates as 1.
        assert irr_count(FULL, 2) == 1

    def test_large_free_system(self):
        o = OrthogonalSystem(3, 0)
        assert irr_count(o, 2) == comb(8, 2) == 28
        assert len(decompose(o, 2)) == 28

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_matches_decomposition_length(self, rank):
        for n in (1, 2, 3):
            for o in all_systems(n):
                if is_consistent(o):
                    assert irr_count(o, rank) == len(decompose(o, rank))


class TestIrreducibilityRank:
    def test_example(self):
        assert irreducibility_rank(EXAMPLE) == 3

    def test_inconsistent_is_zero(self):
        assert irreducibility_rank(FULL) == 0

    def test_free_system(self):
        assert irreducibility_rank(OrthogonalSystem(2, 0)) == 4

    def test_is_the_irreducibility_threshold(self):
        for o in all_systems(2):
            if not is_consistent(o):
                continue
            threshold = irreducibility_rank(o)
            assert is_irreducible(o, threshold)
            if threshold > 1:
                assert not is_irreducible(o, threshold - 1)


class TestAreIsomorphic:
    def test_variable_substitution_example(self):
        first = orthogonalize(parse_system("x1 * x2 = x2"))
        second = orthogonalize(parse_system("x1 * x2 = x1"))
        assert first.zeroed == (2,)
        assert second.zeroed == (1,)
        assert are_isomorphic(first, second)

    def test_reflexive(self):
        assert are_isomorphic(EXAMPLE, EXAMPLE)

    def test_different_sizes(self):
        assert not are_isomorphic(OrthogonalSystem(2, 0), EXAMPLE)

    def test_mismatched_variable_counts(self):
        with pytest.raises(SystemMismatchError):
            are_isomorphic(OrthogonalSystem(1, 0), OrthogonalSystem(2, 0))

    def test_equivalence_relation(self):
        systems = all_systems(2)
        for a in systems:
            assert are_isomorphic(a, a)
        for a, b in itertools.product(systems, repeat=2):
            assert are_isomorphic(a, b) == are_isomorphic(b, a)
        for a, b, c in itertools.product(systems[:8], repeat=3):
            if are_isomorphic(a, b) and are_isomorphic(b, c):
                assert are_isomorphic(a, c)

    def test_matches_coordinate_rank(self):
        for a, b in itertools.product(all_systems(2), repeat=2):
            if is_consistent(a) and is_consistent(b):
                assert are_isomorphic(a, b) == (
                    coordinate_rank(a) == coordinate_rank(b)
                )

    def test_isomorphic_systems_have_equal_counts(self):
        for a, b in itertools.product(all_systems(2), repeat=2):
            if are_isomorphic(a, b):
                for rank in (1, 2):
                    assert count_solutions(a, rank) == count_solutions(b, rank)
