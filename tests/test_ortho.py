"""Orthogonal form: truth tables, the reduction, and point conversions."""

import itertools
import random

import pytest

from boolgeo import (
    Complement,
    Const,
    Element,
    LimitExceededError,
    Meet,
    MissingVariableError,
    OrthogonalSystem,
    ParseError,
    System,
    Var,
    XPoint,
    ZPoint,
    bits_to_index,
    format_minterm,
    index_to_bits,
    orthogonalize,
    parse_system,
    satisfies,
    solutions_z,
    truth_table,
    x_from_z,
    z_from_x,
)
from boolgeo import eval_term
from oracles import all_xpoints, random_term, system_family, system_for_zero_set

X1, X2 = Var("x1"), Var("x2")


class TestMintermIndexing:
    def test_tuple_layout_is_lsb_first(self):
        # (a1, a2) = (0, 1) puts a2 in bit 1.
        assert bits_to_index((0, 1)) == 2
        assert bits_to_index((1, 0)) == 1
        assert index_to_bits(2, 2) == (0, 1)
        assert index_to_bits(5, 3) == (1, 0, 1)

    def test_round_trip(self):
        for n in (1, 2, 3):
            for alpha in range(1 << n):
                assert bits_to_index(index_to_bits(alpha, n)) == alpha

    def test_format(self):
        assert format_minterm(2, 2) == "z_(0,1)"
        assert format_minterm(0, 1) == "z_(0)"

    def test_bounds(self):
        with pytest.raises(ValueError):
            index_to_bits(4, 2)
        with pytest.raises(ValueError):
            bits_to_index((0, 2))
        # Range is read from bit lengths, and a huge n is refused before
        # a tuple of n bits is built.
        with pytest.raises(ValueError, match="out of range"):
            index_to_bits(-1, 10**20)
        with pytest.raises(LimitExceededError):
            index_to_bits(5, 10**20)
        with pytest.raises(LimitExceededError):
            format_minterm(5, 10**20)


class TestTruthTable:
    def test_conjunction(self):
        table = truth_table(Meet(X1, X2), ("x1", "x2"))
        assert table == 0b1000  # only (1,1), index 3

    def test_constant_one(self):
        assert truth_table(Const(True), ("x1", "x2")) == 0b1111
        assert truth_table(Const(False), ("x1", "x2")) == 0

    def test_negated_literal_minterm(self):
        table = truth_table(Meet(Complement(X1), X2), ("x1", "x2"))
        assert table == 0b0100  # only (0,1), index 2

    def test_unknown_variable(self):
        with pytest.raises(MissingVariableError):
            truth_table(Var("y"), ("x1",))

    def test_duplicate_variable_names(self):
        with pytest.raises(ValueError, match="duplicate variable names"):
            truth_table(X1, ("x1", "x2", "x1"))

    def test_each_variable_is_its_column(self):
        for n in range(1, 8):
            names = tuple(f"x{i + 1}" for i in range(n))
            for i, name in enumerate(names):
                expected = sum(1 << alpha for alpha in range(1 << n) if alpha >> i & 1)
                assert truth_table(Var(name), names) == expected

    def test_matches_pointwise_evaluation(self):
        rng = random.Random(7)
        names = ("x1", "x2", "x3")
        for _ in range(50):
            t = random_term(rng, names, depth=5)
            table = truth_table(t, names)
            for alpha in range(8):
                point = XPoint(
                    names,
                    tuple(Element((alpha >> i) & 1, 1) for i in range(3)),
                )
                assert (table >> alpha) & 1 == eval_term(t, point).mask


class TestOrthogonalize:
    def test_meet_equation_forces_one_minterm(self):
        o = orthogonalize(parse_system("x1 * x2 = x2"))
        assert o.n == 2
        assert o.zeroed == (2,)
        assert index_to_bits(2, 2) == (0, 1)

    def test_no_equations_force_nothing(self):
        o = orthogonalize(System(("x1", "x2"), ()))
        assert o.zeroed == ()

    def test_contradiction_forces_everything(self):
        system = parse_system("x1 = 0; x1 = 1")
        # Oracle: no rank-1 point satisfies both equations.
        assert not any(
            satisfies(system, p) for p in all_xpoints(("x1",), 1)
        )
        o = orthogonalize(system)
        assert o.zeroed == (0, 1)

    def test_variable_limit(self):
        names = tuple(f"x{i}" for i in range(17))
        system = System(names, ())
        with pytest.raises(LimitExceededError):
            orthogonalize(system)
        assert orthogonalize(system, max_vars=17).n == 17

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("BOOLGEO_MAX_VARS", "1")
        with pytest.raises(LimitExceededError):
            orthogonalize(parse_system("x1 = x2"))
        monkeypatch.setenv("BOOLGEO_MAX_VARS", "not-a-number")
        with pytest.raises(ValueError):
            orthogonalize(parse_system("x1 = x2"))

    def test_canonicity_at_rank_one(self):
        # Same forced-zero set iff same rank-1 solution set, across a
        # family of syntactically different systems.
        for n in (1, 2):
            family = system_family(n)
            masks = [orthogonalize(s).zeroed_mask for s in family]
            names = tuple(f"x{i + 1}" for i in range(n))
            points = all_xpoints(names, 1)
            sets = [
                frozenset(p for p in points if satisfies(s, p)) for s in family
            ]
            for i in range(len(family)):
                for j in range(i + 1, len(family)):
                    assert (masks[i] == masks[j]) == (sets[i] == sets[j])


class TestPointConversions:
    def test_x_from_z_single_live_minterm(self):
        cells = [Element.zero(1)] * 4
        cells[3] = Element.one(1)  # z_(1,1)
        p = x_from_z(ZPoint(2, tuple(cells)))
        assert p["x1"] == Element.one(1)
        assert p["x2"] == Element.one(1)

    def test_x_from_z_worked_example(self):
        cells = [Element.zero(2)] * 4
        cells[1] = Element.from_atoms([0], 2)  # z_(1,0)
        cells[2] = Element.from_atoms([1], 2)  # z_(0,1)
        p = x_from_z(ZPoint(2, tuple(cells)), ("x1", "x2"))
        assert p["x1"] == Element.from_atoms([0], 2)
        assert p["x2"] == Element.from_atoms([1], 2)

    def test_x_from_z_default_names(self):
        p = x_from_z(ZPoint(1, (Element.one(1), Element.zero(1))))
        assert p.names == ("x1",)

    def test_z_from_x_constant_point(self):
        p = XPoint(("x1", "x2"), (Element.one(1), Element.zero(1)))
        z = z_from_x(p)
        assert z.cells == (
            Element.zero(1),
            Element.one(1),  # index 1 = (1,0)
            Element.zero(1),
            Element.zero(1),
        )

    def test_z_from_x_splits_atoms(self):
        p = XPoint(
            ("x1", "x2"),
            (Element.from_atoms([0], 2), Element.from_atoms([1], 2)),
        )
        z = z_from_x(p)
        assert z.cells == (
            Element.zero(2),
            Element.from_atoms([0], 2),  # (1,0)
            Element.from_atoms([1], 2),  # (0,1)
            Element.zero(2),
        )

    def test_image_is_orthogonal(self):
        for rank in (1, 2):
            for p in all_xpoints(("x1", "x2"), rank):
                assert z_from_x(p).is_orthogonal()

    def test_z_after_x_is_identity_on_valid_points(self):
        # All partitions of 2 atoms into 4 cells.
        for assignment in itertools.product(range(4), repeat=2):
            masks = [0] * 4
            for atom, alpha in enumerate(assignment):
                masks[alpha] |= 1 << atom
            p = ZPoint(2, tuple(Element(mask, 2) for mask in masks))
            assert z_from_x(x_from_z(p)) == p

    def test_x_after_z_is_identity_everywhere(self):
        for n, rank in [(1, 1), (1, 2), (2, 2), (3, 2)]:
            names = tuple(f"x{i + 1}" for i in range(n))
            for p in all_xpoints(names, rank):
                assert x_from_z(z_from_x(p), names) == p

    def test_x_from_z_name_count_must_match(self):
        p = ZPoint(1, (Element.one(1), Element.zero(1)))
        with pytest.raises(ValueError):
            x_from_z(p, ("a", "b"))


class TestCorrespondence:
    """The conversion maps the solution set of a system onto the solution
    set of its orthogonal form, point for point."""

    @pytest.mark.parametrize("rank", [1, 2])
    def test_exhaustive_small(self, rank):
        for n in (1, 2):
            for system in system_family(n):
                o = orthogonalize(system)
                names = system.variables
                mapped = {
                    z_from_x(p)
                    for p in all_xpoints(names, rank)
                    if satisfies(system, p)
                }
                assert mapped == set(solutions_z(o, rank))

    @pytest.mark.parametrize("rank", [1, 2])
    def test_sampled_three_variables(self, rank):
        rng = random.Random(31)
        zero_sets = [[]]
        zero_sets += [[a] for a in range(8)]
        zero_sets += [sorted(rng.sample(range(8), rng.randint(2, 7))) for _ in range(20)]
        zero_sets.append(list(range(7)))
        for indices in zero_sets:
            system = system_for_zero_set(3, indices)
            o = orthogonalize(system)
            assert o.zeroed == tuple(indices)
            mapped = {
                z_from_x(p)
                for p in all_xpoints(system.variables, rank)
                if satisfies(system, p)
            }
            assert mapped == set(solutions_z(o, rank))


class TestOrthogonalSystemType:
    def test_from_indices_and_properties(self):
        o = OrthogonalSystem.from_indices(2, [2])
        assert o.num_minterms == 4
        assert o.num_zeroed == 1
        assert o.surviving == (0, 1, 3)

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            OrthogonalSystem.from_indices(2, [4])
        with pytest.raises(ValueError):
            OrthogonalSystem(2, 1 << 4)

    def test_hard_cap(self):
        with pytest.raises(LimitExceededError):
            OrthogonalSystem(21, 0)

    def test_json_round_trip(self):
        o = OrthogonalSystem.from_indices(2, [0, 2])
        data = o.to_json_dict()
        assert data == {"n": 2, "A": [0, 2], "layout": "lsb-first"}
        assert OrthogonalSystem.from_json_dict(data) == o

    def test_json_validation(self):
        with pytest.raises(ParseError):
            OrthogonalSystem.from_json_dict({"n": 2, "A": [0], "layout": "msb-first"})
        with pytest.raises(ParseError):
            OrthogonalSystem.from_json_dict({"n": 0, "A": []})
        with pytest.raises(ParseError):
            OrthogonalSystem.from_json_dict({"n": 2, "A": [9]})
        with pytest.raises(ParseError):
            OrthogonalSystem.from_json_dict({"n": 2, "A": [1, 1]})
        with pytest.raises(ParseError):
            OrthogonalSystem.from_json_dict({"n": 2, "A": 3})
        with pytest.raises(ParseError, match="^orthogonal-system JSON must be an object$"):
            OrthogonalSystem.from_json_dict([1])

    def test_render_text(self):
        o = OrthogonalSystem.from_indices(2, [2])
        assert o.render_text() == "z_(0,1) = 0"


class TestZPointType:
    def test_cell_count_checked(self):
        with pytest.raises(ValueError):
            ZPoint(2, (Element.zero(1),))

    def test_uniform_rank_checked(self):
        with pytest.raises(ValueError):
            ZPoint(1, (Element.zero(1), Element.zero(2)))

    def test_is_orthogonal(self):
        good = ZPoint(1, (Element.from_atoms([0], 2), Element.from_atoms([1], 2)))
        assert good.is_orthogonal()
        assert good[1] == Element.from_atoms([1], 2)
        overlapping = ZPoint(1, (Element.one(2), Element.one(2)))
        assert not overlapping.is_orthogonal()
        gappy = ZPoint(1, (Element.from_atoms([0], 2), Element.zero(2)))
        assert not gappy.is_orthogonal()


class TestXPointType:
    def test_from_mapping(self):
        p = XPoint.from_mapping(
            {"b": Element.zero(1), "a": Element.one(1)}, order=("a", "b")
        )
        assert p.names == ("a", "b")
        assert p["a"] == Element.one(1)
        assert list(p.as_dict().items()) == [("a", Element.one(1)), ("b", Element.zero(1))]

    def test_from_mapping_missing_name(self):
        with pytest.raises(MissingVariableError):
            XPoint.from_mapping({"a": Element.one(1)}, order=("a", "b"))

    def test_names_and_values_match_in_length(self):
        with pytest.raises(ValueError, match="^names and values differ in length$"):
            XPoint(("a",), ())

    @pytest.mark.parametrize(
        "names, ranks, message",
        [
            (("a", "a"), (1, 1), "duplicate variable names"),
            (("a", "b"), (2, 1), r"values of mixed ranks \[1, 2\]"),
        ],
    )
    def test_names_are_distinct_and_ranks_agree(self, names, ranks, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            XPoint(names, tuple(map(Element.zero, ranks)))

    def test_lookup_miss_is_key_error(self):
        p = XPoint(("a",), (Element.one(1),))
        with pytest.raises(KeyError):
            p["zz"]

    def test_str(self):
        p = XPoint(("x1", "x2"), (Element.from_atoms([0, 1], 2), Element.zero(2)))
        assert str(p) == "x1={0,1} x2={}"
