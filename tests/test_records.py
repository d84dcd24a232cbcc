"""The eleven frozen value types: equality, hashing, repr, immutability and
copying, pinned as the frozen dataclasses they were first written as."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from boolgeo import (
    Complement,
    Const,
    Element,
    Equation,
    Join,
    Meet,
    OrthogonalSystem,
    System,
    Var,
    XPoint,
    ZPoint,
    parse_system,
)

A, B = Var("a"), Var("b")
CELLS = (Element(1, 1), Element(0, 1))

# A factory per type, so that each call builds a new but equal instance, and
# the exact repr of what it builds.
RECORDS = {
    "Element": (lambda: Element(5, 3), "Element(mask=5, rank=3)"),
    "Var": (lambda: Var("x1"), "Var(name='x1')"),
    "Const": (lambda: Const(True), "Const(value=True)"),
    "Join": (lambda: Join(A, Const(False)), "Join(left=Var(name='a'), right=Const(value=False))"),
    "Meet": (lambda: Meet(A, B), "Meet(left=Var(name='a'), right=Var(name='b'))"),
    "Complement": (lambda: Complement(A), "Complement(term=Var(name='a'))"),
    "Equation": (
        lambda: Equation(Join(A, B), Const(True)),
        "Equation(lhs=Join(left=Var(name='a'), right=Var(name='b')), rhs=Const(value=True))",
    ),
    "System": (
        lambda: System(("a", "b", "c"), [Equation(Meet(A, B), B)]),
        "System(variables=('a', 'b', 'c'), equations=(Equation(lhs=Meet(left=Var(name='a'), "
        "right=Var(name='b')), rhs=Var(name='b')),))",
    ),
    "OrthogonalSystem": (lambda: OrthogonalSystem(2, 0b0100), "OrthogonalSystem(n=2, zeroed_mask=0x4)"),
    "ZPoint": (
        lambda: ZPoint(1, CELLS),
        "ZPoint(n=1, cells=(Element(mask=1, rank=1), Element(mask=0, rank=1)))",
    ),
    "XPoint": (
        lambda: XPoint(("x1", "x2"), (Element(1, 2), Element(3, 2))),
        "XPoint(names=('x1', 'x2'), values=(Element(mask=1, rank=2), Element(mask=3, rank=2)))",
    ),
}
# Each type's fields, and an instance that differs from RECORDS' in one of them.
FIELDS = {
    "Element": (("mask", "rank"), lambda: Element(4, 3)),
    "Var": (("name",), lambda: Var("x2")),
    "Const": (("value",), lambda: Const(False)),
    "Join": (("left", "right"), lambda: Join(A, Const(True))),
    "Meet": (("left", "right"), lambda: Meet(B, A)),
    "Complement": (("term",), lambda: Complement(B)),
    "Equation": (("lhs", "rhs"), lambda: Equation(Join(A, B), Const(False))),
    "System": (("variables", "programs"), lambda: System(("a", "b"), [Equation(Meet(A, B), B)])),
    "OrthogonalSystem": (("n", "zeroed_mask"), lambda: OrthogonalSystem(2, 0b0110)),
    "ZPoint": (("n", "cells"), lambda: ZPoint(1, CELLS[::-1])),
    "XPoint": (("names", "values"), lambda: XPoint(("x1", "x3"), (Element(1, 2), Element(3, 2)))),
}
NAMES = sorted(RECORDS)


def test_every_record_type_is_covered():
    assert set(RECORDS) == set(FIELDS)
    assert len(RECORDS) == 11


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hash(name):
    make, _ = RECORDS[name]
    first, second = make(), make()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    other = FIELDS[name][1]()
    assert first != other and not first == other
    assert first != object() and first != None  # noqa: E711


@pytest.mark.parametrize("name", NAMES)
def test_hash_is_that_of_the_field_tuple(name):
    record = RECORDS[name][0]()
    fields = FIELDS[name][0]
    assert hash(record) == hash(tuple(getattr(record, field) for field in fields))


def test_same_fields_of_another_class_are_not_equal():
    assert Join(A, B) != Meet(A, B)
    assert not Join(A, B) == Meet(A, B)
    assert Var("x") != Const(True)
    assert Element(1, 1) != (1, 1)
    assert OrthogonalSystem(2, 4) != (2, 4)


def test_system_equality_reads_programs_not_equation_objects():
    built = System(("x1", "x2"), [Equation(Join(Var("x1"), Var("x2")), Const(True))])
    parsed = parse_system("vars x1, x2; x1 + x2 = 1")
    assert parsed == built and hash(parsed) == hash(built)


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    make, text = RECORDS[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", NAMES)
def test_fields_are_frozen(name):
    record = RECORDS[name][0]()
    for field in FIELDS[name][0]:
        value = getattr(record, field)
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, value)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(FrozenInstanceError):
        record.extra = 1
    assert record == RECORDS[name][0]()


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize(
    "duplicate",
    [
        lambda record: pickle.loads(pickle.dumps(record)),
        lambda record: pickle.loads(pickle.dumps(record, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ],
    ids=["pickle", "pickle-0", "copy", "deepcopy"],
)
def test_copies_round_trip(name, duplicate):
    record = RECORDS[name][0]()
    twin = duplicate(record)
    assert type(twin) is type(record)
    assert twin == record and hash(twin) == hash(record)
    assert repr(twin) == repr(record)
    for field in FIELDS[name][0]:
        assert getattr(twin, field) == getattr(record, field)
    with pytest.raises(FrozenInstanceError):
        setattr(twin, FIELDS[name][0][0], None)


def test_copied_system_rebuilds_its_equations():
    system = RECORDS["System"][0]()
    equations = system.equations
    for twin in (pickle.loads(pickle.dumps(system)), copy.copy(system), copy.deepcopy(system)):
        assert twin.equations == equations
        assert twin.programs == system.programs


@pytest.mark.parametrize("name", NAMES)
def test_match_args_and_keywords_name_the_fields(name):
    record = RECORDS[name][0]()
    fields = FIELDS[name][0]
    assert type(record).__match_args__ == fields
    if name != "System":  # built from equations, not from its programs
        assert type(record)(**{field: getattr(record, field) for field in fields}) == record


def test_terms_match_by_position():
    match Join(A, Complement(B)):
        case Join(Var(left), Complement(Var(right))):
            assert (left, right) == ("a", "b")
        case _:
            pytest.fail("no match")
