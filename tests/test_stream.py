"""Solution streams against the ZPoint-per-point path they replace.

The reference below enumerates atom assignments with
``itertools.product``, builds a full ZPoint of Element cells for each,
maps it to variable space with ``x_from_z`` and renders it the way the
CLI did before it streamed masks.  The library generators and the CLI
must agree with it point for point and byte for byte.
"""

import csv
import io
import itertools
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolgeo import (
    Element,
    OrthogonalSystem,
    ZPoint,
    orthogonalize,
    parse_system,
    solutions_x,
    solutions_z,
    x_from_z,
)
from boolgeo.cli import build_parser, config_from_args, run
from boolgeo.ortho import format_minterm
from boolgeo.solve import solution_masks, split_atoms
from oracles import satisfying_xpoints, zpoints_brute

FAST = settings(max_examples=60, deadline=None)

# Keeps an unlimited stream small enough to render by the reference.
MAX_POINTS = 1500


# --- references -------------------------------------------------------------


def ref_zpoints(o, rank):
    surviving = [alpha for alpha in range(o.num_minterms) if not (o.zeroed_mask >> alpha) & 1]
    for assignment in itertools.product(surviving, repeat=rank):
        masks = [0] * o.num_minterms
        for atom, alpha in enumerate(assignment):
            masks[alpha] |= 1 << atom
        yield ZPoint(o.n, tuple(Element(mask, rank) for mask in masks))


def ref_output(o, names, rank, fmt, z_space, limit):
    if z_space:
        points = ref_zpoints(o, rank)
        headers = [format_minterm(alpha, o.n) for alpha in range(o.num_minterms)]
        row = lambda p: [str(cell) for cell in p.cells]  # noqa: E731
        as_json = lambda p: {"cells": [list(cell.atoms()) for cell in p.cells]}  # noqa: E731
    else:
        points = (x_from_z(z, names) for z in ref_zpoints(o, rank))
        headers = list(names)
        row = lambda p: [str(v) for v in p.values]  # noqa: E731
        as_json = lambda p: {name: list(v.atoms()) for name, v in p.items()}  # noqa: E731
    points = itertools.islice(points, limit)
    out = io.StringIO()
    if fmt == "json":
        payload = {"layout": "lsb-first", "rank": rank, "solutions": [as_json(p) for p in points]}
        print(json.dumps(payload), file=out)
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(headers)
        for p in points:
            writer.writerow(row(p))
    else:
        for p in points:
            print(p, file=out)
    return out.getvalue()


def beq_text(o, names):
    """A .beq system over ``names`` whose orthogonal form is ``o``."""
    lines = ["vars " + ", ".join(names)]
    for alpha in o.zeroed:
        literals = (name if (alpha >> i) & 1 else name + "'" for i, name in enumerate(names))
        lines.append(" * ".join(literals) + " = 0")
    if len(lines) == 1:
        lines.append(f"{names[0]} = {names[0]}")
    return "\n".join(lines)


def invoke(argv, stdin_text):
    cfg = config_from_args(build_parser().parse_args(argv))
    out, err = io.StringIO(), io.StringIO()
    code = run(cfg, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


# --- strategies -------------------------------------------------------------


@st.composite
def streams(draw, max_n=4):
    """(system, rank) with at most MAX_POINTS solutions."""
    n = draw(st.integers(1, max_n))
    full = (1 << (1 << n)) - 1
    mask = draw(st.one_of(st.just(0), st.just(full), st.integers(0, full)))
    o = OrthogonalSystem(n, mask)
    s = o.num_minterms - o.num_zeroed
    rank = draw(st.integers(1, 5))
    while rank > 1 and s**rank > MAX_POINTS:
        rank -= 1
    return o, rank


# --- CLI output -------------------------------------------------------------------


@FAST
@given(
    case=streams(),
    fmt=st.sampled_from(["text", "csv", "json"]),
    z_space=st.booleans(),
    limit=st.sampled_from([None, 0, 1, 5]),
    source=st.sampled_from(["json", "beq"]),
)
def test_cli_solve_matches_reference_renderer(case, fmt, z_space, limit, source):
    o, rank = case
    if source == "json":
        names = tuple(f"x{i + 1}" for i in range(o.n))
        stdin_text = json.dumps(o.to_json_dict())
    else:
        names = tuple("abcd"[: o.n])
        stdin_text = beq_text(o, names)
    argv = ["solve", "--rank", str(rank), "--format", fmt]
    if z_space:
        argv.append("--z")
    if limit is not None:
        argv += ["--limit", str(limit)]
    code, out, err = invoke(argv, stdin_text)
    assert (code, err) == (0, "")
    assert out == ref_output(o, names, rank, fmt, z_space, limit)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("z_space", [False, True])
def test_cli_solve_limit_past_the_table(fmt, z_space):
    # 14 survivors at rank 4: the fast-atom table holds the last two atoms
    # (196 rows), so 700 points span four values of the first two.
    o = OrthogonalSystem.from_indices(4, [1, 6])
    argv = ["solve", "--rank", "4", "--limit", "700", "--format", fmt]
    if z_space:
        argv.append("--z")
    code, out, _ = invoke(argv, json.dumps(o.to_json_dict()))
    assert code == 0
    assert out == ref_output(o, ("x1", "x2", "x3", "x4"), 4, fmt, z_space, 700)


# --- library streams ---------------------------------------------------------------


@FAST
@given(case=streams())
def test_solutions_z_keeps_the_reference_order(case):
    o, rank = case
    assert list(solutions_z(o, rank)) == list(ref_zpoints(o, rank))


@FAST
@given(case=streams())
def test_solutions_x_keeps_the_reference_order(case):
    o, rank = case
    system = parse_system(beq_text(o, ("a", "b", "c", "d")[: o.n]))
    expected = [x_from_z(z, system.variables) for z in ref_zpoints(orthogonalize(system), rank)]
    assert list(solutions_x(system, rank)) == expected


def test_solutions_x_past_the_table_keeps_the_reference_order():
    o = OrthogonalSystem.from_indices(4, [1, 6])
    system = parse_system(beq_text(o, ("a", "b", "c", "d")))
    expected = [x_from_z(z, system.variables) for z in itertools.islice(ref_zpoints(o, 4), 1000)]
    assert list(itertools.islice(solutions_x(system, 4), 1000)) == expected


@pytest.mark.parametrize("n,rank", [(1, 1), (1, 3), (2, 1), (2, 2)])
def test_streams_match_brute_force_sets(n, rank):
    for mask in range(1 << (1 << n)):
        o = OrthogonalSystem(n, mask)
        zpoints = list(solutions_z(o, rank))
        assert len(zpoints) == len(set(zpoints))
        assert set(zpoints) == zpoints_brute(o, rank)
        system = parse_system(beq_text(o, ("x1", "x2")[:n]))
        xpoints = list(solutions_x(system, rank))
        assert set(xpoints) == satisfying_xpoints(system, rank)


# --- laziness at 16 variables ----------------------------------------------------------


TAUTOLOGY_16 = json.dumps({"n": 16, "A": [], "layout": "lsb-first"})


@pytest.mark.parametrize(
    "argv,points",
    [
        (["solve", "--rank", "8", "--limit", "3"], 3),
        (["solve", "--rank", "8", "--limit", "2", "--z", "--format", "json"], 2),
    ],
)
def test_sixteen_variable_tautology_streams_lazily(argv, points):
    # 65536**8 solutions; only the first few may be built.  About 0.1 s
    # on a 2-vCPU machine; a table over all 65536 minterms takes minutes.
    start = time.perf_counter()
    code, out, err = invoke(argv, TAUTOLOGY_16)
    elapsed = time.perf_counter() - start
    assert code == 0, err
    if "json" in argv:
        solutions = json.loads(out)["solutions"]
        assert len(solutions) == points
        assert solutions[0]["cells"][0] == list(range(8))
        assert solutions[1]["cells"][0] == list(range(7))
        assert solutions[1]["cells"][1] == [7]
    else:
        lines = out.splitlines()
        assert len(lines) == points
        assert lines[0] == " ".join(f"x{i}={{}}" for i in range(1, 17))
        assert lines[1] == "x1={7} " + " ".join(f"x{i}={{}}" for i in range(2, 17))
    assert elapsed < 5.0, f"{argv} took {elapsed:.2f}s"


# --- batch edges -------------------------------------------------------------------------
#
# solve renders one batch, every row of the tail table under one head, per
# str.join over a fixed layout of literals and slots, and cuts the last
# batch to the rows a --limit leaves.

EDGES = settings(max_examples=25, deadline=None)
FORMATS = ["text", "csv", "json"]


@st.composite
def small_streams(draw, max_points=300):
    o, rank = draw(streams())
    s = o.num_minterms - o.num_zeroed
    while rank > 1 and s**rank > max_points:
        rank -= 1
    return o, rank


def table_rows(o, rank, z_space=False, points=None):
    """The rows of the one tail-table key that split_atoms returns."""
    (rows,) = split_atoms(o, rank, z_space=z_space, points=points)[0].values()
    return len(rows)


def batch_edge_limits(o, rank, z_space):
    """Every --limit within 2 of 1, 2 or 3 whole batches, where a batch is
    the tail table (s**i rows) that a run with that limit renders."""
    s = o.num_minterms - o.num_zeroed
    limits = set()
    for i in range(rank + 1):
        for whole in (s**i, 2 * s**i, 3 * s**i):
            for limit in range(max(whole - 2, 0), whole + 3):
                if table_rows(o, rank, z_space, limit) == s**i:
                    limits.add(limit)
    return sorted(limits)


def solve_argv(rank, fmt, z_space, limit):
    argv = ["solve", "--rank", str(rank), "--format", fmt]
    if z_space:
        argv.append("--z")
    if limit is not None:
        argv += ["--limit", str(limit)]
    return argv


def check_json_input(o, rank, fmt, z_space, limit):
    names = tuple(f"x{i + 1}" for i in range(o.n))
    code, out, err = invoke(solve_argv(rank, fmt, z_space, limit), json.dumps(o.to_json_dict()))
    assert (code, err) == (0, "")
    assert out == ref_output(o, names, rank, fmt, z_space, limit)


@EDGES
@given(case=small_streams(), fmt=st.sampled_from(FORMATS), z_space=st.booleans())
def test_cli_solve_limit_at_batch_edges(case, fmt, z_space):
    o, rank = case
    for limit in batch_edge_limits(o, rank, z_space):
        check_json_input(o, rank, fmt, z_space, limit)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "o,rank,z_space",
    [
        (OrthogonalSystem(2, 0), 6, False),  # 4 survivors: batches of 16 and 64 rows
        (OrthogonalSystem.from_indices(3, [2, 5]), 4, False),
        (OrthogonalSystem.from_indices(4, [1, 6]), 3, True),  # 14 survivors, 16 cells
    ],
)
def test_cli_solve_limit_at_batch_edges_of_grown_tables(o, rank, z_space, fmt):
    limits = batch_edge_limits(o, rank, z_space)
    assert any(table_rows(o, rank, z_space, k) > 1 for k in limits)
    for limit in limits:
        check_json_input(o, rank, fmt, z_space, limit)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("z_space", [False, True])
@pytest.mark.parametrize("rank", [1, 64])
def test_cli_solve_single_survivor(rank, z_space, fmt):
    # One point; at rank 64 the table must not grow over the 64 atoms.
    for n, alpha in [(1, 0), (1, 1), (3, 5), (4, 9)]:
        o = OrthogonalSystem(n, ((1 << (1 << n)) - 1) & ~(1 << alpha))
        assert table_rows(o, rank, z_space) == 1
        for limit in (None, 0, 1, 2):
            check_json_input(o, rank, fmt, z_space, limit)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("rank,limit", [(2, 3), (3, 5), (3, None)])
def test_cli_solve_one_field_batches(rank, limit, fmt):
    # The 1-variable tautology has tail rows of one column: rank 2 with
    # --limit 3 (2 rows) and rank 3 with --limit 5 (4 rows) leave a last
    # batch of one field.
    o = OrthogonalSystem(1, 0)
    assert table_rows(o, rank, points=limit) > 1
    check_json_input(o, rank, fmt, False, limit)


@FAST
@given(case=streams(max_n=4), limit=st.one_of(st.none(), st.integers(0, 40)))
def test_cli_solve_z_space_csv(case, limit):
    o, rank = case
    check_json_input(o, rank, "csv", True, limit)


@FAST
@given(
    case=streams(max_n=3),
    fmt=st.sampled_from(FORMATS),
    z_space=st.booleans(),
    limit=st.sampled_from([None, 0, 1, 7]),
)
def test_cli_solve_non_ascii_names(case, fmt, z_space, limit):
    # JSON keys are escaped (\u017f); text and csv keep the names as written.
    o, rank = case
    names = ("ſ", "é1", "Ω")[: o.n]
    code, out, err = invoke(solve_argv(rank, fmt, z_space, limit), beq_text(o, names))
    assert (code, err) == (0, "")
    assert out == ref_output(o, names, rank, fmt, z_space, limit)


def test_cli_solve_limit_past_sys_maxsize_writes_every_point():
    o = OrthogonalSystem.from_indices(2, [0])
    code, out, err = invoke(solve_argv(3, "text", False, 10**30), json.dumps(o.to_json_dict()))
    assert (code, err) == (0, "")
    assert out == ref_output(o, ("x1", "x2"), 3, "text", False, None)


@FAST
@given(case=streams())
def test_solution_masks_keeps_the_reference_order(case):
    o, rank = case
    names = tuple(f"x{i + 1}" for i in range(o.n))
    zpoints = list(ref_zpoints(o, rank))
    assert list(solution_masks(o, rank, z_space=True)) == [
        tuple(cell.mask for cell in z.cells) for z in zpoints
    ]
    assert list(solution_masks(o, rank)) == [
        tuple(value.mask for value in x_from_z(z, names).values) for z in zpoints
    ]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("zeroed", [(), range(0, 4096, 3)])
def test_cli_solve_z_with_wide_rows(zeroed, fmt):
    # 2**12 cells per point keep the tail table at one row, so each point is
    # written by joining its cells.
    o = OrthogonalSystem.from_indices(12, zeroed)
    assert table_rows(o, 2, True, 7) == 1
    check_json_input(o, 2, fmt, True, 7)


def test_cli_solve_z_with_wide_rows_past_sys_maxsize_streams():
    # 65536**5 points, more than islice accepts; the first ones are written at once.
    cfg = config_from_args(build_parser().parse_args(solve_argv(5, "json", True, None)))
    out = io.StringIO()

    class Full(Exception):
        pass

    class Sink(io.StringIO):
        def write(self, text):
            out.write(text)
            if out.tell() > 1_000_000:
                raise Full

    with pytest.raises(Full):
        run(cfg, stdin=io.StringIO('{"n": 16, "A": []}'), stdout=Sink(), stderr=io.StringIO())
    first = '{"cells": [[0, 1, 2, 3, 4]' + ", []" * 65535 + "]}"
    assert out.getvalue().startswith('{"layout": "lsb-first", "rank": 5, "solutions": [' + first)
