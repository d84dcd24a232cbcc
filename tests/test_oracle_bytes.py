"""The CLI's grouped enumerations byte for byte against the benchmark oracle.

``perfbench/oracle.py`` derives every expected ``solve`` and ``decompose``
output with plain stdlib code and imports no boolgeo, so it is an
independent reference for the bytes that the split tables and the grouped
writer produce.  It is loaded by path: ``perfbench`` is not a package.
"""

import importlib.util
import io
import json
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolgeo import OrthogonalSystem, solve
from boolgeo.cli import build_parser, config_from_args, run

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_oracle", _PATH)
oracle = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(oracle)

BOUNDED = settings(max_examples=40, deadline=None)
FORMATS = ["text", "csv", "json"]


def invoke(argv, stdin_text):
    cfg = config_from_args(build_parser().parse_args(argv))
    out, err = io.StringIO(), io.StringIO()
    code = run(cfg, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@st.composite
def systems(draw, max_n, min_survivors=0):
    """(n, forced-zero mask) with at least ``min_survivors`` survivors."""
    n = draw(st.integers(1, max_n))
    size = 1 << n
    mask = draw(st.integers(0, (1 << size) - 1))
    while size - mask.bit_count() < min_survivors:
        mask &= mask - 1
    return n, mask


def json_input(n, mask):
    return json.dumps({"n": n, "A": oracle.set_bits(mask)})


def batch_edges(s, r):
    """Limits within 1 of 1 and 2 whole tables of s**i rows, past 0."""
    edges = {k for i in range(r + 1) for w in (s**i, 2 * s**i) for k in (w - 1, w, w + 1)}
    return sorted(k for k in edges if k > 0)


@BOUNDED
@given(
    case=systems(max_n=3),
    rank=st.integers(1, 4),
    fmt=st.sampled_from(FORMATS),
    z_space=st.booleans(),
    data=st.data(),
)
def test_solve_bytes_match_the_oracle(case, rank, fmt, z_space, data):
    n, mask = case
    s = (1 << n) - mask.bit_count()
    while rank > 1 and s**rank > 400:
        rank -= 1
    count = s**rank
    limit = data.draw(st.sampled_from([None, 0, *batch_edges(s, rank)]))
    argv = ["solve", "--rank", str(rank), "--format", fmt]
    if z_space:
        argv.append("--z")
    if limit is not None:
        argv += ["--limit", str(limit)]
    code, out, err = invoke(argv, json_input(n, mask))
    shown = count if limit is None else min(count, limit)
    names = [f"x{i + 1}" for i in range(n)]
    assert (code, err) == (0, "")
    assert out == oracle.solve_output(n, mask, rank, shown, fmt, z_space, names)


@BOUNDED
@given(case=systems(max_n=5, min_survivors=1), rank=st.integers(1, 6), fmt=st.sampled_from(FORMATS))
def test_decompose_bytes_match_the_oracle(case, rank, fmt):
    n, mask = case
    s = (1 << n) - mask.bit_count()
    while rank < s and comb(s, rank) > 3000:
        rank += 1
    argv = ["decompose", "--rank", str(rank), "--format", fmt]
    code, out, err = invoke(argv, json_input(n, mask))
    assert (code, err) == (0, "")
    assert out == oracle.decompose_output(n, mask, rank, fmt)


def test_decompose_numbers_cross_the_thousand_edge():
    # C(17, 4) = 2380 components number through 999 -> 1000 and 1999 -> 2000.
    mask = sum(1 << a for a in (0, 3, 4, 9, 10, 12, 17, 20, 21, 23, 26, 28, 29, 30, 31))
    for fmt in FORMATS:
        code, out, err = invoke(["decompose", "--rank", "4", "--format", fmt], json_input(5, mask))
        assert (code, err) == (0, "")
        assert out == oracle.decompose_output(5, mask, 4, fmt)


def group_limits(n, mask, rank, z_space):
    """--limit 0, 1, a cut inside the first group, exactly one group, one
    past it, and s**r: a group has a row per tail-table entry, and the table
    is sized for the points to be written, so each limit reads its own."""
    o = OrthogonalSystem(n, mask)
    count = solve.count_solutions(o, rank)

    def group(limit):
        tails, _ = solve.split_atoms(o, rank, z_space=z_space, points=limit)
        return len(next(iter(tails.values())))

    cut = next((k for k in range(2, count) if k < group(k)), None)
    whole = next((k for k in range(2, count) if k == group(k)), None)
    limits = {0, 1, count, cut, whole, whole and whole + 1}
    return sorted(k for k in limits if k is not None)


# (n, forced-zero mask): one column with two survivors and with one, then
# 2, 3 and 14 survivors; s**r stays within a few hundred points.  Then
# columns that are the same in every point (with --z the forced-zero cells
# are written as literals): x1 set in every survivor with four forced-zero
# cells, x1 clear in every survivor, and x1 set, x2 free and x3 clear in the
# survivors 1 and 3 of n = 3 and of n = 2.
GROUP_SYSTEMS = [(1, 0), (1, 1), (2, 0b0110), (3, 0b1001_0010), (4, 1 << 1 | 1 << 6)]
GROUP_SYSTEMS += [(3, 0b0101_0101), (3, 0b1010_1010), (3, 0b1111_0101), (2, 0b0101)]


@pytest.mark.parametrize("z_space", [False, True])
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("n, mask", GROUP_SYSTEMS)
def test_solve_bytes_at_group_edges(n, mask, fmt, z_space):
    s = (1 << n) - mask.bit_count()
    for rank in [r for r in range(1, 5) if s**r <= 3000]:
        for limit in group_limits(n, mask, rank, z_space):
            argv = ["solve", "--rank", str(rank), "--format", fmt, "--limit", str(limit)]
            code, out, err = invoke(argv + ["--z"] * z_space, json_input(n, mask))
            assert (code, err) == (0, "")
            names = [f"x{i + 1}" for i in range(n)]
            expected = oracle.solve_output(n, mask, rank, limit, fmt, z_space, names)
            assert out == expected, (rank, limit)


@pytest.mark.parametrize("z_space, limit", [(False, 70000), (True, 40000)])
def test_solve_bytes_past_the_cached_cells(z_space, limit):
    # Every point of n = 1 at rank 17 has cells of its own, so these streams
    # pass 2**16 distinct cells, where solve drops its cached texts.
    argv = ["solve", "--rank", "17", "--format", "json", "--limit", str(limit)]
    code, out, err = invoke(argv + ["--z"] * z_space, json_input(1, 0))
    assert (code, err) == (0, "")
    assert out == oracle.solve_output(1, 0, 17, limit, "json", z_space, ["x1"])


@pytest.mark.parametrize("z_space", [False, True])
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("rank", [8, 9])
@pytest.mark.parametrize("n, mask", [(1, 0), (2, 0b0101)])
def test_solve_bytes_on_either_side_of_the_byte_table_cells(n, mask, rank, fmt, z_space):
    # Cells up to rank 8 are the byte table's texts; at rank 9 they are
    # rendered one mask at a time.  x1 of the second system is every atom.
    for limit in group_limits(n, mask, rank, z_space):
        argv = ["solve", "--rank", str(rank), "--format", fmt, "--limit", str(limit)]
        code, out, err = invoke(argv + ["--z"] * z_space, json_input(n, mask))
        assert (code, err) == (0, "")
        names = [f"x{i + 1}" for i in range(n)]
        assert out == oracle.solve_output(n, mask, rank, limit, fmt, z_space, names), limit


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "n, mask, rank, z_space",
    [(1, 0, 14, False), (4, ~(1 << 5 | 1 << 12) & 0xFFFF, 10, True)],
    ids=["n1-r14", "z-n4-s2-r10"],
)
def test_solve_bytes_of_a_table_at_the_cell_cap(n, mask, rank, z_space, fmt):
    # Every atom in the tail: one head and a table of _TAIL_TABLE_CELLS cells.
    o = OrthogonalSystem(n, mask)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solve, "_tail_size", lambda *args: rank)
        (table,) = solve.split_atoms(o, rank, z_space=z_space)[0].values()
        assert len(table) * (o.num_minterms if z_space else n) == solve._TAIL_TABLE_CELLS
        count = solve.count_solutions(o, rank)
        for limit in (1, count - 1, count):
            argv = ["solve", "--rank", str(rank), "--format", fmt, "--limit", str(limit)]
            code, out, err = invoke(argv + ["--z"] * z_space, json_input(n, mask))
            assert (code, err) == (0, "")
            names = [f"x{i + 1}" for i in range(n)]
            assert out == oracle.solve_output(n, mask, rank, limit, fmt, z_space, names), limit


def test_solve_bytes_of_one_row_past_2_16_cells():
    # At n = 17 a z-space point has 2**17 cells: more columns than a 16-bit
    # slot number could name, which a one-row table never packs.
    argv = ["solve", "--rank", "1", "--z", "--max-vars", "17", "--limit", "2"]
    code, out, err = invoke(argv, json_input(17, 0))
    assert (code, err) == (0, "")
    assert out == oracle.solve_output(17, 0, 1, 2, "text", True, [])
