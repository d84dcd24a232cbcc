"""The linear-time mask <-> index-set paths against bit-by-bit references.

Each reference below is the straightforward per-bit loop; the library's
fast paths (string scans, bytearray builds, whole-list checks, half-width
label tables) must agree with it exactly, error messages included.
"""

import io
import json
import random
import time
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolgeo import LimitExceededError, OrthogonalSystem, ParseError, SystemMismatchError
from boolgeo.algebra import Element
from boolgeo.cli import build_parser, config_from_args, run
from boolgeo.geometry import decompose
from boolgeo.ortho import ZPoint, _index_sum, format_minterm, minterm_labels

FAST = settings(max_examples=60, deadline=None)


# --- references -------------------------------------------------------------


def ref_zeroed(n, mask):
    return tuple(alpha for alpha in range(1 << n) if (mask >> alpha) & 1)


def ref_surviving(n, mask):
    return tuple(alpha for alpha in range(1 << n) if not (mask >> alpha) & 1)


def ref_mask(indices):
    mask = 0
    for alpha in indices:
        mask |= 1 << alpha
    return mask


def ref_label(alpha, n):
    return "z_(" + ",".join(str((alpha >> i) & 1) for i in range(n)) + ")"


def ref_json_error(n, indices):
    """The ordered validation loop: the message for the first bad entry,
    or None when every entry is valid."""
    seen = set()
    for alpha in indices:
        if not isinstance(alpha, int) or isinstance(alpha, bool):
            return f"minterm index {alpha!r} is not an integer"
        if not 0 <= alpha < (1 << n):
            return f"minterm index {alpha} out of range for n={n}"
        if alpha in seen:
            return f"duplicate minterm index {alpha}"
        seen.add(alpha)
    return None


# --- strategies -------------------------------------------------------------


@st.composite
def systems(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    full = (1 << (1 << n)) - 1
    mask = draw(st.one_of(st.just(0), st.just(full), st.integers(0, full)))
    return n, mask


@st.composite
def json_index_lists(draw):
    """(n, A) where A is valid entries, then maybe one bad entry of a
    chosen kind, then arbitrary further entries."""
    n = draw(st.integers(1, 8))
    size = 1 << n
    prefix = draw(st.lists(st.integers(0, size - 1), unique=True, max_size=20))
    kinds = ["none", "bool", "float", "negative", "range", "string"]
    if prefix:
        kinds.append("duplicate")
    kind = draw(st.sampled_from(kinds))
    bad = {
        "none": [],
        "bool": [draw(st.booleans())],
        "float": [draw(st.floats(allow_nan=False))],
        "negative": [draw(st.integers(-2 * size, -1))],
        "range": [draw(st.integers(min_value=size))],
        "string": [draw(st.text(max_size=3))],
        "duplicate": [draw(st.sampled_from(prefix))] if prefix else [],
    }[kind]
    suffix = draw(
        st.lists(st.one_of(st.integers(-2, size + 2), st.booleans(), st.floats()), max_size=5)
    )
    return n, prefix + bad + suffix


# --- index extraction and construction -----------------------------------------


@FAST
@given(systems())
def test_zeroed_and_surviving_match_bit_loop(case):
    n, mask = case
    o = OrthogonalSystem(n, mask)
    assert o.zeroed == ref_zeroed(n, mask)
    assert o.surviving == ref_surviving(n, mask)


@FAST
@given(systems(), st.randoms(use_true_random=False))
def test_from_indices_round_trip(case, rng):
    n, mask = case
    indices = list(ref_zeroed(n, mask))
    rng.shuffle(indices)
    o = OrthogonalSystem.from_indices(n, iter(indices))
    assert o.zeroed_mask == ref_mask(indices) == mask
    assert o == OrthogonalSystem(n, mask)


def test_from_indices_rejects_the_first_out_of_range_index():
    with pytest.raises(ValueError, match="minterm index 9 out of range for n=3"):
        OrthogonalSystem.from_indices(3, [1, 9, -1])


@pytest.mark.parametrize("indices, bad", [([1.0], "1.0"), (["x"], "'x'"), ([0, None, 9], "None")])
def test_from_indices_names_the_first_entry_that_is_not_an_integer(indices, bad):
    with pytest.raises(TypeError, match=f"^minterm index {bad} is not an integer$"):
        OrthogonalSystem.from_indices(2, indices)


def test_entries_that_are_not_integers_are_echoed_cut_short():
    deep, long = [], "x" * 5000
    for _ in range(900):
        deep = [deep]
    for entry, shown in ((deep, "[[[[[[[...]]]]]]]"), (long, "'xxxxxxxxxxxx...xxxxxxxxxxxxx'")):
        message = f"minterm index {shown} is not an integer"
        with pytest.raises(TypeError) as info:
            OrthogonalSystem.from_indices(2, [0, entry])
        assert str(info.value) == message
        with pytest.raises(ParseError) as info:
            OrthogonalSystem.from_json_dict({"n": 2, "A": [0, entry]})
        assert str(info.value) == message
    with pytest.raises(ParseError) as info:
        OrthogonalSystem.from_json_dict({"n": 2, "A": [], "layout": long})
    assert str(info.value) == f"unsupported layout {shown} (expected 'lsb-first')"
    # An int out of range is named by its size past 128 bits, also past the
    # interpreter's digit cap, and printed in full up to it.
    for entry, shown in ((10**4000, "<13288-bit integer>"), (10**5000, "<16610-bit integer>"),
                         (-(2**128) + 1, str(-(2**128) + 1))):
        message = f"minterm index {shown} out of range for n=2"
        with pytest.raises(ValueError) as info:
            OrthogonalSystem.from_indices(2, [0, entry])
        assert str(info.value) == message
        with pytest.raises(ParseError) as info:
            OrthogonalSystem.from_json_dict({"n": 2, "A": [0, entry]})
        assert str(info.value) == message
    with pytest.raises(ParseError, match=r"^duplicate minterm index <13288-bit integer>$"):
        OrthogonalSystem.from_json_dict({"n": 10**20, "A": [10**4000, 10**4000]})


def test_from_indices_accepts_bools_and_rejects_negatives_that_land_in_range():
    assert OrthogonalSystem.from_indices(2, [True, 2]).zeroed_mask == 0b110
    for indices in ([-1], [0, -4], [-3, 2], [-5], [-6], [0, -6], [1, -9]):
        with pytest.raises(ValueError, match=f"minterm index {min(indices)} out of range"):
            OrthogonalSystem.from_indices(2, indices)


# --- labels -------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 13))
def test_labels_match_format_minterm_exhaustively(n):
    alphas = range(1 << n)
    expected = [ref_label(alpha, n) for alpha in alphas]
    assert minterm_labels(alphas, n) == expected
    assert [format_minterm(alpha, n) for alpha in alphas] == expected


def test_labels_at_the_hard_cap():
    alphas = random.Random(7).sample(range(1 << 20), 500) + [0, (1 << 20) - 1]
    assert minterm_labels(alphas, 20) == [ref_label(alpha, 20) for alpha in alphas]


@FAST
@given(systems())
def test_render_text_matches_per_minterm_labels(case):
    n, mask = case
    expected = "\n".join(f"{ref_label(a, n)} = 0" for a in ref_zeroed(n, mask))
    assert OrthogonalSystem(n, mask).render_text() == expected


# --- JSON decoding ------------------------------------------------------------------


@FAST
@given(systems(max_n=8))
def test_from_json_dict_accepts_valid_lists(case):
    n, mask = case
    indices = list(ref_zeroed(n, mask))[::-1]
    o = OrthogonalSystem.from_json_dict({"n": n, "A": indices})
    assert o.zeroed_mask == mask


@FAST
@given(json_index_lists())
def test_from_json_dict_reports_the_first_bad_entry(case):
    n, indices = case
    expected = ref_json_error(n, indices)
    if expected is None:
        o = OrthogonalSystem.from_json_dict({"n": n, "A": indices})
        assert o.zeroed_mask == ref_mask(indices)
        return
    with pytest.raises(ParseError) as info:
        OrthogonalSystem.from_json_dict({"n": n, "A": indices})
    assert str(info.value) == expected


@pytest.mark.parametrize(
    "indices, message",
    [
        ([0, 3, True], "minterm index True is not an integer"),
        ([1, 2, 2.0], "minterm index 2.0 is not an integer"),
        ([1, 2, -1], "minterm index -1 out of range for n=2"),
        ([0, 1, 4], "minterm index 4 out of range for n=2"),
        ([3, 0, 3], "duplicate minterm index 3"),
        ([3, 3, -1], "duplicate minterm index 3"),
    ],
)
def test_from_json_dict_error_after_valid_entries(indices, message):
    with pytest.raises(ParseError) as info:
        OrthogonalSystem.from_json_dict({"n": 2, "A": indices})
    assert str(info.value) == message


@pytest.mark.parametrize(
    "n, indices",
    [
        # Negative entries that count back onto a free index.
        (2, [-1]),
        (2, [0, -4]),
        (2, [-3, 2]),
        (2, [-(2**70)]),
        # Negative entries past -2**n, which a scatter into twice the
        # minterm space would put on a free index of the lower half.
        (2, [-5]),
        (2, [-6]),
        (2, [0, -6]),
        (3, [1, -9]),
        # A bool that is the only entry equal to 0 or to 1.
        (2, [True, 2]),
        (2, [3, False]),
        (8, list(range(2, 256)) + [True]),
        (2, [2**70]),
    ],
)
def test_from_json_dict_rejects_what_the_scatter_lets_through(n, indices):
    with pytest.raises(ParseError) as info:
        OrthogonalSystem.from_json_dict({"n": n, "A": indices})
    assert str(info.value) == ref_json_error(n, indices)


class IndexLike:
    """Usable as an index, as numpy's integers are, but not an int."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"IndexLike({self.value})"


def test_from_json_dict_rejects_an_index_that_is_not_an_int():
    for indices in ([IndexLike(3)], [1, IndexLike(2)]):
        with pytest.raises(ParseError) as info:
            OrthogonalSystem.from_json_dict({"n": 2, "A": indices})
        assert str(info.value) == ref_json_error(2, indices)


class Minterm(IntEnum):
    LOW = 0
    HIGH = 3


def test_from_json_dict_accepts_int_subclasses():
    indices = [Minterm.HIGH, 1, Minterm.LOW]
    assert ref_json_error(2, indices) is None
    assert OrthogonalSystem.from_json_dict({"n": 2, "A": indices}).zeroed_mask == 0b1011


@FAST
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << (1 << n)) - 1))))
def test_index_sum_is_the_sum_of_the_set_bit_indices(case):
    n, mask = case
    assert _index_sum(n, mask) == sum(i for i in range(1 << n) if mask >> i & 1)


def test_an_irreducible_decomposition_reads_no_survivors(monkeypatch):
    o = OrthogonalSystem(16, ((1 << (1 << 16)) - 1) ^ (1 << 7 | 1 << 40000))

    def surviving(self):
        raise AssertionError("read the survivors")

    monkeypatch.setattr(OrthogonalSystem, "surviving", property(surviving))
    parts = decompose(o, 2)
    assert list(parts.masks()) == [o.zeroed_mask]
    assert list(parts) == [parts[0]] == [o]


def test_from_json_dict_checks_entries_before_the_variable_cap():
    with pytest.raises(ParseError, match="duplicate"):
        OrthogonalSystem.from_json_dict({"n": 40, "A": [5, 5]})


def test_a_variable_count_past_int_range_reaches_the_cap_without_building_2_to_the_n():
    # The index range is read off bit lengths, so 1 << n is never built:
    # at this n it would not fit in memory (OverflowError).
    n = 10**20
    with pytest.raises(LimitExceededError):
        OrthogonalSystem.from_indices(n, [5])
    with pytest.raises(ValueError, match=f"minterm index -1 out of range for n={n}"):
        OrthogonalSystem.from_indices(n, [5, -1])
    with pytest.raises(LimitExceededError):
        OrthogonalSystem.from_json_dict({"n": n, "A": [5]})
    with pytest.raises(ParseError, match="duplicate minterm index 5"):
        OrthogonalSystem.from_json_dict({"n": n, "A": [5, 5]})
    with pytest.raises(ParseError, match=f"minterm index -1 out of range for n={n}"):
        OrthogonalSystem.from_json_dict({"n": n, "A": [-1]})


# --- zero violations ------------------------------------------------------------------


@FAST
@given(systems(max_n=6), st.integers(1, 3), st.randoms(use_true_random=False))
def test_zero_violation_mask_matches_cell_loop(case, rank, rng):
    n, mask = case
    cells = tuple(
        Element(rng.getrandbits(rank) if rng.random() < 0.5 else 0, rank)
        for _ in range(1 << n)
    )
    point = ZPoint(n, cells)
    system = OrthogonalSystem(n, mask)
    expected = ref_mask(a for a in ref_zeroed(n, mask) if not cells[a].is_zero)
    assert point.zero_violation_mask(system) == expected
    assert point.solves(system) == (expected == 0 and point.is_orthogonal())


def test_zero_violation_mask_rejects_other_variable_counts():
    point = ZPoint(1, (Element(1, 1), Element(0, 1)))
    with pytest.raises(SystemMismatchError):
        point.zero_violation_mask(OrthogonalSystem(2, 0))
    with pytest.raises(SystemMismatchError):
        point.solves(OrthogonalSystem(2, 0))


# --- 20 variables end to end ---------------------------------------------------------


def _invoke(argv, stdin_text):
    cfg = config_from_args(build_parser().parse_args(argv))
    out, err = io.StringIO(), io.StringIO()
    code = run(cfg, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def system_n20():
    rng = random.Random(2020)
    indices = [alpha for alpha in range(1 << 20) if rng.random() < 0.5]
    return json.dumps({"n": 20, "A": indices, "layout": "lsb-first"}), len(indices)


@pytest.mark.parametrize(
    "argv",
    [["orthogonalize", "--format", "json"], ["classify", "--rank", "3", "--format", "json"]],
)
def test_twenty_variable_json_system_within_budget(system_n20, argv):
    # About 0.2 s on a 2-vCPU machine; the quadratic index paths took 2-20 s.
    text, zeroed_count = system_n20
    start = time.perf_counter()
    code, out, err = _invoke(argv, text)
    elapsed = time.perf_counter() - start
    assert code == 0, err
    if argv[0] == "orthogonalize":
        assert out == text + "\n"
    else:
        assert json.loads(out)["coordinate_rank"] == (1 << 20) - zeroed_count
    assert elapsed < 5.0, f"{argv[0]} on n=20 took {elapsed:.2f}s"


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_twenty_variable_json_system_renders_csv_and_text_within_budget(system_n20, fmt):
    # About 0.3 s on a 2-vCPU machine; one str() or label per index took 0.5 s.
    text, zeroed_count = system_n20
    start = time.perf_counter()
    code, out, err = _invoke(["orthogonalize", "--format", fmt], text)
    elapsed = time.perf_counter() - start
    assert code == 0, err
    indices = json.loads(text)["A"]
    if fmt == "csv":
        assert out == f"n,zeroed_count,zeroed\n20,{zeroed_count},{' '.join(map(str, indices))}\n"
    else:
        assert out == "".join(label + " = 0\n" for label in minterm_labels(indices, 20))
    assert elapsed < 5.0, f"orthogonalize --format {fmt} on n=20 took {elapsed:.2f}s"
