"""Forced-zero lists rendered from the mask a block at a time.

``mask_text`` must give the bytes of the per-index renderers it replaces:
``sep.join(map(str, zeroed))`` and ``sep.join(minterm_labels(zeroed, n))``
for the library, and ``json.dumps`` / ``csv.writer`` / ``print`` of those
lists for ``orthogonalize`` and ``decompose``, whose references below reach
past the decimal blocks of 1000 indices and the label blocks of 2**10.
"""

import csv
import io
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolgeo import OrthogonalSystem
from boolgeo.cli import build_parser, config_from_args, run
from boolgeo.ortho import HARD_MAX_VARS, format_minterm, mask_text, minterm_labels

SEPARATORS = (", ", " ", " = 0\n", " = 0, ")
EDGES = (0, 1, 998, 999, 1000, 1001, 1023, 1024, 1025, 1999, 2000)


def ref_text(n, mask, sep, labels):
    zeroed = OrthogonalSystem(n, mask).zeroed
    return sep.join(minterm_labels(zeroed, n) if labels else map(str, zeroed))


def edge_masks(n):
    """Empty, full, one bit at each block edge in range and at 2**n - 1,
    and two bits in the last decimal and the last label block only."""
    size = 1 << n
    masks = [0, (1 << size) - 1]
    masks += [1 << alpha for alpha in EDGES + (size - 1,) if alpha < size]
    for step in (1000, 1024):
        last = (size - 1) // step * step
        masks.append((1 << last) | (1 << (size - 1)))
    return masks


@pytest.mark.parametrize("labels", [False, True])
@pytest.mark.parametrize("n", range(1, 5))
def test_every_mask_up_to_four_variables(n, labels):
    size = 1 << n
    renderers = [mask_text(n, sep, labels) for sep in SEPARATORS]
    for mask in range(1 << size):
        # Every separator below 16 minterms, one in turn at 16.
        for k in range(len(SEPARATORS)) if n < 4 else (mask % len(SEPARATORS),):
            assert renderers[k](mask) == ref_text(n, mask, SEPARATORS[k], labels), (mask, k)


@pytest.mark.parametrize("labels", [False, True])
@pytest.mark.parametrize("n", range(1, HARD_MAX_VARS + 1))
def test_edge_masks(n, labels):
    renderers = [mask_text(n, sep, labels) for sep in SEPARATORS]
    for i, mask in enumerate(edge_masks(n)):
        # Every separator up to 2**12 minterms, one in turn past that.
        for k in range(len(SEPARATORS)) if n <= 12 else (i % len(SEPARATORS),):
            assert renderers[k](mask) == ref_text(n, mask, SEPARATORS[k], labels), (k, hex(mask))


@st.composite
def masks(draw):
    n = draw(st.integers(1, HARD_MAX_VARS))
    rng = draw(st.randoms(use_true_random=False))
    size = 1 << n
    # An AND of k random words sets about 2**-k of the bits; k = 0 is full.
    mask = (1 << size) - 1
    for _ in range(draw(st.integers(0, 12))):
        mask &= rng.getrandbits(size)
    return n, mask


@settings(max_examples=40, deadline=None)
@given(masks(), st.sampled_from(SEPARATORS), st.booleans())
def test_random_masks(case, sep, labels):
    n, mask = case
    assert mask_text(n, sep, labels)(mask) == ref_text(n, mask, sep, labels)


def test_labels_are_format_minterm_across_blocks():
    n = 12
    mask = sum(1 << alpha for alpha in (0, 1023, 1024, 2047, 2048, 4095))
    expected = [format_minterm(alpha, n) for alpha in OrthogonalSystem(n, mask).zeroed]
    assert mask_text(n, "|", labels=True)(mask).split("|") == expected


def test_render_text_prints_each_label_on_its_own_line():
    o = OrthogonalSystem(11, (1 << 1023) | (1 << 1024))
    assert o.render_text() == "z_(1,1,1,1,1,1,1,1,1,1,0) = 0\nz_(0,0,0,0,0,0,0,0,0,0,1) = 0"
    assert OrthogonalSystem(11, 0).render_text() == ""


# --- CLI bytes against the old renderers -------------------------------------------


def invoke(argv, stdin_text):
    cfg = config_from_args(build_parser().parse_args(argv))
    out, err = io.StringIO(), io.StringIO()
    code = run(cfg, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def ref_orthogonalize_output(o, fmt):
    out = io.StringIO()
    if fmt == "json":
        print(json.dumps(o.to_json_dict()), file=out)
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["n", "zeroed_count", "zeroed"])
        writer.writerow([o.n, o.num_zeroed, " ".join(map(str, o.zeroed))])
    elif o.num_zeroed:
        print(" = 0\n".join(minterm_labels(o.zeroed, o.n)) + " = 0", file=out)
    return out.getvalue()


def ref_decompose_output(o, rank, fmt):
    free = o.surviving
    if len(free) <= rank:
        parts = [o]
    else:
        parts = [
            OrthogonalSystem(o.n, o.zeroed_mask | sum(1 << alpha for alpha in extra))
            for extra in itertools.combinations(free, len(free) - rank)
        ]
    out = io.StringIO()
    if fmt == "json":
        payload = {
            "layout": "lsb-first",
            "n": o.n,
            "rank": rank,
            "components": [{"n": c.n, "A": list(c.zeroed)} for c in parts],
        }
        print(json.dumps(payload), file=out)
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["component", "zeroed"])
        for i, c in enumerate(parts, 1):
            writer.writerow([i, " ".join(map(str, c.zeroed))])
    else:
        for i, c in enumerate(parts, 1):
            labels = minterm_labels(c.zeroed, c.n)
            body = " = 0, ".join(labels) + " = 0" if labels else "(no forced-zero minterms)"
            print(f"component {i}: {body}", file=out)
    return out.getvalue()


BLOCK_CROSSING_NS = (10, 11, 12, 16)


def cli_masks(n):
    rng = random.Random(n)
    size = 1 << n
    edges = sum(1 << alpha for alpha in set(EDGES + (size - 1,)) if alpha < size)
    return [
        edges,
        rng.getrandbits(size),
        rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size),
        1 << (size - 1),
    ]


def as_json(o):
    return json.dumps(o.to_json_dict())


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("n", BLOCK_CROSSING_NS)
def test_orthogonalize_bytes_at_block_crossing_sizes(n, fmt):
    for mask in cli_masks(n):
        o = OrthogonalSystem(n, mask)
        code, out, err = invoke(["orthogonalize", "--format", fmt], as_json(o))
        assert (code, err) == (0, "")
        assert out == ref_orthogonalize_output(o, fmt), hex(mask)


@pytest.mark.parametrize("n", (1, 4, 11, 16))
def test_orthogonalize_text_without_forced_zeros_prints_nothing(n):
    assert invoke(["orthogonalize", "--format", "text"], as_json(OrthogonalSystem(n, 0))) == (
        0,
        "",
        "",
    )


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("n", BLOCK_CROSSING_NS)
def test_decompose_bytes_at_block_crossing_sizes(n, fmt):
    size = 1 << n
    # Survivors on both sides of the block edges (4 at n = 10, else 6)
    # split into up to C(6, 2) = 15 rank-2 components and fit one of rank 8.
    survivors = {alpha for alpha in (5, 999, 1000, 1023, 1024, size - 1) if alpha < size}
    o = OrthogonalSystem(n, ((1 << size) - 1) ^ sum(1 << alpha for alpha in survivors))
    for rank in (2, 8):
        argv = ["decompose", "--rank", str(rank), "--format", fmt]
        code, out, err = invoke(argv, as_json(o))
        assert (code, err) == (0, "")
        assert out == ref_decompose_output(o, rank, fmt), rank
