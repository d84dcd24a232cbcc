"""Set bits of masks of at most 64 bits rendered from per-byte tables.

``bits_text`` must give ``sep.join`` of the decimal indices (or of the given
names) of a mask's set bits; ``solve``'s cell texts, ``str(Element)`` and
``mask_text`` for 2**n <= 64 are built on it, and must give the bytes of
the per-atom renderers below.
"""

import csv
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from boolgeo.algebra import MAX_RANK, Element, bits_text, format_element
from boolgeo.cli import _cells
from boolgeo.ortho import OrthogonalSystem, mask_text, minterm_labels

SEPARATORS = (",", ", ", " ", " = 0\n", " = 0, ")
CELL_RANKS = (1, 7, 8, 9, 63, 64)


def set_bits(mask, width):
    return [i for i in range(width) if mask >> i & 1]


def old_format_element(e):
    return "{" + ",".join(str(i) for i in set_bits(e.mask, e.rank)) + "}"


def csv_field(text):
    field = io.StringIO()
    csv.writer(field, lineterminator="").writerow([text])
    return field.getvalue()


@st.composite
def width_masks(draw, widths=st.integers(1, MAX_RANK)):
    width = draw(widths)
    full = (1 << width) - 1
    mask = draw(st.one_of(st.just(0), st.just(full), st.integers(0, full)))
    return width, mask


def test_empty_and_full_masks_at_every_width():
    for width in range(1, MAX_RANK + 1):
        for sep in SEPARATORS:
            render = bits_text(sep, width)
            assert render(0) == ""
            assert render((1 << width) - 1) == sep.join(map(str, range(width)))


@settings(max_examples=300, deadline=None)
@given(width_masks(), st.sampled_from(SEPARATORS))
def test_bits_text_joins_the_set_bits(case, sep):
    width, mask = case
    assert bits_text(sep, width)(mask) == sep.join(map(str, set_bits(mask, width)))


@settings(max_examples=300, deadline=None)
@given(width_masks(st.sampled_from(CELL_RANKS)))
def test_cell_texts_are_the_per_atom_renderings(case):
    rank, mask = case
    e = Element(mask, rank)
    text = old_format_element(e)
    assert str(e) == format_element(e) == text
    assert _cells("text", rank)[mask] == text
    assert _cells("csv", rank)[mask] == csv_field(text)
    assert _cells("json", rank)[mask] == json.dumps(set_bits(mask, rank))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), width_masks(st.just(1 << n)))),
       st.sampled_from(SEPARATORS))  # fmt: skip
def test_mask_text_of_at_most_64_minterms(case, sep):
    n, (_, mask) = case
    zeroed = OrthogonalSystem(n, mask).zeroed
    assert mask_text(n, sep)(mask) == sep.join(map(str, zeroed))
    assert mask_text(n, sep, labels=True)(mask) == sep.join(minterm_labels(zeroed, n))
