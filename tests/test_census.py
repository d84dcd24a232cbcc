"""Census paths against the per-system routes they replace.

The references below are the code the statistics and decompositions ran
before they worked on masks and popcounts: identities summed with one
``comb`` call per term, exhaustive averages over one OrthogonalSystem per
mask, Monte Carlo figures read off ``sample_systems``, and decompositions
built eagerly as ``itertools.combinations`` of OrthogonalSystems and
rendered through ``json.dumps``, ``csv.writer`` and ``print``.  The new
paths must agree with them value for value and byte for byte.
"""

import csv
import functools
import hashlib
import io
import itertools
import json
import random
import time
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolgeo import (
    OrthogonalSystem,
    are_isomorphic,
    avg_ir_rank,
    avg_irr_closed,
    avg_irr_exhaustive,
    decompose,
    irr_count,
    irreducibility_rank,
    is_consistent,
    iso_pair_probability,
    sample_systems,
)
from boolgeo import cli, geometry, solve, stats
from boolgeo.cli import MAX_COMPONENTS, build_parser, config_from_args, run
from boolgeo.ortho import format_minterm

FAST = settings(max_examples=60, deadline=None)


def invoke(argv, stdin_text=""):
    cfg = config_from_args(build_parser().parse_args(argv))
    out, err = io.StringIO(), io.StringIO()
    code = run(cfg, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


# --- references -------------------------------------------------------------


def ref_avg_irr_closed(m, r):
    total = sum(comb(m, i) for i in range(r)) + (1 << (m - r)) * comb(m, r)
    return Fraction(total, 1 << m)


def ref_avg_ir_rank(m):
    return Fraction(sum((m - a) * comb(m, a) for a in range(m + 1)), 1 << m)


def ref_iso_pair_probability(m):
    return Fraction(sum(comb(m, i) ** 2 for i in range(m + 1)), 4**m)


def ref_avg_irr_exhaustive(m_pow, r):
    m = 1 << m_pow
    total = sum(irr_count(OrthogonalSystem(m_pow, mask), r) for mask in range(1 << m))
    return Fraction(total, 1 << m)


@functools.cache
def ref_zeroed_tally(m_pow):
    """How many of the 2**(2**m_pow) forced-zero masks have each popcount:
    the tally ``avg_irr_exhaustive`` once took, one ``int.bit_count`` per
    mask.  Cached, because m_pow = 4 walks 65536 masks."""
    return Counter(map(int.bit_count, range(1 << (1 << m_pow))))


def ref_avg_irr_tallied(m_pow, r):
    # One system per popcount stands for every mask with that popcount.
    tally = ref_zeroed_tally(m_pow)
    total = sum(
        systems * irr_count(OrthogonalSystem(m_pow, (1 << zeroed) - 1), r)
        for zeroed, systems in tally.items()
    )
    return Fraction(total, 1 << (1 << m_pow))


def ref_empirical(kind, m, r, samples, seed):
    m_pow = m.bit_length() - 1
    if kind == "iso-prob":
        stream = sample_systems(m_pow, seed, 2 * samples)
        hits = 0
        for first in stream:
            second = next(stream)
            if are_isomorphic(first, second):
                hits += 1
        return hits / samples
    if kind == "avg-irr":
        return sum(irr_count(o, r) for o in sample_systems(m_pow, seed, samples)) / samples
    total = sum(irreducibility_rank(o) for o in sample_systems(m_pow, seed, samples))
    return total / samples


def ref_components(o, rank):
    free = o.num_minterms - o.num_zeroed
    if free <= rank:
        return [o]
    components = []
    for extra in itertools.combinations(o.surviving, free - rank):
        mask = o.zeroed_mask
        for alpha in extra:
            mask |= 1 << alpha
        components.append(OrthogonalSystem(o.n, mask))
    return components


def ref_decompose_output(o, rank, fmt):
    parts = ref_components(o, rank)
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
            labels = [format_minterm(alpha, c.n) for alpha in c.zeroed]
            if labels:
                body = " = 0, ".join(labels) + " = 0"
            else:
                body = "(no forced-zero minterms)"
            print(f"component {i}: {body}", file=out)
    return out.getvalue()


# --- strategies -------------------------------------------------------------


@st.composite
def consistent_systems(draw, max_n=5, max_components=3000):
    """(consistent system, rank) with at most ``max_components`` parts."""
    n = draw(st.integers(1, max_n))
    size = 1 << n
    full = (1 << size) - 1
    mask = draw(st.one_of(st.just(0), st.integers(0, full)))
    if mask == full:
        mask ^= 1 << draw(st.integers(0, size - 1))
    o = OrthogonalSystem(n, mask)
    free = size - o.num_zeroed
    rank = draw(st.integers(1, 6))
    while free > rank and comb(free, rank) > max_components:
        rank += 1
    return o, rank


# --- identities ---------------------------------------------------------------


@FAST
@given(m=st.integers(1, 400), data=st.data())
def test_avg_irr_closed_matches_the_comb_sum(m, data):
    r = data.draw(st.integers(1, m))
    assert avg_irr_closed(m, r) == ref_avg_irr_closed(m, r)


@FAST
@given(m=st.integers(1, 400))
def test_avg_ir_rank_matches_the_comb_sum(m):
    assert avg_ir_rank(m) == ref_avg_ir_rank(m) == Fraction(m, 2)


@FAST
@given(m=st.integers(1, 400))
def test_iso_pair_probability_matches_the_comb_sum(m):
    assert iso_pair_probability(m) == ref_iso_pair_probability(m)


def test_closed_forms_walk_no_binomials(monkeypatch):
    # The identities are proved above; the library returns the closed
    # forms without summing a binomial row again.
    def walk(m):
        raise AssertionError(f"binomial walk over C({m}, .)")

    monkeypatch.setattr(stats, "_binomials", walk)
    for m in (1, 2, 7, 64, 400):
        assert avg_ir_rank(m) == ref_avg_ir_rank(m)
        assert iso_pair_probability(m) == ref_iso_pair_probability(m)


@pytest.mark.parametrize(
    "m_pow,r", [(m_pow, r) for m_pow in (1, 2, 3) for r in range(1, (1 << m_pow) + 1)]
)
def test_avg_irr_exhaustive_matches_per_system_enumeration(m_pow, r):
    # Every (m_pow, r) pair of m_pow 1-3: 14 cases, each over all masks.
    assert avg_irr_exhaustive(m_pow, r) == ref_avg_irr_exhaustive(m_pow, r)


@pytest.mark.parametrize("r", range(1, 17))
def test_avg_irr_exhaustive_matches_the_popcount_tally_at_m_16(r):
    # m_pow = 4 is the size stats --exhaustive is run at; every rank.
    assert avg_irr_exhaustive(4, r) == ref_avg_irr_tallied(4, r)


# --- Monte Carlo ---------------------------------------------------------------


@FAST
@given(
    kind=st.sampled_from(["avg-irr", "avg-ir", "iso-prob"]),
    m_pow=st.integers(1, 6),
    r=st.integers(1, 4),
    samples=st.integers(1, 300),
    seed=st.integers(0, 2**31),
    fmt=st.sampled_from(["text", "csv", "json"]),
)
def test_stats_samples_output_matches_the_sample_systems_route(kind, m_pow, r, samples, seed, fmt):
    m = 1 << m_pow
    r = min(r, m)
    argv = ["stats", "--format", fmt, "--samples", str(samples), "--seed", str(seed)]
    argv += ["--avg-irr", str(m), str(r)] if kind == "avg-irr" else [f"--{kind}", str(m)]
    code, out, err = invoke(argv)
    assert (code, err) == (0, "")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_empirical", ref_empirical)
        assert invoke(argv) == (0, out, "")


# --- decompositions ----------------------------------------------------------------


@FAST
@given(case=consistent_systems(), fmt=st.sampled_from(["text", "csv", "json"]))
def test_decompose_output_matches_the_reference_renderer(case, fmt):
    o, rank = case
    argv = ["decompose", "--rank", str(rank), "--format", fmt]
    code, out, err = invoke(argv, json.dumps(o.to_json_dict()))
    assert (code, err) == (0, "")
    assert out == ref_decompose_output(o, rank, fmt)


@FAST
@given(case=consistent_systems(), data=st.data())
def test_decomposition_indexing_matches_iteration(case, data):
    o, rank = case
    parts = decompose(o, rank)
    listed = list(parts)
    assert listed == ref_components(o, rank)
    assert len(parts) == len(listed) == irr_count(o, rank)
    assert list(parts.masks()) == [c.zeroed_mask for c in listed]
    k = data.draw(st.integers(-len(listed), len(listed) - 1))
    assert parts[k] == listed[k]
    with pytest.raises(IndexError):
        parts[len(listed)]
    with pytest.raises(IndexError):
        parts[-len(listed) - 1]


def test_decomposition_slices_and_equality():
    o = OrthogonalSystem.from_indices(3, [0, 5])
    parts = decompose(o, 2)
    listed = list(parts)
    assert parts[1:5] == tuple(listed[1:5])
    assert parts[::-7] == tuple(listed[::-7])
    assert parts.components == tuple(listed)
    assert parts == decompose(o, 2) and hash(parts) == hash(decompose(o, 2))
    assert parts != decompose(o, 3)
    assert all(is_consistent(c) for c in parts)


def test_wide_components_are_built_from_their_indices():
    # Past 64 minterms masks are not summed from a bit table; 7 variables
    # with 4 survivors at rank 2 give C(4, 2) = 6 components.
    survivors = (3, 40, 77, 127)
    o = OrthogonalSystem(7, ((1 << 128) - 1) ^ sum(1 << a for a in survivors))
    parts = decompose(o, 2)
    assert list(parts) == ref_components(o, 2)
    assert [parts[k] for k in range(-6, 6)] == ref_components(o, 2) * 2


# --- budgets -------------------------------------------------------------------------


TAUTOLOGY_16 = json.dumps({"n": 16, "A": [], "layout": "lsb-first"})
TAUTOLOGY_5 = json.dumps({"n": 5, "A": [], "layout": "lsb-first"})


@pytest.mark.parametrize("flag", ["--avg-ir", "--iso-prob"])
def test_stats_identities_at_m_20000_within_budget(flag):
    # Both are closed forms: --avg-ir's m/2, and --iso-prob's comb(40000,
    # 20000) and 4**20000, reduced, with the decimal text of both parts.
    # About 0.02-0.04 s on a 2-vCPU machine; the budget catches a return
    # of the binomial-row walk (1.3 s) that once re-proved each identity.
    start = time.perf_counter()
    code, out, err = invoke(["stats", flag, "20000"])
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    if flag == "--avg-ir":
        assert out == "10000 (10000.0)\n"
    else:
        # Both parts pass the default int-to-str digit cap, so the
        # expected text is written through Decimal as well.
        exact = Fraction(comb(40000, 20000), 4**20000)
        assert out == f"{Decimal(exact.numerator)}/{Decimal(exact.denominator)} ({float(exact)})\n"
    assert elapsed < 1.0, f"{flag} 20000 took {elapsed:.2f}s"


def test_sixteen_variable_tautology_decomposes_lazily():
    o = OrthogonalSystem(16, 0)
    start = time.perf_counter()
    parts = decompose(o, 3)
    count = len(parts)
    first = parts[0]
    last = parts[-1]
    elapsed = time.perf_counter() - start
    assert count == comb(65536, 3)
    assert first.surviving == (65533, 65534, 65535)
    assert last.surviving == (0, 1, 2)
    assert next(iter(parts)) == first
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


@pytest.mark.parametrize(
    "argv,stdin_text,count",
    [
        (["decompose", "--rank", "3"], TAUTOLOGY_16, comb(65536, 3)),
        (["decompose", "--rank", "8", "--format", "json"], TAUTOLOGY_5, comb(32, 8)),
    ],
)
def test_decompose_past_the_component_cap_exits_2(argv, stdin_text, count):
    assert count > MAX_COMPONENTS
    start = time.perf_counter()
    code, out, err = invoke(argv, stdin_text)
    elapsed = time.perf_counter() - start
    assert (code, out) == (2, "")
    assert err.startswith("error:") and str(count) in err
    assert elapsed < 1.0, f"{argv} took {elapsed:.2f}s"


def stats_m_limit(kind):
    return isqrt(cli.MAX_STATS_COST // cli._STATS_COST_PER_M2[kind])


@pytest.mark.parametrize(
    "argv,kind,m",
    [
        # --avg-ir has no cost limit (test_stats_avg_ir_has_no_cost_limit).
        (["stats", "--avg-ir", "200000", "--iso-prob", "50001"], "iso-prob", 50001),
        (["stats", "--iso-prob", "50000"], "iso-prob", 50000),
        (["stats", "--iso-prob", "4,80000", "--format", "json"], "iso-prob", 80000),
        (["stats", "--iso-prob", "8,25001", "--samples", "10", "--format", "csv"], "iso-prob", 25001),
        (["stats", "--avg-irr", "4", "2", "--iso-prob", str(10**9)], "iso-prob", 10**9),
    ],
)
def test_stats_past_the_cost_limit_exits_2(argv, kind, m):
    start = time.perf_counter()
    code, out, err = invoke(argv)
    elapsed = time.perf_counter() - start
    assert (code, out) == (2, "")
    assert err.startswith("error:") and f"--{kind} m={m}" in err
    assert str(stats_m_limit(kind)) in err
    assert elapsed < 1.0, f"{argv} took {elapsed:.2f}s"


def test_stats_at_the_cost_limit_is_refused_one_past_it():
    m = stats_m_limit("iso-prob")
    assert cli._STATS_COST_PER_M2["iso-prob"] * m * m <= cli.MAX_STATS_COST
    code, out, _ = invoke(["stats", "--iso-prob", str(m + 1)])
    assert (code, out) == (2, "")
    # --avg-ir's m/2 is priced at nothing: one past its old limit is answered.
    code, out, _ = invoke(["stats", "--avg-ir", "70711"])
    assert (code, out) == (0, "70711/2 (35355.5)\n")


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["--avg-ir", "200000"], "100000 (100000.0)\n"),
        (["--avg-ir", "4,80000", "--format", "json"],
         '{"results": [{"kind": "avg-ir", "m": 4, "exact": "2", "approx": 2.0}, '
         '{"kind": "avg-ir", "m": 80000, "exact": "40000", "approx": 40000.0}]}\n'),
        (["--avg-ir", str(10**300)], f"{10**300 // 2} (5e+299)\n"),
    ],
    ids=["avg-ir-200000", "avg-ir-80000-json", "avg-ir-10e300"],
)  # fmt: skip
def test_stats_avg_ir_has_no_cost_limit(argv, expected):
    start = time.perf_counter()
    code, out, err = invoke(["stats", *argv])
    elapsed = time.perf_counter() - start
    assert (code, out, err) == (0, expected, "")
    assert elapsed < 1.0, f"{argv} took {elapsed:.2f}s"


def test_decompose_below_the_component_cap_is_written():
    # C(20, 4) = 4845 components fit; the cap applies only past 10**6.
    o = OrthogonalSystem.from_indices(5, range(12))
    argv = ["decompose", "--rank", "4", "--format", "csv"]
    code, out, _ = invoke(argv, json.dumps(o.to_json_dict()))
    assert code == 0
    assert out.count("\n") == 1 + comb(20, 4)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_stats_exact_values_past_the_int_digit_cap(fmt):
    # C(15000, 7500) / 4**7500 reduces to two integers of about 4500
    # digits each, past the default cap of 4300 on int-to-str conversion.
    exact = Fraction(comb(15000, 7500), 4**7500)
    text = f"{Decimal(exact.numerator)}/{Decimal(exact.denominator)}"
    assert len(text) > 2 * 4300
    code, out, err = invoke(["stats", "--iso-prob", "7500", "--format", fmt])
    assert (code, err) == (0, "")
    if fmt == "json":
        assert json.loads(out)["results"][0]["exact"] == text
    else:
        assert out.splitlines()[1] == f"iso-prob,7500,,{text},{float(exact)},,,"


def stats_text(argv):
    code, out, err = invoke(argv)
    assert (code, err) == (0, "")
    return out


def test_stats_avg_irr_small_m_is_written_as_before():
    argv = ["stats", "--avg-irr", "4", "2", "--format"]
    assert stats_text(argv + ["text"]) == "29/16 (1.8125)\n"
    assert stats_text(argv + ["json"]) == (
        '{"results": [{"kind": "avg-irr", "m": 4, "exact": "29/16", "approx": 1.8125, "r": 2}]}\n'
    )
    assert stats_text(argv + ["csv"]) == (
        "kind,m,r,exact,approx,samples,seed,empirical\navg-irr,4,2,29/16,1.8125,,,\n"
    )


def test_stats_avg_irr_4096_matches_the_comb_sum():
    exact = ref_avg_irr_closed(4096, 2)
    text = f"{Decimal(exact.numerator)}/{Decimal(exact.denominator)}"
    argv = ["stats", "--avg-irr", "4096", "2", "--format"]
    assert stats_text(argv + ["text"]) == f"{text} ({float(exact)})\n"
    assert json.loads(stats_text(argv + ["json"]))["results"][0]["exact"] == text
    assert stats_text(argv + ["csv"]).splitlines()[1] == f"avg-irr,4096,2,{text},{float(exact)},,,"


# Sizes and digests of the output for m = 10**6, as written when each
# integer went through one Decimal(int) conversion (about 3.6 s per format).
AVG_IRR_MILLION = {
    "text": (602091, "bc4519de8331df3cc7433a82fcfc567c2b26f17f92ba3517409f037401a2b73c"),
    "json": (602169, "c9940d410dc425c4f17720c6375e55efd3613f544f1f726815eb974cf44af347"),
    "csv": (602155, "d70bfcd0c7aa9bc3efb9204ca9e501c1f74f2b3c281c7ce12bee68f2d8a2a414"),
}


@pytest.mark.parametrize("fmt", sorted(AVG_IRR_MILLION))
def test_stats_avg_irr_million_is_written_as_before(fmt):
    out = stats_text(["stats", "--avg-irr", "1000000", "2", "--format", fmt])
    assert (len(out), hashlib.sha256(out.encode()).hexdigest()) == AVG_IRR_MILLION[fmt]


@pytest.mark.parametrize("bits", [1, 16383, 16384, 16385, 100003])
def test_exact_decimal_matches_one_conversion(bits):
    rng = random.Random(bits)
    for n in (1 << (bits - 1), rng.getrandbits(bits), (1 << bits) - 1):
        assert str(cli._decimal(n)) == str(Decimal(n))


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_stats_avg_irr_past_float_range_exits_2(fmt):
    # The exact average is about 10**750; its float approximation used to
    # raise OverflowError, a traceback with exit 1.
    code, out, err = invoke(["stats", "--avg-irr", "5000", "2500", "--format", fmt])
    assert (code, out) == (2, "")
    assert err == "error: --avg-irr m=5000 r=2500: the exact value is past float range\n"


def avg_irr_m_limit(r):
    return cli.MAX_STATS_COST // (r + cli._AVG_IRR_TEXT_COST)


@pytest.mark.parametrize(
    "argv,m,r",
    [
        (["stats", "--avg-irr", "100000", "50000"], 100000, 50000),
        (["stats", "--avg-irr", str(10**7), "2", "--format", "json"], 10**7, 2),
        (["stats", "--avg-irr", "4,1000000", "5000", "--format", "csv"], 1000000, 5000),
        (["stats", "--avg-irr", str(avg_irr_m_limit(3) + 1), "3"], avg_irr_m_limit(3) + 1, 3),
    ],
)
def test_stats_avg_irr_past_the_cost_limit_exits_2(argv, m, r):
    start = time.perf_counter()
    code, out, err = invoke(argv)
    elapsed = time.perf_counter() - start
    assert (code, out) == (2, "")
    assert err == f"error: --avg-irr m={m} r={r} exceeds the limit m <= {avg_irr_m_limit(r)}\n"
    assert elapsed < 1.0, f"{argv} took {elapsed:.2f}s"


@pytest.mark.parametrize("m,r,code,out", [(20000, 20000, 0, "1 (1.0)\n"), (40000, 20000, 2, "")])
def test_stats_avg_irr_walk_within_budget(m, r, code, out):
    # About 0.1 s and 0.2 s on a 2-vCPU machine; one comb call per term ran
    # past 40 s for m=40000 r=20000.
    start = time.perf_counter()
    assert invoke(["stats", "--avg-irr", str(m), str(r)])[:2] == (code, out)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"--avg-irr {m} {r} took {elapsed:.2f}s"


def samples_limit(kind, m):
    draws = 2 if kind == "iso-prob" else 1
    return cli.MAX_STATS_COST // (draws * (m + cli._DRAW_COST))


@pytest.mark.parametrize(
    "flags,kind,m,n",
    [
        (["--avg-ir", "65536"], "avg-ir", 65536, samples_limit("avg-ir", 65536) + 1),
        (["--iso-prob", "16384"], "iso-prob", 16384, samples_limit("iso-prob", 16384) + 1),
        (["--avg-irr", "4", "2"], "avg-irr", 4, samples_limit("avg-irr", 4) + 1),
        (["--avg-ir", "4,65536", "--format", "json"], "avg-ir", 65536, samples_limit("avg-ir", 65536) + 1),
        # 10**8 draws of 65536 bits would run for hours.
        (["--avg-ir", "65536"], "avg-ir", 65536, 10**8),
    ],
)
def test_stats_samples_past_the_limit_exits_2(flags, kind, m, n):
    label = f"--{kind} m={m}" + (" r=2" if kind == "avg-irr" else "")
    start = time.perf_counter()
    code, out, err = invoke(["stats", *flags, "--samples", str(n)])
    elapsed = time.perf_counter() - start
    assert (code, out) == (2, "")
    assert err == f"error: --samples {n} for {label} exceeds the limit N <= {samples_limit(kind, m)}\n"
    assert elapsed < 1.0, f"{flags} took {elapsed:.2f}s"


@pytest.mark.parametrize("kind", ["avg-ir", "iso-prob"])
def test_stats_samples_at_the_limit_are_drawn(kind):
    # The sampler is replaced, so a run at the limit (about 2 s) is not paid here.
    calls = []

    def record(kind, m, r, samples, seed):
        calls.append((kind, m, samples))
        return 0.5

    n = samples_limit(kind, 64)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_empirical", record)
        code, out, err = invoke(["stats", f"--{kind}", "64", "--samples", str(n), "--format", "csv"])
    assert (code, err) == (0, "")
    assert calls == [(kind, 64, n)]
    assert out.splitlines()[1].endswith(f",{n},0,0.5")


def test_stats_samples_of_the_benchmark_census_are_admitted():
    # Its sample requests draw at most 2100 samples at m <= 1024.
    for flags in (["--avg-ir", "1024"], ["--iso-prob", "1024"], ["--avg-irr", "1024", "64"]):
        code, _, err = invoke(["stats", *flags, "--samples", "2100"])
        assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "argv,flag,m",
    [
        (["--avg-ir", "70000", "--samples", "10"], "--samples", 70000),
        (["--iso-prob", "24000", "--samples", "10"], "--samples", 24000),
        # The first job's exact value would be paid before the second's check.
        (["--avg-ir", "65536,70000", "--samples", "10"], "--samples", 70000),
        (["--avg-irr", "16,24", "2", "--exhaustive"], "--exhaustive", 24),
    ],
)
def test_stats_m_not_a_power_of_two_exits_4_before_any_exact_value(argv, flag, m):
    # The exact values cost about 1.5 s each before their checks moved up.
    start = time.perf_counter()
    code, out, err = invoke(["stats", *argv])
    elapsed = time.perf_counter() - start
    assert (code, out) == (4, "")
    assert err == f"error: {flag} needs m to be a power of two >= 2, got {m}\n"
    assert elapsed < 0.5, f"{argv} took {elapsed:.2f}s"


def test_stats_limit_error_wins_over_a_power_of_two_error():
    code, out, err = invoke(["stats", "--iso-prob", "80000", "--samples", "10"])
    assert (code, out) == (2, "")
    assert err == f"error: --iso-prob m=80000 exceeds the limit m <= {stats_m_limit('iso-prob')}\n"


# --- decompositions at census sizes, group by group ------------------------------------


def planted(n, survivors):
    size = 1 << n
    return OrthogonalSystem(n, ((1 << size) - 1) ^ sum(1 << alpha for alpha in survivors))


def sampled(n, s, seed):
    return planted(n, random.Random(seed).sample(range(1 << n), s))


# (system, rank): C(s, r) from 105 to 2380.  The census shapes; forced zeros
# all above or all below the survivors, so that the head or the tail region
# of a component holds no forced zero; no forced zeros at all; and 2048- and
# 4096-minterm systems, whose tail table is held to a few entries.
SPLIT_CASES = {
    "census-4-12-4": (sampled(4, 12, 1), 4),
    "census-4-14-5": (sampled(4, 14, 2), 5),
    "census-4-13-3": (sampled(4, 13, 3), 3),
    "census-4-15-2": (sampled(4, 15, 4), 2),
    "census-5-16-3": (sampled(5, 16, 5), 3),
    "census-5-18-2": (sampled(5, 18, 6), 2),
    "census-5-17-4": (sampled(5, 17, 7), 4),
    "zeros-above-4-12-8": (planted(4, range(12)), 8),
    "zeros-above-5-14-9": (planted(5, range(14)), 9),
    "zeros-below-4-12-8": (planted(4, range(4, 16)), 8),
    "zeros-below-5-13-7": (planted(5, range(19, 32)), 7),
    "no-zeros-4-r3": (OrthogonalSystem(4, 0), 3),
    "no-zeros-4-r12": (OrthogonalSystem(4, 0), 12),
    "n11-16-14": (sampled(11, 16, 8), 14),
    "n12-15-13": (sampled(12, 15, 9), 13),
}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("case", SPLIT_CASES.values(), ids=SPLIT_CASES)
def test_decompose_bytes_at_census_sizes(case, fmt):
    o, rank = case
    assert 100 <= irr_count(o, rank) <= 3000
    argv = ["decompose", "--rank", str(rank), "--format", fmt]
    code, out, err = invoke(argv, json.dumps(o.to_json_dict()))
    assert (code, err) == (0, "")
    assert out == ref_decompose_output(o, rank, fmt)


@pytest.mark.parametrize("case", SPLIT_CASES.values(), ids=SPLIT_CASES)
def test_decomposition_masks_and_indexing_at_census_sizes(case):
    o, rank = case
    parts = decompose(o, rank)
    expected = ref_components(o, rank)
    assert list(parts.masks()) == [c.zeroed_mask for c in expected]
    picks = random.Random(rank).sample(range(len(expected)), 20) + [0, len(expected) - 1]
    assert [parts[k] for k in picks] == [expected[k] for k in picks]
    assert [parts[k - len(expected)] for k in picks] == [expected[k] for k in picks]


def table_entries(parts):
    tails, _ = parts.split()
    return sum(map(len, tails.values()))


@pytest.mark.parametrize("s", range(1, 11))
def test_split_at_every_tail_size_gives_combination_order(s):
    # Every k and every tail size t, forced past the choice split() makes.
    o = sampled(4, s, s)
    for rank in range(1, s + 1):
        expected = [c.zeroed_mask for c in ref_components(o, rank)]
        for t in range(s + 1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(geometry, "_tail_size", lambda *args: t)
                assert list(decompose(o, rank).masks()) == expected, (rank, t)


@pytest.mark.parametrize("case", SPLIT_CASES.values(), ids=SPLIT_CASES)
def test_split_renders_fewer_masks_under_the_cell_cap(case):
    o, rank = case
    parts = decompose(o, rank)
    tails, heads = parts.split()
    entries = sum(map(len, tails.values()))
    assert entries + sum(1 for _ in heads) < len(parts)
    assert entries << o.n <= solve._TAIL_TABLE_CELLS


def test_split_cases_reach_an_empty_head_and_an_empty_tail_region():
    for name in ("zeros-above-4-12-8", "zeros-above-5-14-9", "no-zeros-4-r12"):
        _, heads = decompose(*SPLIT_CASES[name]).split()
        assert 0 in (head for head, _ in heads), name
    for name in ("zeros-below-4-12-8", "zeros-below-5-13-7", "no-zeros-4-r12"):
        tails, _ = decompose(*SPLIT_CASES[name]).split()
        assert tails[0] == [0], name


@pytest.mark.parametrize("name", ["n11-16-14", "n12-15-13"])
def test_cell_cap_holds_the_table_of_wide_minterm_spaces(name):
    parts = decompose(*SPLIT_CASES[name])
    capped = table_entries(parts)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solve, "_TAIL_TABLE_CELLS", 1 << 40)
        assert table_entries(parts) > capped > 1


@pytest.mark.parametrize("n", range(10, 17))
def test_wide_decompositions_render_one_head_per_component(n):
    # Survivors at the block edges split into 1-3 components, as the wide
    # benchmark's do.  Past 13 variables two entries of 2**n cells pass the
    # cap, so the table holds the empty tail only and each head is a
    # component; below, the table may hold a few entries.
    size = 1 << n
    cases = (((5, size - 1), 2), ((5, size - 1), 1), ((0, 999, size - 1), 2), ((3, 1000, size - 2), 1))
    for survivors, rank in cases:
        parts = decompose(planted(n, survivors), rank)
        tails, heads = parts.split()
        expected = [c.zeroed_mask for c in ref_components(parts.system, rank)]
        if n >= 14:
            assert tails == {0: [0]}
            assert [head for head, _ in heads] == expected
        else:
            assert sum(map(len, tails.values())) << n <= solve._TAIL_TABLE_CELLS
        assert list(parts.masks()) == expected
