"""Exact counting formulas, asymptotics, and the sampling model."""

import itertools
import random
from fractions import Fraction
from math import comb, pi, sqrt

import pytest

from boolgeo import (
    LimitExceededError,
    OrthogonalSystem,
    asymptotic_irr,
    avg_ir_rank,
    avg_irr_closed,
    avg_irr_exhaustive,
    irr_count,
    irreducibility_rank,
    iso_pair_asymptotic,
    iso_pair_probability,
    sample_ortho,
    sample_systems,
)
from boolgeo.stats import sample_masks


class TestAvgIrrClosed:
    def test_m4_r2(self):
        assert avg_irr_closed(4, 2) == Fraction(29, 16)

    def test_m4_r1(self):
        assert avg_irr_closed(4, 1) == Fraction(33, 16)

    def test_r_equals_m_gives_one(self):
        for m in range(1, 9):
            assert avg_irr_closed(m, m) == 1

    def test_bounds(self):
        with pytest.raises(ValueError):
            avg_irr_closed(4, 5)
        with pytest.raises(ValueError):
            avg_irr_closed(4, 0)
        with pytest.raises(ValueError):
            avg_irr_closed(0, 1)
        with pytest.raises(ValueError, match=r"^need 1 <= r <= m, got r=9, m=4$"):
            avg_irr_closed(4, 9)


class TestAvgIrrExhaustive:
    def test_m4_r2(self):
        assert avg_irr_exhaustive(2, 2) == Fraction(29, 16)

    def test_m4_r1(self):
        assert avg_irr_exhaustive(2, 1) == Fraction(33, 16)

    def test_small_space_always_irreducible(self):
        assert avg_irr_exhaustive(1, 2) == 1

    def test_independent_summation_oracle(self):
        # Average irr_count over every forced-zero subset by hand.
        total = sum(
            irr_count(OrthogonalSystem(2, mask), 2) for mask in range(16)
        )
        assert Fraction(total, 16) == Fraction(29, 16)

    @pytest.mark.parametrize("m_pow", [1, 2, 3, 4])
    def test_matches_closed_form(self, m_pow):
        m = 1 << m_pow
        for r in range(1, min(m, 4) + 1):
            assert avg_irr_exhaustive(m_pow, r) == avg_irr_closed(m, r)

    def test_limits(self):
        with pytest.raises(LimitExceededError):
            avg_irr_exhaustive(5, 2)
        with pytest.raises(ValueError):
            avg_irr_exhaustive(0, 1)


def test_binomial_identity_chain():
    # sum_{a<m-r} C(m,a)C(m-a,r) == C(m,r)(2^(m-r)-1), the step that
    # collapses the exhaustive average into the closed form.
    for m in range(1, 17):
        for r in range(1, m + 1):
            lhs = sum(comb(m, a) * comb(m - a, r) for a in range(m - r))
            assert lhs == comb(m, r) * ((1 << (m - r)) - 1)


class TestAsymptoticIrr:
    def test_direct_value(self):
        assert asymptotic_irr(4, 2) == 1.5

    def test_bounds(self):
        with pytest.raises(ValueError, match=r"^need 0 <= r <= m, got r=9, m=4$"):
            asymptotic_irr(4, 9)

    def test_ratio_converges_monotonically(self):
        ratios = []
        for m in (16, 64, 256, 1024):
            exact = avg_irr_closed(m, 2)
            ratio = exact / Fraction(comb(m, 2), 4)
            ratios.append(ratio)
            assert ratio > 1
        assert ratios == sorted(ratios, reverse=True)

    def test_ratio_within_one_percent_at_4096(self):
        ratio = avg_irr_closed(4096, 2) / Fraction(comb(4096, 2), 4)
        assert 0.99 <= float(ratio) <= 1.01


class TestAvgIrRank:
    def test_m4(self):
        assert avg_ir_rank(4) == 2

    def test_m1(self):
        assert avg_ir_rank(1) == Fraction(1, 2)

    def test_exhaustive_mean_at_m4(self):
        # Mean of the irreducibility rank over all 16 forced-zero subsets;
        # the inconsistent system contributes 0.
        total = sum(
            irreducibility_rank(OrthogonalSystem(2, mask)) for mask in range(16)
        )
        assert Fraction(total, 16) == 2

    def test_two_routes_agree_up_to_64(self):
        for m in range(1, 65):
            assert avg_ir_rank(m) == Fraction(m, 2)
            summed = Fraction(
                sum((m - a) * comb(m, a) for a in range(m + 1)), 1 << m
            )
            assert summed == Fraction(m, 2)


class TestIsoPairProbability:
    @pytest.mark.parametrize(
        "m,expected",
        [(1, Fraction(1, 2)), (2, Fraction(3, 8)), (4, Fraction(70, 256))],
    )
    def test_known_values(self, m, expected):
        assert iso_pair_probability(m) == expected

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_brute_force_pair_enumeration(self, m):
        subsets = list(range(1 << m))
        hits = sum(
            1
            for a, b in itertools.product(subsets, repeat=2)
            if bin(a).count("1") == bin(b).count("1")
        )
        assert iso_pair_probability(m) == Fraction(hits, 4**m)

    def test_vandermonde_identity(self):
        for m in range(1, 129):
            assert sum(comb(m, i) ** 2 for i in range(m + 1)) == comb(2 * m, m)

    def test_asymptotic_within_one_percent_at_1000(self):
        exact = float(iso_pair_probability(1000))
        approx = iso_pair_asymptotic(1000)
        assert 0.99 <= exact / approx <= 1.01

    def test_ratio_decreases_toward_one(self):
        ratios = [
            float(iso_pair_probability(m)) / iso_pair_asymptotic(m)
            for m in (10, 100, 1000)
        ]
        assert ratios == sorted(ratios)
        assert all(r < 1 for r in ratios)


def test_iso_pair_asymptotic_value():
    assert iso_pair_asymptotic(1) == pytest.approx(1 / sqrt(pi))


class TestSampling:
    def test_deterministic_per_seed(self):
        assert sample_ortho(3, 42) == sample_ortho(3, 42)
        assert sample_ortho(3, 42) != sample_ortho(3, 43)

    def test_stream_is_reproducible(self):
        a = list(sample_systems(2, 7, 10))
        b = list(sample_systems(2, 7, 10))
        assert a == b
        assert len(a) == 10

    def test_mean_zeroed_count(self):
        # |A| ~ Binomial(8, 1/2): mean 4, sd sqrt(2).
        n = 100_000
        total = sum(o.num_zeroed for o in sample_systems(3, 12345, n))
        mean = total / n
        sigma = sqrt(2) / sqrt(n)
        assert abs(mean - 4) <= 3 * sigma

    def test_empirical_isomorphism_rate(self):
        n = 100_000
        p = float(iso_pair_probability(8))
        stream = sample_systems(3, 2024, 2 * n)
        hits = 0
        for first in stream:
            second = next(stream)
            if first.num_zeroed == second.num_zeroed:
                hits += 1
        rate = hits / n
        sigma = sqrt(p * (1 - p) / n)
        assert abs(rate - p) <= 3 * sigma

    @pytest.mark.parametrize("m_pow, seed, count", [(1, 0, 0), (2, 7, 50), (4, 5, 20), (16, 3, 3)])
    def test_sample_masks_are_the_seeded_draws_in_order(self, m_pow, seed, count):
        rng = random.Random(seed)
        draws = [rng.getrandbits(1 << m_pow) for _ in range(count)]
        assert list(sample_masks(m_pow, seed, count)) == draws

    def test_sample_masks_checks_its_arguments_when_called(self):
        # No next(): the checks do not wait for the first draw.
        with pytest.raises(ValueError):
            sample_masks(0, 1, 5)
        with pytest.raises(LimitExceededError):
            sample_masks(17, 1, 5)
        with pytest.raises(ValueError):
            sample_masks(2, 1, -1)

    def test_limits(self):
        with pytest.raises(ValueError):
            sample_ortho(0, 1)
        with pytest.raises(LimitExceededError):
            sample_ortho(17, 1)
