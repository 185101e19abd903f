"""Tests for repro.utils.factorization."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HierarchyError
from repro.utils.factorization import (
    divisors,
    ordered_factorizations,
    prime_factorization,
)


def count_ordered_factorizations(n: int, k: int) -> int:
    """Stars and bars per prime: ``n = prod p^e`` has ``prod C(e + k - 1, k - 1)``."""
    return math.prod(math.comb(e + k - 1, k - 1) for e in prime_factorization(n).values())


class TestPrimeFactorization:
    def test_one_has_no_factors(self):
        assert prime_factorization(1) == {}

    def test_prime(self):
        assert prime_factorization(13) == {13: 1}

    def test_composite(self):
        assert prime_factorization(360) == {2: 3, 3: 2, 5: 1}

    def test_power_of_two(self):
        assert prime_factorization(64) == {2: 6}

    def test_rejects_zero_and_negative(self):
        with pytest.raises(HierarchyError):
            prime_factorization(0)
        with pytest.raises(HierarchyError):
            prime_factorization(-4)

    @given(st.integers(min_value=1, max_value=10_000))
    def test_product_of_factors_reconstructs_n(self, n):
        factors = prime_factorization(n)
        product = 1
        for p, e in factors.items():
            product *= p**e
        assert product == n


class TestDivisors:
    def test_one(self):
        assert divisors(1) == (1,)

    def test_twelve(self):
        assert divisors(12) == (1, 2, 3, 4, 6, 12)

    def test_prime(self):
        assert divisors(17) == (1, 17)

    def test_rejects_non_positive(self):
        with pytest.raises(HierarchyError):
            divisors(0)

    @given(st.integers(min_value=1, max_value=2_000))
    def test_every_divisor_divides(self, n):
        ds = divisors(n)
        assert all(n % d == 0 for d in ds)
        assert ds[0] == 1 and ds[-1] == n
        assert list(ds) == sorted(set(ds))


class TestOrderedFactorizations:
    def test_single_factor(self):
        assert list(ordered_factorizations(6, 1)) == [(6,)]

    def test_two_factors_of_four(self):
        assert sorted(ordered_factorizations(4, 2)) == [(1, 4), (2, 2), (4, 1)]

    def test_known_counts(self):
        assert len(list(ordered_factorizations(12, 2))) == 6
        assert len(list(ordered_factorizations(8, 3))) == 10  # C(3 + 2, 2)
        assert len(list(ordered_factorizations(1, 5))) == 1

    def test_order_matters(self):
        results = set(ordered_factorizations(6, 2))
        assert (2, 3) in results and (3, 2) in results

    def test_zero_factors(self):
        assert list(ordered_factorizations(1, 0)) == [()]
        assert list(ordered_factorizations(2, 0)) == []

    def test_factorizing_one(self):
        assert list(ordered_factorizations(1, 3)) == [(1, 1, 1)]

    def test_rejects_bad_arguments(self):
        with pytest.raises(HierarchyError):
            list(ordered_factorizations(0, 2))
        with pytest.raises(HierarchyError):
            list(ordered_factorizations(4, -1))

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=4))
    @settings(max_examples=60)
    def test_products_and_count_match_formula(self, n, k):
        factorizations = list(ordered_factorizations(n, k))
        assert all(math.prod(f) == n for f in factorizations)
        assert len(set(factorizations)) == len(factorizations)
        assert len(factorizations) == count_ordered_factorizations(n, k)
