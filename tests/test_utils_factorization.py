"""Tests for repro.utils.factorization."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HierarchyError
from repro.utils.factorization import divisors, ordered_factorizations


def prime_exponents(n: int):
    """The exponents of ``n``'s prime factorization, by trial division."""
    exponents, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            exponents.append(e)
        p += 1
    return exponents + ([1] if n > 1 else [])


def count_ordered_factorizations(n: int, k: int) -> int:
    """Stars and bars per prime: ``n = prod p^e`` has ``prod C(e + k - 1, k - 1)``."""
    return math.prod(math.comb(e + k - 1, k - 1) for e in prime_exponents(n))


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
