"""Tests for repro.util.mathutil."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError, ShapeError
from repro.util.mathutil import (
    ceil_div,
    check_divides,
    check_positive,
    divisors,
    is_power_of_two,
    isqrt_exact,
    next_power_of_two,
    prod,
)


class TestCeilDiv:
    def test_exact(self):
        assert ceil_div(12, 4) == 3

    def test_rounds_up(self):
        assert ceil_div(13, 4) == 4

    def test_zero_numerator(self):
        assert ceil_div(0, 5) == 0

    def test_one(self):
        assert ceil_div(1, 5) == 1

    def test_rejects_nonpositive_divisor(self):
        with pytest.raises(ValueError):
            ceil_div(5, 0)

    @given(st.integers(0, 10**9), st.integers(1, 10**6))
    def test_matches_definition(self, a, b):
        assert ceil_div(a, b) == -(-a // b)


class TestCheckDivides:
    def test_returns_quotient(self):
        assert check_divides(4, 12) == 3

    def test_raises_on_remainder(self):
        with pytest.raises(ShapeError, match="not divisible"):
            check_divides(5, 12)

    def test_error_names_the_quantity(self):
        with pytest.raises(ShapeError, match="hidden"):
            check_divides(5, 12, "hidden")

    def test_rejects_zero_divisor(self):
        with pytest.raises(ShapeError):
            check_divides(0, 12)

    def test_rejects_negative_divisor(self):
        with pytest.raises(ShapeError):
            check_divides(-2, 12)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(3) == 3

    def test_rejects_zero(self):
        with pytest.raises(ConfigError):
            check_positive(0)

    def test_rejects_bool(self):
        with pytest.raises(ConfigError):
            check_positive(True)

    def test_rejects_float(self):
        with pytest.raises(ConfigError):
            check_positive(2.0)  # type: ignore[arg-type]


class TestPowersOfTwo:
    def test_is_power_of_two_true(self):
        for n in (1, 2, 4, 1024):
            assert is_power_of_two(n)

    def test_is_power_of_two_false(self):
        for n in (0, 3, 6, -4):
            assert not is_power_of_two(n)

    def test_next_power_of_two(self):
        assert next_power_of_two(1) == 1
        assert next_power_of_two(3) == 4
        assert next_power_of_two(16) == 16
        assert next_power_of_two(17) == 32

    def test_next_power_of_two_rejects_zero(self):
        with pytest.raises(ValueError):
            next_power_of_two(0)

    @given(st.integers(1, 2**30))
    def test_next_power_bounds(self, n):
        p = next_power_of_two(n)
        assert is_power_of_two(p)
        assert p >= n
        assert p < 2 * n


class TestProd:
    def test_empty_is_one(self):
        assert prod([]) == 1

    def test_product(self):
        assert prod([2, 3, 4]) == 24

    def test_with_zero(self):
        assert prod([5, 0, 7]) == 0


class TestDivisors:
    def test_one(self):
        assert divisors(1) == [1]

    def test_perfect_square(self):
        assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]

    def test_prime(self):
        assert divisors(13) == [1, 13]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            divisors(0)

    @given(st.integers(1, 5000))
    def test_all_divide(self, n):
        ds = divisors(n)
        assert all(n % d == 0 for d in ds)
        assert ds == sorted(set(ds))


class TestIsqrtExact:
    def test_square(self):
        assert isqrt_exact(49) == 7

    def test_zero(self):
        assert isqrt_exact(0) == 0

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError, match="perfect square"):
            isqrt_exact(50)

    def test_rejects_negative(self):
        with pytest.raises(ShapeError):
            isqrt_exact(-4)
