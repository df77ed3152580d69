"""Small checked-math helpers used throughout the package.

The distributed algorithms in :mod:`repro.pblas` and :mod:`repro.parallel`
rely on exact divisibility of matrix dimensions by grid dimensions (the
paper requires e.g. the batch size to be divisible by ``d*q``).  Rather than
letting numpy produce silently-wrong block shapes, every partitioning step
funnels through :func:`check_divides`, which raises a descriptive
:class:`~repro.errors.ShapeError`.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.errors import ConfigError, ShapeError

__all__ = [
    "ceil_div",
    "check_divides",
    "check_positive",
    "is_power_of_two",
    "next_power_of_two",
    "prod",
    "divisors",
    "isqrt_exact",
]


def ceil_div(a: int, b: int) -> int:
    """Return ``ceil(a / b)`` for non-negative ``a`` and positive ``b``."""
    if b <= 0:
        raise ValueError(f"ceil_div divisor must be positive, got {b}")
    return -(-a // b)


def check_divides(divisor: int, value: int, what: str = "value") -> int:
    """Return ``value // divisor``, raising :class:`ShapeError` on remainder.

    Parameters
    ----------
    divisor:
        The partition count (e.g. grid dimension ``q`` or ``d*q``).
    value:
        The dimension being partitioned (e.g. hidden size).
    what:
        Human-readable name used in the error message.
    """
    if divisor <= 0:
        raise ShapeError(f"partition count for {what} must be positive, got {divisor}")
    if value % divisor != 0:
        raise ShapeError(
            f"{what}={value} is not divisible by {divisor}; the Tesseract "
            f"partitioning requires exact divisibility (see paper §3.1)"
        )
    return value // divisor


def check_positive(value: int, what: str = "value") -> int:
    """Validate that the configured ``value`` is a positive integer and
    return it."""
    if not isinstance(value, (int,)) or isinstance(value, bool):
        raise ConfigError(f"{what} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ConfigError(f"{what} must be positive, got {value}")
    return value


def is_power_of_two(n: int) -> bool:
    """Return True if ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    """Return the smallest power of two ``>= n`` (``n`` must be positive)."""
    if n <= 0:
        raise ValueError(f"next_power_of_two requires n > 0, got {n}")
    return 1 << (n - 1).bit_length()


def prod(values: Iterable[int]) -> int:
    """Integer product of an iterable (empty product is 1)."""
    out = 1
    for v in values:
        out *= v
    return out


def divisors(n: int) -> list[int]:
    """Return the sorted list of positive divisors of ``n``."""
    if n <= 0:
        raise ValueError(f"divisors requires n > 0, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def isqrt_exact(n: int, what: str = "value") -> int:
    """Return the exact integer square root of ``n`` or raise ShapeError."""
    if n < 0:
        raise ShapeError(f"{what}={n} must be non-negative")
    r = math.isqrt(n)
    if r * r != n:
        raise ShapeError(f"{what}={n} is not a perfect square")
    return r
