"""Exact numbers, as every layer takes, stores and prints them: one rule
for what counts as a coefficient, one for an integer argument, one common
denominator for a vector of rationals, and one printer for a signed sum of
terms."""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

Rational = int | Fraction

#: Largest magnitude of the decimal exponent of a coefficient string:
#: `Fraction("1e-99999999")` builds 10^99999999 before it returns.  4300 is
#: Python's default limit on the digits of an int string.
_EXPONENT_MAX = 4300

_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*$")


def _frac(x) -> Fraction:
    """The exact rational an int, a Fraction or a string such as "-3/4"
    names.  A float is refused: it holds a binary approximation (0.1 is
    3602879701896397/36028797018963968), not the rational it was written as.
    So is a bool (an int subclass that names a flag, not a number) and a
    decimal exponent above `_EXPONENT_MAX` in absolute value
    (`_exponent_exceeds`).  Every other type raises `TypeError`:
    `Fraction` would expand a `Decimal`'s exponent unchecked."""
    if isinstance(x, (float, bool)):
        raise TypeError(f"coefficients must be exact rationals, got the {type(x).__name__} {x!r}")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if not isinstance(x, str):
        raise TypeError(f"coefficients must be an int, a Fraction or a string, got the {type(x).__name__} {x!r}")
    if _exponent_exceeds(x, _EXPONENT_MAX):
        raise ValueError(f"a decimal exponent may be at most {_EXPONENT_MAX} in absolute value")
    return Fraction(x)


def _check_int(value, noun: str, low: int | None, high: int | None = None) -> None:
    """Refuse an integer argument (a dimension, level, index, count or
    seed) that is not an int, or is a bool, with `TypeError`: a bool or a
    float would be stored, and print, as itself, and a string fails inside
    the arithmetic.  A value below `low` or above `high` raises
    `ValueError`; a bound of None is no bound."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{noun} must be an int, got the {type(value).__name__} {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{noun} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{noun} must be at most {high}, got {value}")


def _exponent_exceeds(text: str, cap: int) -> bool:
    """Whether `text` ends in a decimal exponent above `cap` in absolute
    value.  The exponent's digit count decides first, so int() never
    parses a long exponent."""
    match = _EXPONENT.search(text)
    if not match:
        return False
    digits = match[1].replace("_", "").lstrip("+-0")
    return len(digits) > len(str(cap)) or int(digits or 0) > cap


def _over_common_denominator(pairs) -> tuple[list[int], int]:
    """Integer numerators n_i and one denominator d with
    n_i/d = pairs[i][0]/pairs[i][1] (every pairs[i][1] > 0).

    For reduced pairs, d = lcm of the denominators is already in lowest
    terms with the n_i: if p^e is the highest power of a prime p dividing
    d, then p^e divides some denominator d_i, and p divides neither d/d_i
    nor that pair's numerator.  Unreduced pairs need one more reduction.
    """
    den = lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def _term(c: Fraction, name: str, number=str, times: str = "*") -> str:
    """The term c times `name`, where the name "" stands for 1: "c",
    "name", "-name" or "c*name".  The sign comes first, `number` prints |c|
    and `times` joins it to the name."""
    sign = "-" if c < 0 else ""
    if not name:
        return sign + number(abs(c))
    return sign + (name if abs(c) == 1 else f"{number(abs(c))}{times}{name}")


def _join_signed(parts: list[str]) -> str:
    """Join rendered terms with ' + ' / ' - '; the empty sum is '0'."""
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out
