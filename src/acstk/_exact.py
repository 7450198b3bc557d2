"""Exact rationals, as every layer takes, stores and prints them: one rule
for what counts as a coefficient, one common denominator for a vector of
them, and one printer for a signed sum of terms."""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Union

Rational = Union[int, Fraction]

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


def _term(c: Fraction, name: str) -> str:
    """The term c times `name`, where the name "" stands for 1: "c",
    "name", "-name" or "c*name"."""
    if not name:
        return str(c)
    return name if c == 1 else f"-{name}" if c == -1 else f"{c}*{name}"


def _join_signed(parts: list[str]) -> str:
    """Join rendered terms with ' + ' / ' - '; the empty sum is '0'."""
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out
