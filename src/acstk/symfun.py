"""Sparse graded polynomials over Q, the Newton recursion and the Newton
polynomials.

One polynomial type lives here.  `GradedPoly` maps exponent tuples to
rational coefficients over distinct named generators, each with a
positive integer weight (for example p_i of weight i), so homogeneous
parts are exact.  :func:`power_sums_from_values` is the Newton recursion
that turns values of the elementary symmetric functions s_1, s_2, ... of
some roots into their power sums nu_1, nu_2, ...; the Chern character is
built from it.  The Newton polynomials nu_k(s_1, ..., s_k) themselves
come in closed form from the Girard-Waring formula, and the
L-polynomials are built from their integer coefficients.  Root-variable polynomials are
the graded polynomials whose weights are all 1; the symmetric-function
helpers that build them are test oracles and live under `tests/`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from operator import add
from typing import Mapping, Optional, Sequence

from ._exact import Rational, _frac, _join_signed, _term


def _unit_exponents(generators: tuple, name: str) -> tuple:
    """The exponent tuple of the generator `name` alone."""
    if name not in generators:
        raise ValueError(f"no generator {name!r} among {generators}")
    return tuple(int(g == name) for g in generators)


class GradedPoly:
    """Sparse exact-rational polynomial in weighted generators.

    `terms` maps exponent tuples (one non-negative integer per generator)
    to nonzero Fractions.  A monomial's weight is the sum of generator
    weights times exponents, so homogeneous components are exact.
    """

    __slots__ = ("generators", "weights", "terms")

    def __init__(
        self,
        generators: Sequence[str],
        weights: Sequence[int],
        terms: Mapping[tuple, Rational],
    ):
        self.generators = tuple(generators)
        self.weights = tuple(weights)
        if len(self.generators) != len(self.weights):
            raise ValueError("one weight per generator is required")
        if len(set(self.generators)) != len(self.generators):
            raise ValueError(f"generator names must be distinct, got {self.generators}")
        if not all(isinstance(w, int) and w > 0 for w in self.weights):
            raise ValueError(f"generator weights must be positive integers, got {self.weights}")
        clean = {}
        n = len(self.generators)
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != n:
                raise ValueError(f"exponent vector {exps} does not match {n} generators")
            if not all(isinstance(e, int) and e >= 0 for e in exps):
                raise ValueError(f"exponents must be non-negative integers, got {exps}")
            c = _frac(coeff)
            if c != 0:
                clean[exps] = c
        self.terms = clean

    def _like(self, terms: dict) -> "GradedPoly":
        """A polynomial over these generators.  Every operation builds its
        result here: exponent tuples already have the right length and
        coefficients are Fractions, so only zero coefficients are
        dropped."""
        out = object.__new__(type(self))
        out.generators = self.generators
        out.weights = self.weights
        out.terms = {e: c for e, c in terms.items() if c}
        return out

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, generators, weights):
        return cls(generators, weights, {})

    @classmethod
    def constant(cls, generators, weights, value):
        return cls(generators, weights, {(0,) * len(tuple(generators)): value})

    @classmethod
    def generator(cls, generators, weights, name):
        generators = tuple(generators)
        return cls(generators, weights, {_unit_exponents(generators, name): 1})

    # ------------------------------------------------------------------
    # ring operations

    def _operand(self, other):
        """`other` as a polynomial over these generators, or None when it
        is neither a rational nor a polynomial."""
        if isinstance(other, (int, Fraction)):
            return self._like({(0,) * len(self.generators): _frac(other)})
        if type(other) is not type(self):
            return None
        if self.generators != other.generators or self.weights != other.weights:
            raise ValueError("graded polynomials over different generators")
        return other

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return self._like(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return self._like(out)

    def __neg__(self):
        return self._like({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _frac(other)
            return self._like({e: c * q for e, c in self.terms.items()})
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return self._like(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = self._like({(0,) * len(self.generators): Fraction(1)})
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.generators == other.generators
            and self.weights == other.weights
            and self.terms == other.terms
        )

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    # ------------------------------------------------------------------
    # evaluation and grading

    def evaluate(self, values) -> Fraction:
        """Evaluate at rational values (a mapping by name, or a sequence
        aligned with the generator order)."""
        if isinstance(values, Mapping):
            missing = [g for g in self.generators if g not in values]
            if missing:
                raise ValueError(f"no value for generator {missing[0]}")
            vals = [_frac(values[v]) for v in self.generators]
        else:
            vals = [_frac(v) for v in values]
            if len(vals) != len(self.generators):
                raise ValueError("wrong number of values")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(vals, exps):
                if e:
                    term *= v**e
            total += term
        return total

    def monomial_weight(self, exps: Sequence[int]) -> int:
        return sum(w * e for w, e in zip(self.weights, exps))

    def is_homogeneous(self, weight: Optional[int] = None) -> bool:
        seen = {self.monomial_weight(e) for e in self.terms}
        if not seen:
            return True
        if weight is None:
            return len(seen) == 1
        return seen == {weight}

    def truncate(self, max_weight: int) -> "GradedPoly":
        return self._like(
            {e: c for e, c in self.terms.items() if self.monomial_weight(e) <= max_weight}
        )

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def coefficient_of_generator(self, name: str) -> Fraction:
        """Coefficient of the plain degree-one monomial in one generator."""
        return self.coefficient(_unit_exponents(self.generators, name))

    # ------------------------------------------------------------------
    # display

    def sorted_terms(self):
        """Terms in canonical order: weight ascending, then
        lexicographically descending exponent tuples."""
        return sorted(
            self.terms.items(),
            key=lambda t: (self.monomial_weight(t[0]), tuple(-e for e in t[0])),
        )

    def __str__(self):
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = (g if e == 1 else f"{g}^{e}" for g, e in zip(self.generators, exps) if e)
            parts.append(_term(coeff, "*".join(factors)))
        return _join_signed(parts)

    def __repr__(self):
        return f"GradedPoly({self.generators!r}, weights={self.weights!r}, {self!s})"

    def latex(self) -> str:
        """Render with subscripted generators and \\frac coefficients."""
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(self.generators, exps):
                head = name[0]
                sub = name[1:]
                sym = f"{head}_{{{sub}}}" if sub else head
                if e == 1:
                    factors.append(sym)
                elif e > 1:
                    factors.append(f"{sym}^{{{e}}}")
            mag = abs(coeff)
            if mag.denominator == 1:
                num = "" if (mag == 1 and factors) else str(mag)
            else:
                num = f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}"
            body = (num + (" " if num and factors else "") + " ".join(factors)).strip()
            parts.append(("-" if coeff < 0 else "") + body)
        return _join_signed(parts)


# ----------------------------------------------------------------------
# the Newton recursion and the Newton polynomials


def power_sums_from_values(values: Sequence, k_max: int, zero):
    """Run the Newton recursion on concrete values of s1, s2, ... .

    nu_k = s1*nu_{k-1} - s2*nu_{k-2} + ... + (-1)^{k-1} * k * s_k, so
    substituting the elementary symmetric polynomials of some roots gives
    their power sums.  `values[i]` is the value of s_{i+1}; indices past
    the end count as zero.  Returns [nu_1, ..., nu_{k_max}].  Values only
    need +, -, * and multiplication by int, so rationals and polynomials
    both work; `zero` is the additive unit of the value ring.
    """
    def sig(i):
        return values[i - 1] if i - 1 < len(values) else zero

    nus = []
    for j in range(1, k_max + 1):
        acc = zero
        for i in range(1, j):
            term = sig(i) * nus[j - i - 1]
            acc = acc + term if i % 2 == 1 else acc - term
        tail = sig(j) * j
        acc = acc + tail if j % 2 == 1 else acc - tail
        nus.append(acc)
    return nus


def _partitions(n: int, largest: int):
    """Every partition of n into parts of size at most `largest`, as the
    list of multiplicities r_1..r_largest of the part sizes 1..largest."""
    if largest == 1:
        yield [n]
        return
    for m in range(n // largest + 1):
        for rest in _partitions(n - m * largest, largest - 1):
            yield rest + [m]


@lru_cache(maxsize=None)
def newton_polynomial(k: int) -> GradedPoly:
    """The k-th Newton polynomial nu_k as a graded polynomial in s1..sk,
    s_j of weight j, by the Girard-Waring formula: over the partitions of
    k, the monomial prod s_i^(r_i), with l = sum r_i, has the integer
    coefficient (-1)^(k+l) k (l-1)! / prod r_i!.  The Newton recursion run
    on the generators gives the same polynomial."""
    if k < 1:
        raise ValueError(f"newton polynomials are indexed from 1, got {k}")
    terms = {}
    for r in _partitions(k, k):
        l = sum(r)
        c = Fraction(k * factorial(l - 1) // prod(map(factorial, r)))
        terms[tuple(r)] = c if (k + l) % 2 == 0 else -c
    # the terms are valid already, so they skip the constructor's checks
    gens = tuple(f"s{i}" for i in range(1, k + 1))
    return GradedPoly.zero(gens, range(1, k + 1))._like(terms)
