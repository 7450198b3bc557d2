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

from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from operator import add

from ._exact import Rational, _check_int, _frac, _join_signed, _term


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
        for w in self.weights:
            _check_int(w, "generator weight", 1)
        clean = {}
        n = len(self.generators)
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != n:
                raise ValueError(f"exponent vector {exps} does not match {n} generators")
            for e in exps:
                _check_int(e, "exponent", 0)
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
        is neither a rational nor a polynomial.

        A polynomial is tested first, by exact type, and a rational second.
        The two cases are disjoint, so the order changes no result; but
        `Fraction`'s metaclass is `ABCMeta`, so `isinstance(p, (int,
        Fraction))` on a polynomial p runs `ABCMeta.__instancecheck__`, and
        most operands of `+` and `-` on the Chern route are polynomials."""
        if type(other) is type(self):
            if self.generators != other.generators or self.weights != other.weights:
                raise ValueError("graded polynomials over different generators")
            return other
        if isinstance(other, (int, Fraction)):
            return self._like({(0,) * len(self.generators): _frac(other)})
        return None

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
    # grading

    def monomial_weight(self, exps: Sequence[int]) -> int:
        return sum(w * e for w, e in zip(self.weights, exps))

    def is_homogeneous(self, weight: int) -> bool:
        _check_int(weight, "weight", 0)
        return all(self.monomial_weight(e) == weight for e in self.terms)

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

    def _render(self, factor, number, times: str) -> str:
        """The signed sum of the terms: `factor(g, e)` prints g^e (e > 0),
        `number` prints |c| and `times` joins the factors and c."""
        return _join_signed([
            _term(c, times.join(factor(g, e) for g, e in zip(self.generators, exps) if e), number, times)
            for exps, c in self.sorted_terms()
        ])

    def __str__(self):
        return self._render(lambda g, e: g if e == 1 else f"{g}^{e}", str, "*")

    def __repr__(self):
        return f"GradedPoly({self.generators!r}, weights={self.weights!r}, {self!s})"

    def latex(self) -> str:
        """Render with subscripted generators and \\frac coefficients."""
        def factor(g, e):
            sym = f"{g[0]}_{{{g[1:]}}}" if g[1:] else g[0]
            return sym if e == 1 else f"{sym}^{{{e}}}"

        def number(m):
            return str(m) if m.denominator == 1 else f"\\frac{{{m.numerator}}}{{{m.denominator}}}"

        return self._render(factor, number, " ")


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
    sig = [zero, *values, *[zero] * (k_max - len(values))]  # sig[i] = s_i
    nus = []
    for j in range(1, k_max + 1):
        acc = zero
        for i in range(1, j):
            term = sig[i] * nus[j - i - 1]
            acc = acc + term if i % 2 == 1 else acc - term
        tail = sig[j] * j
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


@lru_cache(maxsize=None, typed=True)
def newton_polynomial(k: int) -> GradedPoly:
    """The k-th Newton polynomial nu_k as a graded polynomial in s1..sk,
    s_j of weight j, by the Girard-Waring formula: over the partitions of
    k, the monomial prod s_i^(r_i), with l = sum r_i, has the integer
    coefficient (-1)^(k+l) k (l-1)! / prod r_i!.  The Newton recursion run
    on the generators gives the same polynomial."""
    _check_int(k, "k", 1)
    terms = {}
    for r in _partitions(k, k):
        l = sum(r)
        c = Fraction(k * factorial(l - 1) // prod(map(factorial, r)))
        terms[tuple(r)] = c if (k + l) % 2 == 0 else -c
    # the terms are valid already, so they skip the constructor's checks
    gens = tuple(f"s{i}" for i in range(1, k + 1))
    return GradedPoly.zero(gens, range(1, k + 1))._like(terms)
