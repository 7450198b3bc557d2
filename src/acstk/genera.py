"""Bernoulli numbers, the coefficients of the signature Q-series and of the
s_k series, L-polynomials, their leading coefficients s_k, and the Chern
character.

The Bernoulli numbers come from Brent and Harvey's integer triangle of
tangent numbers (arXiv:1108.0286), the Q-series from them in closed form.  The
L-polynomials are Hirzebruch's multiplicative sequence of Q, built
directly in the Pontryagin classes p_1..p_k from log Q and the Newton
polynomials, one weight at a time on integer numerators, and each one is
checked against the signature theorem on CP^{2k}.

Bernoulli indexing note: throughout this module B_k means the k-th member
of the classical *positive* sequence B_1 = 1/6, B_2 = 1/30, B_3 = 1/42,
..., i.e. B_k here equals |B_{2k}| in the modern even-index convention.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import lshift
from typing import Sequence

from .errors import InternalInvariantError
from .symfun import GradedPoly, Rational, _frac, _join_signed, newton_polynomial, power_sums_from_values


class PowerSeries:
    """The coefficients of a univariate formal power series up to a fixed
    order: `coeffs[k]` is the coefficient of z^k for k = 0..order, and
    nothing beyond that window is known.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Sequence[Rational], order: int | None = None):
        coeffs = [_frac(c) for c in coeffs]
        if order is None:
            if not coeffs:
                raise ValueError("a series needs at least its constant term")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        coeffs = coeffs[: order + 1]
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        self.order = order
        self.coeffs = tuple(coeffs)

    def coefficient(self, k: int) -> Fraction:
        if k < 0:
            raise ValueError(f"coefficient index must be non-negative, got {k}")
        if k > self.order:
            raise ValueError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def __eq__(self, other):
        return (
            isinstance(other, PowerSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                z = "z" if k == 1 else f"z^{k}"
                if c == 1:
                    parts.append(z)
                elif c == -1:
                    parts.append(f"-{z}")
                else:
                    parts.append(f"{c}*{z}")
        parts.append(f"O(z^{self.order + 1})")
        return _join_signed(parts)

    def __repr__(self):
        return f"PowerSeries({self!s})"


# ----------------------------------------------------------------------
# Bernoulli numbers, the Q-series and the s-series


_TANGENT: list[int] = []  # T_1..T_n so far, built on first use, never at import
_TANGENT_COLUMN: list[int] = []  # T_n after each stage of the triangle


def _tangent_number(k: int) -> int:
    """T_k, with tan x = sum T_k x^(2k-1)/(2k-1)!.  Stage s of the triangle sets
    T_j <- (j-s) T_(j-1) + (j-s+2) T_j for j >= s (T_(j-1) drops out at s = j),
    from T_j = (j-1)!, so the table grows one column at a time in O(j) steps."""
    while len(_TANGENT) < k:
        j = len(_TANGENT) + 1
        new = [math.factorial(j - 1)]
        for s, left in zip(range(2, j + 1), _TANGENT_COLUMN[1:] + [0]):
            new.append((j - s) * left + (j - s + 2) * new[-1])
        _TANGENT_COLUMN[:] = new
        _TANGENT.append(new[-1])
    return _TANGENT[k - 1]


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """The k-th positive Bernoulli number (1/6, 1/30, 1/42, ...), from the
    k-th tangent number: B_k = 2k T_k / (4^k (4^k - 1))."""
    if k < 1:
        raise ValueError(f"bernoulli numbers are indexed from 1, got {k}")
    b = Fraction(2 * k * _tangent_number(k), 4**k * (4**k - 1))
    if b <= 0:
        raise InternalInvariantError(f"Bernoulli number B_{k} = {b} is not positive")
    return b


@lru_cache(maxsize=None)
def q_series(order: int) -> PowerSeries:
    """The signature series Q(z) = sqrt(z)/tanh(sqrt(z)) = 1 + z/3 - z^2/45 + ...,
    from the closed form q_k = (-1)^(k-1) 2^(2k)/(2k)! * B_k of its coefficients."""
    if order < 0:
        raise ValueError("order must be non-negative")
    q = [Fraction((-4) ** k, -math.factorial(2 * k)) * bernoulli(k) for k in range(1, order + 1)]
    return PowerSeries([1, *q], order=order)


def s_series(order: int) -> PowerSeries:
    """The generating series 1/2 + (1/2) * 2*sqrt(z)/sinh(2*sqrt(z)) whose
    z^k coefficient is s_k.

    Only even powers of the formal square root appear, which leaves the
    branch of sqrt(z) ambiguous; the real-sinh reading would flip every
    odd coefficient's sign.  The branch is fixed to the one matching the
    closed form (all s_k > 0), i.e. sinh(2*sqrt(z))/(2*sqrt(z)) is read
    as the series d(z) = sum_k (-4)^k z^k / (2k+1)!  (equivalently
    sin(2t)/(2t) with z = t^2).  1/d comes from the reciprocal recursion
    g_n = -sum_{k=1..n} d_k g_(n-k), g_0 = 1 (d_0 = 1), without Bernoulli
    numbers, so it is an independent route to s_k.
    """
    d = [Fraction((-4) ** k, math.factorial(2 * k + 1)) for k in range(order + 1)]
    g = [Fraction(1)]
    for n in range(1, order + 1):
        g.append(-sum(d[k] * g[n - k] for k in range(1, n + 1)))
    # s_0 = (1 + g_0)/2 = 1; a negative order is refused by PowerSeries
    return PowerSeries([1, *(c / 2 for c in g[1:])], order=order)


@lru_cache(maxsize=None)
def s_coefficient(k: int) -> Fraction:
    """s_k = 2^(2k) (2^(2k-1) - 1) / (2k)! * B_k, with s_0 = 1.

    This is the coefficient of p_k in the k-th L-polynomial, and the z^k
    coefficient of :func:`s_series`; the three routes agree exactly.
    """
    if k < 0:
        raise ValueError("s-coefficients are indexed from 0")
    if k == 0:
        return Fraction(1)
    return (
        Fraction(2 ** (2 * k) * (2 ** (2 * k - 1) - 1), math.factorial(2 * k))
        * bernoulli(k)
    )


# ----------------------------------------------------------------------
# L-polynomials


def _numerators(poly: GradedPoly, shifts: range) -> tuple[dict, int]:
    """The terms of `poly` as integer numerators over their least common
    denominator, each exponent tuple packed into one int key: exponent i
    goes in the bit field that starts at shifts[i]."""
    den = math.lcm(*(c.denominator for c in poly.terms.values()))
    return {
        sum(map(lshift, exps, shifts)): c.numerator * (den // c.denominator)
        for exps, c in poly.terms.items()
    }, den


@lru_cache(maxsize=None)
def l_polynomial(k: int) -> GradedPoly:
    """The k-th L-polynomial in p_1..p_k (weights 1..k):
    L_1 = p1/3, L_2 = (7 p2 - p1^2)/45, ...

    Hirzebruch's multiplicative sequence of Q: with log Q(z) = sum a_j z^j
    and the Newton polynomials nu_j(p), the weight-n part E_n = L_n of
    exp(sum_j a_j nu_j) obeys E_n = (1/n) sum_{j<=n} j a_j nu_j E_{n-j},
    E_0 = 1, so the step to weight k takes L_1..L_(k-1) from this cache.
    The step runs on integers: every factor is a dict of integer numerators
    over one denominator, and each monomial is one int key holding its
    exponents in fields of k.bit_length() bits, so a product of monomials
    is a sum of keys (no exponent exceeds k, so no field carries).  Checked
    against the signature theorem on CP^{2k}: with p_j = C(2k+1, j) the
    value of L_k must be sigma(CP^{2k}) = 1.
    """
    if k < 1:
        raise ValueError(f"L-polynomials are indexed from 1, got {k}")
    q = q_series(k).coeffs
    # ja[j] = j * a_j from j a_j = j q_j - sum_{i<j} i a_i q_{j-i}
    ja = [Fraction(0)]
    for j in range(1, k + 1):
        ja.append(j * q[j] - sum(ja[i] * q[j - i] for i in range(1, j)))
    width = k.bit_length()
    shifts = range(0, width * k, width)
    # (j a_j, nu_j, E_{k-j} and its denominator) for j = 1..k; nu_j is integral
    parts = []
    for j in range(1, k + 1):
        prev = _numerators(l_polynomial(k - j), shifts) if j < k else ({0: 1}, 1)
        parts.append((ja[j], _numerators(newton_polynomial(j), shifts)[0], *prev))
    den = k * math.lcm(*(c.denominator * prev_den for c, _, _, prev_den in parts))
    acc: dict = {}
    for c, nu, prev, prev_den in parts:
        scale = c.numerator * den // (k * c.denominator * prev_den)
        for k1, c1 in nu.items():
            c1 *= scale
            for k2, c2 in prev.items():
                acc[k1 + k2] = acc.get(k1 + k2, 0) + c1 * c2
    mask = (1 << width) - 1
    terms = {tuple((key >> s) & mask for s in shifts): c for key, c in acc.items() if c}
    values = [math.comb(2 * k + 1, j) for j in range(1, k + 1)]
    signature = Fraction(sum(c * math.prod(map(pow, values, exps)) for exps, c in terms.items()), den)
    if signature != 1:
        raise InternalInvariantError(
            f"L_{k} gives signature {signature} on CP^{2 * k}, expected 1"
        )
    gens = tuple(f"p{i}" for i in range(1, k + 1))
    # the terms are valid already, so they skip the constructor's checks
    return GradedPoly.zero(gens, range(1, k + 1))._like(
        {exps: Fraction(c, den) for exps, c in terms.items()}
    )


# ----------------------------------------------------------------------
# Chern character


def chern_character(rank: int, chern: Sequence[GradedPoly], max_weight: int) -> GradedPoly:
    """rank + sum_k nu_k(c_1, ..., c_k)/k! truncated at max_weight.

    `chern` lists the classes c_1..c_rank as graded polynomials over a
    common generator set; classes above the rank are zero.  For a line
    bundle (rank 1, classes [t]) this reproduces the exponential series
    1 + t + t^2/2! + ...; it is additive under direct sums and
    multiplicative under tensor products of formal root models.
    """
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    if max_weight < 0:
        raise ValueError(f"max_weight must be non-negative, got {max_weight}")
    chern = list(chern)
    if len(chern) < rank:
        raise ValueError(
            f"missing class index {len(chern) + 1}: a rank-{rank} bundle "
            f"carries classes c_1..c_{rank}"
        )
    if len(chern) > rank:
        raise ValueError(
            f"got {len(chern)} classes for a rank-{rank} bundle; classes "
            f"above the rank vanish and must not be supplied"
        )
    first = chern[0]
    if not isinstance(first, GradedPoly):
        raise TypeError("chern classes must be GradedPoly values")
    for i, c in enumerate(chern, start=1):
        if not c.is_homogeneous(i):
            raise ValueError(f"class c_{i} must be homogeneous of weight {i}")
    zero = GradedPoly.zero(first.generators, first.weights)
    values = [c.truncate(max_weight) for c in chern]
    nus = power_sums_from_values(values, max_weight, zero)
    result = GradedPoly.constant(first.generators, first.weights, rank)
    for k in range(1, max_weight + 1):
        term = nus[k - 1] * Fraction(1, math.factorial(k))
        result = result + term.truncate(max_weight)
    return result.truncate(max_weight)
