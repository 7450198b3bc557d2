"""Bernoulli numbers, the coefficients q_k of the signature series Q,
L-polynomials, their leading coefficients s_k, and the Chern character.

The Bernoulli numbers come from Brent and Harvey's integer triangle of
tangent numbers (arXiv:1108.0286), and q_k and s_k from them in closed
form, one coefficient per call.  The L-polynomials are Hirzebruch's
multiplicative sequence of Q, built directly in the Pontryagin classes
p_1..p_k from the s_k and the Newton polynomials, one weight at a time on
integer numerators, and each one is checked against the signature theorem
on CP^{2k}.

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

from ._exact import _over_common_denominator
from .errors import InternalInvariantError
from .symfun import GradedPoly, newton_polynomial, power_sums_from_values


# ----------------------------------------------------------------------
# Bernoulli numbers and the coefficients q_k and s_k


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


def q_coefficient(k: int) -> Fraction:
    """q_k, the z^k coefficient of the signature series
    Q(z) = sqrt(z)/tanh(sqrt(z)) = 1 + z/3 - z^2/45 + ..., from the closed
    form q_k = (-1)^(k-1) 2^(2k)/(2k)! * B_k, with q_0 = 1."""
    if k < 0:
        raise ValueError(f"q-coefficients are indexed from 0, got {k}")
    if k == 0:
        return Fraction(1)
    return Fraction((-4) ** k, -math.factorial(2 * k)) * bernoulli(k)


@lru_cache(maxsize=None)
def s_coefficient(k: int) -> Fraction:
    """s_k = 2^(2k) (2^(2k-1) - 1) / (2k)! * B_k, with s_0 = 1.

    This is the coefficient of p_k in the k-th L-polynomial, and the z^k
    coefficient of the generating series 1/2 + t/sin(2t) with z = t^2; the
    three routes agree exactly.
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
    nums, den = _over_common_denominator([c.as_integer_ratio() for c in poly.terms.values()])
    return dict(zip((sum(map(lshift, exps, shifts)) for exps in poly.terms), nums)), den


@lru_cache(maxsize=None)
def l_polynomial(k: int) -> GradedPoly:
    """The k-th L-polynomial in p_1..p_k (weights 1..k):
    L_1 = p1/3, L_2 = (7 p2 - p1^2)/45, ...

    Hirzebruch's multiplicative sequence of Q: with log Q(z) = sum a_j z^j
    and the Newton polynomials nu_j(p), the weight-n part E_n = L_n of
    exp(sum_j a_j nu_j) obeys E_n = (1/n) sum_{j<=n} j a_j nu_j E_{n-j},
    E_0 = 1, so the step to weight k takes L_1..L_(k-1) from this cache.
    The j a_j are signed s_j: log Q(x^2) = log cosh x - log(sinh x / x)
    has x-derivative 1/x - 2/sinh(2x), so sum_j j a_j z^j at z = x^2 is
    (1 - 2x/sinh(2x))/2 = 1 - (1/2 + x/sinh(2x)).  With x = it the last
    series is 1/2 + t/sin(2t), sum_j s_j t^(2j), at t^2 = -z, so
    j a_j = (-1)^(j-1) s_j.  The step runs on integers: every factor is a
    dict of integer numerators over one denominator, and each monomial is
    one int key holding its exponents in fields of k.bit_length() bits, so
    a product of monomials is a sum of keys (no exponent exceeds k, so no
    field carries).  Checked against the signature theorem on CP^{2k}:
    with p_j = C(2k+1, j) the value of L_k must be sigma(CP^{2k}) = 1.
    """
    if k < 1:
        raise ValueError(f"L-polynomials are indexed from 1, got {k}")
    width = k.bit_length()
    shifts = range(0, width * k, width)
    # (j a_j, nu_j, E_{k-j} and its denominator) for j = 1..k; nu_j is integral
    parts = []
    for j in range(1, k + 1):
        prev = _numerators(l_polynomial(k - j), shifts) if j < k else ({0: 1}, 1)
        parts.append(((-1) ** (j - 1) * s_coefficient(j), _numerators(newton_polynomial(j), shifts)[0], *prev))
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
