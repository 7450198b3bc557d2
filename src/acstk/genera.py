"""Truncated formal power series over Q, Bernoulli numbers, the signature
Q-series, L-polynomials, their leading coefficients s_k, and the Chern
character.

The L-polynomials are Hirzebruch's multiplicative sequence of Q, built
directly in the Pontryagin classes p_1..p_k from log Q and the Newton
polynomials, and each one is checked against the signature theorem on
CP^{2k}.

Bernoulli indexing note: throughout this module B_k means the k-th member
of the classical *positive* sequence B_1 = 1/6, B_2 = 1/30, B_3 = 1/42,
..., i.e. B_k here equals |B_{2k}| in the modern even-index convention.
All square roots of the formal variable are handled by working with even
series in an auxiliary variable w and substituting z = w^2; no fractional
exponent ever materializes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from .errors import InternalInvariantError
from .symfun import GradedPoly, _join_signed, power_sums_from_values

Rational = Union[int, Fraction]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class PowerSeries:
    """A univariate formal power series truncated at a fixed order.

    `coeffs[k]` is the coefficient of z^k for k = 0..order; arithmetic
    never consults anything beyond the stored window and the result of a
    binary operation carries the smaller of the two orders.
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

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls([0], order=order)

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls([1], order=order)

    @classmethod
    def identity(cls, order: int) -> "PowerSeries":
        """The series z."""
        return cls([0, 1], order=order)

    def coefficient(self, k: int) -> Fraction:
        if k < 0:
            raise ValueError(f"coefficient index must be non-negative, got {k}")
        if k > self.order:
            raise ValueError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return PowerSeries(self.coeffs[: order + 1], order=order)

    # ------------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PowerSeries([other], order=self.order)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return PowerSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], order=n
        )

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PowerSeries([other], order=self.order)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return PowerSeries(
            [a - b for a, b in zip(self.coeffs, other.coeffs)], order=n
        )

    def __neg__(self):
        return PowerSeries([-c for c in self.coeffs], order=self.order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _frac(other)
            return PowerSeries([c * q for c in self.coeffs], order=self.order)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == 0:
                continue
            for j in range(0, n - i + 1):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return PowerSeries(out, order=n)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _frac(other)
            return PowerSeries([c / q for c in self.coeffs], order=self.order)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        if other.coeffs[0] == 0:
            raise ValueError("cannot divide by a series with constant term 0")
        n = min(self.order, other.order)
        b0 = other.coeffs[0]
        out = [Fraction(0)] * (n + 1)
        for k in range(n + 1):
            acc = self.coeffs[k]
            for i in range(1, k + 1):
                if other.coeffs[i]:
                    acc -= other.coeffs[i] * out[k - i]
            out[k] = acc / b0
        return PowerSeries(out, order=n)

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """Composition self(inner(z)); inner must have zero constant term."""
        if inner.coeffs[0] != 0:
            raise ValueError(
                "composition requires the inner series to have constant term 0, "
                f"got {inner.coeffs[0]}"
            )
        n = min(self.order, inner.order)
        result = PowerSeries([self.coeffs[0]], order=n)
        power = PowerSeries.one(n)
        inner_n = inner.truncate(n)
        for k in range(1, n + 1):
            power = power * inner_n
            if self.coeffs[k]:
                result = result + power * self.coeffs[k]
        return result

    def scale_argument(self, c: Rational) -> "PowerSeries":
        """z -> c*z, i.e. multiply the k-th coefficient by c^k."""
        q = _frac(c)
        return PowerSeries(
            [a * q**k for k, a in enumerate(self.coeffs)], order=self.order
        )

    def shift_down(self) -> "PowerSeries":
        """Divide by z; requires a zero constant term."""
        if self.coeffs[0] != 0:
            raise ValueError("cannot divide by z: constant term is nonzero")
        return PowerSeries(self.coeffs[1:], order=self.order - 1)

    def in_square_variable(self) -> "PowerSeries":
        """Reinterpret an even series in w as a series in z = w^2."""
        for k in range(1, self.order + 1, 2):
            if self.coeffs[k] != 0:
                raise ValueError(
                    f"series is not even: w^{k} has coefficient {self.coeffs[k]}"
                )
        return PowerSeries(self.coeffs[::2], order=self.order // 2)

    # ------------------------------------------------------------------

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
# elementary series, all built from the exponential series


def exp_series(order: int) -> PowerSeries:
    return PowerSeries(
        [Fraction(1, math.factorial(k)) for k in range(order + 1)], order=order
    )


def sinh_series(order: int) -> PowerSeries:
    e = exp_series(order)
    return (e - e.scale_argument(-1)) * Fraction(1, 2)


def cosh_series(order: int) -> PowerSeries:
    e = exp_series(order)
    return (e + e.scale_argument(-1)) * Fraction(1, 2)


def tanh_over_w_in_z(order: int) -> PowerSeries:
    """tanh(w)/w as a series in z = w^2, exact to the requested order."""
    w_order = 2 * order + 1
    t = sinh_series(w_order).shift_down() / cosh_series(w_order)
    return t.truncate(2 * order).in_square_variable()


@lru_cache(maxsize=None)
def q_series(order: int) -> PowerSeries:
    """The signature series Q(z) = sqrt(z)/tanh(sqrt(z)) = 1 + z/3 - z^2/45 + ...

    Computed as the reciprocal of tanh(w)/w with z = w^2, with an
    internal order buffer; the closed Bernoulli form is available from
    :func:`q_series_closed_form` and agrees coefficientwise.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    buffered = order + 1
    q = PowerSeries.one(buffered) / tanh_over_w_in_z(buffered)
    return q.truncate(order)


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """The k-th positive Bernoulli number (1/6, 1/30, 1/42, ...), read off
    the Q-series via q_k = (-1)^(k-1) 2^(2k)/(2k)! * B_k."""
    if k < 1:
        raise ValueError(f"bernoulli numbers are indexed from 1, got {k}")
    qk = q_series(k).coefficient(k)
    b = qk * (-1) ** (k - 1) * Fraction(math.factorial(2 * k), 2 ** (2 * k))
    if b <= 0:
        raise InternalInvariantError(f"extracted Bernoulli number B_{k} = {b} is not positive")
    return b


def q_series_closed_form(order: int) -> PowerSeries:
    """Q(z) assembled from the closed Bernoulli formula (second route)."""
    coeffs = [Fraction(1)]
    for k in range(1, order + 1):
        coeffs.append(
            (-1) ** (k - 1)
            * Fraction(2 ** (2 * k), math.factorial(2 * k))
            * bernoulli(k)
        )
    return PowerSeries(coeffs, order=order)


def s_series(order: int) -> PowerSeries:
    """The generating series 1/2 + (1/2) * 2*sqrt(z)/sinh(2*sqrt(z)) whose
    z^k coefficient is s_k.

    Only even powers of the formal square root appear, which leaves the
    branch of sqrt(z) ambiguous; the real-sinh reading would flip every
    odd coefficient's sign.  The branch is fixed to the one matching the
    closed form (all s_k > 0), i.e. sinh(2*sqrt(z))/(2*sqrt(z)) is read
    as the series sum_k (-4)^k z^k / (2k+1)!  (equivalently 2t/sin(2t)
    with z = t^2).
    """
    w_order = 2 * order + 1
    sinh_over_w = sinh_series(w_order).shift_down()  # sinh(w)/w, even in w
    denom_in_z = sinh_over_w.truncate(2 * order).scale_argument(2).in_square_variable()
    denom = denom_in_z.scale_argument(-1)  # fix the branch: z -> -z
    g = PowerSeries.one(order) / denom
    return (g + 1) * Fraction(1, 2)


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


@lru_cache(maxsize=None)
def l_polynomial(k: int) -> GradedPoly:
    """The k-th L-polynomial in p_1..p_k (weights 1..k):
    L_1 = p1/3, L_2 = (7 p2 - p1^2)/45, ...

    Hirzebruch's multiplicative sequence of Q: with log Q(z) = sum a_j z^j
    and the Newton polynomials nu_j(p), L_k is the weight-k part of
    exp(sum_j a_j nu_j), built by the recursion
    E_n = (1/n) sum_{j<=n} j a_j nu_j E_{n-j}.  Checked against the
    signature theorem on CP^{2k}: with p_j = C(2k+1, j) the value of L_k
    must be sigma(CP^{2k}) = 1.
    """
    if k < 1:
        raise ValueError(f"L-polynomials are indexed from 1, got {k}")
    gens = tuple(f"p{i}" for i in range(1, k + 1))
    weights = tuple(range(1, k + 1))
    zero = GradedPoly.zero(gens, weights)
    p = [GradedPoly.generator(gens, weights, g) for g in gens]
    nus = power_sums_from_values(p, k, zero)
    q = q_series(k).coeffs
    # ja[j] = j * a_j from j a_j = j q_j - sum_{i<j} i a_i q_{j-i}
    ja = [Fraction(0)]
    for j in range(1, k + 1):
        ja.append(j * q[j] - sum(ja[i] * q[j - i] for i in range(1, j)))
    ja_nus = [nu * c for nu, c in zip(nus, ja[1:])]
    e = [GradedPoly.constant(gens, weights, 1)]
    for n in range(1, k + 1):
        acc = zero
        for j in range(1, n + 1):
            acc = acc + ja_nus[j - 1] * e[n - j]
        e.append(acc * Fraction(1, n))
    lk = e[k]
    signature = lk.evaluate([math.comb(2 * k + 1, j) for j in weights])
    if signature != 1:
        raise InternalInvariantError(
            f"L_{k} gives signature {signature} on CP^{2 * k}, expected 1"
        )
    return lk


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
