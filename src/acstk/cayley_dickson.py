"""Exact arithmetic in the Cayley-Dickson tower of algebras over Q.

Level n is the algebra of dimension 2^n obtained by applying the doubling
construction n times to the rationals: level 0 is Q itself, level 1 the
complex rationals, level 2 the quaternions, level 3 the octonions and
level 4 the sedenions.  Coefficients are exact rationals throughout, so
structural claims (a nonzero associator, a failed norm identity) are
decided exactly instead of numerically.

An element is held once, as one integer vector over a common
denominator: numerators `num` and a denominator `den > 0` with
gcd(den, *num) = 1.  Sums, differences, negation, conjugation, scalar
multiples and products work on the integers and reduce once through one
private constructor; inner products and norms are one integer dot product
and one `Fraction`.  The `Fraction` coefficients (`coeffs`) are built only
when asked for, for display, JSON and callers of the public API, and
never by the probe's random scan.

The doubling rule

    (a1, a2) * (b1, b2) = (a1*b1 - conj(b2)*a2,  b2*a1 + a2*conj(b1))

with conj(x1, x2) = (conj(x1), -x2) is encoded once, in one sign table
per level (`_signs`, built from the level below): e_i * e_j =
s[i][j] * e_{i^j}, and `basis_product` reads its entries.  Indices
compose by XOR, so coefficient k of a*b is one signed dot product
sum_i s[i][i^k] a_i b_{i^k} of numerators, over the product of the
denominators.  On first use at a level the table is compiled into one
straight-line function that unpacks a0..a{d-1} and b0..b{d-1} and
returns the d signed dot products (4^level terms, which is why levels
stop at `LEVEL_CAP`).
`associator` (and `cross` in `sphere_acs`) reduce only their result.
Basis vectors are written e_0 = 1, e_1, ..., e_{2^n - 1}; with this
convention the level-2 basis satisfies e1*e2 = e3, e2*e3 = e1,
e3*e1 = e2.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul

from ._exact import Rational, _check_int, _frac, _join_signed, _over_common_denominator, _term
from ._record import Record

#: Elements exist up to this level: the level-n product is compiled from
#: 4^n terms on first use, so the cap bounds that cost.
LEVEL_CAP = 6

#: Exhaustive probes refuse to run above this level; basis-triple
#: searches grow as (2^n)^3.
PROBE_LEVEL_CAP = 5

_set = object.__setattr__


class CDElement(Record):
    """An element of the level-n doubling algebra: 2^n exact rationals.

    The value is held once, in canonical form: a tuple `num` of integer
    numerators over one denominator `den > 0` with gcd(den, *num) = 1, so
    the zero element is (0, ..., 0)/1 and equal values have equal fields.
    `coeffs`, the same value as a tuple of `Fraction`s, is built on first
    access.  Coefficient 0 is the real part.  Elements are immutable.
    Arithmetic between different levels is rejected.  `basis(level, 0)` is
    the unit, `basis(level, 0) * q` the scalar q and `x * 0` the zero;
    `num[1:]` holds the imaginary part.
    """

    level: int
    num: tuple[int, ...]
    den: int

    def __init__(self, level: int, coeffs: Iterable[Rational]):
        _check_int(level, "level", 0, LEVEL_CAP)
        coeffs = tuple(_frac(c) for c in coeffs)
        if len(coeffs) != 1 << level:
            raise ValueError(
                f"level {level} elements need {1 << level} "
                f"coefficients, got {len(coeffs)}"
            )
        num, den = _over_common_denominator([c.as_integer_ratio() for c in coeffs])
        _set(self, "level", level)
        _set(self, "num", tuple(num))
        _set(self, "den", den)
        self.__dict__["coeffs"] = coeffs  # already built: fill the cached_property

    @classmethod
    def _reduced(cls, level: int, num, den: int) -> "CDElement":
        """The element num/den (den > 0) in canonical form, without
        validation: how every operation builds its result."""
        g = gcd(den, *num)
        self = object.__new__(cls)
        _set(self, "level", level)
        _set(self, "num", tuple(num) if g == 1 else tuple(n // g for n in num))
        _set(self, "den", den // g)
        return self

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.num)

    @classmethod
    def basis(cls, level: int, index: int) -> "CDElement":
        """The basis vector e_index at the given level."""
        _check_int(level, "level", 0, LEVEL_CAP)
        _check_int(index, "basis index", 0, (1 << level) - 1)
        num = [0] * (1 << level)
        num[index] = 1
        return cls._reduced(level, num, 1)

    # ------------------------------------------------------------------
    # ring structure

    def _check_level(self, other: "CDElement", what: str):
        """TypeError unless both operands are elements, ValueError unless
        their levels agree.  `associator` and `cross` call it through the
        class, so that their first operand is checked as well."""
        for x in (self, other):
            if not isinstance(x, CDElement):
                raise TypeError(f"cannot {what} {type(x).__name__!r} and a doubling-algebra element")
        if self.level != other.level:
            raise ValueError(
                f"cannot {what} a level-{self.level} and a "
                f"level-{other.level} element"
            )

    def __add__(self, other: "CDElement") -> "CDElement":
        if not isinstance(other, CDElement):
            return NotImplemented
        self._check_level(other, "add")
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return CDElement._reduced(self.level, [a * sa + b * sb for a, b in zip(self.num, other.num)], den)

    def __sub__(self, other: "CDElement") -> "CDElement":
        if not isinstance(other, CDElement):
            return NotImplemented
        self._check_level(other, "subtract")
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return CDElement._reduced(self.level, [a * sa - b * sb for a, b in zip(self.num, other.num)], den)

    def __neg__(self) -> "CDElement":
        return CDElement._reduced(self.level, [-a for a in self.num], self.den)

    def __mul__(self, other):
        if isinstance(other, CDElement):
            self._check_level(other, "multiply")
            return CDElement._reduced(self.level, _kernel(self.level)(self.num, other.num), self.den * other.den)
        if isinstance(other, (int, Fraction)):
            n, d = _frac(other).as_integer_ratio()
            return CDElement._reduced(self.level, [a * n for a in self.num], self.den * d)
        return NotImplemented

    def __bool__(self) -> bool:
        return any(self.num)

    # ------------------------------------------------------------------
    # involution, norm, decomposition

    def conjugate(self) -> "CDElement":
        """Negate every imaginary coefficient (real part is preserved)."""
        return CDElement._reduced(self.level, [self.num[0]] + [-a for a in self.num[1:]], self.den)

    def norm_sq(self) -> Fraction:
        """Sum of squared coefficients; equals the real part of a * conj(a)."""
        return Fraction(sum(map(mul, self.num, self.num)), self.den * self.den)

    def real_part(self) -> Fraction:
        return Fraction(self.num[0], self.den)

    def is_imaginary(self) -> bool:
        return self.num[0] == 0

    def inner(self, other: "CDElement") -> Fraction:
        """Euclidean inner product of the coefficient vectors."""
        self._check_level(other, "pair")
        return Fraction(sum(map(mul, self.num, other.num)), self.den * other.den)

    # ------------------------------------------------------------------
    # serialization and display

    def as_dict(self) -> dict:
        return {"level": self.level, "coeffs": [str(c) for c in self.coeffs]}

    def __str__(self) -> str:
        return _join_signed([_term(c, f"e{i}" if i else "") for i, c in enumerate(self.coeffs) if c])


def associator(u: CDElement, v: CDElement, w: CDElement) -> CDElement:
    """(u*v)*w - u*(v*w).  Vanishes identically up to level 2, alternates
    at level 3, and fails to alternate from level 4 on."""
    CDElement._check_level(u, v, "associate")
    CDElement._check_level(v, w, "associate")
    level, product = u.level, _kernel(u.level)
    left = product(product(u.num, v.num), w.num)
    right = product(u.num, product(v.num, w.num))
    return CDElement._reduced(level, [x - y for x, y in zip(left, right)], u.den * v.den * w.den)


def basis_product(level: int, i: int, j: int) -> tuple[int, int]:
    """Structure constants: e_i * e_j = sign * e_k with k = i XOR j, returned
    as (sign, k) from the sign table `_signs`.  Levels run from 0 to `LEVEL_CAP`."""
    _check_int(level, "level", 0, LEVEL_CAP)
    _check_int(i, "basis index", 0, (1 << level) - 1)
    _check_int(j, "basis index", 0, (1 << level) - 1)
    return (_signs(level)[i][j], i ^ j)


@lru_cache(maxsize=None)
def _signs(level: int) -> tuple[tuple[int, ...], ...]:
    """The sign table s of `level`: e_i * e_j = s[i][j] * e_{i^j}.

    Built from the table t of level - 1 by the doubling rule's quadrants:
    for i, j < h = 2^(level-1) and c_j = 1 if j == 0 else -1 (conjugation),
    s[i][j] = t[i][j], s[i][j+h] = t[j][i], s[i+h][j] = c_j t[i][j] and
    s[i+h][j+h] = -c_j t[j][i].  The index is XOR by induction: on level - 1
    it is k' = i^j < h, the off-diagonal quadrants land on k' + h = k' ^ h,
    and the diagonal ones on k' = (i+h) ^ (j+h).  Callers check `level`."""
    if level == 0:
        return ((1,),)
    t = _signs(level - 1)
    c = (1,) + (-1,) * (len(t) - 1)
    rows = list(zip(t, zip(*t)))  # (row i, column i) of t
    return tuple(row + col for row, col in rows) + tuple(
        tuple(map(mul, row, c)) + tuple(-x * y for x, y in zip(col, c)) for row, col in rows
    )


@lru_cache(maxsize=None)
def _kernel(level: int):
    """The product of numerator vectors at `level`, compiled from the sign
    table: a straight-line function of (a, b) returning the list of
    coefficients sum_i s[i][i^k] a_i b_{i^k}."""
    signs, dim = _signs(level), 1 << level
    rows = [
        " ".join(f"{'-' if signs[i][i ^ k] < 0 else '+'} a{i}*b{i ^ k}" for i in range(dim)).removeprefix("+ ")
        for k in range(dim)
    ]
    unpack = "".join(f"    {', '.join(f'{x}{i}' for i in range(dim))}, = {x}\n" for x in "ab")
    namespace = {}
    exec(f"def product(a, b):\n{unpack}    return [{', '.join(rows)}]\n", namespace)
    return namespace["product"]


def _basis_associator(signs, a: int, b: int, c: int) -> int:
    """The coefficient of e_{a^b^c} in [e_a, e_b, e_c], from the sign table
    `signs`: both triple products land on that basis vector, so the
    associator is 0 or +-2 times it."""
    return signs[a][b] * signs[a ^ b][c] - signs[b][c] * signs[a][b ^ c]


def _random_vector(rng: random.Random, count: int, max_num: int, max_den: int) -> tuple[list[int], int]:
    """`count` draws of rng.randint(-max_num, max_num) over rng.randint(1, max_den),
    the numerator first, as one vector (numerators, denominator), by randint's own
    rule for a width n (getrandbits(n.bit_length()), redrawn while >= n): same
    values, same state.  The callers pass constants, so the ranges are never empty."""
    bits, width = rng.getrandbits, 2 * max_num + 1
    kn, kd = width.bit_length(), max_den.bit_length()
    pairs = []
    for _ in range(count):
        a = bits(kn)
        while a >= width:
            a = bits(kn)
        b = bits(kd)
        while b >= max_den:
            b = bits(kd)
        pairs.append((a - max_num, b + 1))
    return _over_common_denominator(pairs)


class AlternativityReport(Record):
    """Outcome of probing whether the associator alternates at one level."""

    level: int
    alternative: bool
    basis_checks: int
    random_checks: int
    witness_form: str | None = None
    witness_u: CDElement | None = None
    witness_v: CDElement | None = None
    witness_associator: CDElement | None = None

    def as_dict(self) -> dict:
        out = {
            "level": self.level,
            "alternative": self.alternative,
            "basis_checks": self.basis_checks,
            "random_checks": self.random_checks,
        }
        if self.witness_form is not None:
            out["witness"] = {
                "form": self.witness_form,
                "u": self.witness_u.as_dict(),
                "v": self.witness_v.as_dict(),
                "associator": self.witness_associator.as_dict(),
            }
        return out


def _basis_witness(signs, e: list) -> tuple[int, tuple | None]:
    """(basis checks, first witness (form, u, v, associator) or None) of the
    two basis scans: the triples [e_i, e_i, e_j], [e_i, e_j, e_j],
    [e_i, e_j, e_i], which vanish in every level of the tower (the scan is
    cheap and keeps the claim honest), then the triples (i < j, k) with
    [e_i, e_j, e_k] != -[e_j, e_i, e_k], whose witness is [u, u, v] of
    u = e_i + e_j, v = e_k (none should that associator vanish)."""
    checks = 0
    for i, j in itertools.product(range(len(e)), repeat=2):
        for (a, b, c), form in (((i, i, j), "[u,u,v]"), ((i, j, j), "[u,v,v]"), ((i, j, i), "[u,v,u]")):
            checks += 1
            val = _basis_associator(signs, a, b, c) and associator(e[a], e[b], e[c])
            if val:
                return checks, (form, e[i], e[j], val)
    for (i, j), k in itertools.product(itertools.combinations(range(len(e)), 2), range(len(e))):
        checks += 1
        lhs, rhs = _basis_associator(signs, i, j, k), _basis_associator(signs, j, i, k)
        val = rhs != -lhs and associator(e[i] + e[j], e[i] + e[j], e[k])
        if val:
            return checks, ("[u,u,v]", e[i] + e[j], e[k], val)
    return checks, None


def _random_witness(level: int, samples: int, seed: int) -> tuple | None:
    """The first nonzero repeated-argument associator of `samples` random
    pairs u, v, as the witness (form, u, v, associator), or None.  The three
    associators of a pair share the products uu, uv, vv, vu: 10 per pair,
    and none after the pair that holds the witness."""
    rng, mult = random.Random(seed), _kernel(level)
    for _ in range(samples):
        (a, da), (b, db) = (_random_vector(rng, 1 << level, 6, 4) for _ in range(2))
        uv = mult(a, b)
        for form, left, right, den in (
            ("[u,u,v]", mult(mult(a, a), b), mult(a, uv), da * da * db),
            ("[u,v,v]", mult(uv, b), mult(a, mult(b, b)), da * db * db),
            ("[u,v,u]", mult(uv, a), mult(a, mult(b, a)), da * da * db),
        ):
            val = [x - y for x, y in zip(left, right)]
            if any(val):
                u, v = CDElement._reduced(level, a, da), CDElement._reduced(level, b, db)
                return form, u, v, CDElement._reduced(level, val, den)
    return None


def probe_alternative(level: int, samples: int = 200, seed: int = 0) -> AlternativityReport:
    """Probe the alternating law [u, v, w] = 0 whenever two arguments agree.

    Scans, in turn, the repeated-argument basis triples, the basis triples
    for antisymmetry failures [e_i, e_j, e_k] != -[e_j, e_i, e_k] (each
    gives the repeated-argument witness u = e_i + e_j), and random
    repeated-argument triples.  Each scan stops at its first witness, and
    the random scan runs only when both basis scans are silent, so never
    from level 4 on.  `random_checks` still reads 3 * samples, though no
    random triple past the first witness is examined.  A witness's
    associator is computed from its own u and v with the exact product, not
    read off the sign table.  A level, sample count or seed that is not an
    int raises `TypeError`, a level outside 0..PROBE_LEVEL_CAP or a negative
    count `ValueError`.
    """
    _check_int(level, "probe level", 0, PROBE_LEVEL_CAP)
    _check_int(samples, "probe samples", 0)
    _check_int(seed, "seed", None)
    basis_checks, witness = _basis_witness(_signs(level), [CDElement.basis(level, i) for i in range(1 << level)])
    witness = witness or _random_witness(level, samples, seed)
    return AlternativityReport(level, not witness, basis_checks, 3 * samples, *(witness or ()))
