"""The cross-product almost complex structure on the unit spheres inside
the imaginary quaternions and octonions, with an exact Nijenhuis-tensor
evaluator.

The 2-sphere sits in the imaginary part of the level-2 algebra and the
6-sphere in the imaginary part of the level-3 algebra.  For a base point
p and a tangent vector v, the structure is J_p(v) = p x v, where
u x v = (uv - vu)/2 = Im(uv) is the commutator cross product of
imaginary elements.  Sphere points are produced by inverse stereographic
projection on integers: parameters q_i = N_i/D with S = sum N_i^2 give
(2 N_1 D, ..., 2 N_d D, S - D^2)/(S + D^2), so every coordinate is an
exact rational.  The random draws, the tangent projection and the cross
product run on one private layer of integer pairs (numerators,
denominator), which the public functions reduce once into a `CDElement`.
`verify_j_structure` and `nijenhuis` run their loops on that layer
directly, so the public functions, the J check and the tensor share one
cross product; the J check draws its points and tangents there and builds
elements only for its reported example.

The Nijenhuis tensor

    N(u, v) = [JU, JV] - [U, V] - J[JU, V] - J[U, JV]     (at p)

extends tangent vectors to the vector fields U(x) = u - <u, x> x on the
ambient imaginary space and J to (JW)(x) = x x W(x).  An ambient bracket
at p needs only the 1-jets of its fields there,
[A, B](p) = DB_p(A(p)) - DA_p(B(p)), and for a tangent u these are

    U(p) = u,  DU_p(w) = -<u, w> p,  (JU)(p) = p x u,  D(JU)_p(w) = w x u.

So [U, V](p) = -<v, u> p + <u, v> p = 0, [JU, JV](p) = (p x u) x v -
(p x v) x u, and [JU, V](p) = -<v, p x u> p - v x u and [U, JV](p) =
u x v + <u, p x v> p; as p x p = 0, J maps both of the last two to
p x (u x v).  Hence N(u, v) = (p x u) x v - (p x v) x u - 2 p x (u x v).
At levels <= 3 only (the sedenions break it, e.g. at (e1, e10, e4)),

    a x (b x c) + b x (a x c) = -2<a,b> c + <a,c> b + <b,c> a,  so
    (p x u) x v = -v x (p x u) = 2<p,v> u - <u,v> p - <p,u> v - p x (u x v),
    N(u, v) = 3<p,v> u - 3<p,u> v - 4 p x (u x v),

the second line minus its u <-> v swap, minus 2 p x (u x v): two cross
products and two dot products, all landing over Dp Du Dv.  No normalizing
factor (such as 1/4) is applied; conventions only matter up to nonzero
scale here and this one is fixed so frozen values stay stable.

With the same identity, for all imaginary p, u, v at levels 2 and 3,

    N(p; u, v) = <p,u> v - <p,v> u + 2 [p, u, v],

both sides trilinear and equal on every imaginary basis triple, so for u
and v tangent at p the tensor is twice the associator, N(u, v) =
2 [p, u, v] (Harvey-Lawson, "Calibrated geometries", 1982, IV.1).
`compare_nijenhuis_associator` checks this third form of N, computed
through the doubling product instead of `_cross`, on every call.
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from ._exact import _frac, _over_common_denominator
from ._record import Record
from .cayley_dickson import CDElement, _kernel, _random_pairs, associator
from .errors import InternalInvariantError

#: sphere dimension -> level of the ambient doubling algebra
SPHERE_LEVEL = {2: 2, 6: 3}


def _level_for(sphere_dim: int) -> int:
    if sphere_dim not in SPHERE_LEVEL:
        raise ValueError(f"sphere dimension must be 2 or 6, got {sphere_dim}")
    return SPHERE_LEVEL[sphere_dim]


# The integer layer: a vector is a pair (numerators, denominator > 0), not
# necessarily in lowest terms.


def _cross(level: int, a, b) -> tuple[list[int], int]:
    """a x b for imaginary pairs a and b: the level's product of the
    numerators with its real part set to 0, over the product of the
    denominators, unreduced."""
    num = _kernel(level)(a[0], b[0])
    num[0] = 0
    return num, a[1] * b[1]


def _stereographic(pairs) -> tuple[list[int], int]:
    """The inverse stereographic image of the parameters q_i = pairs[i][0] /
    pairs[i][1]: over their common denominator D, q_i = N_i/D, and with
    S = sum N_i^2 the point is (2 N_1 D, ..., 2 N_d D, S - D^2)/(S + D^2)."""
    nums, d = _over_common_denominator(pairs)
    s, d2 = sum(map(mul, nums, nums)), d * d
    return [0, *(2 * d * n for n in nums), s - d2], s + d2


def _project(p, w) -> tuple[list[int], int]:
    """w - <w, p> p for a unit pair p: (W Dp^2 - (W.P) P) / (Dw Dp^2) for
    w = W/Dw and p = P/Dp."""
    (pnum, pden), (wnum, wden) = p, w
    dp2, wp = pden * pden, sum(map(mul, wnum, pnum))
    return [x * dp2 - wp * y for x, y in zip(wnum, pnum)], wden * dp2


def _draw_point(sphere_dim: int, rng: random.Random) -> tuple[list[int], int]:
    """The stereographic image of `sphere_dim` random parameters."""
    return _stereographic(_random_pairs(rng, sphere_dim, 9, 9))


def _draw_tangent(level: int, p, rng: random.Random) -> tuple[list[int], int]:
    """The tangent projection at the pair p of a random imaginary vector."""
    num, den = _over_common_denominator(_random_pairs(rng, (1 << level) - 1, 9, 9))
    return _project(p, ([0, *num], den))


def _check_unit(p) -> None:
    num, den = p
    if (norm := sum(map(mul, num, num))) != den * den:
        raise ValueError(f"sphere points must have unit norm, got |p|^2 = {Fraction(norm, den * den)}")


def _check_orthogonal(v, p) -> None:
    if dot := sum(map(mul, v[0], p[0])):
        raise ValueError(f"tangent vector is not orthogonal to its base point: <v, p> = {Fraction(dot, v[1] * p[1])}")


class SpherePoint(Record):
    """A point of S^2 or S^6: an imaginary element of exact unit norm."""

    vector: CDElement

    def __post_init__(self):
        if self.vector.level not in SPHERE_LEVEL.values():
            raise ValueError(
                f"sphere points live at level 2 or 3, got level {self.vector.level}"
            )
        if not self.vector.is_imaginary():
            raise ValueError("sphere points must be imaginary")
        _check_unit((self.vector.num, self.vector.den))

    @property
    def sphere_dim(self) -> int:
        return (1 << self.vector.level) - 2

    def as_dict(self) -> dict:
        return self.vector.as_dict()


class TangentVector(Record):
    """A base point together with an exactly-orthogonal imaginary vector."""

    base: SpherePoint
    vector: CDElement

    def __post_init__(self):
        if self.vector.level != self.base.vector.level:
            raise ValueError(
                f"tangent level {self.vector.level} does not match base level "
                f"{self.base.vector.level}"
            )
        if not self.vector.is_imaginary():
            raise ValueError("tangent vectors must be imaginary")
        _check_orthogonal((self.vector.num, self.vector.den), (self.base.vector.num, self.base.vector.den))

    def as_dict(self) -> dict:
        return self.vector.as_dict()


def cross(u: CDElement, v: CDElement) -> CDElement:
    """Cross product (uv - vu)/2 of imaginary elements.

    Computed as the imaginary part of u*v, which is the same value because
    vu = conj(uv) for imaginary u and v; equal to u*v itself when u and v
    are orthogonal.
    """
    CDElement._check_level(u, v, "cross")
    for name, x in (("first", u), ("second", v)):
        if not x.is_imaginary():
            raise ValueError(f"cross product needs imaginary inputs; {name} has real part {x.real_part()}")
    return CDElement._reduced(u.level, *_cross(u.level, (u.num, u.den), (v.num, v.den)))


def j_apply(t: TangentVector) -> TangentVector:
    """Apply J at the base point: v -> p x v.  Applying twice negates."""
    return TangentVector(t.base, cross(t.base.vector, t.vector))


def rational_sphere_point(sphere_dim: int, params: Sequence) -> SpherePoint:
    """Inverse stereographic projection from rational parameters.

    With s = sum(q_i^2) the point is (2q_1, ..., 2q_d, s - 1)/(s + 1) on
    the imaginary axes e_1..e_{d+1}; the all-zero parameter list gives
    the south pole -e_{d+1} and the norm is exactly 1 for any input.
    """
    level = _level_for(sphere_dim)
    qs = list(params)
    if len(qs) != sphere_dim:
        raise ValueError(
            f"S^{sphere_dim} needs {sphere_dim} stereographic parameters, got {len(qs)}"
        )
    return SpherePoint(CDElement._reduced(level, *_stereographic([_frac(q).as_integer_ratio() for q in qs])))


def tangent_projection(p: SpherePoint, w: CDElement) -> TangentVector:
    """Project an imaginary ambient vector onto the tangent space at p:
    w -> w - <w, p> p.  Idempotent; w = p maps to zero."""
    if w.level != p.vector.level:
        raise ValueError(
            f"cannot project a level-{w.level} vector at a level-{p.vector.level} point"
        )
    if not w.is_imaginary():
        raise ValueError(f"tangent projection needs an imaginary vector, got real part {w.real_part()}")
    return TangentVector(p, CDElement._reduced(w.level, *_project((p.vector.num, p.vector.den), (w.num, w.den))))


def nijenhuis(p: SpherePoint, u: TangentVector, v: TangentVector) -> CDElement:
    """Exact Nijenhuis tensor value N(u, v) at p, in the two-product form
    3<p,v> u - 3<p,u> v - 4 p x (u x v) of its 1-jet brackets (derivation,
    valid on Im H and Im O, and sign conventions in the module docstring).
    The result is an imaginary element, exactly tangent at p; it vanishes
    identically on S^2 and is nonzero for generic inputs on S^6.  Both
    cross and both dot products run on numerators, and every term lands
    over Dp Du Dv, so the result is reduced once."""
    if u.base != p or v.base != p:
        raise ValueError("nijenhuis arguments must be tangent at the given point")
    level = p.vector.level
    pv, a, b = ((x.num, x.den) for x in (p.vector, u.vector, v.vector))
    pa, pb = (3 * sum(map(mul, pv[0], x[0])) for x in (a, b))
    third, den = _cross(level, pv, _cross(level, a, b))
    return CDElement._reduced(level, [pb * x - pa * y - 4 * z for x, y, z in zip(a[0], b[0], third)], den)


class AssociatorComparison(Record):
    """<N(u,v), w> beside the associator [u,v,w], for tangent vectors u, v
    and w at p, from a call that found N(u,v) = 2 [p,u,v].  On S^2 every
    field but `sphere_dim` is 0.  No basis associator has a real part at
    levels 0 to 5, so [u,v,w] is imaginary and has no real part to report.
    """

    sphere_dim: int
    nijenhuis_value: CDElement
    pairing_with_w: Fraction
    associator_value: CDElement

    def as_dict(self) -> dict:
        return {
            "sphere": self.sphere_dim,
            "nijenhuis": self.nijenhuis_value.as_dict(),
            "pairing_with_w": str(self.pairing_with_w),
            "associator": self.associator_value.as_dict(),
        }


def compare_nijenhuis_associator(
    p: SpherePoint, u: TangentVector, v: TangentVector, w: TangentVector
) -> AssociatorComparison:
    """Evaluate <N(u,v), w> and [u,v,w] for tangent vectors at p, after
    checking N(u,v) = 2 [p,u,v] (see the module docstring).  A mismatch
    raises `InternalInvariantError`: the identity is proved on S^2 and S^6,
    so it can fail only through a fault in the tensor or the product."""
    if w.base != p:
        raise ValueError("comparison arguments must be tangent at the given point")
    n = nijenhuis(p, u, v)
    twice = associator(p.vector, u.vector, v.vector) * 2
    if n != twice:
        raise InternalInvariantError(f"N(u, v) = {n} differs from 2 [p, u, v] = {twice}")
    return AssociatorComparison(p.sphere_dim, n, n.inner(w.vector), associator(u.vector, v.vector, w.vector))


class JVerificationReport(Record):
    """Result of sampling J over random rational points and tangents."""

    sphere_dim: int
    samples: int
    seed: int
    j_squared_negates: bool
    image_tangent: bool
    norm_preserved: bool
    example_point: Optional[CDElement] = None
    example_tangent: Optional[CDElement] = None

    @property
    def all_passed(self) -> bool:
        return self.j_squared_negates and self.image_tangent and self.norm_preserved

    def as_dict(self) -> dict:
        out = {
            "sphere": self.sphere_dim,
            "samples": self.samples,
            "seed": self.seed,
            "j_squared_is_minus_identity": self.j_squared_negates,
            "image_tangent": self.image_tangent,
            "norm_preserved": self.norm_preserved,
            "all_passed": self.all_passed,
        }
        if self.example_point is not None:
            out["example_point"] = self.example_point.as_dict()
            out["example_tangent"] = self.example_tangent.as_dict()
        return out


def verify_j_structure(sphere_dim: int, samples: int, seed: int = 0) -> JVerificationReport:
    """Check J^2 v = -v, tangency of Jv and |Jv|^2 = |v|^2 exactly on
    `samples` random stereographic points with random rational tangents.
    At least one sample is required, so a report never passes vacuously.
    Each sample runs on numerator pairs: a stereographic point of random
    parameters, the tangent projection of a random imaginary vector, the
    unit-norm and orthogonality checks of `SpherePoint` and `TangentVector`
    (a failure raises), and the two raw products p x v and p x (p x v),
    compared with v by cross-multiplication instead of through
    `TangentVector` (which rejects a non-tangent image), so each flag can
    read false.  Only the reported example, the first sample, becomes a
    `CDElement`."""
    level = _level_for(sphere_dim)
    if samples < 1:
        raise ValueError(f"need at least 1 sample, got {samples}")
    rng = random.Random(seed)
    squared = tangent = normed = True
    example = None
    for _ in range(samples):
        p = _draw_point(sphere_dim, rng)
        _check_unit(p)
        v = _draw_tangent(level, p, rng)
        _check_orthogonal(v, p)
        (pnum, _), (vnum, vden) = p, v
        jnum, jden = jv = _cross(level, p, v)
        jjnum, jjden = _cross(level, p, jv)
        squared &= [x * vden for x in jjnum] == [-x * jjden for x in vnum]
        tangent &= not sum(map(mul, jnum, pnum))
        normed &= sum(map(mul, jnum, jnum)) * vden * vden == sum(map(mul, vnum, vnum)) * jden * jden
        if example is None:
            example = (CDElement._reduced(level, *p), CDElement._reduced(level, *v))
    return JVerificationReport(
        sphere_dim,
        samples,
        seed,
        squared,
        tangent,
        normed,
        *example,
    )
