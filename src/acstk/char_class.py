"""Characteristic classes in the truncated cohomology model of a sphere.

The rational cohomology of S^m is modelled as Q[x]/(x^2) with deg x = m:
a class is a degree-0 scalar plus a multiple of the single positive
generator, and any product of two positive-degree pieces vanishes.
Total Stiefel-Whitney / Chern / Pontryagin classes store, per index i,
the coefficient of the generator in the slot of formal degree i, 2i or
4i; a slot whose formal degree is not 0 or m is zero in this model and
is projected away on construction.

Stiefel-Whitney coefficients live in Z/2, the others in Q.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

from ._record import Record
from .symfun import _join_signed

Rational = Union[int, Fraction]

KIND_STIEFEL_WHITNEY = "stiefel_whitney"
KIND_CHERN = "chern"
KIND_PONTRYAGIN = "pontryagin"

_DEGREE_STRIDE = {KIND_STIEFEL_WHITNEY: 1, KIND_CHERN: 2, KIND_PONTRYAGIN: 4}


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class SphereCohomologyClass(Record):
    """An element a0 + a_top * x of Q[x]/(x^2), deg x = sphere_dim."""

    sphere_dim: int
    scalar0: Fraction
    scalar_top: Fraction

    def __post_init__(self):
        object.__setattr__(self, "scalar0", _frac(self.scalar0))
        object.__setattr__(self, "scalar_top", _frac(self.scalar_top))

    def _check(self, other):
        if self.sphere_dim != other.sphere_dim:
            raise ValueError("classes live on spheres of different dimension")

    def __add__(self, other):
        self._check(other)
        return SphereCohomologyClass(
            self.sphere_dim, self.scalar0 + other.scalar0, self.scalar_top + other.scalar_top
        )

    def __sub__(self, other):
        self._check(other)
        return SphereCohomologyClass(
            self.sphere_dim, self.scalar0 - other.scalar0, self.scalar_top - other.scalar_top
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _frac(other)
            return SphereCohomologyClass(self.sphere_dim, self.scalar0 * q, self.scalar_top * q)
        self._check(other)
        # x^2 = 0: top*top drops out
        return SphereCohomologyClass(
            self.sphere_dim,
            self.scalar0 * other.scalar0,
            self.scalar0 * other.scalar_top + self.scalar_top * other.scalar0,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def pairing(self) -> Fraction:
        """Kronecker pairing with the fundamental class: the x-coefficient."""
        return self.scalar_top


class TotalClass(Record):
    """A total characteristic class 1 + (indexed positive pieces) on S^m.

    `components[i]` is the generator coefficient of the i-th class; the
    degree-0 part is always 1.  Pieces whose formal degree differs from
    the sphere dimension are zero in the model and are dropped.
    """

    kind: str
    sphere_dim: int
    components: Mapping[int, Fraction]

    def __post_init__(self):
        if self.kind not in _DEGREE_STRIDE:
            raise ValueError(f"unknown class kind {self.kind!r}")
        stride = _DEGREE_STRIDE[self.kind]
        clean = {}
        for i, c in dict(self.components).items():
            i = int(i)
            if i < 1:
                raise ValueError(f"class indices start at 1, got {i}")
            if self.kind == KIND_STIEFEL_WHITNEY:
                c = _frac(c)
                if c.denominator != 1:
                    raise ValueError("mod-2 classes need integer coefficients")
                c = Fraction(c.numerator % 2)
            else:
                c = _frac(c)
            if stride * i != self.sphere_dim:
                c = Fraction(0)  # H^(stride*i)(S^m) = 0 away from the top
            if c != 0:
                clean[i] = c
        object.__setattr__(self, "components", dict(sorted(clean.items())))

    @classmethod
    def unit(cls, kind: str, sphere_dim: int) -> "TotalClass":
        return cls(kind, sphere_dim, {})

    def component(self, i: int) -> Fraction:
        return self.components.get(i, Fraction(0))

    def degree_of_index(self, i: int) -> int:
        return _DEGREE_STRIDE[self.kind] * i

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "sphere_dim": self.sphere_dim,
            "components": {str(i): str(c) for i, c in self.components.items()},
        }

    def __str__(self):
        letter = {"stiefel_whitney": "w", "chern": "c", "pontryagin": "p"}[self.kind]
        parts = ["1"]
        for i, c in self.components.items():
            head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
            parts.append(f"{head}{letter}{i}")
        return _join_signed(parts)


def whitney_product(a: TotalClass, b: TotalClass) -> TotalClass:
    """Product of total classes in the sphere model.

    Because every positive piece sits in the top degree and the top
    generator squares to zero, the graded convolution collapses to
    componentwise addition (mod 2 for Stiefel-Whitney classes).
    """
    if a.kind != b.kind:
        raise ValueError(f"cannot multiply a {a.kind} class by a {b.kind} class")
    if a.sphere_dim != b.sphere_dim:
        raise ValueError("classes live on spheres of different dimension")
    out: dict[int, Fraction] = {}
    for i in set(a.components) | set(b.components):
        out[i] = a.component(i) + b.component(i)
    # cross terms a_j * b_k (j, k > 0) all carry x^2 = 0 and vanish
    return TotalClass(a.kind, a.sphere_dim, out)


def conjugate_classes(c: TotalClass) -> TotalClass:
    """Chern classes of the conjugate bundle: flip odd-indexed signs."""
    if c.kind != KIND_CHERN:
        raise ValueError(f"conjugation acts on chern classes, got {c.kind}")
    return TotalClass(
        c.kind,
        c.sphere_dim,
        {i: (-v if i % 2 else v) for i, v in c.components.items()},
    )


def pontryagin_from_complexification(c: TotalClass) -> TotalClass:
    """p_i = (-1)^i c_{2i} of the complexification; odd-indexed Chern
    components are torsion and are discarded."""
    if c.kind != KIND_CHERN:
        raise ValueError(f"expected the chern classes of a complexification, got {c.kind}")
    comps = {}
    for i, v in c.components.items():
        if i % 2 == 0:
            j = i // 2
            comps[j] = v if j % 2 == 0 else -v
    return TotalClass(KIND_PONTRYAGIN, c.sphere_dim, comps)


def euler_from_top_chern(c: TotalClass, n: int) -> Fraction:
    """Euler number contribution of a rank-n complex bundle: the
    generator coefficient of c_n (0 when absent)."""
    if c.kind != KIND_CHERN:
        raise ValueError(f"expected chern classes, got {c.kind}")
    return c.component(n)


class LemmaReplay(Record):
    """Step-by-step record of the top-Pontryagin / Euler-class identity
    forced on S^{4k} by an almost complex structure, ending in the
    nonzero pairing (-1)^k * 4 that contradicts the vanishing of
    Pontryagin classes on spheres."""

    k: int
    sphere_dim: int
    steps: tuple
    euler_pairing: Fraction
    pairing: Fraction
    contradiction: bool
    assumed_axioms: tuple

    def as_dict(self) -> dict:
        return {
            "lemma": "pontryagin_euler",
            "k": self.k,
            "sphere_dim": self.sphere_dim,
            "steps": [dict(s) for s in self.steps],
            "euler_pairing": str(self.euler_pairing),
            "pairing": str(self.pairing),
            "contradiction": self.contradiction,
            "assumed_axioms": list(self.assumed_axioms),
        }


AX_COMPLEX_TANGENT_SPLITS = (
    "an almost complex structure splits the complexified tangent bundle "
    "into the bundle and its conjugate"
)
AX_EULER_CHAR_SPHERE = "chi(S^{2n}) = 2"
AX_EULER_IS_TOP_CHERN = "e(E_R) = c_n(E) for a rank-n complex bundle E"
AX_STABLY_TRIVIAL = (
    "T(S^n) is stably trivial, so its Stiefel-Whitney, Chern and "
    "Pontryagin classes are trivial"
)
AX_SPHERE_COHOMOLOGY_GAP = "H^j(S^m) = 0 for 0 < j < m"


def replay_lemma_pontryagin_euler(k: int) -> LemmaReplay:
    """Replay, with exact class arithmetic on S^{4k}, the chain

        c(T tensor C) = c(T) c(conj T) = (1 + c_{2k})^2 = 1 + 2 c_{2k}
        => (-1)^k p_k = 2 e,   pairing (-1)^k * 4 != 0,

    which contradicts the vanishing of sphere Pontryagin classes.  The
    hypothetical tangent class is carried with unit coefficient (the
    symbol c_{2k}(T) itself); the Euler pairing <c_{2k}(T)> = 2 enters at
    the end.
    """
    if k < 1:
        raise ValueError(f"the argument applies to S^{{4k}} with k >= 1, got k = {k}")
    m = 4 * k
    c_t = TotalClass(KIND_CHERN, m, {2 * k: 1})
    c_tbar = conjugate_classes(c_t)
    c_complexified = whitney_product(c_t, c_tbar)
    p = pontryagin_from_complexification(c_complexified)
    euler_pairing = Fraction(2)  # <c_{2k}(T)> = e(T(S^m)) pairing = chi = 2
    pairing = p.component(k) * euler_pairing
    steps = (
        {
            "label": "c(T) for a hypothetical complex tangent bundle T",
            "class": c_t.as_dict(),
            "note": "only the top class can be nonzero on a sphere",
        },
        {"label": "c(conj T)", "class": c_tbar.as_dict()},
        {
            "label": "c(T tensor C) = c(T) * c(conj T)",
            "class": c_complexified.as_dict(),
        },
        {
            "label": "pontryagin classes of the complexification",
            "class": p.as_dict(),
        },
        {
            "label": "pair against the fundamental class",
            "euler_pairing": str(euler_pairing),
            "pairing": str(pairing),
        },
    )
    return LemmaReplay(
        k=k,
        sphere_dim=m,
        steps=steps,
        euler_pairing=euler_pairing,
        pairing=pairing,
        contradiction=pairing != 0,
        assumed_axioms=(
            AX_COMPLEX_TANGENT_SPLITS,
            AX_EULER_CHAR_SPHERE,
            AX_EULER_IS_TOP_CHERN,
            AX_SPHERE_COHOMOLOGY_GAP,
            AX_STABLY_TRIVIAL,
        ),
    )
