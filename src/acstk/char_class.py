"""Characteristic classes in the truncated cohomology model of a sphere.

The rational cohomology of S^m is modelled as Q[x]/(x^2) with deg x = m:
a class is a degree-0 scalar plus a multiple of the single positive
generator, and any product of two positive-degree pieces vanishes.  Every
positive-degree characteristic class of a bundle on S^m is zero except
the one of degree m, so a total Chern or Pontryagin class is 1 + a x,
where a is the coefficient of that one class.
"""

from __future__ import annotations

from fractions import Fraction

from ._exact import _frac
from ._record import Record


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
        if not isinstance(other, SphereCohomologyClass):
            return NotImplemented
        self._check(other)
        return SphereCohomologyClass(
            self.sphere_dim, self.scalar0 + other.scalar0, self.scalar_top + other.scalar_top
        )

    def __sub__(self, other):
        if not isinstance(other, SphereCohomologyClass):
            return NotImplemented
        self._check(other)
        return SphereCohomologyClass(
            self.sphere_dim, self.scalar0 - other.scalar0, self.scalar_top - other.scalar_top
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _frac(other)
            return SphereCohomologyClass(self.sphere_dim, self.scalar0 * q, self.scalar_top * q)
        if not isinstance(other, SphereCohomologyClass):
            return NotImplemented
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


def _class_step(kind: str, index: int, total: SphereCohomologyClass) -> dict:
    """A replay step's class 1 + a x, filed as the single nonzero class
    of this kind: index `index` carries the coefficient a."""
    return {
        "kind": kind,
        "sphere_dim": total.sphere_dim,
        "components": {str(index): str(total.scalar_top)},
    }


def replay_lemma_pontryagin_euler(k: int) -> LemmaReplay:
    """Replay, with exact class arithmetic in Q[x]/(x^2) on S^{4k}, the chain

        c(T tensor C) = c(T) c(conj T) = (1 + c_{2k})^2 = 1 + 2 c_{2k}
        => (-1)^k p_k = 2 e,   pairing (-1)^k * 4 != 0,

    which contradicts the vanishing of sphere Pontryagin classes.  The
    hypothetical tangent class is carried with unit coefficient (the
    symbol c_{2k}(T) itself, as x); the Euler pairing <c_{2k}(T)> = 2
    enters at the end.
    """
    if k < 1:
        raise ValueError(f"the argument applies to S^{{4k}} with k >= 1, got k = {k}")
    m = 4 * k
    one = SphereCohomologyClass(m, 1, 0)
    x = SphereCohomologyClass(m, 0, 1)
    c_t = one + x
    c_tbar = one + (-1) ** (2 * k) * x  # c_i(conj T) = (-1)^i c_i(T)
    c_complexified = c_t * c_tbar
    # p_k = (-1)^k c_{2k}(T tensor C)
    p = one + (-1) ** k * c_complexified.pairing() * x
    euler_pairing = Fraction(2)  # <c_{2k}(T)> = e(T(S^m)) pairing = chi = 2
    pairing = p.pairing() * euler_pairing
    steps = (
        {
            "label": "c(T) for a hypothetical complex tangent bundle T",
            "class": _class_step("chern", 2 * k, c_t),
            "note": "only the top class can be nonzero on a sphere",
        },
        {"label": "c(conj T)", "class": _class_step("chern", 2 * k, c_tbar)},
        {
            "label": "c(T tensor C) = c(T) * c(conj T)",
            "class": _class_step("chern", 2 * k, c_complexified),
        },
        {
            "label": "pontryagin classes of the complexification",
            "class": _class_step("pontryagin", k, p),
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
