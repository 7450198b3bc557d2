"""acstk: exact-rational computations around almost complex structures on
spheres.

The package decides, dimension by dimension and with machine-checkable
certificates, which spheres carry an almost complex structure (exactly
S^2 and S^6), and mechanizes every computation that decision rests on:
Cayley-Dickson algebra arithmetic, the cross-product structure J and its
Nijenhuis tensor, symmetric-function and power-series kernels, Bernoulli
numbers and L-polynomials, characteristic-class identities on spheres and
the Chern-character divisibility bound.  Everything is computed over
exact rationals; no floating point appears anywhere.
"""

from .cayley_dickson import (
    CDElement,
    associator,
    basis_product,
    embed,
    probe_alternative,
)
from .char_class import (
    SphereCohomologyClass,
    TotalClass,
    conjugate_classes,
    pontryagin_from_complexification,
    replay_lemma_pontryagin_euler,
    whitney_product,
)
from .classify import SphereVerdict, classify_range, classify_sphere
from .errors import InternalInvariantError
from .genera import (
    PowerSeries,
    bernoulli,
    chern_character,
    l_polynomial,
    q_series,
    s_coefficient,
    s_series,
)
from .sphere_acs import (
    SpherePoint,
    TangentVector,
    compare_nijenhuis_associator,
    cross,
    j_apply,
    nijenhuis,
    rational_sphere_point,
    tangent_projection,
    verify_j_structure,
)
from .symfun import GradedPoly, newton_polynomial

__version__ = "0.3.0"

__all__ = [
    "CDElement",
    "GradedPoly",
    "InternalInvariantError",
    "PowerSeries",
    "SphereCohomologyClass",
    "SpherePoint",
    "SphereVerdict",
    "TangentVector",
    "TotalClass",
    "associator",
    "basis_product",
    "bernoulli",
    "chern_character",
    "classify_range",
    "classify_sphere",
    "compare_nijenhuis_associator",
    "conjugate_classes",
    "cross",
    "embed",
    "j_apply",
    "l_polynomial",
    "newton_polynomial",
    "nijenhuis",
    "pontryagin_from_complexification",
    "probe_alternative",
    "q_series",
    "rational_sphere_point",
    "replay_lemma_pontryagin_euler",
    "s_coefficient",
    "s_series",
    "tangent_projection",
    "verify_j_structure",
    "whitney_product",
]
