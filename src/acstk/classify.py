"""Per-dimension classification of spheres by almost complex structures,
with machine-checkable certificates.

Every verdict separates what was computed (nonzero pairings, exact
s-coefficients, factorial divisibility) from what is consumed as an
axiom (Euler characteristic of even spheres, stable triviality of sphere
tangent bundles, vanishing signature, integrality of the Chern character
image); the axioms are listed verbatim in each certificate.

`ROUTES` lists the obstructions in the order `classify_sphere` tries
them: odd dimension, then the top-Pontryagin/Euler contradiction on
S^{4k} (with the signature route as a corroborating second certificate),
then Chern-character divisibility on the remaining even dimensions.  The
survivors are exactly dimensions 2 and 6, for which the explicit
cross-product structure is verified by sampling.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._exact import _check_int
from ._record import Record
from .char_class import (
    AX_COMPLEX_TANGENT_SPLITS,
    AX_EULER_CHAR_SPHERE,
    AX_EULER_IS_TOP_CHERN,
    AX_SPHERE_COHOMOLOGY_GAP,
    AX_STABLY_TRIVIAL,
    replay_lemma_pontryagin_euler,
)
from .errors import InternalInvariantError
from .genera import chern_character, s_coefficient
from .sphere_acs import SPHERE_LEVEL, verify_j_structure
from .symfun import GradedPoly

STATUS_EXISTS = "exists"
STATUS_RULED_OUT = "ruled_out"

REASON_ODD = "odd_dimension"
REASON_PONTRYAGIN_EULER = "pontryagin_euler"
REASON_SIGNATURE = "signature_L_genus"
REASON_CHERN_DIVISIBILITY = "chern_divisibility"
REASON_CONSTRUCTION = "explicit_construction"

AX_DETERMINANT_PARITY = "det(J)^2 = (-1)^n forces n even"
AX_SIGNATURE_VANISHES = "sigma(S^{4k}) = 0 because H^{2k}(S^{4k}; Z) = 0"
AX_SIGNATURE_THEOREM = "signature theorem: sigma(M^{4k}) = <L_k(p_1..p_k), [M]>"
AX_CH_INTEGRAL = "ch(S^{2n}) is integral"

_SIGNATURE_AXIOMS = (
    AX_COMPLEX_TANGENT_SPLITS, AX_EULER_CHAR_SPHERE, AX_EULER_IS_TOP_CHERN,
    AX_SIGNATURE_THEOREM, AX_SIGNATURE_VANISHES, AX_SPHERE_COHOMOLOGY_GAP,
)
_CHERN_AXIOMS = (AX_CH_INTEGRAL, AX_EULER_CHAR_SPHERE, AX_EULER_IS_TOP_CHERN, AX_SPHERE_COHOMOLOGY_GAP)


class SphereVerdict(Record):
    """Classification result for one sphere dimension."""

    n: int
    status: str
    reason: str
    certificate: dict
    assumed_axioms: tuple

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "status": self.status,
            "reason": self.reason,
            "certificate": self.certificate,
            "assumed_axioms": list(self.assumed_axioms),
        }


def check_odd(n: int) -> dict | None:
    """Odd dimensions fall to the determinant parity argument; recorded
    as an axiom since no further computation exists at this level."""
    _check_int(n, "sphere dimension", 1)
    if n % 2 == 0:
        return None
    return {
        "reason": REASON_ODD,
        "n_mod_2": n % 2,
        "statement": (
            "a square root of -identity on an n-dimensional space forces "
            "det(J)^2 = (-1)^n, but a real determinant squares to a "
            "non-negative number; impossible for odd n"
        ),
        "assumed_axioms": [AX_DETERMINANT_PARITY],
    }


def check_pontryagin_euler(n: int) -> dict | None:
    """For n = 4k, replay the top-Pontryagin/Euler contradiction."""
    _check_int(n, "sphere dimension", 1)
    if n % 4 != 0:
        return None
    cert = replay_lemma_pontryagin_euler(n // 4)
    if cert["pairing"] == "0":
        raise InternalInvariantError(f"pontryagin/euler pairing vanished for n = {n}")
    cert["reason"] = REASON_PONTRYAGIN_EULER
    cert["witness"] = cert["pairing"]
    return cert


def check_signature(n: int) -> dict:
    """Second, independent route for n = 4k: the signature of S^{4k} is
    zero, yet an almost complex structure would force it to be
    (-1)^k * 4 * s_k with s_k > 0.  Stores s_k exactly."""
    _check_int(n, "sphere dimension", 1)
    if n % 4 != 0:
        raise ValueError(f"the signature route applies to S^{{4k}}, got n = {n}")
    k = n // 4
    s_k = s_coefficient(k)
    witness = Fraction((-1) ** k * 4) * s_k
    if witness == 0:
        raise InternalInvariantError(f"signature witness vanished for n = {n}")
    return {
        "reason": REASON_SIGNATURE,
        "k": k,
        "s_k": str(s_k),
        "l_class_on_sphere": f"L_{k} = s_k * p_{k} (lower Pontryagin classes vanish)",
        "forced_signature": str(witness),
        "actual_signature": "0",
        "witness": str(witness),
        "assumed_axioms": list(_SIGNATURE_AXIOMS),
    }


def check_chern_divisibility(n: int) -> dict | None:
    """For even n = 2m, expand the Chern character of a hypothetical
    rank-m complex tangent bundle whose only class is c_m.  Integrality
    plus the Euler pairing <c_m> = 2 force (m-1)! to divide 2; return a
    certificate when it does not."""
    _check_int(n, "sphere dimension", None)
    if n % 2 != 0 or n < 2:
        raise ValueError(f"the divisibility route applies to S^{{2m}} with m >= 1, got n = {n}")
    m = n // 2
    top = GradedPoly.generator(("x",), (m,), "x")
    zero = GradedPoly.zero(("x",), (m,))
    classes = [zero] * (m - 1) + [top]
    ch = chern_character(classes, max_weight=m)
    top_coeff = ch.coefficient_of_generator("x")
    factorial = math.factorial(m - 1)
    expected = Fraction((-1) ** (m - 1), factorial)
    if top_coeff != expected:
        raise InternalInvariantError(
            f"chern character top coefficient {top_coeff} != {expected} for m = {m}"
        )
    euler_pairing = Fraction(2)
    remainder = 2 % factorial
    cert = {
        "reason": REASON_CHERN_DIVISIBILITY,
        "m": m,
        "chern_character": f"{m} + ({top_coeff}) * c_{m}",
        "top_coefficient": str(top_coeff),
        "euler_pairing": str(euler_pairing),
        "integrality_requires": f"(m-1)! = {factorial} divides 2",
        "factorial": factorial,
        "remainder": remainder,
        "witness": f"2 mod {factorial} = {remainder}",
        "assumed_axioms": list(_CHERN_AXIOMS),
    }
    if remainder == 0:
        return None
    return cert


def _pontryagin_euler_and_signature(n: int) -> dict | None:
    """Both certificates of S^{4k}, or None on other spheres."""
    pontryagin = check_pontryagin_euler(n)
    if pontryagin is None:
        return None
    return {"pontryagin_euler": pontryagin, "signature": check_signature(n)}


#: The obstructions, in the order `classify_sphere` tries them.  A row is
#: (reason, check, axioms, witness): check(n) is the certificate that rules
#: S^n out, or None; axioms are the ones the verdict lists; witness(cert) is
#: the text the CLI prints after the reason.  The public checks are looked
#: up by name at call time, so a wrapper bound to that name later (as
#: `bench/traced.py` binds its spans) sees every call.
ROUTES = (
    (REASON_ODD, lambda n: check_odd(n), (AX_DETERMINANT_PARITY,), lambda cert: ""),
    (
        REASON_PONTRYAGIN_EULER,
        _pontryagin_euler_and_signature,
        tuple(sorted({*_SIGNATURE_AXIOMS, AX_STABLY_TRIVIAL})),
        lambda cert: f", pairing {cert['pontryagin_euler']['witness']}, "
        f"forced signature {cert['signature']['witness']}",
    ),
    (
        REASON_CHERN_DIVISIBILITY,
        lambda n: check_chern_divisibility(n),
        _CHERN_AXIOMS,
        lambda cert: f", {cert['integrality_requires']} fails",
    ),
)


def classify_sphere(n: int, samples: int = 25, seed: int = 0) -> SphereVerdict:
    """Classify S^n, attaching the certificate of the first route in
    `ROUTES` that fires, or sampling evidence for the explicit construction
    when none does (exactly at n = 2 and n = 6)."""
    _check_int(n, "sphere dimension", 1)
    _check_int(samples, "samples", 1)
    _check_int(seed, "seed", None)
    for reason, check, axioms, _ in ROUTES:
        certificate = check(n)
        if certificate is not None:
            return SphereVerdict(n, STATUS_RULED_OUT, reason, certificate, axioms)

    if n not in SPHERE_LEVEL:
        raise InternalInvariantError(
            f"no obstruction fired for S^{n}, which should only happen for n in (2, 6)"
        )
    report = verify_j_structure(n, samples=samples, seed=seed)
    if not report.all_passed:
        raise InternalInvariantError(
            f"cross-product structure verification failed on S^{n}: {report.as_dict()}"
        )
    cert = {
        "reason": REASON_CONSTRUCTION,
        "construction": (
            "J_p(v) = p x v with the cross product of the imaginary part "
            f"of the level-{SPHERE_LEVEL[n]} doubling algebra"
        ),
        "verification": report.as_dict(),
    }
    return SphereVerdict(n, STATUS_EXISTS, REASON_CONSTRUCTION, cert, ())


def classify_range(start: int, stop: int, samples: int = 25, seed: int = 0) -> list[SphereVerdict]:
    """Classify every dimension in the inclusive range [start, stop]."""
    _check_int(start, "sphere dimension", 1)
    _check_int(stop, "sphere dimension", 1)
    if stop < start:
        raise ValueError(f"invalid range {start}..{stop}")
    return [classify_sphere(n, samples=samples, seed=seed) for n in range(start, stop + 1)]
