"""Per-dimension classification of spheres by almost complex structures,
with machine-checkable certificates.

Every verdict separates what was computed (nonzero pairings, exact
s-coefficients, factorial divisibility) from what is consumed as an
axiom (Euler characteristic of even spheres, stable triviality of sphere
tangent bundles, vanishing signature, integrality of the Chern character
image); the axioms are listed verbatim in each certificate.

The check order is: odd dimension, then the top-Pontryagin/Euler
contradiction on S^{4k} (with the signature route as a corroborating
second certificate), then Chern-character divisibility on the remaining
even dimensions.  The survivors are exactly dimensions 2 and 6, for
which the explicit cross-product structure is verified by sampling.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from ._record import Record
from .char_class import (
    AX_COMPLEX_TANGENT_SPLITS,
    AX_EULER_CHAR_SPHERE,
    AX_EULER_IS_TOP_CHERN,
    AX_SPHERE_COHOMOLOGY_GAP,
    replay_lemma_pontryagin_euler,
)
from .errors import InternalInvariantError
from .genera import chern_character, s_coefficient
from .sphere_acs import verify_j_structure
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

    def to_json(self) -> str:
        import json

        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def check_odd(n: int) -> Optional[dict]:
    """Odd dimensions fall to the determinant parity argument; recorded
    as an axiom since no further computation exists at this level."""
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


def check_pontryagin_euler(n: int) -> Optional[dict]:
    """For n = 4k, replay the top-Pontryagin/Euler contradiction."""
    if n % 4 != 0 or n == 0:
        return None
    k = n // 4
    replay = replay_lemma_pontryagin_euler(k)
    if replay.pairing == 0:
        raise InternalInvariantError(
            f"pontryagin/euler pairing vanished for n = {n}"
        )
    cert = replay.as_dict()
    cert["reason"] = REASON_PONTRYAGIN_EULER
    cert["witness"] = str(replay.pairing)
    return cert


def check_signature(n: int) -> dict:
    """Second, independent route for n = 4k: the signature of S^{4k} is
    zero, yet an almost complex structure would force it to be
    (-1)^k * 4 * s_k with s_k > 0.  Stores s_k exactly."""
    if n % 4 != 0 or n == 0:
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
        "assumed_axioms": [
            AX_COMPLEX_TANGENT_SPLITS,
            AX_EULER_CHAR_SPHERE,
            AX_EULER_IS_TOP_CHERN,
            AX_SIGNATURE_THEOREM,
            AX_SIGNATURE_VANISHES,
            AX_SPHERE_COHOMOLOGY_GAP,
        ],
    }


def check_chern_divisibility(n: int) -> Optional[dict]:
    """For even n = 2m, expand the Chern character of a hypothetical
    rank-m complex tangent bundle whose only class is c_m.  Integrality
    plus the Euler pairing <c_m> = 2 force (m-1)! to divide 2; return a
    certificate when it does not."""
    if n % 2 != 0:
        raise ValueError(f"the divisibility route applies to even spheres, got n = {n}")
    m = n // 2
    top = GradedPoly.generator(("x",), (m,), "x")
    zero = GradedPoly.zero(("x",), (m,))
    classes = [zero] * (m - 1) + [top]
    ch = chern_character(m, classes, max_weight=m)
    top_coeff = ch.coefficient_of_generator("x")
    expected = Fraction((-1) ** (m - 1), math.factorial(m - 1))
    if top_coeff != expected:
        raise InternalInvariantError(
            f"chern character top coefficient {top_coeff} != {expected} for m = {m}"
        )
    euler_pairing = Fraction(2)
    factorial = math.factorial(m - 1)
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
        "assumed_axioms": [
            AX_CH_INTEGRAL,
            AX_EULER_CHAR_SPHERE,
            AX_EULER_IS_TOP_CHERN,
            AX_SPHERE_COHOMOLOGY_GAP,
        ],
    }
    if remainder == 0:
        return None
    return cert


def classify_sphere(n: int, samples: int = 25, seed: int = 0) -> SphereVerdict:
    """Classify S^n, attaching the certificate of the first obstruction
    that fires, or sampling evidence for the explicit construction when
    none does (exactly at n = 2 and n = 6)."""
    if n < 1:
        raise ValueError(f"sphere dimension must be at least 1, got {n}")
    if samples < 1:
        raise ValueError(f"need at least 1 sample, got {samples}")

    odd = check_odd(n)
    if odd is not None:
        return SphereVerdict(
            n, STATUS_RULED_OUT, REASON_ODD, odd, tuple(odd["assumed_axioms"])
        )

    pontryagin = check_pontryagin_euler(n)
    if pontryagin is not None:
        signature = check_signature(n)
        certificate = {"pontryagin_euler": pontryagin, "signature": signature}
        axioms = sorted(
            set(pontryagin["assumed_axioms"]) | set(signature["assumed_axioms"])
        )
        return SphereVerdict(
            n, STATUS_RULED_OUT, REASON_PONTRYAGIN_EULER, certificate, tuple(axioms)
        )

    divisibility = check_chern_divisibility(n)
    if divisibility is not None:
        return SphereVerdict(
            n,
            STATUS_RULED_OUT,
            REASON_CHERN_DIVISIBILITY,
            divisibility,
            tuple(divisibility["assumed_axioms"]),
        )

    if n not in (2, 6):
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
            f"of the level-{2 if n == 2 else 3} doubling algebra"
        ),
        "verification": report.as_dict(),
    }
    return SphereVerdict(n, STATUS_EXISTS, REASON_CONSTRUCTION, cert, ())


def classify_range(start: int, stop: int, samples: int = 25, seed: int = 0) -> list[SphereVerdict]:
    """Classify every dimension in the inclusive range [start, stop]."""
    if start < 1 or stop < start:
        raise ValueError(f"invalid range {start}..{stop}")
    return [classify_sphere(n, samples=samples, seed=seed) for n in range(start, stop + 1)]
