"""Acceptance suite: one test per release criterion, each printing a
PASS line with its runtime (run with `pytest tests/test_acceptance.py -v -s`).

Every assertion is exact (Fraction equality); the only tolerances are
the per-criterion runtime budgets, which are asserted as hard bounds.
"""

import random
import time
from fractions import Fraction

from acstk.cayley_dickson import (
    CDElement,
    associator,
    basis_product,
    probe_alternative,
)
from acstk.char_class import replay_lemma_pontryagin_euler
from acstk.classify import classify_range
from acstk.genera import bernoulli, l_polynomial, s_coefficient
from acstk.sphere_acs import (
    SpherePoint,
    TangentVector,
    nijenhuis,
    verify_j_structure,
)
from acstk.symfun import GradedPoly, newton_polynomial, power_sums_from_values
from oracles import (
    beta_variables,
    elementary_symmetric,
    nijenhuis_fd,
    positive_bernoulli_oracle,
    power_sum,
    random_cd_element,
    random_sphere_sample,
    s_series,
    substitute,
    unit_poly,
)


def _finish(number: int, name: str, started: float, budget: float):
    elapsed = time.monotonic() - started
    print(f"criterion {number} ({name}): PASS ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget: {elapsed:.2f}s"


def test_criterion_1_l_polynomial_golden():
    started = time.monotonic()
    p1 = GradedPoly.generator(("p1",), (1,), "p1")
    assert l_polynomial(1) == p1 * Fraction(1, 3)

    g2, w2 = ("p1", "p2"), (1, 2)
    a1, a2 = (GradedPoly.generator(g2, w2, g) for g in g2)
    assert l_polynomial(2) == (7 * a2 - a1**2) * Fraction(1, 45)

    g3, w3 = ("p1", "p2", "p3"), (1, 2, 3)
    b1, b2, b3 = (GradedPoly.generator(g3, w3, g) for g in g3)
    assert l_polynomial(3) == (62 * b3 - 13 * b2 * b1 + 2 * b1**3) * Fraction(1, 945)
    _finish(1, "L-polynomial golden values", started, 1.0)


def test_criterion_2_s_coefficient_triple_agreement():
    started = time.monotonic()
    generating = s_series(6)
    for k in range(7):
        closed = s_coefficient(k)
        assert closed == generating[k]
        if k >= 1:
            assert closed == l_polynomial(k).coefficient_of_generator(f"p{k}")
    _finish(2, "s_k triple agreement, k <= 6", started, 5.0)


def test_criterion_3_bernoulli_extraction():
    started = time.monotonic()
    expected = [
        Fraction(1, 6),
        Fraction(1, 30),
        Fraction(1, 42),
        Fraction(1, 30),
        Fraction(5, 66),
        Fraction(691, 2730),
    ]
    for k, value in enumerate(expected, start=1):
        assert bernoulli(k) == value
        assert positive_bernoulli_oracle(k) == value
    _finish(3, "Bernoulli numbers vs recurrence oracle", started, 5.0)


def test_criterion_4_j_verification():
    started = time.monotonic()
    for sphere_dim in (2, 6):
        report = verify_j_structure(sphere_dim, samples=1000, seed=0)
        assert report.j_squared_negates
        assert report.image_tangent
        assert report.norm_preserved
    _finish(4, "J^2 = -Id on 1000 samples per sphere", started, 10.0)


def test_criterion_5_nijenhuis_dichotomy():
    started = time.monotonic()
    rng = random.Random(0)
    lam = Fraction(5, 3)

    # flat side: 100 sampled triples on the 2-sphere, all exactly zero,
    # with antisymmetry and scaling holding exactly as well
    for _ in range(100):
        p, u, v = random_sphere_sample(2, rng, 2)
        value = nijenhuis(p, u, v)
        assert not value
        assert nijenhuis(p, v, u) == -value
        assert nijenhuis(p, TangentVector(p, u.vector * lam), v) == value * lam

    # non-integrable side: the frozen witness plus sampled properties
    p6 = SpherePoint(CDElement.basis(3, 1))
    u6 = TangentVector(p6, CDElement.basis(3, 2))
    v6 = TangentVector(p6, CDElement.basis(3, 4))
    witness = nijenhuis(p6, u6, v6)
    assert witness == CDElement.basis(3, 7) * 4
    assert nijenhuis_fd(p6, u6, v6) == witness

    for _ in range(6):
        p, u, v = random_sphere_sample(6, rng, 2)
        value = nijenhuis(p, u, v)
        assert nijenhuis(p, v, u) == -value
        assert nijenhuis(p, TangentVector(p, u.vector * lam), v) == value * lam
        assert value.inner(p.vector) == 0
    _finish(5, "Nijenhuis dichotomy S^2 flat / S^6 witness", started, 30.0)


def test_criterion_6_classification_sweep():
    started = time.monotonic()
    verdicts = classify_range(1, 200, samples=10, seed=0)
    exists = [v.n for v in verdicts if v.status == "exists"]
    assert exists == [2, 6]
    for v in verdicts:
        assert v.certificate
        if v.n % 4 == 0:
            k = v.n // 4
            pairing = Fraction(v.certificate["pontryagin_euler"]["witness"])
            forced = Fraction(v.certificate["signature"]["witness"])
            assert pairing == (-1) ** k * 4
            assert forced == (-1) ** k * 4 * s_coefficient(k)
            assert pairing != 0 and forced != 0
    _finish(6, "classification sweep 1..200", started, 10.0)


def test_criterion_7_newton_identity_oracle():
    started = time.monotonic()
    # direct symbolic expansion up to k = 6
    for k in range(1, 7):
        for m in (k, k + 1, k + 2):
            values = {f"s{j}": elementary_symmetric(m, j) for j in range(1, k + 1)}
            assert substitute(newton_polynomial(k), values) == power_sum(m, k)
    # k = 7, 8: the same substitution homomorphism evaluated in recursion
    # order (exact), plus exact spot evaluation of the stored polynomial
    rng = random.Random(1)
    for k in (7, 8):
        for m in (k, k + 1, k + 2):
            sig = [elementary_symmetric(m, j) for j in range(1, k + 1)]
            nus = power_sums_from_values(sig, k, unit_poly(beta_variables(m)))
            assert nus[k - 1] == power_sum(m, k)
            beta = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(m)]
            values = {f"s{j}": sig[j - 1].evaluate(beta) for j in range(1, k + 1)}
            assert substitute(newton_polynomial(k), values) == sum(b**k for b in beta)
    # single-nonzero-class collapse: nu_n = (-1)^(n-1) * n * c_n
    for n in range(1, 9):
        values = {f"s{i}": Fraction(0) for i in range(1, n)}
        values[f"s{n}"] = Fraction(3)
        assert substitute(newton_polynomial(n), values) == (-1) ** (n - 1) * n * 3
    _finish(7, "Newton identities vs power sums, k <= 8", started, 30.0)


def test_criterion_8_algebra_property_suite():
    started = time.monotonic()
    # anti-automorphism, exhaustively over basis pairs up to the octonions
    for level in (0, 1, 2, 3):
        dim = 1 << level
        for i in range(dim):
            for j in range(dim):
                a, b = CDElement.basis(level, i), CDElement.basis(level, j)
                assert (a * b).conjugate() == b.conjugate() * a.conjugate()

    # composition of norms at levels <= 3: exhaustive basis pairs + samples
    rng = random.Random(2)
    for level in (2, 3):
        dim = 1 << level
        for i in range(dim):
            for j in range(dim):
                a, b = CDElement.basis(level, i), CDElement.basis(level, j)
                assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()
        for _ in range(25):
            a = random_cd_element(level, rng)
            b = random_cd_element(level, rng)
            assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()

    # alternating associator at level 3, exhaustively over basis triples
    # with a repeated argument (and random repeated-argument samples)
    for i in range(8):
        for j in range(8):
            a, b = CDElement.basis(3, i), CDElement.basis(3, j)
            assert not associator(a, a, b)
            assert not associator(a, b, b)
            assert not associator(a, b, a)
    for _ in range(25):
        u = random_cd_element(3, rng)
        v = random_cd_element(3, rng)
        assert not associator(u, u, v)
        assert not associator(u, v, v)

    # level 4 is not alternative: a concrete witness must be found
    report = probe_alternative(4, samples=100, seed=0)
    assert not report.alternative
    value = associator(report.witness_u, report.witness_u, report.witness_v)
    assert value and value == report.witness_associator

    # and the norm composition fails at level 4 (zero divisors exist)
    found = None
    for i in range(1, 16):
        for j in range(i + 1, 16):
            for k in range(1, 16):
                for l in range(k + 1, 16):
                    parts = {}
                    for a, b in ((i, k), (i, l), (j, k), (j, l)):
                        s, idx = basis_product(4, a, b)
                        parts[idx] = parts.get(idx, 0) + s
                    if all(c == 0 for c in parts.values()):
                        found = (i, j, k, l)
                        break
                if found:
                    break
            if found:
                break
        if found:
            break
    assert found is not None
    u = CDElement.basis(4, found[0]) + CDElement.basis(4, found[1])
    v = CDElement.basis(4, found[2]) + CDElement.basis(4, found[3])
    assert (u * v).norm_sq() == 0 != u.norm_sq() * v.norm_sq()
    _finish(8, "algebra property suite", started, 30.0)


def test_criterion_9_lemma_replay():
    started = time.monotonic()
    for k in range(1, 11):
        replay = replay_lemma_pontryagin_euler(k)
        assert replay.pairing == (-1) ** k * 4
        assert replay.contradiction
        # the chain must pass through 1 + 2 c_{2k}
        complexified = replay.steps[2]["class"]
        assert complexified["components"] == {str(2 * k): "2"}
    _finish(9, "top-Pontryagin/Euler replay, k <= 10", started, 1.0)
