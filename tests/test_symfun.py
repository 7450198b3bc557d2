import random
from fractions import Fraction

import pytest

from acstk.symfun import (
    GradedPoly,
    MultiPoly,
    beta_variables,
    elementary_symmetric,
    expand_in_roots,
    newton_polynomial,
    power_sum,
    power_sums_from_values,
    reduce_to_elementary,
    sigma_generators,
    substitute,
)


def random_multipoly(variables, rng, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in variables)
        terms[exps] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return MultiPoly(variables, terms)


def test_elementary_symmetric_examples():
    variables = beta_variables(3)
    b1 = MultiPoly.variable(variables, "b1")
    b2 = MultiPoly.variable(variables, "b2")
    b3 = MultiPoly.variable(variables, "b3")
    assert elementary_symmetric(3, 1) == b1 + b2 + b3
    assert elementary_symmetric(3, 3) == b1 * b2 * b3
    assert elementary_symmetric(3, 0) == MultiPoly.constant(variables, 1)
    with pytest.raises(ValueError):
        elementary_symmetric(3, 4)


def test_elementary_symmetric_generating_product():
    # coefficients of prod_i (1 + b_i z) in the mixed ring (b1..b4, z)
    m = 4
    names = beta_variables(m) + ("z",)
    z = MultiPoly.variable(names, "z")
    product = MultiPoly.constant(names, 1)
    for i in range(1, m + 1):
        product = product * (1 + MultiPoly.variable(names, f"b{i}") * z)
    for j in range(m + 1):
        sigma = elementary_symmetric(m, j)
        expected = {}
        for exps, coeff in sigma.terms.items():
            expected[exps + (j,)] = coeff
        actual = {e: c for e, c in product.terms.items() if e[-1] == j}
        assert actual == expected


def test_newton_polynomial_small_cases():
    gens1, w1 = sigma_generators(1)
    assert newton_polynomial(1) == GradedPoly.generator(gens1, w1, "s1")
    gens2, w2 = sigma_generators(2)
    s1 = GradedPoly.generator(gens2, w2, "s1")
    s2 = GradedPoly.generator(gens2, w2, "s2")
    assert newton_polynomial(2) == s1 * s1 - 2 * s2
    gens3, w3 = sigma_generators(3)
    t1 = GradedPoly.generator(gens3, w3, "s1")
    t2 = GradedPoly.generator(gens3, w3, "s2")
    t3 = GradedPoly.generator(gens3, w3, "s3")
    assert newton_polynomial(3) == t1**3 - 3 * t1 * t2 + 3 * t3
    with pytest.raises(ValueError):
        newton_polynomial(0)


def test_newton_polynomials_are_homogeneous():
    for k in range(1, 9):
        assert newton_polynomial(k).is_homogeneous(k)


def test_newton_expansion_equals_power_sums_direct():
    for k in range(1, 6):
        for m in (k, k + 1, k + 2):
            assert expand_in_roots(newton_polynomial(k), m) == power_sum(m, k)


def test_newton_recursion_on_expanded_values():
    # the same substitution homomorphism evaluated in recursion order
    for k in (6, 7):
        for m in (k, k + 2):
            sig = [elementary_symmetric(m, j) for j in range(1, k + 1)]
            nus = power_sums_from_values(sig, k, MultiPoly.zero(beta_variables(m)))
            assert nus[k - 1] == power_sum(m, k)


def test_single_nonzero_class_collapse():
    # nu_k at s_k = c, everything else 0, is (-1)^(k-1) * k * c
    for k in range(1, 9):
        values = {f"s{i}": Fraction(0) for i in range(1, k)}
        values[f"s{k}"] = Fraction(5)
        assert substitute(newton_polynomial(k), values) == (-1) ** (k - 1) * k * 5


def test_reduce_to_elementary_examples():
    two = beta_variables(2)
    b1 = MultiPoly.variable(two, "b1")
    b2 = MultiPoly.variable(two, "b2")
    gens, weights = sigma_generators(2)
    s1 = GradedPoly.generator(gens, weights, "s1")
    s2 = GradedPoly.generator(gens, weights, "s2")
    assert reduce_to_elementary(b1 * b1 + b2 * b2) == s1 * s1 - 2 * s2
    assert reduce_to_elementary(b1 * b2) == s2
    assert reduce_to_elementary(b1 * b2 * (b1 + b2)) == s1 * s2


def test_reduce_rejects_non_symmetric_input():
    two = beta_variables(2)
    b1 = MultiPoly.variable(two, "b1")
    with pytest.raises(ValueError, match="swapping b1 and b2"):
        reduce_to_elementary(b1)


def test_reduce_round_trip():
    rng = random.Random(0)
    for m in (2, 3, 4):
        gens, weights = sigma_generators(m)
        for _ in range(10):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exps = tuple(rng.randint(0, 2) for _ in range(m))
                if sum(w * e for w, e in zip(weights, exps)) <= 8:
                    terms[exps] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            g = GradedPoly(gens, weights, terms)
            assert reduce_to_elementary(expand_in_roots(g, m)) == g


def test_reduce_round_trip_on_generators_to_weight_8():
    m = 8
    gens, weights = sigma_generators(m)
    for j in range(1, m + 1):
        sigma_j = GradedPoly.generator(gens, weights, f"s{j}")
        assert reduce_to_elementary(expand_in_roots(sigma_j, m)) == sigma_j


def test_substitute_examples():
    assert substitute(newton_polynomial(2), {"s1": 3, "s2": 2}) == 5
    gens, weights = sigma_generators(2)
    identity = {
        "s1": GradedPoly.generator(gens, weights, "s1"),
        "s2": GradedPoly.generator(gens, weights, "s2"),
    }
    assert substitute(newton_polynomial(2), identity) == newton_polynomial(2)
    with pytest.raises(ValueError, match="unassigned generator s2"):
        substitute(newton_polynomial(2), {"s1": 1})


def test_substitute_power_sums_at_random_points():
    rng = random.Random(1)
    for k in range(1, 7):
        for m in (2, 3, 4):
            beta = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(m)]
            values = {
                f"s{j}": elementary_symmetric(m, j).evaluate(beta) if j <= m else Fraction(0)
                for j in range(1, k + 1)
            }
            assert substitute(newton_polynomial(k), values) == sum(b**k for b in beta)


@pytest.mark.parametrize(
    "make",
    [
        MultiPoly,
        lambda variables, terms: GradedPoly(variables, (1, 2, 3), terms),
    ],
    ids=["unit-weights", "weights-1-2-3"],
)
def test_ring_axioms_randomized(make):
    rng = random.Random(2)
    variables = ("x", "y", "z")
    for _ in range(25):
        a, b, c = (make(variables, random_multipoly(variables, rng).terms) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a**3 == a * a * a
        assert a - a == make(variables, {})


def test_multipoly_diff_and_evaluate():
    variables = ("x", "y")
    x = MultiPoly.variable(variables, "x")
    y = MultiPoly.variable(variables, "y")
    p = x**3 * y + 2 * y**2 - 7
    assert p.diff("x") == 3 * x**2 * y
    assert p.diff("y") == x**3 + 4 * y
    assert p.evaluate([Fraction(2), Fraction(1, 2)]) == 8 * Fraction(1, 2) + Fraction(1, 2) - 7
    assert p.evaluate({"x": 2, "y": Fraction(1, 2)}) == p.evaluate([2, Fraction(1, 2)])
    with pytest.raises(ValueError):
        p.evaluate([1])


def test_variable_mismatch_is_rejected():
    a = MultiPoly.variable(("x", "y"), "x")
    b = MultiPoly.variable(("x",), "x")
    with pytest.raises(ValueError, match="variable mismatch"):
        a + b
    with pytest.raises(ValueError):
        MultiPoly(("x",), {(1, 2): 1})


def test_graded_poly_weights_and_truncation():
    gens = ("p1", "p2")
    weights = (1, 2)
    p1 = GradedPoly.generator(gens, weights, "p1")
    p2 = GradedPoly.generator(gens, weights, "p2")
    mix = p1**2 + p2 + p1**4
    assert mix.homogeneous_component(2) == p1**2 + p2
    assert mix.truncate(2) == p1**2 + p2
    assert not mix.is_homogeneous()
    assert (p1**2 + p2).is_homogeneous(2)
    comps = mix.homogeneous_components()
    assert set(comps) == {2, 4}
    assert mix.max_weight() == 4


def test_graded_poly_rename_and_restrict():
    gens, weights = sigma_generators(3)
    s1 = GradedPoly.generator(gens, weights, "s1")
    renamed = s1.rename_generators({"s1": "p1", "s2": "p2", "s3": "p3"})
    assert renamed.generators == ("p1", "p2", "p3")
    restricted = s1.restrict_generators(("s1", "s2"))
    assert restricted.generators == ("s1", "s2")
    s3 = GradedPoly.generator(gens, weights, "s3")
    with pytest.raises(ValueError, match="cannot drop"):
        s3.restrict_generators(("s1", "s2"))


def test_rendering_canonical_order():
    assert str(newton_polynomial(2)) == "s1^2 - 2*s2"
    assert str(newton_polynomial(3)) == "s1^3 - 3*s1*s2 + 3*s3"
    variables = ("x",)
    x = MultiPoly.variable(variables, "x")
    assert str(2 * x**2 - x + 1) == "1 - x + 2*x^2"
    assert str(MultiPoly.zero(variables)) == "0"
