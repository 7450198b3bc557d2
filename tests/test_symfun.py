import abc
import math
import operator
import os
import random
import shutil
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from acstk.cayley_dickson import CDElement
from acstk.char_class import SphereCohomologyClass
from acstk.genera import chern_character, l_polynomial
from acstk.symfun import GradedPoly, newton_polynomial, power_sums_from_values
from oracles import (
    beta_variables,
    diff,
    elementary_symmetric,
    expand_in_roots,
    power_sum,
    reduce_to_elementary,
    sigma_generators,
    substitute,
    truncate,
    unit_constant,
    unit_poly,
    unit_variable,
)


def random_unit_poly(variables, rng, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in variables)
        terms[exps] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return unit_poly(variables, terms)


def test_elementary_symmetric_examples():
    variables = beta_variables(3)
    b1 = unit_variable(variables, "b1")
    b2 = unit_variable(variables, "b2")
    b3 = unit_variable(variables, "b3")
    assert elementary_symmetric(3, 1) == b1 + b2 + b3
    assert elementary_symmetric(3, 3) == b1 * b2 * b3
    assert elementary_symmetric(3, 0) == unit_constant(variables, 1)
    with pytest.raises(ValueError):
        elementary_symmetric(3, 4)


def test_elementary_symmetric_generating_product():
    # coefficients of prod_i (1 + b_i z) in the mixed ring (b1..b4, z)
    m = 4
    names = beta_variables(m) + ("z",)
    z = unit_variable(names, "z")
    product = unit_constant(names, 1)
    for i in range(1, m + 1):
        product = product * (1 + unit_variable(names, f"b{i}") * z)
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
    assert newton_polynomial(3) == t1 * t1 * t1 - 3 * t1 * t2 + 3 * t3
    with pytest.raises(ValueError):
        newton_polynomial(0)


def test_newton_polynomial_matches_newton_recursion():
    # the recursion on the generators is the oracle for the Girard-Waring form
    for k in range(1, 15):
        gens, weights = sigma_generators(k)
        sigma = [GradedPoly.generator(gens, weights, g) for g in gens]
        recursion = power_sums_from_values(sigma, k, GradedPoly.zero(gens, weights))[-1]
        assert newton_polynomial(k) == recursion, k


def test_girard_waring_sign_mutant_is_caught(tmp_path):
    # In a copy of the package whose nu_10 has the sign of s1*s2*s3*s4
    # flipped, the two oracle comparisons must fail, and only where nu_10
    # enters: nu_10 itself, L_10 and L_16.
    root = Path(__file__).resolve().parent.parent
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(root / "src", tmp_path / "src", ignore=skip)
    shutil.copytree(root / "tests", tmp_path / "tests", ignore=skip)
    shutil.copy(root / "pyproject.toml", tmp_path)
    symfun = tmp_path / "src" / "acstk" / "symfun.py"
    line = "        terms[tuple(r)] = c if (k + l) % 2 == 0 else -c\n"
    text = symfun.read_text()
    assert text.count(line) == 1
    mutant = line + "        if r == [1, 1, 1, 1] + [0] * 6:\n            terms[tuple(r)] = -terms[tuple(r)]\n"
    symfun.write_text(text.replace(line, mutant))
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
            "tests/test_symfun.py::test_newton_polynomial_matches_newton_recursion",
            "tests/test_genera.py::test_l_polynomial_matches_graded_oracle",
        ],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    failed = sorted(row.split()[1] for row in proc.stdout.splitlines() if row.startswith("FAILED "))
    assert failed == [
        "tests/test_genera.py::test_l_polynomial_matches_graded_oracle[10]",
        "tests/test_genera.py::test_l_polynomial_matches_graded_oracle[16]",
        "tests/test_symfun.py::test_newton_polynomial_matches_newton_recursion",
    ], proc.stdout + proc.stderr
    assert "3 failed, 9 passed" in proc.stdout


def test_newton_and_l_polynomials_hold_nonzero_fractions():
    # both skip the constructor's checks, so their terms must be valid as built
    for k in range(1, 11):
        for poly in (newton_polynomial(k), l_polynomial(k)):
            assert poly.weights == tuple(range(1, k + 1))
            assert all(type(e) is tuple and len(e) == k for e in poly.terms)
            assert all(type(c) is Fraction and c != 0 for c in poly.terms.values())


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
            nus = power_sums_from_values(sig, k, unit_poly(beta_variables(m)))
            assert nus[k - 1] == power_sum(m, k)


def test_single_nonzero_class_collapse():
    # nu_k at s_k = c, everything else 0, is (-1)^(k-1) * k * c
    for k in range(1, 9):
        values = {f"s{i}": Fraction(0) for i in range(1, k)}
        values[f"s{k}"] = Fraction(5)
        assert substitute(newton_polynomial(k), values) == (-1) ** (k - 1) * k * 5


def test_reduce_to_elementary_examples():
    two = beta_variables(2)
    b1 = unit_variable(two, "b1")
    b2 = unit_variable(two, "b2")
    gens, weights = sigma_generators(2)
    s1 = GradedPoly.generator(gens, weights, "s1")
    s2 = GradedPoly.generator(gens, weights, "s2")
    assert reduce_to_elementary(b1 * b1 + b2 * b2) == s1 * s1 - 2 * s2
    assert reduce_to_elementary(b1 * b2) == s2
    assert reduce_to_elementary(b1 * b2 * (b1 + b2)) == s1 * s2


def test_reduce_rejects_non_symmetric_input():
    two = beta_variables(2)
    b1 = unit_variable(two, "b1")
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
            roots = dict(zip(beta_variables(m), beta))
            values = {
                f"s{j}": substitute(elementary_symmetric(m, j), roots) if j <= m else Fraction(0)
                for j in range(1, k + 1)
            }
            assert substitute(newton_polynomial(k), values) == sum(b**k for b in beta)


@pytest.mark.parametrize(
    "make",
    [
        unit_poly,
        lambda variables, terms: GradedPoly(variables, (1, 2, 3), terms),
    ],
    ids=["unit-weights", "weights-1-2-3"],
)
def test_ring_axioms_randomized(make):
    rng = random.Random(2)
    variables = ("x", "y", "z")
    for _ in range(25):
        a, b, c = (make(variables, random_unit_poly(variables, rng).terms) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a - b == a + b * -1
        assert a - a == make(variables, {})


def test_unit_weight_diff_and_evaluate():
    variables = ("x", "y")
    x = unit_variable(variables, "x")
    y = unit_variable(variables, "y")
    p = x * x * x * y + 2 * y * y - 7
    assert diff(p, "x") == 3 * x * x * y
    assert diff(p, "y") == x * x * x + 4 * y
    assert substitute(p, {"x": 2, "y": Fraction(1, 2)}) == 8 * Fraction(1, 2) + Fraction(1, 2) - 7


def test_variable_mismatch_is_rejected():
    a = unit_variable(("x", "y"), "x")
    b = unit_variable(("x",), "x")
    with pytest.raises(ValueError, match="different generators"):
        a + b
    with pytest.raises(ValueError, match="does not match 1 generators"):
        unit_poly(("x",), {(1, 2): 1})


def _over_x(*coeffs):
    """c_0 + c_1*x + c_2*x^2 + ... over one generator x of weight 1."""
    return GradedPoly(("x",), (1,), {(e,): c for e, c in enumerate(coeffs)})


@pytest.mark.parametrize(
    "op", [operator.add, operator.sub, lambda p, other: other + p], ids=["add", "sub", "radd"]
)
@pytest.mark.parametrize(
    "other, outcome",
    [
        # (p + other, p - other) for p = x, or the error every operation raises
        (_over_x(0, 0, 3), (_over_x(0, 1, 3), _over_x(0, 1, -3))),
        (GradedPoly.generator(("y",), (1,), "y"), (ValueError, "^graded polynomials over different generators$")),
        (3, (_over_x(3, 1), _over_x(-3, 1))),
        (Fraction(1, 2), (_over_x(Fraction(1, 2), 1), _over_x(Fraction(-1, 2), 1))),
        (True, (TypeError, "^coefficients must be exact rationals, got the bool True$")),
        (0.5, (TypeError, "float")),
        (Decimal("0.5"), (TypeError, "Decimal")),
        ("x", (TypeError, "str")),
        (CDElement(1, [1, 2]), (TypeError, "CDElement")),
        (SphereCohomologyClass(2, 1, 0), (TypeError, "SphereCohomologyClass")),
    ],
    ids=["same-ring", "other-ring", "int", "fraction", "bool", "float", "decimal", "str",
         "cd-element", "sphere-class"],
)
def test_additive_operand_outcomes(other, outcome, op):
    x = GradedPoly.generator(("x",), (1,), "x")
    if isinstance(outcome[0], type):
        with pytest.raises(outcome[0], match=outcome[1]):
            op(x, other)
    else:
        assert op(x, other) == outcome[op is operator.sub]


def test_chern_route_additions_run_no_abc_instance_check():
    # `Fraction`'s metaclass is ABCMeta, so isinstance(poly, Fraction) runs
    # ABCMeta.__instancecheck__; `_operand` tests the polynomial case first
    # and makes no such call.  `__mul__` still tests the scalar case first:
    # one call per product of two polynomials, m(m-1)/2 in the recursion.
    m = 9
    x = GradedPoly.generator(("x",), (m,), "x")
    classes = [GradedPoly.zero(("x",), (m,))] * (m - 1) + [x]
    instancecheck = abc.ABCMeta.__instancecheck__.__code__
    callers = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is instancecheck:
            callers.append(frame.f_back.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        ch = chern_character(classes, m)
    finally:
        sys.setprofile(previous)
    assert ch == GradedPoly(("x",), (m,), {(0,): m, (1,): Fraction(1, math.factorial(m - 1))})
    assert callers.count(GradedPoly._operand.__code__) == 0
    assert callers.count(GradedPoly.__mul__.__code__) == m * (m - 1) // 2


def test_graded_poly_weights_and_truncation():
    gens = ("p1", "p2")
    weights = (1, 2)
    p1 = GradedPoly.generator(gens, weights, "p1")
    p2 = GradedPoly.generator(gens, weights, "p2")
    mix = p1 * p1 + p2 + p1 * p1 * p1 * p1
    assert truncate(mix, 2) == p1 * p1 + p2
    assert truncate(mix, 3) == p1 * p1 + p2
    assert truncate(mix, 1) == GradedPoly.zero(gens, weights)
    assert not mix.is_homogeneous(2)
    assert (p1 * p1 + p2).is_homogeneous(2)
    assert GradedPoly.zero(gens, weights).is_homogeneous(5)


@pytest.mark.parametrize(
    "generators, weights, terms, error, message",
    [
        (("x",), (1,), {(-1,): 1}, ValueError, "^exponent must be at least 0, got -1$"),
        (("x",), (1,), {(1.5,): 1}, TypeError, "^exponent must be an int, got the float 1.5$"),
        (("x",), (1.5,), {(1,): 1}, TypeError, "^generator weight must be an int, got the float 1.5$"),
        (("x",), (0,), {(1,): 1}, ValueError, "^generator weight must be at least 1, got 0$"),
        (("x", "x"), (1, 1), {(1, 0): 1}, ValueError, "distinct"),
        (("x", "y"), (1,), {}, ValueError, "one weight per generator"),
    ],
    ids=["negative-exponent", "fractional-exponent", "fractional-weight", "zero-weight",
         "repeated-name", "missing-weight"],
)
def test_constructor_rejects_malformed_input(generators, weights, terms, error, message):
    with pytest.raises(error, match=message):
        GradedPoly(generators, weights, terms)


def test_unknown_generator_names_the_generators_there_are():
    p1 = GradedPoly.generator(("p1", "p2"), (1, 2), "p1")
    assert p1.coefficient_of_generator("p1") == 1
    assert p1.coefficient_of_generator("p2") == 0
    message = r"no generator 'p3' among \('p1', 'p2'\)"
    with pytest.raises(ValueError, match=message):
        GradedPoly.generator(["p1", "p2"], (1, 2), "p3")
    with pytest.raises(ValueError, match=message):
        p1.coefficient_of_generator("p3")


def test_rendering_canonical_order():
    assert str(newton_polynomial(2)) == "s1^2 - 2*s2"
    assert str(newton_polynomial(3)) == "s1^3 - 3*s1*s2 + 3*s3"
    variables = ("x",)
    x = unit_variable(variables, "x")
    assert str(2 * x * x - x + 1) == "1 - x + 2*x^2"
    assert str(unit_poly(variables)) == "0"
