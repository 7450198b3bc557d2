import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import acstk.genera as genera
from acstk.errors import InternalInvariantError
from acstk.genera import bernoulli, chern_character, l_polynomial, q_coefficient, s_coefficient
from acstk.symfun import GradedPoly, newton_polynomial
from oracles import (
    l_polynomial_graded_oracle,
    l_polynomial_in_roots,
    log_q_coefficients,
    positive_bernoulli_oracle,
    reciprocal_bernoulli_oracle,
    reciprocal_q_series,
    s_series,
    substitute,
)


def test_tanh_over_w():
    # the third Bernoulli route: Q = 1/(tanh(w)/w) with z = w^2, as the
    # quotient of the coefficient lists of cosh(w) and sinh(w)/w
    assert reciprocal_q_series(3) == (1, Fraction(1, 3), Fraction(-1, 45), Fraction(2, 945))


def test_bernoulli_against_recurrence_oracle():
    expected = [Fraction(1, 6), Fraction(1, 30), Fraction(1, 42),
                Fraction(1, 30), Fraction(5, 66), Fraction(691, 2730)]
    for k, value in enumerate(expected, start=1):
        assert bernoulli(k) == value
        assert bernoulli(k) == positive_bernoulli_oracle(k)
        assert reciprocal_bernoulli_oracle(k) == value
    assert bernoulli(8) == positive_bernoulli_oracle(8)
    with pytest.raises(ValueError):
        bernoulli(0)


def test_tangent_numbers():
    # tan x = x + 2 x^3/3! + 16 x^5/5! + 272 x^7/7! + ...
    assert [genera._tangent_number(k) for k in range(1, 7)] == [1, 2, 16, 272, 7936, 353792]


def test_bernoulli_von_staudt_clausen():
    # B_{2k} + sum_{(p - 1) | 2k} 1/p is an integer, with B_{2k} = (-1)^(k+1) B_k
    # here: this pins every denominator without any series route
    primes = [p for p in range(2, 602) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    for k in range(1, 301):
        value = (-1) ** (k + 1) * bernoulli(k) + sum(Fraction(1, p) for p in primes if (2 * k) % (p - 1) == 0)
        assert value.denominator == 1, k


def _clear_genera_caches():
    for cached in (bernoulli, s_coefficient, l_polynomial):
        cached.cache_clear()
    genera._TANGENT.clear()
    genera._TANGENT_COLUMN.clear()


@pytest.fixture
def cold_bernoulli():
    _clear_genera_caches()
    yield
    _clear_genera_caches()


def test_tangent_table_regrows_on_demand(cold_bernoulli):
    assert bernoulli(50) == positive_bernoulli_oracle(50)
    assert len(genera._TANGENT) == 50
    assert bernoulli(3) == Fraction(1, 42)
    assert len(genera._TANGENT) == 50
    # growing again starts from the kept last column
    assert bernoulli(80) == positive_bernoulli_oracle(80)
    assert len(genera._TANGENT) == len(genera._TANGENT_COLUMN) == 80


def test_import_builds_no_tangent_table():
    probe = "import acstk.cli, acstk.genera as g; print(len(g._TANGENT), len(g._TANGENT_COLUMN))"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 0\n"


def test_q_series_coefficients():
    assert [q_coefficient(k) for k in range(4)] == [1, Fraction(1, 3), Fraction(-1, 45), Fraction(2, 945)]


def test_q_series_two_route_agreement():
    # q_k = (-1)^(k-1) 2^(2k)/(2k)! B_k, with B_k from the recurrence oracle:
    # q_coefficient reads bernoulli() through this closed form, so the second
    # route must take B_k from elsewhere
    closed = [Fraction(1)] + [
        (-1) ** (k - 1) * Fraction(2 ** (2 * k), math.factorial(2 * k)) * positive_bernoulli_oracle(k)
        for k in range(1, 9)
    ]
    assert [q_coefficient(k) for k in range(9)] == closed


def test_q_series_matches_reciprocal_series_oracle():
    assert tuple(q_coefficient(k) for k in range(61)) == reciprocal_q_series(60)


def test_l_polynomial_golden_values():
    p1_ring = (("p1",), (1,))
    p1 = GradedPoly.generator(*p1_ring, "p1")
    assert l_polynomial(1) == p1 * Fraction(1, 3)

    gens2, w2 = ("p1", "p2"), (1, 2)
    q1 = GradedPoly.generator(gens2, w2, "p1")
    q2 = GradedPoly.generator(gens2, w2, "p2")
    assert l_polynomial(2) == (7 * q2 - q1**2) * Fraction(1, 45)

    gens3, w3 = ("p1", "p2", "p3"), (1, 2, 3)
    r1 = GradedPoly.generator(gens3, w3, "p1")
    r2 = GradedPoly.generator(gens3, w3, "p2")
    r3 = GradedPoly.generator(gens3, w3, "p3")
    assert l_polynomial(3) == (62 * r3 - 13 * r2 * r1 + 2 * r1**3) * Fraction(1, 945)
    with pytest.raises(ValueError):
        l_polynomial(0)


def test_l_polynomial_stability_in_extra_roots():
    for k in (1, 2, 3, 4):
        base = l_polynomial_in_roots(k, k)
        assert base == l_polynomial_in_roots(k, k + 1)
        assert base == l_polynomial_in_roots(k, k + 2)


def test_l_polynomial_matches_root_expansion_oracle():
    for k in range(1, 7):
        assert l_polynomial(k) == l_polynomial_in_roots(k, k)


@pytest.mark.parametrize("k", [*range(1, 11), 16])
def test_l_polynomial_matches_graded_oracle(k):
    # k = 16 is the first k whose p1^16 needs a 5-bit exponent field in a packed key
    assert l_polynomial(k) == l_polynomial_graded_oracle(k)


def test_l_polynomial_signature_of_complex_projective_space():
    # p(CP^{2k}) = (1 + x^2)^{2k+1}, so p_j = C(2k+1, j) and sigma = 1
    for k in range(1, 13):
        values = {f"p{j}": math.comb(2 * k + 1, j) for j in range(1, k + 1)}
        assert l_polynomial(k).evaluate(values) == 1


def test_l_polynomial_self_check_fires(monkeypatch):
    # a wrong s_3 gives a wrong L_3, which the CP^6 check must catch
    real = genera.s_coefficient
    monkeypatch.setattr(genera, "s_coefficient", lambda j: 0 if j == 3 else real(j))
    l_polynomial.cache_clear()
    try:
        with pytest.raises(InternalInvariantError, match="CP\\^6"):
            l_polynomial(3)
    finally:
        l_polynomial.cache_clear()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_l_polynomial_sign_flipped_step_is_caught(monkeypatch, k):
    # the step read as (-1)^j s_j in place of (-1)^(j-1) s_j negates every
    # j a_j, so L_1 = -p1/3 and the CP^2 check fires on the way to L_k
    real = genera.s_coefficient
    monkeypatch.setattr(genera, "s_coefficient", lambda j: -real(j))
    l_polynomial.cache_clear()
    try:
        with pytest.raises(InternalInvariantError, match="CP\\^2,"):
            l_polynomial(k)
    finally:
        l_polynomial.cache_clear()


def test_l_polynomial_reads_no_q_series(monkeypatch):
    def refuse(k):
        raise AssertionError(f"q_coefficient({k}) called")

    monkeypatch.setattr(genera, "q_coefficient", refuse)
    for cached in (l_polynomial, s_coefficient, bernoulli, newton_polynomial):
        cached.cache_clear()
    try:
        assert [l_polynomial(k) for k in range(1, 8)] == [l_polynomial_graded_oracle(k) for k in range(1, 8)]
    finally:
        l_polynomial.cache_clear()


def test_log_q_recurrence_gives_the_signed_s_coefficients():
    # log Q(x^2) = log cosh x - log(sinh x / x), so j a_j = (-1)^(j-1) s_j
    ja = log_q_coefficients(60)
    assert ja[0] == 0
    assert all(ja[j] == (-1) ** (j - 1) * s_coefficient(j) for j in range(1, 61))


def test_l_polynomial_homogeneity_and_positivity():
    for k in range(1, 7):
        lk = l_polynomial(k)
        assert lk.is_homogeneous(k)
        assert lk.coefficient_of_generator(f"p{k}") > 0


def test_s_coefficient_values_and_triple_agreement():
    assert s_coefficient(0) == 1
    assert s_coefficient(1) == Fraction(1, 3)
    assert s_coefficient(2) == Fraction(7, 45)
    sser = s_series(6)
    for k in range(7):
        closed = s_coefficient(k)
        assert closed == sser[k]
        if k >= 1:
            assert closed == l_polynomial(k).coefficient_of_generator(f"p{k}")


def test_s_series_needs_no_bernoulli_numbers(cold_bernoulli, monkeypatch):
    # acceptance criterion 2 counts the s_series oracle as a route to s_k of its own
    expected = [s_coefficient(k) for k in range(13)]
    _clear_genera_caches()

    def refuse(k):
        raise AssertionError("s_series read a Bernoulli or tangent number")

    monkeypatch.setattr(genera, "bernoulli", refuse)
    monkeypatch.setattr(genera, "_tangent_number", refuse)
    assert list(s_series(12)) == expected
    assert s_series(0) == (1,)


def test_chern_character_line_bundle():
    t = GradedPoly.generator(("t",), (1,), "t")
    ch = chern_character(1, [t], max_weight=4)
    expected = (
        GradedPoly.constant(("t",), (1,), 1)
        + t
        + t**2 * Fraction(1, 2)
        + t**3 * Fraction(1, 6)
        + t**4 * Fraction(1, 24)
    )
    assert ch == expected


def test_chern_character_trivial_bundle():
    zero = GradedPoly.zero(("t",), (1,))
    assert chern_character(5, [zero] * 5, max_weight=3) == GradedPoly.constant(("t",), (1,), 5)


def test_chern_character_single_top_class():
    # rank n with only c_n nonzero: n + (-1)^(n-1) c_n / (n-1)!
    for n in (2, 3, 5, 8):
        x = GradedPoly.generator(("x",), (n,), "x")
        zero = GradedPoly.zero(("x",), (n,))
        ch = chern_character(n, [zero] * (n - 1) + [x], max_weight=n)
        assert ch.coefficient_of_generator("x") == Fraction(
            (-1) ** (n - 1), math.factorial(n - 1)
        )
        assert ch.coefficient((0,)) == n


def test_chern_character_errors():
    t = GradedPoly.generator(("t",), (1,), "t")
    with pytest.raises(ValueError, match="missing class index 2"):
        chern_character(2, [t], max_weight=2)
    with pytest.raises(ValueError, match="above the rank"):
        chern_character(1, [t, t], max_weight=2)
    with pytest.raises(ValueError, match="homogeneous of weight 2"):
        chern_character(2, [t, t], max_weight=2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: q_coefficient(-1), "indexed from 0, got -1"),
        (
            lambda: chern_character(1, [GradedPoly.generator(("t",), (1,), "t")], max_weight=-1),
            "max_weight must be non-negative",
        ),
        (
            lambda: GradedPoly.generator(("p1", "p2"), (1, 2), "p1").evaluate({"p1": 1}),
            "no value for generator p2",
        ),
    ],
    ids=["series-coefficient-below-0", "chern-max-weight-below-0", "evaluate-missing-generator"],
)
def test_out_of_range_arguments_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_chern_character_additive_and_multiplicative_on_root_models():
    # two formal root models: E with roots t1, t2 and F with roots u1, u2
    gens = ("t1", "t2", "u1", "u2")
    weights = (1, 1, 1, 1)
    t1, t2, u1, u2 = (GradedPoly.generator(gens, weights, g) for g in gens)
    max_weight = 4

    def chern_classes_of(roots):
        # coefficients of prod (1 + r z): the elementary symmetric values
        coeffs = [GradedPoly.constant(gens, weights, 1)]
        coeffs += [GradedPoly.zero(gens, weights) for _ in roots]
        for r in roots:
            for i in range(len(roots), 0, -1):
                coeffs[i] = coeffs[i] + coeffs[i - 1] * r
        return coeffs[1:]

    ch_e = chern_character(2, chern_classes_of([t1, t2]), max_weight)
    ch_f = chern_character(2, chern_classes_of([u1, u2]), max_weight)
    ch_sum = chern_character(4, chern_classes_of([t1, t2, u1, u2]), max_weight)
    assert ch_sum == ch_e + ch_f

    # tensor product: roots t_i + u_j, multiplicativity of the character
    tensor_roots = [t1 + u1, t1 + u2, t2 + u1, t2 + u2]
    ch_tensor = chern_character(4, chern_classes_of(tensor_roots), max_weight)
    assert ch_tensor == (ch_e * ch_f).truncate(max_weight)


def test_chern_character_matches_symbolic_newton():
    gens = ("c1", "c2", "c3", "c4")
    weights = (1, 2, 3, 4)
    cs = [GradedPoly.generator(gens, weights, g) for g in gens]
    max_weight = 6
    ch = chern_character(4, cs, max_weight)
    expected = GradedPoly.constant(gens, weights, 4)
    for k in range(1, max_weight + 1):
        assignments = {f"s{i}": cs[i - 1] if i <= 4 else GradedPoly.zero(gens, weights)
                       for i in range(1, k + 1)}
        nu_k = substitute(newton_polynomial(k), assignments)
        expected = expected + nu_k * Fraction(1, math.factorial(k))
    assert ch == expected.truncate(max_weight)


def test_internal_positivity_guard_not_triggered():
    # all reachable Bernoulli extractions are positive
    for k in range(1, 12):
        assert bernoulli(k) > 0
