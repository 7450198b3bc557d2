import math
from fractions import Fraction

import pytest

import acstk.genera as genera
from acstk.errors import InternalInvariantError
from acstk.genera import (
    PowerSeries,
    bernoulli,
    chern_character,
    cosh_series,
    exp_series,
    l_polynomial,
    q_series,
    q_series_closed_form,
    s_coefficient,
    s_series,
    sinh_series,
    tanh_over_w_in_z,
)
from acstk.symfun import GradedPoly, newton_polynomial
from oracles import l_polynomial_in_roots, positive_bernoulli_oracle, substitute


def series(*coeffs):
    return PowerSeries(list(coeffs))


def test_series_basic_arithmetic():
    one_plus = series(1, 1, 0)
    one_minus = series(1, -1, 0)
    assert one_plus * one_minus == series(1, 0, -1)
    geo = PowerSeries.one(5) / series(1, -1, 0, 0, 0, 0)
    assert geo == series(1, 1, 1, 1, 1, 1)
    assert (one_plus - one_plus).coeffs == (0, 0, 0)
    assert -series(1, -2) == series(-1, 2)
    assert 2 * series(1, 3) == series(2, 6)


def test_series_rendering():
    assert str(PowerSeries.zero(3)) == "O(z^4)"
    assert str(PowerSeries([Fraction(-1, 2), -1, 0, 3], order=4)) == "-1/2 - z + 3*z^3 + O(z^5)"
    assert str(series(0, 1, -2)) == "z - 2*z^2 + O(z^3)"


def test_series_order_tracking():
    a = PowerSeries([1, 2, 3, 4], order=3)
    b = PowerSeries([1, 1], order=1)
    assert (a + b).order == 1
    assert (a * b).order == 1
    with pytest.raises(ValueError):
        a.coefficient(4)
    with pytest.raises(ValueError):
        b.truncate(3)


def test_series_division_requires_invertible_constant():
    with pytest.raises(ValueError, match="constant term 0"):
        PowerSeries.one(3) / series(0, 1, 0, 0)
    # division is the exact inverse of multiplication
    a = series(1, Fraction(1, 2), Fraction(-3, 7), 5)
    b = series(2, 1, 1, 1)
    assert (a * b) / b == a


def test_series_composition():
    # exp(2z) = exp(z) composed with 2z
    e = exp_series(6)
    doubled = e.compose(PowerSeries.identity(6) * 2)
    assert doubled == e.scale_argument(2)
    with pytest.raises(ValueError, match="constant term 0"):
        e.compose(series(1, 1, 0, 0, 0, 0, 0))


def test_sqrt_substitution_device():
    even = series(1, 0, 5, 0, -2)
    assert even.in_square_variable() == series(1, 5, -2)
    with pytest.raises(ValueError, match="not even"):
        series(1, 1, 0).in_square_variable()
    with pytest.raises(ValueError, match="constant term"):
        series(1, 1).shift_down()
    assert sinh_series(5).shift_down() == series(1, 0, Fraction(1, 6), 0, Fraction(1, 120))


def test_tanh_over_w():
    t = tanh_over_w_in_z(4)
    assert t.coefficient(0) == 1
    assert t.coefficient(1) == Fraction(-1, 3)
    assert t.coefficient(2) == Fraction(2, 15)
    assert t.coefficient(3) == Fraction(-17, 315)
    # sanity: tanh = sinh/cosh was built from the exponential series
    assert sinh_series(4) + cosh_series(4) == exp_series(4)


def test_bernoulli_against_recurrence_oracle():
    expected = [Fraction(1, 6), Fraction(1, 30), Fraction(1, 42),
                Fraction(1, 30), Fraction(5, 66), Fraction(691, 2730)]
    for k, value in enumerate(expected, start=1):
        assert bernoulli(k) == value
        assert bernoulli(k) == positive_bernoulli_oracle(k)
    assert bernoulli(8) == positive_bernoulli_oracle(8)
    with pytest.raises(ValueError):
        bernoulli(0)


def test_q_series_coefficients():
    q = q_series(3)
    assert q.coefficient(0) == 1
    assert q.coefficient(1) == Fraction(1, 3)
    assert q.coefficient(2) == Fraction(-1, 45)
    assert q.coefficient(3) == Fraction(2, 945)


def test_q_series_two_route_agreement():
    assert q_series(8) == q_series_closed_form(8)


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


def test_l_polynomial_signature_of_complex_projective_space():
    # p(CP^{2k}) = (1 + x^2)^{2k+1}, so p_j = C(2k+1, j) and sigma = 1
    for k in range(1, 13):
        values = {f"p{j}": math.comb(2 * k + 1, j) for j in range(1, k + 1)}
        assert l_polynomial(k).evaluate(values) == 1


def test_l_polynomial_self_check_fires(monkeypatch):
    # a wrong Q-series gives a wrong L_3, which the CP^6 check must catch
    wrong = PowerSeries([1, Fraction(1, 3), Fraction(-1, 45), 0])
    monkeypatch.setattr(genera, "q_series", lambda order: wrong.truncate(order))
    l_polynomial.cache_clear()
    try:
        with pytest.raises(InternalInvariantError, match="CP\\^6"):
            l_polynomial(3)
    finally:
        l_polynomial.cache_clear()


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
        assert closed == sser.coefficient(k)
        if k >= 1:
            assert closed == l_polynomial(k).coefficient_of_generator(f"p{k}")


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
        (lambda: q_series(4).coefficient(-1), "non-negative, got -1"),
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
