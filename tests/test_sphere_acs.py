import itertools
import random
from fractions import Fraction

import pytest

from acstk import sphere_acs
from acstk.cayley_dickson import CDElement, associator, basis_product
from acstk.errors import InternalInvariantError
from acstk.sphere_acs import (
    SPHERE_LEVEL,
    AssociatorComparison,
    JVerificationReport,
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
from oracles import (
    lie_bracket,
    nijenhuis_fd,
    nijenhuis_six_products,
    nijenhuis_symbolic,
    nijenhuis_two_products,
    random_cd_element,
    random_sphere_point_oracle,
    random_sphere_sample,
    random_tangent_oracle,
    stereographic_oracle,
    unit_poly,
    unit_variable,
)
from record_contract import check_record

E2 = lambda i: CDElement.basis(2, i)
E3 = lambda i: CDElement.basis(3, i)


def test_cross_quaternion_table():
    assert cross(E2(1), E2(2)) == E2(3)
    assert cross(E2(2), E2(1)) == -E2(3)


def test_cross_is_alternating_and_imaginary_only():
    rng = random.Random(0)
    for level in (2, 3):
        u = random_cd_element(level, rng, imaginary=True)
        assert not cross(u, u)
    with pytest.raises(ValueError, match="imaginary"):
        cross(CDElement.one(2), E2(1))
    with pytest.raises(TypeError):
        cross(E2(1), 1)


def test_cross_matches_imaginary_part_of_product():
    rng = random.Random(13)
    for level in range(2, 6):
        for _ in range(10):
            u, v = (random_cd_element(level, rng, imaginary=True) for _ in range(2))
            assert cross(u, v) == (u * v).imaginary_part()


def test_cross_equals_product_on_orthogonal_imaginaries():
    rng = random.Random(1)
    for _ in range(50):
        u = random_cd_element(3, rng, imaginary=True)
        v = random_cd_element(3, rng, imaginary=True)
        if u.norm_sq() == 0:
            continue
        v = v - u * (u.inner(v) / u.norm_sq())
        assert cross(u, v) == u * v
        assert cross(u, v) == (u * v).imaginary_part()


def test_rational_sphere_point():
    south = rational_sphere_point(2, [0, 0])
    assert south.vector == -E2(3)
    east = rational_sphere_point(2, [1, 0])
    assert east.vector == E2(1)
    rng = random.Random(2)
    for sphere_dim in (2, 6):
        for _ in range(25):
            params = [Fraction(rng.randint(-20, 20), rng.randint(1, 15)) for _ in range(sphere_dim)]
            p = rational_sphere_point(sphere_dim, params)
            assert p.vector.coeffs == stereographic_oracle(params)
            assert p.vector.norm_sq() == 1
            assert p.sphere_dim == sphere_dim
    with pytest.raises(ValueError, match="parameters"):
        rational_sphere_point(6, [1, 2])
    with pytest.raises(ValueError, match="2 or 6"):
        rational_sphere_point(4, [0, 0, 0, 0])
    with pytest.raises(TypeError, match="float"):
        rational_sphere_point(2, [0.5, 0])


def test_random_samplers_match_fraction_oracles():
    # the J check's integer draws: same values and the same draws from the
    # stream, which the verify-j reports and their seeds rest on
    for seed in range(50):
        rng, ref = random.Random(seed), random.Random(seed)
        for sphere_dim, level in SPHERE_LEVEL.items():
            p = sphere_acs._draw_point(sphere_dim, rng)
            expected_p = random_sphere_point_oracle(sphere_dim, ref)
            assert CDElement._reduced(level, *p).coeffs == expected_p
            v = sphere_acs._draw_tangent(level, p, rng)
            assert CDElement._reduced(level, *v).coeffs == random_tangent_oracle(expected_p, ref)
            assert rng.getstate() == ref.getstate()


def test_sphere_point_invariants():
    with pytest.raises(ValueError, match="unit norm"):
        SpherePoint(E3(1) * 2)
    with pytest.raises(ValueError, match="imaginary"):
        SpherePoint(CDElement.one(3))
    with pytest.raises(ValueError, match="level"):
        SpherePoint(CDElement.basis(4, 1))


def test_tangent_projection():
    p = SpherePoint(E3(1))
    assert not tangent_projection(p, p.vector).vector
    w = E3(1) + E3(2)
    t = tangent_projection(p, w)
    assert t.vector == E3(2)
    # idempotence
    assert tangent_projection(p, t.vector).vector == t.vector
    with pytest.raises(ValueError, match="imaginary"):
        tangent_projection(p, CDElement.one(3))
    with pytest.raises(ValueError, match="level"):
        tangent_projection(p, CDElement.basis(2, 1))


def test_tangent_vector_invariants():
    p = SpherePoint(E3(1))
    with pytest.raises(ValueError, match="orthogonal"):
        TangentVector(p, E3(1))
    with pytest.raises(ValueError, match="imaginary"):
        TangentVector(p, CDElement.one(3))


def test_j_apply_on_s2():
    p = SpherePoint(E2(1))
    t = TangentVector(p, E2(2))
    jt = j_apply(t)
    assert jt.vector == E2(3)
    assert j_apply(jt).vector == -t.vector


def test_j_apply_on_s6():
    p = SpherePoint(E3(1))
    t = TangentVector(p, E3(2))
    jt = j_apply(t)
    assert jt.vector.inner(p.vector) == 0
    assert jt.vector.norm_sq() == t.vector.norm_sq()
    assert j_apply(jt).vector == -t.vector


def test_j_squared_is_minus_identity_sampled():
    rng = random.Random(3)
    for sphere_dim in (2, 6):
        for _ in range(25):
            p, t = random_sphere_sample(sphere_dim, rng, 1)
            jt = j_apply(t)
            assert j_apply(jt).vector == -t.vector
            assert jt.vector.inner(p.vector) == 0
            assert jt.vector.norm_sq() == t.vector.norm_sq()


def test_verify_j_structure_report():
    report = verify_j_structure(2, samples=10, seed=42)
    assert report.all_passed
    data = report.as_dict()
    assert data["sphere"] == 2 and data["samples"] == 10 and data["seed"] == 42
    assert data["j_squared_is_minus_identity"] is True
    assert "example_point" in data


# Mutants of the numerator cross product `sphere_acs._cross(level, a, b)`,
# which takes imaginary pairs a = (A, Da), b = (B, Db) and returns the
# numerators and denominator of a x b; `real` is the unpatched one.


def _doubled(real, level, a, b):
    num, den = real(level, a, b)
    return [2 * x for x in num], den


def _shrunk(real, level, a, b):
    num, den = real(level, a, b)
    return num, 101 * den


def _along_p(real, level, a, b):
    num, den = real(level, a, b)
    return [x * a[1] + y * den for x, y in zip(num, a[0])], den * a[1]


def _defining_formula(real, level, a, b):
    u, v = (CDElement(level, [Fraction(x, d) for x in num]) for num, d in (a, b))
    w = (u * v - v * u) * Fraction(1, 2)
    return list(w.num), w.den


@pytest.mark.parametrize(
    "mutant, flags",
    [
        # 2(p x v): tangent, but J^2 v = -4v and |Jv|^2 = 4|v|^2
        (_doubled, (False, True, False)),
        # (p x v)/101: tangent, but J^2 v = -v/101^2 and |Jv|^2 = |v|^2/101^2
        (_shrunk, (False, True, False)),
        # p x v + p: <Jv, p> = 1, |Jv|^2 = |v|^2 + 1 and J^2 v = -v + p
        (_along_p, (False, False, False)),
        # the defining formula (uv - vu)/2 through the generic product
        (_defining_formula, (True, True, True)),
    ],
    ids=["doubled", "shrunk", "along-p", "defining-formula"],
)
def test_verify_j_structure_flags_follow_the_cross_product(monkeypatch, mutant, flags):
    real = sphere_acs._cross
    monkeypatch.setattr(sphere_acs, "_cross", lambda level, a, b: mutant(real, level, a, b))
    for sphere_dim in (2, 6):
        report = verify_j_structure(sphere_dim, samples=20, seed=3)
        assert (report.j_squared_negates, report.image_tangent, report.norm_preserved) == flags


def test_verify_j_structure_checks_every_draw(monkeypatch):
    # the sample loop runs the unit-norm and orthogonality checks of
    # SpherePoint and TangentVector on every drawn pair, and raises
    real_point, real_tangent = sphere_acs._draw_point, sphere_acs._draw_tangent
    calls = []

    def off_sphere(sphere_dim, rng):
        calls.append(None)
        num, den = real_point(sphere_dim, rng)
        return num, den if len(calls) < 3 else 2 * den

    monkeypatch.setattr(sphere_acs, "_draw_point", off_sphere)
    with pytest.raises(ValueError, match="unit norm"):
        verify_j_structure(6, samples=5)
    assert len(calls) == 3

    def along_p(level, p, rng):
        num, den = real_tangent(level, p, rng)
        return [x + y * den for x, y in zip(num, p[0])], den

    monkeypatch.setattr(sphere_acs, "_draw_point", real_point)
    monkeypatch.setattr(sphere_acs, "_draw_tangent", along_p)
    with pytest.raises(ValueError, match="not orthogonal"):
        verify_j_structure(2, samples=5)


@pytest.mark.parametrize("sphere_dim", [2, 6])
def test_verify_j_structure_example_is_the_first_public_draw(sphere_dim):
    # the loop draws on numerator pairs; its example must be the first draws
    # of the sampler oracles from the same seed
    for seed in (0, 1, 3, 42, 2**40 + 7):
        p, t = random_sphere_sample(sphere_dim, random.Random(seed), 1)
        for samples in (1, 5):
            report = verify_j_structure(sphere_dim, samples, seed)
            assert (report.example_point, report.example_tangent) == (p.vector, t.vector)


def test_lie_bracket_of_coordinate_fields():
    # [x2 d/dx1, x1 d/dx2] = x1 d/dx1 - x2 d/dx2 ... sanity on a classical pair
    variables = ("x1", "x2")
    x1 = unit_variable(variables, "x1")
    x2 = unit_variable(variables, "x2")
    zero = unit_poly(variables)
    a = [x2, zero]
    b = [zero, x1]
    bracket = lie_bracket(a, b)
    assert bracket == [-x1, x2]


def test_nijenhuis_golden_witness_on_s6():
    p = SpherePoint(E3(1))
    u = TangentVector(p, E3(2))
    v = TangentVector(p, E3(4))
    value = nijenhuis(p, u, v)
    assert value == E3(7) * 4  # frozen golden value
    assert nijenhuis_fd(p, u, v) == value  # independent finite-difference route
    assert nijenhuis_symbolic(p, u, v) == value  # symbolic vector-field route
    assert value.inner(p.vector) == 0


def test_nijenhuis_vanishes_on_s2():
    rng = random.Random(4)
    for _ in range(25):
        p, u, v = random_sphere_sample(2, rng, 2)
        value = nijenhuis(p, u, v)
        assert not value
        assert nijenhuis_fd(p, u, v) == value
        assert nijenhuis_symbolic(p, u, v) == value


def test_nijenhuis_antisymmetry_and_tensoriality_on_s6():
    rng = random.Random(5)
    for _ in range(4):
        p, u, v = random_sphere_sample(6, rng, 2)
        value = nijenhuis(p, u, v)
        assert nijenhuis(p, v, u) == -value
        lam = Fraction(7, 3)
        assert nijenhuis(p, TangentVector(p, u.vector * lam), v) == value * lam
        assert nijenhuis_fd(p, u, v) == value
        assert value.inner(p.vector) == 0


def test_nijenhuis_repeated_argument_vanishes():
    rng = random.Random(6)
    p, u = random_sphere_sample(6, rng, 1)
    assert not nijenhuis(p, u, u)


def test_nijenhuis_base_mismatch():
    p = SpherePoint(E3(1))
    q = SpherePoint(E3(2))
    u = TangentVector(p, E3(2))
    v = TangentVector(q, E3(1))
    with pytest.raises(ValueError, match="tangent at the given point"):
        nijenhuis(p, u, v)


def test_nijenhuis_makes_two_cross_products(monkeypatch):
    frames = [random_sphere_sample(dim, random.Random(dim), 2) for dim in (2, 6)]
    real, calls = sphere_acs._cross, []

    def counting(level, a, b):
        calls.append(level)
        return real(level, a, b)

    monkeypatch.setattr(sphere_acs, "_cross", counting)
    for frame in frames:
        calls.clear()
        nijenhuis(*frame)
        assert len(calls) == 2


def test_nijenhuis_refutes_a_wrong_coefficient_tuple():
    # (3, -3, -3) differs from the two-product form in the p x (u x v) term only
    p, u, v = random_sphere_sample(6, random.Random(10), 2)
    vectors = p.vector, u.vector, v.vector
    value = nijenhuis(p, u, v)
    assert value and value == nijenhuis_two_products(*vectors)
    assert value != nijenhuis_two_products(*vectors, coeffs=(3, -3, -3))


@pytest.mark.parametrize("level", [2, 3, 4])
def test_two_and_six_product_forms_agree_below_the_sedenions(level):
    # the step between the forms is an identity of Im H and Im O only, so it
    # holds on arbitrary imaginary triples, tangent or not, at levels 2 and 3
    rng = random.Random(level)
    for _ in range(30):
        p, u, v = (random_cd_element(level, rng, imaginary=True) for _ in range(3))
        assert (nijenhuis_two_products(p, u, v) == nijenhuis_six_products(p, u, v)) == (level < 4)
    if level == 4:
        e1, e10, e4, e15 = (CDElement.basis(4, i) for i in (1, 10, 4, 15))
        assert (nijenhuis_six_products(e1, e10, e4), nijenhuis_two_products(e1, e10, e4)) == (e15 * 2, e15 * 4)


def test_compare_on_s2_both_sides_vanish():
    rng = random.Random(7)
    p, u, v, w = random_sphere_sample(2, rng, 3)
    report = compare_nijenhuis_associator(p, u, v, w)
    assert report.pairing_with_w == 0
    assert not report.nijenhuis_value and not report.associator_value


def test_compare_on_s6_reports_concrete_rationals():
    p = SpherePoint(E3(1))
    u = TangentVector(p, E3(2))
    v = TangentVector(p, E3(4))
    w = TangentVector(p, E3(3))
    report = compare_nijenhuis_associator(p, u, v, w)
    assert report.pairing_with_w == 0
    assert report.associator_value == E3(5) * -2
    # pairing against e7 picks up the golden witness
    report7 = compare_nijenhuis_associator(p, u, v, TangentVector(p, E3(7)))
    assert report7.pairing_with_w == 4
    data = report7.as_dict()
    assert data["sphere"] == 6 and data["pairing_with_w"] == "4"
    assert set(data) == {"sphere", "nijenhuis", "pairing_with_w", "associator"}
    assert report7.nijenhuis_value == associator(E3(1), E3(2), E3(4)) * 2 == E3(7) * 4


def test_compare_repeated_argument():
    p = SpherePoint(E3(1))
    u = TangentVector(p, E3(2))
    w = TangentVector(p, E3(3))
    report = compare_nijenhuis_associator(p, u, u, w)
    assert report.pairing_with_w == 0
    assert not report.associator_value


@pytest.mark.parametrize("level, failures", [(2, 0), (3, 0), (4, 672)])
def test_nijenhuis_is_twice_the_associator_off_the_sphere(level, failures):
    # N(p; u, v) = <p,u> v - <p,v> u + 2 [p,u,v]: both sides are trilinear, so
    # agreement on every imaginary basis triple proves it at levels 2 and 3
    basis = [CDElement.basis(level, i) for i in range(1, 1 << level)]
    for form in (nijenhuis_two_products, nijenhuis_six_products):
        missed = 0
        for p, u, v in itertools.product(basis, repeat=3):
            missed += form(p, u, v) != v * p.inner(u) - u * p.inner(v) + associator(p, u, v) * 2
        assert missed == failures, form.__name__


@pytest.mark.parametrize("level, nonzero", [(0, 0), (1, 0), (2, 0), (3, 168), (4, 1848), (5, 15960)])
def test_basis_associators_have_no_real_part(level, nonzero):
    # [e_a, e_b, e_c] = (e_a e_b) e_c - e_a (e_b e_c), read off the structure
    # constants: both terms land on e_{a^b^c}, so the real part can only come
    # from a^b^c = 0, where the two signs must then agree
    seen = 0
    for a, b, c in itertools.product(range(1 << level), repeat=3):
        s1, ab = basis_product(level, a, b)
        s2, left = basis_product(level, ab, c)
        s3, bc = basis_product(level, b, c)
        s4, right = basis_product(level, a, bc)
        assert left == right == a ^ b ^ c
        assert left or s1 * s2 == s3 * s4, (a, b, c)
        seen += s1 * s2 != s3 * s4
    assert seen == nonzero


@pytest.mark.parametrize("sphere_dim, nonzero", [(2, 0), (6, 168)])
def test_compare_holds_on_every_tangent_basis_triple(sphere_dim, nonzero):
    # at p = e_a on S^6, N(e_b, e_c) = 2[e_a, e_b, e_c] is 0 only for e_c = e_b or +-e_a e_b
    level = SPHERE_LEVEL[sphere_dim]
    units = range(1, 1 << level)
    seen = 0
    for a in units:
        p = SpherePoint(CDElement.basis(level, a))
        tangent = [TangentVector(p, CDElement.basis(level, i)) for i in units if i != a]
        for u in tangent:
            for v in tangent:
                seen += bool(compare_nijenhuis_associator(p, u, v, tangent[0]).nijenhuis_value)
    assert seen == nonzero


@pytest.mark.parametrize("factor", [1, -2])
def test_compare_refuses_a_wrong_factor(monkeypatch, factor):
    # scaling the associator by factor/2 makes the check compare N with factor*[p,u,v]
    p, u, v, w = random_sphere_sample(6, random.Random(11), 3)
    assert compare_nijenhuis_associator(p, u, v, w).nijenhuis_value
    monkeypatch.setattr(sphere_acs, "associator", lambda *x: associator(*x) * Fraction(factor, 2))
    with pytest.raises(InternalInvariantError, match=r"differs from 2 \[p, u, v\]"):
        compare_nijenhuis_associator(p, u, v, w)


def _level1_repr(a, b):
    return f"CDElement(level=1, coeffs=(Fraction({a}, 1), Fraction({b}, 1)))"


_E1_REPR = "CDElement(level=2, coeffs=(Fraction(0, 1), Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)))"
_HALF_E2_REPR = "CDElement(level=2, coeffs=(Fraction(0, 1), Fraction(0, 1), Fraction(1, 2), Fraction(0, 1)))"


@pytest.mark.parametrize(
    "cls, fields, expected_repr, defaults, errors",
    [
        (
            SpherePoint,
            dict(vector=E2(1)),
            f"SpherePoint(vector={_E1_REPR})",
            None,
            [
                (dict(vector=CDElement.basis(1, 1)), "sphere points live at level 2 or 3, got level 1"),
                (dict(vector=CDElement.one(2)), "sphere points must be imaginary"),
                (dict(vector=E2(1) * 2), "sphere points must have unit norm, got |p|^2 = 4"),
            ],
        ),
        (
            TangentVector,
            dict(base=SpherePoint(E2(1)), vector=E2(2) * Fraction(1, 2)),
            f"TangentVector(base=SpherePoint(vector={_E1_REPR}), vector={_HALF_E2_REPR})",
            None,
            [
                (dict(vector=E3(2)), "tangent level 3 does not match base level 2"),
                (dict(vector=CDElement.one(2)), "tangent vectors must be imaginary"),
                (
                    dict(vector=E2(1) + E2(2)),
                    "tangent vector is not orthogonal to its base point: <v, p> = 1",
                ),
            ],
        ),
        (
            AssociatorComparison,
            dict(
                sphere_dim=6,
                nijenhuis_value=CDElement(1, (0, 4)),
                pairing_with_w=Fraction(-1, 2),
                associator_value=CDElement(1, (3, 0)),
            ),
            f"AssociatorComparison(sphere_dim=6, nijenhuis_value={_level1_repr(0, 4)}, "
            "pairing_with_w=Fraction(-1, 2), "
            f"associator_value={_level1_repr(3, 0)})",
            None,
            [],
        ),
        (
            JVerificationReport,
            dict(
                sphere_dim=2, samples=3, seed=7, j_squared_negates=True,
                image_tangent=True, norm_preserved=False, example_point=None, example_tangent=None,
            ),
            "JVerificationReport(sphere_dim=2, samples=3, seed=7, j_squared_negates=True, "
            "image_tangent=True, norm_preserved=False, example_point=None, example_tangent=None)",
            dict(example_point=None, example_tangent=None),
            [],
        ),
        (
            JVerificationReport,
            dict(
                sphere_dim=2, samples=1, seed=0, j_squared_negates=True, image_tangent=True,
                norm_preserved=True, example_point=CDElement(1, (1, 0)),
                example_tangent=CDElement(1, (0, -1)),
            ),
            "JVerificationReport(sphere_dim=2, samples=1, seed=0, j_squared_negates=True, "
            "image_tangent=True, norm_preserved=True, "
            f"example_point={_level1_repr(1, 0)}, example_tangent={_level1_repr(0, -1)})",
            dict(example_point=None, example_tangent=None),
            [],
        ),
    ],
    ids=["SpherePoint", "TangentVector", "AssociatorComparison", "JReport-defaults", "JReport"],
)
def test_sphere_records_are_immutable(cls, fields, expected_repr, defaults, errors):
    check_record(cls, fields, expected_repr, defaults=defaults, errors=errors)
