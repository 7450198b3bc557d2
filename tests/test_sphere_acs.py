import random
from fractions import Fraction

import pytest

from acstk.cayley_dickson import CDElement, random_element
from acstk.sphere_acs import (
    AssociatorComparison,
    JVerificationReport,
    SpherePoint,
    TangentVector,
    compare_nijenhuis_associator,
    cross,
    j_apply,
    nijenhuis,
    random_sphere_point,
    random_tangent,
    rational_sphere_point,
    tangent_projection,
    verify_j_structure,
)
from oracles import lie_bracket, nijenhuis_fd, nijenhuis_symbolic, unit_poly, unit_variable
from record_contract import check_record

E2 = lambda i: CDElement.basis(2, i)
E3 = lambda i: CDElement.basis(3, i)


def test_cross_quaternion_table():
    assert cross(E2(1), E2(2)) == E2(3)
    assert cross(E2(2), E2(1)) == -E2(3)


def test_cross_is_alternating_and_imaginary_only():
    rng = random.Random(0)
    for level in (2, 3):
        u = random_element(level, rng, imaginary=True)
        assert not cross(u, u)
    with pytest.raises(ValueError, match="imaginary"):
        cross(CDElement.one(2), E2(1))


def test_cross_equals_product_on_orthogonal_imaginaries():
    rng = random.Random(1)
    for _ in range(50):
        u = random_element(3, rng, imaginary=True)
        v = random_element(3, rng, imaginary=True)
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
            assert p.vector.norm_sq() == 1
            assert p.sphere_dim == sphere_dim
    with pytest.raises(ValueError, match="parameters"):
        rational_sphere_point(6, [1, 2])
    with pytest.raises(ValueError, match="2 or 6"):
        rational_sphere_point(4, [0, 0, 0, 0])


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
            p = random_sphere_point(sphere_dim, rng)
            t = random_tangent(p, rng)
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
        p = random_sphere_point(2, rng)
        u = random_tangent(p, rng)
        v = random_tangent(p, rng)
        value = nijenhuis(p, u, v)
        assert not value
        assert nijenhuis_fd(p, u, v) == value
        assert nijenhuis_symbolic(p, u, v) == value


def test_nijenhuis_antisymmetry_and_tensoriality_on_s6():
    rng = random.Random(5)
    for _ in range(4):
        p = random_sphere_point(6, rng)
        u = random_tangent(p, rng)
        v = random_tangent(p, rng)
        value = nijenhuis(p, u, v)
        assert nijenhuis(p, v, u) == -value
        lam = Fraction(7, 3)
        assert nijenhuis(p, u.scale(lam), v) == value * lam
        assert nijenhuis_fd(p, u, v) == value
        assert value.inner(p.vector) == 0


def test_nijenhuis_repeated_argument_vanishes():
    rng = random.Random(6)
    p = random_sphere_point(6, rng)
    u = random_tangent(p, rng)
    assert not nijenhuis(p, u, u)


def test_nijenhuis_base_mismatch():
    p = SpherePoint(E3(1))
    q = SpherePoint(E3(2))
    u = TangentVector(p, E3(2))
    v = TangentVector(q, E3(1))
    with pytest.raises(ValueError, match="tangent at the given point"):
        nijenhuis(p, u, v)


def test_compare_on_s2_both_sides_vanish():
    rng = random.Random(7)
    p = random_sphere_point(2, rng)
    u = random_tangent(p, rng)
    v = random_tangent(p, rng)
    w = random_tangent(p, rng)
    report = compare_nijenhuis_associator(p, u, v, w)
    assert report.pairing_with_w == 0
    assert not report.associator_value
    assert report.ratio is None


def test_compare_on_s6_reports_concrete_rationals():
    p = SpherePoint(E3(1))
    u = TangentVector(p, E3(2))
    v = TangentVector(p, E3(4))
    w = TangentVector(p, E3(3))
    report = compare_nijenhuis_associator(p, u, v, w)
    assert report.pairing_with_w == 0
    assert report.associator_value == E3(5) * -2
    assert report.associator_real_part == 0
    # pairing against e7 picks up the golden witness
    report7 = compare_nijenhuis_associator(p, u, v, TangentVector(p, E3(7)))
    assert report7.pairing_with_w == 4
    data = report7.as_dict()
    assert data["sphere"] == 6 and data["pairing_with_w"] == "4"


def test_compare_repeated_argument():
    p = SpherePoint(E3(1))
    u = TangentVector(p, E3(2))
    w = TangentVector(p, E3(3))
    report = compare_nijenhuis_associator(p, u, u, w)
    assert report.pairing_with_w == 0
    assert not report.associator_value


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
                associator_real_part=Fraction(3),
                ratio=None,
            ),
            f"AssociatorComparison(sphere_dim=6, nijenhuis_value={_level1_repr(0, 4)}, "
            "pairing_with_w=Fraction(-1, 2), "
            f"associator_value={_level1_repr(3, 0)}, "
            "associator_real_part=Fraction(3, 1), ratio=None)",
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
