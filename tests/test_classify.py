import json
from fractions import Fraction

import pytest

from acstk.classify import (
    REASON_CHERN_DIVISIBILITY,
    REASON_CONSTRUCTION,
    REASON_ODD,
    REASON_PONTRYAGIN_EULER,
    STATUS_EXISTS,
    STATUS_RULED_OUT,
    SphereVerdict,
    check_chern_divisibility,
    check_odd,
    check_pontryagin_euler,
    check_signature,
    classify_range,
    classify_sphere,
)
from acstk.genera import s_coefficient
from record_contract import check_record


def test_check_odd():
    assert check_odd(2) is None
    for n in (3, 7, 199):
        cert = check_odd(n)
        assert cert["reason"] == REASON_ODD
        assert cert["assumed_axioms"]


def test_check_pontryagin_euler():
    assert check_pontryagin_euler(6) is None
    assert check_pontryagin_euler(2) is None
    cert4 = check_pontryagin_euler(4)
    assert cert4["witness"] == "-4"
    cert8 = check_pontryagin_euler(8)
    assert cert8["witness"] == "4"


def test_check_signature():
    cert4 = check_signature(4)
    assert cert4["s_k"] == "1/3"
    assert cert4["witness"] == "-4/3"
    cert8 = check_signature(8)
    assert cert8["witness"] == "28/45"
    for k in range(1, 11):
        assert s_coefficient(k) != 0
    with pytest.raises(ValueError):
        check_signature(6)


def test_check_chern_divisibility():
    cert10 = check_chern_divisibility(10)
    assert cert10 is not None and cert10["factorial"] == 24
    assert check_chern_divisibility(6) is None  # 2! divides 2
    assert check_chern_divisibility(4) is None  # 1! divides 2
    assert check_chern_divisibility(2) is None  # 0! divides 2
    cert14 = check_chern_divisibility(14)
    assert cert14 is not None and cert14["factorial"] == 720
    with pytest.raises(ValueError):
        check_chern_divisibility(7)


def test_classify_existing_spheres():
    for n in (2, 6):
        verdict = classify_sphere(n, samples=10, seed=0)
        assert verdict.status == STATUS_EXISTS
        assert verdict.reason == REASON_CONSTRUCTION
        assert verdict.certificate["verification"]["all_passed"] is True


def test_classify_ruled_out_reasons():
    assert classify_sphere(3).reason == REASON_ODD
    assert classify_sphere(4).reason == REASON_PONTRYAGIN_EULER
    assert classify_sphere(10).reason == REASON_CHERN_DIVISIBILITY
    assert classify_sphere(14).reason == REASON_CHERN_DIVISIBILITY
    with pytest.raises(ValueError):
        classify_sphere(0)


def test_double_certification_on_multiples_of_four():
    for n in (4, 8, 12, 16):
        verdict = classify_sphere(n)
        cert = verdict.certificate
        k = n // 4
        assert Fraction(cert["pontryagin_euler"]["witness"]) == (-1) ** k * 4
        assert Fraction(cert["signature"]["witness"]) == (-1) ** k * 4 * s_coefficient(k)


def test_classification_coverage():
    verdicts = classify_range(1, 60, samples=5, seed=0)
    exists = [v.n for v in verdicts if v.status == STATUS_EXISTS]
    assert exists == [2, 6]
    for v in verdicts:
        assert v.status in (STATUS_EXISTS, STATUS_RULED_OUT)
        assert v.certificate
        if v.status == STATUS_RULED_OUT:
            assert v.assumed_axioms


def test_json_determinism():
    def text(n):
        return json.dumps(classify_sphere(n, samples=5, seed=3).as_dict(), indent=2, sort_keys=True)

    assert text(8) == text(8)
    assert text(6) == text(6)


def test_invalid_range():
    with pytest.raises(ValueError):
        classify_range(5, 4)
    with pytest.raises(ValueError):
        classify_range(0, 4)


@pytest.mark.parametrize(
    "call, kind",
    [
        (lambda: classify_sphere(True), "bool True"),
        (lambda: classify_sphere(3.0), "float 3.0"),
        (lambda: classify_range(1, 2.5), "float 2.5"),
    ],
    ids=["sphere-bool", "sphere-float", "range-float-stop"],
)
def test_dimensions_must_be_ints(call, kind):
    # True and 3.0 compare like 1 and 3, so without the check their verdicts
    # read "n": true and "n": 3.0, and range(1, 3.5) raises its own TypeError
    with pytest.raises(TypeError, match=f"^sphere dimension must be an int, got the {kind}$"):
        call()


@pytest.mark.parametrize(
    "fields, expected_repr",
    [
        (
            dict(
                n=6, status=STATUS_EXISTS, reason=REASON_CONSTRUCTION,
                certificate={"sphere": 6}, assumed_axioms=("a", "b"),
            ),
            "SphereVerdict(n=6, status='exists', reason='explicit_construction', "
            "certificate={'sphere': 6}, assumed_axioms=('a', 'b'))",
        ),
    ],
)
def test_sphere_verdict_is_an_immutable_record(fields, expected_repr):
    check_record(SphereVerdict, fields, expected_repr, hashable=False)
