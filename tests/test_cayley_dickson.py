import copy
import hashlib
import itertools
import json
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

from acstk import cayley_dickson
from acstk._exact import _over_common_denominator
from acstk.cayley_dickson import (
    LEVEL_CAP,
    AlternativityReport,
    CDElement,
    _kernel,
    _random_vector,
    _signs,
    associator,
    basis_product,
    probe_alternative,
)
from acstk.sphere_acs import cross
from oracles import (
    QUATERNION_TABLE,
    doubling_product,
    probe_alternative_oracle,
    random_cd_element,
    random_scan_oracle,
)
from record_contract import check_record


def basis(level, i):
    return CDElement.basis(level, i)


def scalar(level, q):
    """The scalar q at `level`: the unit basis(level, 0) times q."""
    return basis(level, 0) * q


def test_quaternion_table_oracle():
    # the gathered integer product must reproduce the hardcoded table
    for (i, j), (sign, k) in QUATERNION_TABLE.items():
        assert basis(2, i) * basis(2, j) == basis(2, k) * sign


def test_product_matches_doubling_formula():
    rng = random.Random(9)
    dens = (1, 2, 3, 7, 10, 12, 97)
    for level in range(6):
        for _ in range(20):
            # about a third of the coefficients are zero, the rest carry
            # mixed denominators
            a, b = (
                CDElement(level, tuple(
                    0 if rng.random() < 0.35 else Fraction(rng.randint(-30, 30), rng.choice(dens))
                    for _ in range(1 << level)
                ))
                for _ in range(2)
            )
            assert (a * b).coeffs == doubling_product(a.coeffs, b.coeffs)
    zero = basis(3, 0) * 0
    assert zero * basis(3, 5) == zero == basis(3, 5) * zero


def test_unit_axiom_all_levels():
    rng = random.Random(0)
    for level in range(5):
        one = basis(level, 0)
        for _ in range(5):
            x = random_cd_element(level, rng)
            assert one * x == x
            assert x * one == x


def test_octonions_are_not_associative():
    lhs = basis(3, 1) * (basis(3, 2) * basis(3, 4))
    rhs = (basis(3, 1) * basis(3, 2)) * basis(3, 4)
    assert lhs != rhs
    assert associator(basis(3, 1), basis(3, 2), basis(3, 4)) == basis(3, 7) * 2


def test_associator_matches_its_definition():
    # the unreduced integer route against two reduced products
    rng = random.Random(12)
    for level in range(2, 6):
        for _ in range(10):
            u, v, w = (random_cd_element(level, rng) for _ in range(3))
            assert associator(u, v, w) == (u * v) * w - u * (v * w)
            assert associator(u, u, w) == (u * u) * w - u * (u * w)


@pytest.mark.parametrize(
    "max_num, max_den",
    [(9, 9), (6, 4), (3, 16), (0, 1)],
    ids=["sphere-samplers", "random_element", "power-of-two-widths", "width-one"],
)
def test_random_vector_matches_randint(max_num, max_den):
    # getrandbits with randint's rejection rule: the same values from the same
    # draws, over their common denominator, so the generator's state after the
    # call is the same too.  (9, 9) is the range of the J check's draws, and
    # (6, 4) that of the probe's draws and of `random_element_oracle`
    for seed in range(40):
        rng, ref = random.Random(seed), random.Random(seed)
        vector = _random_vector(rng, 33, max_num, max_den)
        pairs = [(ref.randint(-max_num, max_num), ref.randint(1, max_den)) for _ in range(33)]
        assert vector == _over_common_denominator(pairs)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize(
    "expr",
    [
        lambda e: e + 1,
        lambda e: e - 1,
        lambda e: 1 + e,
        lambda e: 1 - e,
        lambda e: e * 0.5,
        lambda e: 0.5 * e,
        lambda e: 2 * e,
        lambda e: associator(e, e, 1),
        lambda e: associator(e, 1, e),
        lambda e: associator(1, e, e),
        lambda e: cross(e, 1),
        lambda e: cross(1, e),
        lambda e: e.inner(1),
    ],
    ids=[
        "add", "sub", "radd", "rsub", "mul-float", "rmul-float", "rmul-int",
        "associator-w", "associator-v", "associator-u", "cross-v", "cross-u", "inner",
    ],
)
def test_non_element_operands_raise_type_error(expr):
    with pytest.raises(TypeError):
        expr(basis(3, 1))


def test_level_mismatch_errors_name_both_levels():
    a = basis(2, 0)
    b = basis(3, 0)
    with pytest.raises(ValueError, match="level-2.*level-3"):
        a * b
    with pytest.raises(ValueError, match="level-3.*level-2"):
        b + a
    with pytest.raises(ValueError):
        associator(a, a, b)


def test_conjugation_basics():
    assert basis(3, 0).conjugate() == basis(3, 0)
    assert basis(3, 1).conjugate() == -basis(3, 1)
    rng = random.Random(1)
    for level in range(5):
        a = random_cd_element(level, rng)
        assert a.conjugate().conjugate() == a


def test_conjugation_antiautomorphism_random_level3():
    rng = random.Random(2)
    for _ in range(100):
        a = random_cd_element(3, rng)
        b = random_cd_element(3, rng)
        assert (a * b).conjugate() == b.conjugate() * a.conjugate()


def test_conjugation_antiautomorphism_exhaustive_basis():
    # generic arithmetic up to the octonions; structure table at level 4
    for level in range(4):
        dim = 1 << level
        for i in range(dim):
            for j in range(dim):
                a, b = basis(level, i), basis(level, j)
                assert (a * b).conjugate() == b.conjugate() * a.conjugate()
    for i in range(16):
        si = 1 if i == 0 else -1
        for j in range(16):
            sj = 1 if j == 0 else -1
            s, k = basis_product(4, i, j)
            sk = 1 if k == 0 else -1
            s2, k2 = basis_product(4, j, i)
            assert (s * sk, k) == (sj * si * s2, k2)


def test_norm_sq():
    assert (basis(3, 0) * 0).norm_sq() == 0
    assert CDElement(2, (1, 2, 3, 4)).norm_sq() == 30
    rng = random.Random(3)
    for level in range(5):
        a = random_cd_element(level, rng)
        prod = a * a.conjugate()
        assert prod.real_part() == a.norm_sq()
        assert not any(prod.num[1:])


def test_norm_composition_up_to_octonions():
    for level in (0, 1, 2, 3):
        dim = 1 << level
        for i in range(dim):
            for j in range(dim):
                a, b = basis(level, i), basis(level, j)
                assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()
    rng = random.Random(4)
    for level in (2, 3):
        for _ in range(50):
            a = random_cd_element(level, rng)
            b = random_cd_element(level, rng)
            assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()


def test_sedenions_have_zero_divisors():
    # search with the structure table, then confirm with generic arithmetic
    found = None
    for i in range(1, 16):
        for j in range(i + 1, 16):
            for k in range(1, 16):
                for l in range(k + 1, 16):
                    parts = {}
                    for a, b in ((i, k), (i, l), (j, k), (j, l)):
                        s, idx = basis_product(4, a, b)
                        parts[idx] = parts.get(idx, 0) + s
                    if all(v == 0 for v in parts.values()):
                        found = (i, j, k, l)
                        break
                if found:
                    break
            if found:
                break
        if found:
            break
    assert found is not None
    i, j, k, l = found
    u = basis(4, i) + basis(4, j)
    v = basis(4, k) + basis(4, l)
    assert u.norm_sq() == 2 and v.norm_sq() == 2
    assert not (u * v)
    assert (u * v).norm_sq() != u.norm_sq() * v.norm_sq()


def test_associator_vanishes_on_quaternions():
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert not associator(basis(2, i), basis(2, j), basis(2, k))


def test_associator_alternates_on_octonions():
    assert not associator(basis(3, 1), basis(3, 1), basis(3, 4))
    for i in range(8):
        for j in range(8):
            a, b = basis(3, i), basis(3, j)
            assert not associator(a, a, b)
            assert not associator(a, b, b)
            assert not associator(a, b, a)
    rng = random.Random(5)
    for _ in range(50):
        u = random_cd_element(3, rng)
        v = random_cd_element(3, rng)
        assert not associator(u, u, v)
        assert not associator(u, v, v)
        assert not associator(u, v, u)


def test_real_and_imaginary_parts():
    assert not any(basis(3, 0).num[1:])
    assert (basis(3, 1) * basis(3, 1)).real_part() == -1
    rng = random.Random(6)
    for level in range(5):
        a = random_cd_element(level, rng)
        imaginary = CDElement(level, (0, *a.coeffs[1:]))
        assert scalar(level, a.real_part()) + imaginary == a
        assert imaginary.is_imaginary() and imaginary.real_part() == 0


def test_polarization_for_imaginary_arguments():
    rng = random.Random(7)
    for level in (2, 3):
        for _ in range(50):
            u = random_cd_element(level, rng, imaginary=True)
            v = random_cd_element(level, rng, imaginary=True)
            lhs = u * v.conjugate() + v.conjugate() * u
            assert lhs == scalar(level, 2 * u.inner(v))


def test_orthogonality_identity():
    rng = random.Random(8)
    for level in (2, 3):
        for _ in range(50):
            u = random_cd_element(level, rng, imaginary=True)
            v = random_cd_element(level, rng, imaginary=True)
            if u.norm_sq() == 0:
                continue
            # make v exactly orthogonal to u
            v = v - u * (u.inner(v) / u.norm_sq())
            assert u.inner(v) == 0
            assert u * v.conjugate() == -(v.conjugate() * u)


def test_probe_alternative_levels():
    assert probe_alternative(2, samples=50, seed=0).alternative
    assert probe_alternative(3, samples=50, seed=0).alternative
    report = probe_alternative(4, samples=50, seed=0)
    assert not report.alternative
    # the witness must actually be a repeated-argument associator
    u, v = report.witness_u, report.witness_v
    assert report.witness_form == "[u,u,v]"
    value = associator(u, u, v)
    assert value == report.witness_associator
    assert value


@pytest.mark.parametrize(
    "level, samples, digest",
    [
        (4, 200, "b58ff60df063ecc136ed12cba4444acdf580d7f8091702a3bc5beb767933f4d7"),
        (5, 20, "342f063bad97e630e557553a422795458870c489fc59873d99ab8700b4c71dad"),
    ],
)
def test_probe_alternative_snapshot(level, samples, digest):
    data = probe_alternative(level, samples=samples).as_dict()
    text = json.dumps(data, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("level", range(6))
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_probe_alternative_matches_per_triple_oracle(level, seed):
    # levels 0-3 are alternative, so every scan runs to its end there
    assert probe_alternative(level, samples=15, seed=seed) == probe_alternative_oracle(level, 15, seed)


@pytest.mark.parametrize("level, samples", [(4, 60), (4, 5), (5, 10)])
def test_probe_draws_nothing_after_a_basis_witness(monkeypatch, level, samples):
    # from level 4 on the basis scans find a witness, which the report keeps,
    # so the random scan is never run
    def refuse(*args):
        raise AssertionError("the random scan ran after a basis witness")

    monkeypatch.setattr(cayley_dickson, "_random_witness", refuse)
    assert probe_alternative(level, samples=samples) == probe_alternative_oracle(level, samples, 0)


def test_probe_random_scan_reports_its_first_witness(monkeypatch):
    # no basis scan finds a witness, so the random scan's first one is reported
    monkeypatch.setattr(cayley_dickson, "_basis_associator", lambda *args: 0)
    for seed in (0, 3):
        report = probe_alternative(4, samples=4, seed=seed)
        checks, (form, u, v, val) = random_scan_oracle(4, 4, seed)
        assert report.random_checks == checks
        assert report.witness_form == form and report.witness_associator == val
        assert (report.witness_u, report.witness_v) == (u, v)


@pytest.mark.parametrize(
    "level, samples, products",
    [
        (3, 7, 70),  # alternative: every random triple is computed and examined, 10 products a pair
        (2, 5, 50),
        (4, 0, 4),  # the basis witness's associator
        (4, 60, 4),  # the same: a basis witness leaves the random scan unrun
    ],
)
def test_probe_computes_only_the_products_it_reads(monkeypatch, level, samples, products):
    calls = []

    def counting(level):
        product = _kernel(level)
        return lambda a, b: calls.append(1) or product(a, b)

    monkeypatch.setattr(cayley_dickson, "_kernel", counting)
    probe_alternative(level, samples=samples)
    assert len(calls) == products


@pytest.mark.parametrize("samples, size", [(60, "full"), (5, "tiny")])
def test_probe_line_matches_the_benchmark_golden_digest(samples, size):
    # the sphere-algebra workload digests only its probe line, as bench/sphere_driver.py prints it
    golden = json.loads((Path(__file__).resolve().parent.parent / "bench" / "golden.json").read_text())
    report = probe_alternative(4, samples=samples).as_dict()
    line = "probe " + json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    assert hashlib.sha256(line.encode()).hexdigest() == golden["sha256"]["sphere-algebra"][size]


def test_probe_cost_guard():
    with pytest.raises(ValueError, match="^probe level must be at most 5, got 6$"):
        probe_alternative(6)


def test_probe_refuses_a_negative_level():
    with pytest.raises(ValueError, match="^probe level must be at least 0, got -1$"):
        probe_alternative(-1)


def test_probe_refuses_negative_samples():
    # a negative count used to run no random triple and report random_checks: 0
    with pytest.raises(ValueError, match="^probe samples must be at least 0, got -3$"):
        probe_alternative(4, samples=-3)


def test_serialization_round_trip():
    a = CDElement(2, (Fraction(1, 2), Fraction(-2, 4), 3, 0))
    data = a.as_dict()
    assert data == {"level": 2, "coeffs": ["1/2", "-1/2", "3", "0"]}
    assert CDElement(data["level"], data["coeffs"]) == a


def test_str_rendering():
    assert str(CDElement(2, (0, 0, 0, 0))) == "0"
    assert str(CDElement(2, (0, -1, Fraction(3, 2), -2))) == "-e1 + 3/2*e2 - 2*e3"
    assert str(CDElement(2, (-3, 1, 0, 1))) == "-3 + e1 + e3"


def test_coefficient_validation():
    with pytest.raises(ValueError, match="4 coefficients"):
        CDElement(2, (1, 2, 3))
    with pytest.raises(ValueError):
        CDElement(-1, ())
    with pytest.raises(ValueError):
        CDElement.basis(2, 4)


@pytest.mark.parametrize(
    "build",
    [
        lambda n: CDElement(n, [0] * (1 << n)),
        lambda n: CDElement.basis(n, 0) * 0,
        lambda n: CDElement.basis(n, 0),
        lambda n: CDElement.basis(n, 0) * 3,
        lambda n: CDElement.basis(n, 1),
    ],
    ids=["init", "zero", "one", "scalar", "basis"],
)
def test_levels_above_the_cap_are_refused_before_compiling(build):
    top = build(LEVEL_CAP)
    assert top.level == LEVEL_CAP
    compiled = _kernel.cache_info().currsize
    with pytest.raises(ValueError, match=f"^level must be at most {LEVEL_CAP}, got {LEVEL_CAP + 1}$"):
        build(LEVEL_CAP + 1)
    assert _kernel.cache_info().currsize == compiled


def test_top_level_product_follows_the_structure_constants():
    sign, k = basis_product(LEVEL_CAP, 37, 21)
    assert basis(LEVEL_CAP, 37) * basis(LEVEL_CAP, 21) == basis(LEVEL_CAP, k) * sign


@pytest.mark.parametrize("level", [-1, LEVEL_CAP + 1, 3000])
def test_structure_constants_refuse_levels_outside_the_cap(level):
    # the level is refused before any sign table is built
    built = _signs.cache_info().currsize
    bound = "at least 0" if level < 0 else f"at most {LEVEL_CAP}"
    with pytest.raises(ValueError, match=f"^level must be {bound}, got {level}$"):
        basis_product(level, 0, 0)
    assert _signs.cache_info().currsize == built


@pytest.mark.parametrize("level", range(5))
def test_structure_constants_match_the_doubling_formula(level):
    # the oracle multiplies basis vectors by the recursive doubling formula,
    # so the sign table and its XOR index are checked against an independent route
    dim = 1 << level
    unit = [tuple(int(m == i) for m in range(dim)) for i in range(dim)]
    for i, j in itertools.product(range(dim), repeat=2):
        sign, k = basis_product(level, i, j)
        assert tuple(sign * x for x in unit[k]) == doubling_product(unit[i], unit[j])


def test_repr_is_pinned():
    # the Record repr: the stored integer numerators over one denominator
    assert repr(CDElement(0, (Fraction(-7, 3),))) == "CDElement(level=0, num=(-7,), den=3)"
    assert repr(CDElement(1, (Fraction(2, 4), 3))) == "CDElement(level=1, num=(1, 6), den=2)"
    assert repr(basis(2, 1) * basis(2, 2) * Fraction(-1, 6)) == "CDElement(level=2, num=(0, 0, 0, -1), den=6)"
    assert repr(basis(1, 0) * 0) == "CDElement(level=1, num=(0, 0), den=1)"


def _same_value_by_every_route():
    """Equal level-2 values (1/2, -3/4, 0, 0) and zeros, built by different routes."""
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    target = [
        CDElement(2, (Fraction(2, 4), Fraction(-3, 4), 0, 0)),
        CDElement(2, ["1/2", Fraction(-6, 8), 0, Fraction(0, 5)]),
        scalar(2, quarter) * CDElement(2, (2, -3, 0, 0)),
        CDElement(2, (1, -quarter, 0, 0)) + CDElement(2, (-half, -half, 0, 0)),
        CDElement(2, (1, 0, 0, 1)) - CDElement(2, (half, Fraction(3, 4), 0, 1)),
        CDElement(2, (4, -6, 0, 0)) * Fraction(1, 8),
        CDElement(2, (*CDElement(1, (half, Fraction(-3, 4))).coeffs, 0, 0)),
        -CDElement(2, (-half, Fraction(3, 4), 0, 0)),
        CDElement(2, (half, Fraction(3, 4), 0, 0)).conjugate(),
    ]
    a = CDElement(2, (Fraction(5, 6), Fraction(-1, 9), 2, 0))
    zeros = [
        basis(2, 0) * 0,
        CDElement(2, (0, Fraction(0, 7), 0, 0)),
        a - a,
        a * 0,
        a * (basis(2, 0) * 0),
        a + -a,
        basis(2, 0) - basis(2, 0).conjugate(),
        CDElement(2, (*(basis(1, 0) * 0).coeffs, 0, 0)),
    ]
    return target, zeros


def test_equal_values_compare_and_hash_equal_across_routes():
    target, zeros = _same_value_by_every_route()
    for group in (target, zeros):
        first = group[0]
        for x in group:
            assert x == first and not x != first
            assert hash(x) == hash(first)
        assert len(set(group)) == 1
    assert target[0] != zeros[0]
    assert basis(2, 0) * 0 != basis(3, 0) * 0
    assert basis(1, 0) != (1, 0)
    assert {target[3]: "v"}[target[7]] == "v"


def test_elements_are_immutable():
    a = CDElement(1, (1, Fraction(2, 3)))
    with pytest.raises(AttributeError):
        a.level = 2
    with pytest.raises(AttributeError):
        a.coeffs = (Fraction(0), Fraction(0))
    with pytest.raises(AttributeError):
        del a.level
    with pytest.raises(AttributeError):
        (a * a).coeffs = ()
    assert a == CDElement(1, (1, Fraction(2, 3)))


def test_copies_and_pickles_are_equal():
    for x in _same_value_by_every_route()[0][:4] + [basis(4, 9) * Fraction(-5, 3)]:
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and hash(y) == hash(x) and y.coeffs == x.coeffs


def test_coeffs_are_fractions():
    target, zeros = _same_value_by_every_route()
    a, b = CDElement(3, tuple(range(8))), random_cd_element(3, random.Random(10))
    results = target + zeros + [a, a * b, a + b, b.conjugate(), CDElement.basis(3, 2)]
    for x in results:
        assert type(x.coeffs) is tuple
        assert all(type(c) is Fraction for c in x.coeffs)
    for value in (a.norm_sq(), a.inner(b), b.real_part(), (basis(1, 0) * 0).norm_sq()):
        assert type(value) is Fraction


@pytest.mark.parametrize(
    "fields, expected_repr",
    [
        (
            dict(
                level=1, alternative=False, basis_checks=8, random_checks=0,
                witness_form=None, witness_u=None, witness_v=None, witness_associator=None,
            ),
            "AlternativityReport(level=1, alternative=False, basis_checks=8, random_checks=0, "
            "witness_form=None, witness_u=None, witness_v=None, witness_associator=None)",
        ),
        (
            dict(
                level=1, alternative=False, basis_checks=8, random_checks=3,
                witness_form="[u, u, v]", witness_u=basis(1, 1),
                witness_v=CDElement(1, (Fraction(1, 2), 0)), witness_associator=basis(1, 0) * 0,
            ),
            "AlternativityReport(level=1, alternative=False, basis_checks=8, random_checks=3, "
            "witness_form='[u, u, v]', "
            "witness_u=CDElement(level=1, num=(0, 1), den=1), "
            "witness_v=CDElement(level=1, num=(1, 0), den=2), "
            "witness_associator=CDElement(level=1, num=(0, 0), den=1))",
        ),
    ],
    ids=["defaults", "witness"],
)
def test_alternativity_report_is_an_immutable_record(fields, expected_repr):
    defaults = dict(witness_form=None, witness_u=None, witness_v=None, witness_associator=None)
    check_record(AlternativityReport, fields, expected_repr, defaults=defaults)
