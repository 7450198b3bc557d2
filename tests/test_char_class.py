import random
from fractions import Fraction

import pytest

from acstk.char_class import (
    KIND_CHERN,
    KIND_PONTRYAGIN,
    KIND_STIEFEL_WHITNEY,
    LemmaReplay,
    SphereCohomologyClass,
    TotalClass,
    conjugate_classes,
    euler_from_top_chern,
    pontryagin_from_complexification,
    replay_lemma_pontryagin_euler,
    whitney_product,
)
from record_contract import check_record


def test_truncated_ring_axioms():
    rng = random.Random(0)
    m = 4

    def rand():
        return SphereCohomologyClass(
            m, Fraction(rng.randint(-5, 5), rng.randint(1, 3)), Fraction(rng.randint(-5, 5))
        )

    for _ in range(25):
        a, b, c = rand(), rand(), rand()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    # the generator squares to zero
    x = SphereCohomologyClass(m, 0, 1)
    assert x * x == SphereCohomologyClass(m, 0, 0)
    assert x.pairing() == 1


def test_total_class_projects_impossible_degrees():
    # on S^4 only c_2 (degree 4) survives; c_1 (degree 2) is projected away
    c = TotalClass(KIND_CHERN, 4, {1: 3, 2: 5})
    assert c.component(1) == 0
    assert c.component(2) == 5
    assert c.degree_of_index(2) == 4


def test_whitney_product_examples():
    one = TotalClass.unit(KIND_CHERN, 8)
    c = TotalClass(KIND_CHERN, 8, {4: 1})
    assert whitney_product(c, one) == c
    for k in (1, 2):
        m = 4 * k
        ck = TotalClass(KIND_CHERN, m, {2 * k: 1})
        assert whitney_product(ck, ck) == TotalClass(KIND_CHERN, m, {2 * k: 2})
    # characteristic 2: (1 + w)^2 = 1 + 2w = 1
    w = TotalClass(KIND_STIEFEL_WHITNEY, 4, {4: 1})
    assert whitney_product(w, w) == TotalClass.unit(KIND_STIEFEL_WHITNEY, 4)


def test_whitney_product_errors():
    c = TotalClass(KIND_CHERN, 4, {2: 1})
    p = TotalClass(KIND_PONTRYAGIN, 4, {1: 1})
    with pytest.raises(ValueError, match="chern class by a pontryagin"):
        whitney_product(c, p)
    other = TotalClass(KIND_CHERN, 8, {4: 1})
    with pytest.raises(ValueError, match="different dimension"):
        whitney_product(c, other)


def test_conjugate_classes():
    c1 = TotalClass(KIND_CHERN, 2, {1: 1})
    assert conjugate_classes(c1) == TotalClass(KIND_CHERN, 2, {1: -1})
    c2 = TotalClass(KIND_CHERN, 4, {2: 1})
    assert conjugate_classes(c2) == c2
    mixed = TotalClass(KIND_CHERN, 6, {3: Fraction(5, 2)})
    assert conjugate_classes(conjugate_classes(mixed)) == mixed
    with pytest.raises(ValueError, match="chern"):
        conjugate_classes(TotalClass(KIND_PONTRYAGIN, 4, {1: 1}))


def test_pontryagin_from_complexification():
    for k in (1, 2, 3):
        m = 4 * k
        doubled = TotalClass(KIND_CHERN, m, {2 * k: 2})
        p = pontryagin_from_complexification(doubled)
        assert p == TotalClass(KIND_PONTRYAGIN, m, {k: (-1) ** k * 2})
    assert pontryagin_from_complexification(
        TotalClass.unit(KIND_CHERN, 4)
    ) == TotalClass.unit(KIND_PONTRYAGIN, 4)
    # odd-indexed components are torsion and disappear
    odd_only = TotalClass(KIND_CHERN, 2, {1: 7})
    assert pontryagin_from_complexification(odd_only) == TotalClass.unit(KIND_PONTRYAGIN, 2)
    # a complexification equals its own conjugate, and the extraction agrees
    c = TotalClass(KIND_CHERN, 8, {4: Fraction(3, 2)})
    assert pontryagin_from_complexification(conjugate_classes(c)) == pontryagin_from_complexification(c)
    with pytest.raises(ValueError):
        pontryagin_from_complexification(TotalClass(KIND_PONTRYAGIN, 4, {1: 1}))


def test_euler_from_top_chern():
    tangent_model = TotalClass(KIND_CHERN, 2, {1: 2})
    assert euler_from_top_chern(tangent_model, 1) == 2
    assert euler_from_top_chern(TotalClass.unit(KIND_CHERN, 2), 1) == 0
    # S^{2n} tangent model pairs to the Euler characteristic 2
    for n in (2, 3):
        model = TotalClass(KIND_CHERN, 2 * n, {n: 2})
        assert euler_from_top_chern(model, n) == 2
    with pytest.raises(ValueError):
        euler_from_top_chern(TotalClass(KIND_PONTRYAGIN, 4, {1: 1}), 1)


def test_lemma_replay_small_k():
    rep1 = replay_lemma_pontryagin_euler(1)
    assert rep1.pairing == -4
    assert rep1.contradiction
    rep2 = replay_lemma_pontryagin_euler(2)
    assert rep2.pairing == 4


def test_lemma_replay_chain_contents():
    k = 3
    rep = replay_lemma_pontryagin_euler(k)
    data = rep.as_dict()
    assert data["lemma"] == "pontryagin_euler"
    assert data["k"] == k
    # the complexification step must show 1 + 2*c_{2k}
    step = data["steps"][2]
    assert step["class"]["components"] == {str(2 * k): "2"}
    assert data["pairing"] == str((-1) ** k * 4)
    assert data["assumed_axioms"]


def test_lemma_replay_closed_form_up_to_ten():
    for k in range(1, 11):
        assert replay_lemma_pontryagin_euler(k).pairing == (-1) ** k * 4
    with pytest.raises(ValueError):
        replay_lemma_pontryagin_euler(0)


def test_stiefel_whitney_coefficients_are_mod_two():
    w = TotalClass(KIND_STIEFEL_WHITNEY, 4, {4: 3})
    assert w.component(4) == 1
    with pytest.raises(ValueError, match="integer"):
        TotalClass(KIND_STIEFEL_WHITNEY, 4, {4: Fraction(1, 2)})


@pytest.mark.parametrize(
    "kind, sphere_dim, components, text",
    [
        (KIND_CHERN, 4, {}, "1"),
        (KIND_CHERN, 4, {2: 1}, "1 + c2"),
        (KIND_CHERN, 4, {2: -1, 1: 7}, "1 - c2"),
        (KIND_CHERN, 6, {3: Fraction(-3, 2)}, "1 - 3/2*c3"),
        (KIND_PONTRYAGIN, 8, {2: Fraction(5, 7)}, "1 + 5/7*p2"),
        (KIND_PONTRYAGIN, 4, {1: -2}, "1 - 2*p1"),
        (KIND_STIEFEL_WHITNEY, 4, {4: 3, 2: 1}, "1 + w4"),
        (KIND_STIEFEL_WHITNEY, 4, {4: -2}, "1"),
    ],
)
def test_total_class_str(kind, sphere_dim, components, text):
    assert str(TotalClass(kind, sphere_dim, components)) == text


@pytest.mark.parametrize(
    "cls, fields, expected_repr, hashable, errors",
    [
        (
            SphereCohomologyClass,
            dict(sphere_dim=4, scalar0=1, scalar_top=Fraction(-3, 2)),
            "SphereCohomologyClass(sphere_dim=4, scalar0=Fraction(1, 1), scalar_top=Fraction(-3, 2))",
            True,
            [],
        ),
        (
            TotalClass,
            dict(kind=KIND_CHERN, sphere_dim=4, components={2: -1, 1: 5}),
            "TotalClass(kind='chern', sphere_dim=4, components={2: Fraction(-1, 1)})",
            False,
            [
                (dict(kind="euler"), "unknown class kind 'euler'"),
                (dict(components={0: 1}), "class indices start at 1, got 0"),
                (
                    dict(kind=KIND_STIEFEL_WHITNEY, components={4: Fraction(1, 2)}),
                    "mod-2 classes need integer coefficients",
                ),
            ],
        ),
        (
            LemmaReplay,
            dict(
                k=1, sphere_dim=4, steps=({"label": "c(T)"},), euler_pairing=Fraction(2),
                pairing=Fraction(-4), contradiction=True, assumed_axioms=("chi(S^{2n}) = 2",),
            ),
            "LemmaReplay(k=1, sphere_dim=4, steps=({'label': 'c(T)'},), "
            "euler_pairing=Fraction(2, 1), pairing=Fraction(-4, 1), contradiction=True, "
            "assumed_axioms=('chi(S^{2n}) = 2',))",
            False,
            [],
        ),
    ],
    ids=["SphereCohomologyClass", "TotalClass", "LemmaReplay"],
)
def test_class_records_are_immutable(cls, fields, expected_repr, hashable, errors):
    check_record(cls, fields, expected_repr, hashable=hashable, errors=errors)
