import hashlib
import json
import random
from fractions import Fraction

import pytest

from acstk.char_class import SphereCohomologyClass, replay_lemma_pontryagin_euler
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
    # the Whitney formula in the model: (1 + x)^2 = 1 + 2x
    one = SphereCohomologyClass(m, 1, 0)
    assert (one + x) * (one + x) == one + 2 * x
    with pytest.raises(ValueError, match="different dimension"):
        x * SphereCohomologyClass(2 * m, 0, 1)


@pytest.mark.parametrize(
    "expr",
    [
        lambda x: x + 1,
        lambda x: x - 1,
        lambda x: 1 + x,
        lambda x: 1 - x,
        lambda x: x * 0.5,
        lambda x: 0.5 * x,
        lambda x: x * "2",
    ],
    ids=["add", "sub", "radd", "rsub", "mul-float", "rmul-float", "mul-str"],
)
def test_non_class_operands_raise_type_error(expr):
    with pytest.raises(TypeError):
        expr(SphereCohomologyClass(2, 1, 0))


def test_lemma_replay_small_k():
    rep1 = replay_lemma_pontryagin_euler(1)
    assert rep1["pairing"] == "-4"
    assert rep1["contradiction"] is True
    rep2 = replay_lemma_pontryagin_euler(2)
    assert rep2["pairing"] == "4"


def test_lemma_replay_chain_contents():
    k = 3
    data = replay_lemma_pontryagin_euler(k)
    assert data["lemma"] == "pontryagin_euler"
    assert data["k"] == k
    # the complexification step must show 1 + 2*c_{2k}
    step = data["steps"][2]
    assert step["class"]["components"] == {str(2 * k): "2"}
    assert data["pairing"] == str((-1) ** k * 4)
    assert data["assumed_axioms"]


def test_lemma_replay_closed_form_up_to_ten():
    for k in range(1, 11):
        assert replay_lemma_pontryagin_euler(k)["pairing"] == str((-1) ** k * 4)
    with pytest.raises(ValueError):
        replay_lemma_pontryagin_euler(0)


def test_lemma_replay_bytes_are_pinned():
    # every k up to the classify cap n = 400; the certificate bytes must not move
    text = json.dumps(
        [replay_lemma_pontryagin_euler(k) for k in range(1, 101)], sort_keys=True
    )
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "6521b6700f862b8cb8810e909dc6523d429d9793fde7a07781211fb01df5b83c"
    )


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
    ],
    ids=["SphereCohomologyClass"],
)
def test_class_records_are_immutable(cls, fields, expected_repr, hashable, errors):
    check_record(cls, fields, expected_repr, hashable=hashable, errors=errors)
